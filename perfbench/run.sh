#!/usr/bin/env bash
# Builds the benchmark (and the reliab-serve daemon it drives) from
# source, then runs it with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 20 --trace 0
#
# Cargo's output goes to stderr; the last line of stdout is the result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$target/release/perfbench" "$@"
