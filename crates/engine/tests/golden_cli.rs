//! Golden snapshot tests: `reliab-cli --json` output for every shipped
//! spec in `specs/` is locked against the files in `tests/golden/` at
//! the repository root.
//!
//! When a change legitimately alters solver output (new measures, a
//! numeric method change), regenerate the snapshots and review the
//! diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p reliab-engine --test golden_cli
//! git diff tests/golden/
//! ```
//!
//! The CLI runs with the repository root as its working directory and
//! is handed the relative `specs/<name>.json` path, so the `"file"`
//! field in the locked output is machine-independent. `--stats` is
//! deliberately not used: it reports wall-clock times.

use std::path::{Path, PathBuf};
use std::process::Command;

use reliab_spec::json::JsonValue;
use reliab_spec::{json, ModelSpec};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// Size cap for the per-test spec sweeps: specs whose declared marking
/// cap exceeds this (the ≥10⁶-marking streaming exemplar) are slow in a
/// debug build, so they are covered by `bench-stream` and the env-gated
/// [`large_spec_headline_golden`] instead.
const SWEEP_MAX_MARKINGS: usize = 200_000;

fn is_large_spec(text: &str) -> bool {
    matches!(
        ModelSpec::from_json_str(text),
        Ok(ModelSpec::Spn(s)) if s.max_markings.unwrap_or(0) > SWEEP_MAX_MARKINGS
    )
}

#[test]
fn cli_json_output_matches_golden_snapshots() {
    let root = repo_root();
    let golden_dir = root.join("tests/golden");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&golden_dir).unwrap();
    }

    let mut spec_names: Vec<String> = std::fs::read_dir(root.join("specs"))
        .expect("specs/ exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    spec_names.sort();
    assert!(!spec_names.is_empty(), "specs/ is empty");

    let mut failures = Vec::new();
    for name in &spec_names {
        let text = std::fs::read_to_string(root.join("specs").join(name)).unwrap();
        if is_large_spec(&text) {
            continue;
        }
        let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
            .current_dir(&root)
            .arg("--json")
            .arg(format!("specs/{name}"))
            .output()
            .expect("failed to launch reliab-cli");
        assert!(
            out.status.success(),
            "specs/{name} failed to solve: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = String::from_utf8(out.stdout).expect("utf-8 output");
        assert!(
            !actual.contains("\"error\""),
            "specs/{name} produced an error record:\n{actual}"
        );

        let golden_path = golden_dir.join(name);
        if update {
            std::fs::write(&golden_path, &actual).unwrap();
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(expected) if expected == actual => {}
            Ok(expected) => failures.push(format!(
                "specs/{name}: output differs from tests/golden/{name}\n\
                 --- expected ---\n{expected}\n--- actual ---\n{actual}"
            )),
            Err(_) => failures.push(format!(
                "specs/{name}: no golden snapshot at tests/golden/{name} \
                 (run with UPDATE_GOLDEN=1 to create it)"
            )),
        }
    }

    assert!(
        failures.is_empty(),
        "{} golden mismatch(es); regenerate with \
         `UPDATE_GOLDEN=1 cargo test -p reliab-engine --test golden_cli` \
         and review the diff\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

/// Pulls the SPN measures block out of a `--json` batch record.
fn spn_measures(text: &str, what: &str) -> JsonValue {
    let batch = json::parse(text).unwrap_or_else(|e| panic!("{what}: bad JSON: {e}"));
    let JsonValue::Array(records) = &batch else {
        panic!("{what}: expected a batch array");
    };
    records[0]
        .get("measures")
        .and_then(|m| m.get("spn"))
        .unwrap_or_else(|| panic!("{what}: no spn measures in {text}"))
        .clone()
}

/// Walks the `[[name, value], ...]` measure pairs of one family.
fn measure_pairs(measures: &JsonValue, family: &str) -> Vec<(String, f64)> {
    let Some(JsonValue::Array(pairs)) = measures.get(family) else {
        panic!("missing measure family '{family}'");
    };
    pairs
        .iter()
        .map(|p| {
            let JsonValue::Array(kv) = p else {
                panic!("measure pair is not an array");
            };
            (
                kv[0].as_str().expect("measure name").to_owned(),
                kv[1].as_f64().expect("measure value"),
            )
        })
        .collect()
}

/// The streaming tier (`--stream`) must reproduce every locked SPN
/// golden to 1e-8: same marking counts, same measures, different
/// solver route. Bytes are not compared — the tiers legitimately
/// differ in trailing digits — so this sweeps the numbers instead.
#[test]
fn stream_tier_matches_golden_spn_measures() {
    let root = repo_root();
    let mut checked = 0;
    for entry in std::fs::read_dir(root.join("specs")).expect("specs/ exists") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(root.join("specs").join(&name)).unwrap();
        if is_large_spec(&text) || !matches!(ModelSpec::from_json_str(&text), Ok(ModelSpec::Spn(_)))
        {
            continue;
        }
        let golden_path = root.join("tests/golden").join(&name);
        let Ok(golden_text) = std::fs::read_to_string(&golden_path) else {
            continue; // snapshot not created yet; the byte-lock test reports it
        };
        let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
            .current_dir(&root)
            .arg("--json")
            .arg("--stream")
            .arg(format!("specs/{name}"))
            .output()
            .expect("failed to launch reliab-cli");
        assert!(
            out.status.success(),
            "specs/{name} --stream failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = spn_measures(&String::from_utf8(out.stdout).unwrap(), &name);
        let golden = spn_measures(&golden_text, &name);
        assert_eq!(
            actual.get("num_markings").and_then(JsonValue::as_f64),
            golden.get("num_markings").and_then(JsonValue::as_f64),
            "{name}: marking count"
        );
        for family in ["expected_tokens", "throughput"] {
            let a = measure_pairs(&actual, family);
            let g = measure_pairs(&golden, family);
            assert_eq!(a.len(), g.len(), "{name}: {family} arity");
            for ((an, av), (gn, gv)) in a.iter().zip(&g) {
                assert_eq!(an, gn, "{name}: {family} order");
                assert!(
                    (av - gv).abs() <= 1e-8 * gv.abs().max(1.0),
                    "{name}: {family} '{an}': stream {av} vs golden {gv}"
                );
            }
        }
        checked += 1;
    }
    assert!(checked >= 1, "no streamable SPN specs swept");
}

/// Headline golden for the ≥10⁶-marking streaming exemplar
/// (`specs/tandem_large.json`). The solve takes seconds in a release
/// build but far longer in a debug one, so this only runs when
/// `RUN_LARGE_GOLDEN=1`, which CI's release test job sets; regenerate
/// with `UPDATE_GOLDEN=1 RUN_LARGE_GOLDEN=1`. The committed
/// snapshot holds headline measures only — marking count and the two
/// requested steady-state measures — compared at 1e-6 relative, not
/// byte-locked, so tolerance-level drift in a 10⁶-state iteration does
/// not churn the file.
#[test]
fn large_spec_headline_golden() {
    if std::env::var_os("RUN_LARGE_GOLDEN").is_none() {
        eprintln!("skipped: set RUN_LARGE_GOLDEN=1 to solve specs/tandem_large.json");
        return;
    }
    let root = repo_root();
    let out = Command::new(env!("CARGO_BIN_EXE_reliab-cli"))
        .current_dir(&root)
        .arg("--json")
        .arg("specs/tandem_large.json")
        .output()
        .expect("failed to launch reliab-cli");
    assert!(
        out.status.success(),
        "tandem_large failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let measures = spn_measures(&String::from_utf8(out.stdout).unwrap(), "tandem_large");
    let golden_path = root.join("tests/golden/tandem_large.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", measures.to_json_pretty())).unwrap();
        return;
    }
    let golden = json::parse(&std::fs::read_to_string(&golden_path).expect("golden exists"))
        .expect("golden parses");
    assert_eq!(
        measures.get("num_markings").and_then(JsonValue::as_f64),
        golden.get("num_markings").and_then(JsonValue::as_f64),
        "marking count"
    );
    for family in ["expected_tokens", "throughput"] {
        for ((an, av), (gn, gv)) in measure_pairs(&measures, family)
            .iter()
            .zip(&measure_pairs(&golden, family))
        {
            assert_eq!(an, gn, "{family} order");
            assert!(
                (av - gv).abs() <= 1e-6 * gv.abs().max(1.0),
                "{family} '{an}': {av} vs golden {gv}"
            );
        }
    }
}

/// Every golden snapshot corresponds to a shipped spec — catches
/// stale snapshots left behind by a renamed or deleted spec.
#[test]
fn no_orphaned_golden_snapshots() {
    let root = repo_root();
    let golden_dir = root.join("tests/golden");
    let Ok(entries) = std::fs::read_dir(&golden_dir) else {
        return; // no snapshots yet
    };
    for entry in entries {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            root.join("specs").join(&name).exists(),
            "tests/golden/{name} has no matching specs/{name}; delete the stale snapshot"
        );
    }
}
