//! The three workloads and the metric catalogue they report from.

mod batch_sweep;
mod serve_mix;
mod tandem_large;

use crate::{Config, Outcome};
use reliab_spec::json::{self, JsonValue};
use std::sync::OnceLock;

/// The workloads and metrics of `BENCHMARK.json`, read at build time,
/// so the names and units a run reports are the file's by construction.
pub struct Catalogue {
    pub workloads: Vec<String>,
    /// `(name, unit)` of the end-to-end metrics, reported by every
    /// untraced run.
    pub end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of the per-layer metrics, reported by every
    /// traced run. A workload measures those of the layers it exercises
    /// and names the rest as absent, with why; they read 0.
    pub per_layer: Vec<(String, String)>,
}

pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let doc =
            json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<&JsonValue> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
                .iter()
                .collect()
        };
        let field = |m: &JsonValue, key: &str| -> String {
            m.get(key)
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json entry without {key}"))
                .to_owned()
        };
        let metrics = |key: &str| {
            list(key)
                .into_iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        Catalogue {
            workloads: list("workloads")
                .into_iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    })
}

/// Every metric of the catalogue, end-to-end first.
fn all_metrics() -> impl Iterator<Item = &'static (String, String)> {
    let c = catalogue();
    c.end_to_end.iter().chain(&c.per_layer)
}

/// Daemon set-ups per untraced `serve_mix` run; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;
/// Set-ups before each timed round of an in-process workload. Their
/// median is `setup_s`; spread over the run, they see the same machine
/// as the rounds they precede, not only its first seconds.
pub const SETUPS_PER_ROUND: usize = 3;

pub fn unit_of(name: &str) -> &'static str {
    all_metrics().find(|(n, _)| n == name).map_or_else(
        || panic!("metric {name} is not in BENCHMARK.json"),
        |(_, u)| u.as_str(),
    )
}

pub fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    let mut out = match workload {
        "serve_mix" => serve_mix::run(cfg),
        "tandem_large" => tandem_large::run(cfg),
        "batch_sweep" => batch_sweep::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }?;
    complete(&mut out, cfg.trace)?;
    // Report in catalogue order.
    let order = |name: &str| all_metrics().position(|(n, _)| n == name);
    out.metrics.sort_by_key(|(n, _, _)| order(n));
    out.absent.sort_by_key(|(n, _)| order(n));
    Ok(out)
}

/// Makes the result hold exactly the metrics of its kind: every
/// end-to-end metric untraced, every per-layer metric traced. A layer
/// the workload does not exercise does no work in it, so each metric
/// the workload named absent reads 0; the reason stays in the table.
fn complete(out: &mut Outcome, trace: bool) -> Result<(), String> {
    let c = catalogue();
    let wanted = if trace { &c.per_layer } else { &c.end_to_end };
    if let Some((name, _, _)) = out
        .metrics
        .iter()
        .find(|(n, _, _)| !wanted.iter().any(|(w, _)| w == n))
    {
        return Err(format!("metric {name} does not belong in this run"));
    }
    for (name, _) in wanted {
        let measured = out.metrics.iter().any(|(n, _, _)| n == name);
        let idle = out.absent.iter().any(|(n, _)| n == name);
        match (measured, idle) {
            (true, false) => {}
            (false, true) => put(out, name, 0.0),
            (true, true) => return Err(format!("metric {name} is both measured and absent")),
            (false, false) => return Err(format!("metric {name} is neither measured nor absent")),
        }
    }
    Ok(())
}

/// Records `value` under `name` with its catalogue unit.
pub fn put(out: &mut Outcome, name: &str, value: f64) {
    out.metric(name, value, unit_of(name));
}

/// Writes the traced run's spans as Chrome-trace JSON.
pub fn write_trace(workload: &str, seed: u64, spans: &[crate::trace::Span]) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, crate::trace::chrome_trace(spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names passed as literals to `put` in `src`.
    fn put_names(src: &str) -> Vec<&str> {
        src.match_indices("put(")
            .filter(|(i, _)| {
                !src[..*i].ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '.')
            })
            .filter_map(|(i, _)| {
                let args = &src[i + 4..];
                let args = &args[..args.find(')')?];
                let start = args.find('"')? + 1;
                Some(&args[start..start + args[start..].find('"')?])
            })
            .collect()
    }

    #[test]
    fn a_traced_result_holds_every_per_layer_metric() {
        let c = catalogue();
        let (first, _) = &c.per_layer[0];
        let mut out = Outcome::default();
        put(&mut out, first, 1.5);
        assert!(complete(&mut out, true).is_err(), "unaccounted metrics pass");
        out.absent(&[""], "idle");
        assert!(complete(&mut out, true).is_err(), "measured and absent passes");
        out.absent.retain(|(n, _)| n != first);
        complete(&mut out, true).expect("every metric accounted for");
        assert_eq!(out.metrics.len(), c.per_layer.len());
        assert!(out.metrics.iter().all(|(n, v, _)| *v == 0.0 || n == first));
        assert!(complete(&mut out, false).is_err(), "per-layer metrics in an untraced result");
    }

    #[test]
    fn emitted_metric_names_are_those_of_benchmark_json() {
        let c = catalogue();
        let sources = [
            ("serve_mix", include_str!("serve_mix.rs")),
            ("tandem_large", include_str!("tandem_large.rs")),
            ("batch_sweep", include_str!("batch_sweep.rs")),
        ];
        let names: Vec<&str> = sources.iter().map(|(n, _)| *n).collect();
        assert_eq!(c.workloads, names);
        for (workload, src) in sources {
            let emitted = put_names(src);
            assert!(
                emitted.len() > c.end_to_end.len(),
                "{workload}: {emitted:?}"
            );
            for name in &emitted {
                unit_of(name);
            }
            for (name, _) in &c.end_to_end {
                assert!(
                    emitted.contains(&name.as_str()),
                    "{workload} does not report {name}"
                );
            }
        }
        for kind in crate::gen::SERVE_CLASSES {
            unit_of(&format!("spec.solve_us.p50.{kind}"));
        }
    }
}
