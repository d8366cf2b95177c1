//! `perfbench`: the reliab benchmark.
//!
//! ```text
//! perfbench --workload serve_mix|tandem_large|batch_sweep
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`bash perfbench/run.sh ...` builds it
//! first). With `--trace 0` it measures the end-to-end metrics with no
//! tracing; with `--trace 1` it makes the traced run instead, which
//! times the public call into each layer and writes the spans to
//! `perfbench/out/trace-<workload>-<seed>.json`. Every answer is checked
//! against an independent route. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is 1 when an answer is wrong and 2 when the run could not
//! be made at all (no result line is printed then).

mod check;
mod gen;
mod http;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// Settings shared by every workload.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory holding the `reliab-serve` binary built next to this one.
    pub bin_dir: PathBuf,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers (empty when every answer checked out).
    pub wrong: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics of layers this workload does not exercise, with
    /// the reason; they read 0.
    pub absent: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    /// Marks every per-layer metric with one of `prefixes` absent.
    pub fn absent(&mut self, prefixes: &[&str], reason: &str) {
        for (name, _) in &workloads::catalogue().per_layer {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.absent.push((name.clone(), reason.to_owned()));
            }
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::catalogue().workloads.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if !workloads::catalogue().workloads.contains(&workload) {
        usage();
    }
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    (
        workload,
        Config {
            seed,
            seconds,
            trace,
            bin_dir,
        },
    )
}

/// The result line: numbers in Rust's shortest round-trip form.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.wrong.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn main() {
    let (workload, cfg) = parse_args();
    let outcome = match workloads::run(&workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    if let Some((name, value, _)) = outcome.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: {workload}: metric {name} is not finite ({value})");
        std::process::exit(2);
    }
    println!(
        "workload {workload} seed {} trace {}: {} attempted, {} failed ({:.2}%)",
        cfg.seed,
        u8::from(cfg.trace),
        outcome.attempted,
        outcome.failed,
        100.0 * outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, value, unit) in &outcome.metrics {
        match outcome.absent.iter().find(|(n, _)| n == name) {
            Some((_, reason)) => println!("  {name:<28} {value:>16.6} {unit} (idle: {reason})"),
            None => println!("  {name:<28} {value:>16.6} {unit}"),
        }
    }
    for w in &outcome.wrong {
        println!("WRONG ANSWER: {w}");
    }
    println!("{}", result_json(&outcome));
    if !outcome.wrong.is_empty() {
        std::process::exit(1);
    }
}
