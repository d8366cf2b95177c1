//! `tandem_large`: the 10⁶-marking tandem SRN of
//! `specs/tandem_large.json`, solved in-process through `BatchEngine`
//! (the entry `reliab-cli` uses) on the streaming tier. `spn` generates
//! the tangible space and `stream` runs one serial SOR loop; nothing
//! else does measurable work.

use super::{put, write_trace, SETUPS_PER_ROUND};
use crate::check::check_against_golden;
use crate::gen::tandem_doc;
use crate::layers::spn_model;
use crate::stats::{median, own_peak_rss_mb, quantile};
use crate::trace::{coverage, Tracer};
use crate::{Config, Outcome};
use reliab_engine::BatchEngine;
use reliab_spec::json::{self, JsonValue};
use reliab_spec::{ModelSpec, SolveOptions, SolveReport};
use reliab_stream::{scan_rates, steady_state, ArenaRowSource, StreamOptions};
use std::time::Instant;

const SPEC: &str = "specs/tandem_large.json";
const GOLDEN: &str = "tests/golden/tandem_large.json";
/// Warm-up instance: the same net with 37³ ≈ 5·10⁴ markings.
const WARMUP_CAPACITY: u32 = 36;

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Spec load plus a warm-up solve of a small instance of the class.
fn setup() -> Result<String, String> {
    let text = read(SPEC)?;
    ModelSpec::from_json_str(&text).map_err(|e| format!("{SPEC}: {e}"))?;
    let warm = tandem_doc(WARMUP_CAPACITY, [1.0, 2.0, 3.0, 4.0], 0.7, true);
    BatchEngine::new()
        .solve_texts(&[warm])
        .pop()
        .expect("one report per input")
        .map_err(|e| format!("warm-up solve failed: {e}"))?;
    Ok(text)
}

/// The golden headline measures: the `spn` body of the measures.
fn golden() -> Result<JsonValue, String> {
    json::parse(&read(GOLDEN)?).map_err(|e| format!("{GOLDEN}: {e}"))
}

fn check(report: &SolveReport, golden: &JsonValue, out: &mut Outcome) {
    let measures = report.measures.to_json();
    match measures.get("spn") {
        Some(spn) => {
            if let Err(e) = check_against_golden(spn, golden) {
                out.wrong(format!("tandem_large: {e}"));
            }
        }
        None => out.wrong(format!(
            "tandem_large answered as {}",
            report.measures.kind()
        )),
    }
}

fn solve(text: &str) -> Result<(SolveReport, f64), String> {
    let t0 = Instant::now();
    let report = BatchEngine::new()
        .solve_texts(&[text])
        .pop()
        .expect("one report per input");
    let wall = t0.elapsed().as_secs_f64();
    report.map(|r| (r, wall)).map_err(|e| e.to_string())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let golden = golden()?;
    if cfg.trace {
        return traced(cfg, &golden);
    }
    let mut out = Outcome::default();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut text = String::new();
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            text = setup()?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        out.attempted += 1;
        match solve(&text) {
            Ok((report, wall)) => {
                check(&report, &golden, &mut out);
                walls.push(wall);
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: tandem_large solve failed: {e}");
            }
        }
        if out.failed > 0 {
            break;
        }
    }
    if walls.is_empty() {
        return Err("every solve failed".to_owned());
    }
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    put(&mut out, "setup_s", median(&setups).expect("setups ran"));
    put(&mut out, "wall_s", median(&walls).expect("solves ran"));
    put(&mut out, "p50_ms", median(&ms).expect("solves ran"));
    put(&mut out, "p99_ms", quantile(&ms, 0.99).expect("solves ran"));
    put(
        &mut out,
        "rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    put(
        &mut out,
        "peak_rss_mb",
        own_peak_rss_mb().ok_or("no VmHWM")?,
    );
    Ok(out)
}

/// The traced run: the spec, spn and stream calls the solve makes, each
/// in its own span, then one untraced solve for comparison.
fn traced(cfg: &Config, golden: &JsonValue) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let text = setup()?;
    let opts = SolveOptions::default();
    let tracer = Tracer::new();
    let root = tracer.begin("tandem_large", 0, None, Some(0));
    let parent = Some(root.id());
    let (parsed, parse_s) = tracer.time("spec.parse", 0, parent, Some(0), || {
        ModelSpec::from_json_str(&text)
    });
    let Ok(ModelSpec::Spn(spec)) = parsed else {
        return Err(format!("{SPEC} is not an spn document"));
    };
    let (model, _) = tracer.time("spn.build", 0, parent, Some(0), || spn_model(&spec));
    let model = model?;
    let (space, space_s) = tracer.time("spn.space", 0, parent, Some(0), || {
        model.spn.tangible_space(&model.ropts)
    });
    let space = space.map_err(|e| e.to_string())?;
    let space_hwm = own_peak_rss_mb().ok_or("no VmHWM")?;
    let mut src = ArenaRowSource::new(&space);
    let (scan, scan_s) = tracer.time("stream.scan", 0, parent, Some(0), || scan_rates(&mut src));
    scan.map_err(|e| e.to_string())?;
    let sopts = StreamOptions {
        tolerance: opts.tolerance,
        max_iterations: opts.max_iterations,
        ..StreamOptions::default()
    };
    let (report, steady_s) = tracer.time("stream.steady", 0, parent, Some(0), || {
        steady_state(&mut src, &sopts)
    });
    let report = report.map_err(|e| e.to_string())?;
    let (measures, _) = tracer.time(
        "spn.measures",
        0,
        parent,
        Some(0),
        || -> Result<JsonValue, String> {
            let place = model.places["stage3"];
            let t = model.transitions["serve3"];
            let tokens = space
                .expected_tokens_given(&report.pi, place)
                .map_err(|e| e.to_string())?;
            let thru = space
                .throughput_given(&report.pi, t)
                .map_err(|e| e.to_string())?;
            Ok(json::object(vec![
                (
                    "num_markings",
                    JsonValue::Number(space.num_markings() as f64),
                ),
                (
                    "expected_tokens",
                    JsonValue::Array(vec![JsonValue::Array(vec![
                        "stage3".into(),
                        JsonValue::Number(tokens),
                    ])]),
                ),
                (
                    "throughput",
                    JsonValue::Array(vec![JsonValue::Array(vec![
                        "serve3".into(),
                        JsonValue::Number(thru),
                    ])]),
                ),
            ]))
        },
    );
    let traced_wall = tracer.end(root);
    if let Err(e) = check_against_golden(&measures?, golden) {
        out.wrong(format!("tandem_large traced layers: {e}"));
    }
    let sstats = space.stats();
    let (markings, arcs) = (sstats.markings, sstats.arcs);
    drop(src);
    drop(space);

    out.attempted = 2;
    let (untraced, wall) = solve(&text)?;
    check(&untraced, golden, &mut out);
    let t0 = Instant::now();
    let encoded = untraced.to_json().to_json();
    let encode_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(encoded);
    let solve_us = untraced.stats.wall_time.as_secs_f64() * 1e6;

    let spans = tracer.spans();
    write_trace("tandem_large", cfg.seed, &spans)?;
    let sweeps = report.iterations;
    let plan = report.plan;
    put(&mut out, "engine.busy_ratio", solve_us / 1e6 / wall);
    put(&mut out, "spec.parse_us.p50", parse_s * 1e6);
    put(&mut out, "spec.solve_us.p50", solve_us);
    put(&mut out, "spec.solve_us.p50.spn", solve_us);
    put(&mut out, "spec.encode_us.p50", encode_s * 1e6);
    put(&mut out, "spn.space_s", space_s);
    put(&mut out, "spn.markings", markings as f64);
    put(&mut out, "spn.arcs", arcs as f64);
    put(&mut out, "spn.space_hwm_mb", space_hwm);
    put(&mut out, "stream.scan_s", scan_s);
    put(&mut out, "stream.steady_s", steady_s);
    put(&mut out, "stream.sweeps", sweeps as f64);
    put(
        &mut out,
        "stream.sweep_ms",
        steady_s * 1e3 / sweeps.max(1) as f64,
    );
    put(
        &mut out,
        "stream.bytes_per_sweep",
        bytes_per_sweep(plan.states, plan.arcs),
    );
    put(&mut out, "stream.plan_peak_bytes", plan.peak_bytes() as f64);
    put(&mut out, "trace.coverage", coverage(&spans));
    put(&mut out, "trace.overhead", traced_wall / wall);
    out.absent(
        &["serve."],
        "no daemon in this workload; measured on serve_mix",
    );
    out.absent(
        &["engine.memo_hit_ratio", "engine.speedup"],
        "one document per engine: nothing to share or spread; measured on serve_mix and batch_sweep",
    );
    out.absent(
        &[
            "spec.solve_us.p50.ctmc",
            "spec.solve_us.p50.rbd",
            "spec.solve_us.p50.fault_tree",
            "spec.solve_us.p50.rel_graph",
            "spec.solve_us.p50.hierarchy",
            "spec.solve_us.p50.uncertainty",
            "spec.solve_us.p50.bounds",
            "spec.solve_us.p50.sim",
            "spec.solve_us.p50.semi_markov",
        ],
        "the only class solved here is spn",
    );
    out.absent(
        &["semimarkov.", "markov.", "ftree.", "bdd."],
        "layer idle in this workload; measured on batch_sweep",
    );
    Ok(out)
}

/// Bytes one SOR sweep over fully cached column slices moves, computed
/// (not measured): per arc a 16-byte `(u32, u32, f64)` slice entry and
/// an 8-byte gather of π; per state an exit-rate read and a π read and
/// write.
fn bytes_per_sweep(states: usize, arcs: u64) -> f64 {
    arcs as f64 * 24.0 + states as f64 * 24.0
}
