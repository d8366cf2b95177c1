//! `batch_sweep`: one `BatchEngine` batch of seeded what-if variants at
//! one worker per CPU — rejuvenation SMPs with interval availability
//! (uniformization on a stiff Erlang-64 expansion in `markov`) and
//! scaled fault trees of 60–120 units (MOCUS cut sets in `ftree`, BDD
//! compile and importance in `bdd`).

use super::{put, write_trace, SETUPS_PER_ROUND};
use crate::check::{
    check_smp, check_tree, smp_interval_availability, tree_cut_sets, tree_probability,
    INTERVAL_TOL, REL_TOL,
};
use crate::gen::{batch_variants, batch_warmups, Variant, SMP_HORIZONS};
use crate::layers::{compile_options, smp_model, tree_model};
use crate::stats::{median, own_peak_rss_mb, quantile};
use crate::trace::{coverage, Tracer};
use crate::{Config, Outcome};
use reliab_engine::BatchEngine;
use reliab_spec::{ModelSpec, SolveOptions, SolveReport};
use std::time::Instant;

/// The default MOCUS cap of a fault-tree solve.
const MAX_CUT_SETS: usize = 100_000;

fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The warm-up batch, solved serially so its time does not hang on how
/// two workers happen to overlap.
fn setup(seed: u64) -> Result<(), String> {
    for r in BatchEngine::new()
        .with_jobs(1)
        .solve_texts(&batch_warmups(seed))
    {
        r.map_err(|e| format!("warm-up solve failed: {e}"))?;
    }
    Ok(())
}

/// Solves the batch on a fresh engine (no memo carried over); returns
/// the reports, the batch wall time and the engine's memo-hit share.
fn batch(docs: &[String], jobs: usize) -> (Vec<Result<SolveReport, String>>, f64, f64) {
    let engine = BatchEngine::new().with_jobs(jobs);
    let t0 = Instant::now();
    let reports = engine.solve_texts(docs);
    let wall = t0.elapsed().as_secs_f64();
    let stats = engine.last_stats();
    let hit_ratio = stats.memo_hits as f64 / (stats.memo_hits + stats.solved).max(1) as f64;
    (
        reports
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect(),
        wall,
        hit_ratio,
    )
}

/// The reference interval availabilities of every variant (empty for
/// a tree), computed once per run, outside the timed work.
fn references(variants: &[Variant]) -> Result<Vec<Vec<(f64, f64)>>, String> {
    variants
        .iter()
        .map(|v| match v {
            Variant::Smp(p) => smp_interval_availability(p, &SMP_HORIZONS),
            Variant::Tree(_) => Ok(Vec::new()),
        })
        .collect()
}

/// Checks every answer; returns the per-variant solve times (s).
fn check(
    variants: &[Variant],
    refs: &[Vec<(f64, f64)>],
    reports: &[Result<SolveReport, String>],
    out: &mut Outcome,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(reports.len());
    for ((v, r), interval) in variants.iter().zip(reports).zip(refs) {
        out.attempted += 1;
        match r {
            Ok(report) => {
                times.push(report.stats.wall_time.as_secs_f64());
                let verdict = match v {
                    Variant::Smp(p) => check_smp(p, interval, &report.measures),
                    Variant::Tree(t) => check_tree(t, &report.measures),
                };
                if let Err(e) = verdict {
                    out.wrong(e);
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: batch_sweep solve failed: {e}");
            }
        }
    }
    times
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let variants = batch_variants(cfg.seed);
    let docs: Vec<String> = variants.iter().map(Variant::doc).collect();
    let refs = references(&variants)?;
    if cfg.trace {
        return traced(cfg, &variants, &refs, &docs);
    }
    let mut out = Outcome::default();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut p50s, mut p99s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        for _ in 0..SETUPS_PER_ROUND {
            let t0 = Instant::now();
            setup(cfg.seed)?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        let (reports, wall, _) = batch(&docs, jobs());
        let ms: Vec<f64> = check(&variants, &refs, &reports, &mut out)
            .iter()
            .map(|t| t * 1e3)
            .collect();
        if let (Some(p50), Some(p99)) = (median(&ms), quantile(&ms, 0.99)) {
            p50s.push(p50);
            p99s.push(p99);
        }
        rates.push(ms.len() as f64 / wall);
        walls.push(wall);
        if walls.len() == 1 {
            peak_rss = own_peak_rss_mb().ok_or("no VmHWM")?;
        }
    }
    if p50s.is_empty() {
        return Err("every solve failed".to_owned());
    }
    // Per-variant latencies and rates: each batch's, median over batches.
    put(&mut out, "setup_s", median(&setups).expect("setups ran"));
    put(&mut out, "wall_s", median(&walls).expect("batches ran"));
    put(&mut out, "p50_ms", median(&p50s).expect("solves ran"));
    put(&mut out, "p99_ms", median(&p99s).expect("solves ran"));
    put(&mut out, "rps", median(&rates).expect("batches ran"));
    // The peak of the set-ups and the first batch. Later batches start
    // fresh worker threads, and whether glibc hands them a new malloc
    // arena varies from run to run, so the process peak after several
    // batches varies by a tenth while the first batch's does not.
    put(&mut out, "peak_rss_mb", peak_rss);
    Ok(out)
}

/// Per-layer totals of the traced pass.
#[derive(Default)]
struct Layers {
    parse_us: Vec<f64>,
    expand_ms: Vec<f64>,
    expanded_states: usize,
    accumulated_s: f64,
    qt: f64,
    compile_ms: Vec<f64>,
    probability_ms: Vec<f64>,
    cutsets_s: f64,
    cut_sets: usize,
    importance_ms: Vec<f64>,
    bdd_nodes: usize,
    ite_lookups: u64,
    ite_hits: u64,
    gc_runs: u64,
}

/// The traced run: the batch untraced at one worker per CPU and at one
/// worker, then every variant through the public layer calls its solve
/// makes, serially, each call in its own span.
fn traced(
    cfg: &Config,
    variants: &[Variant],
    refs: &[Vec<(f64, f64)>],
    docs: &[String],
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    setup(cfg.seed)?;
    let jobs = jobs();
    let (reports, wall, hit_ratio) = batch(docs, jobs);
    let times = check(variants, refs, &reports, &mut out);
    let (reports_1, wall_1, _) = batch(docs, 1);
    check(variants, refs, &reports_1, &mut out);

    let opts = SolveOptions::default();
    let tracer = Tracer::new();
    let mut l = Layers::default();
    let root = tracer.begin("batch_sweep", 0, None, None);
    for (i, (v, doc)) in variants.iter().zip(docs).enumerate() {
        let op = Some(i as u64);
        let parent = Some(root.id());
        let (parsed, parse_s) = tracer.time("spec.parse", 0, parent, op, || {
            ModelSpec::from_json_str(doc)
        });
        l.parse_us.push(parse_s * 1e6);
        match (v, parsed.map_err(|e| e.to_string())?) {
            (Variant::Smp(p), ModelSpec::SemiMarkov(spec)) => {
                let (model, _) =
                    tracer.time("semimarkov.build", 0, parent, op, || smp_model(&spec));
                let m = model?;
                let (pi, _) =
                    tracer.time("semimarkov.steady", 0, parent, op, || m.smp.steady_state());
                let pi = pi.map_err(|e| e.to_string())?;
                let want = crate::check::smp_steady_state(p);
                if pi
                    .iter()
                    .zip(&want)
                    .any(|(g, w)| (g - w).abs() > REL_TOL * w.abs())
                {
                    out.wrong(format!(
                        "traced SMP steady state {pi:?} != embedded-chain formula {want:?}"
                    ));
                }
                let (expanded, expand_s) = tracer.time("semimarkov.expand", 0, parent, op, || {
                    m.smp.expand_to_ctmc(m.initial)
                });
                let expanded = expanded.map_err(|e| e.to_string())?;
                l.expand_ms.push(expand_s * 1e3);
                l.expanded_states += expanded.ctmc.num_states();
                // The uniformization rate of the transient solver.
                let q = expanded
                    .ctmc
                    .exit_rates()
                    .iter()
                    .fold(0.0f64, |a, &r| a.max(r))
                    * 1.02;
                for &(t, want) in &refs[i] {
                    let (a, s) = tracer.time("markov.accumulated", 0, parent, op, || {
                        expanded.interval_availability(m.initial, &m.up, t, opts.tolerance)
                    });
                    let a = a.map_err(|e| e.to_string())?;
                    if (a - want).abs() > INTERVAL_TOL * want {
                        out.wrong(format!(
                            "traced interval availability {a} at {t} h != matrix-exponential route {want}"
                        ));
                    }
                    l.accumulated_s += s;
                    l.qt += q * t;
                }
            }
            (Variant::Tree(t), ModelSpec::FaultTree(spec)) => {
                let model = tree_model(&spec)?;
                let compile = compile_options(&opts);
                let (ft, compile_s) = tracer.time("ftree.compile", 0, parent, op, || {
                    model.builder.build_with(model.top, &compile)
                });
                let mut ft = ft.map_err(|e| e.to_string())?;
                l.compile_ms.push(compile_s * 1e3);
                let (q, s) = tracer.time("ftree.probability", 0, parent, op, || {
                    ft.top_event_probability(&model.probs)
                });
                l.probability_ms.push(s * 1e3);
                let q = q.map_err(|e| e.to_string())?;
                let (cuts, s) = tracer.time("ftree.cutsets", 0, parent, op, || {
                    ft.minimal_cut_sets(MAX_CUT_SETS)
                });
                l.cutsets_s += s;
                let cuts = cuts.map_err(|e| e.to_string())?.len();
                l.cut_sets += cuts;
                let (imp, s) = tracer.time("ftree.importance", 0, parent, op, || {
                    ft.importance(&model.probs)
                });
                l.importance_ms.push(s * 1e3);
                imp.map_err(|e| e.to_string())?;
                let want = tree_probability(t);
                if (q - want).abs() > REL_TOL * want || cuts != tree_cut_sets(t) {
                    out.wrong(format!(
                        "traced tree: probability {q} / {cuts} cut sets != closed form {want} / {}",
                        tree_cut_sets(t)
                    ));
                }
                let b = ft.bdd_stats();
                l.bdd_nodes += b.arena_nodes;
                l.ite_lookups += b.ite_cache_lookups;
                l.ite_hits += b.ite_cache_hits;
                l.gc_runs += b.gc_runs;
            }
            (_, other) => return Err(format!("variant {i} parsed as {other:?}")),
        }
    }
    let traced_wall = tracer.end(root);

    let mut encode_us = Vec::new();
    let mut solve_us: [Vec<f64>; 2] = Default::default();
    for r in reports.iter().flatten() {
        let t0 = Instant::now();
        std::hint::black_box(r.to_json().to_json());
        encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let kind = usize::from(r.measures.kind() == "fault_tree");
        solve_us[kind].push(r.stats.wall_time.as_secs_f64() * 1e6);
    }
    let spans = tracer.spans();
    write_trace("batch_sweep", cfg.seed, &spans)?;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let all_solve_us: Vec<f64> = times.iter().map(|t| t * 1e6).collect();
    put(&mut out, "engine.memo_hit_ratio", hit_ratio);
    put(
        &mut out,
        "engine.busy_ratio",
        times.iter().sum::<f64>() / (jobs as f64 * wall),
    );
    put(&mut out, "engine.speedup", wall_1 / wall);
    put(&mut out, "spec.parse_us.p50", med(&l.parse_us));
    put(&mut out, "spec.solve_us.p50", med(&all_solve_us));
    put(&mut out, "spec.solve_us.p50.fault_tree", med(&solve_us[1]));
    put(&mut out, "spec.solve_us.p50.semi_markov", med(&solve_us[0]));
    put(&mut out, "spec.encode_us.p50", med(&encode_us));
    put(&mut out, "semimarkov.expand_ms", med(&l.expand_ms));
    put(
        &mut out,
        "semimarkov.expanded_states",
        l.expanded_states as f64,
    );
    put(&mut out, "markov.accumulated_s", l.accumulated_s);
    put(&mut out, "markov.qt", l.qt);
    put(&mut out, "ftree.compile_ms", med(&l.compile_ms));
    put(&mut out, "ftree.probability_ms", med(&l.probability_ms));
    put(&mut out, "ftree.cutsets_s", l.cutsets_s);
    put(&mut out, "ftree.cut_sets", l.cut_sets as f64);
    put(&mut out, "ftree.importance_ms", med(&l.importance_ms));
    put(&mut out, "bdd.nodes", l.bdd_nodes as f64);
    put(&mut out, "bdd.ite_lookups", l.ite_lookups as f64);
    put(
        &mut out,
        "bdd.ite_hit_rate",
        l.ite_hits as f64 / l.ite_lookups.max(1) as f64,
    );
    put(&mut out, "bdd.gc_runs", l.gc_runs as f64);
    put(&mut out, "trace.coverage", coverage(&spans));
    put(&mut out, "trace.overhead", traced_wall / wall_1);
    out.absent(
        &["serve."],
        "no daemon in this workload; measured on serve_mix",
    );
    out.absent(
        &[
            "spec.solve_us.p50.ctmc",
            "spec.solve_us.p50.rbd",
            "spec.solve_us.p50.rel_graph",
            "spec.solve_us.p50.spn",
            "spec.solve_us.p50.hierarchy",
            "spec.solve_us.p50.uncertainty",
            "spec.solve_us.p50.bounds",
            "spec.solve_us.p50.sim",
        ],
        "the classes solved here are semi_markov and fault_tree",
    );
    out.absent(
        &["spn.", "stream."],
        "layer idle in this workload; measured on tandem_large",
    );
    Ok(out)
}
