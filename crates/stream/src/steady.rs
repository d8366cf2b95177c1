//! Block-partitioned steady-state iteration over a [`RowSource`], with
//! an aggregation–disaggregation step between sweeps.
//!
//! The generator is consumed column block by column block from a
//! compressed column store built by two row passes (see
//! `columns.rs`). Each block's columns are either cached across sweeps
//! or rebuilt from the row source every sweep, whichever the memory plan
//! allows. Every column lists its arcs in row-scan order and the
//! Gauss–Seidel/SOR sweep always walks states in global order, so the
//! iterates — and therefore the result — are **bitwise identical** at
//! any block count, any admitting memory budget and any row-pass thread
//! count. Caching is purely a wall-time decision.
//!
//! The SOR loop carries an iterative aggregation–disaggregation (IAD)
//! correction in the style of Koury, McAllister and Stewart. The first
//! sweep reads each state's BFS level off its column (the smallest
//! predecessor comes first) and groups the states into at most
//! [`MAX_PARTS`] contiguous index ranges that cut only at level
//! boundaries. Every later sweep accumulates the probability flow
//! between groups as it reads the columns; the stationary vector of
//! that small aggregate chain (solved by GTH) then rescales each group's
//! mass before the next sweep. A degenerate aggregate — a group with no
//! mass, or one GTH reports singular — skips the correction for that
//! sweep, leaving a plain SOR step.

use crate::columns::{fill_pass, pass_threads, scan_pass, Columns};
use crate::plan::{plan_steady, MemoryPlan, PlanOutcome, StreamMethod, StreamOptions};
use crate::source::{RateScan, RowSource};
use reliab_core::{Error, Result};
use reliab_numeric::{gth_steady_state, DenseMatrix};
use reliab_obs as obs;
use std::ops::Range;

/// Most groups the aggregation step partitions the states into; the
/// aggregate chain is solved by dense GTH once per sweep.
const MAX_PARTS: usize = 128;

/// Groups worth forming for a chain with `arcs` arcs: about the cube
/// root of the arc count (at least 2), so the per-sweep GTH solve, some
/// `k³/3` multiply–adds, stays within a fraction of the sweep's own
/// arithmetic. Measured on the tandem nets, finer partitions of small
/// chains also converge in more sweeps, not fewer.
fn groups_for(arcs: u64) -> usize {
    ((arcs as f64).cbrt() as usize).max(2)
}

/// A steady-state distribution plus streaming-solver telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SteadyStreamReport {
    /// The stationary distribution (sums to 1).
    pub pi: Vec<f64>,
    /// `"stream-sor"` or `"stream-power"`.
    pub method: &'static str,
    /// Sweeps / iterations performed.
    pub iterations: usize,
    /// Convergence residual of the final sweep (relative `∞`-norm
    /// change for SOR, absolute for power — same semantics as the
    /// in-core iterative solvers).
    pub residual: f64,
    /// Final-sweep residual per column block, on the same scale as
    /// `residual` — the per-shard view of convergence.
    pub block_residuals: Vec<f64>,
    /// Aggregation–disaggregation corrections applied between SOR
    /// sweeps (always 0 for power iteration).
    pub aggregations: usize,
    /// The memory plan the solve ran under (`cached_blocks` filled in).
    pub plan: MemoryPlan,
}

/// Solves `π Q = 0`, `Σ π = 1` over a row source under the options'
/// memory budget.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options, a non-ergodic diagonal
///   (SOR), or a budget too small for an exact solve (escalate to
///   [`crate::bounded_steady_reward`]).
/// * [`Error::Convergence`] — iteration budget exhausted.
/// * Row-source errors propagate.
pub fn steady_state(src: &mut dyn RowSource, opts: &StreamOptions) -> Result<SteadyStreamReport> {
    steady_state_observed(src, opts, &mut |_, _| {})
}

/// [`steady_state`] with a per-sweep observer `observer(sweep,
/// residual)` (1-based sweep number, residual as tested against the
/// tolerance). The observer must not panic.
///
/// # Errors
///
/// See [`steady_state`].
pub fn steady_state_observed(
    src: &mut dyn RowSource,
    opts: &StreamOptions,
    observer: &mut dyn FnMut(usize, f64),
) -> Result<SteadyStreamReport> {
    let threads = pass_threads(src.num_states());
    solve(src, opts, observer, threads, MAX_PARTS)
}

/// [`steady_state`] with the row passes that build the cached column
/// store split into exactly `threads` row ranges instead of one per
/// available core. The result is bitwise the same at every thread count;
/// this entry point exists so tests can show it.
///
/// # Errors
///
/// See [`steady_state`].
#[doc(hidden)]
pub fn steady_state_with_pass_threads(
    src: &mut dyn RowSource,
    opts: &StreamOptions,
    threads: usize,
) -> Result<SteadyStreamReport> {
    solve(src, opts, &mut |_, _| {}, threads.max(1), MAX_PARTS)
}

fn solve(
    src: &mut dyn RowSource,
    opts: &StreamOptions,
    observer: &mut dyn FnMut(usize, f64),
    threads: usize,
    max_parts: usize,
) -> Result<SteadyStreamReport> {
    opts.validate()?;
    let _span = obs::span("stream.steady");
    let n = src.num_states();
    let columns_span = obs::span("stream.columns");
    let (scan, mut counts) = scan_pass(src, threads, 0..n, true)?;
    let mut plan = match plan_steady(n, scan.arcs, src.resident_bytes(), opts) {
        PlanOutcome::Exact(p) => p,
        PlanOutcome::NeedsBounds { required, budget } => {
            return Err(Error::invalid(format!(
                "memory budget of {budget} bytes cannot hold the exact iteration state \
                 ({required} bytes of row source + vectors); raise the budget or use the \
                 aggregation bounds path"
            )))
        }
    };

    // Blocks are contiguous index ranges of equal width; the last may
    // be short. Re-derive the effective count from the width so the
    // reported plan matches what the sweep actually does.
    let bs = n.div_ceil(plan.blocks);
    let nblocks = n.div_ceil(bs);
    plan.blocks = nblocks;
    plan.cached_blocks = cached_prefix(&plan);
    let cached_end = (plan.cached_blocks * bs).min(n);
    for thread in &mut counts {
        thread.truncate(cached_end);
        thread.shrink_to_fit();
    }
    let cached = fill_pass(src, 0..cached_end, counts)?;
    drop(columns_span);
    obs::event(
        "stream.plan",
        &[
            ("states", n.into()),
            ("arcs", scan.arcs.into()),
            ("blocks", nblocks.into()),
            ("cached_blocks", plan.cached_blocks.into()),
            ("source_bytes", plan.source_bytes.into()),
            ("slice_bytes", plan.slice_bytes.into()),
        ],
    );

    let mut store = BlockStore {
        n,
        bs,
        cached_blocks: plan.cached_blocks,
        cached,
        scratch: Columns::default(),
        threads,
    };
    let sweeps_span = obs::span("stream.sweeps");
    let report = match opts.method {
        StreamMethod::Auto | StreamMethod::Sor => {
            sor_sweeps(src, &scan, plan, opts, &mut store, max_parts, observer)
        }
        StreamMethod::Power => power_iterations(src, &scan, plan, opts, &mut store, observer),
    }?;
    drop(sweeps_span);
    obs::counter_add("stream.steady.solves", 1);
    obs::counter_add("stream.steady.iterations", report.iterations as u64);
    obs::counter_add("stream.aggregations", report.aggregations as u64);
    Ok(report)
}

/// How many leading blocks stay cached: all of them when the whole
/// column store fits, else as many average-sized blocks as the cache
/// pool holds with one block's worth of headroom kept as rebuild
/// scratch.
fn cached_prefix(plan: &MemoryPlan) -> usize {
    if plan.slice_bytes <= plan.cache_bytes {
        return plan.blocks;
    }
    let per_block = (plan.slice_bytes / plan.blocks as u64).max(1);
    let fit = plan.cache_bytes.saturating_sub(per_block) / per_block;
    usize::try_from(fit).unwrap_or(plan.blocks).min(plan.blocks)
}

/// The column store of one solve: the cached leading blocks, plus a
/// scratch store each remaining block is rebuilt into when the sweep
/// reaches it.
struct BlockStore {
    n: usize,
    bs: usize,
    cached_blocks: usize,
    cached: Columns,
    scratch: Columns,
    threads: usize,
}

impl BlockStore {
    fn range(&self, b: usize) -> Range<usize> {
        b * self.bs..((b + 1) * self.bs).min(self.n)
    }

    /// The columns of block `b`, rebuilt by two row passes unless
    /// cached — byte-identical either way.
    fn block(&mut self, src: &mut dyn RowSource, b: usize) -> Result<&Columns> {
        if b < self.cached_blocks {
            return Ok(&self.cached);
        }
        let cols = self.range(b);
        self.scratch = Columns::default();
        // A rebuild runs every sweep: spawn threads for it only where
        // the row count pays for them.
        let threads = self.threads.min(pass_threads(self.n));
        let (_, counts) = scan_pass(src, threads, cols.clone(), false)?;
        self.scratch = fill_pass(src, cols, counts)?;
        Ok(&self.scratch)
    }
}

/// The aggregation–disaggregation state of one SOR solve. It holds
/// O(levels + groups²) numbers, nothing per state, so it adds nothing
/// to the memory plan worth counting.
struct Aggregation {
    max_parts: usize,
    /// First state of each BFS level, filled during the first sweep.
    level_starts: Vec<usize>,
    groups: Groups,
    /// `flows[to * k + from]`: probability flow from group `from` into
    /// group `to` accumulated by the current sweep.
    flows: Vec<f64>,
}

impl Aggregation {
    fn new(max_parts: usize) -> Self {
        Aggregation {
            max_parts,
            level_starts: Vec::new(),
            groups: Groups::default(),
            flows: Vec::new(),
        }
    }

    /// Whether sweeps accumulate flows for a correction: only once the
    /// states are split into at least two groups.
    fn active(&self) -> bool {
        self.groups.len() >= 2
    }

    /// Records the BFS levels of the columns `range`, which must follow
    /// the columns recorded before, from their smallest predecessor: in
    /// a BFS numbering that is the state whose expansion discovered the
    /// column. Levels are kept non-decreasing in the state index, so
    /// any numbering yields contiguous levels and groups.
    fn learn_levels(&mut self, cols: &Columns, range: Range<usize>) {
        if self.max_parts < 2 {
            return;
        }
        for j in range {
            let level = self.level_starts.len();
            let deeper = match cols.column(j).0.first() {
                Some(&i) if (i as usize) < j => {
                    self.level_starts.partition_point(|&s| s <= i as usize) == level
                }
                _ => false,
            };
            if level == 0 || deeper {
                self.level_starts.push(j);
            }
        }
    }

    /// Groups the `n` states once the first sweep has read every level.
    fn partition(&mut self, n: usize) {
        let cuts = level_cuts(&std::mem::take(&mut self.level_starts), n, self.max_parts);
        self.groups = Groups::new(cuts);
        let k = self.groups.len();
        if k >= 2 {
            self.flows = vec![0.0; k * k];
        }
    }

    /// Probability mass of each group (empty while inactive).
    fn masses(&self, pi: &[f64]) -> Vec<f64> {
        if !self.active() {
            return Vec::new();
        }
        self.groups
            .cuts
            .windows(2)
            .map(|w| pi[w[0]..w[1]].iter().sum())
            .collect()
    }

    /// Rescales `pi`, whose groups hold `mass`, by the stationary
    /// vector of the aggregate chain built from this sweep's flows,
    /// normalizing it to sum 1. Returns `false`, leaving `pi` untouched,
    /// when the aggregate is degenerate.
    fn correct(&self, pi: &mut [f64], mass: &[f64]) -> bool {
        let Some(factors) = aggregate_factors(&self.flows, mass) else {
            return false;
        };
        for (w, f) in self.groups.cuts.windows(2).zip(factors) {
            for p in &mut pi[w[0]..w[1]] {
                *p *= f;
            }
        }
        true
    }
}

/// Group boundaries for the aggregation step over `n` states whose
/// BFS levels start at `level_starts`: each group spans
/// `ceil(levels / max_parts)` consecutive levels, hence at most
/// `max_parts` groups. Returns `[0, n]` (one group) when `max_parts < 2`.
fn level_cuts(level_starts: &[usize], n: usize, max_parts: usize) -> Vec<usize> {
    let mut cuts = vec![0];
    if max_parts >= 2 {
        let per = level_starts.len().div_ceil(max_parts).max(1);
        cuts.extend(level_starts.iter().skip(per).step_by(per));
    }
    cuts.push(n);
    cuts
}

/// Contiguous groups of states with a coarse lookup table from state
/// to group, so the sweep finds the group of an arc's source in a step
/// or two without storing a group per state.
#[derive(Debug, Default)]
struct Groups {
    /// Group `g` holds the states `cuts[g]..cuts[g + 1]`.
    cuts: Vec<usize>,
    /// `first[i >> shift]`: the group of the first state in each run
    /// of `1 << shift` states.
    first: Vec<u8>,
    shift: u32,
}

impl Groups {
    /// Lookup runs per group: enough that a run rarely spans a cut.
    const RUNS_PER_GROUP: usize = 32;

    fn new(cuts: Vec<usize>) -> Self {
        let k = cuts.len() - 1;
        let n = cuts[k];
        debug_assert!(k <= usize::from(u8::MAX) + 1);
        let runs = (k * Self::RUNS_PER_GROUP).max(1);
        let shift = n.div_ceil(runs).next_power_of_two().trailing_zeros();
        let mut g = 0;
        let first = (0..n.div_ceil(1 << shift))
            .map(|run| {
                while cuts[g + 1] <= run << shift {
                    g += 1;
                }
                g as u8
            })
            .collect();
        Groups { cuts, first, shift }
    }

    /// Number of groups (0 before any exist).
    fn len(&self) -> usize {
        self.cuts.len().saturating_sub(1)
    }

    /// The group holding state `i`.
    #[inline]
    fn of(&self, i: usize) -> usize {
        let mut g = usize::from(self.first[i >> self.shift]);
        while self.cuts[g + 1] <= i {
            g += 1;
        }
        g
    }
}

/// Per-group rescaling factors from an aggregate chain: `flows[to * k +
/// from]` is the flow between groups, `mass[g]` each group's current
/// (unnormalized) probability. With `η` the stationary vector of the
/// chain whose rates are the flows, group `g`'s aggregate probability is
/// proportional to `η_g · mass_g`, so the factors `η_g / Σ η·mass`
/// rescale and normalize in one step. `None` when
/// the aggregate is degenerate: a group without positive finite mass,
/// or a chain GTH reports singular.
fn aggregate_factors(flows: &[f64], mass: &[f64]) -> Option<Vec<f64>> {
    let k = mass.len();
    if mass.iter().any(|&m| !(m > 0.0 && m.is_finite())) {
        return None;
    }
    let mut q = DenseMatrix::zeros(k, k);
    for to in 0..k {
        for from in (0..k).filter(|&from| from != to) {
            q.set(from, to, flows[to * k + from]);
        }
    }
    let eta = gth_steady_state(&q).ok()?;
    let total: f64 = eta.iter().zip(mass).map(|(e, m)| e * m).sum();
    if !(eta.iter().all(|&e| e > 0.0) && total > 0.0 && total.is_finite()) {
        return None;
    }
    Some(eta.into_iter().map(|e| e / total).collect())
}

fn sor_sweeps(
    src: &mut dyn RowSource,
    scan: &RateScan,
    plan: MemoryPlan,
    opts: &StreamOptions,
    store: &mut BlockStore,
    max_parts: usize,
    observer: &mut dyn FnMut(usize, f64),
) -> Result<SteadyStreamReport> {
    let n = plan.states;
    // Gauss–Seidel divides by -q_jj = the exit rate; a zero exit rate
    // is an absorbing state, which an ergodic steady state cannot have.
    for (j, &e) in scan.exit.iter().enumerate() {
        if e <= 0.0 {
            return Err(Error::invalid(format!(
                "generator diagonal q[{j}][{j}] = {} must be negative",
                if e == 0.0 { 0.0 } else { -e }
            )));
        }
    }

    let mut pi = vec![1.0 / n as f64; n];
    let omega = opts.relaxation;
    let mut block_res = vec![0.0f64; plan.blocks];
    let mut agg = Aggregation::new(max_parts.min(groups_for(scan.arcs)));
    let mut aggregations = 0usize;
    for iter in 0..opts.max_iterations {
        let mut max_change = 0.0f64;
        let mut max_val = 0.0f64;
        let flowing = agg.active();
        let k = agg.groups.len();
        agg.flows.fill(0.0);
        // The group of the state being relaxed, while flowing.
        let mut to = 0usize;
        for (b, block_change_out) in block_res.iter_mut().enumerate() {
            let range = store.range(b);
            let cols = store.block(src, b)?;
            let mut block_change = 0.0f64;
            for j in range.clone() {
                // pi_j_new = (sum_{i != j} pi_i q_ij) / (-q_jj), with the
                // partial sum consuming column j's entries in the
                // blocking-independent row-scan order.
                let (from, rates) = cols.column(j);
                let mut acc = 0.0;
                if flowing {
                    // Only arcs from other groups carry aggregate flow;
                    // within a group they cancel out of the aggregate.
                    let cuts = &agg.groups.cuts;
                    while j >= cuts[to + 1] {
                        to += 1;
                    }
                    let (lo, hi) = (cuts[to], cuts[to + 1]);
                    let flow = &mut agg.flows[to * k..(to + 1) * k];
                    for (&i, &r) in from.iter().zip(rates) {
                        let i = i as usize;
                        let v = pi[i] * r;
                        acc += v;
                        if i < lo || i >= hi {
                            flow[agg.groups.of(i)] += v;
                        }
                    }
                } else {
                    for (&i, &r) in from.iter().zip(rates) {
                        acc += pi[i as usize] * r;
                    }
                }
                let new = acc / scan.exit[j];
                let relaxed = omega * new + (1.0 - omega) * pi[j];
                let change = (relaxed - pi[j]).abs();
                max_change = max_change.max(change);
                block_change = block_change.max(change);
                pi[j] = relaxed;
                max_val = max_val.max(relaxed.abs());
            }
            if iter == 0 {
                agg.learn_levels(cols, range);
            }
            *block_change_out = block_change;
            if obs::trace_enabled() {
                obs::event(
                    "stream.block",
                    &[
                        ("sweep", (iter + 1).into()),
                        ("block", b.into()),
                        ("residual", block_change.into()),
                    ],
                );
            }
        }
        if iter == 0 {
            agg.partition(n);
        }
        let mass = agg.masses(&pi);
        let total: f64 = if flowing {
            mass.iter().sum()
        } else {
            pi.iter().sum()
        };
        if !total.is_finite() || total <= 0.0 {
            return Err(Error::numerical(
                "singular system: SOR iterate collapsed; chain may be reducible",
            ));
        }
        let rel = (max_val > 0.0).then(|| max_change / max_val);
        if let Some(rel) = rel {
            observer(iter + 1, rel);
            obs::event(
                "stream.iteration",
                &[
                    ("method", "stream-sor".into()),
                    ("iter", (iter + 1).into()),
                    ("residual", rel.into()),
                ],
            );
        }
        let converged = rel.is_some_and(|rel| rel < opts.tolerance);
        // Normalize each sweep to keep the iterate bounded; the
        // aggregation correction normalizes as it rescales.
        if flowing && !converged && agg.correct(&mut pi, &mass) {
            aggregations += 1;
        } else {
            for p in &mut pi {
                *p /= total;
            }
        }
        if let (true, Some(rel)) = (converged, rel) {
            for r in &mut block_res {
                *r /= max_val;
            }
            return Ok(SteadyStreamReport {
                pi,
                method: "stream-sor",
                iterations: iter + 1,
                residual: rel,
                block_residuals: block_res,
                aggregations,
                plan,
            });
        }
        if iter + 1 == opts.max_iterations {
            return Err(Error::Convergence {
                what: "streaming SOR steady-state".into(),
                iterations: opts.max_iterations,
                residual: max_change / max_val.max(f64::MIN_POSITIVE),
            });
        }
    }
    unreachable!("loop returns before exhausting")
}

fn power_iterations(
    src: &mut dyn RowSource,
    scan: &RateScan,
    plan: MemoryPlan,
    opts: &StreamOptions,
    store: &mut BlockStore,
    observer: &mut dyn FnMut(usize, f64),
) -> Result<SteadyStreamReport> {
    let n = plan.states;
    let q = scan.q;
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut block_res = vec![0.0f64; plan.blocks];
    for iter in 0..opts.max_iterations {
        // next = P^T pi for the uniformized DTMC P = I + Q/q, assembled
        // per column block (column sums are blocking-independent).
        for b in 0..plan.blocks {
            let range = store.range(b);
            let cols = store.block(src, b)?;
            for j in range {
                let (from, rates) = cols.column(j);
                let mut acc = 0.0;
                for (&i, &r) in from.iter().zip(rates) {
                    acc += pi[i as usize] * r;
                }
                next[j] = pi[j] * (1.0 - scan.exit[j] / q) + acc / q;
            }
        }
        let total: f64 = next.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(Error::numerical(
                "singular system: power iterate collapsed; matrix may not be stochastic",
            ));
        }
        for v in &mut next {
            *v /= total;
        }
        let mut change = 0.0f64;
        for (b, res) in block_res.iter_mut().enumerate() {
            let mut bc = 0.0f64;
            for j in store.range(b) {
                bc = bc.max((pi[j] - next[j]).abs());
            }
            *res = bc;
            change = change.max(bc);
        }
        std::mem::swap(&mut pi, &mut next);
        observer(iter + 1, change);
        obs::event(
            "stream.iteration",
            &[
                ("method", "stream-power".into()),
                ("iter", (iter + 1).into()),
                ("residual", change.into()),
            ],
        );
        if change < opts.tolerance {
            return Ok(SteadyStreamReport {
                pi,
                method: "stream-power",
                iterations: iter + 1,
                residual: change,
                block_residuals: block_res,
                aggregations: 0,
                plan,
            });
        }
        if iter + 1 == opts.max_iterations {
            return Err(Error::Convergence {
                what: "streaming power method".into(),
                iterations: opts.max_iterations,
                residual: change,
            });
        }
    }
    unreachable!("loop returns before exhausting")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CsrRowSource;
    use reliab_markov::{Ctmc, CtmcBuilder, IterativeOptions, SteadyStateMethod};

    fn birth_death(n: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n - 1 {
            b.transition(ids[i], ids[i + 1], lambda).unwrap();
            b.transition(ids[i + 1], ids[i], mu).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn sor_matches_materialized_sor() {
        let c = birth_death(40, 1.0, 2.5);
        let exact = c
            .steady_state_with(&SteadyStateMethod::Sor(IterativeOptions::default()))
            .unwrap();
        let mut src = CsrRowSource::new(&c);
        let report = steady_state(&mut src, &StreamOptions::default()).unwrap();
        assert_eq!(report.method, "stream-sor");
        for (i, (p, e)) in report.pi.iter().zip(&exact).enumerate() {
            assert!((p - e).abs() < 1e-10, "state {i}");
        }
        assert!((report.pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(report.iterations > 0);
        assert_eq!(report.block_residuals.len(), report.plan.blocks);
    }

    #[test]
    fn power_matches_sor() {
        let c = birth_death(12, 2.0, 3.0);
        let mut src = CsrRowSource::new(&c);
        let sor = steady_state(&mut src, &StreamOptions::default()).unwrap();
        let power = steady_state(
            &mut src,
            &StreamOptions {
                method: StreamMethod::Power,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(power.method, "stream-power");
        for i in 0..12 {
            assert!((sor.pi[i] - power.pi[i]).abs() < 1e-8, "state {i}");
        }
    }

    #[test]
    fn results_are_bitwise_identical_at_any_block_count() {
        let c = birth_death(53, 1.7, 2.2);
        let mut src = CsrRowSource::new(&c);
        let reference = steady_state(&mut src, &StreamOptions::default()).unwrap();
        for blocks in [2, 3, 7, 16, 53, 200] {
            for method in [StreamMethod::Sor, StreamMethod::Power] {
                let r = steady_state(
                    &mut src,
                    &StreamOptions {
                        blocks: Some(blocks),
                        method,
                        ..Default::default()
                    },
                )
                .unwrap();
                if method == StreamMethod::Sor {
                    assert_eq!(
                        r.pi, reference.pi,
                        "blocks = {blocks}: SOR must be bitwise block-independent"
                    );
                    assert_eq!(r.iterations, reference.iterations);
                }
                assert!((r.pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn results_are_bitwise_identical_at_any_admitting_budget() {
        let c = birth_death(30, 1.0, 1.9);
        let mut src = CsrRowSource::new(&c);
        let reference = steady_state(&mut src, &StreamOptions::default()).unwrap();
        let floor = src.resident_bytes() + 2 * 8 * 30;
        for extra in [0, 100, 1000, 1 << 20] {
            let r = steady_state(
                &mut src,
                &StreamOptions {
                    mem_budget: Some(floor + extra),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(r.pi, reference.pi, "budget = floor + {extra}");
        }
    }

    #[test]
    fn hopeless_budget_is_rejected() {
        let c = birth_death(30, 1.0, 1.9);
        let mut src = CsrRowSource::new(&c);
        let err = steady_state(
            &mut src,
            &StreamOptions {
                mem_budget: Some(16),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("memory budget"));
    }

    #[test]
    fn absorbing_chain_is_rejected_by_sor() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let sink = b.state("sink");
        b.transition(a, sink, 1.0).unwrap();
        let c = b.build().unwrap();
        let mut src = CsrRowSource::new(&c);
        assert!(steady_state(&mut src, &StreamOptions::default()).is_err());
    }

    #[test]
    fn iteration_budget_exhaustion_reports_convergence_error() {
        let c = birth_death(40, 1.0, 1.01);
        let mut src = CsrRowSource::new(&c);
        let err = steady_state(
            &mut src,
            &StreamOptions {
                max_iterations: 2,
                tolerance: 1e-15,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Convergence { iterations: 2, .. }));
    }

    fn plain_sor(c: &Ctmc) -> Vec<f64> {
        c.steady_state_with(&SteadyStateMethod::Sor(IterativeOptions::default()))
            .unwrap()
    }

    #[test]
    fn aggregation_cuts_sweeps_and_keeps_the_answer() {
        let c = birth_death(500, 1.0, 1.1);
        let exact = c.steady_state().unwrap();
        let err = |pi: &[f64]| {
            pi.iter()
                .zip(&exact)
                .map(|(a, e)| (a - e).abs())
                .fold(0.0f64, f64::max)
        };
        let mut src = CsrRowSource::new(&c);
        let opts = StreamOptions::default();
        let iad = steady_state(&mut src, &opts).unwrap();
        let plain = solve(&mut src, &opts, &mut |_, _| {}, 1, 1).unwrap();
        assert!(iad.aggregations > 0);
        assert_eq!(plain.aggregations, 0);
        assert!(
            iad.iterations * 2 < plain.iterations,
            "{} sweeps with aggregation vs {} without",
            iad.iterations,
            plain.iterations
        );
        assert!(err(&iad.pi) < 1e-9, "aggregated error {}", err(&iad.pi));
    }

    #[test]
    fn levels_follow_the_bfs_and_cut_only_at_their_boundaries() {
        // A birth–death chain numbered from state 0 is its own BFS:
        // state j sits at level j.
        let c = birth_death(10, 1.0, 2.0);
        let mut src = CsrRowSource::new(&c);
        let (_, counts) = scan_pass(&mut src, 1, 0..10, false).unwrap();
        let cols = fill_pass(&mut src, 0..10, counts).unwrap();
        let mut agg = Aggregation::new(MAX_PARTS);
        agg.learn_levels(&cols, 0..4);
        agg.learn_levels(&cols, 4..10);
        assert_eq!(agg.level_starts, (0..10).collect::<Vec<usize>>());
        assert_eq!(level_cuts(&agg.level_starts, 10, 4), vec![0, 3, 6, 9, 10]);
        // Levels 0, 0, 1, 1, 1, 2.
        assert_eq!(level_cuts(&[0, 2, 5], 6, 128), vec![0, 2, 5, 6]);
        assert_eq!(level_cuts(&[0, 2, 5], 6, 2), vec![0, 5, 6]);
        assert_eq!(level_cuts(&[0, 2, 5], 6, 1), vec![0, 6]);

        let groups = Groups::new(vec![0, 2, 5, 6, 9]);
        let of: Vec<usize> = (0..9).map(|i| groups.of(i)).collect();
        assert_eq!(of, [0, 0, 1, 1, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn a_single_level_falls_back_to_plain_sor() {
        // One level means one group: no aggregate chain to solve, and
        // the iterates are plain Gauss–Seidel's, bit for bit.
        let mut agg = Aggregation::new(MAX_PARTS);
        agg.level_starts = vec![0];
        agg.partition(5);
        assert!(!agg.active());
        assert_eq!(agg.groups.cuts, vec![0, 5]);

        let c = birth_death(40, 1.0, 2.5);
        let mut src = CsrRowSource::new(&c);
        let r = solve(&mut src, &StreamOptions::default(), &mut |_, _| {}, 1, 1).unwrap();
        assert_eq!(r.aggregations, 0);
        assert_eq!(r.pi, plain_sor(&c));
    }

    #[test]
    fn a_degenerate_aggregate_falls_back_to_plain_sor() {
        assert!(aggregate_factors(&[0.0, 1.0, 1.0, 0.0], &[0.0, 1.0]).is_none());
        // Group 1 never leaves: the aggregate is reducible.
        assert!(aggregate_factors(&[0.0, 0.0, 1.0, 0.0], &[0.5, 0.5]).is_none());
        let f = aggregate_factors(&[0.0, 3.0, 1.0, 0.0], &[0.5, 0.25]).unwrap();
        assert!((f[0] * 0.5 + f[1] * 0.25 - 1.0).abs() < 1e-15);

        // State 0 has no predecessor and feeds every state of the
        // birth–death chain 1..=6, all of which sit one level below it.
        // After the first sweep group {0} holds no mass, so every
        // correction is skipped: the solve is plain SOR and converges.
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..7).map(|i| b.state(&format!("s{i}"))).collect();
        for j in 1..7 {
            b.transition(ids[0], ids[j], 0.5).unwrap();
        }
        for j in 1..6 {
            b.transition(ids[j], ids[j + 1], 1.0).unwrap();
            b.transition(ids[j + 1], ids[j], 1.5).unwrap();
        }
        let c = b.build().unwrap();
        let mut src = CsrRowSource::new(&c);
        let r = steady_state(&mut src, &StreamOptions::default()).unwrap();
        assert!(r.iterations > 2);
        assert_eq!(r.aggregations, 0);
        assert_eq!(r.pi, plain_sor(&c));
        assert_eq!(r.pi[0], 0.0);
    }

    #[test]
    fn pass_threads_leave_the_result_bitwise_unchanged() {
        let c = birth_death(61, 1.3, 2.1);
        let mut src = CsrRowSource::new(&c);
        let reference =
            steady_state_with_pass_threads(&mut src, &StreamOptions::default(), 1).unwrap();
        for threads in [2, 3, 7] {
            for blocks in [None, Some(4)] {
                let opts = StreamOptions {
                    blocks,
                    ..Default::default()
                };
                let r = steady_state_with_pass_threads(&mut src, &opts, threads).unwrap();
                assert_eq!(r.pi, reference.pi, "threads {threads}, blocks {blocks:?}");
                assert_eq!(r.iterations, reference.iterations);
            }
        }
    }
}
