//! Steady-state iteration over a [`ColumnStore`]: Gauss–Seidel/SOR
//! sweeps with an aggregation–disaggregation step between them, and
//! power iteration on the uniformized DTMC.
//!
//! Every column lists its arcs in row-scan order and a sweep always
//! walks states in global order, so the iterates — and therefore the
//! result — are **bitwise identical** at any block count, any mix of
//! cached and rebuilt blocks and any row-pass thread count. Caching is
//! purely a wall-time decision.
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

use super::columns::{ColumnStore, Columns};
use super::jensen::step;
use super::source::{uniformization_rate, RowSource};
use super::IterativeOptions;
use reliab_core::{Error, Result};
use reliab_numeric::{gth_steady_state, DenseMatrix};
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

/// A stationary distribution plus convergence telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Sweeps {
    /// The stationary distribution (sums to 1).
    pub pi: Vec<f64>,
    /// Sweeps / iterations performed.
    pub iterations: usize,
    /// Convergence residual of the final sweep: the relative `∞`-norm
    /// change for SOR, the absolute one for power iteration.
    pub residual: f64,
    /// Final-sweep residual per column block, on the same scale as
    /// `residual`.
    pub block_residuals: Vec<f64>,
    /// Aggregation–disaggregation corrections applied between SOR
    /// sweeps (always 0 for power iteration).
    pub aggregations: usize,
}

/// Per-sweep observer: `(sweep, residual, block_changes)` with the
/// 1-based sweep number, the residual tested against the tolerance and
/// each block's absolute `∞`-norm change in that sweep. It must not
/// panic.
pub type SweepObserver<'a> = dyn FnMut(usize, f64, &[f64]) + 'a;

/// Solves `π Q = 0`, `Σ π = 1` by SOR sweeps with aggregation–
/// disaggregation, dividing each column by its exit rate `exit[j]`.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options.
/// * [`Error::Model`] — a state without outflow (an absorbing state has
///   no ergodic steady state).
/// * [`Error::Numerical`] — the iterate collapsed.
/// * [`Error::Convergence`] — iteration budget exhausted.
/// * Row-source errors from rebuilt blocks propagate.
pub fn sor(
    store: &ColumnStore,
    src: &mut dyn RowSource,
    exit: &[f64],
    opts: &IterativeOptions,
    observer: &mut SweepObserver<'_>,
) -> Result<Sweeps> {
    sor_in_parts(store, src, exit, opts, observer, MAX_PARTS)
}

fn sor_in_parts(
    store: &ColumnStore,
    src: &mut dyn RowSource,
    exit: &[f64],
    opts: &IterativeOptions,
    observer: &mut SweepObserver<'_>,
    max_parts: usize,
) -> Result<Sweeps> {
    opts.validate()?;
    let n = store.num_states();
    // Gauss–Seidel divides by -q_jj = the exit rate; a zero exit rate
    // is an absorbing state, which an ergodic steady state cannot have.
    if let Some(j) = exit.iter().position(|&e| e <= 0.0) {
        return Err(Error::model(format!(
            "state {j} has no outgoing transitions: a chain with an absorbing state \
             has no ergodic steady state"
        )));
    }

    let mut pi = vec![1.0 / n as f64; n];
    let omega = opts.relaxation;
    let mut block_res = vec![0.0f64; store.blocks()];
    let mut scratch = Columns::default();
    let mut agg = Aggregation::new(max_parts.min(groups_for(store.arcs())));
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
            let cols = store.block(src, b, &mut scratch)?;
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
                let new = acc / exit[j];
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
            observer(iter + 1, rel, &block_res);
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
            return Ok(Sweeps {
                pi,
                iterations: iter + 1,
                residual: rel,
                block_residuals: block_res,
                aggregations,
            });
        }
        if iter + 1 == opts.max_iterations {
            return Err(Error::Convergence {
                what: "SOR steady-state".into(),
                iterations: opts.max_iterations,
                residual: max_change / max_val.max(f64::MIN_POSITIVE),
            });
        }
    }
    unreachable!("loop returns before exhausting")
}

/// Computes the stationary vector by power iteration on the uniformized
/// DTMC `P = I + Q/q`, `q` = [`uniformization_rate`]`(exit)` (see
/// [`super::transient`] for the step itself).
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options.
/// * [`Error::Numerical`] — the iterate collapsed.
/// * [`Error::Convergence`] — iteration budget exhausted (periodic
///   structure or slow mixing).
/// * Row-source errors from rebuilt blocks propagate.
pub fn power(
    store: &ColumnStore,
    src: &mut dyn RowSource,
    exit: &[f64],
    opts: &IterativeOptions,
    observer: &mut SweepObserver<'_>,
) -> Result<Sweeps> {
    opts.validate()?;
    let n = store.num_states();
    let q = uniformization_rate(exit);
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut block_res = vec![0.0f64; store.blocks()];
    let mut scratch = Columns::default();
    for iter in 0..opts.max_iterations {
        step(store, src, &mut scratch, exit, q, &pi, &mut next)?;
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
            *res = store
                .range(b)
                .map(|j| (pi[j] - next[j]).abs())
                .fold(0.0f64, f64::max);
            change = change.max(*res);
        }
        std::mem::swap(&mut pi, &mut next);
        observer(iter + 1, change, &block_res);
        if change < opts.tolerance {
            return Ok(Sweeps {
                pi,
                iterations: iter + 1,
                residual: change,
                block_residuals: block_res,
                aggregations: 0,
            });
        }
        if iter + 1 == opts.max_iterations {
            return Err(Error::Convergence {
                what: "power method".into(),
                iterations: opts.max_iterations,
                residual: change,
            });
        }
    }
    unreachable!("loop returns before exhausting")
}

/// The aggregation–disaggregation state of one SOR solve. It holds
/// O(levels + groups²) numbers, nothing per state, so it adds nothing
/// to a memory plan worth counting.
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

#[cfg(test)]
mod tests {
    use super::super::columns::{fill_pass, scan_pass};
    use super::super::source::CsrRowSource;
    use super::*;
    use crate::{Ctmc, CtmcBuilder};
    use reliab_numeric::CsrMatrix;

    fn birth_death(n: usize, lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n - 1 {
            b.transition(ids[i], ids[i + 1], lambda).unwrap();
            b.transition(ids[i + 1], ids[i], mu).unwrap();
        }
        b.build().unwrap()
    }

    /// SOR over a fully cached store, aggregating into at most
    /// `max_parts` groups.
    fn solve(c: &Ctmc, max_parts: usize) -> Sweeps {
        let mut src = CsrRowSource::new(c);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        let opts = IterativeOptions::default();
        let observer = &mut |_, _, _: &[f64]| {};
        sor_in_parts(&store, &mut src, &rates.exit, &opts, observer, max_parts).unwrap()
    }

    fn gth(c: &Ctmc) -> Vec<f64> {
        c.steady_state_with(&crate::SteadyStateMethod::Gth).unwrap()
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn sor_and_power_match_gth() {
        let c = birth_death(40, 1.0, 2.5);
        let exact = gth(&c);
        let r = solve(&c, MAX_PARTS);
        assert!(max_err(&r.pi, &exact) < 1e-10);
        assert!((r.pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(r.block_residuals.len(), 1);

        let mut src = CsrRowSource::new(&c);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        let opts = IterativeOptions::default();
        let p = power(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).unwrap();
        assert!(max_err(&p.pi, &exact) < 1e-8);
        assert_eq!(p.aggregations, 0);
    }

    #[test]
    fn options_are_validated() {
        let c = birth_death(3, 1.0, 1.0);
        let mut src = CsrRowSource::new(&c);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        for opts in [
            IterativeOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            IterativeOptions {
                max_iterations: 0,
                ..Default::default()
            },
            IterativeOptions {
                relaxation: 2.0,
                ..Default::default()
            },
        ] {
            assert!(sor(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).is_err());
            assert!(power(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).is_err());
        }
    }

    #[test]
    fn absorbing_state_is_a_model_error() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let sink = b.state("sink");
        b.transition(a, sink, 1.0).unwrap();
        let c = b.build().unwrap();
        let mut src = CsrRowSource::new(&c);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        let opts = IterativeOptions::default();
        let err = sor(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).unwrap_err();
        assert!(matches!(err, Error::Model(_)), "{err:?}");
    }

    #[test]
    fn iteration_budget_exhaustion_reports_convergence_error() {
        let c = birth_death(40, 1.0, 1.01);
        let mut src = CsrRowSource::new(&c);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        let opts = IterativeOptions {
            max_iterations: 2,
            tolerance: 1e-15,
            ..Default::default()
        };
        let err = sor(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).unwrap_err();
        assert!(matches!(err, Error::Convergence { iterations: 2, .. }));
    }

    #[test]
    fn overrelaxed_sor_with_aggregation_matches_gth() {
        let c = birth_death(30, 3.0, 4.0);
        let mut src = CsrRowSource::new(&c);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        let opts = IterativeOptions {
            relaxation: 1.2,
            ..Default::default()
        };
        let r = sor(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).unwrap();
        assert!(r.aggregations > 0);
        assert!(max_err(&r.pi, &gth(&c)) < 1e-9);
        assert!((r.pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_budget_exhaustion_reports_convergence_error() {
        // A slowly mixing chain cannot meet 1e-15 in three iterations.
        let p = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 0.99), (0, 1, 0.01), (1, 0, 0.005), (1, 1, 0.995)],
        )
        .unwrap();
        let mut src = CsrRowSource::over(&p);
        let (rates, store) = ColumnStore::cached(&mut src).unwrap();
        let opts = IterativeOptions {
            max_iterations: 3,
            tolerance: 1e-15,
            ..Default::default()
        };
        let err = power(&store, &mut src, &rates.exit, &opts, &mut |_, _, _| {}).unwrap_err();
        assert!(
            matches!(err, Error::Convergence { iterations: 3, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn aggregation_cuts_sweeps_and_keeps_the_answer() {
        let c = birth_death(500, 1.0, 1.1);
        let exact = gth(&c);
        let iad = solve(&c, MAX_PARTS);
        let plain = solve(&c, 1);
        assert!(iad.aggregations > 0);
        assert_eq!(plain.aggregations, 0);
        assert!(
            iad.iterations * 2 < plain.iterations,
            "{} sweeps with aggregation vs {} without",
            iad.iterations,
            plain.iterations
        );
        assert!(max_err(&iad.pi, &exact) < 1e-9, "aggregated error");
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
        // One level means one group: no aggregate chain to solve.
        let mut agg = Aggregation::new(MAX_PARTS);
        agg.level_starts = vec![0];
        agg.partition(5);
        assert!(!agg.active());
        assert_eq!(agg.groups.cuts, vec![0, 5]);

        let c = birth_death(40, 1.0, 2.5);
        let r = solve(&c, 1);
        assert_eq!(r.aggregations, 0);
        assert!(max_err(&r.pi, &gth(&c)) < 1e-10);
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
        // correction is skipped: the solve is plain SOR, bit for bit.
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
        let r = solve(&c, MAX_PARTS);
        assert!(r.iterations > 2);
        assert_eq!(r.aggregations, 0);
        assert_eq!(r.pi, solve(&c, 1).pi);
        assert_eq!(r.pi[0], 0.0);
    }
}
