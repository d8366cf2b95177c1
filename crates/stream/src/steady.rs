//! Budgeted steady-state solution over a [`RowSource`]: the memory
//! planner lays out the kernel's column store — how many column blocks,
//! how many of them cached — and the kernel's SOR (with its
//! aggregation–disaggregation step) or power iteration runs over it.
//! Results are bitwise identical at any block count, any admitting
//! budget and any row-pass thread count; the plan changes wall time
//! only.

use crate::plan::{plan_steady, planned_store, MemoryPlan, StreamMethod, StreamOptions};
use reliab_core::Result;
use reliab_markov::kernel::{self, pass_threads, RowSource};
use reliab_obs as obs;

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
    /// The memory plan the solve ran under.
    pub plan: MemoryPlan,
}

/// Solves `π Q = 0`, `Σ π = 1` over a row source under the options'
/// memory budget.
///
/// # Errors
///
/// * [`Error::InvalidParameter`] — bad options, or a budget too small
///   for an exact solve (escalate to [`crate::bounded_steady_reward`]).
/// * [`Error::Model`] — an absorbing state (SOR).
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
    solve(src, opts, observer, threads)
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
    solve(src, opts, &mut |_, _| {}, threads.max(1))
}

fn solve(
    src: &mut dyn RowSource,
    opts: &StreamOptions,
    observer: &mut dyn FnMut(usize, f64),
    threads: usize,
) -> Result<SteadyStreamReport> {
    opts.validate()?;
    let _span = obs::span("stream.steady");
    let n = src.num_states();
    let columns_span = obs::span("stream.columns");
    let (rates, store, plan) = planned_store(src, opts, threads, plan_steady)?;
    drop(columns_span);
    obs::event(
        "stream.plan",
        &[
            ("states", n.into()),
            ("arcs", rates.arcs.into()),
            ("blocks", plan.blocks.into()),
            ("cached_blocks", plan.cached_blocks.into()),
            ("source_bytes", plan.source_bytes.into()),
            ("slice_bytes", plan.slice_bytes.into()),
        ],
    );

    let method = match opts.method {
        StreamMethod::Auto | StreamMethod::Sor => "stream-sor",
        StreamMethod::Power => "stream-power",
    };
    let mut observe = |sweep: usize, residual: f64, blocks: &[f64]| {
        observer(sweep, residual);
        if obs::trace_enabled() {
            for (b, &r) in blocks.iter().enumerate() {
                obs::event(
                    "stream.block",
                    &[
                        ("sweep", sweep.into()),
                        ("block", b.into()),
                        ("residual", r.into()),
                    ],
                );
            }
        }
        obs::event(
            "stream.iteration",
            &[
                ("method", method.into()),
                ("iter", sweep.into()),
                ("residual", residual.into()),
            ],
        );
    };
    let sweeps_span = obs::span("stream.sweeps");
    let iter_opts = opts.iterative();
    let sweeps = match opts.method {
        StreamMethod::Auto | StreamMethod::Sor => {
            kernel::sor(&store, src, &rates.exit, &iter_opts, &mut observe)
        }
        StreamMethod::Power => kernel::power(&store, src, &rates.exit, &iter_opts, &mut observe),
    }?;
    drop(sweeps_span);
    obs::counter_add("stream.steady.solves", 1);
    obs::counter_add("stream.steady.iterations", sweeps.iterations as u64);
    obs::counter_add("stream.aggregations", sweeps.aggregations as u64);
    Ok(SteadyStreamReport {
        pi: sweeps.pi,
        method,
        iterations: sweeps.iterations,
        residual: sweeps.residual,
        block_residuals: sweeps.block_residuals,
        aggregations: sweeps.aggregations,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_markov::kernel::CsrRowSource;
    use reliab_markov::{Ctmc, CtmcBuilder, SteadyStateMethod};

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
    fn sor_matches_gth() {
        let c = birth_death(40, 1.0, 2.5);
        let exact = c.steady_state_with(&SteadyStateMethod::Gth).unwrap();
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
