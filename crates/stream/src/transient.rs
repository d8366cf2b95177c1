//! Budgeted transient solution over a [`RowSource`]: the memory
//! planner lays out the kernel's column store and the kernel's
//! uniformization (Jensen's method with Poisson tail control and
//! steady-state detection) runs over it — the same recurrence as
//! `Ctmc::transient_report`, bit for bit on the same arc stream.

use crate::plan::{plan_transient, planned_store, MemoryPlan, StreamOptions};
use reliab_core::Result;
use reliab_markov::kernel::{self, pass_threads, RowSource};
use reliab_obs as obs;

/// A transient distribution plus streaming-uniformization telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct StreamTransientReport {
    /// The state-probability vector at the requested time.
    pub distribution: Vec<f64>,
    /// Uniformized matrix–vector products performed.
    pub matvecs: usize,
    /// Number of significant Poisson terms in the truncated sum.
    pub poisson_terms: usize,
    /// If steady-state detection fired, the term index at which the
    /// uniformized iterate stopped changing.
    pub converged_at: Option<usize>,
    /// The memory plan the solve ran under.
    pub plan: MemoryPlan,
}

/// State-probability vector at time `t`, starting from `initial`, by
/// uniformization over a row source.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for a bad distribution, negative
/// `t`, bad options, or a memory budget below the row source plus the
/// recurrence vectors; numerical errors propagate from the
/// Poisson-weight computation; row-source errors propagate.
pub fn transient(
    src: &mut dyn RowSource,
    initial: &[f64],
    t: f64,
    opts: &StreamOptions,
) -> Result<StreamTransientReport> {
    let _span = obs::span("stream.transient");
    opts.validate()?;
    let n = src.num_states();
    kernel::check_distribution(initial, n)?;
    let (rates, store, plan) = planned_store(src, opts, pass_threads(n), plan_transient)?;
    let store = || Ok(&store);
    let report = kernel::transient(store, src, &rates.exit, initial, t, &opts.transient())?;
    if report.poisson_terms > 0 {
        obs::event(
            "stream.transient.point",
            &[
                ("t", t.into()),
                ("matvecs", report.matvecs.into()),
                ("poisson_terms", report.poisson_terms.into()),
            ],
        );
        obs::counter_add("stream.transient.points", 1);
        obs::counter_add("stream.transient.matvecs", report.matvecs as u64);
    }
    Ok(StreamTransientReport {
        distribution: report.distribution,
        matvecs: report.matvecs,
        poisson_terms: report.poisson_terms,
        converged_at: report.converged_at,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_markov::kernel::CsrRowSource;
    use reliab_markov::{Ctmc, CtmcBuilder, TransientOptions};
    use reliab_numeric::expm;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, lambda).unwrap();
        b.transition(down, up, mu).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn matches_the_matrix_exponential() {
        let c = two_state(0.4, 1.7);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let mut src = CsrRowSource::new(&c);
        // Tail mass well below the comparison tolerance.
        let opts = StreamOptions {
            epsilon: 1e-15,
            ..Default::default()
        };
        for &t in &[0.0, 0.1, 0.5, 1.0, 5.0, 50.0] {
            let streamed = transient(&mut src, &p0, t, &opts).unwrap();
            let mut qt = c.generator_dense();
            for i in 0..2 {
                for j in 0..2 {
                    qt.set(i, j, qt.get(i, j) * t);
                }
            }
            let exact = expm(&qt).unwrap().vecmat(&p0).unwrap();
            for (i, (s, e)) in streamed.distribution.iter().zip(&exact).enumerate() {
                assert!((s - e).abs() < 1e-12, "t = {t}, state {i}");
            }
        }
    }

    #[test]
    fn telemetry_matches_in_core_solver() {
        // Stiff chain: steady-state detection must fire at the same
        // term index as the in-core solver, with the same matvec count.
        let c = two_state(1e-4, 100.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let mut src = CsrRowSource::new(&c);
        let streamed = transient(&mut src, &p0, 1000.0, &StreamOptions::default()).unwrap();
        let exact = c
            .transient_report(&p0, 1000.0, &TransientOptions::default())
            .unwrap();
        assert_eq!(streamed.matvecs, exact.matvecs);
        assert_eq!(streamed.poisson_terms, exact.poisson_terms);
        assert_eq!(streamed.converged_at, exact.converged_at);
        assert!(streamed.converged_at.is_some());
    }

    #[test]
    fn inputs_validated() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let mut src = CsrRowSource::new(&c);
        assert!(transient(&mut src, &p0, -1.0, &StreamOptions::default()).is_err());
        assert!(transient(&mut src, &[0.5, 0.6], 1.0, &StreamOptions::default()).is_err());
        assert!(transient(&mut src, &[0.5], 1.0, &StreamOptions::default()).is_err());
        let bad = StreamOptions {
            epsilon: 0.0,
            ..Default::default()
        };
        assert!(transient(&mut src, &p0, 1.0, &bad).is_err());
    }

    #[test]
    fn t_zero_is_identity_and_costs_nothing() {
        let c = two_state(1.0, 1.0);
        let p0 = vec![0.25, 0.75];
        let mut src = CsrRowSource::new(&c);
        let r = transient(&mut src, &p0, 0.0, &StreamOptions::default()).unwrap();
        assert_eq!(r.distribution, p0);
        assert_eq!(r.matvecs, 0);
    }

    #[test]
    fn budget_below_vectors_is_rejected() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let mut src = CsrRowSource::new(&c);
        let opts = StreamOptions {
            mem_budget: Some(8),
            ..Default::default()
        };
        assert!(transient(&mut src, &p0, 1.0, &opts).is_err());
    }
}
