//! Transient solution by uniformization (Jensen's method).

use crate::builder::Ctmc;
use crate::kernel::{self, CsrRowSource};
use reliab_core::{Error, Result};
use reliab_obs as obs;

/// Options for the uniformization transient solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Bound on the truncated Poisson tail mass (solution error is of
    /// the same order).
    pub epsilon: f64,
    /// If set, stop the Poisson sum early once successive uniformized
    /// DTMC iterates differ by less than this threshold in `∞`-norm —
    /// the classic "steady-state detection" optimization that turns the
    /// `O(q·t)` cost of stiff problems into `O(mixing time)`.
    pub steady_state_detection: Option<f64>,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            epsilon: 1e-10,
            steady_state_detection: Some(1e-12),
        }
    }
}

impl TransientOptions {
    /// Checks the truncation error and the detection threshold.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the first bad field.
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(Error::invalid(format!(
                "epsilon must lie in (0,1), got {}",
                self.epsilon
            )));
        }
        if let Some(d) = self.steady_state_detection {
            if d.is_nan() || d <= 0.0 {
                return Err(Error::invalid(format!(
                    "steady-state detection threshold must be positive, got {d}"
                )));
            }
        }
        Ok(())
    }
}

/// A transient distribution plus uniformization telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct TransientReport {
    /// The state-probability vector at the requested time.
    pub distribution: Vec<f64>,
    /// Sparse matrix–vector products performed (the dominant cost).
    pub matvecs: usize,
    /// Number of significant Poisson terms in the truncated sum.
    pub poisson_terms: usize,
    /// If steady-state detection fired, the term index at which the
    /// uniformized iterate stopped changing.
    pub converged_at: Option<usize>,
}

impl Ctmc {
    /// State-probability vector at time `t`, starting from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a bad distribution,
    /// negative `t`, or bad options; numerical errors propagate from the
    /// Poisson-weight computation.
    pub fn transient(&self, initial: &[f64], t: f64) -> Result<Vec<f64>> {
        self.transient_with(initial, t, &TransientOptions::default())
    }

    /// [`Ctmc::transient`] with explicit options.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::transient`].
    pub fn transient_with(
        &self,
        initial: &[f64],
        t: f64,
        opts: &TransientOptions,
    ) -> Result<Vec<f64>> {
        self.transient_report(initial, t, opts)
            .map(|r| r.distribution)
    }

    /// [`Ctmc::transient_with`] plus solver telemetry: matrix–vector
    /// product count, Poisson truncation width, and whether steady-state
    /// detection cut the sum short.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::transient`].
    pub fn transient_report(
        &self,
        initial: &[f64],
        t: f64,
        opts: &TransientOptions,
    ) -> Result<TransientReport> {
        let _span = obs::span("markov.transient");
        let mut src = CsrRowSource::new(self);
        let store = || self.columns();
        let report = kernel::transient(store, &mut src, &self.out_rate, initial, t, opts)?;
        if report.poisson_terms == 0 {
            return Ok(report);
        }
        obs::event(
            "markov.transient.point",
            &[
                ("t", t.into()),
                ("matvecs", report.matvecs.into()),
                ("poisson_terms", report.poisson_terms.into()),
            ],
        );
        obs::counter_add("markov.transient.points", 1);
        obs::counter_add("markov.transient.matvecs", report.matvecs as u64);
        Ok(report)
    }

    /// Transient distributions at several time points, evaluated
    /// concurrently across `jobs` threads (`0` means one thread per
    /// available CPU). Each point is solved independently from `t = 0`,
    /// so results are bitwise identical to calling
    /// [`Ctmc::transient_with`] per point — the parallelism only changes
    /// wall time, never values.
    ///
    /// # Errors
    ///
    /// Per-point errors surface as the error of the earliest failing
    /// time, matching the sequential loop's behavior.
    pub fn transient_many(
        &self,
        initial: &[f64],
        times: &[f64],
        opts: &TransientOptions,
        jobs: usize,
    ) -> Result<Vec<Vec<f64>>> {
        Ok(self
            .transient_many_report(initial, times, opts, jobs)?
            .into_iter()
            .map(|r| r.distribution)
            .collect())
    }

    /// [`Ctmc::transient_many`] with per-point telemetry.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::transient_many`].
    pub fn transient_many_report(
        &self,
        initial: &[f64],
        times: &[f64],
        opts: &TransientOptions,
        jobs: usize,
    ) -> Result<Vec<TransientReport>> {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            jobs
        };
        let workers = jobs.min(times.len());
        if workers <= 1 {
            return times
                .iter()
                .map(|&t| self.transient_report(initial, t, opts))
                .collect();
        }

        use std::sync::atomic::{AtomicUsize, Ordering};
        // Build the shared column store once, before the workers need it.
        self.columns()?;
        let next = AtomicUsize::new(0);
        let trace = obs::current_trace_id();
        let mut collected: Vec<(usize, Result<TransientReport>)> = Vec::with_capacity(times.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let _trace = obs::set_trace_id(trace);
                        let mut local = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= times.len() {
                                return local;
                            }
                            local.push((idx, self.transient_report(initial, times[idx], opts)));
                        }
                    })
                })
                .collect();
            for h in handles {
                // Worker closures don't panic except on internal bugs,
                // where propagating the panic is the right outcome.
                collected.extend(h.join().expect("transient worker panicked"));
            }
        });
        collected.sort_by_key(|(idx, _)| *idx);
        collected.into_iter().map(|(_, r)| r).collect()
    }

    /// Expected total time spent in each state over `[0, t]`
    /// (the integral `∫₀ᵗ π(u) du`), by the uniformization identity
    /// `∫₀ᵗ pois_k(qu) du = (1/q)(1 - Σ_{j≤k} pois_j(qt))`.
    ///
    /// Dividing by `t` gives interval availability when summed over up
    /// states.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Ctmc::transient`].
    pub fn accumulated(&self, initial: &[f64], t: f64, epsilon: f64) -> Result<Vec<f64>> {
        let mut src = CsrRowSource::new(self);
        let store = || self.columns();
        kernel::accumulated(store, &mut src, &self.out_rate, initial, t, epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, lambda).unwrap();
        b.transition(down, up, mu).unwrap();
        b.build().unwrap()
    }

    /// Closed-form availability of the two-state chain starting up:
    /// A(t) = mu/(l+m) + l/(l+m) e^{-(l+m)t}.
    fn two_state_avail(l: f64, m: f64, t: f64) -> f64 {
        m / (l + m) + l / (l + m) * (-(l + m) * t).exp()
    }

    #[test]
    fn column_store_is_built_only_for_a_moving_solve() {
        let c = two_state(1.0, 2.0);
        let p0 = [1.0, 0.0];
        assert_eq!(c.transient(&p0, 0.0).unwrap(), p0);
        assert!(c.transient(&[0.5], 1.0).is_err());
        assert!(c.transient(&p0, -1.0).is_err());
        assert!(c.columns.get().is_none());
        c.transient(&p0, 1.0).unwrap();
        assert!(c.columns.get().is_some());
    }

    #[test]
    fn matches_two_state_closed_form() {
        let (l, m) = (0.4, 1.7);
        let c = two_state(l, m);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        for &t in &[0.0, 0.1, 0.5, 1.0, 5.0, 50.0] {
            let pi = c.transient(&p0, t).unwrap();
            assert!(
                (pi[0] - two_state_avail(l, m, t)).abs() < 1e-9,
                "t = {t}: {} vs {}",
                pi[0],
                two_state_avail(l, m, t)
            );
        }
    }

    #[test]
    fn long_horizon_reaches_steady_state() {
        let c = two_state(1.0, 2.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let pi_t = c.transient(&p0, 1e4).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((pi_t[0] - pi[0]).abs() < 1e-9);
        assert!((pi_t[1] - pi[1]).abs() < 1e-9);
    }

    #[test]
    fn steady_state_detection_agrees_with_full_sum() {
        // Stiff chain: fast repair, slow failure, long horizon.
        let c = two_state(1e-4, 100.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let with = c
            .transient_with(
                &p0,
                1000.0,
                &TransientOptions {
                    epsilon: 1e-12,
                    steady_state_detection: Some(1e-14),
                },
            )
            .unwrap();
        let without = c
            .transient_with(
                &p0,
                1000.0,
                &TransientOptions {
                    epsilon: 1e-12,
                    steady_state_detection: None,
                },
            )
            .unwrap();
        assert!((with[0] - without[0]).abs() < 1e-9);
    }

    #[test]
    fn options_and_inputs_validated() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        assert!(c.transient(&p0, -1.0).is_err());
        assert!(c.transient(&[0.5, 0.6], 1.0).is_err());
        assert!(c
            .transient_with(
                &p0,
                1.0,
                &TransientOptions {
                    epsilon: 0.0,
                    steady_state_detection: None
                }
            )
            .is_err());
        assert!(c
            .transient_with(
                &p0,
                1.0,
                &TransientOptions {
                    epsilon: 1e-10,
                    steady_state_detection: Some(-1.0)
                }
            )
            .is_err());
    }

    #[test]
    fn t_zero_is_identity() {
        let c = two_state(1.0, 1.0);
        let p0 = vec![0.25, 0.75];
        assert_eq!(c.transient(&p0, 0.0).unwrap(), p0);
    }

    #[test]
    fn accumulated_matches_derivative_relation() {
        // For the two-state chain, ∫ A(u) du has closed form:
        // t*m/(l+m) + l/(l+m)^2 (1 - e^{-(l+m)t}).
        let (l, m) = (0.5, 2.0);
        let c = two_state(l, m);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        for &t in &[0.5, 2.0, 10.0] {
            let acc = c.accumulated(&p0, t, 1e-12).unwrap();
            let s = l + m;
            let expected_up = t * m / s + l / (s * s) * (1.0 - (-s * t).exp());
            assert!(
                (acc[0] - expected_up).abs() < 1e-8,
                "t = {t}: {} vs {expected_up}",
                acc[0]
            );
            // Total time accounted for must equal t.
            assert!((acc[0] + acc[1] - t).abs() < 1e-8);
        }
    }

    #[test]
    fn transient_many_matches_sequential_bitwise() {
        let c = two_state(0.4, 1.7);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let times = [0.0, 0.1, 0.5, 1.0, 5.0, 50.0, 200.0];
        let opts = TransientOptions::default();
        let sequential: Vec<_> = times
            .iter()
            .map(|&t| c.transient_with(&p0, t, &opts).unwrap())
            .collect();
        for jobs in [1, 2, 4, 0] {
            let parallel = c.transient_many(&p0, &times, &opts, jobs).unwrap();
            assert_eq!(parallel, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn transient_many_surfaces_earliest_error() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let times = [1.0, -1.0, 2.0];
        assert!(c
            .transient_many(&p0, &times, &TransientOptions::default(), 4)
            .is_err());
    }

    #[test]
    fn report_counts_work() {
        let c = two_state(0.4, 1.7);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        let r = c
            .transient_report(&p0, 2.0, &TransientOptions::default())
            .unwrap();
        assert!(r.matvecs > 0);
        assert!(r.poisson_terms > 0);
        // Stiff long horizon: steady-state detection should fire and cap
        // the matvec count far below the Poisson width q*t.
        let stiff = two_state(1e-4, 100.0);
        let s0 = stiff.point_mass(stiff.find_state("up").unwrap());
        let r = stiff
            .transient_report(&s0, 1000.0, &TransientOptions::default())
            .unwrap();
        assert!(r.converged_at.is_some());
        assert!((r.matvecs as f64) < 0.5 * 100.0 * 1000.0);
        // t = 0 costs nothing.
        let r0 = c
            .transient_report(&p0, 0.0, &TransientOptions::default())
            .unwrap();
        assert_eq!(r0.matvecs, 0);
    }

    #[test]
    fn accumulated_zero_horizon() {
        let c = two_state(1.0, 1.0);
        let p0 = c.point_mass(c.find_state("up").unwrap());
        assert_eq!(c.accumulated(&p0, 0.0, 1e-10).unwrap(), vec![0.0, 0.0]);
    }
}
