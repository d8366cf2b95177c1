//! Steady-state solution of irreducible CTMCs.

use crate::builder::Ctmc;
use crate::kernel::{self, CsrRowSource, IterativeOptions};
use crate::num_err;
use reliab_core::Result;
use reliab_numeric::gth_steady_state_observed;
use reliab_obs as obs;

/// Emits the per-sweep `markov.iteration` trace event shared by every
/// steady-state method. Near-free when tracing is disabled (`event`
/// bails on one relaxed atomic load).
fn iteration_event(method: &'static str, iter: usize, residual: f64) {
    obs::event(
        "markov.iteration",
        &[
            ("method", method.into()),
            ("iter", iter.into()),
            ("residual", residual.into()),
        ],
    );
}

/// Chains at or below this size are solved by dense GTH by default;
/// larger chains use sparse SOR.
const GTH_SIZE_THRESHOLD: usize = 512;

/// Steady-state solution method selection.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SteadyStateMethod {
    /// Dense Grassmann–Taksar–Heyman elimination: exact (to round-off),
    /// subtraction-free, `O(n³)` time / `O(n²)` memory.
    Gth,
    /// Gauss–Seidel / SOR sweeps on the sparse generator with an
    /// aggregation–disaggregation step between sweeps: `O(nnz)` per
    /// sweep, preferred for large chains.
    Sor(IterativeOptions),
    /// Power iteration on the uniformized DTMC `P = I + Q/q`: the
    /// slowest-converging but most robust sweep, useful as a
    /// cross-check of the other methods.
    Power(IterativeOptions),
    /// Pick GTH for small chains and SOR otherwise.
    Auto,
}

/// A solved stationary distribution plus solver telemetry.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SteadyReport {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// The method that actually ran (`"gth"`, `"sor"`, or `"power"` —
    /// `Auto` resolves before solving).
    pub method: &'static str,
    /// Sweeps performed (for GTH: the `n` elimination stages).
    pub iterations: usize,
    /// Final convergence residual (0 for the direct GTH solve).
    pub residual: f64,
}

impl Ctmc {
    /// Stationary distribution with automatic method selection.
    ///
    /// # Errors
    ///
    /// * [`reliab_core::Error::Numerical`] — reducible chain (no unique
    ///   stationary vector) or an overflowing solve.
    /// * [`reliab_core::Error::Model`] — an absorbing state under SOR.
    /// * [`reliab_core::Error::Convergence`] — SOR budget exhausted.
    pub fn steady_state(&self) -> Result<Vec<f64>> {
        self.steady_state_with(&SteadyStateMethod::Auto)
    }

    /// Stationary distribution with an explicit method.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::steady_state`].
    pub fn steady_state_with(&self, method: &SteadyStateMethod) -> Result<Vec<f64>> {
        self.steady_state_report(method).map(|r| r.pi)
    }

    /// Stationary distribution plus solver telemetry — which method
    /// ran, how many sweeps it took, and the final residual.
    ///
    /// # Errors
    ///
    /// See [`Ctmc::steady_state`].
    pub fn steady_state_report(&self, method: &SteadyStateMethod) -> Result<SteadyReport> {
        let _span = obs::span("markov.steady");
        let report = match method {
            SteadyStateMethod::Gth => self.gth_report(),
            SteadyStateMethod::Sor(opts) => self.sweep_report("sor", opts),
            SteadyStateMethod::Power(opts) => self.sweep_report("power", opts),
            SteadyStateMethod::Auto => {
                if self.num_states() <= GTH_SIZE_THRESHOLD {
                    self.gth_report()
                } else {
                    self.sweep_report("sor", &IterativeOptions::default())
                }
            }
        };
        if let Ok(r) = &report {
            obs::counter_add("markov.steady.solves", 1);
            obs::counter_add("markov.steady.iterations", r.iterations as u64);
        }
        report
    }

    fn gth_report(&self) -> Result<SteadyReport> {
        let pi = gth_steady_state_observed(&self.generator_dense(), &mut |k| {
            iteration_event("gth", k, 0.0);
        })
        .map_err(num_err)?;
        Ok(SteadyReport {
            pi,
            method: "gth",
            iterations: self.num_states(),
            residual: 0.0,
        })
    }

    /// SOR (`"sor"`) or power iteration (`"power"`) in the kernel, over
    /// the chain's cached column store.
    fn sweep_report(&self, method: &'static str, opts: &IterativeOptions) -> Result<SteadyReport> {
        let store = self.columns()?;
        let mut src = CsrRowSource::new(self);
        let observer = &mut |iter, res, _: &[f64]| iteration_event(method, iter, res);
        let sweeps = if method == "power" {
            kernel::power(store, &mut src, &self.out_rate, opts, observer)
        } else {
            kernel::sor(store, &mut src, &self.out_rate, opts, observer)
        }?;
        Ok(SteadyReport {
            pi: sweeps.pi,
            method,
            iterations: sweeps.iterations,
            residual: sweeps.residual,
        })
    }

    /// Long-run probability of being in any state of `up_states`
    /// (steady-state availability when those are the operational
    /// states).
    ///
    /// # Errors
    ///
    /// Propagates [`Ctmc::steady_state`] errors.
    pub fn steady_state_probability_of(&self, states: &[crate::StateId]) -> Result<f64> {
        let pi = self.steady_state()?;
        Ok(states.iter().map(|s| pi[s.index()]).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    /// Classic two-component parallel system with a single shared
    /// repair facility (states = number of failed components).
    fn shared_repair_chain(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let s0 = b.state("0-failed");
        let s1 = b.state("1-failed");
        let s2 = b.state("2-failed");
        b.transition(s0, s1, 2.0 * lambda).unwrap();
        b.transition(s1, s2, lambda).unwrap();
        b.transition(s1, s0, mu).unwrap();
        b.transition(s2, s1, mu).unwrap(); // single crew: rate stays mu
        b.build().unwrap()
    }

    #[test]
    fn shared_repair_closed_form() {
        // Birth-death: pi1/pi0 = 2λ/μ, pi2/pi1 = λ/μ.
        let (l, m) = (0.01, 1.0);
        let c = shared_repair_chain(l, m);
        let pi = c.steady_state().unwrap();
        let r1 = 2.0 * l / m;
        let r2 = l / m;
        let norm = 1.0 + r1 + r1 * r2;
        assert!((pi[0] - 1.0 / norm).abs() < 1e-13);
        assert!((pi[1] - r1 / norm).abs() < 1e-13);
        assert!((pi[2] - r1 * r2 / norm).abs() < 1e-13);
    }

    #[test]
    fn methods_agree() {
        let c = shared_repair_chain(0.2, 1.5);
        let gth = c.steady_state_with(&SteadyStateMethod::Gth).unwrap();
        let sor = c
            .steady_state_with(&SteadyStateMethod::Sor(Default::default()))
            .unwrap();
        let power = c
            .steady_state_with(&SteadyStateMethod::Power(Default::default()))
            .unwrap();
        let auto = c.steady_state().unwrap();
        for i in 0..3 {
            assert!((gth[i] - sor[i]).abs() < 1e-9);
            assert!((gth[i] - power[i]).abs() < 1e-9);
            assert!((gth[i] - auto[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn reports_carry_method_and_iterations() {
        let c = shared_repair_chain(0.2, 1.5);
        let gth = c.steady_state_report(&SteadyStateMethod::Gth).unwrap();
        assert_eq!(gth.method, "gth");
        assert_eq!(gth.iterations, 3);
        assert_eq!(gth.residual, 0.0);

        let sor = c
            .steady_state_report(&SteadyStateMethod::Sor(Default::default()))
            .unwrap();
        assert_eq!(sor.method, "sor");
        assert!(sor.iterations > 0);
        assert!(sor.residual < 1e-12);

        let power = c
            .steady_state_report(&SteadyStateMethod::Power(Default::default()))
            .unwrap();
        assert_eq!(power.method, "power");
        assert!(power.iterations > sor.iterations, "power converges slower");
    }

    #[test]
    fn availability_of_up_states() {
        let c = shared_repair_chain(0.01, 1.0);
        let up: Vec<_> = [
            c.find_state("0-failed").unwrap(),
            c.find_state("1-failed").unwrap(),
        ]
        .to_vec();
        let a = c.steady_state_probability_of(&up).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((a - (pi[0] + pi[1])).abs() < 1e-15);
        assert!(a > 0.999);
    }

    #[test]
    fn reducible_chain_errors() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a");
        let absorbing = b.state("b");
        b.transition(a, absorbing, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(c.steady_state().is_err());
    }

    #[test]
    fn large_chain_uses_sor_and_matches_structure() {
        // 600-state birth-death chain exceeds the GTH threshold.
        let mut b = CtmcBuilder::new();
        let states: Vec<_> = (0..600).map(|i| b.state(&format!("s{i}"))).collect();
        for w in states.windows(2) {
            b.transition(w[0], w[1], 1.0).unwrap();
            b.transition(w[1], w[0], 2.0).unwrap();
        }
        let c = b.build().unwrap();
        let pi = c.steady_state().unwrap();
        // Geometric with ratio 1/2.
        assert!((pi[1] / pi[0] - 0.5).abs() < 1e-6);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
