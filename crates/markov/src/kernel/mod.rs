//! The CTMC iteration kernel: the one implementation of every
//! iterative route to a chain's distributions.
//!
//! * [`RowSource`] — the one-method contract the kernel is built on:
//!   produce the off-diagonal generator row of one state on demand.
//!   [`CsrRowSource`] reads a materialized CSR matrix; the streaming
//!   tier (`reliab-stream`) regenerates rows from an SPN marking arena.
//! * [`ColumnStore`] — the generator's columns, built from two row
//!   passes ([`RowScan`]) and cached in full or in a leading run of
//!   blocks, the rest rebuilt whenever an iteration reaches them.
//! * [`sor`] — Gauss–Seidel/SOR sweeps with an aggregation–
//!   disaggregation step; [`power`] — power iteration on the
//!   uniformized DTMC.
//! * [`transient`] / [`accumulated`] — Jensen's uniformization with
//!   Poisson tail control and steady-state detection.
//!
//! [`Ctmc`](crate::Ctmc) and [`Dtmc`](crate::Dtmc) run these over a
//! fully cached store of their CSR matrix; `reliab-stream` runs them
//! over a store laid out by its memory planner. Results are bitwise
//! identical at any block layout and any row-pass thread count. GTH
//! elimination and the dense matrix exponential (`reliab_numeric`) are
//! independent algorithms and serve as the references the kernel is
//! tested against.

mod columns;
mod jensen;
mod source;
mod sweep;

pub use columns::{pass_threads, scan_pass, ColumnStore, RowScan, COLUMN_BYTES, ENTRY_BYTES};
pub use jensen::{accumulated, check_distribution, transient};
pub use source::{uniformization_rate, CsrRowSource, RateScan, RowSource};
pub use sweep::{power, sor, SweepObserver, Sweeps};

use reliab_core::{Error, Result};

/// Options of the iterative steady-state solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeOptions {
    /// Convergence tolerance on the iterate change (`∞`-norm, relative
    /// to the iterate's largest entry for SOR, absolute for power
    /// iteration).
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// SOR relaxation factor in `(0, 2)`; `1.0` is plain Gauss–Seidel.
    pub relaxation: f64,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        IterativeOptions {
            tolerance: 1e-12,
            max_iterations: 20_000,
            relaxation: 1.0,
        }
    }
}

impl IterativeOptions {
    /// Checks the tolerance, budget and relaxation factor.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] naming the first bad field.
    pub fn validate(&self) -> Result<()> {
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(Error::invalid(format!(
                "tolerance must be positive, got {}",
                self.tolerance
            )));
        }
        if self.max_iterations == 0 {
            return Err(Error::invalid("max_iterations must be > 0"));
        }
        if !(self.relaxation > 0.0 && self.relaxation < 2.0) {
            return Err(Error::invalid(format!(
                "SOR relaxation must lie in (0, 2), got {}",
                self.relaxation
            )));
        }
        Ok(())
    }
}
