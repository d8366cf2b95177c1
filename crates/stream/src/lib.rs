//! # reliab-stream
//!
//! The out-of-core ("largeness tolerance") solver tier: transient and
//! steady-state solution of CTMCs **too large to materialize** as a
//! sparse matrix. The tutorial's answer to state-space explosion is to
//! generate rows on demand, iterate in blocks, and fall back to
//! certified bounds when even the iteration vectors do not fit — this
//! crate implements all three rungs of that ladder:
//!
//! * [`RowSource`] — the one-method contract the whole tier is built
//!   on: produce the off-diagonal generator row of one state on demand.
//!   [`ArenaRowSource`] regenerates rows directly from the packed SPN
//!   marking arena ([`reliab_spn::TangibleSpace`]), firing enabled
//!   transitions per marking and eliminating vanishing states on the
//!   fly; [`CsrRowSource`] adapts an already-materialized
//!   [`reliab_markov::Ctmc`], so every streaming solver is
//!   differential-testable against the exact in-core path.
//! * [`transient`] — on-the-fly uniformization (Jensen's method with
//!   Poisson tail control and steady-state detection): a two-vector
//!   recurrence that never stores a matrix.
//! * [`steady_state`] — block-partitioned Gauss–Seidel/SOR and power
//!   iteration. Column slices of the generator are built per block and
//!   either cached or recomputed each sweep under a caller-supplied
//!   memory budget ([`StreamOptions::mem_budget`]); the sweep follows
//!   the global state order, so results are **bitwise identical** at
//!   any block count and any admitting budget.
//! * [`bounded_steady_reward`] — aggregation-based bounding when the
//!   budget cannot even hold the iteration vectors: a small macro-state
//!   chain brackets a steady-state reward between
//!   [`reliab_bounds::Bounds`].
//!
//! ```
//! use reliab_markov::CtmcBuilder;
//! use reliab_stream::{steady_state, CsrRowSource, StreamOptions};
//!
//! # fn main() -> Result<(), reliab_core::Error> {
//! let mut b = CtmcBuilder::new();
//! let up = b.state("up");
//! let down = b.state("down");
//! b.transition(up, down, 0.001)?;
//! b.transition(down, up, 0.1)?;
//! let ctmc = b.build()?;
//! let mut src = CsrRowSource::new(&ctmc);
//! let report = steady_state(&mut src, &StreamOptions::default())?;
//! let exact = ctmc.steady_state()?;
//! assert!((report.pi[0] - exact[0]).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod bound;
mod columns;
mod plan;
mod source;
mod steady;
mod transient;

pub use bound::{bounded_steady_reward, macro_states_for_budget, BoundedSteadyReport};
pub use plan::{plan_steady, plan_transient, MemoryPlan, PlanOutcome, StreamMethod, StreamOptions};
pub use source::{scan_rates, ArenaRowSource, CsrRowSource, RateScan, RowSource};
pub use steady::{
    steady_state, steady_state_observed, steady_state_with_pass_threads, SteadyStreamReport,
};
pub use transient::{transient, StreamTransientReport};

use reliab_core::Error;

/// Converts numeric-layer failures into the workspace error type.
pub(crate) fn num_err(e: reliab_numeric::NumericError) -> Error {
    match e {
        reliab_numeric::NumericError::NoConvergence {
            what,
            iterations,
            residual,
        } => Error::Convergence {
            what,
            iterations,
            residual,
        },
        other => Error::numerical(other.to_string()),
    }
}
