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
//!   It lives in [`reliab_markov::kernel`] together with the iterations
//!   this tier runs, and is re-exported here. [`ArenaRowSource`]
//!   regenerates rows directly from the packed SPN marking arena
//!   ([`reliab_spn::TangibleSpace`]), firing enabled transitions per
//!   marking and eliminating vanishing states on the fly;
//!   [`CsrRowSource`] adapts an already-materialized
//!   [`reliab_markov::Ctmc`], so every streaming solve is
//!   differential-testable against the exact in-core path.
//! * [`plan_steady`] / [`plan_transient`] — the memory planner: how
//!   many column blocks the kernel's column store is split into and
//!   how many stay cached under a caller-supplied byte budget
//!   ([`StreamOptions::mem_budget`]); the rest are rebuilt from the row
//!   source whenever the iteration reaches them. Results are **bitwise
//!   identical** at any block count and any admitting budget.
//! * [`steady_state`] / [`transient`] — the kernel's SOR, power
//!   iteration and uniformization over the planned store.
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
mod plan;
mod source;
mod steady;
mod transient;

pub use bound::{bounded_steady_reward, macro_states_for_budget, BoundedSteadyReport};
pub use plan::{plan_steady, plan_transient, MemoryPlan, PlanOutcome, StreamMethod, StreamOptions};
pub use reliab_markov::kernel::{CsrRowSource, RateScan, RowSource};
pub use source::{scan_rates, ArenaRowSource};
pub use steady::{
    steady_state, steady_state_observed, steady_state_with_pass_threads, SteadyStreamReport,
};
pub use transient::{transient, StreamTransientReport};
