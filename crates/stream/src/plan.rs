//! Options and memory planning for the streaming solvers.
//!
//! The planner decides, from the model size and the caller's byte
//! budget, how many column blocks the steady-state sweep uses and how
//! much of the slice store may stay cached (the rest is recomputed from
//! the [`crate::RowSource`] every sweep). Planning affects **wall time
//! only** — the sweep follows the global state order whatever the plan
//! says, so results are bitwise identical at any block count and any
//! admitting budget.

use crate::columns::{COLUMN_BYTES, ENTRY_BYTES};
use reliab_core::{Error, Result};

/// Iterative method used by [`crate::steady_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamMethod {
    /// Pick automatically (currently always SOR/Gauss–Seidel).
    #[default]
    Auto,
    /// Block Gauss–Seidel / SOR on the generator columns.
    Sor,
    /// Power iteration on the uniformized DTMC.
    Power,
}

/// Options shared by the streaming solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Convergence tolerance (same semantics as the in-core iterative
    /// solvers: relative `∞`-norm change for SOR, absolute for power).
    pub tolerance: f64,
    /// Sweep / iteration budget.
    pub max_iterations: usize,
    /// SOR relaxation factor in `(0, 2)`; `1.0` is plain Gauss–Seidel.
    pub relaxation: f64,
    /// Steady-state method.
    pub method: StreamMethod,
    /// Byte budget for everything the solver holds beyond the row
    /// source itself is derived from this **total** budget (row source
    /// included). `None` means unlimited: one fully cached block.
    pub mem_budget: Option<usize>,
    /// Explicit column-block count for the steady-state sweep;
    /// `None` lets the planner derive it from the budget. Exposed for
    /// the block-invariance property tests.
    pub blocks: Option<usize>,
    /// Poisson truncation error for [`crate::transient`].
    pub epsilon: f64,
    /// Steady-state detection threshold for [`crate::transient`]
    /// (`None` disables the optimization).
    pub steady_state_detection: Option<f64>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            tolerance: 1e-12,
            max_iterations: 20_000,
            relaxation: 1.0,
            method: StreamMethod::Auto,
            mem_budget: None,
            blocks: None,
            epsilon: 1e-10,
            steady_state_detection: Some(1e-12),
        }
    }
}

impl StreamOptions {
    pub(crate) fn validate(&self) -> Result<()> {
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
        if let Some(b) = self.blocks {
            if b == 0 {
                return Err(Error::invalid("block count must be > 0"));
            }
        }
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

/// Hard ceiling on the auto-derived block count: beyond this the
/// per-sweep recompute overhead dwarfs any memory saving.
const MAX_AUTO_BLOCKS: usize = 4096;

/// The streaming solver's memory layout for one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct MemoryPlan {
    /// Chain size.
    pub states: usize,
    /// Off-diagonal arcs (parallel arcs counted separately).
    pub arcs: u64,
    /// Column blocks in the steady-state sweep (1 for transient).
    pub blocks: usize,
    /// Blocks whose column slice stays cached across sweeps; the
    /// remaining `blocks - cached_blocks` are recomputed from the row
    /// source every sweep. Filled in by the solver once actual slice
    /// sizes are known.
    pub cached_blocks: usize,
    /// Bytes resident in the row source itself.
    pub source_bytes: usize,
    /// Bytes of iteration vectors (`π`, exit rates, scratch).
    pub vector_bytes: usize,
    /// Bytes of the full column store: 12 per arc (`u32` source state,
    /// `f64` rate) plus 4 per column offset.
    pub slice_bytes: u64,
    /// Bytes available for cached slices after source + vectors.
    pub cache_bytes: u64,
    /// The caller's total budget, if any.
    pub budget: Option<usize>,
}

impl MemoryPlan {
    /// Conservative peak-resident estimate for this plan: source,
    /// vectors, cached slices, and (if any block is recomputed) one
    /// average block of scratch.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        let (cached, scratch) = if self.slice_bytes <= self.cache_bytes {
            (self.slice_bytes, 0)
        } else {
            // Mirror of the solver's prefix-caching policy: cache whole
            // average-sized blocks, keeping one block of headroom as
            // recompute scratch.
            let per_block = (self.slice_bytes / self.blocks.max(1) as u64).max(1);
            let fit = self.cache_bytes.saturating_sub(per_block) / per_block;
            (per_block * fit.min(self.blocks as u64), per_block)
        };
        self.source_bytes as u64 + self.vector_bytes as u64 + cached + scratch
    }
}

/// What the planner decided for a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutcome {
    /// The budget admits an exact streaming solve.
    Exact(MemoryPlan),
    /// The budget cannot even hold the row source plus the iteration
    /// vectors — escalate to [`crate::bounded_steady_reward`].
    NeedsBounds {
        /// Minimum bytes an exact solve would need.
        required: usize,
        /// The caller's budget.
        budget: usize,
    },
}

fn plan(
    states: usize,
    arcs: u64,
    source_bytes: usize,
    vector_bytes: usize,
    blockable: bool,
    opts: &StreamOptions,
) -> PlanOutcome {
    let slice_bytes = arcs * ENTRY_BYTES + states as u64 * COLUMN_BYTES;
    let required = source_bytes + vector_bytes;
    let cache_bytes = match opts.mem_budget {
        None => u64::MAX,
        Some(b) => {
            if b < required {
                return PlanOutcome::NeedsBounds {
                    required,
                    budget: b,
                };
            }
            (b - required) as u64
        }
    };
    let blocks = if !blockable {
        1
    } else if let Some(b) = opts.blocks {
        b.min(states.max(1))
    } else if slice_bytes <= cache_bytes {
        1
    } else {
        // Target an average block slice of at most half the spare
        // bytes, so one block can always be recomputed into scratch
        // while another stays cached.
        let target = (cache_bytes / 2).max(1);
        usize::try_from(slice_bytes.div_ceil(target))
            .unwrap_or(MAX_AUTO_BLOCKS)
            .clamp(2, MAX_AUTO_BLOCKS.min(states.max(2)))
    };
    PlanOutcome::Exact(MemoryPlan {
        states,
        arcs,
        blocks,
        cached_blocks: 0,
        source_bytes,
        vector_bytes,
        slice_bytes,
        cache_bytes,
        budget: opts.mem_budget,
    })
}

/// Plans a steady-state solve: iteration vectors are `π` + exit rates
/// (+ one scratch vector for power iteration).
#[must_use]
pub fn plan_steady(
    states: usize,
    arcs: u64,
    source_bytes: usize,
    opts: &StreamOptions,
) -> PlanOutcome {
    let vectors = match opts.method {
        StreamMethod::Power => 3 * 8 * states,
        StreamMethod::Auto | StreamMethod::Sor => 2 * 8 * states,
    };
    plan(states, arcs, source_bytes, vectors, true, opts)
}

/// Plans a transient solve: the two-vector uniformization recurrence
/// plus the accumulator and exit rates (`4n` doubles); rows are always
/// streamed, never cached, so there is no block decision to make.
#[must_use]
pub fn plan_transient(
    states: usize,
    arcs: u64,
    source_bytes: usize,
    opts: &StreamOptions,
) -> PlanOutcome {
    plan(states, arcs, source_bytes, 4 * 8 * states, false, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_is_one_cached_block() {
        let opts = StreamOptions::default();
        match plan_steady(1000, 5000, 64_000, &opts) {
            PlanOutcome::Exact(p) => {
                assert_eq!(p.blocks, 1);
                assert_eq!(p.slice_bytes, 5000 * 12 + 1000 * 4);
                assert!(p.cache_bytes > p.slice_bytes);
            }
            PlanOutcome::NeedsBounds { .. } => panic!("unlimited budget must plan exact"),
        }
    }

    #[test]
    fn tight_budget_partitions_into_blocks() {
        let opts = StreamOptions {
            // source 0, vectors 2*8*1000 = 16k; slices 64k; budget
            // leaves 24k spare -> ~6 blocks.
            mem_budget: Some(40_000),
            ..Default::default()
        };
        match plan_steady(1000, 5000, 0, &opts) {
            PlanOutcome::Exact(p) => {
                assert!(p.blocks > 1, "blocks = {}", p.blocks);
                assert!(p.peak_bytes() <= 40_000, "peak = {}", p.peak_bytes());
            }
            PlanOutcome::NeedsBounds { .. } => panic!("budget admits the vectors"),
        }
    }

    #[test]
    fn hopeless_budget_escalates_to_bounds() {
        let opts = StreamOptions {
            mem_budget: Some(10_000),
            ..Default::default()
        };
        match plan_steady(1000, 5000, 0, &opts) {
            PlanOutcome::NeedsBounds { required, budget } => {
                assert_eq!(required, 16_000);
                assert_eq!(budget, 10_000);
            }
            PlanOutcome::Exact(_) => panic!("10k cannot hold 16k of vectors"),
        }
    }

    #[test]
    fn explicit_block_count_is_respected_and_clamped() {
        let opts = StreamOptions {
            blocks: Some(7),
            ..Default::default()
        };
        match plan_steady(1000, 5000, 0, &opts) {
            PlanOutcome::Exact(p) => assert_eq!(p.blocks, 7),
            PlanOutcome::NeedsBounds { .. } => panic!(),
        }
        let opts = StreamOptions {
            blocks: Some(50),
            ..Default::default()
        };
        match plan_steady(3, 2, 0, &opts) {
            PlanOutcome::Exact(p) => assert_eq!(p.blocks, 3),
            PlanOutcome::NeedsBounds { .. } => panic!(),
        }
    }

    #[test]
    fn options_validate() {
        assert!(StreamOptions::default().validate().is_ok());
        for bad in [
            StreamOptions {
                tolerance: 0.0,
                ..Default::default()
            },
            StreamOptions {
                max_iterations: 0,
                ..Default::default()
            },
            StreamOptions {
                relaxation: 2.0,
                ..Default::default()
            },
            StreamOptions {
                blocks: Some(0),
                ..Default::default()
            },
            StreamOptions {
                epsilon: 1.0,
                ..Default::default()
            },
            StreamOptions {
                steady_state_detection: Some(0.0),
                ..Default::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }
}
