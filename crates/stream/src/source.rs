//! Row sources: the on-demand generator-row contract and its two
//! implementations (SPN marking arena, materialized CSR).

use crate::columns::{pass_threads, scan_pass};
use reliab_core::Result;
use reliab_markov::Ctmc;
use reliab_obs as obs;
use reliab_spn::{RowBuffer, TangibleSpace};

/// On-demand access to the rows of a CTMC generator.
///
/// The contract every streaming solver relies on:
///
/// * States are numbered `0..num_states()`.
/// * [`RowSource::row`] writes the **off-diagonal** arcs of row `i` —
///   `(target, rate)` with `target != i`, every `rate` positive and
///   finite. Parallel arcs to the same target may stay separate; the
///   solvers sum them.
/// * Repeated calls for the same `i` must produce the **identical**
///   sequence (same order, same bit patterns) — the streaming tier's
///   recompute-instead-of-spill policy and its bitwise block-count
///   independence both rest on this.
/// * The exit rate of state `i` is the sum of its row, accumulated in
///   emission order (this is how the solvers recover the generator's
///   diagonal without storing it).
pub trait RowSource {
    /// Number of states of the chain.
    fn num_states(&self) -> usize;

    /// Writes the off-diagonal arcs of row `i` into `out` (the solver
    /// clears nothing — implementations must clear `out` first).
    ///
    /// # Errors
    ///
    /// Implementation-specific: rate evaluation or row regeneration
    /// failures.
    fn row(&mut self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<()>;

    /// Bytes resident in the source's own backing store, as counted by
    /// the memory planner (excludes transient per-row scratch).
    fn resident_bytes(&self) -> usize;

    /// An independent handle regenerating the same rows, for use on
    /// another thread. `None` (the default) keeps every row pass on the
    /// calling thread; results are identical either way.
    fn fork(&self) -> Option<Box<dyn RowSource + Send + '_>> {
        None
    }
}

/// Adapter over an already-materialized [`Ctmc`]: streams the CSR
/// generator's off-diagonal rows. Exists so every streaming solver can
/// be differential-tested against the exact in-core path on the same
/// chain.
#[derive(Debug)]
pub struct CsrRowSource<'a> {
    ctmc: &'a Ctmc,
}

impl<'a> CsrRowSource<'a> {
    /// Wraps a materialized chain.
    #[must_use]
    pub fn new(ctmc: &'a Ctmc) -> Self {
        CsrRowSource { ctmc }
    }
}

impl RowSource for CsrRowSource<'_> {
    fn num_states(&self) -> usize {
        self.ctmc.num_states()
    }

    fn row(&mut self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<()> {
        out.clear();
        let i = i as usize;
        for (j, v) in self.ctmc.generator().row(i) {
            if j != i {
                out.push((j as u32, v));
            }
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        // CSR generator (row_ptr + col_idx + values) plus the exit-rate
        // vector; state names are irrelevant to the solvers and not
        // counted.
        let g = self.ctmc.generator();
        (g.nrows() + 1) * 8 + g.nnz() * 16 + self.ctmc.exit_rates().len() * 8
    }

    fn fork(&self) -> Option<Box<dyn RowSource + Send + '_>> {
        Some(Box::new(CsrRowSource::new(self.ctmc)))
    }
}

/// Row regeneration straight from the packed SPN marking arena: fires
/// the enabled timed transitions of marking `i`, eliminates vanishing
/// successors on the fly, and resolves targets through the arena's
/// intern table — reproducing the materialized generator's per-row arc
/// stream bit for bit, without the arcs ever being stored.
#[derive(Debug)]
pub struct ArenaRowSource<'a, 'b> {
    space: &'a TangibleSpace<'b>,
    buf: RowBuffer,
}

impl<'a, 'b> ArenaRowSource<'a, 'b> {
    /// Wraps a tangible marking space (see
    /// [`reliab_spn::Spn::tangible_space`]).
    #[must_use]
    pub fn new(space: &'a TangibleSpace<'b>) -> Self {
        ArenaRowSource {
            space,
            buf: RowBuffer::new(),
        }
    }

    /// The underlying marking space.
    #[must_use]
    pub fn space(&self) -> &'a TangibleSpace<'b> {
        self.space
    }
}

impl RowSource for ArenaRowSource<'_, '_> {
    fn num_states(&self) -> usize {
        self.space.num_markings()
    }

    fn row(&mut self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<()> {
        // Lend the caller's vector to the regeneration buffer so the
        // arcs land in `out` without a copy.
        std::mem::swap(out, &mut self.buf.arcs);
        let result = self.space.successors(i, &mut self.buf);
        std::mem::swap(out, &mut self.buf.arcs);
        result
    }

    fn resident_bytes(&self) -> usize {
        self.space.resident_bytes()
    }

    fn fork(&self) -> Option<Box<dyn RowSource + Send + '_>> {
        Some(Box::new(ArenaRowSource::new(self.space)))
    }
}

/// Exit rates and uniformization constant recovered by one full pass
/// over a [`RowSource`] — the streaming stand-in for the materialized
/// builder's stored diagonal.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RateScan {
    /// Total outflow per state (`-q_ii`), accumulated in row emission
    /// order — bitwise identical to the materialized builder's
    /// `exit_rates()`.
    pub exit: Vec<f64>,
    /// Uniformization rate: `max(exit) * 1.02` plus a tiny floor, the
    /// same formula as the in-core uniformization path.
    pub q: f64,
    /// Off-diagonal arcs seen (parallel arcs counted separately).
    pub arcs: u64,
    /// Widest row encountered.
    pub max_row: usize,
}

/// Scans every row once, validating the [`RowSource`] contract and
/// computing [`RateScan`]. Large sources are scanned in parallel row
/// ranges; the result does not depend on the thread count.
///
/// # Errors
///
/// Returns [`Error::Model`](reliab_core::Error::Model) for an empty
/// source or a contract violation (self-loop, out-of-range target,
/// non-positive or non-finite rate), and propagates row-regeneration
/// failures.
pub fn scan_rates(src: &mut dyn RowSource) -> Result<RateScan> {
    let _span = obs::span("stream.scan");
    let threads = pass_threads(src.num_states());
    let (scan, _) = scan_pass(src, threads, 0..0, true)?;
    obs::event(
        "stream.scan.done",
        &[
            ("states", src.num_states().into()),
            ("arcs", scan.arcs.into()),
            ("max_row", scan.max_row.into()),
        ],
    );
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliab_markov::CtmcBuilder;

    fn cyclic(n: usize) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.state(&format!("s{i}"))).collect();
        for i in 0..n {
            b.transition(ids[i], ids[(i + 1) % n], 1.0 + i as f64)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn csr_source_streams_offdiagonal_rows() {
        let c = cyclic(4);
        let mut src = CsrRowSource::new(&c);
        assert_eq!(src.num_states(), 4);
        let mut row = Vec::new();
        src.row(2, &mut row).unwrap();
        assert_eq!(row, vec![(3, 3.0)]);
        assert!(src.resident_bytes() > 0);
    }

    #[test]
    fn scan_recovers_exit_rates_bitwise() {
        let c = cyclic(5);
        let mut src = CsrRowSource::new(&c);
        let scan = scan_rates(&mut src).unwrap();
        assert_eq!(scan.exit, c.exit_rates());
        assert_eq!(scan.arcs, 5);
        assert_eq!(scan.max_row, 1);
        let expected_q = c.exit_rates().iter().fold(0.0f64, |a, &b| a.max(b)) * 1.02 + 1e-300;
        assert_eq!(scan.q.to_bits(), expected_q.to_bits());
    }

    struct BadSource {
        arc: (u32, f64),
    }
    impl RowSource for BadSource {
        fn num_states(&self) -> usize {
            2
        }
        fn row(&mut self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<()> {
            out.clear();
            if i == 0 {
                out.push(self.arc);
            } else {
                out.push((0, 1.0));
            }
            Ok(())
        }
        fn resident_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn scan_rejects_contract_violations() {
        for arc in [(0u32, 1.0f64), (5, 1.0), (1, 0.0), (1, -2.0), (1, f64::NAN)] {
            let mut bad = BadSource { arc };
            assert!(scan_rates(&mut bad).is_err(), "arc {arc:?}");
        }
        let mut ok = BadSource { arc: (1, 2.5) };
        let scan = scan_rates(&mut ok).unwrap();
        assert_eq!(scan.exit, vec![2.5, 1.0]);
    }
}
