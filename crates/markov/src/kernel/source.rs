//! Row sources: the on-demand generator-row contract, its CSR
//! implementation, and the exit-rate scan every iteration starts from.

use crate::Ctmc;
use reliab_core::Result;
use reliab_numeric::CsrMatrix;

/// On-demand access to the rows of a CTMC generator.
///
/// The contract every kernel iteration relies on:
///
/// * States are numbered `0..num_states()`.
/// * [`RowSource::row`] writes the **off-diagonal** arcs of row `i` —
///   `(target, rate)` with `target != i`, every `rate` positive and
///   finite. Parallel arcs to the same target may stay separate; the
///   solvers sum them.
/// * Repeated calls for the same `i` must produce the **identical**
///   sequence (same order, same bit patterns) — the column store's
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

/// Streams the off-diagonal, nonzero entries of a materialized CSR
/// matrix row by row — a [`Ctmc`]'s generator, or a DTMC's transition
/// matrix read as the generator `P - I`. This is how in-core chains
/// feed the kernel, and what lets every streamed solve be
/// differential-tested against the exact in-core path on the same chain.
#[derive(Debug, Clone, Copy)]
pub struct CsrRowSource<'a> {
    matrix: &'a CsrMatrix,
}

impl<'a> CsrRowSource<'a> {
    /// Wraps a materialized chain's generator.
    #[must_use]
    pub fn new(ctmc: &'a Ctmc) -> Self {
        CsrRowSource::over(ctmc.generator())
    }

    /// Wraps any square CSR matrix; its diagonal is ignored.
    #[must_use]
    pub fn over(matrix: &'a CsrMatrix) -> Self {
        CsrRowSource { matrix }
    }
}

impl RowSource for CsrRowSource<'_> {
    fn num_states(&self) -> usize {
        self.matrix.nrows()
    }

    fn row(&mut self, i: u32, out: &mut Vec<(u32, f64)>) -> Result<()> {
        out.clear();
        let i = i as usize;
        out.extend(
            self.matrix
                .row(i)
                .filter(|&(j, v)| j != i && v != 0.0)
                .map(|(j, v)| (j as u32, v)),
        );
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        // CSR arrays (row_ptr + col_idx + values) plus one exit rate
        // per state.
        let m = self.matrix;
        (m.nrows() + 1) * 8 + m.nnz() * 16 + m.nrows() * 8
    }

    fn fork(&self) -> Option<Box<dyn RowSource + Send + '_>> {
        Some(Box::new(*self))
    }
}

/// Exit rates and uniformization constant recovered by one full pass
/// over a [`RowSource`] ([`scan_pass`](super::scan_pass)) — the
/// streaming stand-in for the materialized builder's stored diagonal.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct RateScan {
    /// Total outflow per state (`-q_ii`), accumulated in row emission
    /// order — bitwise identical to the materialized builder's
    /// `exit_rates()` when the source emits the builder's arc stream.
    pub exit: Vec<f64>,
    /// [`uniformization_rate`] of `exit`.
    pub q: f64,
    /// Off-diagonal arcs seen (parallel arcs counted separately).
    pub arcs: u64,
    /// Widest row encountered.
    pub max_row: usize,
}

/// The uniformization rate for exit rates `exit`: 2% slack keeps the
/// uniformized DTMC aperiodic, the floor avoids dividing by zero on a
/// chain without transitions.
#[must_use]
pub fn uniformization_rate(exit: &[f64]) -> f64 {
    exit.iter().fold(0.0f64, |m, &r| m.max(r)) * 1.02 + 1e-300
}

#[cfg(test)]
mod tests {
    use super::super::scan_pass;
    use super::*;
    use crate::CtmcBuilder;

    fn scan(src: &mut dyn RowSource) -> Result<RateScan> {
        Ok(scan_pass(src, 1, 0..0, true)?.0)
    }

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
    fn csr_source_drops_the_diagonal_and_explicit_zeros() {
        let p = CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 0, 0.0)]).unwrap();
        let mut src = CsrRowSource::over(&p);
        let mut row = Vec::new();
        src.row(0, &mut row).unwrap();
        assert_eq!(row, vec![(1, 0.5)]);
        src.row(1, &mut row).unwrap();
        assert!(row.is_empty());
    }

    #[test]
    fn scan_recovers_exit_rates_bitwise() {
        let c = cyclic(5);
        let mut src = CsrRowSource::new(&c);
        let scan = scan(&mut src).unwrap();
        assert_eq!(scan.exit, c.exit_rates());
        assert_eq!(scan.arcs, 5);
        assert_eq!(scan.max_row, 1);
        assert_eq!(scan.q, 5.0 * 1.02 + 1e-300);
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
            assert!(scan(&mut bad).is_err(), "arc {arc:?}");
        }
        let mut ok = BadSource { arc: (1, 2.5) };
        assert_eq!(scan(&mut ok).unwrap().exit, vec![2.5, 1.0]);
    }
}
