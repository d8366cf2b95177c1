//! The SPN marking-arena row source and the streaming tier's rate scan.

use reliab_core::Result;
use reliab_markov::kernel::{pass_threads, scan_pass, RateScan, RowSource};
use reliab_obs as obs;
use reliab_spn::{RowBuffer, TangibleSpace};

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

/// Scans every row once, validating the [`RowSource`] contract and
/// computing [`RateScan`], inside a `stream.scan` span. Large sources
/// are scanned in parallel row ranges; the result does not depend on
/// the thread count.
///
/// # Errors
///
/// See [`scan_pass`].
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
