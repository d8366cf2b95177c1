//! The two row passes and the column store they build.
//!
//! A sweep consumes the generator by **column**, but a [`RowSource`]
//! produces it by row. The transpose is built from two passes over the
//! rows, both split into contiguous row ranges across threads:
//!
//! 1. [`scan_pass`] validates every arc, sums the exit rates and counts
//!    each column's entries per thread;
//! 2. [`fill_pass`] prefix-sums those counts into per-thread write
//!    cursors and regenerates the rows again, writing each arc straight
//!    into its final slot of a [`Columns`] store.
//!
//! Thread `t` owns the rows below thread `t + 1`'s, and its cursor in
//! every column starts after all entries of the threads before it, so
//! each column lists its sources in row-scan order. The store is
//! therefore byte-identical at any thread count, and needs no sort and
//! no sort buffer: 12 bytes per arc plus 4 per column.
//!
//! A [`ColumnStore`] splits the columns into equal blocks and keeps a
//! leading run of them cached; the rest are rebuilt by the same two
//! passes whenever an iteration reaches them. A fully cached store is
//! the kernel's only materialized form of a generator.

use super::source::{uniformization_rate, RateScan, RowSource};
use reliab_core::{Error, Result};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Bytes per stored arc: a `u32` source state and an `f64` rate.
pub const ENTRY_BYTES: u64 = 12;
/// Bytes per stored column: its `u32` offset.
pub const COLUMN_BYTES: u64 = 4;

/// A row pass gives each thread at least this many rows; smaller
/// chains are scanned by the calling thread alone.
const MIN_ROWS_PER_THREAD: usize = 1 << 14;
/// Upper bound on pass threads: each holds one count per column.
const MAX_PASS_THREADS: usize = 8;

/// Threads the row passes use over `n` rows: the available
/// parallelism, capped so every thread gets a worthwhile share.
#[must_use]
pub fn pass_threads(n: usize) -> usize {
    let avail = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    avail
        .min(MAX_PASS_THREADS)
        .min(n / MIN_ROWS_PER_THREAD)
        .max(1)
}

/// The generator columns `first..first + ptr.len() - 1` in compressed
/// sparse column form. Column `j`'s entries are the arcs `i -> j`, in
/// the row-scan (then emission) order of the source.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    first: usize,
    ptr: Vec<u32>,
    src: Vec<u32>,
    rate: Vec<f64>,
}

impl Columns {
    /// Source states and rates of the arcs into column `j`.
    #[inline]
    pub(crate) fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let c = j - self.first;
        let (a, b) = (self.ptr[c] as usize, self.ptr[c + 1] as usize);
        (&self.src[a..b], &self.rate[a..b])
    }
}

/// Runs `work(source, rows, state)` once per entry of `states`, on
/// consecutive, equal row ranges covering `0..n`. With more than one
/// range and a source that forks, every range runs on its own thread;
/// otherwise the ranges run one after another on `src`. Results come
/// back in row order either way, and the first error in row order wins.
fn on_row_ranges<S, R, F>(src: &mut dyn RowSource, states: Vec<S>, work: F) -> Result<Vec<R>>
where
    S: Send,
    R: Send,
    F: Fn(&mut dyn RowSource, Range<usize>, S) -> Result<R> + Sync,
{
    let n = src.num_states();
    let parts = states.len();
    let range = |t: usize| n * t / parts..n * (t + 1) / parts;
    if parts > 1 {
        if let Some(forks) = (0..parts).map(|_| src.fork()).collect::<Option<Vec<_>>>() {
            let work = &work;
            let joined: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = forks
                    .into_iter()
                    .zip(states)
                    .enumerate()
                    .map(|(t, (mut fork, state))| {
                        s.spawn(move || work(&mut *fork, range(t), state))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            return joined
                .into_iter()
                .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect();
        }
    }
    states
        .into_iter()
        .enumerate()
        .map(|(t, state)| work(&mut *src, range(t), state))
        .collect()
}

/// One thread's share of [`scan_pass`].
struct ScanPart {
    exit: Vec<f64>,
    arcs: u64,
    max_row: usize,
    counts: Vec<u32>,
}

/// Pass 1: validates every row against the [`RowSource`] contract on
/// `threads` row ranges (see [`pass_threads`]), accumulates exit rates
/// in emission order, and counts, per thread, the entries of each
/// column in `cols`. Returns the scan (with an empty `exit` unless
/// `want_exit`) and the per-thread counts (indexed by `j - cols.start`)
/// that the fill pass consumes. The result does not depend on
/// `threads`.
///
/// # Errors
///
/// Returns [`Error::Model`] for an empty source or a contract violation
/// (self-loop, out-of-range target, non-positive or non-finite rate) —
/// the first one in row order — and propagates row-regeneration
/// failures.
pub fn scan_pass(
    src: &mut dyn RowSource,
    threads: usize,
    cols: Range<usize>,
    want_exit: bool,
) -> Result<(RateScan, Vec<Vec<u32>>)> {
    let n = src.num_states();
    if n == 0 {
        return Err(Error::model("row source has no states"));
    }
    let width = cols.len();
    let parts = on_row_ranges(src, vec![(); threads.max(1)], |src, rows, ()| {
        let mut part = ScanPart {
            exit: Vec::with_capacity(if want_exit { rows.len() } else { 0 }),
            arcs: 0,
            max_row: 0,
            counts: vec![0; width],
        };
        let mut row: Vec<(u32, f64)> = Vec::new();
        for i in rows {
            src.row(i as u32, &mut row)?;
            part.arcs += row.len() as u64;
            part.max_row = part.max_row.max(row.len());
            let mut exit = 0.0;
            for &(j, r) in &row {
                if j as usize >= n {
                    return Err(Error::model(format!(
                        "row {i} targets state {j}, but the source has only {n} states"
                    )));
                }
                if j as usize == i {
                    return Err(Error::model(format!(
                        "row {i} contains a self-loop; row sources must emit off-diagonal arcs only"
                    )));
                }
                if !(r > 0.0 && r.is_finite()) {
                    return Err(Error::model(format!(
                        "rate {r} on arc {i} -> {j} must be positive and finite"
                    )));
                }
                exit += r;
                if let Some(c) = (j as usize).checked_sub(cols.start).filter(|&c| c < width) {
                    part.counts[c] += 1;
                }
            }
            if want_exit {
                part.exit.push(exit);
            }
        }
        Ok(part)
    })?;
    let mut exit = Vec::with_capacity(if want_exit { n } else { 0 });
    let (mut arcs, mut max_row) = (0u64, 0usize);
    let mut counts = Vec::with_capacity(parts.len());
    for part in parts {
        exit.extend_from_slice(&part.exit);
        arcs += part.arcs;
        max_row = max_row.max(part.max_row);
        counts.push(part.counts);
    }
    let q = uniformization_rate(&exit);
    Ok((
        RateScan {
            exit,
            q,
            arcs,
            max_row,
        },
        counts,
    ))
}

/// Pass 2: builds the [`Columns`] store of `cols` from the per-thread
/// counts of a [`scan_pass`] over the same columns at the same thread
/// count.
///
/// # Errors
///
/// [`Error::InvalidParameter`] when the columns hold more than
/// `u32::MAX` arcs; [`Error::Model`] when the source regenerates a row
/// differently from pass 1; row-regeneration failures propagate.
pub(crate) fn fill_pass(
    src: &mut dyn RowSource,
    cols: Range<usize>,
    mut counts: Vec<Vec<u32>>,
) -> Result<Columns> {
    let width = cols.len();
    let counted: Vec<u64> = counts
        .iter()
        .map(|thread| thread.iter().map(|&k| u64::from(k)).sum())
        .collect();
    // Column offsets, then each thread's starting cursor per column:
    // after the column's entries from all lower row ranges.
    let mut ptr = Vec::with_capacity(width + 1);
    let mut total = 0u64;
    for c in 0..width {
        ptr.push(total as u32);
        for thread in &mut counts {
            let k = thread[c];
            thread[c] = total as u32;
            total += u64::from(k);
        }
        if total > u64::from(u32::MAX) {
            return Err(Error::invalid(format!(
                "the column store holds at most {} arcs; set a memory budget to split it",
                u32::MAX
            )));
        }
    }
    ptr.push(total as u32);
    let len = total as usize;
    let store_src: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
    let store_rate: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
    let written = on_row_ranges(src, counts, |src, rows, mut cursor| {
        let mut row: Vec<(u32, f64)> = Vec::new();
        let mut written = 0u64;
        for i in rows {
            src.row(i as u32, &mut row)?;
            for &(j, r) in &row {
                if let Some(c) = (j as usize).checked_sub(cols.start).filter(|&c| c < width) {
                    let at = cursor[c] as usize;
                    let slot = store_src.get(at).ok_or_else(nondeterministic)?;
                    slot.store(i as u32, Ordering::Relaxed);
                    store_rate[at].store(r.to_bits(), Ordering::Relaxed);
                    cursor[c] += 1;
                    written += 1;
                }
            }
        }
        Ok(written)
    })?;
    if written != counted {
        return Err(nondeterministic());
    }
    Ok(Columns {
        first: cols.start,
        ptr,
        src: store_src.into_iter().map(AtomicU32::into_inner).collect(),
        rate: store_rate
            .into_iter()
            .map(|bits| f64::from_bits(bits.into_inner()))
            .collect(),
    })
}

/// Pass 1 over every column, kept until the layout of the store is
/// decided: [`RowScan::run`] scans, [`RowScan::into_store`] fills.
#[derive(Debug)]
pub struct RowScan {
    /// Exit rates, uniformization rate and arc count of the source.
    pub rates: RateScan,
    counts: Vec<Vec<u32>>,
    threads: usize,
}

impl RowScan {
    /// Runs the validating scan pass over `src` on `threads` row ranges
    /// (see [`pass_threads`]), counting every column's entries.
    ///
    /// # Errors
    ///
    /// See [`scan_pass`].
    pub fn run(src: &mut dyn RowSource, threads: usize) -> Result<RowScan> {
        let threads = threads.max(1);
        let n = src.num_states();
        let (rates, counts) = scan_pass(src, threads, 0..n, true)?;
        Ok(RowScan {
            rates,
            counts,
            threads,
        })
    }

    /// Splits the columns into `blocks` equal blocks (the last may be
    /// short; the effective count is `n.div_ceil(n.div_ceil(blocks))`),
    /// fills the leading `cached_blocks` of them, and returns the scan's
    /// rates with the store.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the cached columns hold more
    /// than `u32::MAX` arcs; [`Error::Model`] when `src` regenerates a
    /// row differently from the scan (it must be the scanned source);
    /// row-regeneration failures propagate.
    pub fn into_store(
        self,
        src: &mut dyn RowSource,
        blocks: usize,
        cached_blocks: usize,
    ) -> Result<(RateScan, ColumnStore)> {
        let n = src.num_states();
        let bs = n.div_ceil(blocks.max(1)).max(1);
        let blocks = n.div_ceil(bs);
        let cached_blocks = cached_blocks.min(blocks);
        let cached_end = (cached_blocks * bs).min(n);
        let mut counts = self.counts;
        for thread in &mut counts {
            thread.truncate(cached_end);
            thread.shrink_to_fit();
        }
        let cached = fill_pass(src, 0..cached_end, counts)?;
        let store = ColumnStore {
            n,
            bs,
            blocks,
            cached_blocks,
            cached,
            threads: self.threads,
            arcs: self.rates.arcs,
        };
        Ok((self.rates, store))
    }
}

/// The generator's columns, split into equal blocks of which a leading
/// run stays cached; see the module documentation.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    n: usize,
    bs: usize,
    blocks: usize,
    cached_blocks: usize,
    cached: Columns,
    threads: usize,
    arcs: u64,
}

impl ColumnStore {
    /// Scans `src` and caches every column: the materialized form.
    ///
    /// # Errors
    ///
    /// See [`RowScan::run`] and [`RowScan::into_store`].
    pub fn cached(src: &mut dyn RowSource) -> Result<(RateScan, ColumnStore)> {
        let threads = pass_threads(src.num_states());
        RowScan::run(src, threads)?.into_store(src, 1, 1)
    }

    /// Number of states (columns).
    pub(crate) fn num_states(&self) -> usize {
        self.n
    }

    /// Column blocks the iterations walk.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// Off-diagonal arcs of the generator.
    pub(crate) fn arcs(&self) -> u64 {
        self.arcs
    }

    /// Sources of the arcs into column `j`, which must be cached.
    pub(crate) fn sources(&self, j: usize) -> &[u32] {
        self.cached.column(j).0
    }

    /// The columns of block `b`.
    pub(crate) fn range(&self, b: usize) -> Range<usize> {
        b * self.bs..((b + 1) * self.bs).min(self.n)
    }

    /// The store holding block `b`'s columns: the cache, or `scratch`
    /// rebuilt from `src` by the two row passes — byte-identical either
    /// way.
    pub(crate) fn block<'a>(
        &'a self,
        src: &mut dyn RowSource,
        b: usize,
        scratch: &'a mut Columns,
    ) -> Result<&'a Columns> {
        if b < self.cached_blocks {
            return Ok(&self.cached);
        }
        let cols = self.range(b);
        *scratch = Columns::default();
        // A rebuild runs every visit: spawn threads for it only where
        // the row count pays for them.
        let threads = self.threads.min(pass_threads(self.n));
        let (_, counts) = scan_pass(src, threads, cols.clone(), false)?;
        *scratch = fill_pass(src, cols, counts)?;
        Ok(scratch)
    }
}

fn nondeterministic() -> Error {
    Error::model("row source regenerated a row differently; rows must be deterministic")
}
