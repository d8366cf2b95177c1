//! Transient solution by uniformization (Jensen's method) over a
//! [`ColumnStore`].
//!
//! With `q` above every exit rate, `P = I + Q/q` is a DTMC and
//! `π(t) = Σ_k pois_k(qt) · π(0) Pᵏ`. The recurrence `v ← v P` reads the
//! store column by column: `(vP)_j` sums `v_i P_ij` over column `j`'s
//! sources in row-scan order, with the diagonal term `v_j (1 - exit_j/q)`
//! taken at its own place `i = j`. That is exactly the order in which a
//! row-by-row scatter (`y[j] += x_i P_ij` for `i = 0, 1, …`) accumulates
//! the same sum, so the pull form loses no bit against it, and no
//! matrix `P` is ever built.

use super::columns::{ColumnStore, Columns};
use super::source::{uniformization_rate, RowSource};
use crate::{num_err, TransientOptions, TransientReport};
use reliab_core::{Error, Result};
use reliab_numeric::poisson_weights;

/// One uniformized step `next = v · P`, `P = I + Q/q`, block by block.
pub(crate) fn step(
    store: &ColumnStore,
    src: &mut dyn RowSource,
    scratch: &mut Columns,
    exit: &[f64],
    q: f64,
    v: &[f64],
    next: &mut [f64],
) -> Result<()> {
    for b in 0..store.blocks() {
        let range = store.range(b);
        let cols = store.block(src, b, scratch)?;
        for j in range {
            let (from, rates) = cols.column(j);
            let split = from.partition_point(|&i| (i as usize) < j);
            let mut acc = 0.0;
            for (&i, &r) in from[..split].iter().zip(&rates[..split]) {
                acc += v[i as usize] * (r / q);
            }
            acc += v[j] * (1.0 - exit[j] / q);
            for (&i, &r) in from[split..].iter().zip(&rates[split..]) {
                acc += v[i as usize] * (r / q);
            }
            next[j] = acc;
        }
    }
    Ok(())
}

/// Checks that `p` is a probability vector over `n` states.
///
/// # Errors
///
/// [`Error::InvalidParameter`] for a wrong length, a negative or
/// non-finite entry, or a sum off 1 by more than `1e-9`.
pub fn check_distribution(p: &[f64], n: usize) -> Result<()> {
    if p.len() != n {
        return Err(Error::invalid(format!(
            "distribution length {} != number of states {n}",
            p.len()
        )));
    }
    if let Some((i, v)) = p
        .iter()
        .enumerate()
        .find(|(_, v)| !(v.is_finite() && **v >= 0.0))
    {
        return Err(Error::invalid(format!("p[{i}] = {v} must be >= 0")));
    }
    let total: f64 = p.iter().sum();
    if (total - 1.0).abs() > 1e-9 {
        return Err(Error::invalid(format!(
            "distribution sums to {total}, expected 1"
        )));
    }
    Ok(())
}

/// State-probability vector at time `t` from the distribution `initial`
/// over the chain with exit rates `exit`, uniformized at
/// [`uniformization_rate`]`(exit)`. `store` is called only once the
/// inputs are valid and `t > 0`. Steady-state detection, when enabled, stops the recurrence once
/// successive iterates differ by less than the threshold in `∞`-norm
/// and gives the remaining Poisson mass to the converged iterate. The
/// result is clamped at 0 and renormalized.
///
/// # Errors
///
/// [`Error::InvalidParameter`] for a bad distribution, options or `t`;
/// Poisson-weight and row-source errors propagate.
pub fn transient<'s>(
    store: impl FnOnce() -> Result<&'s ColumnStore>,
    src: &mut dyn RowSource,
    exit: &[f64],
    initial: &[f64],
    t: f64,
    opts: &TransientOptions,
) -> Result<TransientReport> {
    opts.validate()?;
    let mut report = poisson_sum(store, src, exit, initial, t, opts, false)?;
    if report.poisson_terms > 0 {
        // Clean round-off: clamp and renormalize.
        let out = &mut report.distribution;
        out.iter_mut().for_each(|o| *o = o.max(0.0));
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            out.iter_mut().for_each(|o| *o /= total);
        }
    }
    Ok(report)
}

/// Expected total time spent in each state over `[0, t]` from the
/// distribution `initial`, with Poisson truncation error `epsilon`.
///
/// # Errors
///
/// See [`transient`].
pub fn accumulated<'s>(
    store: impl FnOnce() -> Result<&'s ColumnStore>,
    src: &mut dyn RowSource,
    exit: &[f64],
    initial: &[f64],
    t: f64,
    epsilon: f64,
) -> Result<Vec<f64>> {
    let opts = TransientOptions {
        epsilon,
        steady_state_detection: None,
    };
    Ok(poisson_sum(store, src, exit, initial, t, &opts, true)?.distribution)
}

/// Runs the recurrence from `initial` over the Poisson window of `qt`,
/// summing `Σ w_k v_k` (the distribution at `t`), or with `integral`
/// `Σ (1 - Σ_{j≤k} w_j)/q · v_k` (the time spent in each state over
/// `[0, t]`, by `∫₀ᵗ pois_k(qu) du = (1/q)(1 - Σ_{j≤k} pois_j(qt))`).
fn poisson_sum<'s>(
    store: impl FnOnce() -> Result<&'s ColumnStore>,
    src: &mut dyn RowSource,
    exit: &[f64],
    initial: &[f64],
    t: f64,
    opts: &TransientOptions,
    integral: bool,
) -> Result<TransientReport> {
    check_distribution(initial, exit.len())?;
    if !(t.is_finite() && t >= 0.0) {
        return Err(Error::invalid(format!(
            "time must be finite and >= 0, got {t}"
        )));
    }
    let unmoved = |distribution| TransientReport {
        distribution,
        matvecs: 0,
        poisson_terms: 0,
        converged_at: None,
    };
    if t == 0.0 {
        return Ok(unmoved(if integral {
            vec![0.0; initial.len()]
        } else {
            initial.to_vec()
        }));
    }
    let q = uniformization_rate(exit);
    if q <= 1e-299 {
        // No transitions at all: the distribution never moves.
        return Ok(unmoved(if integral {
            initial.iter().map(|&p| p * t).collect()
        } else {
            initial.to_vec()
        }));
    }
    let w = poisson_weights(q * t, opts.epsilon).map_err(num_err)?;
    let store = store()?;
    let n = initial.len();
    let mut v = initial.to_vec();
    let mut next = vec![0.0f64; n];
    let mut out = vec![0.0f64; n];
    let mut scratch = Columns::default();
    let mut matvecs = 0usize;
    // Advances `v` one step; true when detection says it has converged.
    let mut advance = |v: &mut Vec<f64>, next: &mut Vec<f64>| -> Result<bool> {
        step(store, src, &mut scratch, exit, q, v, next)?;
        matvecs += 1;
        let still = opts
            .steady_state_detection
            .is_some_and(|thresh| max_abs_diff(v, next) < thresh);
        std::mem::swap(v, next);
        Ok(still)
    };

    // Terms below the left truncation point carry no point weight;
    // their integral coefficient is 1/q.
    let mut converged_at = None;
    for _ in 0..w.left {
        if integral {
            for (o, &x) in out.iter_mut().zip(&v) {
                *o += x / q;
            }
        }
        if advance(&mut v, &mut next)? {
            converged_at = Some(0);
            break;
        }
    }
    if converged_at.is_none() {
        let mut cum = 0.0;
        for (idx, &wk) in w.weights.iter().enumerate() {
            let coeff = if integral {
                cum += wk;
                (1.0 - cum).max(0.0) / q
            } else {
                wk
            };
            for (o, &x) in out.iter_mut().zip(&v) {
                *o += coeff * x;
            }
            if idx + 1 < w.weights.len() && advance(&mut v, &mut next)? {
                converged_at = Some(idx + 1);
                break;
            }
        }
    }
    if let Some(start) = converged_at {
        // The iterate has converged: the remaining Poisson mass all
        // multiplies (approximately) the same vector.
        let remaining = 1.0 - w.weights[..start].iter().sum::<f64>();
        for (o, &x) in out.iter_mut().zip(&v) {
            *o += remaining * x;
        }
    }
    Ok(TransientReport {
        distribution: out,
        matvecs,
        poisson_terms: w.weights.len(),
        converged_at,
    })
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
