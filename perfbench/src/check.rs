//! Independent correctness checks: every answer the benchmark times is
//! compared with a route that does not go through the solver it timed.

use crate::gen::{SmpParams, TreeParams, UNITS_PER_SUBSYSTEM};
use reliab_numeric::{expm, DenseMatrix};
use reliab_spec::{ModelSpec, SolvedMeasures};

/// Relative tolerance of the closed-form comparisons.
pub const REL_TOL: f64 = 1e-9;
/// Relative tolerance of the interval-availability comparison: the
/// solver truncates its Poisson sum, the reference does not.
pub const INTERVAL_TOL: f64 = 1e-8;

fn rel_close(got: f64, want: f64, tol: f64) -> bool {
    (got - want).abs() <= tol * want.abs().max(f64::MIN_POSITIVE)
}

// ---------------------------------------------------------------------
// Fault trees
// ---------------------------------------------------------------------

/// Top-event probability of a generated tree in closed form: units are
/// independent, a subsystem fails when at least two of its units fail
/// (computed by a two-state recurrence, free of cancellation), and the
/// top event is the union of independent subsystem failures.
pub fn tree_probability(tree: &TreeParams) -> f64 {
    let unit_q: Vec<f64> = tree
        .units
        .iter()
        .map(|(pairs, singles)| {
            let survive: f64 = pairs.iter().map(|(a, b)| 1.0 - a * b).product::<f64>()
                * singles.iter().map(|s| 1.0 - s).product::<f64>();
            1.0 - survive
        })
        .collect();
    let log_survive: f64 = unit_q
        .chunks(UNITS_PER_SUBSYSTEM)
        .map(|chunk| {
            let fail = if chunk.len() >= 2 {
                // (none failed, exactly one failed, two or more failed)
                let (mut none, mut one, mut two) = (1.0, 0.0, 0.0);
                for &q in chunk {
                    two += one * q;
                    one = one * (1.0 - q) + none * q;
                    none *= 1.0 - q;
                }
                two
            } else {
                chunk[0]
            };
            (-fail).ln_1p()
        })
        .sum();
    -log_survive.exp_m1()
}

/// Number of minimal cut sets of a generated tree: a unit has seven
/// (five pairs, two singles), and a 2-of-n subsystem has one per pair
/// of units per pair of their cut sets.
pub fn tree_cut_sets(tree: &TreeParams) -> usize {
    tree.units
        .chunks(UNITS_PER_SUBSYSTEM)
        .map(|chunk| {
            let n = chunk.len();
            if n >= 2 {
                n * (n - 1) / 2 * 49
            } else {
                7
            }
        })
        .sum()
}

pub fn check_tree(tree: &TreeParams, m: &SolvedMeasures) -> Result<(), String> {
    let SolvedMeasures::FaultTree {
        top_event_probability,
        minimal_cut_sets,
        ..
    } = m
    else {
        return Err(format!("fault tree answered as {}", m.kind()));
    };
    let want = tree_probability(tree);
    if !rel_close(*top_event_probability, want, REL_TOL) {
        return Err(format!(
            "{}-unit tree: top-event probability {top_event_probability} != closed form {want}",
            tree.units.len()
        ));
    }
    let cuts = tree_cut_sets(tree);
    if minimal_cut_sets.len() != cuts {
        return Err(format!(
            "{}-unit tree: {} minimal cut sets != closed form {cuts}",
            tree.units.len(),
            minimal_cut_sets.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Semi-Markov processes
// ---------------------------------------------------------------------

/// `ln Γ(x)` by the Lanczos approximation (g = 7, n = 9), accurate to
/// about 1e-15 relative for the arguments used here.
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = G[0];
    let t = x + 7.5;
    for (i, g) in G.iter().enumerate().skip(1) {
        a += g / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Mean sojourn time per state of a generated SMP.
pub fn smp_means(p: &SmpParams) -> [f64; 4] {
    [
        p.robust_mean,
        p.weibull_scale * ln_gamma(1.0 + 1.0 / p.weibull_shape).exp(),
        p.rejuvenation,
        p.fail_mean,
    ]
}

/// Stationary vector of a small stochastic matrix by Gaussian
/// elimination on `v (P - I) = 0` with one equation replaced by
/// `Σ v = 1`.
fn embedded_stationary(n: usize, transitions: &[(usize, usize, f64)]) -> Vec<f64> {
    // Row i of `a` is equation i: Σ_j v_j (P_ji - δ_ji) = 0.
    let mut a = vec![vec![0.0; n + 1]; n];
    for &(from, to, p) in transitions {
        a[to][from] += p;
    }
    for (i, row) in a.iter_mut().enumerate() {
        row[i] -= 1.0;
    }
    a[n - 1] = vec![1.0; n + 1];
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
            .expect("non-empty column");
        a.swap(col, pivot);
        let pivot_row = a[col].clone();
        for (row, r) in a.iter_mut().enumerate() {
            if row != col {
                let f = r[col] / pivot_row[col];
                for (x, p) in r[col..].iter_mut().zip(&pivot_row[col..]) {
                    *x -= f * p;
                }
            }
        }
    }
    (0..n).map(|i| a[i][n] / a[i][i]).collect()
}

/// Steady state of a generated SMP by the embedded-chain formula
/// `π_i ∝ v_i · m_i`.
pub fn smp_steady_state(p: &SmpParams) -> Vec<f64> {
    let v = embedded_stationary(SmpParams::STATES.len(), &p.transitions());
    let m = smp_means(p);
    let w: Vec<f64> = v.iter().zip(m).map(|(v, m)| v * m).collect();
    let total: f64 = w.iter().sum();
    w.iter().map(|x| x / total).collect()
}

/// Interval availability `(horizon, value)` of a generated SMP at each
/// horizon, by a route that avoids uniformization: the library's phase
/// expansion, then a dense Padé matrix exponential of the Van Loan
/// generator `[[Q·t, u·t], [0, 0]]`, whose top-right column is
/// `∫₀ᵗ e^{Qs} u ds` (u the indicator of the up phases).
pub fn smp_interval_availability(
    p: &SmpParams,
    horizons: &[f64],
) -> Result<Vec<(f64, f64)>, String> {
    let spec = match ModelSpec::from_json_str(&p.doc(None)).map_err(|e| e.to_string())? {
        ModelSpec::SemiMarkov(spec) => spec,
        other => return Err(format!("SMP document parsed as {other:?}")),
    };
    let m = crate::layers::smp_model(&spec)?;
    let x = m.smp.expand_to_ctmc(m.initial).map_err(|e| e.to_string())?;
    let q = x.ctmc.generator_dense();
    let n = q.nrows();
    let p0 = x.entry_distribution(m.initial);
    let up: Vec<usize> =
        m.up.iter()
            .flat_map(|s| x.phases[s.index()].iter().map(|st| st.index()))
            .collect();
    horizons
        .iter()
        .map(|&t| {
            let mut b = DenseMatrix::zeros(n + 1, n + 1);
            for i in 0..n {
                for j in 0..n {
                    b.set(i, j, q.get(i, j) * t);
                }
            }
            for &i in &up {
                b.set(i, n, t);
            }
            let e = expm(&b).map_err(|e| e.to_string())?;
            let up_time: f64 = (0..n).map(|i| p0[i] * e.get(i, n)).sum();
            Ok((t, up_time / t))
        })
        .collect()
}

/// Checks an SMP answer: the steady state against the embedded-chain
/// formula, and the interval availability against `interval`, the
/// [`smp_interval_availability`] of the same horizons.
pub fn check_smp(p: &SmpParams, interval: &[(f64, f64)], m: &SolvedMeasures) -> Result<(), String> {
    let SolvedMeasures::SemiMarkov {
        steady_state,
        interval_availability,
        ..
    } = m
    else {
        return Err(format!("semi-Markov model answered as {}", m.kind()));
    };
    let want = smp_steady_state(p);
    if steady_state.len() != want.len() {
        return Err(format!(
            "{} steady-state entries, want {}",
            steady_state.len(),
            want.len()
        ));
    }
    for ((name, got), (want_name, want)) in
        steady_state.iter().zip(SmpParams::STATES.iter().zip(&want))
    {
        if name != want_name || !rel_close(*got, *want, REL_TOL) {
            return Err(format!(
                "SMP steady state {name} = {got}, embedded-chain formula gives {want_name} = {want}"
            ));
        }
    }
    let rows = interval_availability.as_deref().unwrap_or(&[]);
    if rows.len() != interval.len()
        || rows
            .iter()
            .zip(interval)
            .any(|(&(t, a), &(h, want))| t != h || !rel_close(a, want, INTERVAL_TOL))
    {
        return Err(format!(
            "SMP interval availability {rows:?} != matrix-exponential route {interval:?}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Golden measures
// ---------------------------------------------------------------------

/// Compares the measures of a solve with a golden measures document
/// (`tests/golden/*.json` shape: the `measures` object of one file
/// entry), numbers to a relative tolerance and everything else exactly.
pub fn check_against_golden(
    got: &reliab_spec::json::JsonValue,
    want: &reliab_spec::json::JsonValue,
) -> Result<(), String> {
    use reliab_spec::json::JsonValue as J;
    fn walk(got: &J, want: &J, path: &str) -> Result<(), String> {
        match (got, want) {
            (J::Number(g), J::Number(w)) => {
                if rel_close(*g, *w, REL_TOL) {
                    Ok(())
                } else {
                    Err(format!("{path}: {g} != golden {w}"))
                }
            }
            (J::Array(g), J::Array(w)) if g.len() == w.len() => g
                .iter()
                .zip(w)
                .enumerate()
                .try_for_each(|(i, (g, w))| walk(g, w, &format!("{path}[{i}]"))),
            (J::Object(g), J::Object(w)) if g.len() == w.len() => {
                g.iter().zip(w).try_for_each(|((gk, gv), (wk, wv))| {
                    if gk == wk {
                        walk(gv, wv, &format!("{path}.{gk}"))
                    } else {
                        Err(format!("{path}: key {gk} != golden {wk}"))
                    }
                })
            }
            (g, w) if g == w => Ok(()),
            (g, w) => Err(format!("{path}: {} != golden {}", g.to_json(), w.to_json())),
        }
    }
    walk(got, want, "measures")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{batch_variants, Variant};
    use reliab_spec::{solve_str_with, SolveOptions};

    #[test]
    fn ln_gamma_matches_known_values() {
        assert!(rel_close(
            ln_gamma(1.5).exp(),
            std::f64::consts::PI.sqrt() / 2.0,
            1e-14
        ));
        assert!(rel_close(ln_gamma(5.0).exp(), 24.0, 1e-14));
    }

    #[test]
    fn closed_forms_accept_the_solver_and_reject_a_perturbed_answer() {
        let variants = batch_variants(1);
        let tree = variants
            .iter()
            .find_map(|v| match v {
                Variant::Tree(t) if t.units.len() == 60 => Some(t.clone()),
                _ => None,
            })
            .expect("a 60-unit tree");
        let smp = variants
            .iter()
            .find_map(|v| match v {
                Variant::Smp(p) => Some(p.clone()),
                Variant::Tree(_) => None,
            })
            .expect("an SMP variant");

        let opts = SolveOptions::default();
        let mut m = solve_str_with(&tree.doc(), &opts).unwrap().measures;
        check_tree(&tree, &m).unwrap();
        if let SolvedMeasures::FaultTree {
            top_event_probability,
            ..
        } = &mut m
        {
            *top_event_probability *= 1.0 + 1e-7;
        }
        assert!(check_tree(&tree, &m).is_err());

        let horizons = [10.0, 1000.0];
        let want = smp_interval_availability(&smp, &horizons).unwrap();
        let doc = smp.doc(Some(&horizons));
        let m = solve_str_with(&doc, &opts).unwrap().measures;
        check_smp(&smp, &want, &m).unwrap();
        assert!(check_smp(&smp, &want[..1], &m).is_err());
        let mut wrong = m.clone();
        if let SolvedMeasures::SemiMarkov { steady_state, .. } = &mut wrong {
            steady_state[3].1 *= 1.0 + 1e-7;
        }
        assert!(check_smp(&smp, &want, &wrong).is_err());
        let mut wrong = m;
        if let SolvedMeasures::SemiMarkov {
            interval_availability: Some(rows),
            ..
        } = &mut wrong
        {
            rows[1].1 *= 1.0 - 1e-7;
        }
        assert!(check_smp(&smp, &want, &wrong).is_err());
    }

    #[test]
    fn golden_comparison_is_relative_and_structural() {
        let parse = |s: &str| reliab_spec::json::parse(s).unwrap();
        let want = parse(r#"{"kind":"spn","spn":{"num_markings":8,"x":[["a",1e-20]]}}"#);
        check_against_golden(
            &parse(r#"{"kind":"spn","spn":{"num_markings":8,"x":[["a",1.0000000000001e-20]]}}"#),
            &want,
        )
        .unwrap();
        assert!(check_against_golden(
            &parse(r#"{"kind":"spn","spn":{"num_markings":8,"x":[["a",1.1e-20]]}}"#),
            &want
        )
        .is_err());
        assert!(check_against_golden(
            &parse(r#"{"kind":"spn","spn":{"num_markings":9,"x":[["a",1e-20]]}}"#),
            &want
        )
        .is_err());
    }
}
