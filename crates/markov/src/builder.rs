//! CTMC construction with named states and boundary validation.

use crate::kernel::{ColumnStore, CsrRowSource};
use reliab_core::{ensure_finite_positive, Error, Result};
use reliab_numeric::{CsrMatrix, DenseMatrix};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Opaque handle to a CTMC state, returned by [`CtmcBuilder::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(usize);

impl StateId {
    /// The state's index into solution vectors (`π`, reward vectors).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Incremental builder for a [`Ctmc`].
///
/// States are created by name; transitions carry positive rates.
/// Declaring the same transition twice accumulates the rates (useful
/// when several physical events map to the same state pair).
#[derive(Debug, Default)]
pub struct CtmcBuilder {
    names: Vec<String>,
    index: HashMap<String, usize>,
    transitions: Vec<(usize, usize, f64)>,
}

impl CtmcBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CtmcBuilder::default()
    }

    /// Adds (or looks up) a state by name and returns its handle.
    pub fn state(&mut self, name: &str) -> StateId {
        if let Some(&i) = self.index.get(name) {
            return StateId(i);
        }
        let i = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), i);
        StateId(i)
    }

    /// Number of states declared so far.
    pub fn num_states(&self) -> usize {
        self.names.len()
    }

    /// Adds a transition with the given positive rate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if the rate is not finite
    /// and positive, or [`Error::Model`] for a self-loop (meaningless in
    /// a CTMC).
    pub fn transition(&mut self, from: StateId, to: StateId, rate: f64) -> Result<&mut Self> {
        ensure_finite_positive(rate, "transition rate")?;
        if from == to {
            return Err(Error::model(format!(
                "self-loop on state '{}' is not a CTMC transition",
                self.names[from.0]
            )));
        }
        if from.0 >= self.names.len() || to.0 >= self.names.len() {
            return Err(Error::model("state handle from another builder"));
        }
        self.transitions.push((from.0, to.0, rate));
        Ok(self)
    }

    /// Finalizes the chain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] if no states were declared.
    pub fn build(self) -> Result<Ctmc> {
        let n = self.names.len();
        if n == 0 {
            return Err(Error::model("CTMC has no states"));
        }
        let mut out_rate = vec![0.0f64; n];
        for &(f, _, r) in &self.transitions {
            out_rate[f] += r;
        }
        // Assemble the full generator (diagonal included) once.
        let mut trips = self.transitions.clone();
        for (i, &r) in out_rate.iter().enumerate() {
            if r > 0.0 {
                trips.push((i, i, -r));
            }
        }
        let generator = CsrMatrix::from_triplets(n, n, &trips).map_err(crate::num_err)?;
        Ok(Ctmc {
            names: self.names,
            transitions: self.transitions,
            out_rate,
            generator,
            columns: OnceLock::new(),
        })
    }
}

impl Ctmc {
    /// Builds a chain directly from a state-name list and `(from, to,
    /// rate)` triplets, bypassing the name-interning builder — the
    /// streaming path used by reachability-graph generators that
    /// already hold a canonical state numbering. Duplicate `(from,
    /// to)` pairs accumulate, exactly like repeated
    /// [`CtmcBuilder::transition`] calls.
    ///
    /// Names are taken as-is; callers are responsible for uniqueness
    /// (a duplicated name only affects [`Ctmc::find_state`], which
    /// returns the first match).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Model`] for an empty state list, a self-loop,
    /// or an out-of-range state index, and
    /// [`Error::InvalidParameter`] for a rate that is not finite and
    /// positive.
    pub fn from_parts(names: Vec<String>, transitions: Vec<(usize, usize, f64)>) -> Result<Ctmc> {
        let n = names.len();
        if n == 0 {
            return Err(Error::model("CTMC has no states"));
        }
        let mut out_rate = vec![0.0f64; n];
        for &(f, t, r) in &transitions {
            if f >= n || t >= n {
                return Err(Error::model(format!(
                    "transition ({f}, {t}) out of range for {n} states"
                )));
            }
            if f == t {
                return Err(Error::model(format!(
                    "self-loop on state '{}' is not a CTMC transition",
                    names[f]
                )));
            }
            ensure_finite_positive(r, "transition rate")?;
            out_rate[f] += r;
        }
        let mut trips = transitions.clone();
        for (i, &r) in out_rate.iter().enumerate() {
            if r > 0.0 {
                trips.push((i, i, -r));
            }
        }
        let generator = CsrMatrix::from_triplets(n, n, &trips).map_err(crate::num_err)?;
        Ok(Ctmc {
            names,
            transitions,
            out_rate,
            generator,
            columns: OnceLock::new(),
        })
    }

    /// Handles of all states in index order — the counterpart of
    /// collecting [`CtmcBuilder::state`] return values when the chain
    /// was built via [`Ctmc::from_parts`].
    pub fn state_ids(&self) -> Vec<StateId> {
        (0..self.num_states()).map(StateId).collect()
    }
}

/// A finite continuous-time Markov chain.
///
/// Construct with [`CtmcBuilder`]. Solution methods live in the
/// `steady`, `transient`, `absorbing`, and `rewards` modules and are
/// inherent methods of this type.
#[derive(Debug, Clone)]
pub struct Ctmc {
    pub(crate) names: Vec<String>,
    pub(crate) transitions: Vec<(usize, usize, f64)>,
    pub(crate) out_rate: Vec<f64>,
    /// Full generator (including diagonal) in CSR form.
    pub(crate) generator: CsrMatrix,
    /// The generator's columns for the iteration kernel, built on first
    /// use.
    pub(crate) columns: OnceLock<ColumnStore>,
}

impl Ctmc {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.names.len()
    }

    /// Name of a state.
    ///
    /// # Panics
    ///
    /// Panics if the handle is out of range (foreign handle).
    pub fn state_name(&self, s: StateId) -> &str {
        &self.names[s.0]
    }

    /// Looks a state up by name.
    pub fn find_state(&self, name: &str) -> Option<StateId> {
        self.names.iter().position(|n| n == name).map(StateId)
    }

    /// Number of transitions (as declared; parallel arcs counted
    /// separately).
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Total exit rate of each state.
    pub fn exit_rates(&self) -> &[f64] {
        &self.out_rate
    }

    /// The infinitesimal generator as a dense matrix (diagonal
    /// included). Intended for small chains and direct solvers.
    pub fn generator_dense(&self) -> DenseMatrix {
        self.generator.to_dense()
    }

    /// The generator in CSR form (diagonal included).
    pub fn generator(&self) -> &CsrMatrix {
        &self.generator
    }

    /// The fully cached column store of the generator, built by the
    /// kernel's two row passes on first use and kept with the chain.
    pub(crate) fn columns(&self) -> Result<&ColumnStore> {
        if let Some(store) = self.columns.get() {
            return Ok(store);
        }
        let (_, store) = ColumnStore::cached(&mut CsrRowSource::new(self))?;
        Ok(self.columns.get_or_init(|| store))
    }

    /// Whether every state can reach every other one: the structural
    /// condition for a unique stationary distribution with full support.
    /// Walks the generator's rows forward and its columns backward.
    pub fn is_irreducible(&self) -> bool {
        let Ok(store) = self.columns() else {
            return false;
        };
        let n = self.num_states();
        let covers = |next: &dyn Fn(usize) -> Vec<usize>| {
            let mut seen = vec![false; n];
            seen[0] = true;
            let (mut stack, mut count) = (vec![0], 1);
            while let Some(i) = stack.pop() {
                for j in next(i) {
                    if !std::mem::replace(&mut seen[j], true) {
                        count += 1;
                        stack.push(j);
                    }
                }
            }
            count == n
        };
        covers(&|i| self.generator.row(i).map(|(j, _)| j).collect())
            && covers(&|j| store.sources(j).iter().map(|&i| i as usize).collect())
    }

    /// A point-mass initial distribution on `s`.
    pub fn point_mass(&self, s: StateId) -> Vec<f64> {
        let mut p = vec![0.0; self.num_states()];
        p[s.0] = 1.0;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_are_interned_by_name() {
        let mut b = CtmcBuilder::new();
        let a = b.state("up");
        let a2 = b.state("up");
        let c = b.state("down");
        assert_eq!(a, a2);
        assert_ne!(a, c);
        assert_eq!(b.num_states(), 2);
    }

    #[test]
    fn transition_validation() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        assert!(b.transition(up, down, 0.0).is_err());
        assert!(b.transition(up, down, f64::NAN).is_err());
        assert!(b.transition(up, up, 1.0).is_err());
        assert!(b.transition(up, down, 1.0).is_ok());
    }

    #[test]
    fn parallel_arcs_accumulate() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(up, down, 2.0).unwrap();
        b.transition(down, up, 5.0).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.exit_rates()[0], 3.0);
        assert_eq!(c.generator().get(0, 1), 3.0);
        assert_eq!(c.generator().get(0, 0), -3.0);
    }

    #[test]
    fn irreducibility_is_structural() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1e308).unwrap();
        b.transition(down, up, 1e-308).unwrap();
        assert!(b.build().unwrap().is_irreducible());
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        assert!(!b.build().unwrap().is_irreducible());
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(CtmcBuilder::new().build().is_err());
    }

    #[test]
    fn lookup_and_names() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let c = {
            let down = b.state("down");
            b.transition(up, down, 1.0).unwrap();
            b.transition(down, up, 1.0).unwrap();
            b.build().unwrap()
        };
        assert_eq!(c.state_name(up), "up");
        assert_eq!(c.find_state("down").unwrap().index(), 1);
        assert!(c.find_state("nope").is_none());
    }

    #[test]
    fn distribution_validation() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up");
        let down = b.state("down");
        b.transition(up, down, 1.0).unwrap();
        b.transition(down, up, 1.0).unwrap();
        let c = b.build().unwrap();
        let check = |p: &[f64]| crate::kernel::check_distribution(p, c.num_states());
        assert!(check(&[1.0, 0.0]).is_ok());
        assert!(check(&[0.5]).is_err());
        assert!(check(&[0.7, 0.7]).is_err());
        assert!(check(&[-0.1, 1.1]).is_err());
        assert_eq!(c.point_mass(down), vec![0.0, 1.0]);
    }
}
