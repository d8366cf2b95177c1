//! Specification → model conversion and solving.

use crate::json::{self, JsonValue};
use crate::report::{SolveOptions, SolveReport, SolveStats, SteadySolver, VarOrder};
use crate::schema::*;
use reliab_core::fxhash::FxHashMap;
use reliab_core::{downtime_minutes_per_year, Error, Result};
use reliab_dist::{
    Deterministic, Exponential, Gamma, Lifetime, LogNormal, Pareto, Uniform, Weibull,
};
use reliab_ftree::{CompileOptions, FaultTreeBuilder, FtNode, VariableOrdering};
use reliab_markov::{CtmcBuilder, IterativeOptions, StateId, SteadyStateMethod, TransientOptions};
use reliab_obs as obs;
use reliab_rbd::{Block, RbdBuilder};
use reliab_sim::{Measure as SimRunMeasure, SimOptions, SystemSimulator};
use std::time::Instant;

/// Importance measures of one component/event, serialization-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportanceRow {
    /// Component or basic-event name.
    pub name: String,
    /// Birnbaum importance.
    pub birnbaum: f64,
    /// Criticality importance.
    pub criticality: f64,
    /// Fussell–Vesely importance.
    pub fussell_vesely: f64,
}

impl ImportanceRow {
    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("name", self.name.as_str().into()),
            ("birnbaum", self.birnbaum.into()),
            ("criticality", self.criticality.into()),
            ("fussell_vesely", self.fussell_vesely.into()),
        ])
    }
}

/// Transient state probabilities at one time point.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientRow {
    /// The time point.
    pub time: f64,
    /// `(state, probability)` pairs in declaration order.
    pub probabilities: Vec<(String, f64)>,
}

impl TransientRow {
    fn to_json(&self) -> JsonValue {
        json::object(vec![
            ("time", self.time.into()),
            ("probabilities", named_pairs(&self.probabilities)),
        ])
    }
}

/// `(name, value)` pairs serialize as two-element arrays, matching the
/// historical output format.
fn named_pairs(pairs: &[(String, f64)]) -> JsonValue {
    JsonValue::Array(
        pairs
            .iter()
            .map(|(name, p)| JsonValue::Array(vec![name.as_str().into(), (*p).into()]))
            .collect(),
    )
}

fn name_lists(lists: &[Vec<String>]) -> JsonValue {
    JsonValue::Array(lists.iter().map(|l| json::string_array(l)).collect())
}

fn importance_json(rows: &Option<Vec<ImportanceRow>>) -> JsonValue {
    match rows {
        Some(rows) => JsonValue::Array(rows.iter().map(ImportanceRow::to_json).collect()),
        None => JsonValue::Null,
    }
}

/// Everything a specification solve produces, ready for JSON output.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolvedMeasures {
    /// RBD results.
    Rbd {
        /// System availability.
        availability: f64,
        /// Downtime in minutes/year implied by the availability.
        downtime_minutes_per_year: f64,
        /// Per-component importance (absent when the system is perfect
        /// at the given inputs).
        importance: Option<Vec<ImportanceRow>>,
    },
    /// Fault-tree results.
    FaultTree {
        /// Exact top-event probability.
        top_event_probability: f64,
        /// Minimal cut sets (event-name lists, ascending order/size).
        minimal_cut_sets: Vec<Vec<String>>,
        /// Per-event importance (absent when the top event is
        /// impossible at the given inputs).
        importance: Option<Vec<ImportanceRow>>,
    },
    /// Reliability-graph results.
    RelGraph {
        /// s-t (two-terminal) reliability.
        reliability: f64,
        /// All-terminal reliability, when requested and defined.
        all_terminal_reliability: Option<f64>,
        /// Minimal s-t path sets (edge-name lists).
        minimal_path_sets: Vec<Vec<String>>,
        /// Minimal s-t cut sets (edge-name lists).
        minimal_cut_sets: Vec<Vec<String>>,
    },
    /// Stochastic Petri net results.
    Spn {
        /// Number of tangible markings (CTMC states) generated.
        num_markings: usize,
        /// Steady-state expected token counts for the requested places.
        expected_tokens: Vec<(String, f64)>,
        /// Steady-state throughput of the requested timed transitions.
        throughput: Vec<(String, f64)>,
    },
    /// Discrete-event simulation results (RBD or fault-tree models
    /// with a `sim` block, or any component model solved with
    /// `--method sim`).
    Sim {
        /// The estimated measure: `"availability"`, `"reliability"`,
        /// or `"mttf"`.
        measure: String,
        /// Point estimate.
        point: f64,
        /// Lower bound of the confidence interval.
        ci_lower: f64,
        /// Upper bound of the confidence interval.
        ci_upper: f64,
        /// Confidence level of the interval (e.g. `0.99`).
        confidence: f64,
        /// Final relative CI half-width (half-width / |point|).
        rel_half_width: f64,
        /// Replications actually run.
        replications: usize,
        /// Total simulated events across all replications.
        events: u64,
        /// Whether the stopping rule met its precision target before
        /// the replication cap.
        converged: bool,
        /// Downtime in minutes/year implied by the point estimate,
        /// when the measure is availability.
        downtime_minutes_per_year: Option<f64>,
    },
    /// CTMC results.
    Ctmc {
        /// Stationary distribution `(state, probability)` — absent for
        /// chains with absorbing structure where no stationary
        /// distribution exists.
        steady_state: Option<Vec<(String, f64)>>,
        /// Steady-state availability over `up_states` (if given).
        availability: Option<f64>,
        /// Downtime in minutes/year (when availability was computed).
        downtime_minutes_per_year: Option<f64>,
        /// MTTF into the `absorbing` set (if given).
        mttf: Option<f64>,
        /// Transient distributions at the requested times.
        transient: Option<Vec<TransientRow>>,
    },
    /// Hierarchical-composition results.
    Hierarchy {
        /// Converged submodel exports `(name, value)` in declaration
        /// order.
        submodels: Vec<(String, f64)>,
        /// The output submodel's name.
        output: String,
        /// The output submodel's export at the fixed point — the
        /// hierarchy's headline value.
        value: f64,
        /// Fixed-point sweeps performed.
        iterations: usize,
        /// Largest absolute export change in the final sweep.
        residual: f64,
    },
    /// Semi-Markov-process results.
    SemiMarkov {
        /// Long-run time fraction per state, in declaration order.
        steady_state: Vec<(String, f64)>,
        /// Steady availability over `up_states` (if given).
        availability: Option<f64>,
        /// Downtime in minutes/year (when availability was computed).
        downtime_minutes_per_year: Option<f64>,
        /// Mean first-passage time from `initial` into `targets` (if
        /// given).
        mean_first_passage: Option<f64>,
        /// Interval availability `(t, (1/t)∫₀ᵗ A(u) du)` rows at the
        /// requested times, via the phase-type expansion.
        interval_availability: Option<Vec<(f64, f64)>>,
    },
    /// Parametric-uncertainty results.
    Uncertainty {
        /// The propagated measure (a [`ScenarioMeasure`] spelling).
        measure: String,
        /// Sample mean of the output measure.
        mean: f64,
        /// Sample standard deviation.
        std_dev: f64,
        /// Lower percentile bound.
        ci_lower: f64,
        /// Upper percentile bound.
        ci_upper: f64,
        /// Confidence level of the percentile interval.
        level: f64,
        /// Monte-Carlo samples drawn.
        samples: usize,
    },
    /// Cut/path-set bounds results (on system unreliability).
    Bounds {
        /// Exact failure probability (SDP over the cut sets, or the
        /// fault tree's BDD probability).
        exact: Option<f64>,
        /// Esary–Proschan lower bound (needs path sets).
        ep_lower: Option<f64>,
        /// Esary–Proschan upper bound.
        ep_upper: Option<f64>,
        /// Truncated-enumeration lower bound (cut sets up to the
        /// truncation order only).
        truncated_lower: f64,
        /// Truncated-enumeration upper bound (worst case for the
        /// unenumerated tail).
        truncated_upper: f64,
        /// The truncation order the bounds were computed at.
        truncation_order: usize,
        /// Cut sets used.
        num_cut_sets: usize,
        /// Path sets used (0 when none were given or derivable).
        num_path_sets: usize,
    },
}

impl SolvedMeasures {
    /// The model class this result came from — the same string as the
    /// spec document's top-level key (plus `"sim"` for simulation
    /// results). This is the stable discriminant consumers should
    /// dispatch on instead of matching the `#[non_exhaustive]` enum;
    /// it is also emitted as the `"kind"` field of the JSON output.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SolvedMeasures::Rbd { .. } => "rbd",
            SolvedMeasures::FaultTree { .. } => "fault_tree",
            SolvedMeasures::RelGraph { .. } => "rel_graph",
            SolvedMeasures::Spn { .. } => "spn",
            SolvedMeasures::Sim { .. } => "sim",
            SolvedMeasures::Ctmc { .. } => "ctmc",
            SolvedMeasures::Hierarchy { .. } => "hierarchy",
            SolvedMeasures::SemiMarkov { .. } => "semi_markov",
            SolvedMeasures::Uncertainty { .. } => "uncertainty",
            SolvedMeasures::Bounds { .. } => "bounds",
        }
    }

    /// The model class's headline scalar, if it has one: availability
    /// for RBD/CTMC/semi-Markov models, the top-event probability for
    /// fault trees, s-t reliability for graphs, the point estimate for
    /// simulations, the fixed-point output for hierarchies, the sample
    /// mean for uncertainty wrappers, and the exact (or truncated
    /// midpoint) probability for bounds.
    #[must_use]
    pub fn primary_value(&self) -> Option<f64> {
        match self {
            SolvedMeasures::Rbd { availability, .. } => Some(*availability),
            SolvedMeasures::FaultTree {
                top_event_probability,
                ..
            } => Some(*top_event_probability),
            SolvedMeasures::RelGraph { reliability, .. } => Some(*reliability),
            SolvedMeasures::Spn {
                expected_tokens,
                throughput,
                ..
            } => expected_tokens
                .first()
                .or_else(|| throughput.first())
                .map(|(_, x)| *x),
            SolvedMeasures::Sim { point, .. } => Some(*point),
            SolvedMeasures::Ctmc {
                availability, mttf, ..
            } => availability.or(*mttf),
            SolvedMeasures::Hierarchy { value, .. } => Some(*value),
            SolvedMeasures::SemiMarkov {
                availability,
                mean_first_passage,
                ..
            } => availability.or(*mean_first_passage),
            SolvedMeasures::Uncertainty { mean, .. } => Some(*mean),
            SolvedMeasures::Bounds {
                exact,
                truncated_lower,
                truncated_upper,
                ..
            } => Some(exact.unwrap_or((truncated_lower + truncated_upper) / 2.0)),
        }
    }

    /// The system availability this result carries, if any: the RBD
    /// availability, or the CTMC/semi-Markov steady-state availability
    /// over `up_states`.
    #[must_use]
    pub fn availability(&self) -> Option<f64> {
        match self {
            SolvedMeasures::Rbd { availability, .. } => Some(*availability),
            SolvedMeasures::Ctmc { availability, .. }
            | SolvedMeasures::SemiMarkov { availability, .. } => *availability,
            SolvedMeasures::Sim { measure, point, .. } if measure == "availability" => Some(*point),
            SolvedMeasures::Uncertainty { measure, mean, .. } if measure == "availability" => {
                Some(*mean)
            }
            _ => None,
        }
    }

    /// The failure probability this result carries, if any: the
    /// fault-tree top-event probability, one minus the graph's s-t
    /// reliability, or the bounds' exact/midpoint unreliability.
    #[must_use]
    pub fn unreliability(&self) -> Option<f64> {
        match self {
            SolvedMeasures::FaultTree {
                top_event_probability,
                ..
            } => Some(*top_event_probability),
            SolvedMeasures::RelGraph { reliability, .. } => Some(1.0 - reliability),
            SolvedMeasures::Sim { measure, point, .. } if measure == "reliability" => {
                Some(1.0 - point)
            }
            SolvedMeasures::Uncertainty { measure, mean, .. } if measure == "unreliability" => {
                Some(*mean)
            }
            SolvedMeasures::Bounds { .. } => self.primary_value(),
            _ => None,
        }
    }

    /// The mean time to failure this result carries (CTMC models with
    /// an `absorbing` set, semi-Markov models with `targets`), if any.
    #[must_use]
    pub fn mttf(&self) -> Option<f64> {
        match self {
            SolvedMeasures::Ctmc { mttf, .. } => *mttf,
            SolvedMeasures::SemiMarkov {
                mean_first_passage, ..
            } => *mean_first_passage,
            SolvedMeasures::Sim { measure, point, .. } if measure == "mttf" => Some(*point),
            SolvedMeasures::Uncertainty { measure, mean, .. } if measure == "mttf" => Some(*mean),
            _ => None,
        }
    }

    /// Serializes to the externally tagged JSON format the CLI emits,
    /// with a leading `"kind"` discriminant:
    /// `{"kind": "rbd", "rbd": {...}}`, `{"kind": "ctmc", "ctmc":
    /// {...}}`, ...
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let opt_num = |x: &Option<f64>| x.map_or(JsonValue::Null, JsonValue::Number);
        let body = match self {
            SolvedMeasures::Rbd {
                availability,
                downtime_minutes_per_year,
                importance,
            } => json::object(vec![
                ("availability", (*availability).into()),
                (
                    "downtime_minutes_per_year",
                    (*downtime_minutes_per_year).into(),
                ),
                ("importance", importance_json(importance)),
            ]),
            SolvedMeasures::FaultTree {
                top_event_probability,
                minimal_cut_sets,
                importance,
            } => json::object(vec![
                ("top_event_probability", (*top_event_probability).into()),
                ("minimal_cut_sets", name_lists(minimal_cut_sets)),
                ("importance", importance_json(importance)),
            ]),
            SolvedMeasures::RelGraph {
                reliability,
                all_terminal_reliability,
                minimal_path_sets,
                minimal_cut_sets,
            } => json::object(vec![
                ("reliability", (*reliability).into()),
                (
                    "all_terminal_reliability",
                    opt_num(all_terminal_reliability),
                ),
                ("minimal_path_sets", name_lists(minimal_path_sets)),
                ("minimal_cut_sets", name_lists(minimal_cut_sets)),
            ]),
            SolvedMeasures::Spn {
                num_markings,
                expected_tokens,
                throughput,
            } => json::object(vec![
                ("num_markings", JsonValue::Number(*num_markings as f64)),
                ("expected_tokens", named_pairs(expected_tokens)),
                ("throughput", named_pairs(throughput)),
            ]),
            SolvedMeasures::Sim {
                measure,
                point,
                ci_lower,
                ci_upper,
                confidence,
                rel_half_width,
                replications,
                events,
                converged,
                downtime_minutes_per_year,
            } => json::object(vec![
                ("measure", measure.as_str().into()),
                ("point", (*point).into()),
                ("ci_lower", (*ci_lower).into()),
                ("ci_upper", (*ci_upper).into()),
                ("confidence", (*confidence).into()),
                ("rel_half_width", (*rel_half_width).into()),
                ("replications", JsonValue::Number(*replications as f64)),
                ("events", JsonValue::Number(*events as f64)),
                ("converged", JsonValue::Bool(*converged)),
                (
                    "downtime_minutes_per_year",
                    opt_num(downtime_minutes_per_year),
                ),
            ]),
            SolvedMeasures::Ctmc {
                steady_state,
                availability,
                downtime_minutes_per_year,
                mttf,
                transient,
            } => json::object(vec![
                (
                    "steady_state",
                    steady_state
                        .as_ref()
                        .map_or(JsonValue::Null, |pi| named_pairs(pi)),
                ),
                ("availability", opt_num(availability)),
                (
                    "downtime_minutes_per_year",
                    opt_num(downtime_minutes_per_year),
                ),
                ("mttf", opt_num(mttf)),
                (
                    "transient",
                    transient.as_ref().map_or(JsonValue::Null, |rows| {
                        JsonValue::Array(rows.iter().map(TransientRow::to_json).collect())
                    }),
                ),
            ]),
            SolvedMeasures::Hierarchy {
                submodels,
                output,
                value,
                iterations,
                residual,
            } => json::object(vec![
                ("submodels", named_pairs(submodels)),
                ("output", output.as_str().into()),
                ("value", (*value).into()),
                ("iterations", JsonValue::Number(*iterations as f64)),
                ("residual", (*residual).into()),
            ]),
            SolvedMeasures::SemiMarkov {
                steady_state,
                availability,
                downtime_minutes_per_year,
                mean_first_passage,
                interval_availability,
            } => json::object(vec![
                ("steady_state", named_pairs(steady_state)),
                ("availability", opt_num(availability)),
                (
                    "downtime_minutes_per_year",
                    opt_num(downtime_minutes_per_year),
                ),
                ("mean_first_passage", opt_num(mean_first_passage)),
                (
                    "interval_availability",
                    interval_availability
                        .as_ref()
                        .map_or(JsonValue::Null, |rows| {
                            JsonValue::Array(
                                rows.iter()
                                    .map(|&(t, a)| {
                                        json::object(vec![
                                            ("time", t.into()),
                                            ("availability", a.into()),
                                        ])
                                    })
                                    .collect(),
                            )
                        }),
                ),
            ]),
            SolvedMeasures::Uncertainty {
                measure,
                mean,
                std_dev,
                ci_lower,
                ci_upper,
                level,
                samples,
            } => json::object(vec![
                ("measure", measure.as_str().into()),
                ("mean", (*mean).into()),
                ("std_dev", (*std_dev).into()),
                ("ci_lower", (*ci_lower).into()),
                ("ci_upper", (*ci_upper).into()),
                ("level", (*level).into()),
                ("samples", JsonValue::Number(*samples as f64)),
            ]),
            SolvedMeasures::Bounds {
                exact,
                ep_lower,
                ep_upper,
                truncated_lower,
                truncated_upper,
                truncation_order,
                num_cut_sets,
                num_path_sets,
            } => json::object(vec![
                ("exact", opt_num(exact)),
                ("ep_lower", opt_num(ep_lower)),
                ("ep_upper", opt_num(ep_upper)),
                ("truncated_lower", (*truncated_lower).into()),
                ("truncated_upper", (*truncated_upper).into()),
                (
                    "truncation_order",
                    JsonValue::Number(*truncation_order as f64),
                ),
                ("num_cut_sets", JsonValue::Number(*num_cut_sets as f64)),
                ("num_path_sets", JsonValue::Number(*num_path_sets as f64)),
            ]),
        };
        json::object(vec![("kind", self.kind().into()), (self.kind(), body)])
    }
}

/// Parses and solves a JSON specification with explicit options,
/// returning measures plus solver telemetry.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for JSON that does not match
/// the schema, [`Error::Model`] for semantic problems (unknown names,
/// duplicate components), and propagates solver errors.
pub fn solve_str_with(text: &str, opts: &SolveOptions) -> Result<SolveReport> {
    let spec = ModelSpec::from_json_str(text)?;
    solve_with(&spec, opts)
}

/// Solves an already-parsed specification with explicit options,
/// returning measures plus solver telemetry.
///
/// # Errors
///
/// See [`solve_str_with`].
pub fn solve_with(spec: &ModelSpec, opts: &SolveOptions) -> Result<SolveReport> {
    // Mint a request-scoped trace id unless one is already ambient
    // (nested hierarchy/uncertainty sub-solves keep their parent's).
    let _trace = obs::ensure_trace_id();
    let _span = obs::span("spec.solve");
    let start = Instant::now();
    let (measures, mut stats) = match spec {
        ModelSpec::Rbd(r) => solve_rbd(r, opts)?,
        ModelSpec::FaultTree(f) => solve_fault_tree(f, opts)?,
        ModelSpec::Ctmc(c) => solve_ctmc(c, opts)?,
        ModelSpec::RelGraph(g) => solve_relgraph(g)?,
        ModelSpec::Spn(s) => solve_spn(s, opts)?,
        ModelSpec::Hierarchy(h) => crate::scenario::solve_hierarchy(h, opts)?,
        ModelSpec::SemiMarkov(s) => crate::scenario::solve_semi_markov(s, opts)?,
        ModelSpec::Uncertainty(u) => crate::scenario::solve_uncertainty(u, opts)?,
        ModelSpec::Bounds(b) => crate::scenario::solve_bounds(b, opts)?,
    };
    stats.wall_time = start.elapsed();
    let kind = measures.kind();
    let wall_ms = stats.wall_time.as_secs_f64() * 1e3;
    obs::counter_add("spec.solves", 1);
    obs::observe_ms("spec.solve_ms", wall_ms);
    obs::observe_ms(&format!("spec.solve_ms.{kind}"), wall_ms);
    obs::event(
        "spec.solved",
        &[
            ("kind", kind.into()),
            ("iterations", stats.iterations.into()),
            (
                "wall_us",
                (stats.wall_time.as_micros().min(u64::MAX as u128) as u64).into(),
            ),
        ],
    );
    Ok(SolveReport { measures, stats })
}

fn bdd_stats_into(stats: &mut SolveStats, b: &reliab_bdd::BddStats) {
    stats.iterations = b.ite_cache_lookups as usize;
    stats.bdd_nodes = Some(b.arena_nodes);
    stats.bdd_cache_lookups = Some(b.ite_cache_lookups);
    stats.bdd_cache_hits = Some(b.ite_cache_hits);
    stats.bdd_cache_evictions = Some(b.ite_cache_evictions);
    stats.bdd_gc_runs = Some(b.gc_runs);
    stats.bdd_gc_reclaimed = Some(b.gc_reclaimed);
    stats.bdd_sift_swaps = Some(b.sift_swaps);
    stats.bdd_peak_live_nodes = Some(b.peak_live_nodes);
    stats.bdd_ite_hit_rate = Some(b.ite_hit_rate());
    stats.bdd_gc_moved = Some(b.gc_moved);
    stats.bdd_par_apply_calls = Some(b.par_apply_calls);
    stats.bdd_workers = Some(b.jobs);
}

fn solve_relgraph(spec: &RelGraphSpec) -> Result<(SolvedMeasures, SolveStats)> {
    use reliab_relgraph::RelGraphBuilder;
    let mut b = RelGraphBuilder::new();
    let mut node_ids = FxHashMap::default();
    for n in &spec.nodes {
        if node_ids.contains_key(n) {
            return Err(Error::model(format!("duplicate node '{n}'")));
        }
        node_ids.insert(n.clone(), b.node(n));
    }
    let node = |name: &str, ids: &FxHashMap<String, reliab_relgraph::NodeIdx>| {
        ids.get(name)
            .copied()
            .ok_or_else(|| Error::model(format!("unknown node '{name}'")))
    };
    let mut probs = Vec::with_capacity(spec.edges.len());
    for e in &spec.edges {
        let u = node(&e.from, &node_ids)?;
        let v = node(&e.to, &node_ids)?;
        if e.directed {
            b.arc(u, v, &e.name);
        } else {
            b.edge(u, v, &e.name);
        }
        probs.push(e.reliability);
    }
    let source = node(&spec.source, &node_ids)?;
    let sink = node(&spec.sink, &node_ids)?;
    let g = b.build(source, sink)?;
    let (reliability, bdd) = g.reliability_with_stats(&probs)?;
    let mut stats = SolveStats::default();
    bdd_stats_into(&mut stats, &bdd);
    let all_terminal_reliability = if spec.all_terminal {
        Some(g.all_terminal_reliability(&probs)?)
    } else {
        None
    };
    let name_of = |es: Vec<reliab_relgraph::EdgeId>| -> Vec<String> {
        es.into_iter().map(|e| g.edge_name(e).to_owned()).collect()
    };
    let minimal_path_sets = g.minimal_path_sets().into_iter().map(&name_of).collect();
    let minimal_cut_sets = g
        .minimal_cut_sets(100_000)?
        .into_iter()
        .map(&name_of)
        .collect();
    Ok((
        SolvedMeasures::RelGraph {
            reliability,
            all_terminal_reliability,
            minimal_path_sets,
            minimal_cut_sets,
        },
        stats,
    ))
}

fn solve_rbd(spec: &RbdSpec, opts: &SolveOptions) -> Result<(SolvedMeasures, SolveStats)> {
    if spec.sim.is_some() || opts.simulate {
        let Some(sim) = &spec.sim else {
            return Err(Error::model(
                "simulation requested but the rbd spec has no 'sim' block",
            ));
        };
        let mut idx = FxHashMap::default();
        for (i, c) in spec.components.iter().enumerate() {
            if idx.insert(c.name.clone(), i).is_some() {
                return Err(Error::model(format!("duplicate component '{}'", c.name)));
            }
        }
        let node = build_sim_structure(&spec.structure, &idx)?;
        let simulator = rbd_simulator(spec, node)?;
        return run_simulation(&simulator, sim, opts);
    }
    let mut b = RbdBuilder::new();
    let mut ids = FxHashMap::default();
    let mut probs = Vec::new();
    for c in &spec.components {
        if ids.contains_key(&c.name) {
            return Err(Error::model(format!("duplicate component '{}'", c.name)));
        }
        ids.insert(c.name.clone(), b.component(&c.name));
        probs.push(component_availability(c)?);
    }
    let root = build_structure(&spec.structure, &ids)?;
    let mut rbd = b.build(root)?;
    let availability = rbd.availability(&probs)?;
    let importance = match rbd.importance(&probs) {
        Ok(rows) => Some(
            rows.into_iter()
                .map(|m| ImportanceRow {
                    name: m.component,
                    birnbaum: m.birnbaum,
                    criticality: m.criticality,
                    fussell_vesely: m.fussell_vesely,
                })
                .collect(),
        ),
        Err(_) => None, // perfect system: importance undefined
    };
    let mut stats = SolveStats::default();
    bdd_stats_into(&mut stats, &rbd.bdd_stats());
    Ok((
        SolvedMeasures::Rbd {
            availability,
            downtime_minutes_per_year: downtime_minutes_per_year(availability)?,
            importance,
        },
        stats,
    ))
}

/// Instantiates a lifetime distribution from its spec.
pub(crate) fn lifetime_from(d: &DistSpec) -> Result<Box<dyn Lifetime>> {
    Ok(match d {
        DistSpec::Exponential { rate } => Box::new(Exponential::new(*rate)?),
        DistSpec::Weibull { shape, scale } => Box::new(Weibull::new(*shape, *scale)?),
        DistSpec::LogNormal { mu, sigma } => Box::new(LogNormal::new(*mu, *sigma)?),
        DistSpec::Pareto { shape, scale } => Box::new(Pareto::new(*shape, *scale)?),
        DistSpec::Gamma { shape, rate } => Box::new(Gamma::new(*shape, *rate)?),
        DistSpec::Uniform { low, high } => Box::new(Uniform::new(*low, *high)?),
        DistSpec::Deterministic { value } => Box::new(Deterministic::new(*value)?),
    })
}

/// Steady availability `E[TTF] / (E[TTF] + E[TTR])` implied by a
/// component's lifetime distributions — exact for *any* distribution
/// shapes, since a single repairable component is an alternating
/// renewal process whose up fraction depends only on the means.
fn derived_availability(name: &str, ttf: Option<&DistSpec>, ttr: Option<&DistSpec>) -> Result<f64> {
    let ttf = ttf.ok_or_else(|| Error::model(format!("'{name}' has no 'ttf_dist'")))?;
    let ttr = ttr.ok_or_else(|| {
        Error::model(format!(
            "'{name}' has a 'ttf_dist' but no 'ttr_dist': give it an explicit \
             probability or a repair distribution"
        ))
    })?;
    let mf = lifetime_from(ttf)?.mean();
    let mr = lifetime_from(ttr)?.mean();
    if !(mf.is_finite() && mr.is_finite() && mf > 0.0 && mr >= 0.0) {
        return Err(Error::model(format!(
            "'{name}': cannot derive a steady availability from distribution \
             means {mf} (ttf) and {mr} (ttr)"
        )));
    }
    Ok(mf / (mf + mr))
}

/// The availability an RBD component contributes to an analytic solve:
/// the explicit value, or the one its lifetime distributions imply.
fn component_availability(c: &RbdComponentSpec) -> Result<f64> {
    match c.availability {
        Some(a) => Ok(a),
        None => derived_availability(&c.name, c.ttf_dist.as_ref(), c.ttr_dist.as_ref()),
    }
}

/// The occurrence probability a basic event contributes to an analytic
/// solve: the explicit value, or one minus the availability its
/// lifetime distributions imply.
pub(crate) fn event_probability(e: &EventSpec) -> Result<f64> {
    match e.probability {
        Some(p) => Ok(p),
        None => Ok(1.0 - derived_availability(&e.name, e.ttf_dist.as_ref(), e.ttr_dist.as_ref())?),
    }
}

/// A compiled structure/gate tree over component indices, cheap to
/// evaluate inside the simulation's hot loop (no hashing, no names).
enum SimNode {
    Leaf(usize),
    All(Vec<SimNode>),
    Any(Vec<SimNode>),
    KOfN { k: usize, of: Vec<SimNode> },
}

impl SimNode {
    /// RBD semantics: does the block work, given component up flags?
    fn eval_up(&self, up: &[bool]) -> bool {
        match self {
            SimNode::Leaf(i) => up[*i],
            SimNode::All(xs) => xs.iter().all(|x| x.eval_up(up)),
            SimNode::Any(xs) => xs.iter().any(|x| x.eval_up(up)),
            SimNode::KOfN { k, of } => of.iter().filter(|x| x.eval_up(up)).count() >= *k,
        }
    }

    /// Fault-tree semantics: has the (top) event occurred, given
    /// component up flags (`up[i]` = basic event `i` has *not*
    /// occurred)?
    fn eval_failed(&self, up: &[bool]) -> bool {
        match self {
            SimNode::Leaf(i) => !up[*i],
            SimNode::All(xs) => xs.iter().all(|x| x.eval_failed(up)),
            SimNode::Any(xs) => xs.iter().any(|x| x.eval_failed(up)),
            SimNode::KOfN { k, of } => of.iter().filter(|x| x.eval_failed(up)).count() >= *k,
        }
    }
}

fn build_sim_structure(s: &StructureSpec, idx: &FxHashMap<String, usize>) -> Result<SimNode> {
    match s {
        StructureSpec::Component(name) => idx
            .get(name)
            .map(|&i| SimNode::Leaf(i))
            .ok_or_else(|| Error::model(format!("unknown component '{name}'"))),
        StructureSpec::Series { series } => Ok(SimNode::All(
            series
                .iter()
                .map(|x| build_sim_structure(x, idx))
                .collect::<Result<_>>()?,
        )),
        StructureSpec::Parallel { parallel } => Ok(SimNode::Any(
            parallel
                .iter()
                .map(|x| build_sim_structure(x, idx))
                .collect::<Result<_>>()?,
        )),
        StructureSpec::KOfN { k_of_n } => Ok(SimNode::KOfN {
            k: k_of_n.k,
            of: k_of_n
                .of
                .iter()
                .map(|x| build_sim_structure(x, idx))
                .collect::<Result<_>>()?,
        }),
    }
}

fn build_sim_gate(g: &GateSpec, idx: &FxHashMap<String, usize>) -> Result<SimNode> {
    match g {
        GateSpec::Event(name) => idx
            .get(name)
            .map(|&i| SimNode::Leaf(i))
            .ok_or_else(|| Error::model(format!("unknown event '{name}'"))),
        GateSpec::And { and } => Ok(SimNode::All(
            and.iter()
                .map(|x| build_sim_gate(x, idx))
                .collect::<Result<_>>()?,
        )),
        GateSpec::Or { or } => Ok(SimNode::Any(
            or.iter()
                .map(|x| build_sim_gate(x, idx))
                .collect::<Result<_>>()?,
        )),
        GateSpec::KOfN { k_of_n } => Ok(SimNode::KOfN {
            k: k_of_n.k,
            of: k_of_n
                .of
                .iter()
                .map(|x| build_sim_gate(x, idx))
                .collect::<Result<_>>()?,
        }),
    }
}

/// Adds one simulated component per spec entry, in declaration order
/// (so spec index == simulator index == stream index).
fn push_component(
    sim: &mut SystemSimulator,
    name: &str,
    ttf: Option<&DistSpec>,
    ttr: Option<&DistSpec>,
) -> Result<()> {
    let ttf = ttf.ok_or_else(|| {
        Error::model(format!("component '{name}' needs a 'ttf_dist' to simulate"))
    })?;
    let ttf = lifetime_from(ttf)?;
    match ttr {
        Some(r) => {
            sim.component(ttf, lifetime_from(r)?);
        }
        None => {
            sim.component_without_repair(ttf);
        }
    }
    Ok(())
}

fn rbd_simulator(spec: &RbdSpec, node: SimNode) -> Result<SystemSimulator> {
    let mut sim = SystemSimulator::new(move |up: &[bool]| node.eval_up(up));
    for c in &spec.components {
        push_component(&mut sim, &c.name, c.ttf_dist.as_ref(), c.ttr_dist.as_ref())?;
    }
    Ok(sim)
}

fn ftree_simulator(spec: &FaultTreeSpec, node: SimNode) -> Result<SystemSimulator> {
    // The system "works" while the top event has not occurred.
    let mut sim = SystemSimulator::new(move |up: &[bool]| !node.eval_failed(up));
    for e in &spec.events {
        push_component(&mut sim, &e.name, e.ttf_dist.as_ref(), e.ttr_dist.as_ref())?;
    }
    Ok(sim)
}

/// Merges spec-level sim knobs with [`SolveOptions`] overrides
/// (overrides win, mirroring the SPN `reach_jobs` convention).
fn effective_sim_options(sim: &SimSpec, opts: &SolveOptions) -> SimOptions {
    let mut o = SimOptions::default();
    if let Some(s) = sim.seed {
        o.seed = s;
    }
    if let Some(j) = sim.jobs {
        o.jobs = j;
    }
    if let Some(m) = sim.max_replications {
        o.max_replications = m;
    }
    if let Some(m) = sim.min_replications {
        o.min_replications = m;
    }
    if let Some(p) = sim.rel_precision {
        o.rel_precision = p;
    }
    if let Some(c) = sim.confidence {
        o.confidence = c;
    }
    if let Some(b) = sim.batches {
        o.batches = b;
    }
    if let Some(w) = sim.warmup_fraction {
        o.warmup_fraction = w;
    }
    if let Some(s) = opts.sim_seed {
        o.seed = s;
    }
    if let Some(m) = opts.sim_replications {
        o.max_replications = m;
    }
    if let Some(p) = opts.sim_rel_precision {
        o.rel_precision = p;
    }
    if opts.sim_jobs != 1 {
        o.jobs = opts.sim_jobs;
    }
    // Keep a tight replication cap self-consistent rather than
    // erroring on min > max.
    o.min_replications = o.min_replications.min(o.max_replications).max(2);
    o
}

fn run_simulation(
    sim: &SystemSimulator,
    spec: &SimSpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    let need = |x: Option<f64>, what: &str| {
        x.ok_or_else(|| {
            Error::model(format!(
                "sim measure '{}' requires '{what}'",
                spec.measure.as_str()
            ))
        })
    };
    let measure = match spec.measure {
        SimMeasure::Availability => SimRunMeasure::Availability {
            horizon: need(spec.horizon, "horizon")?,
        },
        SimMeasure::Reliability => SimRunMeasure::Reliability {
            mission_time: need(spec.mission_time, "mission_time")?,
        },
        SimMeasure::Mttf => SimRunMeasure::Mttf {
            time_cap: need(spec.time_cap, "time_cap")?,
        },
    };
    let sopts = effective_sim_options(spec, opts);
    let report = sim.simulate(measure, &sopts)?;
    let stats = SolveStats {
        iterations: usize::try_from(report.events).unwrap_or(usize::MAX),
        sim_replications: Some(report.replications),
        sim_events: Some(report.events),
        sim_rounds: Some(report.rounds),
        sim_rel_half_width: Some(report.rel_half_width),
        sim_workers: Some(report.workers),
        sim_converged: Some(report.converged),
        ..Default::default()
    };
    let point = report.interval.point;
    let downtime = match spec.measure {
        SimMeasure::Availability => Some(downtime_minutes_per_year(point)?),
        _ => None,
    };
    Ok((
        SolvedMeasures::Sim {
            measure: spec.measure.as_str().to_owned(),
            point,
            ci_lower: report.interval.lower,
            ci_upper: report.interval.upper,
            confidence: report.interval.level,
            rel_half_width: report.rel_half_width,
            replications: report.replications,
            events: report.events,
            converged: report.converged,
            downtime_minutes_per_year: downtime,
        },
        stats,
    ))
}

fn build_structure(
    s: &StructureSpec,
    ids: &FxHashMap<String, reliab_rbd::ComponentId>,
) -> Result<Block> {
    match s {
        StructureSpec::Component(name) => ids
            .get(name)
            .map(|&c| Block::Component(c))
            .ok_or_else(|| Error::model(format!("unknown component '{name}'"))),
        StructureSpec::Series { series } => Ok(Block::Series(
            series
                .iter()
                .map(|x| build_structure(x, ids))
                .collect::<Result<_>>()?,
        )),
        StructureSpec::Parallel { parallel } => Ok(Block::Parallel(
            parallel
                .iter()
                .map(|x| build_structure(x, ids))
                .collect::<Result<_>>()?,
        )),
        StructureSpec::KOfN { k_of_n } => Ok(Block::KOfN {
            k: k_of_n.k,
            blocks: k_of_n
                .of
                .iter()
                .map(|x| build_structure(x, ids))
                .collect::<Result<_>>()?,
        }),
    }
}

/// The variable ordering a fault-tree solve actually uses: a non-`Auto`
/// option overrides the spec's `var_order` hint; both absent means the
/// depth-first heuristic.
fn effective_ordering(spec: &FaultTreeSpec, opts: &SolveOptions) -> VariableOrdering {
    let chosen = match opts.var_order {
        VarOrder::Auto => spec.var_order.unwrap_or(VarOrder::Auto),
        other => other,
    };
    match chosen {
        VarOrder::Auto | VarOrder::DepthFirst => VariableOrdering::DepthFirst,
        VarOrder::Input => VariableOrdering::Declaration,
        VarOrder::Weighted => VariableOrdering::Weighted,
        VarOrder::Sift => VariableOrdering::Sifted,
    }
}

pub(crate) fn solve_fault_tree(
    spec: &FaultTreeSpec,
    opts: &SolveOptions,
) -> Result<(SolvedMeasures, SolveStats)> {
    if spec.sim.is_some() || opts.simulate {
        let Some(sim) = &spec.sim else {
            return Err(Error::model(
                "simulation requested but the fault_tree spec has no 'sim' block",
            ));
        };
        let mut idx = FxHashMap::default();
        for (i, e) in spec.events.iter().enumerate() {
            if idx.insert(e.name.clone(), i).is_some() {
                return Err(Error::model(format!("duplicate event '{}'", e.name)));
            }
        }
        let node = build_sim_gate(&spec.top, &idx)?;
        let simulator = ftree_simulator(spec, node)?;
        return run_simulation(&simulator, sim, opts);
    }
    let mut b = FaultTreeBuilder::new();
    let mut ids = FxHashMap::default();
    let mut probs = Vec::new();
    for e in &spec.events {
        if ids.contains_key(&e.name) {
            return Err(Error::model(format!("duplicate event '{}'", e.name)));
        }
        ids.insert(e.name.clone(), b.basic_event(&e.name));
        probs.push(event_probability(e)?);
    }
    let top = build_gate(&spec.top, &ids)?;
    let compile = CompileOptions::new()
        .with_ordering(effective_ordering(spec, opts))
        .with_ite_cache_capacity(opts.ite_cache_capacity)
        .with_gc_node_threshold(opts.gc_node_threshold)
        .with_bdd_jobs(opts.bdd_jobs);
    let mut ft = b.build_with(top, &compile)?;
    let q = ft.top_event_probability(&probs)?;
    let cuts = ft
        .minimal_cut_sets(spec.max_cut_sets.unwrap_or(100_000))
        .unwrap_or_else(|_| ft.minimal_cut_sets_bdd());
    let named_cuts: Vec<Vec<String>> = cuts
        .iter()
        .map(|c| {
            c.events()
                .iter()
                .map(|&e| ft.event_name(e).to_owned())
                .collect()
        })
        .collect();
    let importance = match ft.importance(&probs) {
        Ok(rows) => Some(
            rows.into_iter()
                .map(|m| ImportanceRow {
                    name: m.component,
                    birnbaum: m.birnbaum,
                    criticality: m.criticality,
                    fussell_vesely: m.fussell_vesely,
                })
                .collect(),
        ),
        Err(_) => None,
    };
    let mut stats = SolveStats::default();
    bdd_stats_into(&mut stats, &ft.bdd_stats());
    Ok((
        SolvedMeasures::FaultTree {
            top_event_probability: q,
            minimal_cut_sets: named_cuts,
            importance,
        },
        stats,
    ))
}

fn build_gate(g: &GateSpec, ids: &FxHashMap<String, reliab_ftree::EventId>) -> Result<FtNode> {
    match g {
        GateSpec::Event(name) => ids
            .get(name)
            .map(|&e| FtNode::Basic(e))
            .ok_or_else(|| Error::model(format!("unknown event '{name}'"))),
        GateSpec::And { and } => Ok(FtNode::And(
            and.iter()
                .map(|x| build_gate(x, ids))
                .collect::<Result<_>>()?,
        )),
        GateSpec::Or { or } => Ok(FtNode::Or(
            or.iter()
                .map(|x| build_gate(x, ids))
                .collect::<Result<_>>()?,
        )),
        GateSpec::KOfN { k_of_n } => Ok(FtNode::KOfN {
            k: k_of_n.k,
            inputs: k_of_n
                .of
                .iter()
                .map(|x| build_gate(x, ids))
                .collect::<Result<_>>()?,
        }),
    }
}

fn solve_spn(spec: &SpnSpec, opts: &SolveOptions) -> Result<(SolvedMeasures, SolveStats)> {
    use reliab_spn::{PlaceId, ReachabilityOptions, SpnBuilder, TransitionId};
    let mut b = SpnBuilder::new();
    let mut place_ids: FxHashMap<String, PlaceId> = FxHashMap::default();
    for p in &spec.places {
        if place_ids.contains_key(&p.name) {
            return Err(Error::model(format!("duplicate place '{}'", p.name)));
        }
        place_ids.insert(p.name.clone(), b.place(&p.name, p.tokens));
    }
    let place = |name: &str, ids: &FxHashMap<String, PlaceId>| -> Result<PlaceId> {
        ids.get(name)
            .copied()
            .ok_or_else(|| Error::model(format!("unknown place '{name}'")))
    };
    let mut trans_ids: FxHashMap<String, TransitionId> = FxHashMap::default();
    for t in &spec.transitions {
        if trans_ids.contains_key(&t.name) {
            return Err(Error::model(format!("duplicate transition '{}'", t.name)));
        }
        let id = match t.timing {
            SpnTimingSpec::Timed { rate } => b.timed(&t.name, rate),
            SpnTimingSpec::Immediate { weight, priority } => b.immediate(&t.name, weight, priority),
        };
        for a in &t.inputs {
            b.input_arc(id, place(&a.place, &place_ids)?, a.count);
        }
        for a in &t.outputs {
            b.output_arc(id, place(&a.place, &place_ids)?, a.count);
        }
        for a in &t.inhibitors {
            b.inhibitor_arc(id, place(&a.place, &place_ids)?, a.count);
        }
        trans_ids.insert(t.name.clone(), id);
    }
    let spn = b.build()?;

    let mut ropts = ReachabilityOptions::default();
    if let Some(cap) = spec.max_markings {
        ropts.max_markings = cap;
    }
    if let Some(bits) = spec.shard_bits {
        ropts.shard_bits = bits;
    }
    // A non-default option overrides the spec's knob; worker count never
    // changes results (generation is bitwise deterministic).
    ropts.jobs = if opts.reach_jobs != 1 {
        opts.reach_jobs
    } else {
        spec.reach_jobs.unwrap_or(ropts.jobs)
    };

    // Tier selection: an explicit request (the option overrides the
    // spec's hint) or budget-driven escalation when the declared
    // marking cap projects past the memory budget.
    let use_stream = opts.stream
        || spec.solver == Some(SpnSolver::Stream)
        || match (materialized_estimate(spec), opts.mem_budget) {
            (Some(est), Some(budget)) => est > budget,
            _ => false,
        };
    if use_stream {
        return solve_spn_stream(spec, opts, &spn, &ropts, &place_ids, &trans_ids);
    }

    let solved = spn.solve_with(&ropts)?;

    let mut stats = SolveStats::default();
    let reach = solved.reach_stats();
    stats.spn_markings = Some(reach.markings);
    stats.spn_arcs = Some(reach.arcs);
    stats.spn_vanishing_eliminated = Some(reach.vanishing_eliminated);
    stats.spn_shard_max_occupancy = Some(reach.max_shard_occupancy);
    stats.spn_reach_workers = Some(reach.workers);

    let want_tokens = spec.expected_tokens.as_deref().unwrap_or(&[]);
    let want_throughput = spec.throughput.as_deref().unwrap_or(&[]);
    let (expected_tokens, throughput) = if want_tokens.is_empty() && want_throughput.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        // Solve the chain once; both measure families share the π.
        let iter_opts = IterativeOptions {
            tolerance: opts.tolerance,
            max_iterations: opts.max_iterations,
            relaxation: 1.0,
        };
        let method = match opts.steady_solver {
            SteadySolver::Gth => SteadyStateMethod::Gth,
            SteadySolver::Sor => SteadyStateMethod::Sor(iter_opts),
            SteadySolver::Power => SteadyStateMethod::Power(iter_opts),
            _ => SteadyStateMethod::Auto,
        };
        let report = solved.ctmc().steady_state_report(&method)?;
        stats.method = Some(report.method);
        stats.iterations += report.iterations;
        stats.residual = Some(report.residual);
        let pi = report.pi;
        let expected_tokens = want_tokens
            .iter()
            .map(|name| {
                let idx = place(name, &place_ids)?.index();
                let mean = solved
                    .markings()
                    .iter()
                    .zip(&pi)
                    .map(|(m, &p)| p * f64::from(m[idx]))
                    .sum();
                Ok((name.clone(), mean))
            })
            .collect::<Result<Vec<_>>>()?;
        let throughput = want_throughput
            .iter()
            .map(|name| {
                let id = trans_ids
                    .get(name)
                    .copied()
                    .ok_or_else(|| Error::model(format!("unknown transition '{name}'")))?;
                Ok((name.clone(), solved.throughput_given(&pi, id)?))
            })
            .collect::<Result<Vec<_>>>()?;
        (expected_tokens, throughput)
    };

    Ok((
        SolvedMeasures::Spn {
            num_markings: solved.num_markings(),
            expected_tokens,
            throughput,
        },
        stats,
    ))
}

/// Projected peak bytes of the materialized path for a declared marking
/// cap: packed marking arena, intern table, CSR generator (row pointers
/// plus one arc per timed transition per marking at 16 bytes), exit
/// rates and the solution vector. `None` when the spec leaves the cap
/// implicit — there is no declared scale to project from.
fn materialized_estimate(spec: &SpnSpec) -> Option<usize> {
    let cap = spec.max_markings?;
    let timed = spec
        .transitions
        .iter()
        .filter(|t| matches!(t.timing, SpnTimingSpec::Timed { .. }))
        .count();
    Some(cap.saturating_mul(4 * spec.places.len() + 12 + 8 + 16 * timed.max(1) + 16))
}

/// The streaming large-model tier: generate the tangible marking space
/// only (no arcs stored), then solve steady state by regenerating
/// generator rows from the arena on demand. A memory budget the exact
/// streaming solve cannot meet escalates to aggregation bounds, whose
/// bracket midpoints are reported with `stream_bounded` telemetry so
/// consumers see the gap instead of a false point value.
fn solve_spn_stream(
    spec: &SpnSpec,
    opts: &SolveOptions,
    spn: &reliab_spn::Spn,
    ropts: &reliab_spn::ReachabilityOptions,
    place_ids: &FxHashMap<String, reliab_spn::PlaceId>,
    trans_ids: &FxHashMap<String, reliab_spn::TransitionId>,
) -> Result<(SolvedMeasures, SolveStats)> {
    use reliab_stream::{
        bounded_steady_reward, macro_states_for_budget, plan_steady, steady_state, ArenaRowSource,
        PlanOutcome, RowSource, StreamMethod, StreamOptions,
    };
    let space = spn.tangible_space(ropts)?;
    let mut stats = SolveStats::default();
    let sstats = space.stats();
    stats.spn_markings = Some(sstats.markings);
    stats.spn_arcs = Some(sstats.arcs);
    stats.spn_vanishing_eliminated = Some(sstats.vanishing_eliminated);
    stats.spn_reach_workers = Some(1);

    let place = |name: &str| -> Result<reliab_spn::PlaceId> {
        place_ids
            .get(name)
            .copied()
            .ok_or_else(|| Error::model(format!("unknown place '{name}'")))
    };
    let want_tokens = spec.expected_tokens.as_deref().unwrap_or(&[]);
    let want_throughput = spec.throughput.as_deref().unwrap_or(&[]);
    let (expected_tokens, throughput) = if want_tokens.is_empty() && want_throughput.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        let method = match opts.steady_solver {
            SteadySolver::Power => StreamMethod::Power,
            SteadySolver::Sor => StreamMethod::Sor,
            SteadySolver::Gth => {
                return Err(Error::invalid(
                    "the streaming tier has no dense GTH solver; use sor, power or auto",
                ));
            }
            _ => StreamMethod::Auto,
        };
        let sopts = StreamOptions {
            tolerance: opts.tolerance,
            max_iterations: opts.max_iterations,
            method,
            mem_budget: opts.mem_budget,
            ..Default::default()
        };
        let mut src = ArenaRowSource::new(&space);
        // Whether the budget admits an exact solve depends on the row
        // source and the iteration vectors only, so the BFS arc count
        // stands in for a scan of the rows.
        match plan_steady(
            space.num_markings(),
            sstats.arcs as u64,
            src.resident_bytes(),
            &sopts,
        ) {
            PlanOutcome::Exact(_) => {
                let report = steady_state(&mut src, &sopts)?;
                stats.method = Some(report.method);
                stats.iterations += report.iterations;
                stats.residual = Some(report.residual);
                stats.stream_blocks = Some(report.plan.blocks);
                stats.stream_cached_blocks = Some(report.plan.cached_blocks);
                stats.stream_peak_bytes = Some(report.plan.peak_bytes());
                stats.stream_bounded = Some(false);
                let pi = report.pi;
                let expected_tokens = want_tokens
                    .iter()
                    .map(|name| {
                        Ok((
                            name.clone(),
                            space.expected_tokens_given(&pi, place(name)?)?,
                        ))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let throughput = want_throughput
                    .iter()
                    .map(|name| {
                        let id = trans_ids
                            .get(name)
                            .copied()
                            .ok_or_else(|| Error::model(format!("unknown transition '{name}'")))?;
                        Ok((name.clone(), space.throughput_given(&pi, id)?))
                    })
                    .collect::<Result<Vec<_>>>()?;
                (expected_tokens, throughput)
            }
            PlanOutcome::NeedsBounds { budget, .. } => {
                let m = macro_states_for_budget(budget);
                stats.method = Some("stream-bounds");
                stats.stream_bounded = Some(true);
                let mut max_gap = 0.0f64;
                let expected_tokens = want_tokens
                    .iter()
                    .map(|name| {
                        let idx = place(name)?.index();
                        let r = bounded_steady_reward(&mut src, m, &mut |i| {
                            f64::from(space.marking(i)[idx])
                        })?;
                        max_gap = max_gap.max(r.bounds.gap());
                        Ok((name.clone(), r.bounds.midpoint()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                // Throughput as a per-state reward: the transition's
                // rate where its input and inhibitor arcs enable it,
                // zero elsewhere (constant rates, so this is exact per
                // state; only the aggregation introduces the bracket).
                let throughput = want_throughput
                    .iter()
                    .map(|name| {
                        let t = spec
                            .transitions
                            .iter()
                            .find(|t| &t.name == name)
                            .ok_or_else(|| Error::model(format!("unknown transition '{name}'")))?;
                        let rate = match t.timing {
                            SpnTimingSpec::Timed { rate } => rate,
                            SpnTimingSpec::Immediate { .. } => {
                                return Err(Error::invalid(format!(
                                    "throughput of immediate transition '{name}' is undefined; \
                                     immediate firings take zero time"
                                )));
                            }
                        };
                        let inputs = t
                            .inputs
                            .iter()
                            .map(|a| Ok((place(&a.place)?.index(), a.count)))
                            .collect::<Result<Vec<_>>>()?;
                        let inhibitors = t
                            .inhibitors
                            .iter()
                            .map(|a| Ok((place(&a.place)?.index(), a.count)))
                            .collect::<Result<Vec<_>>>()?;
                        let r = bounded_steady_reward(&mut src, m, &mut |i| {
                            let mk = space.marking(i);
                            let enabled = inputs.iter().all(|&(p, c)| mk[p] >= c)
                                && inhibitors.iter().all(|&(p, c)| mk[p] < c);
                            if enabled {
                                rate
                            } else {
                                0.0
                            }
                        })?;
                        max_gap = max_gap.max(r.bounds.gap());
                        Ok((name.clone(), r.bounds.midpoint()))
                    })
                    .collect::<Result<Vec<_>>>()?;
                stats.stream_bound_gap = Some(max_gap);
                stats.stream_peak_bytes = Some(src.resident_bytes() as u64 + (m * m * 8) as u64);
                (expected_tokens, throughput)
            }
        }
    };

    Ok((
        SolvedMeasures::Spn {
            num_markings: space.num_markings(),
            expected_tokens,
            throughput,
        },
        stats,
    ))
}

fn solve_ctmc(spec: &CtmcSpec, opts: &SolveOptions) -> Result<(SolvedMeasures, SolveStats)> {
    let mut b = CtmcBuilder::new();
    let mut ids: FxHashMap<String, StateId> = FxHashMap::default();
    for s in &spec.states {
        if ids.contains_key(s) {
            return Err(Error::model(format!("duplicate state '{s}'")));
        }
        ids.insert(s.clone(), b.state(s));
    }
    let lookup = |name: &str, ids: &FxHashMap<String, StateId>| -> Result<StateId> {
        ids.get(name)
            .copied()
            .ok_or_else(|| Error::model(format!("unknown state '{name}'")))
    };
    for t in &spec.transitions {
        let from = lookup(&t.from, &ids)?;
        let to = lookup(&t.to, &ids)?;
        b.transition(from, to, t.rate)?;
    }
    let ctmc = b.build()?;
    let initial_state = match &spec.initial {
        Some(name) => lookup(name, &ids)?,
        None => lookup(&spec.states[0], &ids)?,
    };
    let initial = ctmc.point_mass(initial_state);

    let iter_opts = IterativeOptions {
        tolerance: opts.tolerance,
        max_iterations: opts.max_iterations,
        relaxation: 1.0,
    };
    let method = match opts.steady_solver {
        SteadySolver::Gth => SteadyStateMethod::Gth,
        SteadySolver::Sor => SteadyStateMethod::Sor(iter_opts),
        SteadySolver::Power => SteadyStateMethod::Power(iter_opts),
        _ => SteadyStateMethod::Auto,
    };
    let mut stats = SolveStats::default();
    let steady = ctmc.steady_state_report(&method).ok();
    if let Some(report) = &steady {
        stats.method = Some(report.method);
        stats.iterations += report.iterations;
        stats.residual = Some(report.residual);
    }
    let steady_pi = steady.map(|r| r.pi);
    let steady_named = steady_pi.as_ref().map(|pi| {
        spec.states
            .iter()
            .map(|s| (s.clone(), pi[ids[s].index()]))
            .collect::<Vec<_>>()
    });
    let (availability, downtime) = match (&spec.up_states, &steady_pi) {
        (Some(up), Some(pi)) => {
            let mut a = 0.0;
            for name in up {
                a += pi[lookup(name, &ids)?.index()];
            }
            (Some(a), Some(downtime_minutes_per_year(a)?))
        }
        (Some(_), None) => {
            return Err(Error::model(
                "up_states given but the chain has no stationary distribution",
            ))
        }
        _ => (None, None),
    };
    let mttf = match &spec.absorbing {
        Some(abs) => {
            let states: Vec<StateId> =
                abs.iter().map(|n| lookup(n, &ids)).collect::<Result<_>>()?;
            Some(ctmc.mttf(&initial, &states)?)
        }
        None => None,
    };
    let transient = match &spec.at_times {
        Some(times) => {
            let reports = ctmc.transient_many_report(
                &initial,
                times,
                &TransientOptions::default(),
                opts.transient_jobs,
            )?;
            stats.iterations += reports.iter().map(|r| r.matvecs).sum::<usize>();
            Some(
                times
                    .iter()
                    .zip(reports)
                    .map(|(&t, r)| TransientRow {
                        time: t,
                        probabilities: spec
                            .states
                            .iter()
                            .map(|s| (s.clone(), r.distribution[ids[s].index()]))
                            .collect(),
                    })
                    .collect(),
            )
        }
        None => None,
    };
    Ok((
        SolvedMeasures::Ctmc {
            steady_state: steady_named,
            availability,
            downtime_minutes_per_year: downtime,
            mttf,
            transient,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(text: &str) -> Result<SolveReport> {
        solve_str_with(text, &SolveOptions::default())
    }

    #[test]
    fn rbd_spec_solves() {
        let out = run(r#"{
              "rbd": {
                "components": [
                  {"name": "a", "availability": 0.9},
                  {"name": "b", "availability": 0.9},
                  {"name": "c", "availability": 0.99}
                ],
                "structure": {"series": [{"parallel": ["a", "b"]}, "c"]}
              }
            }"#)
        .unwrap();
        assert!(out.stats.bdd_nodes.unwrap() > 0);
        assert!(out.stats.iterations > 0);
        match out.measures {
            SolvedMeasures::Rbd {
                availability,
                importance,
                ..
            } => {
                assert!((availability - 0.99 * 0.99).abs() < 1e-12);
                assert_eq!(importance.unwrap().len(), 3);
            }
            _ => panic!("expected RBD result"),
        }
    }

    #[test]
    fn fault_tree_spec_solves() {
        let out = run(r#"{
              "fault_tree": {
                "events": [
                  {"name": "p1", "probability": 0.01},
                  {"name": "p2", "probability": 0.01},
                  {"name": "bus", "probability": 0.001}
                ],
                "top": {"or": [{"and": ["p1", "p2"]}, "bus"]}
              }
            }"#)
        .unwrap();
        assert!(out.stats.bdd_cache_lookups.unwrap() > 0);
        match out.measures {
            SolvedMeasures::FaultTree {
                top_event_probability,
                minimal_cut_sets,
                ..
            } => {
                let expected = 1.0 - (1.0 - 1e-4) * (1.0 - 1e-3);
                assert!((top_event_probability - expected).abs() < 1e-12);
                assert_eq!(minimal_cut_sets.len(), 2);
                assert_eq!(minimal_cut_sets[0], vec!["bus"]);
            }
            _ => panic!("expected fault-tree result"),
        }
    }

    #[test]
    fn fault_tree_var_orders_agree_on_probability() {
        // Same tree, every ordering route: the BDD probability is exact
        // under any ordering, so all five must agree with the Input
        // (declaration-order) value to fp noise.
        let spec = |hint: &str| {
            format!(
                r#"{{
                  "fault_tree": {{
                    "events": [
                      {{"name": "p1", "probability": 0.01}},
                      {{"name": "p2", "probability": 0.01}},
                      {{"name": "bus", "probability": 0.001}}
                    ],
                    "top": {{"or": [{{"and": ["p1", "p2"]}}, "bus"]}},
                    "var_order": "{hint}"
                  }}
                }}"#
            )
        };
        let q_of = |report: SolveReport| match report.measures {
            SolvedMeasures::FaultTree {
                top_event_probability,
                ..
            } => top_event_probability,
            _ => panic!("expected fault-tree result"),
        };
        let expected = 1.0 - (1.0 - 1e-4) * (1.0 - 1e-3);
        for hint in ["auto", "input", "dfs", "weighted", "sift"] {
            let q = q_of(run(&spec(hint)).unwrap());
            assert!(
                (q - expected).abs() < 1e-12,
                "var_order {hint}: {q} vs {expected}"
            );
        }
        // A non-Auto option overrides the spec's hint.
        let opts = SolveOptions::default().with_var_order(VarOrder::Sift);
        let q = q_of(solve_str_with(&spec("input"), &opts).unwrap());
        assert!((q - expected).abs() < 1e-12);
    }

    #[test]
    fn fault_tree_bdd_knobs_surface_in_stats() {
        let json = r#"{
              "fault_tree": {
                "events": [
                  {"name": "a", "probability": 0.1},
                  {"name": "b", "probability": 0.2},
                  {"name": "c", "probability": 0.3}
                ],
                "top": {"k_of_n": {"k": 2, "of": ["a", "b", "c"]}}
              }
            }"#;
        let opts = SolveOptions::default()
            .with_ite_cache_capacity(64)
            .with_gc_node_threshold(16);
        let out = solve_str_with(json, &opts).unwrap();
        assert!(out.stats.bdd_cache_evictions.is_some());
        assert!(out.stats.bdd_gc_runs.is_some());
        assert!(out.stats.bdd_gc_reclaimed.is_some());
        assert!(out.stats.bdd_sift_swaps.is_some());
        assert!(out.stats.bdd_peak_live_nodes.unwrap() > 0);
        let text = out.stats.to_json().to_json();
        assert!(text.contains("\"bdd_peak_live_nodes\":"));
    }

    #[test]
    fn fault_tree_var_order_hint_round_trips_and_rejects_junk() {
        let json = r#"{
              "fault_tree": {
                "events": [{"name": "a", "probability": 0.1}],
                "top": "a",
                "var_order": "weighted"
              }
            }"#;
        let spec = ModelSpec::from_json_str(json).unwrap();
        let again = ModelSpec::from_json_str(&spec.to_json().to_json()).unwrap();
        assert_eq!(spec, again);
        match &spec {
            ModelSpec::FaultTree(f) => assert_eq!(f.var_order, Some(VarOrder::Weighted)),
            _ => panic!("expected fault tree"),
        }
        let bad = json.replace("weighted", "random");
        assert!(ModelSpec::from_json_str(&bad).is_err());
    }

    #[test]
    fn ctmc_spec_all_measures() {
        let out = run(r#"{
              "ctmc": {
                "states": ["up", "down"],
                "transitions": [
                  {"from": "up", "to": "down", "rate": 1.0},
                  {"from": "down", "to": "up", "rate": 9.0}
                ],
                "up_states": ["up"],
                "absorbing": ["down"],
                "at_times": [0.1]
              }
            }"#)
        .unwrap();
        assert_eq!(out.stats.method, Some("gth"));
        assert!(out.stats.iterations > 0);
        match out.measures {
            SolvedMeasures::Ctmc {
                availability,
                mttf,
                transient,
                ..
            } => {
                assert!((availability.unwrap() - 0.9).abs() < 1e-12);
                assert!((mttf.unwrap() - 1.0).abs() < 1e-12);
                let rows = transient.unwrap();
                assert_eq!(rows.len(), 1);
                let total: f64 = rows[0].probabilities.iter().map(|(_, p)| p).sum();
                assert!((total - 1.0).abs() < 1e-9);
            }
            _ => panic!("expected CTMC result"),
        }
    }

    #[test]
    fn ctmc_methods_agree_and_report_identity() {
        let text = r#"{
          "ctmc": {
            "states": ["up", "down"],
            "transitions": [
              {"from": "up", "to": "down", "rate": 1.0},
              {"from": "down", "to": "up", "rate": 9.0}
            ],
            "up_states": ["up"]
          }
        }"#;
        let gth = solve_str_with(
            text,
            &SolveOptions::default().with_steady_solver(SteadySolver::Gth),
        )
        .unwrap();
        let sor = solve_str_with(
            text,
            &SolveOptions::default().with_steady_solver(SteadySolver::Sor),
        )
        .unwrap();
        let power = solve_str_with(
            text,
            &SolveOptions::default().with_steady_solver(SteadySolver::Power),
        )
        .unwrap();
        assert_eq!(gth.stats.method, Some("gth"));
        assert_eq!(sor.stats.method, Some("sor"));
        assert_eq!(power.stats.method, Some("power"));
        let a = gth.measures.availability().unwrap();
        assert!((sor.measures.availability().unwrap() - a).abs() < 1e-9);
        assert!((power.measures.availability().unwrap() - a).abs() < 1e-9);
    }

    #[test]
    fn transient_jobs_do_not_change_results() {
        let text = r#"{
          "ctmc": {
            "states": ["up", "down"],
            "transitions": [
              {"from": "up", "to": "down", "rate": 0.3},
              {"from": "down", "to": "up", "rate": 2.0}
            ],
            "at_times": [0.1, 1.0, 10.0, 100.0]
          }
        }"#;
        let seq = run(text).unwrap();
        let par = solve_str_with(text, &SolveOptions::default().with_transient_jobs(4)).unwrap();
        assert_eq!(seq.measures, par.measures);
    }

    #[test]
    fn relgraph_spec_solves_bridge() {
        let out = run(r#"{
              "rel_graph": {
                "nodes": ["s", "a", "c", "t"],
                "edges": [
                  {"name": "e1", "from": "s", "to": "a", "reliability": 0.9},
                  {"name": "e2", "from": "s", "to": "c", "reliability": 0.9},
                  {"name": "e3", "from": "a", "to": "c", "reliability": 0.9},
                  {"name": "e4", "from": "a", "to": "t", "reliability": 0.9},
                  {"name": "e5", "from": "c", "to": "t", "reliability": 0.9}
                ],
                "source": "s",
                "sink": "t",
                "all_terminal": true
              }
            }"#)
        .unwrap();
        assert!(out.stats.bdd_nodes.unwrap() > 0);
        match out.measures {
            SolvedMeasures::RelGraph {
                reliability,
                all_terminal_reliability,
                minimal_path_sets,
                minimal_cut_sets,
            } => {
                let p: f64 = 0.9;
                let expected =
                    2.0 * p.powi(2) + 2.0 * p.powi(3) - 5.0 * p.powi(4) + 2.0 * p.powi(5);
                assert!((reliability - expected).abs() < 1e-12);
                assert!(all_terminal_reliability.unwrap() <= reliability);
                assert_eq!(minimal_path_sets.len(), 4);
                assert_eq!(minimal_cut_sets.len(), 4);
            }
            _ => panic!("expected rel-graph result"),
        }
    }

    #[test]
    fn spn_spec_solves_mm1k() {
        // M/M/1/3 queue: arrivals inhibited at 3 tokens. Closed-form
        // stationary distribution π_n ∝ ρ^n with ρ = λ/μ.
        let text = r#"{
          "spn": {
            "places": [{"name": "queue", "tokens": 0}],
            "transitions": [
              {"name": "arrive", "rate": 1.0,
               "outputs": [{"place": "queue"}],
               "inhibitors": [{"place": "queue", "count": 3}]},
              {"name": "serve", "rate": 2.0,
               "inputs": [{"place": "queue"}]}
            ],
            "expected_tokens": ["queue"],
            "throughput": ["serve"]
          }
        }"#;
        let out = run(text).unwrap();
        assert_eq!(out.stats.spn_markings, Some(4));
        assert_eq!(out.stats.spn_reach_workers, Some(1));
        assert!(out.stats.spn_arcs.unwrap() > 0);
        assert!(out.stats.method.is_some());
        match &out.measures {
            SolvedMeasures::Spn {
                num_markings,
                expected_tokens,
                throughput,
            } => {
                assert_eq!(*num_markings, 4);
                let rho: f64 = 0.5;
                let z: f64 = (0..4).map(|n| rho.powi(n)).sum();
                let mean: f64 = (0..4).map(|n| f64::from(n) * rho.powi(n) / z).sum();
                assert!((expected_tokens[0].1 - mean).abs() < 1e-9);
                // Served flow = arrival flow admitted: λ·(1 − π_3).
                let expect_tp = 1.0 * (1.0 - rho.powi(3) / z);
                assert!((throughput[0].1 - expect_tp).abs() < 1e-9);
            }
            _ => panic!("expected SPN result"),
        }
        // Worker count never changes the measures.
        let par = solve_str_with(text, &SolveOptions::default().with_reach_jobs(4)).unwrap();
        assert_eq!(par.stats.spn_reach_workers, Some(4));
        assert_eq!(par.measures, out.measures);
        // Serialization carries the spn block.
        let rendered = out.to_json().to_json();
        assert!(rendered.contains("\"spn\":"));
        assert!(rendered.contains("\"spn_markings\":4"));
    }

    #[test]
    fn spn_spec_semantic_errors() {
        // Unknown place in an arc.
        assert!(run(r#"{"spn": {"places": [{"name": "p", "tokens": 1}],
             "transitions": [{"name": "t", "rate": 1.0,
               "inputs": [{"place": "ghost"}]}]}}"#)
        .is_err());
        // Unknown measure targets.
        assert!(run(r#"{"spn": {"places": [{"name": "p", "tokens": 1}],
             "transitions": [{"name": "t", "rate": 1.0, "inputs": [{"place": "p"}],
               "outputs": [{"place": "p"}]}],
             "expected_tokens": ["ghost"]}}"#)
        .is_err());
        // max_markings cap fires.
        assert!(run(r#"{"spn": {"places": [{"name": "p", "tokens": 0}],
             "transitions": [{"name": "grow", "rate": 1.0,
               "outputs": [{"place": "p"}]}],
             "max_markings": 10}}"#)
        .is_err());
    }

    #[test]
    fn semantic_errors_are_reported() {
        // Unknown component reference.
        assert!(run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.9}],
                 "structure": "nope"}}"#
        )
        .is_err());
        // Duplicate names.
        assert!(run(r#"{"rbd": {"components": [
                 {"name": "a", "availability": 0.9},
                 {"name": "a", "availability": 0.8}],
                 "structure": "a"}}"#)
        .is_err());
        // Bad JSON.
        assert!(run("{").is_err());
        // Unknown state in transitions.
        assert!(run(r#"{"ctmc": {"states": ["up"],
                 "transitions": [{"from": "up", "to": "ghost", "rate": 1.0}]}}"#)
        .is_err());
    }

    #[test]
    fn k_of_n_structure_in_rbd_spec() {
        let out = run(r#"{
              "rbd": {
                "components": [
                  {"name": "a", "availability": 0.9},
                  {"name": "b", "availability": 0.9},
                  {"name": "c", "availability": 0.9}
                ],
                "structure": {"k_of_n": {"k": 2, "of": ["a", "b", "c"]}}
              }
            }"#)
        .unwrap();
        match out.measures {
            SolvedMeasures::Rbd { availability, .. } => {
                let p: f64 = 0.9;
                let expected = 3.0 * p * p * (1.0 - p) + p * p * p;
                assert!((availability - expected).abs() < 1e-12);
            }
            _ => panic!("expected RBD result"),
        }
    }

    #[test]
    fn ctmc_without_optional_measures() {
        let out = run(r#"{
              "ctmc": {
                "states": ["a", "b"],
                "transitions": [
                  {"from": "a", "to": "b", "rate": 2.0},
                  {"from": "b", "to": "a", "rate": 1.0}
                ]
              }
            }"#)
        .unwrap();
        match out.measures {
            SolvedMeasures::Ctmc {
                steady_state,
                availability,
                mttf,
                transient,
                ..
            } => {
                let pi = steady_state.unwrap();
                assert!((pi[0].1 - 1.0 / 3.0).abs() < 1e-12);
                assert!(availability.is_none());
                assert!(mttf.is_none());
                assert!(transient.is_none());
            }
            _ => panic!("expected CTMC result"),
        }
    }

    #[test]
    fn absorbing_ctmc_spec_has_no_steady_state_but_mttf_works() {
        let out = run(r#"{
              "ctmc": {
                "states": ["up", "dead"],
                "transitions": [{"from": "up", "to": "dead", "rate": 0.5}],
                "absorbing": ["dead"]
              }
            }"#)
        .unwrap();
        assert!(out.stats.method.is_none());
        match out.measures {
            SolvedMeasures::Ctmc {
                steady_state, mttf, ..
            } => {
                assert!(steady_state.is_none());
                assert!((mttf.unwrap() - 2.0).abs() < 1e-12);
            }
            _ => panic!("expected CTMC result"),
        }
    }

    #[test]
    fn accessors_pick_the_right_measure() {
        let rbd = run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        assert_eq!(rbd.measures.availability(), Some(0.5));
        assert_eq!(rbd.measures.unreliability(), None);
        assert_eq!(rbd.measures.mttf(), None);

        let ft = run(
            r#"{"fault_tree": {"events": [{"name": "e", "probability": 0.25}],
                 "top": "e"}}"#,
        )
        .unwrap();
        assert_eq!(ft.measures.unreliability(), Some(0.25));
        assert_eq!(ft.measures.availability(), None);

        let ctmc = run(r#"{"ctmc": {"states": ["up", "dead"],
                 "transitions": [{"from": "up", "to": "dead", "rate": 0.5}],
                 "absorbing": ["dead"]}}"#)
        .unwrap();
        assert_eq!(ctmc.measures.mttf(), Some(2.0));
    }

    // Two-of-three workstations behind a file server, all exponential:
    // small enough to simulate in milliseconds, rich enough to exercise
    // repair, parallel structure, and the derived-availability path.
    const SIM_RBD: &str = r#"{
      "rbd": {
        "components": [
          {"name": "ws1",
           "ttf_dist": {"exponential": {"mean": 500.0}},
           "ttr_dist": {"exponential": {"mean": 5.0}}},
          {"name": "ws2",
           "ttf_dist": {"exponential": {"mean": 500.0}},
           "ttr_dist": {"exponential": {"mean": 5.0}}},
          {"name": "fs",
           "ttf_dist": {"exponential": {"mean": 2000.0}},
           "ttr_dist": {"exponential": {"mean": 4.0}}}
        ],
        "structure": {"series": [{"parallel": ["ws1", "ws2"]}, "fs"]},
        "sim": {
          "measure": "availability",
          "horizon": 5000.0,
          "seed": 8,
          "max_replications": 128,
          "rel_precision": 0.0,
          "confidence": 0.99
        }
      }
    }"#;

    #[test]
    fn rbd_sim_spec_simulates_and_brackets_the_analytic_value() {
        let out = run(SIM_RBD).unwrap();
        assert_eq!(out.stats.sim_replications, Some(128));
        assert!(out.stats.sim_events.unwrap() > 0);
        assert_eq!(out.stats.sim_workers, Some(1));
        match &out.measures {
            SolvedMeasures::Sim {
                measure,
                point,
                ci_lower,
                ci_upper,
                confidence,
                downtime_minutes_per_year,
                ..
            } => {
                assert_eq!(measure, "availability");
                assert_eq!(*confidence, 0.99);
                // Exponential case: availability is insensitive, so the
                // analytic RBD value is exact.
                let a_ws = 500.0 / 505.0;
                let a_fs = 2000.0 / 2004.0;
                let exact = (1.0 - (1.0 - a_ws) * (1.0 - a_ws)) * a_fs;
                assert!(
                    *ci_lower <= exact && exact <= *ci_upper,
                    "analytic {exact} outside [{ci_lower}, {ci_upper}]"
                );
                assert_eq!(out.measures.availability(), Some(*point));
                assert!(downtime_minutes_per_year.is_some());
            }
            other => panic!("expected sim result, got {other:?}"),
        }
        // The JSON output is tagged "sim" and carries the CI.
        let text = out.to_json().to_json();
        assert!(text.contains("\"sim\":"));
        assert!(text.contains("\"ci_lower\":"));
        assert!(text.contains("\"sim_converged\":"));
    }

    #[test]
    fn sim_results_are_identical_at_any_worker_count() {
        let base = run(SIM_RBD).unwrap();
        for jobs in [2, 4, 8] {
            let par =
                solve_str_with(SIM_RBD, &SolveOptions::default().with_sim_jobs(jobs)).unwrap();
            assert_eq!(par.measures, base.measures, "sim_jobs {jobs}");
            assert_eq!(par.stats.sim_workers, Some(jobs));
        }
    }

    #[test]
    fn sim_options_override_the_spec_block() {
        let out = solve_str_with(
            SIM_RBD,
            &SolveOptions::default()
                .with_sim_replications(64)
                .with_sim_seed(1234),
        )
        .unwrap();
        assert_eq!(out.stats.sim_replications, Some(64));
        // A different seed must change the estimate (vanishingly
        // unlikely to collide to the same 64 trajectories).
        let base =
            solve_str_with(SIM_RBD, &SolveOptions::default().with_sim_replications(64)).unwrap();
        assert_ne!(out.measures, base.measures);
    }

    #[test]
    fn simulate_option_without_sim_block_is_an_error() {
        let spec = r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
             "structure": "a"}}"#;
        let err = solve_str_with(spec, &SolveOptions::default().with_simulate(true));
        assert!(err.is_err());
        // And the analytic path still works without the flag.
        assert!(solve_str_with(spec, &SolveOptions::default()).is_ok());
    }

    #[test]
    fn dist_components_without_sim_block_solve_analytically() {
        // No sim block: the solver derives each availability from the
        // distribution means (exact by insensitivity) and runs the BDD.
        let out = run(r#"{
          "rbd": {
            "components": [
              {"name": "a",
               "ttf_dist": {"exponential": {"mean": 900.0}},
               "ttr_dist": {"lognormal": {"mean": 100.0, "cv2": 4.0}}}
            ],
            "structure": "a"
          }
        }"#)
        .unwrap();
        match out.measures {
            SolvedMeasures::Rbd { availability, .. } => {
                assert!((availability - 0.9).abs() < 1e-12);
            }
            _ => panic!("expected analytic RBD result"),
        }
        // But a non-repairable component cannot be solved analytically.
        assert!(run(r#"{
          "rbd": {
            "components": [
              {"name": "a", "ttf_dist": {"exponential": {"mean": 900.0}}}
            ],
            "structure": "a"
          }
        }"#)
        .is_err());
    }

    #[test]
    fn fault_tree_sim_reliability_matches_analytic_series() {
        // Two independent exponential events, OR gate, no repair: the
        // analytic mission reliability is exp(-(l1+l2) t).
        let spec = r#"{
          "fault_tree": {
            "events": [
              {"name": "e1", "ttf_dist": {"exponential": {"rate": 0.002}}},
              {"name": "e2", "ttf_dist": {"exponential": {"rate": 0.001}}}
            ],
            "top": {"or": ["e1", "e2"]},
            "sim": {
              "measure": "reliability",
              "mission_time": 200.0,
              "seed": 11,
              "max_replications": 4096,
              "rel_precision": 0.0
            }
          }
        }"#;
        let out = run(spec).unwrap();
        match &out.measures {
            SolvedMeasures::Sim {
                measure,
                point,
                ci_lower,
                ci_upper,
                ..
            } => {
                assert_eq!(measure, "reliability");
                let exact = (-0.003f64 * 200.0).exp();
                assert!(
                    *ci_lower <= exact && exact <= *ci_upper,
                    "analytic {exact} outside [{ci_lower}, {ci_upper}]"
                );
                assert_eq!(out.measures.unreliability(), Some(1.0 - point));
            }
            other => panic!("expected sim result, got {other:?}"),
        }
    }

    #[test]
    fn sim_mttf_measure_reports_in_mttf_accessor() {
        let spec = r#"{
          "rbd": {
            "components": [
              {"name": "a", "ttf_dist": {"exponential": {"mean": 100.0}}}
            ],
            "structure": "a",
            "sim": {
              "measure": "mttf",
              "time_cap": 1e7,
              "seed": 3,
              "max_replications": 1024,
              "rel_precision": 0.0
            }
          }
        }"#;
        let out = run(spec).unwrap();
        let mttf = out.measures.mttf().unwrap();
        // 1024 replications of an exponential(100): well within 15%.
        assert!((mttf - 100.0).abs() < 15.0, "mttf {mttf}");
    }

    #[test]
    fn result_serializes_to_json() {
        let out = run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        let text = out.to_json().to_json_pretty();
        assert!(text.contains("availability"));
        assert!(text.contains("downtime_minutes_per_year"));
        assert!(text.contains("wall_time_ms"));
        // Output is valid JSON.
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn kind_discriminant_and_primary_value() {
        let out = run(
            r#"{"rbd": {"components": [{"name": "a", "availability": 0.5}],
                 "structure": "a"}}"#,
        )
        .unwrap();
        assert_eq!(out.measures.kind(), "rbd");
        assert_eq!(out.measures.primary_value(), Some(0.5));
        let doc = out.measures.to_json();
        let kind = crate::json::get_path(&doc, "kind").and_then(|v| v.as_str());
        assert_eq!(kind, Some("rbd"));
        assert!(crate::json::get_path(&doc, "rbd.availability").is_some());
    }
}
