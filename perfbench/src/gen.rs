//! Seeded input generators. Every document is a pure function of the
//! seed (and, for request streams, the request index), so one seed
//! always yields the same inputs.

/// SplitMix64: a small, well-mixed generator that needs no crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, tag, index)`.
    pub fn derive(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A multiplicative perturbation in `[0.8, 1.25)`.
    fn jitter(&mut self) -> f64 {
        self.range(0.8, 1.25)
    }

    /// A multiplicative perturbation in `[0.98, 1.02)`.
    fn nudge(&mut self) -> f64 {
        self.range(0.98, 1.02)
    }
}

const TAG_REQUEST: u64 = 1;
const TAG_WARMUP: u64 = 2;
const TAG_SMP: u64 = 3;
const TAG_TREE: u64 = 4;

// ---------------------------------------------------------------------
// serve_mix: small documents of every library class
// ---------------------------------------------------------------------

/// Document classes of the `serve_mix` workload, in round-robin order.
pub const SERVE_CLASSES: [&str; 10] = [
    "ctmc",
    "rbd",
    "fault_tree",
    "rel_graph",
    "spn",
    "hierarchy",
    "uncertainty",
    "bounds",
    "sim",
    "semi_markov",
];

/// Share of requests that repeat an earlier document exactly.
pub const REPEAT_SHARE: f64 = 0.25;

/// How far back a repeat may reach; well inside the daemon's memo
/// capacity, so a repeat of a completed request is a memo hit.
const REPEAT_WINDOW: usize = 32;

/// Inhibitor bound of the small tandem net: `(C + 1)^3` markings.
const SMALL_TANDEM_CAPACITY: u32 = 8;

/// The request stream of one `serve_mix` run.
#[derive(Debug, Clone, Copy)]
pub struct RequestPlan {
    seed: u64,
}

impl RequestPlan {
    pub fn new(seed: u64) -> RequestPlan {
        RequestPlan { seed }
    }

    /// Request `i`: an exact repeat of a recent request about a
    /// quarter of the time, otherwise a fresh document whose class
    /// cycles through [`SERVE_CLASSES`].
    pub fn request(&self, i: usize) -> String {
        let mut rng = Rng::derive(self.seed, TAG_REQUEST, i as u64);
        if i > 0 && rng.unit() < REPEAT_SHARE {
            let back = 1 + rng.below(i.min(REPEAT_WINDOW));
            return self.request(i - back);
        }
        serve_doc(i % SERVE_CLASSES.len(), &mut rng)
    }

    /// One warm-up document per class, drawn from a stream the
    /// measured requests never use.
    pub fn warmups(&self) -> Vec<String> {
        (0..SERVE_CLASSES.len())
            .map(|c| serve_doc(c, &mut Rng::derive(self.seed, TAG_WARMUP, c as u64)))
            .collect()
    }
}

/// One small document of class `SERVE_CLASSES[class]` with perturbed
/// parameters.
pub fn serve_doc(class: usize, r: &mut Rng) -> String {
    match SERVE_CLASSES[class] {
        "ctmc" => format!(
            r#"{{"ctmc":{{"states":["both-up","one-up","none-up"],"transitions":[{{"from":"both-up","to":"one-up","rate":{}}},{{"from":"one-up","to":"both-up","rate":{}}},{{"from":"one-up","to":"none-up","rate":{}}},{{"from":"none-up","to":"one-up","rate":{}}}],"initial":"both-up","up_states":["both-up","one-up"],"at_times":[10.0,100.0,1000.0]}}}}"#,
            0.02 * r.jitter(),
            r.jitter(),
            0.01 * r.jitter(),
            r.jitter()
        ),
        "rbd" => format!(
            r#"{{"rbd":{{"components":[{{"name":"server-1","availability":{}}},{{"name":"server-2","availability":{}}},{{"name":"storage","availability":{}}}],"structure":{{"series":[{{"parallel":["server-1","server-2"]}},"storage"]}}}}}}"#,
            1.0 - 0.004 * r.jitter(),
            1.0 - 0.004 * r.jitter(),
            1.0 - 0.0004 * r.jitter()
        ),
        "fault_tree" => format!(
            r#"{{"fault_tree":{{"events":[{{"name":"proc-0","probability":{}}},{{"name":"proc-1","probability":{}}},{{"name":"mem-0","probability":{}}},{{"name":"mem-1","probability":{}}},{{"name":"mem-2","probability":{}}},{{"name":"bus","probability":{}}}],"top":{{"or":[{{"and":["proc-0","proc-1"]}},{{"k_of_n":{{"k":2,"of":["mem-0","mem-1","mem-2"]}}}},"bus"]}}}}}}"#,
            0.01 * r.jitter(),
            0.01 * r.jitter(),
            0.05 * r.jitter(),
            0.05 * r.jitter(),
            0.05 * r.jitter(),
            0.001 * r.jitter()
        ),
        "rel_graph" => format!(
            r#"{{"rel_graph":{{"nodes":["s","a","c","t"],"edges":[{{"name":"sa","from":"s","to":"a","reliability":{}}},{{"name":"sc","from":"s","to":"c","reliability":{}}},{{"name":"bridge","from":"a","to":"c","reliability":{}}},{{"name":"at","from":"a","to":"t","reliability":{}}},{{"name":"ct","from":"c","to":"t","reliability":{}}}],"source":"s","sink":"t"}}}}"#,
            1.0 - 0.01 * r.jitter(),
            1.0 - 0.01 * r.jitter(),
            1.0 - 0.05 * r.jitter(),
            1.0 - 0.01 * r.jitter(),
            1.0 - 0.01 * r.jitter()
        ),
        // The slowest class: its misses make the latency tail. The SOR
        // iteration count follows the load, which the full jitter moves
        // by 4x, so a nudge keeps the cost, and the tail, from hanging
        // on the seed. The net is small (about 3 ms a solve): at 13^3
        // markings (12 ms, up to 40 ms in the daemon) the few solves
        // beyond p99 were stretched by whatever else the shared host
        // ran, and p99 spread 0.19 over ten seeds.
        "spn" => tandem_doc(
            SMALL_TANDEM_CAPACITY,
            [r.nudge(), 2.0 * r.nudge(), 3.0 * r.nudge(), 4.0 * r.nudge()],
            0.7,
            false,
        ),
        "hierarchy" => format!(
            r#"{{"hierarchy":{{"submodels":[{{"name":"proxy","model":{{"ctmc":{{"states":["up","down"],"transitions":[{{"from":"up","to":"down","rate":{}}},{{"from":"down","to":"up","rate":{}}}],"up_states":["up"]}}}},"measure":"availability"}},{{"name":"registrar","model":{{"ctmc":{{"states":["up","degraded","down"],"transitions":[{{"from":"up","to":"degraded","rate":{}}},{{"from":"degraded","to":"up","rate":{}}},{{"from":"degraded","to":"down","rate":{}}},{{"from":"down","to":"up","rate":{}}}],"up_states":["up","degraded"]}}}},"measure":"availability"}},{{"name":"sip-service","model":{{"rbd":{{"components":[{{"name":"proxy-pair","availability":1.0}},{{"name":"registrar-node","availability":1.0}},{{"name":"dns","availability":{}}}],"structure":{{"series":["proxy-pair","registrar-node","dns"]}}}}}},"measure":"availability","imports":[{{"from":"proxy","path":"rbd.components.0.availability"}},{{"from":"registrar","path":"rbd.components.1.availability"}}]}}],"output":"sip-service","tolerance":1e-12}}}}"#,
            0.004 * r.jitter(),
            0.5 * r.jitter(),
            0.01 * r.jitter(),
            r.jitter(),
            0.02 * r.jitter(),
            0.25 * r.jitter(),
            1.0 - 0.00005 * r.jitter()
        ),
        "uncertainty" => format!(
            r#"{{"uncertainty":{{"model":{{"ctmc":{{"states":["both-up","one-up","none-up"],"transitions":[{{"from":"both-up","to":"one-up","rate":0.02}},{{"from":"one-up","to":"both-up","rate":1.0}},{{"from":"one-up","to":"none-up","rate":{}}},{{"from":"none-up","to":"one-up","rate":{}}}],"up_states":["both-up","one-up"]}}}},"parameters":[{{"path":"ctmc.transitions.0.rate","prior":{{"rate_posterior":{{"failures":12,"total_time":{}}}}}}},{{"path":"ctmc.transitions.1.rate","prior":{{"gamma":{{"shape":4.0,"rate":{}}}}}}}],"measure":"availability","samples":200,"level":0.95,"seed":{}}}}}"#,
            0.01 * r.jitter(),
            r.jitter(),
            600.0 * r.jitter(),
            4.0 * r.jitter(),
            r.below(1 << 30)
        ),
        "bounds" => format!(
            r#"{{"bounds":{{"events":[{{"name":"gen-left","probability":{}}},{{"name":"gen-right","probability":{}}},{{"name":"apu-gen","probability":{}}},{{"name":"battery","probability":{}}}],"cut_sets":[["gen-left","gen-right"],["gen-left","apu-gen","battery"],["gen-right","apu-gen","battery"]],"path_sets":[["gen-left","gen-right"],["gen-left","apu-gen"],["gen-left","battery"],["gen-right","apu-gen"],["gen-right","battery"]],"truncation_order":2}}}}"#,
            0.0012 * r.jitter(),
            0.0012 * r.jitter(),
            0.008 * r.jitter(),
            0.0005 * r.jitter()
        ),
        "sim" => format!(
            r#"{{"rbd":{{"components":[{{"name":"ws1","ttf_dist":{{"exponential":{{"mean":{}}}}},"ttr_dist":{{"lognormal":{{"mean":{},"cv2":4.0}}}}}},{{"name":"ws2","ttf_dist":{{"exponential":{{"mean":{}}}}},"ttr_dist":{{"lognormal":{{"mean":{},"cv2":4.0}}}}}},{{"name":"fs","ttf_dist":{{"exponential":{{"mean":{}}}}},"ttr_dist":{{"lognormal":{{"mean":{},"cv2":4.0}}}}}}],"structure":{{"series":[{{"parallel":["ws1","ws2"]}},"fs"]}},"sim":{{"measure":"availability","horizon":40000.0,"seed":{},"max_replications":256,"rel_precision":0.0005,"confidence":0.99}}}}}}"#,
            5000.0 * r.jitter(),
            4.0 * r.jitter(),
            5000.0 * r.jitter(),
            4.0 * r.jitter(),
            2000.0 * r.jitter(),
            2.0 * r.jitter(),
            r.below(1 << 30)
        ),
        "semi_markov" => SmpParams::draw(r).doc(None),
        other => unreachable!("unknown serve class {other}"),
    }
}

/// The tandem SRN of `specs/tandem_large.json` with inhibitor bound
/// `capacity` on each stage: `(capacity + 1)^3` tangible markings.
pub fn tandem_doc(capacity: u32, rates: [f64; 4], forward: f64, stream: bool) -> String {
    let cap = capacity;
    let solver = if stream { r#","solver":"stream""# } else { "" };
    format!(
        r#"{{"spn":{{"places":[{{"name":"stage1","tokens":0}},{{"name":"stage2","tokens":0}},{{"name":"stage3","tokens":0}},{{"name":"routing","tokens":0}}],"transitions":[{{"name":"arrive","rate":{},"outputs":[{{"place":"stage1"}}],"inhibitors":[{{"place":"stage1","count":{cap}}}]}},{{"name":"serve1","rate":{},"inputs":[{{"place":"stage1"}}],"outputs":[{{"place":"stage2"}}],"inhibitors":[{{"place":"stage2","count":{cap}}}]}},{{"name":"serve2","rate":{},"inputs":[{{"place":"stage2"}}],"outputs":[{{"place":"routing"}}]}},{{"name":"forward","weight":{forward},"inputs":[{{"place":"routing"}}],"outputs":[{{"place":"stage3"}}],"inhibitors":[{{"place":"stage3","count":{cap}}}]}},{{"name":"rework","weight":{},"inputs":[{{"place":"routing"}}],"outputs":[{{"place":"stage2"}}]}},{{"name":"serve3","rate":{},"inputs":[{{"place":"stage3"}}]}}],"max_markings":{}{solver},"expected_tokens":["stage3"],"throughput":["serve3"]}}}}"#,
        rates[0],
        rates[1],
        rates[2],
        1.0 - forward,
        rates[3],
        (cap as usize + 1).pow(3) + 16
    )
}

// ---------------------------------------------------------------------
// batch_sweep: rejuvenation SMPs and scaled fault trees
// ---------------------------------------------------------------------

/// Parameters of one rejuvenation SMP variant (the shape of
/// `specs/rejuvenation_smp.json`). The rejuvenation sojourn stays
/// deterministic at 0.5 h in every variant: its Erlang-64 expansion
/// sets the uniformization rate, so fixing it keeps each variant's
/// transient cost the same while the answers differ.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpParams {
    pub robust_mean: f64,
    pub weibull_shape: f64,
    pub weibull_scale: f64,
    pub rejuvenation: f64,
    pub fail_mean: f64,
    pub p_rejuvenate: f64,
}

impl SmpParams {
    pub fn draw(r: &mut Rng) -> SmpParams {
        SmpParams {
            robust_mean: 240.0 * r.jitter(),
            weibull_shape: r.range(1.8, 2.2),
            weibull_scale: 2160.0 * r.jitter(),
            rejuvenation: 0.5,
            fail_mean: 2.0 * r.jitter(),
            p_rejuvenate: r.range(0.85, 0.95),
        }
    }

    /// State names, in declaration order.
    pub const STATES: [&'static str; 4] = ["robust", "failure-probable", "rejuvenation", "failed"];

    /// Embedded-chain transitions `(from, to, probability)`.
    pub fn transitions(&self) -> [(usize, usize, f64); 5] {
        [
            (0, 1, 1.0),
            (1, 2, self.p_rejuvenate),
            (1, 3, 1.0 - self.p_rejuvenate),
            (2, 0, 1.0),
            (3, 0, 1.0),
        ]
    }

    /// The document, with `interval_times` when given.
    pub fn doc(&self, interval_times: Option<&[f64]>) -> String {
        let times = interval_times.map_or(String::new(), |ts| {
            let list: Vec<String> = ts.iter().map(|t| format!("{t:?}")).collect();
            format!(r#","interval_times":[{}]"#, list.join(","))
        });
        format!(
            r#"{{"semi_markov":{{"states":[{{"name":"robust","sojourn":{{"exponential":{{"mean":{}}}}}}},{{"name":"failure-probable","sojourn":{{"weibull":{{"shape":{},"scale":{}}}}}}},{{"name":"rejuvenation","sojourn":{{"deterministic":{{"value":{}}}}}}},{{"name":"failed","sojourn":{{"lognormal":{{"mean":{},"cv2":1.0}}}}}}],"transitions":[{{"from":"robust","to":"failure-probable","probability":1.0}},{{"from":"failure-probable","to":"rejuvenation","probability":{}}},{{"from":"failure-probable","to":"failed","probability":{}}},{{"from":"rejuvenation","to":"robust","probability":1.0}},{{"from":"failed","to":"robust","probability":1.0}}],"initial":"robust","up_states":["robust","failure-probable"],"targets":["failed"]{times}}}}}"#,
            self.robust_mean,
            self.weibull_shape,
            self.weibull_scale,
            self.rejuvenation,
            self.fail_mean,
            self.p_rejuvenate,
            1.0 - self.p_rejuvenate
        )
    }
}

/// One unit's event probabilities: the five redundant pairs `(a, b)`
/// and the two single points.
pub type Unit = ([(f64, f64); 5], [f64; 2]);

/// A scaled fault tree in the shape of `bench::boeing_class_tree`:
/// each unit fails when any of five redundant pairs fails or either of
/// two single points fails; units vote 2-of-10 within a subsystem, and
/// any subsystem failing fails the top event.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    pub units: Vec<Unit>,
}

/// Units per voting subsystem.
pub const UNITS_PER_SUBSYSTEM: usize = 10;

impl TreeParams {
    pub fn draw(units: usize, r: &mut Rng) -> TreeParams {
        let mut p = || 1e-4 + 1e-3 * r.unit();
        TreeParams {
            units: (0..units)
                .map(|_| {
                    let mut pairs = [(0.0, 0.0); 5];
                    for pair in &mut pairs {
                        *pair = (p(), p());
                    }
                    (pairs, [p(), p()])
                })
                .collect(),
        }
    }

    pub fn doc(&self) -> String {
        let mut events = Vec::with_capacity(self.units.len() * 12);
        let mut unit_gates = Vec::with_capacity(self.units.len());
        for (u, (pairs, singles)) in self.units.iter().enumerate() {
            let mut inputs = Vec::with_capacity(7);
            for (i, (a, b)) in pairs.iter().enumerate() {
                events.push(format!(r#"{{"name":"u{u}p{i}a","probability":{a}}}"#));
                events.push(format!(r#"{{"name":"u{u}p{i}b","probability":{b}}}"#));
                inputs.push(format!(r#"{{"and":["u{u}p{i}a","u{u}p{i}b"]}}"#));
            }
            for (s, p) in singles.iter().enumerate() {
                events.push(format!(r#"{{"name":"u{u}s{s}","probability":{p}}}"#));
                inputs.push(format!(r#""u{u}s{s}""#));
            }
            unit_gates.push(format!(r#"{{"or":[{}]}}"#, inputs.join(",")));
        }
        let subsystems: Vec<String> = unit_gates
            .chunks(UNITS_PER_SUBSYSTEM)
            .map(|chunk| {
                if chunk.len() >= 2 {
                    format!(r#"{{"k_of_n":{{"k":2,"of":[{}]}}}}"#, chunk.join(","))
                } else {
                    chunk[0].clone()
                }
            })
            .collect();
        let top = if subsystems.len() == 1 {
            subsystems[0].clone()
        } else {
            format!(r#"{{"or":[{}]}}"#, subsystems.join(","))
        };
        format!(
            r#"{{"fault_tree":{{"events":[{}],"top":{top}}}}}"#,
            events.join(",")
        )
    }
}

/// Interval-availability horizons of every SMP variant (hours).
pub const SMP_HORIZONS: [f64; 2] = [500.0, 1000.0];
/// SMP variants per batch: more than there are trees, so the median
/// per-variant solve time falls among the (equally costly) SMPs.
pub const SMP_VARIANTS: usize = 14;
/// Fault-tree variants per batch, sized 60–120 units.
pub const TREE_VARIANTS: usize = 6;
pub const TREE_UNITS: (usize, usize) = (60, 120);

/// One `batch_sweep` variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Variant {
    Smp(SmpParams),
    Tree(TreeParams),
}

impl Variant {
    pub fn doc(&self) -> String {
        match self {
            Variant::Smp(p) => p.doc(Some(&SMP_HORIZONS)),
            Variant::Tree(t) => t.doc(),
        }
    }
}

/// The `batch_sweep` batch for `seed`. Tree sizes are spread evenly
/// over [`TREE_UNITS`] and the SMP cost is fixed (see [`SmpParams`]),
/// so every seed carries the same amount of work; the seed draws the
/// parameters. The order is fixed, largest trees first and the SMPs
/// last, so the two workers finish close together whatever the seed.
pub fn batch_variants(seed: u64) -> Vec<Variant> {
    let mut out = Vec::with_capacity(SMP_VARIANTS + TREE_VARIANTS);
    let (lo, hi) = TREE_UNITS;
    for i in (0..TREE_VARIANTS).rev() {
        let mut r = Rng::derive(seed, TAG_TREE, i as u64);
        let units = lo + (hi - lo) * i / (TREE_VARIANTS - 1);
        out.push(Variant::Tree(TreeParams::draw(units, &mut r)));
    }
    for i in 0..SMP_VARIANTS {
        out.push(Variant::Smp(SmpParams::draw(&mut Rng::derive(
            seed, TAG_SMP, i as u64,
        ))));
    }
    out
}

/// The warm-up batch: one small instance of each `batch_sweep` class.
pub fn batch_warmups(seed: u64) -> Vec<String> {
    let mut r = Rng::derive(seed, TAG_WARMUP, 100);
    vec![
        SmpParams::draw(&mut r).doc(Some(&[1000.0])),
        TreeParams::draw(40, &mut r).doc(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = RequestPlan::new(7);
        let b = RequestPlan::new(7);
        for i in 0..200 {
            assert_eq!(a.request(i), b.request(i));
        }
        assert_eq!(a.warmups(), b.warmups());
        assert_eq!(batch_variants(7), batch_variants(7));
        assert_eq!(batch_warmups(7), batch_warmups(7));
        assert_ne!(batch_variants(7), batch_variants(8));
        assert_ne!(RequestPlan::new(8).request(5), a.request(5));
    }

    #[test]
    fn about_a_quarter_of_requests_repeat() {
        let plan = RequestPlan::new(3);
        let docs: Vec<String> = (0..2000).map(|i| plan.request(i)).collect();
        let mut seen = std::collections::HashSet::new();
        let repeats = docs.iter().filter(|d| !seen.insert(d.as_str())).count();
        let share = repeats as f64 / docs.len() as f64;
        assert!((0.2..0.3).contains(&share), "repeat share {share}");
    }

    #[test]
    fn every_generated_document_parses() {
        let plan = RequestPlan::new(11);
        for doc in (0..40).map(|i| plan.request(i)).chain(plan.warmups()) {
            reliab_spec::ModelSpec::from_json_str(&doc).expect(&doc);
        }
        for v in batch_variants(11) {
            reliab_spec::ModelSpec::from_json_str(&v.doc()).expect("variant parses");
        }
        for doc in batch_warmups(11) {
            reliab_spec::ModelSpec::from_json_str(&doc).expect("warm-up parses");
        }
    }

    #[test]
    fn tree_sizes_cover_the_stratified_range() {
        let sizes: Vec<usize> = batch_variants(5)
            .iter()
            .filter_map(|v| match v {
                Variant::Tree(t) => Some(t.units.len()),
                Variant::Smp(_) => None,
            })
            .collect();
        assert_eq!(sizes.len(), TREE_VARIANTS);
        assert_eq!(*sizes.iter().min().unwrap(), TREE_UNITS.0);
        assert_eq!(*sizes.iter().max().unwrap(), TREE_UNITS.1);
    }
}
