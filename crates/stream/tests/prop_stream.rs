//! Property tests for the streaming solver tier: on randomly generated
//! bounded SPNs, the arena row source must reproduce the materialized
//! generator exactly, the streaming solvers must agree with the
//! independent references (GTH elimination, the matrix exponential) to
//! tight tolerances, and the streamed results must be bitwise
//! identical at any block count, any admitting memory budget and any
//! number of row-pass threads — steady state and uniformization alike.
//!
//! Net generation is seeded and self-contained so any failure
//! reproduces from the seed in the assertion message (same scheme as
//! the `reliab-spn` reachability property tests).

use reliab_markov::kernel::{self, RowScan};
use reliab_markov::{SteadyStateMethod, TransientOptions};
use reliab_numeric::expm;
use reliab_spn::{PlaceId, ReachabilityOptions, SpnBuilder};
use reliab_stream::{
    scan_rates, steady_state, steady_state_with_pass_threads, transient, ArenaRowSource,
    CsrRowSource, RowSource, StreamMethod, StreamOptions,
};

/// splitmix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64(&mut self) -> f64 {
        ((self.next() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// A random bounded SPN on 2–4 places: a capped token source, random
/// timed movers, and immediate transitions that strictly decrease the
/// token count (so vanishing chains terminate).
fn random_spn(seed: u64) -> reliab_spn::Spn {
    let mut rng = Rng(seed);
    let mut b = SpnBuilder::new();
    let num_places = 2 + rng.below(3) as usize;
    let cap = 3 + rng.below(3) as u32;
    let places: Vec<PlaceId> = (0..num_places)
        .map(|i| {
            let tokens = rng.below(3) as u32;
            b.place(&format!("p{i}"), tokens)
        })
        .collect();
    let pick = |rng: &mut Rng| places[rng.below(num_places as u64) as usize];

    let source = b.timed("t_src", 0.5 + rng.f64());
    let src_place = pick(&mut rng);
    b.output_arc(source, src_place, 1);
    b.inhibitor_arc(source, src_place, cap);

    let num_timed = 2 + rng.below(3);
    for k in 0..num_timed {
        let t = b.timed(&format!("t{k}"), 0.2 + 2.0 * rng.f64());
        let from = pick(&mut rng);
        let to = pick(&mut rng);
        b.input_arc(t, from, 1);
        if to != from {
            b.output_arc(t, to, 1);
            b.inhibitor_arc(t, to, cap);
        }
    }

    let num_immediate = rng.below(3);
    for k in 0..num_immediate {
        let t = b.immediate(&format!("i{k}"), 0.1 + rng.f64(), rng.below(2) as u32);
        let a = pick(&mut rng);
        let bp = pick(&mut rng);
        if a == bp {
            b.input_arc(t, a, 2);
        } else {
            b.input_arc(t, a, 1);
            b.input_arc(t, bp, 1);
        }
        if rng.below(2) == 0 {
            let out = pick(&mut rng);
            b.output_arc(t, out, 1);
            b.inhibitor_arc(t, out, cap + 2);
        }
    }

    b.build().expect("random net is well-formed")
}

#[test]
fn arena_source_matches_csr_source_on_random_nets() {
    for seed in 0..30u64 {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let solved = spn.solve_with(&ropts).expect("bounded net solves");
        let space = spn.tangible_space(&ropts).expect("space generates");
        let mut arena = ArenaRowSource::new(&space);
        let mut csr = CsrRowSource::new(solved.ctmc());

        // Exit rates recovered from regenerated rows must be bitwise
        // identical to the materialized builder's stored diagonal: the
        // arena emits the same unmerged arc stream the builder summed.
        let a = scan_rates(&mut arena).unwrap();
        assert_eq!(a.exit, solved.ctmc().exit_rates(), "seed {seed}");
        // The CSR adapter sums *merged* (column-sorted) rows, so its
        // exits agree only to round-off where parallel arcs exist.
        let c = scan_rates(&mut csr).unwrap();
        for (j, (&ce, &me)) in c.exit.iter().zip(solved.ctmc().exit_rates()).enumerate() {
            assert!(
                (ce - me).abs() <= 1e-12 * me.max(1.0),
                "seed {seed}, state {j}: {ce} vs {me}"
            );
        }
        assert!(
            (a.q - c.q).abs() <= 1e-12 * a.q.max(1.0),
            "seed {seed}: {} vs {}",
            a.q,
            c.q
        );
        assert!(a.arcs >= c.arcs, "seed {seed}: CSR merges parallel arcs");
    }
}

#[test]
fn streaming_steady_state_matches_materialized_path() {
    let mut compared = 0usize;
    for seed in 0..30u64 {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let solved = spn.solve_with(&ropts).unwrap();
        let space = spn.tangible_space(&ropts).unwrap();
        let mut arena = ArenaRowSource::new(&space);

        let exact = solved.ctmc().steady_state_with(&SteadyStateMethod::Gth);
        let streamed = steady_state(&mut arena, &StreamOptions::default());
        match (&exact, &streamed) {
            (Ok(e), Ok(s)) => {
                compared += 1;
                for (i, (e_i, s_i)) in e.iter().zip(&s.pi).enumerate() {
                    assert!(
                        (e_i - s_i).abs() < 1e-8,
                        "seed {seed}, state {i}: {e_i} vs {s_i}"
                    );
                }
            }
            // GTH has no answer for a reducible chain, even one whose
            // single closed class SOR converges on.
            (Err(_), _) if !solved.ctmc().is_irreducible() => {}
            _ => panic!(
                "seed {seed}: solvability differs (exact {exact:?} vs streamed {streamed:?})"
            ),
        }
    }
    assert!(compared >= 10, "only {compared} nets were solvable");
}

#[test]
fn streaming_transient_matches_materialized_path() {
    for seed in 0..20u64 {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let solved = spn.solve_with(&ropts).unwrap();
        let space = spn.tangible_space(&ropts).unwrap();
        let mut arena = ArenaRowSource::new(&space);
        let n = space.num_markings();

        let mut p0 = vec![0.0f64; n];
        for &(i, p) in space.initial_pairs() {
            p0[i as usize] += p;
        }
        for &t in &[0.0, 0.3, 2.0, 25.0] {
            let mut qt = solved.ctmc().generator_dense();
            for i in 0..n {
                for j in 0..n {
                    qt.set(i, j, qt.get(i, j) * t);
                }
            }
            let exact = expm(&qt).unwrap().vecmat(&p0).unwrap();
            let streamed = transient(&mut arena, &p0, t, &StreamOptions::default()).unwrap();
            for (i, (e_i, s_i)) in exact.iter().zip(&streamed.distribution).enumerate() {
                assert!(
                    (e_i - s_i).abs() < 1e-8,
                    "seed {seed}, t {t}, state {i}: {e_i} vs {s_i}"
                );
            }
        }
    }
}

#[test]
fn stream_results_are_bitwise_invariant_to_blocks_and_budget() {
    for seed in [1u64, 4, 9, 13, 22] {
        let spn = random_spn(seed);
        let ropts = ReachabilityOptions::default();
        let space = spn.tangible_space(&ropts).unwrap();
        let mut arena = ArenaRowSource::new(&space);
        let n = space.num_markings();

        // Uniformization: the kernel over a fully cached column store
        // and over stores whose blocks are regenerated from the rows on
        // every step, built on 1, 2 and 3 pass threads, and the budgeted
        // stream wrapper at several budgets, must all give one result.
        let mut p0 = vec![0.0f64; n];
        for &(i, p) in space.initial_pairs() {
            p0[i as usize] += p;
        }
        let mut uniformize = |threads: usize, blocks: usize, cached: usize| {
            let (rates, store) = RowScan::run(&mut arena, threads)
                .unwrap()
                .into_store(&mut arena, blocks, cached)
                .unwrap();
            let opts = TransientOptions::default();
            kernel::transient(|| Ok(&store), &mut arena, &rates.exit, &p0, 2.0, &opts).unwrap()
        };
        let cached = uniformize(1, 1, 1);
        for threads in [1usize, 2, 3] {
            for (blocks, kept) in [(1usize, 1usize), (1, 0), (5, 2), (32, 0)] {
                let r = uniformize(threads, blocks, kept);
                assert_eq!(
                    r.distribution, cached.distribution,
                    "seed {seed}, {blocks} blocks ({kept} cached), threads {threads}: \
                     uniformization not layout/thread-invariant"
                );
                assert_eq!(r.matvecs, cached.matvecs, "seed {seed}");
            }
        }
        let transient_floor = arena.resident_bytes() + 4 * 8 * n;
        for extra in [0usize, 512, 1 << 22] {
            let opts = StreamOptions {
                mem_budget: Some(transient_floor + extra),
                ..Default::default()
            };
            let r = transient(&mut arena, &p0, 2.0, &opts).unwrap();
            assert_eq!(
                r.distribution, cached.distribution,
                "seed {seed}, transient budget floor+{extra}: not budget-invariant"
            );
        }

        let reference = match steady_state(&mut arena, &StreamOptions::default()) {
            Ok(r) => r,
            Err(_) => continue, // absorbing / non-converging net: skip
        };
        for blocks in [1usize, 2, 5, 32, 1000] {
            for method in [StreamMethod::Sor, StreamMethod::Power] {
                let opts = StreamOptions {
                    blocks: Some(blocks),
                    method,
                    ..Default::default()
                };
                if method == StreamMethod::Sor {
                    for threads in [1usize, 2, 3] {
                        let r = steady_state_with_pass_threads(&mut arena, &opts, threads).unwrap();
                        assert_eq!(
                            r.pi, reference.pi,
                            "seed {seed}, blocks {blocks}, threads {threads}: SOR not \
                             block/thread-invariant"
                        );
                        assert_eq!(r.iterations, reference.iterations, "seed {seed}");
                    }
                } else if let Ok(r) = steady_state(&mut arena, &opts) {
                    // Power may legitimately fail to converge where SOR
                    // succeeds; when it converges it must agree loosely.
                    for i in 0..n {
                        assert!(
                            (r.pi[i] - reference.pi[i]).abs() < 1e-6,
                            "seed {seed}, blocks {blocks}, state {i}"
                        );
                    }
                }
            }
        }
        // Any budget that admits the model must leave the result
        // bitwise unchanged, whatever mix of cached and recomputed
        // blocks it produces and however many threads run the passes.
        let floor = arena.resident_bytes() + 2 * 8 * n;
        for extra in [0usize, 64, 512, 4096, 1 << 22] {
            let opts = StreamOptions {
                mem_budget: Some(floor + extra),
                ..Default::default()
            };
            for threads in [1usize, 2, 3] {
                let r = steady_state_with_pass_threads(&mut arena, &opts, threads).unwrap();
                assert_eq!(
                    r.pi, reference.pi,
                    "seed {seed}, budget floor+{extra}, threads {threads}: not budget-invariant"
                );
            }
        }
    }
}
