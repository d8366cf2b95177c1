//! Fault injection for the `reliab-serve` daemon: slow-loris clients,
//! mid-solve disconnects, admission-queue overflow, oversized bodies,
//! and hot-reload racing in-flight solves. After every abuse the
//! daemon must still be serving with zero queued and zero in-flight
//! jobs — a leaked admission slot would eventually wedge the queue.
//!
//! A property test at the bottom checks the linearizability claim the
//! whole design rests on: any concurrent interleaving of K requests
//! returns exactly the responses sequential submission returns.

use proptest::prelude::*;
use reliab_engine::serve::{http_request, HttpResponse, ServeConfig, Server};
use reliab_spec::json::{self, JsonValue};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn boot(mutate: impl FnOnce(&mut ServeConfig)) -> Server {
    // No default deadline: debug-build solves time-sharing one CPU can
    // legitimately outlast the production default.
    let mut config = ServeConfig {
        default_deadline_ms: 0,
        ..ServeConfig::default()
    };
    mutate(&mut config);
    Server::bind(config).expect("ephemeral bind succeeds")
}

fn post(addr: &str, path: &str, body: &str) -> HttpResponse {
    http_request(
        addr,
        "POST",
        path,
        &[("Content-Type", "application/json")],
        body,
    )
    .expect("request reaches the daemon")
}

fn get(addr: &str, path: &str) -> HttpResponse {
    http_request(addr, "GET", path, &[], "").expect("request reaches the daemon")
}

fn error_kind(response: &HttpResponse) -> String {
    json::parse(&response.body)
        .expect("error body is JSON")
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(JsonValue::as_str)
        .expect("error body carries a kind")
        .to_owned()
}

fn health_field(addr: &str, field: &str) -> f64 {
    json::parse(&get(addr, "/healthz").body)
        .expect("healthz is JSON")
        .get(field)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("healthz lacks {field}"))
}

/// Polls `/healthz` until `field` reports `want` (daemon-side view of
/// queue/in-flight state), panicking after `secs`.
fn wait_for(addr: &str, field: &str, want: f64, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if (health_field(addr, field) - want).abs() < 0.5 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{field} never reached {want} (still {})",
            health_field(addr, field)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn assert_no_leaked_slots(server: &Server, addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (queued, in_flight) = server.queue_stats();
        if queued == 0 && in_flight == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "leaked admission slots: {queued} queued, {in_flight} in flight"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // And the daemon is still serving.
    assert_eq!(get(addr, "/healthz").status, 200);
    assert_eq!(post(addr, "/solve", QUICK_DOC).status, 200);
}

const QUICK_DOC: &str = r#"{"rbd": {
  "components": [{"name": "a", "availability": 0.99},
                 {"name": "b", "availability": 0.98}],
  "structure": {"parallel": ["a", "b"]}}}"#;

/// A deterministically *slow* document: Monte-Carlo uncertainty
/// propagation whose duration scales linearly in `samples`. The seed
/// is varied per use so the engine's memo cache cannot short-circuit
/// the work.
fn slow_doc(seed: u64, samples: usize) -> String {
    format!(
        r#"{{"uncertainty": {{
  "model": {{"ctmc": {{
    "states": ["up", "down"],
    "transitions": [{{"from": "up", "to": "down", "rate": 0.001}},
                    {{"from": "down", "to": "up", "rate": 0.1}}],
    "up_states": ["up"]}}}},
  "parameters": [{{"path": "ctmc.transitions.0.rate",
                   "prior": {{"gamma": {{"shape": 2.0, "rate": 2000.0}}}}}}],
  "samples": {samples}, "seed": {seed}, "jobs": 1}}}}"#
    )
}

/// Samples needed for a slow doc to run roughly 600 ms on this
/// machine, measured once (debug vs. release builds differ ~5x).
fn slow_samples() -> usize {
    static CALIBRATED: OnceLock<usize> = OnceLock::new();
    *CALIBRATED.get_or_init(|| {
        let probe = 4000;
        let t0 = Instant::now();
        reliab_spec::solve_str_with(&slow_doc(999, probe), &reliab_spec::SolveOptions::default())
            .expect("calibration doc solves");
        let per_sample = t0.elapsed().as_secs_f64() / probe as f64;
        ((0.6 / per_sample) as usize).clamp(10_000, 2_000_000)
    })
}

/// Overflow: with one worker and a queue of depth 2, a burst of slow
/// solves fills every slot; the next request is shed with 429
/// `overloaded` *at admission* (it never waits), and once the burst
/// drains the daemon accepts work again with nothing leaked.
#[test]
fn queue_overflow_sheds_429_then_recovers() {
    let server = boot(|c| {
        c.workers = 1;
        c.queue_depth = 2;
    });
    let addr = server.local_addr().to_string();
    // Several times the usual budget: every burst slot must still be
    // occupied once the last client thread gets scheduled, connects,
    // and is admitted — on a single-CPU box that can take a while.
    let samples = slow_samples() * 5;

    std::thread::scope(|scope| {
        let mut busy = Vec::new();
        // Stage the burst: let the first job reach the worker before
        // filling the queue, otherwise all three can land while the
        // worker is still unscheduled and the third is shed early.
        for seed in 0..3u64 {
            let addr = &addr;
            let doc = slow_doc(seed, samples + seed as usize);
            busy.push(scope.spawn(move || post(addr, "/solve", &doc)));
            if seed == 0 {
                wait_for(addr, "in_flight", 1.0, 30);
            }
        }
        // One job on the worker, two waiting: every slot occupied.
        wait_for(&addr, "queue_depth", 2.0, 30);

        let t0 = Instant::now();
        let shed = post(&addr, "/solve", &slow_doc(99, samples));
        assert_eq!(shed.status, 429);
        assert_eq!(error_kind(&shed), "overloaded");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shedding must not wait for capacity"
        );
        assert!(shed.header("retry-after").is_some());

        for handle in busy {
            let response = handle.join().expect("burst client thread");
            assert_eq!(response.status, 200, "queued work still completes");
        }
    });
    assert!(health_field(&addr, "shed") >= 1.0);
    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
}

/// Deadlines: a request stuck behind a slow solve is answered 504
/// `deadline_exceeded` when its budget elapses — whether it is still
/// queued or the solver blew past it — and nothing leaks.
#[test]
fn queued_request_deadline_expires_to_504() {
    let server = boot(|c| {
        c.workers = 1;
        c.queue_depth = 8;
    });
    let addr = server.local_addr().to_string();
    let samples = slow_samples();

    std::thread::scope(|scope| {
        let addr_ref = &addr;
        let doc = slow_doc(7, samples);
        let blocker = scope.spawn(move || post(addr_ref, "/solve", &doc));
        wait_for(&addr, "in_flight", 1.0, 30);

        let body = format!(
            "{{\"kind\":\"solve\",\"model\":{},\"deadline_ms\":50}}",
            QUICK_DOC
        );
        let expired = post(&addr, "/solve", &body);
        assert_eq!(expired.status, 504);
        assert_eq!(error_kind(&expired), "deadline_exceeded");

        assert_eq!(blocker.join().expect("blocker thread").status, 200);
    });
    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
}

/// Oversized bodies are refused 413 up front — before any queue slot
/// or solver time is spent on them.
#[test]
fn oversized_body_rejected_413() {
    let server = boot(|c| {
        c.workers = 1;
        c.max_body_bytes = 2048;
    });
    let addr = server.local_addr().to_string();

    let huge = format!(
        r#"{{"rbd": {{"components": [{{"name": "a", "availability": 0.99}}],
             "structure": "a", "padding": "{}"}}}}"#,
        "x".repeat(64 * 1024)
    );
    let refused = post(&addr, "/solve", &huge);
    assert_eq!(refused.status, 413);
    assert_eq!(error_kind(&refused), "too_large");

    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
}

/// A ~120 KB body nested 60 000 levels deep — well under the body cap —
/// used to overflow a worker's stack and abort the whole daemon. It is
/// now refused as malformed JSON, and the daemon keeps serving.
#[test]
fn deeply_nested_body_refused_400_and_daemon_survives() {
    let server = boot(|c| c.workers = 1);
    let addr = server.local_addr().to_string();

    let depth = 60_000;
    let deep = format!(r#"{{"ctmc": {}{}}}"#, "[".repeat(depth), "]".repeat(depth));
    let refused = post(&addr, "/solve", &deep);
    assert_eq!(refused.status, 400, "{}", refused.body);
    assert_eq!(error_kind(&refused), "invalid_parameter");
    assert!(refused.body.contains("deeper than"), "{}", refused.body);

    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(post(&addr, "/solve", QUICK_DOC).status, 200);
    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
}

/// Slow-loris: a client that dribbles headers (or never sends its
/// promised body) is cut off 408 once the read budget elapses, instead
/// of pinning a connection forever.
#[test]
fn slow_loris_client_cut_off_408() {
    let server = boot(|c| {
        c.workers = 1;
        c.read_timeout_ms = 300;
    });
    let addr = server.local_addr().to_string();

    // Headers promise a body that never arrives.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        .expect("partial request sent");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("daemon answers before closing");
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408, got: {}",
        response.lines().next().unwrap_or("<empty>")
    );
    assert!(response.contains("slow_client"));

    // A drip-fed header line times out the same way.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"POST /so").expect("drip sent");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("daemon answers");
    assert!(response.starts_with("HTTP/1.1 408"));

    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
}

/// Mid-solve disconnect: the client hangs up while its solve runs. The
/// worker's reply goes nowhere — and the daemon must shrug, releasing
/// the slot instead of leaking it.
#[test]
fn mid_solve_disconnect_leaks_nothing() {
    let server = boot(|c| c.workers = 1);
    let addr = server.local_addr().to_string();
    let doc = slow_doc(17, slow_samples());

    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let request = format!(
            "POST /solve HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{doc}",
            doc.len()
        );
        stream.write_all(request.as_bytes()).expect("request sent");
        stream.flush().expect("flushed");
        // Wait until the solve is actually running, then vanish.
        wait_for(&addr, "in_flight", 1.0, 30);
    } // drop = disconnect

    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
}

/// Hot reload racing in-flight solves: while clients hammer a library
/// spec, the file is rewritten and `/reload` fires concurrently. Every
/// response must be a well-formed 200 matching *one of* the two
/// versions — never an error, never a hybrid — and afterwards the
/// library serves the final version.
#[test]
fn hot_reload_races_in_flight_solves() {
    let dir = std::env::temp_dir().join(format!("reliab-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp spec dir");
    let doc_a = QUICK_DOC;
    let doc_b = r#"{"rbd": {
  "components": [{"name": "a", "availability": 0.97},
                 {"name": "b", "availability": 0.96},
                 {"name": "c", "availability": 0.95}],
  "structure": {"series": ["a", {"parallel": ["b", "c"]}]}}}"#;
    std::fs::write(dir.join("unit.json"), doc_a).expect("seed spec");

    let server = boot(|c| {
        c.workers = 2;
        c.queue_depth = 64;
        c.spec_dir = Some(dir.clone());
    });
    let addr = server.local_addr().to_string();

    let expect_a = {
        let r = post(&addr, "/solve", doc_a);
        assert_eq!(r.status, 200);
        json::parse(&r.body)
            .unwrap()
            .get("measures")
            .unwrap()
            .to_json()
    };
    let expect_b = {
        let r = post(&addr, "/solve", doc_b);
        assert_eq!(r.status, 200);
        json::parse(&r.body)
            .unwrap()
            .get("measures")
            .unwrap()
            .to_json()
    };

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for _ in 0..3 {
            let addr = &addr;
            let (expect_a, expect_b) = (&expect_a, &expect_b);
            clients.push(scope.spawn(move || {
                for _ in 0..30 {
                    let response = post(addr, "/solve", "{\"kind\":\"solve\",\"spec\":\"unit\"}");
                    assert_eq!(
                        response.status,
                        200,
                        "reload race broke a solve: {}",
                        response.body.trim_end()
                    );
                    let measures = json::parse(&response.body)
                        .unwrap()
                        .get("measures")
                        .unwrap()
                        .to_json();
                    assert!(
                        &measures == expect_a || &measures == expect_b,
                        "hybrid response during reload: {measures}"
                    );
                }
            }));
        }
        // Flip the library back and forth under the clients' feet.
        for flip in 0..20 {
            let doc = if flip % 2 == 0 { doc_b } else { doc_a };
            std::fs::write(dir.join("unit.json"), doc).expect("rewrite spec");
            let reloaded = post(&addr, "/reload", "");
            assert_eq!(reloaded.status, 200);
            std::thread::sleep(Duration::from_millis(5));
        }
        for c in clients {
            c.join().expect("client thread");
        }
    });

    // Last flip (flip=19, odd) restored doc_a; the library must agree.
    std::fs::write(dir.join("unit.json"), doc_a).expect("rewrite spec");
    assert_eq!(post(&addr, "/reload", "").status, 200);
    let final_solve = post(&addr, "/solve", "{\"kind\":\"solve\",\"spec\":\"unit\"}");
    assert_eq!(
        json::parse(&final_solve.body)
            .unwrap()
            .get("measures")
            .unwrap()
            .to_json(),
        expect_a
    );

    // A broken file is skipped by reload, not served.
    std::fs::write(dir.join("unit.json"), "{broken").expect("rewrite spec");
    assert_eq!(post(&addr, "/reload", "").status, 200);
    let gone = post(&addr, "/solve", "{\"kind\":\"solve\",\"spec\":\"unit\"}");
    assert_eq!(gone.status, 404);

    assert_no_leaked_slots(&server, &addr);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The documents the interleaving property draws from: two distinct
/// valid models plus two failure modes (schema error, model error).
const PROP_DOCS: [&str; 4] = [
    QUICK_DOC,
    r#"{"fault_tree": {
  "events": [{"name": "p", "probability": 0.01},
             {"name": "q", "probability": 0.02}],
  "top": {"and": ["p", "q"]}}}"#,
    r#"{"rbd": {"components": [{"name": "a", "availability": 1.5}],
               "structure": "a"}}"#,
    "definitely not a model",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Linearizability of the admission queue: for any pattern of
    /// document choices, submitting them all concurrently produces
    /// exactly the bodies sequential submission produces — statuses,
    /// measures, and error documents alike.
    #[test]
    fn any_interleaving_matches_sequential_submission(
        pattern in proptest::collection::vec(0usize..PROP_DOCS.len(), 2..10)
    ) {
        let server = boot(|c| {
            c.workers = 3;
            c.queue_depth = 64;
        });
        let addr = server.local_addr().to_string();

        // Sequential baseline: one request at a time, in pattern order.
        let expected: Vec<(u16, String)> = pattern
            .iter()
            .map(|&i| {
                let r = post(&addr, "/solve", PROP_DOCS[i]);
                (r.status, r.body)
            })
            .collect();

        // The same pattern, all at once.
        let concurrent: Vec<(u16, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = pattern
                .iter()
                .map(|&i| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let r = post(addr, "/solve", PROP_DOCS[i]);
                        (r.status, r.body)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).collect()
        });

        for (slot, (seq, conc)) in expected.iter().zip(&concurrent).enumerate() {
            prop_assert_eq!(
                seq, conc,
                "slot {} (doc {}) diverged under concurrency", slot, pattern[slot]
            );
        }
        let (queued, in_flight) = server.queue_stats();
        prop_assert_eq!((queued, in_flight), (0, 0), "leaked admission slots");
        server.shutdown();
    }
}
