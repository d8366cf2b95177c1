//! `serve_mix`: the shipped `reliab-serve` daemon as a child process
//! with default workers, driven by two keep-alive connections in a
//! closed loop over small documents of every class, a quarter of them
//! exact repeats. Transport, parse, memo and queue do almost all the
//! work; the solvers almost none.

use super::{put, write_trace, SETUPS};
use crate::gen::{RequestPlan, SERVE_CLASSES};
use crate::http::{Conn, Daemon};
use crate::stats::{mean, median, peak_rss_mb, quantile};
use crate::trace::{coverage, Tracer};
use crate::{Config, Outcome};
use reliab_spec::json::{self, JsonValue};
use reliab_spec::wire::result_response;
use reliab_spec::{solve_str_with, ModelSpec, SolveOptions};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Keep-alive connections (one closed-loop client each).
const CONNECTIONS: usize = 2;
/// Fewest requests per run, so p99 has at least ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// Requests per round; `wall_s` is the median round time.
const ROUND: usize = 100;
/// The traced pass draws its documents from this index on, so none of
/// them repeats a document of the untraced pass.
const TRACED_OFFSET: usize = 1 << 40;

/// One answered (or failed) request.
struct Sample {
    index: usize,
    start_s: f64,
    end_s: f64,
    status: u16,
    body: String,
}

/// A started daemon with its connections.
struct Server {
    daemon: Daemon,
    conns: Vec<Conn>,
}

/// Daemon spawn through `/healthz`, the connections, and one untimed
/// warm-up solve per document class.
fn setup(binary: &std::path::Path, plan: &RequestPlan) -> Result<Server, String> {
    let daemon = Daemon::spawn(binary)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(&daemon.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    for (i, doc) in plan.warmups().iter().enumerate() {
        let r = conns[i % CONNECTIONS]
            .request("POST", "/solve", doc)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up request answered {}: {}", r.status, r.body));
        }
    }
    Ok(Server { daemon, conns })
}

fn envelope(doc: &str) -> String {
    format!(r#"{{"kind":"solve","model":{doc},"stats":true}}"#)
}

/// The closed loop: each connection sends request `next` as soon as its
/// previous reply arrived, until `seconds` have passed and at least
/// `min_requests` were answered (or exactly `count` were sent).
fn closed_loop(
    conns: &mut [Conn],
    plan: &RequestPlan,
    offset: usize,
    stop: Stop,
    traced: Option<&Tracer>,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for (lane, conn) in conns.iter_mut().enumerate() {
            let (next, done, samples) = (&next, &done, &samples);
            s.spawn(move || {
                let root = traced.map(|t| t.begin("client", lane as u32, None, None));
                let mut local = Vec::new();
                loop {
                    if let Stop::Time {
                        seconds,
                        min_requests,
                    } = stop
                    {
                        if start.elapsed().as_secs_f64() >= seconds
                            && done.load(Ordering::SeqCst) >= min_requests
                        {
                            break;
                        }
                    }
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    if matches!(stop, Stop::Count(n) if k >= n) {
                        break;
                    }
                    let index = offset + k;
                    let doc = plan.request(index);
                    let body = if traced.is_some() {
                        envelope(&doc)
                    } else {
                        doc
                    };
                    let _ = conn.ensure_open();
                    let span = traced.map(|t| {
                        t.begin(
                            "serve.request",
                            lane as u32,
                            root.as_ref().map(|r| r.id()),
                            Some(index as u64),
                        )
                    });
                    let t0 = start.elapsed().as_secs_f64();
                    let reply = conn.request("POST", "/solve", &body);
                    let t1 = start.elapsed().as_secs_f64();
                    if let (Some(t), Some(span)) = (traced, span) {
                        t.end(span);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    let (status, body) = match reply {
                        Ok(r) => (r.status, r.body),
                        Err(e) => (0, e.to_string()),
                    };
                    local.push(Sample {
                        index,
                        start_s: t0,
                        end_s: t1,
                        status,
                        body,
                    });
                }
                if let (Some(t), Some(root)) = (traced, root) {
                    t.end(root);
                }
                samples
                    .lock()
                    .expect("sample lock is never poisoned")
                    .extend(local);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample lock is never poisoned");
    samples.sort_by_key(|s| s.index);
    (samples, wall)
}

#[derive(Clone, Copy)]
enum Stop {
    Time { seconds: f64, min_requests: usize },
    Count(usize),
}

/// The body the daemon must send for `doc`: an in-process solve of the
/// same document, encoded as the daemon encodes it (the CLI/daemon
/// parity contract).
fn expected_body(doc: &str, cache: &mut HashMap<String, String>) -> String {
    cache
        .entry(doc.to_owned())
        .or_insert_with(|| match solve_str_with(doc, &SolveOptions::default()) {
            Ok(report) => {
                let mut text = result_response(None, report.measures.to_json(), None).to_json();
                text.push('\n');
                text
            }
            Err(e) => format!("in-process solve failed: {e}"),
        })
        .clone()
}

/// Counts failures and checks every answer; with `stats` the bodies
/// carry solve statistics, so only their measures are compared.
fn check(samples: &[Sample], plan: &RequestPlan, stats: bool, out: &mut Outcome) {
    let mut cache = HashMap::new();
    for s in samples {
        out.attempted += 1;
        if s.status != 200 {
            out.failed += 1;
            if out.failed <= 5 {
                eprintln!(
                    "perfbench: request {} failed ({}): {}",
                    s.index,
                    s.status,
                    s.body.trim()
                );
            }
            continue;
        }
        let doc = plan.request(s.index);
        let want = expected_body(&doc, &mut cache);
        let ok = if stats {
            let measures = |text: &str| {
                json::parse(text)
                    .ok()
                    .and_then(|v| v.get("measures").map(JsonValue::to_json))
            };
            measures(&s.body).is_some() && measures(&s.body) == measures(&want)
        } else {
            s.body == want
        };
        if !ok {
            out.wrong(format!(
                "request {}: daemon answered {} but an in-process solve gives {}",
                s.index,
                s.body.trim(),
                want.trim()
            ));
        }
    }
}

fn binary(cfg: &Config) -> std::path::PathBuf {
    cfg.bin_dir.join("reliab-serve")
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let plan = RequestPlan::new(cfg.seed);
    if cfg.trace {
        return traced(cfg, &plan);
    }
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(Server { daemon, conns }) = server.take() {
            drop(conns);
            daemon.shutdown();
        }
        let t0 = Instant::now();
        server = Some(setup(&binary(cfg), &plan)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Server { daemon, mut conns } = server.expect("set up at least once");
    let stop = Stop::Time {
        seconds: cfg.seconds,
        min_requests: MIN_REQUESTS,
    };
    let (samples, wall) = closed_loop(&mut conns, &plan, 0, stop, None);
    let rss = peak_rss_mb(daemon.pid()).ok_or("no VmHWM for the daemon")?;
    drop(conns);
    daemon.shutdown();

    check(&samples, &plan, false, &mut out);
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    let rtt_ms: Vec<f64> = ok.iter().map(|s| (s.end_s - s.start_s) * 1e3).collect();
    if rtt_ms.is_empty() {
        return Err("no request was answered".to_owned());
    }
    // A round is ROUND consecutive requests; its wall time runs from its
    // first send to its last reply. Only complete rounds count.
    let round_walls: Vec<f64> = samples
        .chunks(ROUND)
        .filter(|c| c.len() == ROUND)
        .map(|c| {
            let first = c.iter().map(|s| s.start_s).fold(f64::INFINITY, f64::min);
            let last = c.iter().map(|s| s.end_s).fold(0.0, f64::max);
            last - first
        })
        .collect();
    put(&mut out, "setup_s", median(&setups).expect("setups ran"));
    put(
        &mut out,
        "wall_s",
        median(&round_walls).ok_or("no complete round")?,
    );
    put(&mut out, "p50_ms", median(&rtt_ms).expect("non-empty"));
    put(
        &mut out,
        "p99_ms",
        quantile(&rtt_ms, 0.99).expect("non-empty"),
    );
    put(&mut out, "rps", ok.len() as f64 / wall);
    put(&mut out, "peak_rss_mb", rss);
    Ok(out)
}

/// A `/metrics?format=json` snapshot, on a connection of its own.
fn metrics(addr: &str) -> Result<JsonValue, String> {
    let r = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics?format=json", ""))
        .map_err(|e| format!("/metrics: {e}"))?;
    json::parse(&r.body).map_err(|e| format!("/metrics body: {e}"))
}

fn counter(m: &JsonValue, name: &str) -> f64 {
    m.get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// Quantile `q` of the observations a histogram gained between two
/// snapshots, interpolated linearly within the bucket that holds it.
fn histogram_delta_quantile(
    before: &JsonValue,
    after: &JsonValue,
    name: &str,
    q: f64,
) -> Option<f64> {
    let buckets = |m: &JsonValue| -> Vec<(Option<f64>, f64)> {
        m.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get("buckets"))
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .map(|b| {
                (
                    b.get("le").and_then(JsonValue::as_f64),
                    b.get("count").and_then(JsonValue::as_f64).unwrap_or(0.0),
                )
            })
            .collect()
    };
    let (b0, b1) = (buckets(before), buckets(after));
    let delta: Vec<(Option<f64>, f64)> = b1
        .iter()
        .enumerate()
        .map(|(i, &(le, c))| (le, c - b0.get(i).map_or(0.0, |b| b.1)))
        .collect();
    let total: f64 = delta.iter().map(|d| d.1).sum();
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let (mut seen, mut lower) = (0.0, 0.0);
    for (le, c) in delta {
        if c > 0.0 && seen + c >= target {
            let upper = le.unwrap_or(lower);
            return Some(lower + (upper - lower) * ((target - seen) / c));
        }
        seen += c;
        lower = le.unwrap_or(lower);
    }
    Some(lower)
}

/// The traced run: an untraced pass, then a pass of as many fresh
/// requests with `stats: true` and a span per request, `/metrics`
/// snapshots around it, and an in-process replay of the traced pass's
/// documents through `spec` parse, solve and encode.
fn traced(cfg: &Config, plan: &RequestPlan) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let Server { daemon, mut conns } = setup(&binary(cfg), plan)?;
    let stop = Stop::Time {
        seconds: cfg.seconds,
        min_requests: MIN_REQUESTS,
    };
    let (plain, plain_wall) = closed_loop(&mut conns, plan, 0, stop, None);
    let response_bytes: Vec<f64> = plain
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.body.len() as f64)
        .collect();

    let workers = Conn::connect(&daemon.addr)
        .and_then(|mut c| c.request("GET", "/healthz", ""))
        .ok()
        .and_then(|r| json::parse(&r.body).ok())
        .and_then(|h| h.get("workers").and_then(JsonValue::as_f64))
        .ok_or("no worker count in /healthz")?;
    let before = metrics(&daemon.addr)?;
    let tracer = Tracer::new();
    let (samples, wall) = closed_loop(
        &mut conns,
        plan,
        TRACED_OFFSET,
        Stop::Count(plain.len()),
        Some(&tracer),
    );
    let after = metrics(&daemon.addr)?;
    drop(conns);
    daemon.shutdown();
    check(&plain, plan, false, &mut out);
    check(&samples, plan, true, &mut out);

    let mut transport_ms = Vec::new();
    let mut rtt_ms = Vec::new();
    let mut server_s = 0.0;
    // A memo hit replies with the stats of the original solve, so a
    // document already sent earlier in the pass counts no solve time.
    let mut in_order: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    in_order.sort_by_key(|s| s.index);
    let mut sent = std::collections::HashSet::new();
    for s in in_order {
        let repeat = !sent.insert(plan.request(s.index));
        let solve_ms = json::parse(&s.body).ok().and_then(|v| {
            v.get("stats")
                .and_then(|st| st.get("wall_time_ms"))
                .and_then(JsonValue::as_f64)
        });
        let Some(solve_ms) = solve_ms else {
            out.wrong(format!(
                "request {}: traced reply has no stats.wall_time_ms",
                s.index
            ));
            continue;
        };
        let solve_ms = if repeat { 0.0 } else { solve_ms };
        let rtt = (s.end_s - s.start_s) * 1e3;
        rtt_ms.push(rtt);
        transport_ms.push(rtt - solve_ms);
        server_s += solve_ms / 1e3;
    }

    // Replay the traced pass's distinct documents in-process.
    let opts = SolveOptions::default();
    let lane = CONNECTIONS as u32;
    let replay = tracer.begin("replay", lane, None, None);
    let (mut parse_us, mut solve_us, mut encode_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut by_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    for s in &samples {
        let doc = plan.request(s.index);
        if !seen.insert(doc.clone()) {
            continue;
        }
        let op = Some(s.index as u64);
        let (spec, t) = tracer.time("spec.parse", lane, Some(replay.id()), op, || {
            ModelSpec::from_json_str(&doc)
        });
        parse_us.push(t * 1e6);
        let spec = spec.map_err(|e| format!("replay parse: {e}"))?;
        let (report, t) = tracer.time("spec.solve", lane, Some(replay.id()), op, || {
            reliab_spec::solve_with(&spec, &opts)
        });
        let report = report.map_err(|e| format!("replay solve: {e}"))?;
        solve_us.push(t * 1e6);
        by_kind
            .entry(report.measures.kind())
            .or_default()
            .push(t * 1e6);
        let (text, t) = tracer.time("spec.encode", lane, Some(replay.id()), op, || {
            report.to_json().to_json()
        });
        std::hint::black_box(text);
        encode_us.push(t * 1e6);
    }
    tracer.end(replay);
    let spans = tracer.spans();
    write_trace("serve_mix", cfg.seed, &spans)?;

    let requests = counter(&after, "serve.requests") - counter(&before, "serve.requests");
    // `spec.solves` also counts the nested solves of hierarchy and
    // uncertainty documents, so hits are read from the engine's memo.
    let hits = counter(&after, "engine.memo.hits") - counter(&before, "engine.memo.hits");
    let shed = counter(&after, "serve.shed") - counter(&before, "serve.shed");
    let hq = |name: &str, q: f64| {
        histogram_delta_quantile(&before, &after, name, q)
            .ok_or(format!("{name} saw no observations"))
    };
    let transport_p50 = median(&transport_ms).ok_or("no traced reply")?;
    put(&mut out, "serve.transport_ms.p50", transport_p50);
    put(
        &mut out,
        "serve.transport_share.p50",
        transport_p50 / median(&rtt_ms).expect("non-empty"),
    );
    put(
        &mut out,
        "serve.queue_wait_ms.p99",
        hq("serve.queue_wait_ms", 0.99)?,
    );
    put(&mut out, "serve.solve_ms.p50", hq("serve.solve_ms", 0.5)?);
    put(&mut out, "serve.solve_ms.p99", hq("serve.solve_ms", 0.99)?);
    put(
        &mut out,
        "serve.shed_ratio",
        shed / samples.len().max(1) as f64,
    );
    put(
        &mut out,
        "serve.response_bytes.mean",
        mean(&response_bytes).ok_or("no untraced reply")?,
    );
    put(&mut out, "engine.memo_hit_ratio", hits / requests.max(1.0));
    put(&mut out, "engine.busy_ratio", server_s / (workers * wall));
    put(
        &mut out,
        "spec.parse_us.p50",
        median(&parse_us).ok_or("nothing replayed")?,
    );
    put(
        &mut out,
        "spec.solve_us.p50",
        median(&solve_us).ok_or("nothing replayed")?,
    );
    for kind in SERVE_CLASSES {
        let name = format!("spec.solve_us.p50.{kind}");
        match by_kind.get(kind).and_then(|v| median(v)) {
            Some(v) => put(&mut out, &name, v),
            None => out.absent(&[&name], "no document of this class in the traced pass"),
        }
    }
    put(
        &mut out,
        "spec.encode_us.p50",
        median(&encode_us).ok_or("nothing replayed")?,
    );
    put(&mut out, "trace.coverage", coverage(&spans));
    put(&mut out, "trace.overhead", wall / plain_wall);
    out.absent(
        &["engine.speedup"],
        "one daemon, no batch to spread; measured on batch_sweep",
    );
    out.absent(
        &["spn.", "stream.", "semimarkov.", "markov.", "ftree.", "bdd."],
        "only small models reach this layer here; measured at scale on tandem_large and batch_sweep",
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_reply_trips_the_parity_check() {
        let plan = RequestPlan::new(5);
        let good = expected_body(&plan.request(3), &mut HashMap::new());
        let reply = |body: &str| Sample {
            index: 3,
            start_s: 0.0,
            end_s: 0.001,
            status: 200,
            body: body.to_owned(),
        };
        let mut out = Outcome::default();
        check(&[reply(&good)], &plan, false, &mut out);
        assert!(out.wrong.is_empty(), "{:?}", out.wrong);

        let i = good.rfind(|c: char| c.is_ascii_digit()).unwrap();
        let mut bad = good.clone();
        bad.replace_range(i..=i, if &good[i..=i] == "9" { "8" } else { "9" });
        check(&[reply(&bad)], &plan, false, &mut out);
        assert_eq!(out.wrong.len(), 1);
        assert_eq!((out.attempted, out.failed), (2, 0));
    }
}
