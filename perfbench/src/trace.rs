//! In-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around its calls into each layer (name, start, end,
//! parent, lane, and the request or solve they belong to) and written
//! once, at exit, as Chrome-trace JSON in the `B`/`E` form that
//! `reliab-cli --profile` emits.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Thread lane (a connection, or the in-process replay).
    pub lane: u32,
    /// Request or solve the span belongs to.
    pub op: Option<u64>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    lane: u32,
    op: Option<u64>,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    epoch: Instant,
    state: Mutex<(u64, Vec<Span>)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new((0, Vec::new())),
        }
    }

    pub fn begin(&self, name: &str, lane: u32, parent: Option<u64>, op: Option<u64>) -> Open {
        let id = {
            let mut s = self.state.lock().expect("tracer lock is never poisoned");
            s.0 += 1;
            s.0
        };
        Open {
            id,
            parent,
            name: name.to_owned(),
            lane,
            op,
            start: Instant::now(),
        }
    }

    /// Closes a span; returns its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            lane: open.lane,
            op: open.op,
            start_us: us(open.start),
            end_us: us(end),
        };
        let secs = (end - open.start).as_secs_f64();
        self.state
            .lock()
            .expect("tracer lock is never poisoned")
            .1
            .push(span);
        secs
    }

    /// Runs `f` inside a span; returns its value and duration (s).
    pub fn time<T>(
        &self,
        name: &str,
        lane: u32,
        parent: Option<u64>,
        op: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, lane, parent, op);
        let value = f();
        (value, self.end(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .state
            .lock()
            .expect("tracer lock is never poisoned")
            .1
            .clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Share of the root spans' time that layer spans account for: the sum
/// of every non-root span's self time (its duration minus the time its
/// children cover) over the sum of root-span durations.
pub fn coverage(spans: &[Span]) -> f64 {
    let mut child_time = std::collections::HashMap::<u64, f64>::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_time.entry(p).or_default() += s.dur_us();
        }
    }
    let (mut layer_self, mut root) = (0.0, 0.0);
    for s in spans {
        if s.parent.is_none() {
            root += s.dur_us();
        } else {
            layer_self += s.dur_us() - child_time.get(&s.id).copied().unwrap_or(0.0);
        }
    }
    if root > 0.0 {
        layer_self / root
    } else {
        0.0
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Chrome-trace JSON: one `B`/`E` pair per span, ordered so that pairs
/// nest per lane (at equal timestamps, ends precede begins, deeper
/// ends first and shallower begins first).
pub fn chrome_trace(spans: &[Span]) -> String {
    let parents: std::collections::HashMap<u64, Option<u64>> =
        spans.iter().map(|s| (s.id, s.parent)).collect();
    let depth_of = |s: &Span| {
        let mut d = 0usize;
        let mut p = s.parent;
        while let Some(id) = p {
            d += 1;
            p = parents.get(&id).copied().flatten();
        }
        d
    };
    let mut events: Vec<(f64, u8, i64, &Span)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let d = depth_of(s) as i64;
        events.push((s.start_us, 1, d, s));
        events.push((s.end_us, 0, -d, s));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, (ts, kind, _, s)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"{}\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
            escape(&s.name),
            if *kind == 1 { "B" } else { "E" },
            s.lane,
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.op.map_or("null".to_owned(), |o| o.to_string()),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            lane: 0,
            op: None,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn coverage_counts_layer_self_time_over_root_time() {
        // root 0..100; layer a 10..60 with child b 20..40; layer c 70..80.
        let spans = vec![
            span(1, None, 0.0, 100.0),
            span(2, Some(1), 10.0, 60.0),
            span(3, Some(2), 20.0, 40.0),
            span(4, Some(1), 70.0, 80.0),
        ];
        // self: a 30, b 20, c 10 = 60 of 100.
        assert!((coverage(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_pairs_nest() {
        let t = Tracer::new();
        let root = t.begin("root", 0, None, None);
        let (_, _) = t.time("leaf", 0, Some(root.id()), Some(7), || ());
        t.end(root);
        let json = chrome_trace(&t.spans());
        let parsed = reliab_spec::json::parse(&json).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["B", "B", "E", "E"]);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("leaf"));
    }
}
