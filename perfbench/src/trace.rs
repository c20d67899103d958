//! In-memory spans and counters recorded by the benchmark around its
//! calls into each layer's public functions.
//!
//! A span has a name, start, end, parent and op id; a layer's self time
//! is its span's duration minus the time its child spans cover. Counters
//! are recorded at the same boundaries, per op. Nothing is written until
//! the run ends ([`Tracer::write`]). When tracing is off the workloads
//! pass `None` and every helper here is a direct call.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use slrh::RunStats;

pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    counters: Vec<(u64, &'static str, f64)>,
    kinds: HashMap<u64, &'static str>,
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    log: Mutex<Log>,
}

pub type Tr<'a> = Option<&'a Tracer>;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU32::new(0),
            log: Mutex::new(Log::default()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a span whose bounds were observed elsewhere (client-side
    /// event timestamps).
    pub fn record(
        &self,
        op: u64,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            op,
            id,
            parent,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        };
        self.log
            .lock()
            .expect("a tracing thread panicked")
            .spans
            .push(span);
        id
    }

    pub fn count(&self, op: u64, name: &'static str, value: f64) {
        self.log
            .lock()
            .expect("a tracing thread panicked")
            .counters
            .push((op, name, value));
    }

    /// Tag an op with its request kind (for per-kind layer figures).
    pub fn kind(&self, op: u64, kind: &'static str) {
        self.log
            .lock()
            .expect("a tracing thread panicked")
            .kinds
            .insert(op, kind);
    }

    /// Write every span and counter as tab-separated lines.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let log = self.log.lock().expect("a tracing thread panicked");
        let mut out = String::from("# span\top\tid\tparent\tname\tstart_us\tend_us\n");
        for s in &log.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.op, s.id, parent, s.name, s.start_us, s.end_us
            );
        }
        out.push_str("# counter\top\tname\tvalue\n");
        for (op, name, v) in &log.counters {
            let _ = writeln!(out, "counter\t{op}\t{name}\t{v}");
        }
        std::fs::write(path, out)
    }

    /// Per-op self times and counters, for the layer metrics.
    pub fn view(&self) -> View {
        let log = self.log.lock().expect("a tracing thread panicked");
        let mut child_us: HashMap<u32, f64> = HashMap::new();
        for s in &log.spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.end_us - s.start_us;
            }
        }
        let mut self_ms: HashMap<(&'static str, u64), f64> = HashMap::new();
        for s in &log.spans {
            let own =
                (s.end_us - s.start_us - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
            *self_ms.entry((s.name, s.op)).or_default() += own / 1e3;
        }
        let mut counters: HashMap<(&'static str, u64), f64> = HashMap::new();
        for &(op, name, v) in &log.counters {
            *counters.entry((name, op)).or_default() += v;
        }
        View {
            self_ms,
            counters,
            kinds: log.kinds.clone(),
        }
    }
}

/// Run `f` inside a span when tracing is on; `f` receives the span id
/// to parent its own children.
pub fn span<R>(
    tr: Tr,
    op: u64,
    name: &'static str,
    parent: Option<u32>,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    match tr {
        None => f(None),
        Some(t) => {
            let id = t.next_id.fetch_add(1, Ordering::Relaxed);
            let start = Instant::now();
            let r = f(Some(id));
            let end = Instant::now();
            let span = Span {
                op,
                id,
                parent,
                name,
                start_us: t.us(start),
                end_us: t.us(end),
            };
            t.log
                .lock()
                .expect("a tracing thread panicked")
                .spans
                .push(span);
            r
        }
    }
}

pub fn count(tr: Tr, op: u64, name: &'static str, value: f64) {
    if let Some(t) = tr {
        t.count(op, name, value);
    }
}

/// The `core` work counters of one SLRH run.
pub fn count_stats(tr: Tr, op: u64, s: &RunStats) {
    for (name, v) in [
        ("core.clock_steps", s.clock_steps),
        ("core.candidates", s.candidates_evaluated),
        ("core.commits", s.commits),
        ("core.pool_builds", s.pool_builds),
        ("core.pool_cache_hits", s.pool_cache_hits),
        ("core.weight_updates", s.weight_updates),
    ] {
        count(tr, op, name, v as f64);
    }
}

/// Aggregated trace: self time per (span name, op) and counter totals
/// per (counter name, op).
pub struct View {
    self_ms: HashMap<(&'static str, u64), f64>,
    counters: HashMap<(&'static str, u64), f64>,
    kinds: HashMap<u64, &'static str>,
}

impl View {
    /// Self time of `name` for every op that has such a span, optionally
    /// restricted to ops of one kind.
    pub fn self_ms(&self, name: &str, kind: Option<&str>) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .self_ms
            .iter()
            .filter(|((n, op), _)| {
                *n == name && kind.is_none_or(|k| self.kinds.get(op) == Some(&k))
            })
            .map(|((_, op), &ms)| (*op, ms))
            .collect();
        v.sort_by_key(|&(op, _)| op);
        v
    }

    pub fn self_ms_of(&self, name: &str, op: u64) -> f64 {
        self.self_ms.get(&(name, op)).copied().unwrap_or(0.0)
    }

    /// Counter totals per op, for the ops that recorded it.
    pub fn counter(&self, name: &str) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|((_, op), &x)| (*op, x))
            .collect();
        v.sort_by_key(|&(op, _)| op);
        v
    }

    pub fn counter_of(&self, name: &str, op: u64) -> f64 {
        self.counters.get(&(name, op)).copied().unwrap_or(0.0)
    }
}
