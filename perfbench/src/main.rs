//! `perfbench` — the repository benchmark's measuring binary.
//!
//! ```text
//! perfbench --workload service_mix|scale_pipeline|tune_sweep --seed N --seconds S
//!           [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! Runs one workload against the public API for `S` timed seconds,
//! checks every output, and prints a human summary followed by one JSON
//! line with every end-to-end metric (and, with `--trace 1`, every
//! per-layer metric plus the tracing overhead). `perfbench/run.py`
//! builds this binary, adds the commit and host fingerprint, and prints
//! the benchmark's result line. See `perfbench/README.md`.

mod layers;
mod scale_pipeline;
mod service_mix;
mod trace;
mod tune_sweep;
mod util;

use std::time::Instant;

use grid_sweep::heuristic::Heuristic;
use slrh::SlrhVariant;
use trace::View;
use util::{json_list, median, quantile, quote, Json};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
}

/// The SLRH variant behind a heuristic, when there is one.
pub fn slrh_variant(h: Heuristic) -> Option<SlrhVariant> {
    match h {
        Heuristic::Slrh1 => Some(SlrhVariant::V1),
        Heuristic::Slrh2 => Some(SlrhVariant::V2),
        Heuristic::Slrh3 => Some(SlrhVariant::V3),
        _ => None,
    }
}

/// One timed operation and what its outputs said.
pub struct Op {
    pub kind: &'static str,
    /// (input stream, index): the op's inputs are a function of the seed
    /// and this key alone.
    pub key: (u64, u64),
    /// The op's deterministic output text (report or result fingerprint).
    pub output: String,
    pub latency_ms: f64,
    /// Process CPU seconds (all threads) over the same span as
    /// `latency_ms`; sequential workloads only.
    pub cpu_s: f64,
    /// Why the op counts as failed (a check, an error or a timeout).
    pub failure: Option<String>,
    /// Primary-version subtasks mapped and subtasks offered, for closed
    /// schedules (`tasks == 0` for open requests).
    pub t100: u64,
    pub tasks: u64,
    /// The `upper_bound` T100 of the op's scenario, where computed.
    pub ub_t100: Option<u64>,
    /// Open-system jobs and deadline hits.
    pub jobs: u64,
    pub hits: u64,
}

impl Op {
    pub fn new(kind: &'static str, key: (u64, u64)) -> Op {
        Op {
            kind,
            key,
            output: String::new(),
            latency_ms: 0.0,
            cpu_s: 0.0,
            failure: None,
            t100: 0,
            tasks: 0,
            ub_t100: None,
            jobs: 0,
            hits: 0,
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(why.into());
        }
    }
}

/// The ops of one timed window and the wall and CPU time it took.
#[derive(Default)]
pub struct Window {
    pub ops: Vec<Op>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Window {
    pub fn ok_ops(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter().filter(|o| o.failure.is_none())
    }

    pub fn failed(&self) -> usize {
        self.ops.len() - self.ok_ops().count()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ok_ops().count() as f64 / self.wall_s.max(1e-9)
    }

    /// Append a later window of the same run.
    pub fn extend(&mut self, other: Window) {
        self.ops.extend(other.ops);
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

/// Digest of the outputs of every op whose index is below `prefix`, in
/// key order. Callers run any such op the timed window did not reach
/// (untimed) first, so the digest covers the same ops on every run.
pub fn digest(ops: &[&Op], prefix: u64) -> String {
    let mut keyed: Vec<&&Op> = ops.iter().filter(|o| o.key.1 < prefix).collect();
    keyed.sort_by_key(|o| o.key);
    keyed.dedup_by_key(|o| o.key);
    let mut d = util::Digest::new();
    for o in keyed {
        d.add(format!("{}:{}", o.key.0, o.key.1).as_bytes());
        d.add(o.output.as_bytes());
    }
    d.hex()
}

/// Tracing must not change a single output: every op the traced window
/// shares with the untraced one must produce the same output.
pub fn compare_traced(untraced: &Window, traced: &Window, run_failures: &mut Vec<String>) {
    let by_key: std::collections::HashMap<(u64, u64), &str> = untraced
        .ops
        .iter()
        .map(|o| (o.key, o.output.as_str()))
        .collect();
    let differing = traced
        .ops
        .iter()
        .filter(|o| o.failure.is_none())
        .filter(|o| by_key.get(&o.key).is_some_and(|&u| u != o.output))
        .count();
    if differing > 0 {
        run_failures.push(format!(
            "{differing} traced ops differ from their untraced runs"
        ));
    }
}

/// Close a traced window: write the spans out when asked and aggregate
/// them.
pub fn finish_trace(tracer: &trace::Tracer, args: &Args, run_failures: &mut Vec<String>) -> View {
    if let Some(path) = &args.trace_out {
        if let Err(e) = tracer.write(path) {
            run_failures.push(format!("writing {path}: {e}"));
        }
    }
    tracer.view()
}

/// A call into a sequential workload: a set-up warm-up, or op `index`
/// of the measured stream.
pub enum Call {
    WarmUp,
    Op(u64),
}

/// Run one set-up repetition and return how long it took, in seconds.
fn timed_warm_up(call: &mut impl FnMut(Call, trace::Tr) -> Op) -> f64 {
    let t = Instant::now();
    call(Call::WarmUp, None);
    t.elapsed().as_secs_f64()
}

/// Ops `0, 1, 2, …` until their latencies add up to `--seconds`. Wall
/// and CPU time are both summed over the ops' own spans, so work between
/// ops (checks, set-ups) counts in neither.
///
/// With `setups`, set-up repetition `k` of `n` runs (untimed for the
/// window) once the busy time reaches `k / n` of `--seconds`: spread
/// over the run, their median sees the same host as the timed ops do.
fn sequential_window(
    args: &Args,
    call: &mut impl FnMut(Call, trace::Tr) -> Op,
    tr: trace::Tr,
    mut setups: Option<(&mut Vec<f64>, usize)>,
) -> Window {
    let mut w = Window::default();
    let mut busy_ms = 0.0;
    while busy_ms < args.seconds * 1e3 {
        if let Some((setups_s, n)) = setups.as_mut() {
            let k = setups_s.len();
            if k < *n && busy_ms >= args.seconds * 1e3 * k as f64 / *n as f64 {
                setups_s.push(timed_warm_up(call));
            }
        }
        let o = call(Call::Op(w.ops.len() as u64), tr);
        busy_ms += o.latency_ms;
        w.cpu_s += o.cpu_s;
        w.ops.push(o);
    }
    // A short window may end before the last thresholds.
    if let Some((setups_s, n)) = setups {
        while setups_s.len() < n {
            setups_s.push(timed_warm_up(call));
        }
    }
    w.wall_s = busy_ms / 1e3;
    w
}

/// The run of one sequential caller: the first of `setups` warm-up ops
/// (timed from process start), the untraced window with the other
/// set-ups spread over it, any digested op (index below `prefix`) the
/// window did not reach, and the traced window when asked.
pub fn run_sequential(
    args: &Args,
    process_start: Instant,
    setups: usize,
    prefix: u64,
    mut call: impl FnMut(Call, trace::Tr) -> Op,
) -> Outcome {
    call(Call::WarmUp, None);
    let mut setups_s = vec![process_start.elapsed().as_secs_f64()];
    let window = sequential_window(args, &mut call, None, Some((&mut setups_s, setups)));
    let extra: Vec<Op> = (window.ops.len() as u64..prefix)
        .map(|i| call(Call::Op(i), None))
        .collect();
    let all: Vec<&Op> = window.ops.iter().chain(&extra).collect();
    let digest = digest(&all, prefix);
    let mut run_failures: Vec<String> = extra.into_iter().filter_map(|o| o.failure).collect();

    let traced = args.trace.then(|| {
        let tracer = trace::Tracer::new();
        let t = sequential_window(args, &mut call, Some(&tracer), None);
        compare_traced(&window, &t, &mut run_failures);
        let view = finish_trace(&tracer, args, &mut run_failures);
        (t, view)
    });
    Outcome {
        setups_s,
        window,
        traced,
        digest,
        compared: 0,
        run_failures,
        detail: Vec::new(),
    }
}

/// Everything a workload run produced.
pub struct Outcome {
    /// Duration of each set-up repetition (the first from process start,
    /// the others spread over the untraced window).
    pub setups_s: Vec<f64>,
    /// The untraced timed window: the end-to-end metrics come from here.
    pub window: Window,
    /// The traced window and its spans (`--trace 1` only).
    pub traced: Option<(Window, View)>,
    /// Digest of the deterministic outputs of the run's fixed op prefix.
    pub digest: String,
    /// Outputs compared byte for byte against a local execution.
    pub compared: u64,
    /// Failed checks that belong to no single op.
    pub run_failures: Vec<String>,
    /// Workload-specific end-to-end figures (reported, not bounded).
    pub detail: Vec<Metric>,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        }
    }

    fn json(&self) -> String {
        Json::new()
            .num("value", self.value)
            .str("unit", self.unit)
            .int("samples", self.samples as u64)
            .finish()
    }
}

pub fn latencies(ops: &[&Op]) -> Vec<f64> {
    ops.iter().map(|o| o.latency_ms).collect()
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let w = &out.window;
    let ok: Vec<&Op> = w.ok_ops().collect();
    let lat = latencies(&ok);
    let closed: Vec<&&Op> = ok.iter().filter(|o| o.tasks > 0).collect();
    let t100: u64 = closed.iter().map(|o| o.t100).sum();
    let tasks: u64 = closed.iter().map(|o| o.tasks).sum();
    let bounded: Vec<f64> = ok
        .iter()
        .filter_map(|o| o.ub_t100.map(|ub| o.t100 as f64 / ub.max(1) as f64))
        .collect();
    vec![
        Metric::new("setup_s", "s", median(&out.setups_s), out.setups_s.len()),
        Metric::new("ops_per_s", "1/s", w.ops_per_s(), ok.len()),
        Metric::new("latency_p50_ms", "ms", median(&lat), lat.len()),
        Metric::new(
            "success_ratio",
            "ratio",
            ok.len() as f64 / w.ops.len().max(1) as f64,
            w.ops.len(),
        ),
        Metric::new("peak_rss_mb", "MB", util::peak_rss_mb(), 1),
        Metric::new(
            "t100_ratio",
            "ratio",
            t100 as f64 / tasks.max(1) as f64,
            closed.len(),
        ),
        Metric::new("ub_fraction", "ratio", util::mean(&bounded), bounded.len()),
    ]
}

/// The tail latency, where a run holds enough ops for it: at least ten
/// samples beyond the 90th percentile.
fn tail_latency(w: &Window) -> Option<Metric> {
    let ok: Vec<&Op> = w.ok_ops().collect();
    let lat = latencies(&ok);
    (lat.len() >= 100).then(|| Metric::new("latency_p90_ms", "ms", quantile(&lat, 0.9), lat.len()))
}

fn metrics_json(ms: &[Metric]) -> String {
    let mut j = Json::new();
    for m in ms {
        j.raw(&m.name, m.json());
    }
    j.finish()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (out, applicable): (Outcome, &[&str]) = match args.workload.as_str() {
        "service_mix" => (service_mix::run(&args, process_start), service_mix::LAYERS),
        "scale_pipeline" => (
            scale_pipeline::run(&args, process_start),
            scale_pipeline::LAYERS,
        ),
        "tune_sweep" => (tune_sweep::run(&args, process_start), tune_sweep::LAYERS),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let e2e = end_to_end(&out);
    let fail_ratio = Metric::new(
        "fail_ratio",
        "ratio",
        out.window.failed() as f64 / out.window.ops.len().max(1) as f64,
        out.window.ops.len(),
    );
    let detail: Vec<Metric> = std::iter::once(fail_ratio)
        .chain(tail_latency(&out.window))
        .chain(out.detail)
        .collect();
    let mut run_failures = out.run_failures.clone();
    let mut attempted = out.window.ops.len();
    let mut failed = out.window.failed();
    let mut layer_json = String::from("{}");
    println!(
        "workload={} seed={} seconds={} digest={} compared={}",
        args.workload, args.seed, args.seconds, out.digest, out.compared
    );
    for m in e2e.iter().chain(&detail) {
        println!(
            "  {:<28} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some((traced, view)) = &out.traced {
        attempted += traced.ops.len();
        failed += traced.failed();
        let layer = layers::metrics(view, &out.window, traced);
        for m in &layer {
            println!(
                "  {:<28} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
            if applicable.contains(&m.name.as_str()) && (m.samples == 0 || !m.value.is_finite()) {
                run_failures.push(format!("traced run produced no {} sample", m.name));
            }
        }
        layer_json = metrics_json(&layer);
    }
    for f in out
        .window
        .ops
        .iter()
        .filter_map(|o| o.failure.as_ref())
        .take(5)
    {
        println!("  failed op: {f}");
    }
    for f in &run_failures {
        println!("  failed check: {f}");
    }
    let correct = failed == 0 && run_failures.is_empty();
    let failures: Vec<String> = run_failures.iter().map(|f| quote(f)).collect();
    let line = Json::new()
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .bool("correct", correct)
        .int("attempted", attempted.max(1) as u64)
        .int("failed", failed as u64)
        .str("digest", &out.digest)
        .int("compared", out.compared)
        .raw("run_failures", json_list(&failures))
        .raw(
            "setups_s",
            json_list(
                &out.setups_s
                    .iter()
                    .map(|&v| util::number(v))
                    .collect::<Vec<_>>(),
            ),
        )
        .raw("end_to_end", metrics_json(&e2e))
        .raw("detail", metrics_json(&detail))
        .raw("per_layer", layer_json)
        .finish();
    println!("{line}");
}
