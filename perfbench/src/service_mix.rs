//! `service_mix`: an assumed broker traffic mix, closed loop.
//!
//! An in-process `grid_broker::serve` with 2 workers on loopback and 2
//! client connections on 2 threads. Each client sends its next request
//! only after the previous terminal frame, as `submit` callers do. The
//! timed window is split into segments, each on a freshly set-up daemon.
//! The requests follow a fixed 20-slot cycle — 11 `map`, 3 `churn`,
//! 3 `open`, 3 `static`. These shares are an assumption, not measured
//! daemon traffic:
//!
//! * `map`: SLRH-1/2/3 on Cases A/B/C at 256–1024 tasks, seeded ETC/DAG
//!   ids; one in ten with online adaptation.
//! * `churn`: the same with 1–2 seeded machine losses and sometimes an
//!   arrival.
//! * `open`: seeded Poisson traces of 16–64 jobs of 16–128 tasks, one in
//!   three with background load.
//! * `static`: Max-Max, HEFT, LR-list or Min-Min.
//!
//! Within each kind the main cost and quality factors (heuristic, case,
//! size, weights, background load) cycle in a fixed order, so every run holds the same
//! strata and the seed draws everything else.
//!
//! The clients speak the public codec (`Request::to_frame`, `read_frame`,
//! `ServerMsg::from_frame`) on their own sockets, because `Connection`
//! offers no read timeout and a job that never sends its terminal frame
//! must count as failed rather than stall the run. `Connection` is used
//! for the status and shutdown requests.
//!
//! Outside the timed window: a seeded subset of reports is compared byte
//! for byte with a local `execute_map` / `execute_open`, the daemon must
//! report itself idle, and each closed scenario's `upper_bound` is
//! computed. The traced run replays each traced request in process
//! through the functions the daemon composes, to split its time by
//! layer.

use std::collections::HashMap;
use std::io::{BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use adhoc_grid::arrival::{poisson_trace, BackgroundParams, PoissonParams};
use adhoc_grid::config::{GridCase, GridConfig};
use adhoc_grid::io::wire::read_frame;
use adhoc_grid::workload::ScenarioParams;
use grid_bounds::upper_bound;
use grid_broker::{
    execute_map, execute_open, serve, BrokerConfig, BrokerHandle, Connection, Event, MapRequest,
    MapResponse, OpenRequest, Request, ScenarioSpec, ServerMsg,
};
use grid_sweep::heuristic::Heuristic;
use gridsim::validate::validate;
use lagrange::weights::Weights;
use slrh::open::run_open_in;
use slrh::{
    run_slrh_churn_observed, run_slrh_observed, Adaptation, RunContext, SlrhConfig, SlrhVariant,
    TickEvent,
};

use crate::trace::{count_stats, span, Tr, Tracer};
use crate::util::{cpu_seconds, median, ms_since, Rng};
use crate::{
    compare_traced, digest, finish_trace, latencies, slrh_variant, Args, Metric, Op, Outcome,
    Window,
};

pub const LAYERS: &[&str] = &[
    "grid.gen_ms",
    "grid.etc_cells_per_s",
    "core.map_ms",
    "core.us_per_clock_step",
    "core.clock_steps_per_op",
    "core.candidates_per_op",
    "core.commits_per_op",
    "core.pool_builds_per_op",
    "core.pool_cache_hits_per_op",
    "core.weight_updates_per_op",
    "core.commit_yield",
    "core.open_jobs_per_op",
    "core.open_map_ms",
    "sim.validate_ms",
    "sim.validate_errors",
    "baselines.map_ms",
    "bounds.ub_ms",
    "broker.submit_ms",
    "broker.queue_wait_ms",
    "broker.run_ms",
    "broker.report_ms",
    "broker.frames_per_op",
    "broker.bytes_per_op",
    "broker.encode_us_per_frame",
    "broker.decode_us_per_frame",
    "broker.overhead_ms",
    "proc.cpu_util",
    "trace.overhead_pct",
];

const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// A request without its terminal frame by then counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(20);
/// The daemon must report itself idle within this once a window ends.
const IDLE_TIMEOUT: Duration = Duration::from_secs(1);
/// Daemon shutdown must finish within this.
const JOIN_TIMEOUT: Duration = Duration::from_secs(20);
/// Ops per client whose reports every run digests.
const DIGEST_PREFIX: u64 = 12;
const SETUPS: usize = 9;
/// Warm-up requests: indices whose slots are one `map`, `static`,
/// `churn` and `open` request for either client, drawn under a fixed
/// seed so set-up time does not depend on `--seed`.
const WARM_UP_OPS: [u64; 4] = [0, 1, 3, 5];
const WARM_UP_SEED: u64 = u64::MAX;
/// Reports per kind compared byte for byte with a local execution.
const COMPARE_PER_KIND: usize = 2;
const STREAM_CLIENT: u64 = 21;
const STREAM_COMPARE: u64 = 41;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Map,
    Churn,
    Open,
    Static,
}

use Kind::{Churn as C, Map as M, Open as O, Static as S};
const CYCLE: [Kind; 20] = [M, S, M, C, M, O, M, M, S, M, C, M, O, M, M, S, M, C, M, O];
const KINDS: [Kind; 4] = [M, C, O, S];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Map => "map",
            Kind::Churn => "churn",
            Kind::Open => "open",
            Kind::Static => "static",
        }
    }

    /// Kind of op `index` of client `client`, and its ordinal among the
    /// ops of that kind. Clients are offset so they do not submit the
    /// same kind in lockstep.
    fn slot(client: u64, index: u64) -> (Kind, u64) {
        let n = CYCLE.len() as u64;
        let at = index + client * 7;
        let kind = CYCLE[(at % n) as usize];
        let per_cycle = CYCLE.iter().filter(|&&k| k == kind).count() as u64;
        let rank = CYCLE[..(at % n) as usize]
            .iter()
            .filter(|&&k| k == kind)
            .count() as u64;
        (kind, at / n * per_cycle + rank)
    }
}

#[derive(Clone)]
enum Req {
    Map(MapRequest),
    Open(OpenRequest),
}

impl Req {
    fn to_request(&self) -> Request {
        match self {
            Req::Map(r) => Request::Map(r.clone()),
            Req::Open(r) => Request::Open(r.clone()),
        }
    }

    /// The report a local execution gives for this request.
    fn execute_locally(&self, ctx: &mut RunContext) -> Result<MapResponse, String> {
        match self {
            Req::Map(r) => execute_map(0, r, ctx, &mut |_| {}),
            Req::Open(r) => execute_open(0, r, ctx, &mut |_| {}),
        }
    }
}

const WEIGHTS: [(f64, f64); 4] = [(0.5, 0.3), (0.6, 0.2), (0.4, 0.4), (0.7, 0.1)];

fn weights(index: usize) -> Weights {
    let (a, b) = WEIGHTS[index % WEIGHTS.len()];
    Weights::new(a, b).expect("static weights")
}

const CASES: [GridCase; 3] = [GridCase::A, GridCase::B, GridCase::C];
const SLRH: [Heuristic; 3] = [Heuristic::Slrh1, Heuristic::Slrh2, Heuristic::Slrh3];
const STATIC: [Heuristic; 4] = [
    Heuristic::MaxMax,
    Heuristic::Heft,
    Heuristic::LrList,
    Heuristic::MinMin,
];

/// Request `index` of client `client`: a function of the seed, the
/// client and the index alone. The request's kind comes from the cycle;
/// the main cost and quality factors (heuristic, case, size, weights,
/// background load) cycle with its ordinal among requests of that kind,
/// so every run holds the same strata, and the seed draws the rest
/// (ETC/DAG ids, churn events, arrival traces).
fn request(seed: u64, client: u64, index: u64, tr: Tr) -> (Kind, Req) {
    let (kind, ordinal) = Kind::slot(client, index);
    let j = ordinal as usize;
    let mut rng = Rng::derive(seed, STREAM_CLIENT + client, index);
    let id = op_id((client, index));
    let (client, label) = (format!("c{client}"), format!("op-{index}"));
    if kind == Kind::Open {
        let jobs = rng.range(16, 64) as u32;
        let trace_seed = rng.next_u64();
        let bg = if (j / 3).is_multiple_of(3) {
            BackgroundParams {
                max_offset: 200,
                max_util_eighths: rng.range(1, 4) as u8,
                seed: rng.next_u64(),
            }
        } else {
            BackgroundParams::none()
        };
        let arrivals = span(tr, id, "grid.gen", None, |_| {
            poisson_trace(&PoissonParams {
                jobs,
                mean_gap: 1500,
                tasks: (16, 128),
                bag_in_8: 2,
                budget_in_8: 4,
                seed: trace_seed,
            })
        });
        let req = Req::Open(OpenRequest {
            client,
            label,
            config: SlrhConfig::paper(SlrhVariant::V1, weights(j / 9)),
            case: CASES[j % 3],
            seed: trace_seed,
            jobs: arrivals,
            bg,
            losses: vec![],
            arrivals: vec![],
        });
        return (kind, req);
    }

    let (heuristic, rest) = match kind {
        Kind::Static => (STATIC[j % 4], j / 4),
        _ => (SLRH[j % 3], j / 3),
    };
    let case = CASES[rest % 3];
    let tasks = 256 * (1 + (rest / 3) % 4);
    let scenario = ScenarioSpec::Generate {
        tasks,
        case,
        etc: rng.range(0, 7) as usize,
        dag: rng.range(0, 7) as usize,
        seed: None,
        tau: None,
    };
    let mut config = SlrhConfig::paper(
        slrh_variant(heuristic).unwrap_or(SlrhVariant::V1),
        weights(rest / 12),
    );
    if kind == Kind::Map && j % 10 == 9 {
        config = config.with_adaptation(Adaptation::default());
    }
    let (mut losses, mut arrivals) = (Vec::new(), Vec::new());
    if kind == Kind::Churn {
        let machines = GridConfig::case(case).len() as u64;
        let tau = ScenarioParams::paper_scaled(tasks).tau.0;
        let lost = rng.range(1, 2.min(machines - 1));
        let first = rng.range(0, machines - 1);
        for k in 0..lost {
            let machine = ((first + k) % machines) as usize;
            losses.push((machine, rng.range(tau / 8, tau * 3 / 4)));
        }
        if lost < machines && rng.range(0, 2) == 0 {
            let machine = ((first + lost) % machines) as usize;
            arrivals.push((machine, rng.range(tau / 16, tau / 2)));
        }
    }
    let req = Req::Map(MapRequest {
        client,
        label,
        heuristic,
        config,
        scenario,
        losses,
        arrivals,
    });
    (kind, req)
}

/// Client-side timestamps of one request's frames.
struct Timeline {
    write: Instant,
    queued: Option<Instant>,
    started: Option<Instant>,
    done: Option<Instant>,
    end: Instant,
    frames: u64,
    bytes: u64,
}

/// One client socket speaking the broker protocol with a per-op
/// deadline.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send `req` and read frames until its terminal one, for at most
    /// `timeout`. Returns the report and the frame timeline.
    fn submit(
        &mut self,
        req: &Request,
        count_bytes: bool,
        timeout: Duration,
    ) -> Result<(String, Timeline), String> {
        let write = Instant::now();
        let deadline = write + timeout;
        let mut tl = Timeline {
            write,
            queued: None,
            started: None,
            done: None,
            end: write,
            frames: 0,
            bytes: 0,
        };
        self.writer
            .write_all(req.to_frame().encode().as_bytes())
            .and_then(|_| self.writer.flush())
            .map_err(|e| format!("sending: {e}"))?;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("no terminal frame within {timeout:?}"));
            }
            self.writer
                .set_read_timeout(Some(left))
                .map_err(|e| format!("setting the read timeout: {e}"))?;
            let frame = match read_frame(&mut self.reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Err("daemon closed the connection".into()),
                Err(e) => return Err(format!("reading (no terminal frame): {e}")),
            };
            let now = Instant::now();
            tl.frames += 1;
            if count_bytes {
                tl.bytes += frame.encode().len() as u64;
            }
            match ServerMsg::from_frame(&frame).map_err(|e| e.to_string())? {
                ServerMsg::Event(Event::Queued { .. }) => tl.queued = Some(now),
                ServerMsg::Event(Event::Started { .. }) => tl.started = Some(now),
                ServerMsg::Event(Event::Done { .. }) => tl.done = Some(now),
                ServerMsg::Event(_) => {}
                ServerMsg::Map(resp) => {
                    tl.end = now;
                    return Ok((resp.report, tl));
                }
                ServerMsg::Error(e) => return Err(format!("daemon error: {}", e.message)),
                other => return Err(format!("unexpected reply {other:?}")),
            }
        }
    }
}

fn field<'a>(report: &'a str, key: &str) -> Option<&'a str> {
    report
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
}

fn num(report: &str, key: &str) -> u64 {
    field(report, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Check a report and record what it says on the op.
fn take_report(op: &mut Op, report: String) {
    if field(&report, "valid") != Some("yes") {
        op.fail(format!(
            "{} op {:?}: report is not valid=yes",
            op.kind, op.key
        ));
    }
    if op.kind == "open" {
        op.jobs = num(&report, "jobs");
        op.hits = num(&report, "deadline-hits");
    } else {
        op.t100 = num(&report, "t100");
        op.tasks = num(&report, "tasks");
    }
    op.output = report;
}

fn op_id(key: (u64, u64)) -> u64 {
    (key.0 << 32) | key.1
}

/// Record the client-observed phases of a finished request.
fn record_phases(tr: &Tracer, id: u64, tl: &Timeline) {
    let root = tr.record(id, "op", None, tl.write, tl.end);
    if let (Some(q), Some(s), Some(d)) = (tl.queued, tl.started, tl.done) {
        tr.record(id, "broker.submit", Some(root), tl.write, q);
        tr.record(id, "broker.queue_wait", Some(root), q, s);
        tr.record(id, "broker.run", Some(root), s, d);
        tr.record(id, "broker.report", Some(root), d, tl.end);
    }
    tr.count(id, "broker.frames", tl.frames as f64);
    tr.count(id, "broker.bytes", tl.bytes as f64);
}

/// One client's closed loop from request `first` until `deadline`.
fn client_loop(
    seed: u64,
    client: u64,
    first: u64,
    addr: SocketAddr,
    deadline: Instant,
    tr: Tr,
) -> (Vec<Op>, Vec<Req>, Instant) {
    let (mut ops, mut reqs) = (Vec::new(), Vec::new());
    let mut conn = Client::connect(addr);
    let mut end = Instant::now();
    let mut index = first;
    while Instant::now() < deadline {
        let key = (client, index);
        let id = op_id(key);
        let (kind, req) = request(seed, client, index, tr);
        let mut op = Op::new(kind.name(), key);
        let result = match conn.as_mut() {
            Ok(c) => c.submit(&req.to_request(), tr.is_some(), OP_TIMEOUT),
            Err(e) => Err(format!("connecting: {e}")),
        };
        match result {
            Ok((report, tl)) => {
                op.latency_ms = (tl.end - tl.write).as_secs_f64() * 1e3;
                if let Some(t) = tr {
                    t.kind(id, kind.name());
                    record_phases(t, id, &tl);
                }
                take_report(&mut op, report);
                end = tl.end;
            }
            Err(e) => {
                op.fail(format!("{} op {key:?}: {e}", kind.name()));
                end = Instant::now();
                // The stream may still carry the abandoned reply.
                conn = Client::connect(addr);
            }
        }
        ops.push(op);
        reqs.push(req);
        index += 1;
    }
    (ops, reqs, end)
}

/// Both clients for `seconds`, client `c` from request `first[c]`; the
/// window ends when the last in-flight request returns.
fn window(
    seed: u64,
    seconds: f64,
    first: [u64; CLIENTS as usize],
    addr: SocketAddr,
    tr: Tr,
) -> (Window, Vec<Req>) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Op>, Vec<Req>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let from = first[c as usize];
                s.spawn(move || client_loop(seed, c, from, addr, deadline, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = results.iter().map(|r| r.2).max().unwrap_or(start);
    let (mut ops, mut reqs) = (Vec::new(), Vec::new());
    for (o, r, _) in results {
        ops.extend(o);
        reqs.extend(r);
    }
    let w = Window {
        ops,
        wall_s: (end - start).as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
    };
    (w, reqs)
}

/// Shut the daemon down and wait for it, bounded.
fn stop(handle: BrokerHandle, run_failures: &mut Vec<String>) {
    let addr = handle.addr();
    match Connection::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.shutdown())
    {
        Ok(()) => {}
        Err(e) => {
            run_failures.push(format!("shutdown request: {e}"));
            handle.shutdown();
        }
    }
    let (tx, rx) = channel();
    let joiner = std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    if rx.recv_timeout(JOIN_TIMEOUT).is_ok() {
        let _ = joiner.join();
    } else {
        // Left detached: a hung daemon is reported, and the process
        // still exits when the run ends.
        run_failures.push(format!("daemon did not stop within {JOIN_TIMEOUT:?}"));
    }
}

/// Start the daemon, connect, and run one warm-up request of each kind
/// per client.
fn set_up(run_failures: &mut Vec<String>) -> Option<BrokerHandle> {
    let handle = match serve(&BrokerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
    }) {
        Ok(h) => h,
        Err(e) => {
            run_failures.push(format!("starting the daemon: {e}"));
            return None;
        }
    };
    let addr = handle.addr();
    match Connection::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.status())
    {
        Ok(s) if s.workers == WORKERS => {}
        Ok(s) => run_failures.push(format!("daemon reports {} workers", s.workers)),
        Err(e) => run_failures.push(format!("status: {e}")),
    }
    for c in 0..CLIENTS {
        let mut client = Client::connect(addr).map_err(|e| e.to_string());
        for i in WARM_UP_OPS {
            let (kind, req) = request(WARM_UP_SEED, c, i, None);
            let mut op = Op::new(kind.name(), (c, i));
            match client
                .as_mut()
                .map_err(|e| e.clone())
                .and_then(|cl| cl.submit(&req.to_request(), false, OP_TIMEOUT))
            {
                Ok((report, _)) => take_report(&mut op, report),
                Err(e) => op.fail(format!("warm-up: {e}")),
            }
            run_failures.extend(op.failure);
        }
    }
    Some(handle)
}

/// Compare a seeded subset of reports (per kind) with local runs, and
/// fail the ops that differ. Returns how many were compared.
fn compare_reports(seed: u64, w: &mut Window, reqs: &[Req]) -> u64 {
    let mut rng = Rng::derive(seed, STREAM_COMPARE, 0);
    let mut ctx = RunContext::new();
    let mut compared = 0;
    for kind in KINDS {
        let idx: Vec<usize> = (0..w.ops.len())
            .filter(|&i| w.ops[i].kind == kind.name() && w.ops[i].failure.is_none())
            .collect();
        for _ in 0..COMPARE_PER_KIND.min(idx.len()) {
            let i = idx[rng.range(0, idx.len() as u64 - 1) as usize];
            let op = &mut w.ops[i];
            match reqs[i].execute_locally(&mut ctx) {
                Ok(local) if local.report == op.output => {}
                Ok(_) => op.fail(format!(
                    "{} op {:?}: report differs from the local run",
                    kind.name(),
                    op.key
                )),
                Err(e) => op.fail(format!("local run: {e}")),
            }
            compared += 1;
        }
    }
    compared
}

/// The `upper_bound` T100 of every closed op's scenario (cached by the
/// coordinates the ETC matrix depends on).
fn bound_ops(w: &mut Window, reqs: &[Req], tr: Tr) {
    let mut cache: HashMap<(usize, GridCase, usize), u64> = HashMap::new();
    for (op, req) in w.ops.iter_mut().zip(reqs) {
        let Req::Map(r) = req else { continue };
        let ScenarioSpec::Generate {
            tasks, case, etc, ..
        } = r.scenario
        else {
            continue;
        };
        if op.failure.is_some() {
            continue;
        }
        let ub = *cache.entry((tasks, case, etc)).or_insert_with(|| {
            let sc = r.scenario.build().expect("generated scenario");
            span(tr, op_id(op.key), "bounds.ub", None, |_| {
                upper_bound(&sc.etc, &sc.grid, sc.tau).t100 as u64
            })
        });
        op.ub_t100 = Some(ub);
    }
}

/// Replay one request in process through the functions the daemon's
/// `execute_map` / `execute_open` compose, timing each layer, then
/// encode and decode the frames the daemon streamed for it.
fn replay(req: &Req, report: &str, id: u64, ctx: &mut RunContext, tr: &Tracer) {
    let t = Some(tr);
    let start = Instant::now();
    let mut events: Vec<Event> = Vec::new();
    let encoded = span(t, id, "replay", None, |root| {
        match req {
            Req::Map(r) => {
                let sc = span(t, id, "grid.gen", root, |_| r.scenario.build())
                    .expect("generated scenario");
                tr.count(
                    id,
                    "grid.etc_cells",
                    (sc.etc.tasks() * sc.etc.machines()) as f64,
                );
                if slrh_variant(r.heuristic).is_some() {
                    let mut ticks: Vec<TickEvent> = Vec::new();
                    let mut on_tick = |e: TickEvent| ticks.push(e);
                    let (state, stats, disruptions) = span(t, id, "core.map", root, |_| {
                        if r.losses.is_empty() && r.arrivals.is_empty() {
                            let out = run_slrh_observed(&sc, &r.config, ctx, &mut on_tick);
                            (out.state, out.stats, Vec::new())
                        } else {
                            let out = run_slrh_churn_observed(
                                &sc,
                                &r.config,
                                &r.loss_events(),
                                &r.arrival_events(),
                                ctx,
                                &mut on_tick,
                            );
                            (out.state, out.stats, out.disruptions)
                        }
                    });
                    count_stats(t, id, &stats);
                    let errors = span(t, id, "sim.validate", root, |_| validate(&state)).len();
                    tr.count(id, "sim.validate_errors", errors as f64);
                    ctx.reclaim(state);
                    events.extend(ticks.iter().map(|e| Event::Tick {
                        job: 1,
                        clock: e.clock.0,
                        tick: e.tick,
                        mapped: e.mapped,
                        commits: e.commits,
                    }));
                    events.extend(
                        disruptions
                            .iter()
                            .map(|&(at, invalidated)| Event::Disruption {
                                job: 1,
                                at: at.0,
                                invalidated,
                            }),
                    );
                } else {
                    span(t, id, "baselines.map", root, |_| {
                        r.heuristic.run_in(&sc, r.config.objective.weights, ctx)
                    });
                }
            }
            Req::Open(r) => {
                let params = r.open_params();
                let mut jobs = 0;
                let out = span(t, id, "core.map", root, |core| {
                    run_open_in(
                        &params,
                        &r.config,
                        &r.loss_events(),
                        &r.arrival_events(),
                        ctx,
                        Some(&mut |state: &gridsim::state::SimState<'_>, rep: &slrh::open::OpenJobReport| {
                            let errors = span(t, id, "sim.validate", core, |_| validate(state)).len();
                            tr.count(id, "sim.validate_errors", errors as f64);
                            jobs += 1;
                            events.push(Event::Job {
                                job: 1,
                                id: rep.job.id,
                                mapped: rep.mapped,
                                tasks: rep.job.tasks,
                                hit: rep.deadline_hit,
                                cost: rep.cost,
                            });
                        }),
                    )
                });
                count_stats(t, id, &out.stats);
                tr.count(id, "core.open_jobs", jobs as f64);
            }
        }
        span(t, id, "broker.encode", root, |_| {
            let mut text = String::new();
            let mut frames = 0;
            let msgs = std::iter::once(ServerMsg::Event(Event::Started { job: 1 }))
                .chain(events.drain(..).map(ServerMsg::Event))
                .chain([
                    ServerMsg::Event(Event::Done { job: 1 }),
                    ServerMsg::Map(MapResponse {
                        job: 1,
                        report: report.to_string(),
                    }),
                ]);
            for msg in msgs {
                text.push_str(&msg.to_frame().encode());
                frames += 1;
            }
            tr.count(id, "broker.encoded_frames", frames as f64);
            text
        })
    });
    tr.count(id, "broker.replay_ms", ms_since(start));
    tr.count(id, "broker.replays", 1.0);

    span(t, id, "broker.decode", None, |_| {
        let mut cursor = Cursor::new(encoded.as_bytes());
        let mut frames = 0;
        while let Ok(Some(frame)) = read_frame(&mut cursor) {
            let _ = ServerMsg::from_frame(&frame);
            frames += 1;
        }
        tr.count(id, "broker.decoded_frames", frames as f64);
    });
}

/// Per-kind latency and the open requests' deadline-hit rate.
fn detail(w: &Window) -> Vec<Metric> {
    let mut out = Vec::new();
    for kind in KINDS {
        let ops: Vec<&Op> = w.ok_ops().filter(|o| o.kind == kind.name()).collect();
        let lat = latencies(&ops);
        out.push(Metric::new(
            &format!("latency_p50_ms.{}", kind.name()),
            "ms",
            median(&lat),
            lat.len(),
        ));
    }
    let open: Vec<&Op> = w.ok_ops().filter(|o| o.kind == "open").collect();
    let jobs: u64 = open.iter().map(|o| o.jobs).sum();
    let hits: u64 = open.iter().map(|o| o.hits).sum();
    out.push(Metric::new(
        "deadline_hit_rate",
        "ratio",
        hits as f64 / jobs.max(1) as f64,
        jobs as usize,
    ));
    out
}

/// The daemon must be idle, with all its workers, once a window ends. A
/// worker sends a job's terminal frame just before it counts the job
/// finished, so the status is polled for a short while.
fn check_idle(addr: SocketAddr, run_failures: &mut Vec<String>) {
    let deadline = Instant::now() + IDLE_TIMEOUT;
    loop {
        let status = Connection::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.status());
        match status {
            Ok(s) if s.queued == 0 && s.running == 0 && s.workers == WORKERS => return,
            Ok(s) if Instant::now() >= deadline => {
                run_failures.push(format!(
                    "daemon not idle {IDLE_TIMEOUT:?} after a window: queued={} running={} workers={}",
                    s.queued, s.running, s.workers
                ));
                return;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                run_failures.push(format!("status: {e}"));
                return;
            }
        }
    }
}

/// A window as `SETUPS` segments of `--seconds / SETUPS`, each on a
/// daemon of its own: set up (timed into `setups_s`, the first from
/// `process_start` when given), run both clients, check the daemon is
/// idle, shut it down. Spread over the run, the set-ups' median sees the
/// same host as the timed requests do. Each client's requests continue
/// their index across segments.
fn segmented_window(
    args: &Args,
    process_start: Option<Instant>,
    tr: Tr,
    setups_s: &mut Vec<f64>,
    run_failures: &mut Vec<String>,
) -> (Window, Vec<Req>) {
    let mut w = Window::default();
    let mut reqs = Vec::new();
    let mut next = [0u64; CLIENTS as usize];
    for k in 0..SETUPS {
        let t = match process_start {
            Some(t) if k == 0 => t,
            _ => Instant::now(),
        };
        let Some(handle) = set_up(run_failures) else {
            break;
        };
        setups_s.push(t.elapsed().as_secs_f64());
        let seconds = args.seconds / SETUPS as f64;
        let (seg, seg_reqs) = window(args.seed, seconds, next, handle.addr(), tr);
        for o in &seg.ops {
            next[o.key.0 as usize] = next[o.key.0 as usize].max(o.key.1 + 1);
        }
        w.extend(seg);
        reqs.extend(seg_reqs);
        check_idle(handle.addr(), run_failures);
        stop(handle, run_failures);
    }
    (w, reqs)
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut run_failures = Vec::new();
    let mut setups_s = Vec::new();
    let (mut w, reqs) = segmented_window(
        args,
        Some(process_start),
        None,
        &mut setups_s,
        &mut run_failures,
    );
    if setups_s.len() < SETUPS {
        return Outcome {
            setups_s,
            window: w,
            traced: None,
            digest: String::new(),
            compared: 0,
            run_failures,
            detail: Vec::new(),
        };
    }
    let traced = args.trace.then(|| {
        let tracer = Tracer::new();
        let (t, treqs) = segmented_window(
            args,
            None,
            Some(&tracer),
            &mut Vec::new(),
            &mut run_failures,
        );
        (tracer, t, treqs)
    });

    // Checks, all outside the timed windows.
    let compared = compare_reports(args.seed, &mut w, &reqs);
    bound_ops(&mut w, &reqs, None);

    let mut extra = Vec::new();
    let mut ctx = RunContext::new();
    for c in 0..CLIENTS {
        let done = w.ops.iter().filter(|o| o.key.0 == c).count() as u64;
        for i in done..DIGEST_PREFIX {
            let (kind, req) = request(args.seed, c, i, None);
            let mut op = Op::new(kind.name(), (c, i));
            match req.execute_locally(&mut ctx) {
                Ok(resp) => take_report(&mut op, resp.report),
                Err(e) => op.fail(e),
            }
            run_failures.extend(op.failure.clone());
            extra.push(op);
        }
    }
    let all: Vec<&Op> = w.ops.iter().chain(&extra).collect();
    let digest = digest(&all, DIGEST_PREFIX);

    let traced = traced.map(|(tracer, mut t, treqs)| {
        compare_traced(&w, &t, &mut run_failures);
        bound_ops(&mut t, &treqs, Some(&tracer));
        // Replay in submission order, interleaving the clients, for at
        // most half the window's length.
        let mut order: Vec<usize> = (0..t.ops.len())
            .filter(|&i| t.ops[i].failure.is_none())
            .collect();
        order.sort_by_key(|&i| (t.ops[i].key.1, t.ops[i].key.0));
        let budget = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
        let mut replay_ctx = RunContext::new();
        for i in order {
            if Instant::now() >= budget {
                break;
            }
            replay(
                &treqs[i],
                &t.ops[i].output,
                op_id(t.ops[i].key),
                &mut replay_ctx,
                &tracer,
            );
        }
        let view = finish_trace(&tracer, args, &mut run_failures);
        (t, view)
    });

    Outcome {
        detail: detail(&w),
        setups_s,
        window: w,
        traced,
        digest,
        compared,
        run_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_missing_terminal_frame_fails_the_op_instead_of_stalling() {
        // A daemon stand-in that reads the request and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let _ = read_frame(&mut reader);
            // Hold the connection open until the client gives up.
            let _ = read_frame(&mut reader);
        });
        let (_, req) = request(1, 0, 0, None);
        let mut client = Client::connect(addr).unwrap();
        let start = Instant::now();
        let result = client.submit(&req.to_request(), false, Duration::from_millis(200));
        let err = result.err().expect("no terminal frame must be an error");
        assert!(err.contains("terminal frame"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "{err}");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn the_cycle_holds_each_kind_in_its_share_with_consecutive_ordinals() {
        for client in 0..CLIENTS {
            let mut next: HashMap<&str, u64> = HashMap::new();
            let first: Vec<(Kind, u64)> = (0..40).map(|i| Kind::slot(client, i)).collect();
            for &(kind, ordinal) in &first[13..33] {
                let expected = next.entry(kind.name()).or_insert(ordinal);
                assert_eq!(*expected, ordinal, "{kind:?}");
                *expected += 1;
            }
            let count = |k: Kind| first[13..33].iter().filter(|s| s.0 == k).count();
            assert_eq!([count(M), count(C), count(O), count(S)], [11, 3, 3, 3]);
        }
    }
}
