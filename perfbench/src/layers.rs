//! Per-layer metrics from a traced window's spans and counters.
//!
//! Every metric is reported on every workload; a layer the workload does
//! not exercise reads 0 with `samples = 0`. Each workload lists the
//! metrics it must produce (its `LAYERS`), and `main` fails the run when
//! one of those has no sample.

use crate::trace::View;
use crate::util::{mean, median, nproc};
use crate::{Metric, Window};

fn values(v: &[(u64, f64)]) -> Vec<f64> {
    v.iter().map(|&(_, x)| x).collect()
}

fn med(name: &str, unit: &'static str, v: &[(u64, f64)]) -> Metric {
    Metric::new(name, unit, median(&values(v)), v.len())
}

fn avg(name: &str, unit: &'static str, v: &[(u64, f64)]) -> Metric {
    Metric::new(name, unit, mean(&values(v)), v.len())
}

fn sum(v: &[(u64, f64)]) -> f64 {
    v.iter().map(|&(_, x)| x).sum()
}

/// `num / den` as a metric sampled `n` times (0 when nothing was seen).
fn ratio(name: &str, unit: &'static str, num: f64, den: f64, n: usize) -> Metric {
    let value = if den > 0.0 { num / den } else { 0.0 };
    Metric::new(name, unit, value, if den > 0.0 { n } else { 0 })
}

pub fn metrics(view: &View, untraced: &Window, traced: &Window) -> Vec<Metric> {
    let grid = view.self_ms("grid.gen", None);
    let cells = view.counter("grid.etc_cells");
    let grid_s_with_cells: f64 = cells
        .iter()
        .map(|&(op, _)| view.self_ms_of("grid.gen", op) / 1e3)
        .sum();
    let core = view.self_ms("core.map", None);
    let steps = view.counter("core.clock_steps");
    let core_ms_with_steps: f64 = steps
        .iter()
        .map(|&(op, _)| view.self_ms_of("core.map", op))
        .sum();
    let candidates = view.counter("core.candidates");
    let commits = view.counter("core.commits");
    let search = view.self_ms("sweep.search", None);
    let evaluations = view.counter("sweep.evaluations");
    let encode = view.self_ms("broker.encode", None);
    let decode = view.self_ms("broker.decode", None);
    let run = view.self_ms("broker.run", None);
    let overhead: Vec<(u64, f64)> = run
        .iter()
        .filter(|&&(op, _)| view.counter_of("broker.replays", op) > 0.0)
        .map(|&(op, ms)| (op, ms - view.counter_of("broker.replay_ms", op)))
        .collect();
    let (fast, slow) = (untraced.ops_per_s(), traced.ops_per_s());
    vec![
        med("grid.gen_ms", "ms", &grid),
        ratio(
            "grid.etc_cells_per_s",
            "1/s",
            sum(&cells),
            grid_s_with_cells,
            cells.len(),
        ),
        med("core.map_ms", "ms", &core),
        ratio(
            "core.us_per_clock_step",
            "us",
            core_ms_with_steps * 1e3,
            sum(&steps),
            steps.len(),
        ),
        avg("core.clock_steps_per_op", "count", &steps),
        avg("core.candidates_per_op", "count", &candidates),
        avg("core.commits_per_op", "count", &commits),
        avg(
            "core.pool_builds_per_op",
            "count",
            &view.counter("core.pool_builds"),
        ),
        avg(
            "core.pool_cache_hits_per_op",
            "count",
            &view.counter("core.pool_cache_hits"),
        ),
        avg(
            "core.weight_updates_per_op",
            "count",
            &view.counter("core.weight_updates"),
        ),
        ratio(
            "core.commit_yield",
            "ratio",
            sum(&commits),
            sum(&candidates),
            commits.len(),
        ),
        avg(
            "core.open_jobs_per_op",
            "count",
            &view.counter("core.open_jobs"),
        ),
        med(
            "core.open_map_ms",
            "ms",
            &view.self_ms("core.map", Some("open")),
        ),
        med("sim.validate_ms", "ms", &view.self_ms("sim.validate", None)),
        {
            let errors = view.counter("sim.validate_errors");
            Metric::new("sim.validate_errors", "count", sum(&errors), errors.len())
        },
        med(
            "baselines.map_ms",
            "ms",
            &view.self_ms("baselines.map", None),
        ),
        med("bounds.ub_ms", "ms", &view.self_ms("bounds.ub", None)),
        med("sweep.search_ms", "ms", &search),
        avg("sweep.evaluations_per_op", "count", &evaluations),
        ratio(
            "sweep.ms_per_evaluation",
            "ms",
            sum(&search),
            sum(&evaluations),
            search.len(),
        ),
        med(
            "broker.submit_ms",
            "ms",
            &view.self_ms("broker.submit", None),
        ),
        med(
            "broker.queue_wait_ms",
            "ms",
            &view.self_ms("broker.queue_wait", None),
        ),
        med("broker.run_ms", "ms", &run),
        med(
            "broker.report_ms",
            "ms",
            &view.self_ms("broker.report", None),
        ),
        avg(
            "broker.frames_per_op",
            "count",
            &view.counter("broker.frames"),
        ),
        avg(
            "broker.bytes_per_op",
            "count",
            &view.counter("broker.bytes"),
        ),
        ratio(
            "broker.encode_us_per_frame",
            "us",
            sum(&encode) * 1e3,
            sum(&view.counter("broker.encoded_frames")),
            encode.len(),
        ),
        ratio(
            "broker.decode_us_per_frame",
            "us",
            sum(&decode) * 1e3,
            sum(&view.counter("broker.decoded_frames")),
            decode.len(),
        ),
        med("broker.overhead_ms", "ms", &overhead),
        ratio(
            "proc.cpu_util",
            "ratio",
            untraced.cpu_s,
            untraced.wall_s * nproc() as f64,
            untraced.ops.len(),
        ),
        ratio(
            "trace.overhead_pct",
            "%",
            (fast - slow) * 100.0,
            fast,
            traced.ops.len(),
        ),
    ]
}
