//! `scale_pipeline`: one sequential library caller mapping large grids.
//!
//! Each op generates `ScaleParams::new(16384, 256)` under a per-op seed,
//! maps it with the clustered scale path on a fresh `RunContext` (a
//! one-shot caller pays that set-up every time) and validates the
//! schedule. The `upper_bound` comparison runs after the op with the
//! clock stopped: it is a check, not part of what the caller waits for.

use std::time::Instant;

use adhoc_grid::scale::ScaleParams;
use grid_bounds::upper_bound;
use gridsim::validate::validate;
use lagrange::weights::Weights;
use slrh::{run_slrh_in, RunContext, ScaleMode, SlrhConfig, SlrhVariant};

use crate::trace::{count, count_stats, span, Tr};
use crate::util::{cpu_seconds, ms_since, Rng};
use crate::{run_sequential, Args, Call, Op, Outcome};

pub const LAYERS: &[&str] = &[
    "grid.gen_ms",
    "grid.etc_cells_per_s",
    "core.map_ms",
    "core.us_per_clock_step",
    "core.clock_steps_per_op",
    "core.candidates_per_op",
    "core.commits_per_op",
    "core.commit_yield",
    "sim.validate_ms",
    "sim.validate_errors",
    "bounds.ub_ms",
    "proc.cpu_util",
    "trace.overhead_pct",
];

const TASKS: usize = 16_384;
const MACHINES: usize = 256;
/// Ops whose outputs every run digests.
const DIGEST_PREFIX: u64 = 2;
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 9;
const STREAM_OPS: u64 = 1;
const STREAM_WARMUP: u64 = 2;

fn config() -> SlrhConfig {
    let weights = Weights::new(0.5, 0.3).expect("static weights");
    SlrhConfig::paper(SlrhVariant::V1, weights).with_scale(ScaleMode {
        clusters: 16,
        spill_after: 8,
        ..ScaleMode::default()
    })
}

/// Run op `key` and return it with its latency and checked outputs.
fn op(seed: u64, key: (u64, u64), cfg: &SlrhConfig, tr: Tr) -> Op {
    let mut rng = Rng::derive(seed, key.0, key.1);
    let params = ScaleParams::new(TASKS, MACHINES).with_seed(rng.next_u64());
    let (etc_id, dag_id) = (rng.range(0, 15) as usize, rng.range(0, 15) as usize);
    let id = key.1;
    let mut op = Op::new("scale", key);

    let start = Instant::now();
    let cpu0 = cpu_seconds();
    let scenario = span(tr, id, "op", None, |root| {
        let sc = span(tr, id, "grid.gen", root, |_| {
            params.generate(etc_id, dag_id)
        });
        count(
            tr,
            id,
            "grid.etc_cells",
            (sc.etc.tasks() * sc.etc.machines()) as f64,
        );
        let mut ctx = RunContext::new();
        let out = span(tr, id, "core.map", root, |_| {
            run_slrh_in(&sc, cfg, &mut ctx)
        });
        let errors = span(tr, id, "sim.validate", root, |_| validate(&out.state));
        let m = out.state.metrics();
        count_stats(tr, id, &out.stats);
        count(tr, id, "sim.validate_errors", errors.len() as f64);
        if !errors.is_empty() {
            op.fail(format!(
                "scale op {}: {} validation errors",
                key.1,
                errors.len()
            ));
        }
        op.t100 = m.t100 as u64;
        op.tasks = m.tasks as u64;
        op.output = format!(
            "mapped={} t100={} aet={} tec={:016x} steps={} commits={} candidates={} errors={}",
            m.mapped,
            m.t100,
            m.aet.0,
            m.tec.units().to_bits(),
            out.stats.clock_steps,
            out.stats.commits,
            out.stats.candidates_evaluated,
            errors.len()
        );
        drop(out);
        sc
    });
    op.latency_ms = ms_since(start);
    op.cpu_s = cpu_seconds() - cpu0;

    let ub = span(tr, id, "bounds.ub", None, |_| {
        upper_bound(&scenario.etc, &scenario.grid, scenario.tau)
    });
    op.ub_t100 = Some(ub.t100 as u64);
    op.output.push_str(&format!(" ub={}", ub.t100));
    op
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let cfg = config();
    run_sequential(
        args,
        process_start,
        SETUPS,
        DIGEST_PREFIX,
        |call, tr| match call {
            // Fixed warm-up inputs keep set-up time independent of the seed.
            Call::WarmUp => op(0, (STREAM_WARMUP, 0), &cfg, tr),
            Call::Op(i) => op(args.seed, (STREAM_OPS, i), &cfg, tr),
        },
    )
}
