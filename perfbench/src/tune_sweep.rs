//! `tune_sweep`: one sequential researcher tuning (α, β).
//!
//! Each op is one tuning sweep: every heuristic (SLRH-1/2/3, Max-Max,
//! LR-list) on one 256-task paper-scaled scenario of each grid case (A,
//! B and C; ETC and DAG ids from a 4 × 4 suite, paired by the seed).
//! Per (heuristic, scenario) it searches the weights — the Figure 3
//! grid search at 0.1/0.02, or `anneal(seed, 32)` for the whole op one
//! op in four — runs the tuned heuristic once, validates it and compares
//! its T100 with `upper_bound`. One `RunContext` is carried across ops,
//! as a campaign does; the searches fan out over the rayon shim's
//! threads (at most `nproc`).
//!
//! An op holds all fifteen searches because one search costs from
//! 0.05 s to 2 s by heuristic, case and searcher: with a search per op,
//! the median sat between a cheap and a dear group of searches and
//! jumped between them as the host's speed changed. Whole sweeps cost
//! about the same from op to op, so their median moves with the host no
//! more than the run's throughput does.

use std::time::Instant;

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{Scenario, ScenarioParams};
use grid_bounds::upper_bound;
use grid_sweep::anneal::{anneal_weights_in, AnnealConfig};
use grid_sweep::heuristic::Heuristic;
use grid_sweep::weight_search::optimal_weights_with_steps_in;
use gridsim::validate::validate;
use lagrange::weights::Weights;
use slrh::{run_slrh_in, RunContext, SlrhConfig};

use crate::trace::{count, count_stats, span, Tr};
use crate::util::{cpu_seconds, ms_since, Rng};
use crate::{run_sequential, slrh_variant, Args, Call, Op, Outcome};

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
    "sim.validate_ms",
    "sim.validate_errors",
    "baselines.map_ms",
    "bounds.ub_ms",
    "sweep.search_ms",
    "sweep.evaluations_per_op",
    "sweep.ms_per_evaluation",
    "proc.cpu_util",
    "trace.overhead_pct",
];

const TASKS: usize = 256;
const HEURISTICS: [Heuristic; 5] = [
    Heuristic::Slrh1,
    Heuristic::Slrh2,
    Heuristic::Slrh3,
    Heuristic::MaxMax,
    Heuristic::LrList,
];
const DIGEST_PREFIX: u64 = 4;
const SETUPS: usize = 9;
const STREAM_OPS: u64 = 11;
const STREAM_WARMUP: u64 = 12;
/// Weights for the tuned run when no pair is constraint-compliant (the
/// paper's SLRH-2 experience); the op still maps and validates.
const FALLBACK: (f64, f64) = (0.5, 0.3);

const CASES: [GridCase; 3] = [GridCase::A, GridCase::B, GridCase::C];

/// The (ETC, DAG) ids of op `key`'s scenario for heuristic `h` (an index
/// into `HEURISTICS`) and `case` (into `CASES`) in the 4 × 4 suite. Each
/// (heuristic, case) pair meets every ETC id and every DAG id once per
/// four ops; the seed sets where in the suite each pair starts, so it
/// decides which ETC and DAG are paired.
fn suite_member(seed: u64, key: (u64, u64), h: usize, case: usize) -> (usize, usize) {
    let mut rng = Rng::derive(seed, key.0 + 100, (h * CASES.len() + case) as u64);
    let (etc, dag) = (rng.range(0, 3) + key.1, rng.range(0, 3) + key.1);
    ((etc % 4) as usize, (dag % 4) as usize)
}

/// Run op `key`: tune each of `heuristics` on one scenario per case.
fn op(
    seed: u64,
    key: (u64, u64),
    heuristics: &[Heuristic],
    anneal: bool,
    ctx: &mut RunContext,
    tr: Tr,
) -> Op {
    let mut rng = Rng::derive(seed, key.0, key.1);
    let anneal_seed = rng.next_u64();
    let mut op = Op::new(if anneal { "anneal" } else { "grid" }, key);
    let mut ub_t100 = 0;

    let start = Instant::now();
    let cpu0 = cpu_seconds();
    span(tr, key.1, "op", None, |root| {
        for (h, &heuristic) in heuristics.iter().enumerate() {
            for (c, &case) in CASES.iter().enumerate() {
                tune(
                    &mut op,
                    heuristic,
                    case,
                    suite_member(seed, key, h, c),
                    anneal.then_some(anneal_seed),
                    ctx,
                    (tr, root),
                );
                ub_t100 += op.ub_t100.take().unwrap_or(0);
            }
        }
    });
    op.latency_ms = ms_since(start);
    op.cpu_s = cpu_seconds() - cpu0;
    op.ub_t100 = Some(ub_t100);
    op
}

/// Tune `h` on one scenario and add its outcome to `op`: T100 and
/// subtasks to the op's sums, its `upper_bound` T100 to `op.ub_t100`,
/// one line to the output.
fn tune(
    op: &mut Op,
    h: Heuristic,
    case: GridCase,
    (etc_id, dag_id): (usize, usize),
    anneal_seed: Option<u64>,
    ctx: &mut RunContext,
    (tr, root): (Tr, Option<u32>),
) {
    let id = op.key.1;
    let params = ScenarioParams::paper_scaled(TASKS);
    let sc = span(tr, id, "grid.gen", root, |_| {
        Scenario::generate(&params, case, etc_id, dag_id)
    });
    count(
        tr,
        id,
        "grid.etc_cells",
        (sc.etc.tasks() * sc.etc.machines()) as f64,
    );
    let found = span(tr, id, "sweep.search", root, |_| match anneal_seed {
        Some(seed) => {
            let cfg = AnnealConfig {
                seed,
                iterations: 32,
                ..AnnealConfig::default()
            };
            anneal_weights_in(h, &sc, &cfg, ctx)
        }
        None => optimal_weights_with_steps_in(h, &sc, 0.1, 0.02, ctx),
    });
    let evaluations = found.as_ref().map_or(0, |f| f.evaluations);
    count(tr, id, "sweep.evaluations", evaluations as f64);
    let weights = found.as_ref().map_or_else(
        || Weights::new(FALLBACK.0, FALLBACK.1).expect("static weights"),
        |f| f.weights,
    );

    let (metrics, errors) = match slrh_variant(h) {
        Some(v) => {
            let cfg = SlrhConfig::paper(v, weights);
            let out = span(tr, id, "core.map", root, |_| run_slrh_in(&sc, &cfg, ctx));
            let errors = span(tr, id, "sim.validate", root, |_| validate(&out.state)).len();
            count_stats(tr, id, &out.stats);
            count(tr, id, "sim.validate_errors", errors as f64);
            let m = out.state.metrics();
            ctx.reclaim(out.state);
            (m, errors)
        }
        None => {
            // The registry validates inside `run_in` and reports only
            // the verdict.
            let r = span(tr, id, "baselines.map", root, |_| {
                h.run_in(&sc, weights, ctx)
            });
            (r.metrics, usize::from(!r.valid))
        }
    };
    if errors > 0 {
        op.fail(format!(
            "tune op {id}: {h} on case {case} failed validation"
        ));
    }
    let ub = span(tr, id, "bounds.ub", root, |_| {
        upper_bound(&sc.etc, &sc.grid, sc.tau)
    });
    op.t100 += metrics.t100 as u64;
    op.tasks += metrics.tasks as u64;
    op.ub_t100 = Some(ub.t100 as u64);
    op.output.push_str(&format!(
        "{h} {} case={case} etc={etc_id} dag={dag_id} weights={weights} searched={} \
         evaluations={evaluations} t100={} mapped={} aet={} ub={};",
        op.kind,
        found.map_or(0, |f| f.t100),
        metrics.t100,
        metrics.mapped,
        metrics.aet.0,
        ub.t100
    ));
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut ctx = RunContext::new();
    run_sequential(
        args,
        process_start,
        SETUPS,
        DIGEST_PREFIX,
        |call, tr| match call {
            // A set-up tunes SLRH-1 alone, on fixed inputs: a fifth of an
            // op, so nine of them fit in a run, and set-up time does not
            // depend on the seed.
            Call::WarmUp => op(
                0,
                (STREAM_WARMUP, 0),
                &[Heuristic::Slrh1],
                false,
                &mut ctx,
                tr,
            ),
            Call::Op(i) => op(
                args.seed,
                (STREAM_OPS, i),
                &HEURISTICS,
                i % 4 == 3,
                &mut ctx,
                tr,
            ),
        },
    )
}
