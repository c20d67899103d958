//! Production kernel ≡ reference pool walk under churn cascades, at 1
//! and 4 worker threads.
//!
//! The production kernel (tuned by [`slrh::ScaleMode`]) replaces the
//! per-query pool rebuild of the reference walk
//! ([`slrh::SlrhConfig::reference_walk`]) with worklist-driven frontier
//! maintenance, cached start floors, the §IV gate-rejection bitset and
//! a bound-ordered candidate scan. At `clusters: 1` every one of those
//! is a pure pruning of the same argmax, so a production run must
//! replay the reference run **byte-for-byte** — schedule, metrics,
//! disruption counts, final weights — including across machine-loss
//! cascades that unmap most of the schedule and force frontier
//! re-seeding. At `clusters > 1` the machine partition intentionally
//! changes visibility, so equality with the reference is not required
//! — but the run must still be deterministic: bit-identical across
//! repeats and across thread counts.
//!
//! The kernel itself is sequential; running under 1- and 4-thread rayon
//! pools pins the embedding the campaign sweeps use (a worker-local
//! `RunContext` must not leak state between arms).

use std::fmt::Write as _;

use adhoc_grid::config::MachineId;
use adhoc_grid::scale::ScaleParams;
use adhoc_grid::units::Time;
use lagrange::weights::Weights;
use proptest::prelude::*;
use slrh::{run_slrh_churn, DynamicOutcome, MachineLossEvent, ScaleMode, SlrhConfig, SlrhVariant};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// Deterministic full serialization of a churn run. `{:?}` on floats is
/// shortest-roundtrip, so byte equality is bit equality. Work counters
/// (`RunStats`) are deliberately excluded: the frontier prunes
/// candidates the reference walk plans, so the counts differ even though
/// every output bit matches.
fn canonical(out: &DynamicOutcome<'_>) -> String {
    let mut s = String::new();
    writeln!(s, "metrics: {:?}", out.state.metrics()).unwrap();
    writeln!(s, "disruptions: {:?}", out.disruptions).unwrap();
    writeln!(
        s,
        "final_weights: {:016x}/{:016x}",
        out.final_weights.alpha().to_bits(),
        out.final_weights.beta().to_bits(),
    )
    .unwrap();
    for a in out.state.schedule().assignments() {
        writeln!(s, "{a:?}").unwrap();
    }
    for t in out.state.schedule().transfers() {
        writeln!(s, "{t:?}").unwrap();
    }
    s
}

/// One generated churn case on a scale workload.
#[derive(Clone, Debug)]
struct Case {
    tasks: usize,
    machines: usize,
    etc_id: usize,
    dag_id: usize,
    weights: Weights,
    /// `(machine index, tick fraction of tau)` — losses mid-run.
    losses: Vec<(usize, f64)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::sample::select(&[64usize, 128, 256]),
        4usize..=12,
        0usize..10,
        0usize..10,
        (8u32..=16, 0u32..=8),
        prop::collection::vec((0usize..12, 0.05f64..0.9), 0..3),
    )
        .prop_map(|(tasks, machines, etc_id, dag_id, (a, b), losses)| {
            // Keep the lattice point on the weight simplex: β ≤ 1 − α.
            let b = b.min(20 - a);
            Case {
                tasks,
                machines,
                etc_id,
                dag_id,
                weights: Weights::new(f64::from(a) * 0.05, f64::from(b) * 0.05)
                    .expect("lattice weights are on the simplex"),
                losses,
            }
        })
}

/// Run `case` on the kernel tuned by `scale`, or on the reference walk
/// when `scale` is `None`.
fn run_case(case: &Case, scale: Option<ScaleMode>) -> String {
    let params = ScaleParams::new(case.tasks, case.machines);
    let sc = params.generate(case.etc_id, case.dag_id);
    let tau = params.tau().0;
    // Dedup by machine (a machine is lost at most once) and never lose
    // the whole grid.
    let mut seen = std::collections::HashSet::new();
    let losses: Vec<MachineLossEvent> = case
        .losses
        .iter()
        .filter_map(|&(m, frac)| {
            let m = m % case.machines;
            seen.insert(m).then(|| MachineLossEvent {
                machine: MachineId(m),
                at: Time(((tau as f64 * frac) as u64).max(1)),
            })
        })
        .take(case.machines - 1)
        .collect();
    let mut cfg = SlrhConfig::paper(SlrhVariant::V1, case.weights);
    match scale {
        Some(mode) => cfg = cfg.with_scale(mode),
        None => cfg.reference_walk = true,
    }
    canonical(&run_slrh_churn(&sc, &cfg, &losses, &[]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact mode: the frontier at `clusters: 1` replays the reference
    /// walk bit-for-bit through loss cascades, under both pool widths.
    #[test]
    fn frontier_matches_rebuild_under_churn(case in case_strategy()) {
        let exact = ScaleMode { clusters: 1, spill_after: 8, ..ScaleMode::default() };
        let reference = pool(1).install(|| run_case(&case, None));
        let frontier = pool(1).install(|| run_case(&case, Some(exact)));
        prop_assert_eq!(
            &reference, &frontier,
            "frontier (k=1) diverged from the reference walk"
        );
        let frontier4 = pool(4).install(|| run_case(&case, Some(exact)));
        prop_assert_eq!(
            &frontier, &frontier4,
            "frontier run differs between 1 and 4 threads"
        );
    }

    /// Clustered mode: visibility partitioning may change the schedule,
    /// but never determinism — repeats and thread counts agree.
    #[test]
    fn clustered_frontier_is_deterministic(
        case in case_strategy(),
        clusters in 2u32..=8,
        spill_after in prop::sample::select(&[1u64, 4, 16]),
    ) {
        let mode = ScaleMode { clusters, spill_after, ..ScaleMode::default() };
        let first = pool(1).install(|| run_case(&case, Some(mode)));
        let again = pool(1).install(|| run_case(&case, Some(mode)));
        prop_assert_eq!(&first, &again, "clustered run is not reproducible");
        let wide = pool(4).install(|| run_case(&case, Some(mode)));
        prop_assert_eq!(&first, &wide, "clustered run differs between 1 and 4 threads");
    }

    /// `scan_threads` determinism contract: the intra-tick scan is
    /// chunk-parallel but execution-only, so a 1-worker and a 4-worker
    /// scan commit byte-identical runs through the same churn cascades —
    /// at every clustering, and regardless of the ambient pool width
    /// the scan inherits its default from.
    #[test]
    fn scan_threads_one_vs_four_byte_identical(
        case in case_strategy(),
        clusters in prop::sample::select(&[1u32, 2, 4, 8]),
        spill_after in prop::sample::select(&[1u64, 4, 16]),
    ) {
        let narrow = ScaleMode {
            clusters,
            spill_after,
            scan_threads: 1,
            ..ScaleMode::default()
        };
        let wide = ScaleMode { scan_threads: 4, ..narrow };
        let one = pool(1).install(|| run_case(&case, Some(narrow)));
        let four = pool(1).install(|| run_case(&case, Some(wide)));
        prop_assert_eq!(
            &one, &four,
            "scan_threads=4 diverged from scan_threads=1"
        );
        // Same contract when the ambient rayon pool is itself wide (the
        // sweep embedding: scan threads nested under sweep workers).
        let four_nested = pool(4).install(|| run_case(&case, Some(wide)));
        prop_assert_eq!(
            &one, &four_nested,
            "nested wide-pool scan diverged from the sequential scan"
        );
    }

    /// Cached-bound-order ablation: serving queries from the cached
    /// per-(machine, list) orders is a query-plan change only — the
    /// resort ablation replays the same run byte-for-byte through loss
    /// cascades.
    #[test]
    fn cached_orders_match_resort_under_churn(
        case in case_strategy(),
        clusters in prop::sample::select(&[1u32, 2, 4, 8]),
        spill_after in prop::sample::select(&[1u64, 4, 16]),
    ) {
        let cached = ScaleMode { clusters, spill_after, ..ScaleMode::default() };
        let resort = ScaleMode { cached_orders: false, ..cached };
        let a = pool(1).install(|| run_case(&case, Some(cached)));
        let b = pool(1).install(|| run_case(&case, Some(resort)));
        prop_assert_eq!(&a, &b, "cached-order run diverged from the resort ablation");
    }
}
