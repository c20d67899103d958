//! 1-thread vs N-thread sweep throughput — the wall-clock lever the
//! parallel rayon executor exists for (recorded in EXPERIMENTS.md's
//! timing caveats).
//!
//! The workload is the reduced-suite weight search (`weight_stats` over
//! a 2 × 2 scenario suite): the outer `par_iter` spreads scenarios over
//! workers and each scenario's candidate search runs inline on its
//! worker, exactly the campaign's phase-1 shape. Thread counts are
//! forced per measurement with `ThreadPool::install`, so the numbers are
//! comparable on any host; on a single-core container the two rows
//! collapse to parity (the spread *is* the measurement).

use adhoc_grid::config::GridCase;
use adhoc_grid::workload::{ScenarioParams, ScenarioSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grid_sweep::weight_search::weight_stats;
use grid_sweep::Heuristic;

fn bench_sweep_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_parallel");
    g.sample_size(10);
    let set = ScenarioSet::new(ScenarioParams::paper_scaled(64), 2, 2);
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        g.bench_with_input(
            BenchmarkId::new("weight_search", threads),
            &set,
            |b, set| {
                b.iter(|| {
                    pool.install(|| weight_stats(Heuristic::Slrh1, GridCase::A, set, 0.25, 0.25))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sweep_parallel);
criterion_main!(benches);
