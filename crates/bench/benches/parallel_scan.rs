//! Parallel neighbourhood-scan benchmarks: the steepest-descent scan
//! fanned out over `bsp-par` worker threads versus the sequential scan.
//!
//! Each instance/thread-count pair first *asserts* bit-identity with the
//! sequential winner — a wrong parallel reduce must fail the bench run,
//! not silently time garbage — then times the scan. On a single-core host
//! the multi-thread rows measure pure overhead (spawn + atomic chunk
//! claims); on a multi-core host they show the scan's scaling. CI runs
//! this target in `--test` mode as a release-build smoke of the parallel
//! path.

use bsp_bench::{kernel_scan_configs, machine, spread_schedule};
use bsp_core::state::ScheduleState;
use bsp_core::steepest::best_move;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_scan/steepest");
    g.sample_size(10);
    for (name, dag, p) in kernel_scan_configs(true) {
        let m = machine(p as usize, 3);
        let sched = spread_schedule(&dag, p);
        let st = ScheduleState::new(&dag, &m, &sched);
        let reference = best_move(&st, 1);
        for t in THREADS {
            assert_eq!(
                best_move(&st, t),
                reference,
                "{name}: parallel scan diverged at {t} threads"
            );
            g.bench_function(BenchmarkId::new(format!("t{t}"), name), |b| {
                b.iter(|| black_box(best_move(&st, t)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_scan);
criterion_main!(benches);
