//! Multilevel scaling: both walks over the contraction log — `coarsen` and
//! the un-coarsening of `multilevel_with_log` — on the `layered` and `spmv`
//! rungs of the benchmark's size ladder, n ≈ 10³, 3·10³, 10⁴, each
//! coarsened to 30 %. Un-coarsening runs with refinement off and an
//! all-zero coarse schedule, so the row times the walk (undo, stage
//! extraction, projection, kernel set-up) and not hill climbing; one chunk
//! of five un-contractions should cost about one stage, so a row divided by
//! the chunk count printed beside it should grow like n, with no term in
//! the log length.
//!
//! Before anything is timed the n ≈ 10³ logs are asserted equal to the
//! per-edge unbounded search's, and every stage and projected schedule of
//! the walk equal to the replay-from-scratch one's (both kept as the
//! test-only reference in `crates/core/tests/multilevel_reference/`) — a
//! wrong contraction or stage must fail the bench run, not be timed. CI
//! runs this target in `--test` mode, which makes the 10⁴ rows a
//! release-build smoke of the scaling itself.

#[path = "../../core/tests/multilevel_reference/mod.rs"]
mod reference;

use bsp_core::multilevel::{
    coarsen, multilevel_with_log, Contraction, MultilevelConfig, Uncoarsening,
};
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_sched::instance::InstanceRegistry;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The `offline-scale` ladder's instance specs (its reference seed).
const LADDER: [(&str, &str, &str); 6] = [
    ("layered", "n1e3", "layered?layers=20&width=50&q=0.08"),
    ("layered", "n3e3", "layered?layers=30&width=100&q=0.04"),
    ("layered", "n1e4", "layered?layers=50&width=200&q=0.02"),
    ("spmv", "n1e3", "spmv?n=55&q=0.3"),
    ("spmv", "n3e3", "spmv?n=100&q=0.3"),
    ("spmv", "n1e4", "spmv?n=180&q=0.3"),
];

fn zero_base(dag: &Dag, _: &BspParams) -> BspSchedule {
    BspSchedule::zeroed(dag.n())
}

/// Walks `log` back chunk by chunk beside the replay, comparing every stage.
fn assert_walk_matches_replay(dag: &Dag, log: &[Contraction], chunk: usize) {
    let mut walk = Uncoarsening::new(dag, log);
    let coarse = walk.stage();
    assert_eq!(coarse, reference::stage_graph(dag, log).0);
    let mut prev_k = log.len();
    // A different (π, τ) on every coarse node, so a node projected from
    // the wrong one shows.
    let ids = 0..coarse.n() as u32;
    let mut prev_sched =
        BspSchedule::from_parts(ids.clone().map(|v| v % 8).collect(), ids.collect());
    walk.adopt(&prev_sched);
    while prev_k > 0 {
        let k = prev_k.saturating_sub(chunk);
        walk.undo(chunk);
        let (stage, projected) = reference::project(dag, log, prev_k, k, &prev_sched);
        assert_eq!(walk.stage(), stage, "stage {k} diverged from the replay");
        assert_eq!(walk.projected(), projected, "projection onto stage {k}");
        prev_sched = projected;
        prev_k = k;
    }
}

fn bench_multilevel_scaling(c: &mut Criterion) {
    let cfg = MultilevelConfig {
        refine_moves: 0,
        ..MultilevelConfig::default()
    };
    let mut g = c.benchmark_group("multilevel_scaling");
    g.sample_size(10);
    for (family, size, spec) in LADDER {
        let inst = InstanceRegistry::standard()
            .generate_one(&format!("{spec}&seed=20240527 @ bsp?p=8&g=2&l=5"), 0)
            .expect("ladder spec parses");
        let (dag, machine) = (inst.dag, inst.machine);
        let target = dag.n() * 3 / 10;
        let log = coarsen(&dag, target, &cfg);
        if size == "n1e3" {
            assert_eq!(
                log,
                reference::coarsen(&dag, target, &cfg),
                "{family}: contraction log diverged from the exhaustive per-edge search"
            );
            assert_walk_matches_replay(&dag, &log, cfg.refine_interval);
            let refining = MultilevelConfig::default();
            assert_eq!(
                multilevel_with_log(
                    &dag,
                    &machine,
                    &log,
                    &refining,
                    &mut zero_base,
                    &mut Stop::new(None, None)
                ),
                reference::multilevel_with_log(&dag, &machine, &log, &refining, &mut zero_base),
                "{family}: refined schedule diverged from the replay's"
            );
        }
        println!(
            "multilevel_scaling: {family}/{size} n = {}, m = {}, log = {}, chunks = {}",
            dag.n(),
            dag.m(),
            log.len(),
            log.len().div_ceil(cfg.refine_interval)
        );
        g.bench_function(BenchmarkId::new(format!("coarsen/{family}"), size), |b| {
            b.iter(|| black_box(coarsen(&dag, target, &cfg).len()))
        });
        g.bench_function(BenchmarkId::new(format!("uncoarsen/{family}"), size), |b| {
            b.iter(|| {
                black_box(multilevel_with_log(
                    &dag,
                    &machine,
                    &log,
                    &cfg,
                    &mut zero_base,
                    &mut Stop::new(None, None),
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_multilevel_scaling);
criterion_main!(benches);
