//! Local-search kernel benchmarks: the cost of evaluating hill-climbing
//! neighbourhoods, which bounds how many moves every `hc`/`tabu`/`anneal`
//! registry stage can afford inside a budget.
//!
//! Two kernels are compared on identical instances and identical start
//! schedules:
//!
//! * `probe` — the flat, allocation-free [`ScheduleState::probe_move`]
//!   gain kernel (candidates evaluated read-only through `valid_procs`
//!   windows and cached top-K row maxima, nothing mutated);
//! * `apply_revert` — the historical kernel kept in
//!   [`bsp_core::reference`]: per-candidate `is_move_valid` plus a full
//!   `apply_move` + revert pair over `BTreeMap` consumer buckets,
//!   allocating scratch `Vec`s on every candidate.
//!
//! `scan/*` times one full `n·3·P` steepest-descent neighbourhood scan;
//! `move/*` times a single candidate evaluation. The probe advantage grows
//! with the processor count (the old kernel refreshes each touched step in
//! `O(P)` twice per candidate; the probe pays `O(changed)`), so each DAG
//! family is measured on a small and a large machine. `hc_sweep/*` times
//! the sweep that dominates warm and online re-solves — one pass of
//! [`hill_climb`] over a schedule that is already a local minimum — with
//! sweep pruning ([`ScheduleState::may_improve`], `pruned`) against the
//! same sweep probing every node (`unpruned`), after asserting that both
//! certify the minimum and move nothing. Reproduce with
//! `cargo bench -p bsp-bench --bench local_search`; the `bench` experiment
//! (`cargo run -p bsp-experiments --release -- bench --json …`) records the
//! same comparison into `BENCH_*.json`.

use bsp_bench::{kernel_scan_configs, machine, numa_machine, spread_schedule};
use bsp_core::hc::{hill_climb, HillClimbConfig};
use bsp_core::init::bspg_schedule;
use bsp_core::reference::{best_move_apply_revert, RefScheduleState};
use bsp_core::state::ScheduleState;
use bsp_core::steepest::best_move;
use bsp_dag::TopoInfo;
use bsp_dagdb::fine::spmv_dag;
use bsp_dagdb::SparsePattern;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Full steepest-descent neighbourhood scan: every valid `(v, q, s)` with
/// `s ∈ {τ(v)−1, τ(v), τ(v)+1}` evaluated once.
fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_search/scan");
    g.sample_size(10);
    for (name, dag, p) in kernel_scan_configs(false) {
        let m = machine(p as usize, 3);
        let sched = spread_schedule(&dag, p);
        let n = dag.n() as u32;
        let st = ScheduleState::new(&dag, &m, &sched);
        g.bench_function(BenchmarkId::new("probe", name), |b| {
            b.iter(|| black_box(best_move(&st)))
        });
        let mut reference = RefScheduleState::new(&dag, &m, &sched);
        g.bench_function(BenchmarkId::new("apply_revert", name), |b| {
            b.iter(|| black_box(best_move_apply_revert(&mut reference, n, p)))
        });
    }
    g.finish();
}

/// Single-candidate evaluation throughput on the layered instance.
fn bench_single_move(c: &mut Criterion) {
    const P: u32 = 8;
    let m = machine(P as usize, 3);
    let (_, dag, _) = kernel_scan_configs(true).swap_remove(0);
    let sched = spread_schedule(&dag, P);
    let mut st = ScheduleState::new(&dag, &m, &sched);
    let mut reference = RefScheduleState::new(&dag, &m, &sched);
    // A node with a valid move one superstep down stays valid forever
    // because neither kernel's evaluation leaves a net state change.
    let v = dag
        .nodes()
        .find(|&v| st.is_move_valid(v, st.proc(v), st.step(v) + 1))
        .expect("spread schedule always admits a downward move");
    let (p0, s0) = (st.proc(v), st.step(v));
    let mut g = c.benchmark_group("local_search/move");
    g.bench_function("probe", |b| {
        b.iter(|| black_box(st.probe_move(v, p0, s0 + 1)))
    });
    g.bench_function("apply_revert", |b| {
        b.iter(|| {
            st.apply_move(v, p0, s0 + 1);
            black_box(st.apply_move(v, p0, s0))
        })
    });
    g.bench_function("apply_revert_btreemap", |b| {
        b.iter(|| {
            reference.apply_move(v, p0, s0 + 1);
            black_box(reference.apply_move(v, p0, s0))
        })
    });
    g.finish();
}

/// One hill-climbing sweep with every node probed — the loop body of
/// `bsp_core::hc` without the `may_improve` filter. Returns whether any
/// probe improves (never, on a converged schedule).
fn unpruned_sweep_improves(st: &ScheduleState<'_>) -> bool {
    st.dag().nodes().any(|v| {
        let cur = (st.proc(v), st.step(v));
        (cur.1.saturating_sub(1)..=cur.1 + 1).any(|s| {
            let mut procs = st.valid_procs(v, s).procs(st.p());
            procs.any(|q| (q, s) != cur && st.probe_move(v, q, s) < 0)
        })
    })
}

/// The verification sweep over an already-converged schedule: what every
/// online re-plan and warm re-solve pays for the nodes an edit did not
/// touch.
fn bench_hc_sweep(c: &mut Criterion) {
    let cfg = HillClimbConfig {
        max_moves: None,
        time_limit: None,
    };
    let mut g = c.benchmark_group("local_search/hc_sweep");
    g.sample_size(10);
    let mut configs = kernel_scan_configs(true);
    // What an online re-plan sweeps mid-stream: the first 60 % (in
    // topological order) of a wide spmv DAG, where most arrived nodes do
    // not have their consumers yet and the filter has the most to skip.
    let wide = spmv_dag(&SparsePattern::random(120, 0.25, 3));
    let arrived = &TopoInfo::new(&wide).order[..wide.n() * 3 / 5];
    configs.push(("spmv-prefix/p8", wide.induced_subgraph(arrived).0, 8));
    for (name, dag, p) in configs {
        let m = if name.starts_with("erdos") {
            numa_machine(p as usize, 3)
        } else {
            machine(p as usize, 3)
        };
        let mut st = ScheduleState::new(&dag, &m, &bspg_schedule(&dag, &m));
        hill_climb(&mut st, &cfg);
        let converged = st.snapshot();
        // Pruned ≡ unpruned: both certify the minimum and move nothing.
        assert!(!unpruned_sweep_improves(&st), "{name}: not a local minimum");
        let stats = hill_climb(&mut st, &cfg);
        assert_eq!((stats.accepted, stats.local_minimum), (0, true), "{name}");
        assert_eq!(
            st.snapshot(),
            converged,
            "{name}: a verification sweep moved a node"
        );
        g.bench_function(BenchmarkId::new("pruned", name), |b| {
            b.iter(|| black_box(hill_climb(&mut st, &cfg)))
        });
        g.bench_function(BenchmarkId::new("unpruned", name), |b| {
            b.iter(|| black_box(unpruned_sweep_improves(&st)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scan, bench_single_move, bench_hc_sweep);
criterion_main!(benches);
