//! Local-search kernel benchmarks: the cost of evaluating hill-climbing
//! neighbourhoods, which bounds how many moves every `hc`/`tabu` registry
//! stage can afford inside a budget.
//!
//! Two kernels are compared on identical instances and identical start
//! schedules:
//!
//! * `probe` — the flat, allocation-free [`ScheduleState::probe_move`]
//!   gain kernel (candidates evaluated read-only through `valid_procs`
//!   windows and cached top-K row maxima, nothing mutated);
//! * `apply_revert` — the historical kernel kept in
//!   `crates/core/tests/kernel_reference`: per-candidate `is_move_valid` plus a full
//!   `apply_move` + revert pair over `BTreeMap` consumer buckets,
//!   allocating scratch `Vec`s on every candidate.
//!
//! `scan/*` times one full `n·3·P` steepest-descent neighbourhood scan —
//! `probe` is [`best_admissible`], the scan steepest descent and tabu
//! search share, under `delta < 0` with one reused scratch — after
//! asserting that both kernels pick the same move; `move/*` times a
//! single candidate evaluation. The probe advantage grows with the
//! processor count (the old kernel refreshes each touched step in
//! `O(P)` twice per candidate; the probe pays `O(changed)`), so each DAG
//! family is measured on a small and a large machine. `hc_sweep/*` times
//! the sweep that dominates warm and online re-solves — one pass of
//! [`hill_climb`] over a schedule that is already a local minimum — with
//! sweep pruning ([`ScheduleState::may_improve`], `pruned`; the nodes it
//! rules out sleep after the first pass, so a repeat visits only the
//! nodes it lets through) against the
//! same sweep probing every node (`unpruned`), after asserting that both
//! certify the minimum and move nothing; the climb that converged it
//! prints how many candidates the work-only rise test and the rest of the
//! move floor skipped. `hc_converge/*` times a whole climb from the BSPg
//! schedule to its local minimum — many sweeps, each revisiting the nodes
//! the last one proved stuck — four ways: the production loop (`bounded`:
//! failure certificates skip a node while nothing its probes read has
//! changed, and a candidate whose [`ScheduleState::move_floor`] is `≥ 0`
//! is not probed), the same loop with only the floor's work part
//! (`rise`: `target_rise ≥ gain_bound`), without any candidate test
//! (`certified`) and without certificates either (`uncertified`), after
//! asserting equal moves and end states and that each test skipped
//! exactly the probes it saved, and printing sweeps and probes of all
//! four. Both groups fail the smoke when a climb with candidates skipped
//! none (a bound gone slack), or when a climb on a NUMA machine (the
//! `erdos` configs) skipped nothing beyond the rise test (a floor gone
//! slack on the transfers it exists for). Reproduce with
//! `cargo bench -p bsp-bench --bench local_search`.

// The reference hill-climbing loop the core proptests hold production to.
#[path = "../../core/tests/hc_reference/mod.rs"]
mod hc_reference;
// The apply/revert kernel the core tests hold the probe kernel to.
#[path = "../../core/tests/kernel_reference/mod.rs"]
mod kernel_reference;

use bsp_bench::{kernel_scan_configs, machine, numa_machine, spread_schedule};
use bsp_core::hc::{best_admissible, hill_climb, HillClimbStats};
use bsp_core::init::bspg_schedule;
use bsp_core::state::{ProbeScratch, ScheduleState};
use bsp_dag::TopoInfo;
use bsp_dagdb::fine::spmv_dag;
use bsp_dagdb::SparsePattern;
use bsp_schedule::solve::Stop;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kernel_reference::{best_move_apply_revert, RefScheduleState};
use std::hint::black_box;

/// Full steepest-descent neighbourhood scan: every valid `(v, q, s)` with
/// `s ∈ {τ(v)−1, τ(v), τ(v)+1}` evaluated once, after asserting that both
/// kernels pick the same move.
fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_search/scan");
    g.sample_size(10);
    for (name, dag, p) in kernel_scan_configs(false) {
        let m = machine(p as usize, 3);
        let sched = spread_schedule(&dag, p);
        let n = dag.n() as u32;
        let st = ScheduleState::new(&dag, &m, &sched);
        let mut sc = ProbeScratch::default();
        let mut scan = || best_admissible(&st, &mut sc, |_, _, _, d| d < 0);
        let mut reference = RefScheduleState::new(&dag, &m, &sched);
        assert_eq!(
            scan().map(|(v, q, s, _)| (v, q, s)),
            best_move_apply_revert(&mut reference, n, p),
            "{name}: the kernels pick different moves"
        );
        g.bench_function(BenchmarkId::new("probe", name), |b| {
            b.iter(|| black_box(scan()))
        });
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
        let (_, counts) = counted_climb(&mut st);
        // BSPg leaves the spmv prefix at a minimum where `may_improve`
        // rules out every visit: no candidates there.
        counts.check(name, "hc_sweep", "converging");
        let converged = st.snapshot();
        // Pruned ≡ unpruned: both certify the minimum and move nothing.
        assert!(!unpruned_sweep_improves(&st), "{name}: not a local minimum");
        let stats = hill_climb(&mut st, &mut Stop::new(None, None));
        assert_eq!((stats.accepted, stats.local_minimum), (0, true), "{name}");
        assert_eq!(
            st.snapshot(),
            converged,
            "{name}: a verification sweep moved a node"
        );
        g.bench_function(BenchmarkId::new("pruned", name), |b| {
            b.iter(|| black_box(hill_climb(&mut st, &mut Stop::new(None, None))))
        });
        g.bench_function(BenchmarkId::new("unpruned", name), |b| {
            b.iter(|| black_box(unpruned_sweep_improves(&st)))
        });
    }
    g.finish();
}

/// The hill-climbing loop with the `may_improve` filter but no failure
/// certificates: every sweep re-probes each node the filter lets through.
fn climb_without_certificates(st: &mut ScheduleState<'_>) -> hc_reference::ReferenceClimb {
    hc_reference::hill_climb_reference(st, usize::MAX, 0, |st, v| st.may_improve(v))
}

/// What one production climb probed and skipped, off the process-global
/// counters.
struct SkipCounts {
    probes: u64,
    /// Candidates the work-only rise test skipped.
    rise: u64,
    /// Candidates the rest of the move floor skipped.
    floor: u64,
}

impl SkipCounts {
    /// Prints the counts and fails the smoke on a slack bound: a climb
    /// with candidates that skipped none, or a NUMA climb (the `erdos`
    /// configs) whose floor skipped nothing beyond the rise test.
    fn check(&self, name: &str, group: &str, what: &str) {
        let SkipCounts {
            probes,
            rise,
            floor,
        } = *self;
        println!(
            "local_search/{group}: {name} {what}, of {} candidates the rise test skipped \
             {rise} and the rest of the move floor {floor}",
            probes + rise + floor
        );
        assert!(
            probes + rise + floor == 0 || rise + floor > 0,
            "{name}: the move floor skipped none of {probes} candidates"
        );
        assert!(
            !name.starts_with("erdos") || floor > 0,
            "{name}: on a NUMA machine the move floor skipped nothing beyond the rise test"
        );
    }
}

/// [`hill_climb`] with the skips it counted.
fn counted_climb(st: &mut ScheduleState<'_>) -> (HillClimbStats, SkipCounts) {
    let counter = |name| bsp_obs::global().counter(name, &[]);
    let totals = [
        counter("bsp_ls_hc_probes_total"),
        counter("bsp_ls_bound_skips_total"),
        counter("bsp_ls_floor_skips_total"),
    ];
    let before = totals.each_ref().map(|c| c.get());
    let stats = hill_climb(st, &mut Stop::new(None, None));
    let [probes, skips, floor] = [0, 1, 2].map(|i| totals[i].get() - before[i]);
    let counts = SkipCounts {
        probes,
        rise: skips - floor,
        floor,
    };
    (stats, counts)
}

/// A whole climb, first sweep to last: what a cold pipeline solve spends
/// nearly all of its time in.
fn bench_hc_converge(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_search/hc_converge");
    g.sample_size(10);
    for (name, dag, p) in kernel_scan_configs(true) {
        let m = if name.starts_with("erdos") {
            numa_machine(p as usize, 3)
        } else {
            machine(p as usize, 3)
        };
        let start = bspg_schedule(&dag, &m);
        // Bounded ≡ rise ≡ certified ≡ uncertified: same moves, same
        // minimum.
        let mut with = ScheduleState::new(&dag, &m, &start);
        let (stats, counts) = counted_climb(&mut with);
        counts.check(name, "hc_converge", "from BSPg");
        let mut rise_only = ScheduleState::new(&dag, &m, &start);
        let rise_climb = hc_reference::hill_climb_rise_bounded(&mut rise_only);
        let mut certified = ScheduleState::new(&dag, &m, &start);
        let unbounded = hc_reference::hill_climb_certified(&mut certified);
        let mut without = ScheduleState::new(&dag, &m, &start);
        let plain = climb_without_certificates(&mut without);
        let (accepted, sweeps) = (plain.accepted, plain.sweeps);
        for climb in [rise_climb, unbounded, plain] {
            assert_eq!(
                (stats.accepted, stats.local_minimum),
                (climb.accepted, climb.local_minimum),
                "{name}"
            );
        }
        assert!(plain.local_minimum, "{name}");
        assert_eq!(
            with.snapshot(),
            without.snapshot(),
            "{name}: end states differ"
        );
        assert_eq!(rise_only.snapshot(), without.snapshot(), "{name}");
        assert_eq!(certified.snapshot(), without.snapshot(), "{name}");
        // Neither test changes a decision, so every candidate one skipped
        // is a probe the same loop without it ran.
        let SkipCounts {
            probes,
            rise,
            floor,
        } = counts;
        assert_eq!(probes + floor, rise_climb.probes, "{name}");
        assert_eq!(probes + rise + floor, unbounded.probes, "{name}");
        println!(
            "local_search/hc_converge: {name} n = {}, {accepted} moves in {sweeps} sweeps, \
             probes {probes} with the move floor / {} with the rise test only / {} with \
             neither / {} without certificates either",
            dag.n(),
            rise_climb.probes,
            unbounded.probes,
            plain.probes,
        );
        g.bench_function(BenchmarkId::new("bounded", name), |b| {
            b.iter(|| {
                let mut st = ScheduleState::new(&dag, &m, &start);
                black_box(hill_climb(&mut st, &mut Stop::new(None, None)))
            })
        });
        g.bench_function(BenchmarkId::new("rise", name), |b| {
            b.iter(|| {
                let mut st = ScheduleState::new(&dag, &m, &start);
                black_box(hc_reference::hill_climb_rise_bounded(&mut st))
            })
        });
        g.bench_function(BenchmarkId::new("certified", name), |b| {
            b.iter(|| {
                let mut st = ScheduleState::new(&dag, &m, &start);
                black_box(hc_reference::hill_climb_certified(&mut st))
            })
        });
        g.bench_function(BenchmarkId::new("uncertified", name), |b| {
            b.iter(|| {
                let mut st = ScheduleState::new(&dag, &m, &start);
                black_box(climb_without_certificates(&mut st))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_scan,
    bench_single_move,
    bench_hc_sweep,
    bench_hc_converge
);
criterion_main!(benches);
