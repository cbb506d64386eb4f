//! Pinned-seed regression tests for the local-search kernel.
//!
//! The probe-based kernel must make *bit-identical decisions* to the
//! historical apply/revert implementation. These tests pin the final
//! costs of steepest descent and tabu search on fixed instances; the expected values were recorded from the
//! pre-probe (apply/revert, BTreeMap-bucket) implementation and must
//! never drift. Steepest descent and tabu search share one scan,
//! `hc::best_admissible`; their schedules, accepted moves and tabu
//! counters are pinned as recorded before the merge, and the scan's
//! steepest-descent winners are held move by move to the apply/revert
//! reference. Greedy `hill_climb` is pinned too (final cost and
//! accepted-move count, recorded before sweep pruning): `may_improve` may
//! only skip nodes whose every probe fails. The multilevel scheduler is
//! pinned last: contraction logs and whole-pipeline schedules, recorded
//! from the walk that rebuilt every stage from the original DAG and the
//! per-edge unbounded contractability search.

mod kernel_reference;

use bsp_core::hc::{best_admissible, hill_climb, hill_climb_steepest};
use bsp_core::multilevel::{coarsen, MultilevelConfig};
use bsp_core::pipeline::{solve_multilevel_pipeline, PipelineConfig};
use bsp_core::state::{ProbeScratch, ScheduleState};
use bsp_core::tabu::{tabu_search, TabuConfig, TabuStats};
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::{Dag, DagBuilder, TopoInfo};
use bsp_instance::InstanceRegistry;
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::solve::{SolveCx, SolveRequest, Stop};
use bsp_schedule::BspSchedule;
use kernel_reference::{best_move_apply_revert, RefScheduleState};

/// A deliberately bad but valid start: topological level as superstep,
/// round-robin processors — plenty of cross-processor traffic to descend
/// from (an all-zero start is already a steepest local minimum here).
fn spread_start(dag: &Dag, p: u32) -> BspSchedule {
    let topo = TopoInfo::new(dag);
    let mut s = BspSchedule::zeroed(dag.n());
    for v in dag.nodes() {
        s.set(v, v % p, topo.level[v as usize]);
    }
    s
}

fn layered_instance() -> (Dag, BspParams) {
    let dag = random_layered_dag(
        42,
        LayeredConfig {
            layers: 6,
            width: 6,
            edge_prob: 0.35,
            max_work: 7,
            max_comm: 5,
        },
    );
    (dag, BspParams::new(4, 3, 5))
}

fn erdos_instance() -> (Dag, BspParams) {
    let dag = random_order_dag(7, 24, 0.15, 7, 5);
    let machine = BspParams::new(8, 2, 4).with_numa(NumaTopology::binary_tree(8, 3));
    (dag, machine)
}

fn final_costs(dag: &Dag, machine: &BspParams) -> (u64, u64) {
    let start = spread_start(dag, machine.p() as u32);

    let mut st = ScheduleState::new(dag, machine, &start);
    hill_climb_steepest(&mut st, &mut Stop::new(None, None));
    let steepest = st.cost();

    let tabu_cfg = TabuConfig {
        max_iters: 300,
        stall_limit: 40,
        tenure: 12,
    };
    let (_, tabu, _) = tabu_search(dag, machine, &start, &tabu_cfg, &mut Stop::new(None, None));

    (steepest, tabu)
}

#[test]
fn pinned_layered_instance_costs() {
    let (dag, machine) = layered_instance();
    // Recorded from the pre-probe apply/revert kernel (PR 4 tree).
    assert_eq!(final_costs(&dag, &machine), (176, 145));
}

#[test]
fn pinned_erdos_instance_costs() {
    let (dag, machine) = erdos_instance();
    // Recorded from the pre-probe apply/revert kernel (PR 4 tree).
    assert_eq!(final_costs(&dag, &machine), (328, 208));
}

/// Final cost and accepted-move count of greedy first-improvement
/// [`hill_climb`] from the spread start, run to its local minimum.
fn hill_climb_outcome(dag: &Dag, machine: &BspParams) -> (u64, usize) {
    let start = spread_start(dag, machine.p() as u32);
    let mut st = ScheduleState::new(dag, machine, &start);
    let stats = hill_climb(&mut st, &mut Stop::new(None, None));
    assert!(stats.local_minimum);
    (st.cost(), stats.accepted)
}

/// Recorded at the commit before sweep pruning (`may_improve`): the
/// filter may only skip nodes whose probes all fail, so neither number
/// may move.
#[test]
fn pinned_hill_climb_outcomes() {
    let (dag, machine) = layered_instance();
    assert_eq!(hill_climb_outcome(&dag, &machine), (179, 26));
    let (dag, machine) = erdos_instance();
    assert_eq!(hill_climb_outcome(&dag, &machine), (295, 40));
}

fn fnv64(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in words.into_iter().flat_map(u32::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `fnv(π‖τ)` of `sched`.
fn sched_fnv(sched: &BspSchedule) -> u64 {
    fnv64(sched.procs().iter().chain(sched.steps()).copied())
}

/// The NUMA reference instances of the benchmark's `offline-refine`
/// workload that run the multilevel pipeline, at the grammar's default
/// seed.
const MULTILEVEL_INSTANCES: [&str; 4] = [
    "stencil?width=40&steps=20 @ bsp?p=8&numa=tree&delta=3",
    "erdos?n=300&q=0.03 @ bsp?p=16&numa=sockets&sockets=2&delta=4",
    "butterfly?k=6 @ bsp?p=8&numa=tree&delta=3",
    "cg?n=20&k=3 @ bsp?p=8&numa=tree&delta=3",
];

fn instance(spec: &str) -> (Dag, BspParams) {
    let inst = InstanceRegistry::standard()
        .generate_one(spec, 0)
        .expect("pinned spec parses");
    (inst.dag, inst.machine)
}

/// `(len, fnv(kept‖merged …))` of the contraction log down to `ratio·n`.
fn coarsen_pin(dag: &Dag, ratio: f64) -> (usize, u64) {
    let target = (dag.n() as f64 * ratio).ceil() as usize;
    let log = coarsen(dag, target, &MultilevelConfig::default());
    let words = log.iter().flat_map(|c| [c.kept, c.merged]);
    (log.len(), fnv64(words))
}

/// `(cost, fnv(π‖τ))` of `pipeline/multilevel?ilp=off` run to convergence
/// (no clock shapes the schedule), for the given coarsening ratios.
fn multilevel_pin(dag: &Dag, machine: &BspParams, ratios: &[f64]) -> (u64, u64) {
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    cfg.hc.time_limit = Some(std::time::Duration::from_secs(600));
    cfg.hccs.time_limit = Some(std::time::Duration::from_secs(600));
    let ml = MultilevelConfig {
        ratios: ratios.to_vec(),
        ..MultilevelConfig::default()
    };
    let mut cx = SolveCx::new("pipeline/multilevel", &SolveRequest::new(dag, machine));
    let r = solve_multilevel_pipeline(dag, machine, &cfg, &ml, &mut cx);
    (r.cost, sched_fnv(&r.sched))
}

/// Recorded at the commit before the journaled un-coarsening walk and the
/// order-bounded contractability search: neither may change which edges
/// are contracted, in which order, or any stage the refinement sees.
#[test]
fn pinned_contraction_logs() {
    let expected = [
        [(588, 7986114498813674981), (714, 6947464799060701290)],
        [(210, 13791077571182208024), (255, 7674237222086846335)],
        [(313, 4520639363158632237), (380, 8259923342503659217)],
        [(313, 10393287711874710411), (380, 5029321381773581290)],
    ];
    for (spec, want) in MULTILEVEL_INSTANCES.iter().zip(expected) {
        let (dag, _) = instance(spec);
        assert_eq!(
            [coarsen_pin(&dag, 0.3), coarsen_pin(&dag, 0.15)],
            want,
            "{spec}"
        );
    }
    // n = 3 000: the size at which the per-edge unbounded search needed
    // 7.6 s in a release build for the 30 % log alone.
    let (dag, _) = instance("layered?layers=30&width=100&q=0.04 @ bsp?p=8");
    assert_eq!(
        [coarsen_pin(&dag, 0.3), coarsen_pin(&dag, 0.15)],
        [(2100, 1553310927253052926), (2550, 1001314597233540123)]
    );
}

/// Recorded at the same commit as [`pinned_contraction_logs`]: the
/// single-ratio pipeline the benchmark runs and the paper's default
/// two-ratio one.
#[test]
fn pinned_multilevel_schedules() {
    let expected = [
        [(1053, 15731222259943574515), (1053, 15731222259943574515)],
        [(1018, 12730393514590397640), (1018, 12730393514590397640)],
        [(228, 637969882999523089), (217, 4175358337466175412)],
        [(1442, 12092943975474073138), (1407, 11133713151806062743)],
    ];
    for (spec, want) in MULTILEVEL_INSTANCES.iter().zip(expected) {
        let (dag, machine) = instance(spec);
        assert_eq!(
            [
                multilevel_pin(&dag, &machine, &[0.3]),
                multilevel_pin(&dag, &machine, &[0.3, 0.15]),
            ],
            want,
            "{spec}"
        );
    }
}

/// `(cost, fnv(π‖τ), accepted)` of greedy [`hill_climb`] from the BSPg
/// schedule to its local minimum.
fn hill_climb_pin(spec: &str) -> (u64, u64, usize) {
    let (dag, machine) = instance(spec);
    let start = bsp_core::init::bspg_schedule(&dag, &machine);
    let mut st = ScheduleState::new(&dag, &machine, &start);
    let stats = hill_climb(&mut st, &mut Stop::new(None, None));
    assert!(stats.local_minimum, "{spec}");
    (st.cost(), sched_fnv(&st.snapshot()), stats.accepted)
}

/// Recorded at the commit before the per-visit gain bound
/// (`ScheduleState::gain_bound`): it may only skip candidates whose probe
/// is `≥ 0`, so no accepted move, schedule or cost may change.
#[test]
fn pinned_bounded_hill_climb_schedules() {
    let expected = [
        (
            "erdos?n=300&q=0.03 @ bsp?p=4&g=2&numa=tree&delta=3",
            (1926, 970031107711977207, 78),
        ),
        (
            "stencil?width=16&steps=12 @ bsp?p=4&g=2&numa=tree&delta=3",
            (375, 3940711804285534724, 14),
        ),
        (
            "spmv?n=80&q=0.3 @ bsp?p=4&g=2",
            (2304, 8621792824943469430, 6),
        ),
    ];
    for (spec, want) in expected {
        assert_eq!(hill_climb_pin(spec), want, "{spec}");
    }
}

/// The instances the steepest and tabu pins run on, with their starts: the
/// two small ones from the spread start, the benchmark-sized one from BSPg.
fn scan_pin_cases() -> Vec<(&'static str, Dag, BspParams, BspSchedule)> {
    let mut cases = Vec::new();
    for (name, (dag, machine)) in [("layered", layered_instance()), ("erdos", erdos_instance())] {
        let start = spread_start(&dag, machine.p() as u32);
        cases.push((name, dag, machine, start));
    }
    let spec = "erdos?n=300&q=0.03 @ bsp?p=4&g=2&numa=tree&delta=3";
    let (dag, machine) = instance(spec);
    let start = bsp_core::init::bspg_schedule(&dag, &machine);
    cases.push((spec, dag, machine, start));
    cases
}

/// Recorded before steepest descent and tabu search shared
/// [`best_admissible`]: the merge may change no accepted move, schedule,
/// cost or tabu counter.
#[test]
fn pinned_steepest_and_tabu_schedules() {
    let stats = |iterations, uphill, aspirated, improved_best| TabuStats {
        iterations,
        uphill,
        aspirated,
        improved_best,
    };
    let expected = [
        (
            (176, 13792477299659310162, 16),
            (145, 11387355686301960981, stats(122, 1, 0, 27)),
        ),
        (
            (328, 16226375519143377778, 8),
            (208, 840999687567004289, stats(73, 0, 0, 21)),
        ),
        (
            (1874, 17721066772050466340, 44),
            (1785, 978055380715130387, stats(201, 0, 3, 74)),
        ),
    ];
    let tabu_cfg = TabuConfig {
        max_iters: 300,
        stall_limit: 40,
        tenure: 12,
    };
    for ((name, dag, machine, start), want) in scan_pin_cases().into_iter().zip(expected) {
        let mut st = ScheduleState::new(&dag, &machine, &start);
        let hc = hill_climb_steepest(&mut st, &mut Stop::new(None, None));
        assert!(hc.local_minimum, "{name}");
        let steepest = (st.cost(), sched_fnv(&st.snapshot()), hc.accepted);
        let mut stop = Stop::new(None, None);
        let (best, cost, tabu) = tabu_search(&dag, &machine, &start, &tabu_cfg, &mut stop);
        assert_eq!((steepest, (cost, sched_fnv(&best), tabu)), want, "{name}");
    }
}

/// Steepest descent with probing must pick the *identical move sequence*
/// as the historical apply/revert scan — not just land at an equal cost.
#[test]
fn steepest_move_sequence_matches_apply_revert_reference() {
    for (dag, machine) in [layered_instance(), erdos_instance()] {
        let start = spread_start(&dag, machine.p() as u32);
        let mut probed = ScheduleState::new(&dag, &machine, &start);
        let mut reference = RefScheduleState::new(&dag, &machine, &start);
        let (n, p) = (dag.n() as u32, machine.p() as u32);
        let mut sc = ProbeScratch::default();
        let mut moves = 0usize;
        loop {
            let a =
                best_admissible(&probed, &mut sc, |_, _, _, d| d < 0).map(|(v, q, s, _)| (v, q, s));
            let b = best_move_apply_revert(&mut reference, n, p);
            assert_eq!(a, b, "kernels diverged after {moves} moves");
            let Some((v, q, s)) = a else { break };
            let ca = probed.apply_move(v, q, s);
            let cb = reference.apply_move(v, q, s);
            assert_eq!(ca, cb, "costs diverged after {moves} moves");
            moves += 1;
            assert!(moves <= 10_000, "steepest descent failed to converge");
        }
        assert!(moves > 0, "instance too trivial to exercise the kernel");
        assert_eq!(probed.snapshot(), reference.snapshot());
    }
}

/// The reference's own incremental cost agrees with its full evaluation.
#[test]
fn reference_cost_matches_full_evaluation() {
    let mut b = DagBuilder::new();
    let a = b.add_node(1, 2);
    let x = b.add_node(2, 3);
    let y = b.add_node(3, 1);
    let d = b.add_node(1, 1);
    b.add_edge(a, x).unwrap();
    b.add_edge(a, y).unwrap();
    b.add_edge(x, d).unwrap();
    b.add_edge(y, d).unwrap();
    let dag = b.build().unwrap();
    let machine = BspParams::new(2, 3, 5);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let mut st = RefScheduleState::new(&dag, &machine, &sched);
    assert_eq!(st.cost(), st.recomputed_cost());
    assert!(st.is_move_valid(3, 0, 2));
    let c = st.apply_move(3, 0, 2);
    assert_eq!(c, st.recomputed_cost());
    let back = st.apply_move(3, 1, 2);
    assert_eq!(back, st.recomputed_cost());
}
