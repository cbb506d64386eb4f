//! Pinned-seed regression tests for the local-search kernel.
//!
//! The probe-based kernel must make *bit-identical decisions* to the
//! historical apply/revert implementation. These tests pin the final
//! costs of steepest descent, tabu search, and simulated annealing on
//! fixed instances; the expected values were recorded from the
//! pre-probe (apply/revert, BTreeMap-bucket) implementation and must
//! never drift. Greedy `hill_climb` is pinned too (final cost and
//! accepted-move count, recorded before sweep pruning): `may_improve` may
//! only skip nodes whose every probe fails.

use bsp_core::anneal::{simulated_annealing, AnnealConfig};
use bsp_core::hc::{hill_climb, HillClimbConfig};
use bsp_core::reference::{best_move_apply_revert, RefScheduleState};
use bsp_core::state::ScheduleState;
use bsp_core::steepest::{best_move, hill_climb_steepest};
use bsp_core::tabu::{tabu_search, TabuConfig};
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::{Dag, TopoInfo};
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::BspSchedule;

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

fn final_costs(dag: &Dag, machine: &BspParams) -> (u64, u64, u64) {
    let start = spread_start(dag, machine.p() as u32);

    let mut st = ScheduleState::new(dag, machine, &start);
    hill_climb_steepest(
        &mut st,
        &HillClimbConfig {
            max_moves: None,
            time_limit: None,
        },
    );
    let steepest = st.cost();

    let tabu_cfg = TabuConfig {
        max_iters: 300,
        stall_limit: 40,
        tenure: 12,
        time_limit: None,
    };
    let (_, tabu, _) = tabu_search(dag, machine, &start, &tabu_cfg);

    let anneal_cfg = AnnealConfig {
        max_steps: 8_000,
        time_limit: None,
        seed: 42,
        ..AnnealConfig::default()
    };
    let (_, anneal, _) = simulated_annealing(dag, machine, &start, &anneal_cfg);

    (steepest, tabu, anneal)
}

#[test]
fn pinned_layered_instance_costs() {
    let (dag, machine) = layered_instance();
    // Recorded from the pre-probe apply/revert kernel (PR 4 tree).
    assert_eq!(final_costs(&dag, &machine), (176, 145, 191));
}

#[test]
fn pinned_erdos_instance_costs() {
    let (dag, machine) = erdos_instance();
    // Recorded from the pre-probe apply/revert kernel (PR 4 tree).
    assert_eq!(final_costs(&dag, &machine), (328, 208, 137));
}

/// Final cost and accepted-move count of greedy first-improvement
/// [`hill_climb`] from the spread start, run to its local minimum.
fn hill_climb_outcome(dag: &Dag, machine: &BspParams) -> (u64, usize) {
    let start = spread_start(dag, machine.p() as u32);
    let mut st = ScheduleState::new(dag, machine, &start);
    let stats = hill_climb(
        &mut st,
        &HillClimbConfig {
            max_moves: None,
            time_limit: None,
        },
    );
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

/// Steepest descent with probing must pick the *identical move sequence*
/// as the historical apply/revert scan — not just land at an equal cost.
#[test]
fn steepest_move_sequence_matches_apply_revert_reference() {
    for (dag, machine) in [layered_instance(), erdos_instance()] {
        let start = spread_start(&dag, machine.p() as u32);
        let mut probed = ScheduleState::new(&dag, &machine, &start);
        let mut reference = RefScheduleState::new(&dag, &machine, &start);
        let (n, p) = (dag.n() as u32, machine.p() as u32);
        let mut moves = 0usize;
        loop {
            let a = best_move(&probed).map(|(v, q, s, _)| (v, q, s));
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
