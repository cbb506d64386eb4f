//! Whole-input passes per solve do not grow with the input. Every registry
//! entry — with `ilp=off` where its spec takes `ilp` — solves one
//! `layered` instance at n and at 4n on the test's thread, and each
//! `bsp_dag::calls` tally must read the same at both sizes.
//!
//! No entry is exempt: `pipeline/multilevel` keeps one schedule state and
//! one stage graph per ratio walk, so neither a state build nor a stage
//! extraction happens per refinement chunk. All ten entries run on the
//! test's thread; a `race/…` portfolio, which is not an entry, runs its
//! racers on threads of their own, where these thread-local tallies
//! cannot see them.
#![cfg(debug_assertions)]

use bsp_sched::dag::calls;
use bsp_sched::prelude::*;

/// The tallied passes.
const PASSES: [&str; 7] = [
    "DagBuilder::build",
    "TopoInfo::new",
    "ScheduleState::new",
    "apply_edits",
    "repair_precedence_from",
    "MutableDag::compact",
    "MutableDag::stage_by_id",
];

/// One family at n = 40 and at 4n = 160. The machine is uniform with
/// low communication cost, so `auto` picks the base pipeline at both sizes.
const SIZES: [&str; 2] = [
    "layered?layers=5&width=8&q=0.3&seed=3 @ bsp?p=4&g=2&l=5",
    "layered?layers=20&width=8&q=0.3&seed=3 @ bsp?p=4&g=2&l=5",
];

#[test]
fn whole_input_passes_per_solve_are_constant_in_n() {
    let insts = SIZES.map(|s| {
        bsp_sched::instances()
            .generate_one(s, 0)
            .expect("a layered instance")
    });
    assert_eq!(insts[1].dag.n(), 4 * insts[0].dag.n());
    let registry = Registry::standard();
    for d in registry.descriptors() {
        let spec = if d.params.contains(&"ilp") {
            format!("{}?ilp=off", d.name)
        } else {
            d.name.to_string()
        };
        let counts: [[u64; PASSES.len()]; 2] = insts.each_ref().map(|inst| {
            let sched = registry.get(&spec).expect("registered");
            let before = PASSES.map(calls::count);
            let out = sched.solve(&SolveRequest::new(&inst.dag, &inst.machine));
            assert!(out.total() > 0, "{spec} solved nothing");
            let after = PASSES.map(calls::count);
            std::array::from_fn(|i| after[i] - before[i])
        });
        assert_eq!(
            counts[0], counts[1],
            "{spec}: passes {PASSES:?} grow with n"
        );
    }
}
