//! Allocations of one cold `pipeline/multilevel?ilp=off` solve of the
//! 4 × 6 `layered` instance the daemon smoke solves, from the registry
//! lookup to the costed schedule. Multilevel keeps one schedule state per
//! ratio walk and edits it per chunk of un-contractions, so this count
//! moves with what a coarse solve, an edit and a climb allocate.

mod counting_alloc;

use bsp_sched::prelude::*;
use counting_alloc::ALLOCS;

/// Read in a debug build (a release build reads 1 116).
const MAX_ALLOCS: u64 = 1_119;

#[test]
fn a_cold_multilevel_solve_allocates_at_most_the_pinned_count() {
    let inst = bsp_sched::instances()
        .generate_one("layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5", 0)
        .expect("a layered instance");
    let registry = Registry::standard();
    let before = ALLOCS.count();
    let sched = registry
        .get("pipeline/multilevel?ilp=off")
        .expect("registered");
    let out = sched.solve(&SolveRequest::new(&inst.dag, &inst.machine));
    let allocs = ALLOCS.count() - before;
    assert_eq!(out.total(), 114);
    assert!(allocs <= MAX_ALLOCS, "{allocs} allocations per cold solve");
}
