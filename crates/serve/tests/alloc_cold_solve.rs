//! Allocations of one cold `pipeline/base?ilp=off` solve of the 4 × 6
//! `layered` instance the daemon smoke solves, from the registry lookup to
//! the costed schedule.

mod counting_alloc;

use bsp_sched::prelude::*;
use counting_alloc::ALLOCS;

/// Read in a debug build (a release build reads 225).
const MAX_ALLOCS: u64 = 226;

#[test]
fn a_cold_solve_allocates_at_most_the_pinned_count() {
    let inst = bsp_sched::instances()
        .generate_one("layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5", 0)
        .expect("a layered instance");
    let registry = Registry::standard();
    let before = ALLOCS.count();
    let sched = registry.get("pipeline/base?ilp=off").expect("registered");
    let out = sched.solve(&SolveRequest::new(&inst.dag, &inst.machine));
    let allocs = ALLOCS.count() - before;
    assert_eq!(out.total(), 76);
    assert!(allocs <= MAX_ALLOCS, "{allocs} allocations per cold solve");
}
