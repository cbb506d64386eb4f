//! Allocations per arrival of a topological `spmv` stream of n ≈ 4·10³,
//! replayed as the `online-stream` workload does (batches of 8, 64 moves
//! per arrival), re-plans and the final seal included.

mod counting_alloc;

use bsp_instance::trace::{arrival_trace, TraceConfig};
use bsp_instance::InstanceRegistry;
use bsp_online::{replay, OnlineConfig};
use counting_alloc::ALLOCS;
use std::time::Duration;

/// Read in a debug build: 9 598 over these 4 242 arrivals, 2.2626 each
/// (a release build reads 9 590).
const MAX_PER_ARRIVAL: f64 = 9_598.0 / 4_242.0;

#[test]
fn an_arrival_allocates_at_most_the_pinned_count() {
    let inst = InstanceRegistry::standard()
        .generate_one("spmv?n=115&q=0.3&seed=20240527 @ bsp?p=8&g=2&l=5", 0)
        .expect("ladder spec parses");
    let trace = arrival_trace(&inst.dag, &inst.name, &TraceConfig::default());
    let mut cfg = OnlineConfig::default();
    cfg.budget_per_arrival = Duration::from_secs(60);
    let before = ALLOCS.count();
    let out = replay(&trace, &inst.machine, &cfg).expect("replays");
    let per_arrival = (ALLOCS.count() - before) as f64 / out.stats.arrivals as f64;
    assert!(
        per_arrival <= MAX_PER_ARRIVAL,
        "{per_arrival} allocations per arrival"
    );
}
