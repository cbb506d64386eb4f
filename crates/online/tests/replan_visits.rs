//! Work-count guard for the awake set: on the `online-stream` workload's
//! `spmv` stream of n ≈ 1.6·10⁴ arrivals, whose schedule keeps nearly
//! everything tentative, a re-plan's sweep visits at most a tenth of the
//! nodes (a sweep over the whole suffix visits about half). The visit
//! counter is process-global, so this binary holds this one test.

use bsp_instance::trace::{arrival_trace, TraceConfig};
use bsp_instance::InstanceRegistry;
use bsp_online::{replay, OnlineConfig};
use std::time::Duration;

#[test]
fn a_replan_visits_at_most_a_tenth_of_the_nodes() {
    let inst = InstanceRegistry::standard()
        .generate_one("spmv?n=230&q=0.3&seed=20240527 @ bsp?p=8&g=2&l=5", 0)
        .expect("ladder spec parses");
    let trace = arrival_trace(&inst.dag, &inst.name, &TraceConfig::default());
    let mut cfg = OnlineConfig::default();
    cfg.budget_per_arrival = Duration::from_secs(60);
    let visits = bsp_obs::global().counter("bsp_ls_visits_total", &[]);
    let before = visits.get();
    let out = replay(&trace, &inst.machine, &cfg).expect("replays");
    let per_replan = (visits.get() - before) as f64 / out.stats.replans.max(1) as f64;
    let n = inst.dag.n();
    assert!(n > 15_000, "not the n ≈ 1.6·10⁴ rung: {n}");
    assert!(
        per_replan <= 0.1 * n as f64,
        "a re-plan visits {per_replan:.0} of {n} nodes"
    );
}
