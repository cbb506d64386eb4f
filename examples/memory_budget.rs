//! The memory-constrained rung of the realistic-models ladder: one
//! instance scheduled across shrinking fast-memory budgets.
//!
//! A stencil DAG is solved on the same 4-processor machine with no memory
//! bound, an ample bound, and the tightest repairable bound (the largest
//! single-node working set). The example shows the three observable
//! effects of the `mem=` clause:
//!
//! * schedules that pack too much into a superstep become *infeasible*
//!   (`InvalidSchedule::MemoryExceeded`) and the repair pass splits the
//!   offending supersteps;
//! * values evicted between uses are re-fetched, and the simulator
//!   charges that traffic into the cost (`refetch` component);
//! * with the bound unset (or ample), everything is bit-identical to the
//!   classic BSP+NUMA model.
//!
//! ```text
//! cargo run --release --example memory_budget
//! ```

use bsp_sched::prelude::*;
use bsp_sched::schedule::memory::memory_cost;

fn main() {
    let instances = bsp_sched::instances();
    let registry = Registry::standard();

    // The DAG side stays fixed; only the machine's memory clause varies.
    let dag_spec = "stencil?width=12&steps=6";
    let base = instances
        .generate_one(&format!("{dag_spec} @ bsp?p=4&g=2"), 42)
        .expect("catalogue spec");
    let m_min = bsp_sched::schedule::memory::min_repairable_capacity(&base.dag);
    let m_tot = base.dag.total_comm();
    println!(
        "{dag_spec}: {} nodes, {} edges; total footprint {m_tot}, largest working set {m_min}\n",
        base.dag.n(),
        base.dag.m()
    );

    // An unconstrained baseline schedule for reference.
    let blest = registry.get("bl-est").expect("registered");
    let unbounded = blest.solve(&SolveRequest::new(&base.dag, &base.machine));
    println!(
        "no memory bound:        cost {:>5}   ({} supersteps)",
        unbounded.total(),
        unbounded.result.sched.n_supersteps()
    );

    // The same baseline is memory-oblivious: on a tight machine its
    // schedule may stop being feasible.
    let tight = instances
        .generate_one(&format!("{dag_spec} @ bsp?p=4&g=2&mem={m_min}"), 42)
        .expect("mem= is part of the machine grammar");
    let infeasible = validate_with_memory(
        &base.dag,
        &tight.machine,
        &unbounded.result.sched,
        &unbounded.result.comm,
    );
    println!(
        "  ... on mem={m_min}:        {}",
        match &infeasible {
            Ok(()) => "still feasible".to_string(),
            Err(e) => format!("INFEASIBLE: {e}"),
        }
    );

    // `bl-est?mem=on` = BL-EST + feasibility repair + residency-aware cost.
    let mem_aware = registry.get("bl-est?mem=on").expect("registered");
    for capacity in [m_tot, (m_min + m_tot) / 2, m_min] {
        let inst = instances
            .generate_one(&format!("{dag_spec} @ bsp?p=4&g=2&mem={capacity}"), 42)
            .unwrap();
        let out = mem_aware.solve(&SolveRequest::new(&inst.dag, &inst.machine));
        let r = &out.result;
        assert!(
            validate_with_memory(&inst.dag, &inst.machine, &r.sched, &r.comm).is_ok(),
            "repair must yield a memory-feasible schedule"
        );
        assert_eq!(
            out.total(),
            memory_cost(&inst.dag, &inst.machine, &r.sched, &r.comm).total,
            "reported cost must match the residency-aware re-evaluation"
        );
        println!(
            "bl-est?mem=on @ mem={capacity:>4}: cost {:>5}   ({} supersteps, refetch {}, repair stage: {})",
            out.total(),
            r.sched.n_supersteps(),
            r.cost.refetch_total,
            out.stages.last().map(|s| s.stage.as_str()).unwrap_or("-"),
        );
    }

    // With an ample bound the memory machinery is invisible: bit-identical
    // cost breakdown to the unbounded machine.
    let ample = instances
        .generate_one(&format!("{dag_spec} @ bsp?p=4&g=2&mem={m_tot}"), 42)
        .unwrap();
    let roomy_cost = memory_cost(
        &base.dag,
        &ample.machine,
        &unbounded.result.sched,
        &unbounded.result.comm,
    );
    assert_eq!(
        roomy_cost, unbounded.result.cost,
        "ample memory must reproduce the unbounded costs bit-identically"
    );
    println!(
        "\nample memory (mem={m_tot}) reproduces the unbounded cost breakdown bit-identically."
    );
}
