//! Quickstart: build a DAG by hand, schedule it, inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bsp_sched::prelude::*;

fn main() {
    // A small fork-join computation:
    //        load
    //      /  |   \
    //    f1   f2   f3        (three parallel filters)
    //      \  |   /
    //       reduce
    let mut b = DagBuilder::new();
    let load = b.add_node(2, 1); // work 2, output size 1
    let filters: Vec<_> = (0..3).map(|_| b.add_node(9, 1)).collect();
    let reduce = b.add_node(3, 1);
    for &f in &filters {
        b.add_edge(load, f).unwrap();
        b.add_edge(f, reduce).unwrap();
    }
    let dag = b.build().unwrap();

    // A 4-processor BSP machine: per-unit communication cost g = 1,
    // per-superstep latency l = 2.
    let machine = BspParams::new(4, 1, 2);

    // The paper's Figure-3 pipeline; every stage reports the cost it left.
    let registry = Registry::standard();
    let pipeline = registry.get("pipeline/base").expect("registered");
    let outcome = pipeline.solve(&SolveRequest::new(&dag, &machine));
    let result = &outcome.result;

    println!("nodes: {}, edges: {}", dag.n(), dag.m());
    for report in &outcome.stages {
        println!("after stage {:<5} cost {}", report.stage, report.cost_after);
    }
    println!("final cost:       {}", outcome.total());
    println!();
    for v in dag.nodes() {
        println!(
            "node {v}: processor {}, superstep {}",
            result.sched.proc(v),
            result.sched.step(v)
        );
    }
    println!();
    println!("communication schedule:");
    for e in result.comm.entries() {
        println!(
            "  value of {} sent {} -> {} in phase {}",
            e.node, e.from, e.to, e.step
        );
    }

    // The trivial single-processor schedule costs total work + latency.
    let trivial = bsp_sched::schedule::trivial::trivial_cost(&dag, &machine);
    println!();
    println!(
        "trivial cost {trivial}, ours {} ({}x)",
        outcome.total(),
        trivial as f64 / outcome.total() as f64
    );

    // The same DAG through every scheduler in the registry — baselines,
    // initializers, and pipelines behind the one `Scheduler::solve` API.
    println!();
    println!("the full suite, via Registry::standard() (ILP stages off):");
    let fast = PipelineConfig {
        enable_ilp: false,
        ..PipelineConfig::default()
    };
    for entry in registry.entries() {
        let scheduler = entry.build_default(&fast);
        let out = scheduler.solve(&SolveRequest::new(&dag, &machine));
        println!(
            "  {:<20} cost {:>4}  ({} supersteps, {} stages)",
            entry.descriptor().spec(),
            out.total(),
            out.result.cost.per_step.len(),
            out.stages.len()
        );
    }

    // Spec strings select and tune a single scheduler without touching the
    // rest of the suite (grammar: README § "Choosing a scheduler").
    let tuned = registry
        .get("pipeline/base?ilp=off&hc_iters=200")
        .expect("valid spec");
    let out = tuned.solve(&SolveRequest::new(&dag, &machine));
    println!();
    println!(
        "pipeline/base?ilp=off&hc_iters=200 -> cost {} in {:.2} ms",
        out.total(),
        out.elapsed.as_secs_f64() * 1e3
    );
}
