//! CCR-driven automatic base/multilevel selection across a NUMA sweep —
//! the "decide if coarsification is even necessary" idea of §7.3 / C.6.
//!
//! ```text
//! cargo run --release --example autotune_numa
//! ```

use bsp_sched::core::auto::{comm_dominance, solve_auto};
use bsp_sched::dagdb::fine::cg_dag;
use bsp_sched::dagdb::SparsePattern;
use bsp_sched::prelude::*;
use bsp_sched::schedule::solve::SolveCx;

fn main() {
    let dag = cg_dag(&SparsePattern::random_with_diagonal(12, 0.25, 11), 2);
    println!("CG fine-grained DAG: {} nodes, {} edges", dag.n(), dag.m());
    println!();
    println!(
        "{:>3} {:>9} {:>12} {:>8} {:>8} {:>8}",
        "Δ", "CCR_λ", "strategy", "auto", "Cilk", "HDagg"
    );

    // Baselines by spec string: only these two entries are constructed.
    let registry = Registry::standard();
    let cilk_s = registry.get("cilk?seed=42").expect("cilk registered");
    let hdagg_s = registry.get("hdagg").expect("hdagg registered");

    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false; // keep the sweep fast
    for delta in [0u64, 2, 3, 4] {
        let mut machine = BspParams::new(8, 1, 5);
        if delta > 0 {
            machine = machine.with_numa(NumaTopology::binary_tree(8, delta));
        }
        let dom = comm_dominance(&dag, &machine);
        let req = SolveRequest::new(&dag, &machine);
        let mut cx = SolveCx::new("auto", &req);
        let (result, strategy) = solve_auto(&dag, &machine, &cfg, &AutoConfig::default(), &mut cx);
        let cilk = cilk_s.solve(&SolveRequest::new(&dag, &machine)).total();
        let hdagg = hdagg_s.solve(&SolveRequest::new(&dag, &machine)).total();
        println!(
            "{:>3} {:>9.2} {:>12} {:>8} {:>8} {:>8}",
            delta,
            dom,
            format!("{strategy:?}"),
            result.cost,
            cilk,
            hdagg
        );
    }
    println!();
    println!("(Δ = 0 is the uniform machine; strategy flips to Multilevel once");
    println!(" the generalized CCR crosses the configured threshold.)");
}
