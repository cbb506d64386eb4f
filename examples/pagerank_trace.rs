//! Coarse-grained DAG extraction: run PageRank on the recording
//! GraphBLAS-like algebra, extract its computational DAG, and schedule it
//! (paper §5, Appendix B.1).
//!
//! ```text
//! cargo run --release --example pagerank_trace
//! ```

use bsp_sched::dagdb::coarse::algorithms::{link_matrix, pagerank, Iterations};
use bsp_sched::dagdb::coarse::Ctx;
use bsp_sched::prelude::*;

fn main() {
    // Record a PageRank run over a 64-node random link graph.
    let ctx = Ctx::new();
    let links = link_matrix(&ctx, 64, 0.08, 11);
    let ranks = pagerank(&ctx, &links, Iterations::Converge(1e-9, 60));
    let top = ranks
        .values()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "pagerank converged; top node {} with rank {:.4}",
        top.0, top.1
    );

    // The recorded trace *is* the computational DAG.
    let dag = ctx.extract_dag();
    let stats = bsp_sched::dag::analysis::DagStats::compute(&dag);
    println!(
        "extracted coarse DAG: n = {}, m = {}, depth = {}, max width = {}",
        stats.n, stats.m, stats.depth, stats.max_width
    );

    // Schedule the extracted DAG on an 8-processor NUMA machine.
    let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 2));
    let pipeline = Registry::standard()
        .get("pipeline/base?ilp=off")
        .expect("registered");
    let out = pipeline.solve(&SolveRequest::new(&dag, &machine));
    println!(
        "scheduled into {} supersteps at cost {} (best init {}, after HC {})",
        out.result.sched.n_supersteps(),
        out.total(),
        out.stages[0].cost_after,
        out.stages[1].cost_after
    );
}
