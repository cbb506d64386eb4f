//! Prove optimality on a tiny instance with `ILPfull`, and measure how far
//! the heuristics were from the optimum (paper §4.4: on very small DAGs the
//! full ILP formulation of [28] is solvable exactly).
//!
//! ```text
//! cargo run --release --example exact_ilp_tiny
//! ```

use bsp_sched::baselines::hdagg::HDaggConfig;
use bsp_sched::baselines::{cilk_bsp, hdagg_schedule};
use bsp_sched::core::ilp::window::{WindowIlp, WindowOptions};
use bsp_sched::core::ilp::{ilp_full, IlpConfig};
use bsp_sched::core::init::bspg_schedule;
use bsp_sched::prelude::*;
use bsp_sched::schedule::compact::compact_lazy;

fn main() {
    // Two chains joined at a sink; an interesting trade-off between running
    // the chains in parallel (communication at the join) and serially.
    let mut b = DagBuilder::new();
    let a1 = b.add_node(3, 2);
    let a2 = b.add_node(3, 2);
    let c1 = b.add_node(3, 2);
    let c2 = b.add_node(3, 2);
    let join = b.add_node(1, 1);
    b.add_edge(a1, a2).unwrap();
    b.add_edge(a2, join).unwrap();
    b.add_edge(c1, c2).unwrap();
    b.add_edge(c2, join).unwrap();
    let dag = b.build().unwrap();

    for g in [1u64, 4, 12] {
        let machine = BspParams::new(2, g, 3);
        let cilk = lazy_cost(&dag, &machine, &cilk_bsp(&dag, &machine, 42));
        let hdagg = lazy_cost(
            &dag,
            &machine,
            &hdagg_schedule(&dag, &machine, HDaggConfig::default()),
        );
        let init = bspg_schedule(&dag, &machine);
        let init_cost = lazy_cost(&dag, &machine, &init);

        // ILPfull with a generous budget: `proven` reports solver optimality
        // within the full-window model.
        let mut cfg = IlpConfig::default();
        cfg.full_max_vars = 10_000;
        cfg.limits.max_nodes = 50_000;
        cfg.limits.time_limit = std::time::Duration::from_secs(20);
        let (best, proven) = ilp_full(&dag, &machine, &init, &cfg, &Stop::new(None, None));
        let opt = lazy_cost(&dag, &machine, &best);

        println!(
            "g = {g:>2}: Cilk {cilk:>3}  HDagg {hdagg:>3}  BSPg {init_cost:>3}  ILPfull {opt:>3}{}",
            if proven { " (proven optimal)" } else { "" }
        );
        // The same model handed to the solver directly, to see what the proof
        // cost: every node past the root re-solves the search's one tableau.
        let base = compact_lazy(&dag, &init);
        let last = base.n_supersteps() - 1;
        let w = WindowIlp::build(&dag, &machine, &base, 0, last, WindowOptions::default());
        let warm = w.warm_start(&dag, &machine, &base);
        let sol = bsp_sched::ilp::solve_with_presolve(&w.model, Some(&warm), &cfg.limits);
        println!(
            "        {} nodes, {} LP solves, {} pivots, {} re-solved warm, {} cold fall-backs",
            sol.nodes, sol.lp_solves, sol.pivots, sol.warm_resolves, sol.cold_fallbacks
        );
        if g >= 12 {
            // With very expensive communication the optimum serializes both
            // chains on one processor — the "trivial" shape of §7.3.
            let trivial = bsp_sched::schedule::trivial::trivial_cost(&dag, &machine);
            println!("        trivial single-processor cost: {trivial}");
        }
    }
}
