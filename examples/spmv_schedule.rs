//! Schedule a fine-grained sparse matrix-vector multiplication DAG (the
//! workload family of the paper's Figure 2) and compare against all four
//! baselines under the BSP cost model.
//!
//! ```text
//! cargo run --release --example spmv_schedule
//! ```

use bsp_sched::baselines::etf_schedule;
use bsp_sched::dagdb::fine::{exp_dag, spmv_dag};
use bsp_sched::dagdb::SparsePattern;
use bsp_sched::prelude::*;
use bsp_sched::schedule::classical_to_gantt;

fn main() {
    // A 24x24 random sparse matrix with ~5 nonzeros per row.
    let pattern = SparsePattern::random(24, 0.2, 2024);
    let machine = BspParams::new(8, 3, 5);

    // Budget the ILP stages for interactive use (the library default allows
    // several seconds per ILP window, tuned for offline quality).
    let mut cfg = PipelineConfig::default();
    cfg.ilp.limits.max_nodes = 60;
    cfg.ilp.limits.time_limit = std::time::Duration::from_millis(300);

    // All five comparison baselines, built by spec string.
    let registry = Registry::standard();
    let baseline = |spec: &str, dag: &Dag| {
        registry
            .get(spec)
            .expect("registered baseline")
            .solve(&SolveRequest::new(dag, &machine))
            .total()
    };

    let ours = registry
        .get_with("pipeline/base", &cfg)
        .expect("registered");
    for (name, dag) in [
        ("spmv (1 multiplication)", spmv_dag(&pattern)),
        ("exp  (A^4 u, 4 chained spmv)", exp_dag(&pattern, 4)),
    ] {
        println!("== {name}: n = {}, m = {} ==", dag.n(), dag.m());

        let cilk = baseline("cilk?seed=42", &dag);
        let hdagg = baseline("hdagg", &dag);
        let blest = baseline("bl-est", &dag);
        let etf = baseline("etf", &dag);
        let dsc = baseline("dsc", &dag);

        let out = ours.solve(&SolveRequest::new(&dag, &machine));

        println!("  Cilk   : {cilk}");
        println!("  BL-EST : {blest}");
        println!("  ETF    : {etf}");
        println!("  DSC    : {dsc}");
        println!("  HDagg  : {hdagg}");
        println!(
            "  ours   : {} (init {}, HC {})  -> {:.0}% below Cilk, {:.0}% below HDagg",
            out.total(),
            out.stages[0].cost_after,
            out.stages[1].cost_after,
            100.0 * (1.0 - out.total() as f64 / cilk as f64),
            100.0 * (1.0 - out.total() as f64 / hdagg as f64),
        );
        println!(
            "  supersteps: {}, transfers: {}",
            out.result.sched.n_supersteps(),
            out.result.comm.len()
        );
        println!();
    }

    // A Gantt view of the classical ETF schedule on the spmv instance.
    let dag = spmv_dag(&pattern);
    let etf = etf_schedule(&dag, &machine);
    println!("== ETF Gantt chart (spmv) ==");
    print!("{}", classical_to_gantt(&dag, &etf, 72));
}
