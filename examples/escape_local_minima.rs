//! Compare hill climbing with tabu search, the escape-local-minima search
//! the paper's conclusion proposes as future work (§8).
//!
//! ```text
//! cargo run --release --example escape_local_minima
//! ```

use bsp_sched::core::hc::hill_climb;
use bsp_sched::core::init::bspg_schedule;
use bsp_sched::core::state::ScheduleState;
use bsp_sched::core::tabu::{tabu_search, TabuConfig};
use bsp_sched::dagdb::fine::exp_dag;
use bsp_sched::dagdb::SparsePattern;
use bsp_sched::prelude::*;
use std::time::Duration;

fn main() {
    // A plateau microcosm: four independent heavy tasks started as two
    // pairs. Any single move keeps the maximum load unchanged, so plain
    // hill climbing is stuck; tabu search walks across.
    let mut b = DagBuilder::new();
    for _ in 0..4 {
        b.add_node(10, 1);
    }
    let plateau = b.build().unwrap();
    let machine = BspParams::new(4, 1, 2);
    let start = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0; 4]);
    println!("--- plateau microcosm (4 independent tasks, pairwise start) ---");
    report(&plateau, &machine, &start);

    // A realistic instance: iterated sparse matrix-vector product.
    let dag = exp_dag(&SparsePattern::random_with_diagonal(14, 0.2, 3), 3);
    let machine = BspParams::new(4, 3, 5);
    let start = bspg_schedule(&dag, &machine);
    println!();
    println!(
        "--- exp fine-grained DAG ({} nodes), BSPg start ---",
        dag.n()
    );
    report(&dag, &machine, &start);
}

fn report(dag: &Dag, machine: &BspParams, start: &BspSchedule) {
    let budget = Duration::from_millis(500);
    let start_cost = lazy_cost(dag, machine, start);

    let mut st = ScheduleState::new(dag, machine, start);
    hill_climb(&mut st, &mut Stop::new(Some(budget), None));
    let hc = st.cost();

    let mut stop = Stop::new(Some(budget), None);
    let (_, tb, tb_stats) = tabu_search(dag, machine, start, &TabuConfig::default(), &mut stop);

    println!("start cost:          {start_cost}");
    println!("hill climbing:       {hc}");
    println!(
        "tabu search:         {tb} ({} uphill moves, {} aspirations)",
        tb_stats.uphill, tb_stats.aspirated
    );
}
