//! The multilevel pipeline under a budget that is gone before it starts.
//!
//! One test function on purpose: it reads the process-global
//! `bsp_ls_visits_total` counter, and a second test running hill climbing
//! on another thread of this binary would move it.

use bsp_core::multilevel::MultilevelConfig;
use bsp_core::pipeline::{solve_multilevel_pipeline, PipelineConfig};
use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::solve::{Budget, CancelToken, SolveCx, SolveRequest};
use bsp_schedule::validity::validate;

/// An expired deadline and a pre-cancelled token both get a valid
/// schedule, and the un-coarsening walk pays for no refinement on the way:
/// every hill-climbing visit is counted, and a run without a budget makes
/// thousands of them on this instance.
#[test]
fn spent_budget_projects_without_refining() {
    let dag = random_layered_dag(
        13,
        LayeredConfig {
            layers: 8,
            width: 8,
            ..Default::default()
        },
    );
    let machine = BspParams::new(4, 10, 5).with_numa(NumaTopology::binary_tree(4, 4));
    let cfg = PipelineConfig {
        enable_ilp: false,
        ..Default::default()
    };
    let visits = || bsp_obs::global().counter("bsp_ls_visits_total", &[]).get();
    let solve = |budget: Budget| {
        let req = SolveRequest::new(&dag, &machine).with_budget(budget);
        let mut cx = SolveCx::new("pipeline/multilevel", &req);
        let before = visits();
        let r =
            solve_multilevel_pipeline(&dag, &machine, &cfg, &MultilevelConfig::default(), &mut cx);
        assert!(validate(&dag, machine.p(), &r.sched, &r.comm).is_ok());
        visits() - before
    };

    assert_eq!(solve(Budget::expired()), 0, "expired deadline");
    let token = CancelToken::new();
    token.cancel();
    assert_eq!(
        solve(Budget::unlimited().with_cancel(token)),
        0,
        "cancelled"
    );
    assert!(solve(Budget::unlimited()) > 1000, "the counter does count");
}
