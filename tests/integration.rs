//! Cross-crate integration tests: database generators → baselines →
//! pipeline → validity/cost invariants, end to end.

use bsp_sched::baselines::hdagg::HDaggConfig;
use bsp_sched::baselines::{blest_bsp, cilk_bsp, etf_bsp, hdagg_schedule};
use bsp_sched::core::multilevel::MultilevelConfig;
use bsp_sched::core::pipeline::{solve_base_pipeline, solve_multilevel_pipeline};
use bsp_sched::dagdb::coarse::algorithms::{cg as coarse_cg, spd_matrix, Iterations};
use bsp_sched::dagdb::coarse::Ctx;
use bsp_sched::dagdb::fine::{cg_dag, exp_dag, knn_dag, spmv_dag};
use bsp_sched::dagdb::{dataset, DatasetKind, SparsePattern};
use bsp_sched::prelude::*;
use bsp_sched::schedule::solve::SolveCx;
use bsp_sched::schedule::trivial::trivial_cost;
use bsp_sched::schedule::validity::{validate, validate_lazy};

fn family_dags() -> Vec<(&'static str, Dag)> {
    let p = SparsePattern::random_with_diagonal(10, 0.25, 31);
    vec![
        ("spmv", spmv_dag(&p)),
        ("exp", exp_dag(&p, 3)),
        ("cg", cg_dag(&p, 2)),
        ("knn", knn_dag(&p, 0, 3)),
    ]
}

/// The Figure-3 pipeline under an unlimited budget.
fn schedule_dag(dag: &Dag, machine: &BspParams, cfg: &PipelineConfig) -> PipelineResult {
    let req = SolveRequest::new(dag, machine);
    solve_base_pipeline(dag, machine, cfg, &mut SolveCx::new("pipeline/base", &req))
}

/// Pipeline config with debug-build-friendly ILP budgets.
fn fast_cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.ilp.limits.max_nodes = 30;
    cfg.ilp.limits.time_limit = std::time::Duration::from_millis(250);
    cfg.ilp.full_max_vars = 400;
    cfg.ilp.part_target_vars = 200;
    cfg
}

#[test]
fn pipeline_beats_or_matches_every_baseline_family() {
    let machine = BspParams::new(4, 3, 5);
    for (name, dag) in family_dags() {
        let cilk = lazy_cost(&dag, &machine, &cilk_bsp(&dag, &machine, 42));
        let hdagg = lazy_cost(
            &dag,
            &machine,
            &hdagg_schedule(&dag, &machine, HDaggConfig::default()),
        );
        let r = schedule_dag(&dag, &machine, &fast_cfg());
        assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok(), "{name}");
        // The pipeline explores a strict superset of single-processor
        // schedules reachable by HC; it should never lose to both baselines
        // at once on these workloads.
        assert!(
            r.cost <= cilk.max(hdagg),
            "{name}: ours {} vs cilk {cilk}, hdagg {hdagg}",
            r.cost
        );
    }
}

#[test]
fn full_pipeline_with_ilp_is_monotone_per_stage() {
    let dag = exp_dag(&SparsePattern::random(12, 0.25, 77), 3);
    let machine = BspParams::new(4, 2, 5);
    let r = schedule_dag(&dag, &machine, &fast_cfg());
    assert!(r.hc_cost <= r.init_cost);
    assert!(r.part_cost <= r.hc_cost);
    assert!(r.cost <= r.part_cost);
    assert_eq!(r.cost, total_cost(&dag, &machine, &r.sched, &r.comm));
}

#[test]
fn numa_multilevel_end_to_end() {
    let dag = cg_dag(&SparsePattern::random_with_diagonal(8, 0.3, 5), 2);
    let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 4));
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    let req = SolveRequest::new(&dag, &machine);
    let mut cx = SolveCx::new("pipeline/multilevel", &req);
    let ml = solve_multilevel_pipeline(&dag, &machine, &cfg, &MultilevelConfig::default(), &mut cx);
    assert!(validate(&dag, 8, &ml.sched, &ml.comm).is_ok());
    // §7.3: the multilevel scheduler consistently beats the trivial
    // schedule even in communication-dominated settings.
    assert!(
        ml.cost <= trivial_cost(&dag, &machine),
        "ml {} vs trivial {}",
        ml.cost,
        trivial_cost(&dag, &machine)
    );
}

#[test]
fn datasets_feed_the_pipeline() {
    let insts = dataset(DatasetKind::Tiny, 0.5);
    assert!(insts.len() >= 10);
    let machine = BspParams::new(4, 1, 5);
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    for inst in insts.iter().take(4) {
        let r = schedule_dag(&inst.dag, &machine, &cfg);
        assert!(
            validate(&inst.dag, 4, &r.sched, &r.comm).is_ok(),
            "{} invalid",
            inst.name
        );
        assert!(r.cost <= trivial_cost(&inst.dag, &machine).max(r.cost));
    }
}

#[test]
fn coarse_trace_schedules_validly() {
    let ctx = Ctx::new();
    let a = spd_matrix(&ctx, 12, 0.25, 3);
    let b = ctx.vector(vec![1.0; 12]);
    coarse_cg(&ctx, &a, &b, Iterations::Fixed(3));
    let dag = ctx.extract_dag();
    let machine = BspParams::new(4, 3, 5);
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    let r = schedule_dag(&dag, &machine, &cfg);
    assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok());
}

#[test]
fn all_baselines_valid_on_all_families() {
    let machine = BspParams::new(4, 3, 5).with_numa(NumaTopology::binary_tree(4, 2));
    for (name, dag) in family_dags() {
        for (bname, sched) in [
            ("cilk", cilk_bsp(&dag, &machine, 1)),
            ("blest", blest_bsp(&dag, &machine)),
            ("etf", etf_bsp(&dag, &machine)),
            (
                "hdagg",
                hdagg_schedule(&dag, &machine, HDaggConfig::default()),
            ),
        ] {
            assert!(
                validate_lazy(&dag, 4, &sched).is_ok(),
                "{bname} invalid on {name}"
            );
        }
    }
}

#[test]
fn hyperdag_round_trip_through_database_instances() {
    for (name, dag) in family_dags() {
        let text = bsp_sched::dag::hyperdag::to_hyperdag_string(&dag);
        let back = bsp_sched::dag::hyperdag::from_hyperdag_str(&text).unwrap();
        assert_eq!(dag, back, "{name}");
    }
}
