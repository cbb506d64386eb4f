//! Cross-crate integration tests for the future-work extensions: escape
//! local-minima searches, NUMA-aware list baselines, MatrixMarket loading,
//! presolve-backed ILP stages, export renderers, and auto-selection.

use bsp_sched::baselines::{blest_bsp_numa_aware, etf_bsp, etf_bsp_numa_aware};
use bsp_sched::core::auto::solve_auto;
use bsp_sched::core::hc::{hill_climb, hill_climb_steepest};
use bsp_sched::core::ilp::window::{WindowIlp, WindowOptions};
use bsp_sched::core::ilp::{ilp_full, IlpConfig};
use bsp_sched::core::init::bspg_schedule;
use bsp_sched::core::pipeline::solve_base_pipeline;
use bsp_sched::core::state::ScheduleState;
use bsp_sched::core::tabu::{tabu_search, TabuConfig};
use bsp_sched::dagdb::fine::{cg_dag, spmv_dag};
use bsp_sched::dagdb::{pattern_from_matrix_market, pattern_to_matrix_market, SparsePattern};
use bsp_sched::ilp::MipStatus;
use bsp_sched::prelude::*;
use bsp_sched::schedule::compact::compact_lazy;
use bsp_sched::schedule::solve::SolveCx;
use bsp_sched::schedule::validity::{validate, validate_lazy};
use bsp_sched::schedule::{dag_to_dot, schedule_to_dot, schedule_to_text};

/// The Figure-3 pipeline under an unlimited budget.
fn schedule_dag(dag: &Dag, machine: &BspParams, cfg: &PipelineConfig) -> PipelineResult {
    let req = SolveRequest::new(dag, machine);
    solve_base_pipeline(dag, machine, cfg, &mut SolveCx::new("pipeline/base", &req))
}

/// The auto-selector under an unlimited budget.
fn schedule_dag_auto(
    dag: &Dag,
    machine: &BspParams,
    cfg: &PipelineConfig,
    auto: &AutoConfig,
) -> (PipelineResult, Strategy) {
    let req = SolveRequest::new(dag, machine);
    solve_auto(dag, machine, cfg, auto, &mut SolveCx::new("auto", &req))
}

fn sample_dag() -> Dag {
    cg_dag(&SparsePattern::random_with_diagonal(8, 0.3, 21), 2)
}

#[test]
fn all_local_searches_refine_the_same_init() {
    let dag = sample_dag();
    let machine = BspParams::new(4, 3, 5);
    let init = bspg_schedule(&dag, &machine);
    let init_cost = lazy_cost(&dag, &machine, &init);

    let mut st = ScheduleState::new(&dag, &machine, &init);
    hill_climb(&mut st, &mut Stop::new(None, Some(2000)));
    let greedy = st.cost();

    let mut st2 = ScheduleState::new(&dag, &machine, &init);
    hill_climb_steepest(&mut st2, &mut Stop::new(None, Some(300)));
    let steepest = st2.cost();

    let (tb_sched, tb, _) = tabu_search(
        &dag,
        &machine,
        &init,
        &TabuConfig {
            max_iters: 300,
            ..TabuConfig::default()
        },
        &mut Stop::new(None, None),
    );

    for (name, cost) in [("greedy", greedy), ("steepest", steepest), ("tabu", tb)] {
        assert!(
            cost <= init_cost,
            "{name} worsened the init: {cost} > {init_cost}"
        );
    }
    assert!(validate_lazy(&dag, 4, &tb_sched).is_ok());
}

#[test]
fn numa_aware_baselines_schedule_database_instances() {
    let dag = sample_dag();
    let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 4));
    for (name, sched) in [
        ("etf-aware", etf_bsp_numa_aware(&dag, &machine)),
        ("blest-aware", blest_bsp_numa_aware(&dag, &machine)),
    ] {
        assert!(validate_lazy(&dag, 8, &sched).is_ok(), "{name}");
    }
    // The aware variant must behave identically on the uniform machine.
    let uniform = BspParams::new(8, 1, 5);
    assert_eq!(
        lazy_cost(&dag, &uniform, &etf_bsp(&dag, &uniform)),
        lazy_cost(&dag, &uniform, &etf_bsp_numa_aware(&dag, &uniform)),
    );
}

#[test]
fn matrix_market_to_schedule_end_to_end() {
    // Round-trip a generated pattern through the MatrixMarket text format,
    // build the spmv fine-grained DAG, and push it through the pipeline.
    let p = SparsePattern::random_with_diagonal(9, 0.3, 5);
    let text = pattern_to_matrix_market(&p);
    let loaded = pattern_from_matrix_market(&text).unwrap();
    assert_eq!(p, loaded);

    let dag = spmv_dag(&loaded);
    let machine = BspParams::new(4, 2, 5);
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    let r = schedule_dag(&dag, &machine, &cfg);
    assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok());
    assert!(r.cost <= lazy_cost(&dag, &machine, &bspg_schedule(&dag, &machine)));
}

#[test]
fn presolve_does_not_change_ilp_stage_semantics() {
    // ILPfull, which always presolves, must be monotone; with enough budget
    // on a tiny DAG, its whole-schedule model reaches the same optimum with
    // and without the presolve pass.
    let dag = spmv_dag(&SparsePattern::random_with_diagonal(3, 0.25, 2));
    let machine = BspParams::new(2, 2, 3);
    let init = bspg_schedule(&dag, &machine);
    let init_cost = lazy_cost(&dag, &machine, &init);
    let mut cfg = IlpConfig::default();
    cfg.full_max_vars = 6000;
    cfg.limits.max_nodes = 200_000;
    cfg.limits.time_limit = std::time::Duration::from_secs(20);
    let (full, _) = ilp_full(&dag, &machine, &init, &cfg, &Stop::new(None, None));
    assert!(
        lazy_cost(&dag, &machine, &full) <= init_cost,
        "ILPfull must be monotone"
    );
    assert!(validate_lazy(&dag, 2, &full).is_ok());

    let base = compact_lazy(&dag, &init);
    let last = base.n_supersteps() - 1;
    let w = WindowIlp::build(&dag, &machine, &base, 0, last, WindowOptions::default());
    let warm = w.warm_start(&dag, &machine, &base);
    let with = bsp_sched::ilp::solve_with_presolve(&w.model, Some(&warm), &cfg.limits);
    let without = w.model.solve(Some(&warm), &cfg.limits);
    if with.status == MipStatus::Optimal && without.status == MipStatus::Optimal {
        assert!(
            (with.objective - without.objective).abs() < 1e-6,
            "presolve changed the optimum: {} vs {}",
            with.objective,
            without.objective
        );
    } else {
        // Budgets were exhausted: both still hold the warm start or better.
        assert!(!with.x.is_empty() && !without.x.is_empty());
    }
}

#[test]
fn exports_render_pipeline_results() {
    let dag = sample_dag();
    let machine = BspParams::new(4, 2, 5);
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    let r = schedule_dag(&dag, &machine, &cfg);

    let dot = schedule_to_dot(&dag, &r.sched);
    assert_eq!(dot.matches("->").count(), dag.m());
    assert!(dag_to_dot(&dag).contains("digraph dag"));

    let txt = schedule_to_text(&dag, &machine, &r.sched, Some(&r.comm));
    assert!(txt.contains(&format!("total cost = {}", r.cost)));
}

#[test]
fn structured_families_schedule_on_every_topology() {
    use bsp_sched::dagdb::structured::{butterfly_dag, in_tree_dag, sptrsv_dag, stencil1d_dag};
    let dags = [
        (
            "sptrsv",
            sptrsv_dag(&SparsePattern::random_with_diagonal(10, 0.35, 3)),
        ),
        ("butterfly", butterfly_dag(3)),
        ("stencil", stencil1d_dag(10, 4)),
        ("in_tree", in_tree_dag(3, 2)),
    ];
    let machines = [
        ("uniform", BspParams::new(6, 2, 5)),
        (
            "two_level",
            BspParams::new(6, 2, 5).with_numa(NumaTopology::two_level(3, 2, 4)),
        ),
        (
            "ring",
            BspParams::new(6, 2, 5).with_numa(NumaTopology::ring(6)),
        ),
        (
            "grid",
            BspParams::new(6, 2, 5).with_numa(NumaTopology::grid(2, 3)),
        ),
    ];
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    for (dname, dag) in &dags {
        for (mname, machine) in &machines {
            let r = schedule_dag(dag, machine, &cfg);
            assert!(
                validate(dag, machine.p(), &r.sched, &r.comm).is_ok(),
                "{dname} on {mname}"
            );
            assert_eq!(
                r.cost,
                total_cost(dag, machine, &r.sched, &r.comm),
                "{dname} on {mname}"
            );
        }
    }
}

#[test]
fn sptrsv_wavefronts_match_hdagg_structure() {
    // SpTRSV is HDagg's native workload: its schedule on the sptrsv DAG
    // must be valid and carry no intra-superstep cross-processor edges.
    use bsp_sched::baselines::hdagg::HDaggConfig;
    use bsp_sched::baselines::hdagg_schedule;
    use bsp_sched::dagdb::structured::sptrsv_dag;
    let dag = sptrsv_dag(&SparsePattern::random_with_diagonal(12, 0.3, 9));
    let machine = BspParams::new(4, 2, 5);
    let s = hdagg_schedule(&dag, &machine, HDaggConfig::default());
    assert!(validate_lazy(&dag, 4, &s).is_ok());
    for (u, v) in dag.edges() {
        if s.step(u) == s.step(v) {
            assert_eq!(s.proc(u), s.proc(v), "intra-superstep cross edge {u}->{v}");
        }
    }
}

#[test]
fn pipeline_escape_stage_end_to_end() {
    let dag = sample_dag();
    let machine = BspParams::new(4, 3, 5);
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    cfg.escape = Some(TabuConfig {
        max_iters: 150,
        ..TabuConfig::default()
    });
    let r = schedule_dag(&dag, &machine, &cfg);
    assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok());
    assert!(r.hc_cost <= r.init_cost);
    assert!(r.cost <= r.hc_cost);
}

#[test]
fn auto_selection_on_database_instances() {
    let dag = sample_dag();
    let mut cfg = PipelineConfig::default();
    cfg.enable_ilp = false;
    let auto = AutoConfig::default();

    // Uniform machine: low dominance, base strategy.
    let uniform = BspParams::new(8, 1, 5);
    let (r, strat) = schedule_dag_auto(&dag, &uniform, &cfg, &auto);
    assert_eq!(strat, Strategy::Base);
    assert!(validate(&dag, 8, &r.sched, &r.comm).is_ok());

    // Steep hierarchy: high dominance, multilevel engaged (the DAG is large
    // enough to coarsen).
    assert!(dag.n() >= auto.min_nodes_for_ml);
    let steep = BspParams::new(16, 3, 5).with_numa(NumaTopology::binary_tree(16, 4));
    let (r2, strat2) = schedule_dag_auto(&dag, &steep, &cfg, &auto);
    assert_eq!(strat2, Strategy::Multilevel);
    assert!(validate(&dag, 16, &r2.sched, &r2.comm).is_ok());
}
