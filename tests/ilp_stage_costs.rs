//! Pins for the ILP stage on the four rows the repo benchmark runs with
//! `ilp=on` (`offline-refine`, `dataset/tiny` members on the 4-processor
//! NUMA tree), under the benchmark's configuration: node and size caps
//! shape the answer, every wall clock is slack.
//!
//! The costs are upper bounds — the values at the commit before the
//! bounded-variable simplex (PR 22), which are also each row's `hc` cost:
//! the stage is accept-if-better, so a faster LP engine may lower them and
//! must never raise them. The second test is the engine's own contract on
//! the same rows: every branch-and-bound node past the root is re-solved
//! from the search's one tableau, never cold.

use bsp_sched::core::ilp::window::{WindowIlp, WindowOptions};
use bsp_sched::ilp::{solve_with_presolve, SolveLimits};
use bsp_sched::prelude::*;
use bsp_sched::schedule::compact::compact_lazy;
use bsp_sched::schedule::validity::validate;
use std::time::Duration;

const SLACK: Duration = Duration::from_secs(60);
const PART_TARGET_VARS: usize = 100;

/// `(dataset/tiny member, cost the row ended at before PR 22)`.
const ROWS: [(&str, u64); 4] = [
    ("coarse/bicgstab/it3/8", 158),
    ("coarse/cg/conv/8", 118),
    ("coarse/pagerank/conv/8", 234),
    ("fine/cg/wide/begin", 149),
];

/// `benchmark/src/common.rs::base_pipeline`.
fn benchmark_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.hc.time_limit = Some(SLACK);
    cfg.hccs.time_limit = Some(SLACK);
    cfg.ilp.limits.time_limit = SLACK;
    cfg.ilp.limits.max_nodes = 2;
    cfg.ilp.full_max_vars = 200;
    cfg.ilp.part_target_vars = PART_TARGET_VARS;
    cfg
}

fn solve(member: &str, sched: &str) -> (Instance, SolveOutcome) {
    let inst = bsp_sched::instances()
        .generate_one(
            &format!("dataset/tiny?scale=1#{member} @ bsp?p=4&g=2&numa=tree&delta=3"),
            0,
        )
        .expect("a dataset/tiny member");
    let out = Registry::standard()
        .get_with(sched, &benchmark_config())
        .expect("a registered scheduler")
        .solve(&SolveRequest::new(&inst.dag, &inst.machine));
    (inst, out)
}

#[test]
fn benchmark_ilp_rows_end_no_higher_than_before_the_bounded_simplex() {
    for (member, pinned) in ROWS {
        let (inst, out) = solve(
            member,
            "pipeline/base?ilp=on&ilp_init=off&ilp_ms=60000&hc_ms=60000&hccs_ms=60000",
        );
        assert!(
            out.total() <= pinned,
            "{member}: {} > {pinned}",
            out.total()
        );
        assert!(!out.budget_exhausted, "{member}: a slack clock ran out");
        let stages: Vec<&str> = out.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["init", "hc", "ilp"], "{member}");
        assert!(
            out.stages
                .windows(2)
                .all(|w| w[1].cost_after <= w[0].cost_after),
            "{member}: {:?}",
            out.stages
        );
        assert_eq!(out.stages[2].cost_after, out.total(), "{member}");
        let r = &out.result;
        assert!(
            validate(&inst.dag, inst.machine.p(), &r.sched, &r.comm).is_ok(),
            "{member}: invalid schedule"
        );
        assert_eq!(
            out.total(),
            total_cost(&inst.dag, &inst.machine, &r.sched, &r.comm),
            "{member}"
        );
    }
}

/// The back-to-front superstep intervals `ilp_part` cuts a schedule into
/// (the loop of `bsp_core::ilp::ilp_part`, which keeps it private).
fn part_intervals(sched: &BspSchedule, p: usize) -> Vec<(u32, u32)> {
    let nodes_in = |lo: i64, hi: i64| {
        sched
            .steps()
            .iter()
            .filter(|&&s| s as i64 >= lo && s as i64 <= hi)
            .count()
    };
    let mut intervals = Vec::new();
    let mut hi = sched.n_supersteps() as i64 - 1;
    while hi >= 0 {
        let mut lo = hi;
        loop {
            let est = WindowIlp::estimate_vars(nodes_in(lo, hi), (hi - lo + 1) as usize, p);
            if est > PART_TARGET_VARS && lo < hi {
                lo += 1;
                break;
            }
            if lo == 0 || est > PART_TARGET_VARS {
                break;
            }
            lo -= 1;
        }
        intervals.push((lo as u32, hi as u32));
        hi = lo - 1;
    }
    intervals
}

#[test]
fn every_ilp_part_window_of_the_rows_re_solves_its_one_tableau() {
    let limits = SolveLimits {
        max_nodes: 2,
        time_limit: SLACK,
        gap: 1e-6,
    };
    let mut windows = 0;
    let mut branched = 0;
    for (member, _) in ROWS {
        // What the stage starts from: the schedule HC and HCcs converged to.
        let (inst, out) = solve(member, "pipeline/base?ilp=off&hc_ms=60000&hccs_ms=60000");
        let sched = compact_lazy(&inst.dag, &out.result.sched);
        for (s1, s2) in part_intervals(&sched, inst.machine.p()) {
            let w = WindowIlp::build(
                &inst.dag,
                &inst.machine,
                &sched,
                s1,
                s2,
                WindowOptions::default(),
            );
            let warm = w.warm_start(&inst.dag, &inst.machine, &sched);
            let sol = solve_with_presolve(&w.model, Some(&warm), &limits);
            assert_eq!(
                (sol.cold_fallbacks, sol.warm_resolves),
                (0, sol.nodes - 1),
                "{member} supersteps {s1}..={s2}: {} nodes",
                sol.nodes
            );
            assert!(sol.objective <= w.model.eval_objective(&warm) + 1e-9);
            windows += 1;
            branched += usize::from(sol.nodes > 1);
        }
    }
    assert!(
        branched * 2 > windows,
        "most windows branch past their root: {branched} of {windows}"
    );
}

/// A window whose LP tableau would pass [`bsp_sched::ilp::MAX_TABLEAU_ENTRIES`]
/// is refused before it is allocated. `ILPpart` keeps a one-superstep
/// window even when that window alone is far over `part_target_vars`; on
/// this 2 108-node instance (the daemon's default seed) such a window once
/// asked for a 4.5 GB dense tableau, and the failed allocation aborted the
/// process — a daemon with it, since `?ilp=on` is a request's to ask for.
/// Refused, the window keeps its warm start and the solve ends as usual.
#[test]
fn a_window_too_large_for_the_tableau_is_refused_not_allocated() {
    let inst = bsp_sched::instances()
        .generate_one(
            "spmv?n=80&q=0.3 @ bsp?p=4&g=2",
            bsp_sched::instance::DEFAULT_SEED,
        )
        .expect("an spmv instance");
    assert_eq!(inst.dag.n(), 2108);
    let spec = "pipeline/base?ilp=on&ilp_init=off&hc_iters=50&hccs_iters=25&ilp_ms=500";
    let out = Registry::standard()
        .get(spec)
        .expect("a registered scheduler")
        .solve(&SolveRequest::new(&inst.dag, &inst.machine));
    let stages: Vec<&str> = out.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(stages, ["init", "hc", "ilp"]);
    let r = &out.result;
    assert!(validate(&inst.dag, inst.machine.p(), &r.sched, &r.comm).is_ok());
    assert_eq!(
        out.total(),
        total_cost(&inst.dag, &inst.machine, &r.sched, &r.comm)
    );
}
