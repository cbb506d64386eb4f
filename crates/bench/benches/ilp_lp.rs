//! The LP engine of branch and bound on two real scheduling windows: the
//! 443-variable single-superstep window of `fine/cg/wide/begin` (509 rows;
//! the most expensive ILP call of the repo benchmark's `offline-refine`
//! pass) and a 248-variable two-superstep window of
//! `coarse/pagerank/conv/8` (302 rows), both from `dataset/tiny` on the
//! 4-processor NUMA tree after hill climbing, both presolved as
//! `solve_with_presolve` would.
//!
//! A 20-node depth-first search — most fractional variable, nearer child
//! first, as `bsp_ilp::branch_bound` runs it, but with no incumbent to
//! prune against (against the warm start the larger window's search is
//! over in nine nodes) — is recorded as the sequence of models it visits,
//! which differ in variable bounds only and include the un-fixing of every
//! backtrack. Before anything is timed the sequence is replayed
//! through one `LpWorkspace` (cold at the root, rebased and re-solved by
//! dual simplex after) and every node is asserted equal in status and
//! objective to a cold solve of the same bounds — by the same engine and by
//! the dense simplex it replaced (kept as the test-only reference in
//! `crates/ilp/tests/dense_reference/`): a tie in the dual ratio test
//! decided by round-off instead of by pivot size fails here, on the larger
//! window, and on few smaller models. Most nodes must have been answered
//! from the kept tableau (a re-solve that outgrows its work budget is
//! abandoned for a cold one — seven of the smaller window's nineteen).
//! Then both ways through the sequence are timed: `cold` solves every node
//! from scratch, `resolve` keeps the tableau.

#[path = "../../ilp/tests/dense_reference/mod.rs"]
mod dense_reference;

use bsp_core::ilp::window::{WindowIlp, WindowOptions};
use bsp_core::pipeline::PipelineConfig;
use bsp_ilp::simplex::solve_lp;
use bsp_ilp::{LpStatus, LpWorkspace, Model};
use bsp_sched::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

const NODES: usize = 20;

/// The presolved window over supersteps `s1..=s2` of `dataset/tiny` member
/// `member` after `pipeline/base?ilp=off` has converged.
fn window(member: &str, s1: u32, s2: u32) -> Model {
    let inst = bsp_sched::instances()
        .generate_one(
            &format!("dataset/tiny?scale=1#{member} @ bsp?p=4&g=2&numa=tree&delta=3"),
            0,
        )
        .expect("a dataset/tiny member");
    // Move caps shape the schedule, never the clock.
    let mut cfg = PipelineConfig::default();
    cfg.hc.time_limit = Some(Duration::from_secs(60));
    cfg.hccs.time_limit = Some(Duration::from_secs(60));
    let refined = Registry::standard()
        .get_with("pipeline/base?ilp=off", &cfg)
        .expect("a registered scheduler")
        .solve(&SolveRequest::new(&inst.dag, &inst.machine));
    let sched = bsp_sched::schedule::compact::compact_lazy(&inst.dag, &refined.result.sched);
    let w = WindowIlp::build(
        &inst.dag,
        &inst.machine,
        &sched,
        s1,
        s2,
        WindowOptions::default(),
    );
    let pre = bsp_ilp::presolve(&w.model);
    assert!(!pre.infeasible);
    pre.model
}

/// Depth-first search from `work`, recording each visited node's model.
fn search(work: &mut Model, visited: &mut Vec<Model>) {
    if visited.len() >= NODES {
        return;
    }
    visited.push(work.clone());
    let lp = solve_lp(work);
    if lp.status != LpStatus::Optimal {
        return;
    }
    let off = |x: f64| (x - x.round()).abs();
    let Some(v) = work
        .fractional_vars(&lp.x, 1e-6)
        .into_iter()
        .max_by(|a, b| off(lp.x[a.index()]).total_cmp(&off(lp.x[b.index()])))
    else {
        return;
    };
    let (lo, hi, val) = (work.lower(v), work.upper(v), lp.x[v.index()]);
    let mut children = [(lo, val.floor()), (val.ceil(), hi)];
    if val - val.floor() > val.ceil() - val {
        children.swap(0, 1);
    }
    for (l, u) in children {
        work.set_bounds(v, l, u);
        search(work, visited);
    }
    work.set_bounds(v, lo, hi);
}

/// The sequence through one workspace: cold at the root, re-solved after.
fn resolved(nodes: &[Model], mut each: impl FnMut(usize, bsp_ilp::LpSolution)) -> LpWorkspace {
    let mut ws = LpWorkspace::default();
    for (k, node) in nodes.iter().enumerate() {
        let lp = if k == 0 {
            ws.solve(node, None)
        } else {
            ws.resolve(node, None)
        };
        each(k, lp);
    }
    ws
}

fn bench_window_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("ilp/window_lp");
    g.sample_size(10);
    for (size, member, (s1, s2), vars) in [
        ("n443", "fine/cg/wide/begin", (0, 0), 443),
        ("n248", "coarse/pagerank/conv/8", (1, 2), 248),
    ] {
        let mut root = window(member, s1, s2);
        assert_eq!(
            root.n_vars(),
            vars,
            "{member}: not the window this bench names"
        );
        let mut nodes = Vec::new();
        search(&mut root, &mut nodes);
        assert_eq!(nodes.len(), NODES, "{member}: the search ended early");

        let ws = resolved(&nodes, |k, warm| {
            for (how, cold) in [
                ("cold", solve_lp(&nodes[k])),
                ("the dense reference", dense_reference::solve_lp(&nodes[k])),
            ] {
                assert_eq!(warm.status, cold.status, "{member} node {k} vs {how}");
                assert!(
                    cold.status != LpStatus::Optimal
                        || (warm.objective - cold.objective).abs()
                            <= 1e-6 * cold.objective.abs().max(1.0),
                    "{member} node {k}: re-solved {} vs {how} {}",
                    warm.objective,
                    cold.objective
                );
            }
        });
        let counts = ws.counts();
        assert_eq!(counts.warm_resolves + counts.cold_fallbacks, NODES - 1);
        assert!(
            counts.warm_resolves > NODES / 2,
            "{member}: most nodes re-solve from the kept tableau: {counts:?}"
        );

        g.bench_function(BenchmarkId::new("cold", size), |b| {
            b.iter(|| {
                for node in &nodes {
                    black_box(solve_lp(black_box(node)));
                }
            })
        });
        g.bench_function(BenchmarkId::new("resolve", size), |b| {
            b.iter(|| black_box(resolved(black_box(&nodes), |_, lp| drop(black_box(lp))).counts()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_window_lp);
criterion_main!(benches);
