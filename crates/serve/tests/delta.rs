//! Delta-API properties, exercised directly on the warm-start pipeline:
//!
//! * random edit sequences on random layered DAGs, warm-started from a
//!   cold base schedule, always yield a *valid* schedule whose cost is
//!   ≤ the repaired warm start (the monotone guarantee), and
//! * a pinned end-to-end check that a small edit on a cached instance is
//!   strictly cheaper in wall-clock than the cold solve that filled the
//!   cache, at equal-or-better cost than its repaired start.

use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
use bsp_core::schedulers::solve_pipeline;
use bsp_core::{solve_warm_pipeline, warm_start_from_map};
use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_dag::{Dag, NodeId};
use bsp_instance::{apply_edits, DagEdit};
use bsp_model::BspParams;
use bsp_schedule::cost::{lazy_cost, total_cost};
use bsp_schedule::solve::{SolveCx, SolveRequest};
use bsp_schedule::validity::validate;
use proptest::prelude::*;

fn fast_cfg() -> PipelineConfig {
    PipelineConfig {
        enable_ilp: false,
        ..Default::default()
    }
}

/// Decodes one candidate edit from three random integers. May propose an
/// edit that cannot apply (duplicate edge, cycle) — callers filter.
fn decode_edit(dag: &Dag, kind: usize, a: u32, b: u32) -> DagEdit {
    let n = dag.n() as u32;
    match kind % 5 {
        0 => DagEdit::AddNode {
            work: (a % 20 + 1) as u64,
            comm: (b % 10 + 1) as u64,
            preds: vec![a % n],
            succs: vec![],
        },
        1 => DagEdit::RemoveNode { node: a % n },
        2 => DagEdit::AddEdge {
            from: a % n,
            to: b % n,
        },
        3 => {
            // Remove an existing edge, if any; else re-weight (always valid).
            let edges: Vec<(NodeId, NodeId)> = dag
                .nodes()
                .flat_map(|u| dag.successors(u).iter().map(move |&v| (u, v)))
                .collect();
            if edges.is_empty() {
                DagEdit::SetWeights {
                    node: a % n,
                    work: Some((b % 30 + 1) as u64),
                    comm: None,
                }
            } else {
                let (from, to) = edges[a as usize % edges.len()];
                DagEdit::RemoveEdge { from, to }
            }
        }
        _ => DagEdit::SetWeights {
            node: a % n,
            work: Some((a % 30 + 1) as u64),
            comm: Some((b % 15 + 1) as u64),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_edits_warm_start_valid_and_monotone(
        dag_seed in 0u64..400,
        k1 in 0usize..5, a1 in 0u32..10_000, b1 in 0u32..10_000,
        k2 in 0usize..5, a2 in 0u32..10_000, b2 in 0u32..10_000,
        p in 2usize..6,
    ) {
        let dag = random_layered_dag(
            dag_seed,
            LayeredConfig { layers: 4, width: 5, edge_prob: 0.35, ..Default::default() },
        );
        let machine = BspParams::new(p, 2, 4);
        let base = solve_pipeline("pipeline/base", &SolveRequest::new(&dag, &machine), |cx| {
            solve_base_pipeline(&dag, &machine, &fast_cfg(), cx)
        })
        .result;

        // Assemble an applicable edit list: try both edits, then each
        // alone, then a guaranteed-applicable re-weight.
        let e1 = decode_edit(&dag, k1, a1, b1);
        let e2 = decode_edit(&dag, k2, a2, b2);
        let fallback = vec![DagEdit::SetWeights { node: 0, work: Some(9), comm: None }];
        let edits = [vec![e1.clone(), e2.clone()], vec![e1], vec![e2], fallback]
            .into_iter()
            .find(|es| apply_edits(&dag, es).is_ok())
            .unwrap();
        let edited = apply_edits(&dag, &edits).unwrap();

        // Transplant + repair, then re-optimize under the warm pipeline.
        let initial =
            warm_start_from_map(&edited.dag, &machine, &base.sched, &edited.node_map);
        let start_cost = lazy_cost(&edited.dag, &machine, &initial);
        let req = SolveRequest::new(&edited.dag, &machine);
        let mut cx = SolveCx::new("warm", &req);
        let r = solve_warm_pipeline(&edited.dag, &machine, &initial, &fast_cfg(), &mut cx);

        prop_assert!(
            validate(&edited.dag, machine.p(), &r.sched, &r.comm).is_ok(),
            "warm result invalid after edits {edits:?}"
        );
        prop_assert!(
            r.cost <= start_cost,
            "monotone guarantee violated: {} > repaired start {}", r.cost, start_cost
        );
        prop_assert_eq!(
            r.cost,
            total_cost(&edited.dag, &machine, &r.sched, &r.comm),
            "reported cost must re-evaluate exactly"
        );
    }
}

/// Pinned wall-clock comparison through the real server: after a cold
/// solve fills the cache, a one-node delta must answer strictly faster
/// than the cold solve did, at a cost no worse than its repaired start.
#[test]
fn warm_delta_is_faster_than_cold_solve() {
    use bsp_serve::client::{Client, DeltaParams, SolveParams};
    use bsp_serve::server::{start, ServeConfig};

    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    cfg.default_budget_ms = Some(30_000);
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Big enough that the cold pipeline does real work (~300 nodes).
    let mut params = SolveParams::default();
    params.instance = "layered?layers=12&width=25&q=0.25&seed=11 @ bsp?p=4&g=2&l=5".to_string();
    let cold = client.solve(&params).unwrap();
    assert_eq!(cold.result.cache_hit, Some(false));
    let cold_us = cold.result.elapsed_us.unwrap();

    let mut delta = DeltaParams::default();
    delta.base = cold.result.instance.clone().unwrap();
    delta.edits = vec![DagEdit::AddNode {
        work: 6,
        comm: 3,
        preds: vec![0, 1],
        succs: vec![],
    }];
    let warm = client.delta(&delta).unwrap();
    assert_eq!(warm.result.warm, Some(true));
    let warm_us = warm.result.elapsed_us.unwrap();
    assert!(
        warm.result.cost.unwrap() <= warm.result.warm_init_cost.unwrap(),
        "warm result worse than its repaired start"
    );
    assert!(
        warm_us < cold_us,
        "warm delta ({warm_us} µs) not faster than cold solve ({cold_us} µs)"
    );
    handle.shutdown();
}
