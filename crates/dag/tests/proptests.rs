//! Property-based tests for the DAG substrate.

use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::topo::is_topological_order;
use bsp_dag::traversal::{reaches, weakly_connected_components};
use bsp_dag::{hyperdag, DagBuilder, MutableDag, NodeId, TopoInfo};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_dag() -> impl Strategy<Value = bsp_dag::Dag> {
    (0u64..1000, 1usize..6, 1usize..7, 0.05f64..0.9).prop_map(|(seed, layers, width, p)| {
        random_layered_dag(
            seed,
            LayeredConfig {
                layers,
                width,
                edge_prob: p,
                max_work: 9,
                max_comm: 5,
            },
        )
    })
}

fn arb_dense_dag() -> impl Strategy<Value = bsp_dag::Dag> {
    (0u64..1000, 1usize..25, 0.0f64..0.5)
        .prop_map(|(seed, n, p)| random_order_dag(seed, n, p, 9, 5))
}

/// Either shape: layered DAGs contract along chains, dense ones are full
/// of parallel edges for a merge to collapse.
fn arb_any_dag() -> impl Strategy<Value = bsp_dag::Dag> {
    (arb_dag(), arb_dense_dag(), proptest::bool::ANY)
        .prop_map(|(layered, dense, pick)| if pick { layered } else { dense })
}

/// Everything observable about a [`MutableDag`], dead nodes included.
fn state_of(m: &MutableDag, n: usize) -> Vec<(bool, u64, u64, BTreeSet<NodeId>, BTreeSet<NodeId>)> {
    (0..n as NodeId)
        .map(|v| {
            (
                m.is_alive(v),
                m.work(v),
                m.comm(v),
                m.successors(v).clone(),
                m.predecessors(v).clone(),
            )
        })
        .collect()
}

/// Contractability by definition, knowing nothing of any order: an
/// exhaustive search for `v` from `u`'s other successors.
fn no_second_path(m: &MutableDag, u: NodeId, v: NodeId) -> bool {
    let mut stack: Vec<NodeId> = m
        .successors(u)
        .iter()
        .copied()
        .filter(|&w| w != v)
        .collect();
    let mut seen: BTreeSet<NodeId> = stack.iter().copied().collect();
    while let Some(x) = stack.pop() {
        for &y in m.successors(x) {
            if y == v {
                return false;
            }
            if seen.insert(y) {
                stack.push(y);
            }
        }
    }
    true
}

/// `contractable_edges` and `is_contractable` against the definition.
fn check_contractability(m: &MutableDag) -> Result<(), proptest::test_runner::TestCaseError> {
    let expected: Vec<(NodeId, NodeId)> = m
        .live_edges()
        .into_iter()
        .filter(|&(u, v)| no_second_path(m, u, v))
        .collect();
    prop_assert_eq!(&m.contractable_edges(), &expected);
    for (u, v) in m.live_edges() {
        prop_assert_eq!(
            m.is_contractable(u, v),
            expected.contains(&(u, v)),
            "({}, {})",
            u,
            v
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn topo_order_always_valid(dag in arb_dag()) {
        let t = TopoInfo::new(&dag);
        prop_assert!(is_topological_order(&dag, &t.order));
    }

    #[test]
    fn level_respects_edges(dag in arb_dense_dag()) {
        let t = TopoInfo::new(&dag);
        for (u, v) in dag.edges() {
            prop_assert!(t.level[u as usize] < t.level[v as usize]);
        }
    }

    #[test]
    fn hyperdag_round_trip(dag in arb_dag()) {
        let s = hyperdag::to_hyperdag_string(&dag);
        let back = hyperdag::from_hyperdag_str(&s).unwrap();
        prop_assert_eq!(dag, back);
    }

    #[test]
    fn components_partition_nodes(dag in arb_dense_dag()) {
        let comps = weakly_connected_components(&dag);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, dag.n());
        let mut seen = vec![false; dag.n()];
        for c in &comps {
            for &v in c {
                prop_assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn contraction_preserves_totals_and_acyclicity(dag in arb_dag(), steps in 0usize..10) {
        let mut m = MutableDag::from_dag(&dag);
        for _ in 0..steps {
            let edges = m.contractable_edges();
            let Some(&(u, v)) = edges.first() else { break };
            m.contract_edge(u, v);
        }
        let (c, map) = m.compact();
        // Weight totals invariant under contraction.
        prop_assert_eq!(c.total_work(), dag.total_work());
        prop_assert_eq!(c.total_comm(), dag.total_comm());
        // Result is still a DAG (TopoInfo would have too short an order otherwise).
        let t = TopoInfo::new(&c);
        prop_assert!(is_topological_order(&c, &t.order));
        // Mapping covers exactly the live nodes.
        let live = map.iter().filter(|x| x.is_some()).count();
        prop_assert_eq!(live, c.n());
    }

    /// Contractions undone in reverse restore every intermediate graph
    /// exactly: adjacency, weights, liveness. Random picks on dense DAGs
    /// merge into already-merged nodes and collapse parallel edges.
    #[test]
    fn uncontract_is_the_exact_inverse(
        dag in arb_any_dag(),
        picks in proptest::collection::vec(0usize..1000, 0..20),
    ) {
        let mut m = MutableDag::from_dag(&dag);
        let mut states = vec![state_of(&m, dag.n())];
        let mut log = Vec::new();
        for pick in picks {
            let edges = m.contractable_edges();
            if edges.is_empty() {
                break;
            }
            let (u, v) = edges[pick % edges.len()];
            m.contract_edge(u, v);
            log.push((u, v));
            states.push(state_of(&m, dag.n()));
        }
        while let Some(undone) = m.uncontract() {
            states.pop();
            prop_assert_eq!(Some(undone), log.pop());
            prop_assert_eq!(&state_of(&m, dag.n()), states.last().unwrap());
            prop_assert_eq!(m.n_alive(), dag.n() - log.len());
        }
        prop_assert!(log.is_empty());
        prop_assert_eq!(m.compact().0, dag);
    }

    /// The order-bounded searches agree with the exhaustive one on the
    /// graphs where a stale or broken order would show: after contractions,
    /// and again after some of them are undone.
    #[test]
    fn bounded_contractability_matches_exhaustive_search(
        dag in arb_any_dag(),
        picks in proptest::collection::vec(0usize..1000, 0..16),
        undo in 0usize..8,
    ) {
        let mut m = MutableDag::from_dag(&dag);
        check_contractability(&m)?;
        for pick in picks {
            let edges = m.contractable_edges();
            if edges.is_empty() {
                break;
            }
            let (u, v) = edges[pick % edges.len()];
            m.contract_edge(u, v);
            check_contractability(&m)?;
        }
        for _ in 0..undo {
            if m.uncontract().is_none() {
                break;
            }
            check_contractability(&m)?;
        }
    }

    #[test]
    fn contractability_means_no_alternative_path(dag in arb_dense_dag()) {
        let m = MutableDag::from_dag(&dag);
        for (u, v) in dag.edges().take(30) {
            let contractable = m.is_contractable(u, v);
            // Check against a direct definition: remove edge, test reachability.
            let mut b = bsp_dag::DagBuilder::new();
            for x in dag.nodes() {
                b.add_node(dag.work(x), dag.comm(x));
            }
            for (a2, b2) in dag.edges() {
                if (a2, b2) != (u, v) {
                    b.add_edge(a2, b2).unwrap();
                }
            }
            let without = b.build().unwrap();
            prop_assert_eq!(contractable, !reaches(&without, u, v));
        }
    }
    /// `Dag::append` equals the `DagBuilder` rebuild, CSR array for CSR
    /// array, after every batch: a DAG whose edges ascend in id is cut at
    /// a random node, and the rest arrives in batches of random sizes
    /// with each predecessor list reversed and partly duplicated.
    #[test]
    fn append_equals_the_builder_rebuild(
        dag in arb_any_dag(),
        cut in 0usize..40,
        sizes in proptest::collection::vec(1usize..9, 1..12),
        dup in 0usize..3,
    ) {
        prop_assert!(dag.edges().all(|(u, v)| u < v), "generators number along edges");
        let n = dag.n();
        let prefix = |k: usize| dag.induced_subgraph(&(0..k as NodeId).collect::<Vec<_>>()).0;
        let mut at = cut.min(n);
        let mut grown = prefix(at);
        let mut sizes = sizes.into_iter().cycle();
        while at < n {
            let to = (at + sizes.next().unwrap()).min(n);
            let preds: Vec<Vec<NodeId>> = (at..to)
                .map(|v| {
                    let mut p: Vec<NodeId> = dag.predecessors(v as NodeId).to_vec();
                    p.reverse();
                    let again: Vec<NodeId> = p.iter().copied().take(dup).collect();
                    p.extend(again);
                    p
                })
                .collect();
            let batch: Vec<(u64, u64, &[NodeId])> = (at..to)
                .zip(&preds)
                .map(|(v, p)| (dag.work(v as NodeId), dag.comm(v as NodeId), p.as_slice()))
                .collect();
            grown.append(&batch).unwrap();
            at = to;
            prop_assert_eq!(&grown, &prefix(at), "after appending up to {}", at);
        }
        prop_assert_eq!(&grown, &dag);
        // The same through the builder, to pin the comparison itself.
        let mut b = DagBuilder::new();
        for v in dag.nodes() {
            b.add_node(dag.work(v), dag.comm(v));
        }
        for (u, v) in dag.edges() {
            b.add_edge(u, v).unwrap();
        }
        prop_assert_eq!(&grown, &b.build().unwrap());
    }

}
