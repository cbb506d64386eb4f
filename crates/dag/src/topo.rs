//! Topological orderings, level sets, and critical-path metrics.

use crate::graph::{Dag, NodeId};

/// Precomputed ordering information for a DAG.
///
/// * `order[i]` — the i-th node in a deterministic topological order
///   (Kahn's algorithm with a smallest-id-first tie break).
/// * `position[v]` — inverse permutation of `order`.
/// * `level[v]` — length (in edges) of the longest path from any source to
///   `v`; level sets are the "wavefronts" used by the Source heuristic and
///   HDagg (paper §4.1–4.2).
#[derive(Debug, Clone)]
pub struct TopoInfo {
    /// Topological order of all node ids.
    pub order: Vec<NodeId>,
    /// `position[v]` = index of `v` in `order`.
    pub position: Vec<u32>,
    /// Longest-path-from-source depth of each node, in edges.
    pub level: Vec<u32>,
}

impl TopoInfo {
    /// Computes ordering info for `dag`.
    pub fn new(dag: &Dag) -> Self {
        crate::calls::note("TopoInfo::new");
        let n = dag.n();
        let mut indeg: Vec<u32> = (0..n).map(|v| dag.in_degree(v as NodeId) as u32).collect();
        // Min-heap on node id for determinism.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<NodeId>> = (0..n as NodeId)
            .filter(|&v| indeg[v as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut level = vec![0u32; n];
        while let Some(std::cmp::Reverse(u)) = heap.pop() {
            order.push(u);
            for &v in dag.successors(u) {
                level[v as usize] = level[v as usize].max(level[u as usize] + 1);
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    heap.push(std::cmp::Reverse(v));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "input must be acyclic");
        let mut position = vec![0u32; n];
        for (i, &v) in order.iter().enumerate() {
            position[v as usize] = i as u32;
        }
        TopoInfo {
            order,
            position,
            level,
        }
    }

    /// Number of levels (`max level + 1`), i.e. the DAG depth in nodes.
    /// Zero for the empty DAG.
    pub fn depth(&self) -> usize {
        self.level.iter().max().map_or(0, |&d| d as usize + 1)
    }

    /// Groups nodes by [`TopoInfo::level`]: `sets[k]` holds every node at
    /// level `k`, each sorted by id.
    pub fn level_sets(&self) -> Vec<Vec<NodeId>> {
        let mut sets = vec![Vec::new(); self.depth()];
        for v in 0..self.level.len() {
            sets[self.level[v] as usize].push(v as NodeId);
        }
        sets
    }
}

/// Returns `true` if `order` is a permutation of the nodes of `dag` that
/// respects every edge.
pub fn is_topological_order(dag: &Dag, order: &[NodeId]) -> bool {
    if order.len() != dag.n() {
        return false;
    }
    let mut position = vec![usize::MAX; dag.n()];
    for (i, &v) in order.iter().enumerate() {
        if (v as usize) >= dag.n() || position[v as usize] != usize::MAX {
            return false;
        }
        position[v as usize] = i;
    }
    dag.edges()
        .all(|(u, v)| position[u as usize] < position[v as usize])
}

/// Work-weighted *bottom level* of each node: the maximum total work along
/// any path from `v` to a sink, including `w(v)` itself. This is the "longest
/// outgoing path" priority used by the BL-EST list scheduler (paper §4.1).
pub fn bottom_level(dag: &Dag, topo: &TopoInfo) -> Vec<u64> {
    let mut bl = vec![0u64; dag.n()];
    for &v in topo.order.iter().rev() {
        let best = dag
            .successors(v)
            .iter()
            .map(|&s| bl[s as usize])
            .max()
            .unwrap_or(0);
        bl[v as usize] = best + dag.work(v);
    }
    bl
}

/// Work-weighted *top level* of each node: the maximum total work along any
/// path from a source to `v`, excluding `w(v)`. Equals the earliest possible
/// start time on unbounded processors with free communication.
pub fn top_level(dag: &Dag, topo: &TopoInfo) -> Vec<u64> {
    let mut tl = vec![0u64; dag.n()];
    for &v in topo.order.iter() {
        let tv = tl[v as usize] + dag.work(v);
        for &s in dag.successors(v) {
            tl[s as usize] = tl[s as usize].max(tv);
        }
    }
    tl
}

/// Length of the critical path in total work (the classic `T_inf`).
pub fn critical_path_work(dag: &Dag, topo: &TopoInfo) -> u64 {
    bottom_level(dag, topo).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 1);
        let x = b.add_node(2, 1);
        let y = b.add_node(5, 1);
        let d = b.add_node(1, 1);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, d).unwrap();
        b.add_edge(y, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn order_is_topological() {
        let dag = diamond();
        let t = TopoInfo::new(&dag);
        assert!(is_topological_order(&dag, &t.order));
        assert!(!is_topological_order(&dag, &[3, 2, 1, 0]));
        assert!(!is_topological_order(&dag, &[0, 0, 1, 2]));
    }

    #[test]
    fn levels_and_depth() {
        let dag = diamond();
        let t = TopoInfo::new(&dag);
        assert_eq!(t.level, vec![0, 1, 1, 2]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.level_sets(), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn bottom_and_top_levels() {
        let dag = diamond();
        let t = TopoInfo::new(&dag);
        // Critical path a -> y -> d: 1 + 5 + 1 = 7.
        assert_eq!(bottom_level(&dag, &t), vec![7, 3, 6, 1]);
        assert_eq!(top_level(&dag, &t), vec![0, 1, 1, 6]);
        assert_eq!(critical_path_work(&dag, &t), 7);
    }

    #[test]
    fn empty_dag() {
        let dag = DagBuilder::new().build().unwrap();
        let t = TopoInfo::new(&dag);
        assert_eq!(t.depth(), 0);
        assert!(t.level_sets().is_empty());
        assert_eq!(critical_path_work(&dag, &t), 0);
    }

    #[test]
    fn deterministic_order_breaks_ties_by_id() {
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_node(1, 1);
        }
        let dag = b.build().unwrap();
        let t = TopoInfo::new(&dag);
        assert_eq!(t.order, vec![0, 1, 2, 3]);
    }
}
