//! Reachability and connectivity queries.

use crate::graph::{Dag, NodeId};

/// Returns `true` if there is a directed path from `from` to `to`
/// (including the trivial path when `from == to`).
pub fn reaches(dag: &Dag, from: NodeId, to: NodeId) -> bool {
    if from == to {
        return true;
    }
    let mut visited = vec![false; dag.n()];
    let mut stack = vec![from];
    visited[from as usize] = true;
    while let Some(u) = stack.pop() {
        for &v in dag.successors(u) {
            if v == to {
                return true;
            }
            if !visited[v as usize] {
                visited[v as usize] = true;
                stack.push(v);
            }
        }
    }
    false
}

/// All nodes reachable from `v` by directed paths, excluding `v` itself.
pub fn descendants(dag: &Dag, v: NodeId) -> Vec<NodeId> {
    let mut visited = vec![false; dag.n()];
    let mut stack = vec![v];
    visited[v as usize] = true;
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        for &w in dag.successors(u) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                out.push(w);
                stack.push(w);
            }
        }
    }
    out.sort_unstable();
    out
}

/// All nodes that reach `v` by directed paths, excluding `v` itself.
pub fn ancestors(dag: &Dag, v: NodeId) -> Vec<NodeId> {
    let mut visited = vec![false; dag.n()];
    let mut stack = vec![v];
    visited[v as usize] = true;
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        for &w in dag.predecessors(u) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                out.push(w);
                stack.push(w);
            }
        }
    }
    out.sort_unstable();
    out
}

/// Weakly connected components; each component is a sorted node list and the
/// components are ordered by their smallest member. The coarse-grained DAG
/// extraction keeps only the largest component (Appendix B.1).
pub fn weakly_connected_components(dag: &Dag) -> Vec<Vec<NodeId>> {
    let n = dag.n();
    let mut comp = vec![u32::MAX; n];
    let mut components = Vec::new();
    for start in 0..n as NodeId {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        let id = components.len() as u32;
        let mut members = vec![start];
        comp[start as usize] = id;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in dag.successors(u).iter().chain(dag.predecessors(u)) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = id;
                    members.push(v);
                    stack.push(v);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// The sub-DAG induced by the largest weakly connected component, with the
/// old-to-new id mapping. Ties broken towards the component containing the
/// smallest node id.
pub fn largest_component(dag: &Dag) -> (Dag, Vec<Option<NodeId>>) {
    let comps = weakly_connected_components(dag);
    let largest = comps
        .iter()
        .max_by_key(|c| c.len())
        .cloned()
        .unwrap_or_default();
    dag.induced_subgraph(&largest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn two_islands() -> Dag {
        // 0 -> 1 -> 2 and 3 -> 4
        let mut b = DagBuilder::new();
        for _ in 0..5 {
            b.add_node(1, 1);
        }
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(3, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn reachability() {
        let d = two_islands();
        assert!(reaches(&d, 0, 2));
        assert!(!reaches(&d, 2, 0));
        assert!(!reaches(&d, 0, 4));
        assert!(reaches(&d, 3, 3));
    }

    #[test]
    fn descendants_and_ancestors() {
        let d = two_islands();
        assert_eq!(descendants(&d, 0), vec![1, 2]);
        assert_eq!(ancestors(&d, 2), vec![0, 1]);
        assert!(descendants(&d, 2).is_empty());
    }

    #[test]
    fn components_split_and_largest_selected() {
        let d = two_islands();
        let comps = weakly_connected_components(&d);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
        let (big, map) = largest_component(&d);
        assert_eq!(big.n(), 3);
        assert_eq!(map[3], None);
    }

    #[test]
    fn single_component_when_connected() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 1);
        let c = b.add_node(1, 1);
        b.add_edge(a, c).unwrap();
        let d = b.build().unwrap();
        assert_eq!(weakly_connected_components(&d).len(), 1);
    }
}
