//! Incremental, cycle-checked DAG construction.

use crate::graph::{Dag, NodeId};
use std::fmt;

/// Errors produced while building or loading DAGs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge endpoint referred to a node id that was never added.
    UnknownNode(NodeId),
    /// A self-loop `(v, v)` was added.
    SelfLoop(NodeId),
    /// The edge set contains a directed cycle; the payload is one node on it.
    Cycle(NodeId),
    /// A parse error in an interchange format, with line number and message.
    Parse {
        /// 1-based line number in the parsed input.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownNode(v) => write!(f, "edge endpoint {v} does not exist"),
            DagError::SelfLoop(v) => write!(f, "self-loop on node {v}"),
            DagError::Cycle(v) => write!(f, "directed cycle detected through node {v}"),
            DagError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
        }
    }
}

impl std::error::Error for DagError {}

/// Builder for [`Dag`]. Nodes are created with explicit work and
/// communication weights; edges are validated for acyclicity at
/// [`DagBuilder::build`] time via Kahn's algorithm.
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    work: Vec<u64>,
    comm: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with node capacity pre-reserved.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DagBuilder {
            work: Vec::with_capacity(nodes),
            comm: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node with work weight `work` and communication weight `comm`,
    /// returning its id (ids are assigned densely from 0).
    pub fn add_node(&mut self, work: u64, comm: u64) -> NodeId {
        self.work.push(work);
        self.comm.push(comm);
        (self.work.len() - 1) as NodeId
    }

    /// Adds the precedence edge `u -> v`. Fails fast on unknown endpoints and
    /// self-loops; cycles are detected at build time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), DagError> {
        let n = self.work.len() as NodeId;
        if u >= n {
            return Err(DagError::UnknownNode(u));
        }
        if v >= n {
            return Err(DagError::UnknownNode(v));
        }
        if u == v {
            return Err(DagError::SelfLoop(u));
        }
        self.edges.push((u, v));
        Ok(())
    }

    /// Finalizes the DAG, verifying acyclicity.
    pub fn build(self) -> Result<Dag, DagError> {
        crate::calls::note("DagBuilder::build");
        let n = self.work.len();
        // Kahn's algorithm over the (possibly duplicated) edge multiset.
        let mut indeg = vec![0u32; n];
        let mut adj_heads = vec![u32::MAX; n];
        let mut adj_next = vec![u32::MAX; self.edges.len()];
        let mut adj_to = vec![0 as NodeId; self.edges.len()];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            indeg[v as usize] += 1;
            adj_to[i] = v;
            adj_next[i] = adj_heads[u as usize];
            adj_heads[u as usize] = i as u32;
        }
        let mut queue: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            let mut e = adj_heads[u as usize];
            while e != u32::MAX {
                let v = adj_to[e as usize];
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
                e = adj_next[e as usize];
            }
        }
        if seen != n {
            let witness = (0..n).find(|&v| indeg[v] > 0).unwrap() as NodeId;
            return Err(DagError::Cycle(witness));
        }
        Ok(Dag::from_parts(n, self.edges, self.work, self.comm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_endpoint() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 1);
        assert_eq!(b.add_edge(a, 7), Err(DagError::UnknownNode(7)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 1);
        assert_eq!(b.add_edge(a, a), Err(DagError::SelfLoop(a)));
    }

    #[test]
    fn detects_two_cycle() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 1);
        let c = b.add_node(1, 1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn detects_longer_cycle() {
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..5).map(|_| b.add_node(1, 1)).collect();
        for i in 0..4 {
            b.add_edge(v[i], v[i + 1]).unwrap();
        }
        b.add_edge(v[4], v[1]).unwrap();
        assert!(matches!(b.build(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn empty_graph_builds() {
        let d = DagBuilder::new().build().unwrap();
        assert_eq!(d.n(), 0);
        assert_eq!(d.m(), 0);
    }

    #[test]
    fn chain_builds() {
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..100).map(|i| b.add_node(i, 1)).collect();
        for i in 0..99 {
            b.add_edge(v[i], v[i + 1]).unwrap();
        }
        let d = b.build().unwrap();
        assert_eq!(d.n(), 100);
        assert_eq!(d.m(), 99);
    }

    #[test]
    fn error_display_is_informative() {
        let e = DagError::Parse {
            line: 3,
            msg: "bad pin".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
