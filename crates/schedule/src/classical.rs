//! Classical (time-indexed) schedules and their conversion to BSP.
//!
//! The Cilk, BL-EST and ETF baselines assign nodes to concrete points in
//! time on a processor. Appendix A.1 describes how such a schedule is
//! organized into supersteps: scanning forward in time, the current
//! computation phase must close right before the earliest node `v` that
//! (i) is not yet assigned to a superstep, (ii) has a direct predecessor
//! `v0` also not yet assigned, and (iii) has `π(v) ≠ π(v0)` — because `v`
//! needs data that can only arrive through a communication phase.

use crate::schedule::BspSchedule;
use bsp_dag::{Dag, NodeId};

/// A schedule in the classical model: each node has a processor and a start
/// time; it executes for `w(v)` time units without preemption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicalSchedule {
    /// Processor of each node.
    pub proc: Vec<u32>,
    /// Start time of each node.
    pub start: Vec<u64>,
}

impl ClassicalSchedule {
    /// Finish time of `v` (`start + w(v)`).
    pub fn finish(&self, dag: &Dag, v: NodeId) -> u64 {
        self.start[v as usize] + dag.work(v)
    }

    /// Makespan (latest finish time; 0 when empty).
    pub fn makespan(&self, dag: &Dag) -> u64 {
        dag.nodes().map(|v| self.finish(dag, v)).max().unwrap_or(0)
    }

    /// Checks the classical validity conditions: nodes on one processor do
    /// not overlap in time, and every node starts no earlier than each
    /// predecessor's finish (communication delays are *not* modelled here —
    /// they appear once converted to BSP).
    pub fn is_valid(&self, dag: &Dag) -> bool {
        // Precedence.
        if !dag
            .edges()
            .all(|(u, v)| self.finish(dag, u) <= self.start[v as usize])
        {
            return false;
        }
        // No overlap per processor.
        let mut by_proc: Vec<Vec<NodeId>> = Vec::new();
        for v in dag.nodes() {
            let p = self.proc[v as usize] as usize;
            if by_proc.len() <= p {
                by_proc.resize(p + 1, Vec::new());
            }
            by_proc[p].push(v);
        }
        for nodes in &mut by_proc {
            nodes.sort_by_key(|&v| self.start[v as usize]);
            for w in nodes.windows(2) {
                if self.finish(dag, w[0]) > self.start[w[1] as usize] {
                    return false;
                }
            }
        }
        true
    }

    /// Converts to a BSP assignment by the superstep-slicing rule of
    /// Appendix A.1: scanning forward in time, the computation phase
    /// closes right before the earliest node needing data from another
    /// processor that no earlier communication phase could have carried.
    /// The resulting assignment keeps `π` and satisfies
    /// [`BspSchedule::respects_precedence_lazy`].
    pub fn to_bsp(&self, dag: &Dag) -> BspSchedule {
        let n = dag.n();
        // Order by start time with *topological* tie-breaks: zero-duration
        // nodes (the database weight rule gives `w = indeg − 1 = 0` to
        // every chain node) let a predecessor share its successor's start
        // time, and id-order ties would then stall the scan below.
        let pos = bsp_dag::TopoInfo::new(dag).position;
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&v| (self.start[v as usize], pos[v as usize]));

        const UNASSIGNED: u32 = u32::MAX;
        let mut step = vec![UNASSIGNED; n];
        let mut superstep = 0u32;
        let mut i = 0usize;
        while i < n {
            // Assign nodes in order until one needs a value that could not
            // have been communicated yet: a cross-processor predecessor
            // assigned to the *current* superstep (or, impossibly given
            // the order, not assigned at all).
            let mut j = i;
            while j < n {
                let v = order[j];
                let needs_comm = dag.predecessors(v).iter().any(|&u| {
                    self.proc[u as usize] != self.proc[v as usize] && step[u as usize] >= superstep
                });
                if needs_comm {
                    break;
                }
                step[v as usize] = superstep;
                j += 1;
            }
            if j < n {
                // Every predecessor of order[j] sorts strictly earlier, so
                // at least order[i] itself was assigned above.
                debug_assert!(j > i, "conversion must make progress");
                superstep += 1;
                // Defensive: never loop forever even if the order were
                // inconsistent with precedence.
                if j == i {
                    step[order[j] as usize] = superstep;
                    j += 1;
                }
            }
            i = j;
        }
        BspSchedule::from_parts(self.proc.clone(), step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;

    /// Figure-1-like example: two processors, cross dependencies.
    fn cross() -> Dag {
        // p0: a(0..2), b(2..4); p1: c(0..3); edges a->c? no -- build:
        // a -> b (same proc), a -> d (cross), c -> b (cross), c -> d (same).
        let mut bld = DagBuilder::new();
        let a = bld.add_node(2, 1);
        let b = bld.add_node(2, 1);
        let c = bld.add_node(3, 1);
        let d = bld.add_node(1, 1);
        bld.add_edge(a, b).unwrap();
        bld.add_edge(a, d).unwrap();
        bld.add_edge(c, b).unwrap();
        bld.add_edge(c, d).unwrap();
        bld.build().unwrap()
    }

    #[test]
    fn classical_validity() {
        let dag = cross();
        // a,b on p0; c,d on p1.
        let s = ClassicalSchedule {
            proc: vec![0, 0, 1, 1],
            start: vec![0, 3, 0, 3],
        };
        assert!(s.is_valid(&dag));
        assert_eq!(s.makespan(&dag), 5);
        // Overlap on p0.
        let bad = ClassicalSchedule {
            proc: vec![0, 0, 1, 1],
            start: vec![0, 1, 0, 3],
        };
        assert!(!bad.is_valid(&dag));
        // Precedence violation: b before a finishes.
        let bad2 = ClassicalSchedule {
            proc: vec![0, 1, 1, 1],
            start: vec![0, 0, 0, 3],
        };
        assert!(!bad2.is_valid(&dag));
    }

    #[test]
    fn conversion_splits_at_cross_dependencies() {
        let dag = cross();
        let s = ClassicalSchedule {
            proc: vec![0, 0, 1, 1],
            start: vec![0, 3, 0, 3],
        };
        let bsp = s.to_bsp(&dag);
        // b (on p0) needs c (p1): barrier before start of b and d.
        assert_eq!(bsp.step(0), 0);
        assert_eq!(bsp.step(2), 0);
        assert_eq!(bsp.step(1), 1);
        assert_eq!(bsp.step(3), 1);
        assert!(bsp.respects_precedence_lazy(&dag));
    }

    #[test]
    fn conversion_keeps_single_superstep_when_local() {
        let mut b = DagBuilder::new();
        let x = b.add_node(1, 1);
        let y = b.add_node(1, 1);
        b.add_edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let s = ClassicalSchedule {
            proc: vec![0, 0],
            start: vec![0, 1],
        };
        let bsp = s.to_bsp(&dag);
        assert_eq!(bsp.n_supersteps(), 1);
    }

    #[test]
    fn conversion_handles_zero_work_ties() {
        // Database-weighted DAGs give chain nodes w = indeg − 1 = 0, so a
        // cross-processor predecessor can share its successor's start
        // time. The scan must still cut a superstep between them (and must
        // not loop forever — this stalled before the topological
        // tie-break).
        let mut b = DagBuilder::new();
        let a = b.add_node(0, 1); // zero work
        let c = b.add_node(0, 1); // zero work, same start as its pred
        let d = b.add_node(2, 1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, d).unwrap();
        let dag = b.build().unwrap();
        let s = ClassicalSchedule {
            proc: vec![1, 0, 0],
            start: vec![0, 0, 0],
        };
        assert!(s.is_valid(&dag));
        let bsp = s.to_bsp(&dag);
        assert!(bsp.respects_precedence_lazy(&dag));
        // a (p1) feeds c (p0) at the same instant: a barrier must separate
        // them.
        assert!(bsp.step(0) < bsp.step(1));
        assert_eq!(bsp.step(1), bsp.step(2));
    }

    #[test]
    fn conversion_of_long_alternating_chain() {
        // Chain alternating processors: every edge forces a new superstep.
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_node(1, 1)).collect();
        for i in 0..5 {
            b.add_edge(v[i], v[i + 1]).unwrap();
        }
        let dag = b.build().unwrap();
        let s = ClassicalSchedule {
            proc: vec![0, 1, 0, 1, 0, 1],
            start: vec![0, 1, 2, 3, 4, 5],
        };
        let bsp = s.to_bsp(&dag);
        assert_eq!(bsp.n_supersteps(), 6);
        assert!(bsp.respects_precedence_lazy(&dag));
    }
}
