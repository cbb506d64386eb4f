//! The node-to-(processor, superstep) assignment `(π, τ)`.

use bsp_dag::{Dag, NodeId};
use serde::{Deserialize, Serialize};

/// Assignment of every node to a processor (`π`) and a superstep (`τ`).
///
/// This is the "computational half" of a BSP schedule; the communication
/// half `Γ` lives in [`crate::CommSchedule`] and is usually derived lazily.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BspSchedule {
    proc: Vec<u32>,
    step: Vec<u32>,
}

impl BspSchedule {
    /// Builds a schedule from the two assignment vectors (`proc[v] = π(v)`,
    /// `step[v] = τ(v)`).
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn from_parts(proc: Vec<u32>, step: Vec<u32>) -> Self {
        assert_eq!(proc.len(), step.len());
        BspSchedule { proc, step }
    }

    /// An all-zero assignment for `n` nodes (everything on processor 0,
    /// superstep 0) — the paper's "trivial schedule" starting point.
    pub fn zeroed(n: usize) -> Self {
        BspSchedule {
            proc: vec![0; n],
            step: vec![0; n],
        }
    }

    /// Number of nodes covered.
    #[inline]
    pub fn n(&self) -> usize {
        self.proc.len()
    }

    /// Processor of `v`.
    #[inline]
    pub fn proc(&self, v: NodeId) -> u32 {
        self.proc[v as usize]
    }

    /// Superstep of `v`.
    #[inline]
    pub fn step(&self, v: NodeId) -> u32 {
        self.step[v as usize]
    }

    /// Reassigns `v`.
    #[inline]
    pub fn set(&mut self, v: NodeId, proc: u32, step: u32) {
        self.proc[v as usize] = proc;
        self.step[v as usize] = step;
    }

    /// Appends the assignment of one more node (id `n()`).
    #[inline]
    pub fn push(&mut self, proc: u32, step: u32) {
        self.proc.push(proc);
        self.step.push(step);
    }

    /// Number of supersteps spanned by the computation phases
    /// (`max τ(v) + 1`; 0 when empty).
    pub fn n_supersteps(&self) -> u32 {
        self.step.iter().max().map_or(0, |&s| s + 1)
    }

    /// Largest processor index used plus one.
    pub fn procs_used(&self) -> u32 {
        self.proc.iter().max().map_or(0, |&p| p + 1)
    }

    /// The raw `π` vector.
    #[inline]
    pub fn procs(&self) -> &[u32] {
        &self.proc
    }

    /// The raw `τ` vector.
    #[inline]
    pub fn steps(&self) -> &[u32] {
        &self.step
    }

    /// The raw `τ` vector, for renumbering supersteps in place.
    #[inline]
    pub fn steps_mut(&mut self) -> &mut [u32] {
        &mut self.step
    }

    /// Checks the *assignment-level* precedence conditions assuming a lazy
    /// communication schedule will be attached: for every edge `(u, v)`,
    /// `τ(u) ≤ τ(v)` when `π(u) = π(v)` and `τ(u) < τ(v)` otherwise.
    pub fn respects_precedence_lazy(&self, dag: &Dag) -> bool {
        dag.edges().all(|(u, v)| {
            if self.proc(u) == self.proc(v) {
                self.step(u) <= self.step(v)
            } else {
                self.step(u) < self.step(v)
            }
        })
    }

    /// Work assigned to processor `p` in superstep `s`.
    pub fn work_of(&self, dag: &Dag, p: u32, s: u32) -> u64 {
        dag.nodes()
            .filter(|&v| self.proc(v) == p && self.step(v) == s)
            .map(|v| dag.work(v))
            .sum()
    }

    /// Nodes assigned to superstep `s`, ascending by id.
    pub fn nodes_in_step(&self, s: u32) -> Vec<NodeId> {
        (0..self.n() as NodeId)
            .filter(|&v| self.step(v) == s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;

    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..3).map(|i| b.add_node(i + 1, 1)).collect();
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[1], v[2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let mut s = BspSchedule::zeroed(3);
        assert_eq!(s.n_supersteps(), 1);
        s.set(2, 1, 4);
        assert_eq!(s.proc(2), 1);
        assert_eq!(s.step(2), 4);
        assert_eq!(s.n_supersteps(), 5);
        assert_eq!(s.procs_used(), 2);
    }

    #[test]
    fn lazy_precedence_rules() {
        let dag = chain3();
        // Same processor, equal steps: fine.
        let s = BspSchedule::from_parts(vec![0, 0, 0], vec![0, 0, 0]);
        assert!(s.respects_precedence_lazy(&dag));
        // Cross-processor, equal steps: needs a strict increase.
        let s = BspSchedule::from_parts(vec![0, 1, 1], vec![0, 0, 0]);
        assert!(!s.respects_precedence_lazy(&dag));
        let s = BspSchedule::from_parts(vec![0, 1, 1], vec![0, 1, 1]);
        assert!(s.respects_precedence_lazy(&dag));
        // Decreasing steps: invalid either way.
        let s = BspSchedule::from_parts(vec![0, 0, 0], vec![1, 0, 0]);
        assert!(!s.respects_precedence_lazy(&dag));
    }

    #[test]
    fn work_of_sums_per_cell() {
        let dag = chain3();
        let s = BspSchedule::from_parts(vec![0, 0, 1], vec![0, 0, 1]);
        assert_eq!(s.work_of(&dag, 0, 0), 1 + 2);
        assert_eq!(s.work_of(&dag, 1, 1), 3);
        assert_eq!(s.work_of(&dag, 1, 0), 0);
    }

    #[test]
    fn nodes_in_step_filters() {
        let s = BspSchedule::from_parts(vec![0, 1, 0], vec![0, 1, 1]);
        assert_eq!(s.nodes_in_step(1), vec![1, 2]);
    }
}
