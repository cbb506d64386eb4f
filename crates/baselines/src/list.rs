//! Shared machinery for list schedulers (BL-EST, ETF).
//!
//! Both schedulers place one node at a time at the *earliest start time*
//! (EST) on some processor, accounting for communication volume: a value
//! produced on a different processor arrives some delay after its producer
//! finishes. Two delay models are supported (see [`CommModel`]):
//!
//! * [`CommModel::MeanLambda`] — the paper's baseline behaviour (Appendix
//!   A.1): the delay is `g · c(u) · λ̄` with `λ̄` the mean off-diagonal NUMA
//!   coefficient (1 in the uniform case), i.e. the baselines see only an
//!   *average* of the hierarchy.
//! * [`CommModel::PerPairLambda`] — the extension the paper explicitly
//!   leaves to future work ("an extension of the EST computation with NUMA
//!   factors would also be possible"): the delay uses the *actual*
//!   coefficient `λ(π(u), q)` of the producer/candidate pair, making the
//!   list scheduler hierarchy-aware.
//!
//! # The event loop
//!
//! Neither scheduler ever rescans the graph. [`ListState::place`] is the
//! only event: it fixes `(π(v), start(v))`, raises `proc_free[π(v)]` and
//! releases the successors whose last predecessor it placed onto the ready
//! frontier, which the scheduler drains with `pop_ready` into its own
//! priority queues. A node is released once, and from then on its
//! `data_ready(v, q)` — the time its inputs have reached `q` — is a
//! constant, because all its predecessors are placed and a placement is
//! never revised. Only `est(v, q) = max(data_ready(v, q), proc_free[q])`
//! still moves, and only upwards: `place(v, q, t)` has `t ≥ proc_free[q]`
//! (an EST is capped below by it) and work is non-negative, so
//! `proc_free[q]` is monotone.
//!
//! BL-EST pops a max-heap on `(bl, Reverse(id))` and asks `best_proc` for
//! the popped node alone. ETF ([`crate::etf`]) wants the minimum of
//! `(est, ¬bl, q, v)` over all ready (node, processor) *pairs* and keeps
//! two min-heaps per processor `q`: *future*, keyed `(data_ready(v, q),
//! ¬bl, v)`, for ready nodes whose data arrives after `proc_free[q]` (their
//! EST is `data_ready`, a constant), and *waiting*, keyed `(¬bl, v)`, for
//! those that only wait for the processor (their EST is `proc_free[q]`,
//! the same for all of them). When `place` raises `proc_free[q]`, entries
//! of `future[q]` it has overtaken move to `waiting[q]`; monotonicity
//! means none ever moves back. (An entry exactly at the boundary,
//! `data_ready = proc_free[q]`, reads the same key from either heap, so
//! which side of it holds the entry is immaterial.) Entries of placed
//! nodes are dropped when they surface. The pick is the least of the
//! ≤ 2P heap tops: O(P) per pick, and every entry is pushed, moved and
//! popped at most once, O((n + m) · P · log n) overall.
//!
//! That pair-minimum is the scan loop's node-minimum of `(min_q est, ¬bl,
//! argmin q, v)`, component by component: the least `est` over pairs is
//! the least over nodes of each node's least `est`; `¬bl` does not depend
//! on `q`, so among pairs at that `est` the larger bottom level wins
//! exactly as it does among nodes; among the pairs of one node at its
//! least `est`, `q` before `v` picks the smallest such processor, which
//! is `best_proc`'s tie-break; and `v` last separates distinct nodes that
//! tie on everything else by the smaller id. Every `ClassicalSchedule` is
//! therefore bit-identical to the scan loops' (kept as the reference in
//! `tests/reference/`).

use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::ClassicalSchedule;

/// How a list scheduler prices a cross-processor transfer in its EST
/// computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommModel {
    /// Mean off-diagonal λ (the paper's baseline configuration).
    #[default]
    MeanLambda,
    /// Exact per-pair λ — the NUMA-aware EST extension of Appendix A.1.
    PerPairLambda,
}

/// Incremental state for list scheduling.
pub struct ListState<'a> {
    dag: &'a Dag,
    machine: &'a BspParams,
    model: CommModel,
    /// Per-unit cross-processor delay multiplier `g · λ̄` (mean-λ model).
    comm_factor: f64,
    /// Earliest free time of each processor; never falls.
    proc_free: Vec<u64>,
    /// Assigned processor per node (undefined until scheduled).
    proc: Vec<u32>,
    /// Start time per node.
    start: Vec<u64>,
    /// Whether the node has been placed.
    placed: Vec<bool>,
    /// Remaining unplaced predecessors per node.
    remaining_preds: Vec<u32>,
    /// Ready frontier: nodes whose last predecessor has been placed (the
    /// sources at first) and that `pop_ready` has not handed out yet.
    released: Vec<NodeId>,
}

impl<'a> ListState<'a> {
    /// Fresh state for `dag` on `machine` with the paper's mean-λ model.
    pub fn new(dag: &'a Dag, machine: &'a BspParams) -> Self {
        Self::with_model(dag, machine, CommModel::MeanLambda)
    }

    /// Fresh state with an explicit communication model.
    pub fn with_model(dag: &'a Dag, machine: &'a BspParams, model: CommModel) -> Self {
        let n = dag.n();
        ListState {
            dag,
            machine,
            model,
            comm_factor: machine.g() as f64 * machine.numa().mean_lambda_offdiag(),
            proc_free: vec![0; machine.p()],
            proc: vec![0; n],
            start: vec![0; n],
            placed: vec![false; n],
            remaining_preds: (0..n).map(|v| dag.in_degree(v as NodeId) as u32).collect(),
            released: dag.sources(),
        }
    }

    /// Takes one node off the ready frontier (in no particular order):
    /// each node is handed out exactly once, after its last predecessor
    /// was placed.
    pub(crate) fn pop_ready(&mut self) -> Option<NodeId> {
        self.released.pop()
    }

    /// Whether `v` has been placed.
    pub(crate) fn is_placed(&self, v: NodeId) -> bool {
        self.placed[v as usize]
    }

    /// Earliest free time of processor `q`.
    pub(crate) fn proc_free(&self, q: u32) -> u64 {
        self.proc_free[q as usize]
    }

    /// Delay for shipping `c` units from processor `src` to `dst`.
    fn transfer_delay(&self, c: u64, src: u32, dst: u32) -> u64 {
        match self.model {
            CommModel::MeanLambda => (self.comm_factor * c as f64).round() as u64,
            CommModel::PerPairLambda => {
                self.machine.g() * c * self.machine.lambda(src as usize, dst as usize)
            }
        }
    }

    /// Time at which every input of the ready node `v` has reached
    /// processor `q`: predecessor finishes plus cross-processor delays.
    /// Constant from the moment `v` is ready.
    pub(crate) fn data_ready(&self, v: NodeId, q: u32) -> u64 {
        let mut ready = 0u64;
        for &u in self.dag.predecessors(v) {
            debug_assert!(self.placed[u as usize]);
            let finish = self.start[u as usize] + self.dag.work(u);
            let arrive = if self.proc[u as usize] == q {
                finish
            } else {
                finish + self.transfer_delay(self.dag.comm(u), self.proc[u as usize], q)
            };
            ready = ready.max(arrive);
        }
        ready
    }

    /// EST of `v` on processor `q`: the time its data is ready there,
    /// capped below by the processor's free time.
    pub fn est(&self, v: NodeId, q: u32) -> u64 {
        self.data_ready(v, q).max(self.proc_free[q as usize])
    }

    /// The processor with minimal EST for `v` (ties to the smaller index)
    /// and that EST.
    pub fn best_proc(&self, v: NodeId) -> (u32, u64) {
        let mut best = (0u32, u64::MAX);
        for q in 0..self.proc_free.len() as u32 {
            let t = self.est(v, q);
            if t < best.1 {
                best = (q, t);
            }
        }
        best
    }

    /// Places `v` on `q` at its EST `t` and releases the successors this
    /// leaves without unplaced predecessors.
    pub fn place(&mut self, v: NodeId, q: u32, t: u64) {
        debug_assert!(!self.placed[v as usize]);
        debug_assert_eq!(t, self.est(v, q));
        self.placed[v as usize] = true;
        self.proc[v as usize] = q;
        self.start[v as usize] = t;
        self.proc_free[q as usize] = t + self.dag.work(v);
        for &w in self.dag.successors(v) {
            self.remaining_preds[w as usize] -= 1;
            if self.remaining_preds[w as usize] == 0 {
                self.released.push(w);
            }
        }
    }

    /// Finalizes into a classical schedule.
    pub fn finish(self) -> ClassicalSchedule {
        debug_assert!(self.placed.iter().all(|&b| b));
        ClassicalSchedule {
            proc: self.proc,
            start: self.start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_model::NumaTopology;

    #[test]
    fn est_accounts_for_communication() {
        let mut b = DagBuilder::new();
        let u = b.add_node(4, 3);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 2, 0);
        let mut st = ListState::new(&dag, &machine);
        st.place(0, 0, 0);
        // Same processor: ready at finish(u) = 4. Other: 4 + g*c = 4 + 6.
        assert_eq!(st.est(1, 0), 4);
        assert_eq!(st.est(1, 1), 10);
        assert_eq!(st.best_proc(1), (0, 4));
    }

    #[test]
    fn est_respects_processor_busy_time() {
        let mut b = DagBuilder::new();
        b.add_node(5, 1);
        b.add_node(1, 1);
        let dag = b.build().unwrap();
        let machine = BspParams::new(1, 1, 0);
        let mut st = ListState::new(&dag, &machine);
        st.place(0, 0, 0);
        assert_eq!(st.est(1, 0), 5); // only processor busy until 5
    }

    #[test]
    fn numa_mean_factor_applied() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 2);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 1, 0).with_numa(NumaTopology::binary_tree(4, 3));
        // mean off-diag: pairs dist1 cost1 (4), dist2 cost3 (8) -> 28/12.
        let st_factor = 1.0 * 28.0 / 12.0;
        let mut st = ListState::new(&dag, &machine);
        assert!((st.comm_factor - st_factor).abs() < 1e-12);
        st.place(0, 0, 0);
        assert_eq!(st.est(1, 1), 1 + (st_factor * 2.0).round() as u64);
    }

    #[test]
    fn per_pair_model_distinguishes_near_and_far() {
        // Binary tree over 4 procs, Δ=3: λ(0,1)=1 (siblings), λ(0,2)=3.
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 2);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 2, 0).with_numa(NumaTopology::binary_tree(4, 3));
        let mut st = ListState::with_model(&dag, &machine, CommModel::PerPairLambda);
        st.place(0, 0, 0);
        assert_eq!(st.est(1, 1), 1 + (2 * 2)); // g·c·λ = 2·2·1
        assert_eq!(st.est(1, 2), 1 + 2 * 2 * 3); // g·c·λ = 2·2·3
                                                 // Mean-λ model cannot tell processors 1 and 2 apart.
        let mut mean = ListState::new(&dag, &machine);
        mean.place(0, 0, 0);
        assert_eq!(mean.est(1, 1), mean.est(1, 2));
    }

    #[test]
    fn per_pair_equals_mean_on_uniform_machines() {
        let mut b = DagBuilder::new();
        let u = b.add_node(2, 3);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(3, 2, 0); // uniform: λ̄ = 1 = every pair
        let mut a = ListState::new(&dag, &machine);
        let mut bb = ListState::with_model(&dag, &machine, CommModel::PerPairLambda);
        a.place(0, 0, 0);
        bb.place(0, 0, 0);
        for q in 0..3 {
            assert_eq!(a.est(1, q), bb.est(1, q));
        }
    }

    #[test]
    fn ready_tracking() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        let w = b.add_node(1, 1);
        b.add_edge(u, w).unwrap();
        b.add_edge(v, w).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        let mut st = ListState::new(&dag, &machine);
        // The frontier starts as the sources and hands each node out once.
        assert_eq!(st.pop_ready(), Some(1));
        assert_eq!(st.pop_ready(), Some(0));
        assert_eq!(st.pop_ready(), None);
        st.place(0, 0, 0);
        assert_eq!(st.pop_ready(), None); // node 2 still waits for node 1
        st.place(1, 1, 0);
        assert_eq!(st.pop_ready(), Some(2));
        assert_eq!(st.pop_ready(), None);
    }
}
