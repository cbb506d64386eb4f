//! The scan-loop ETF and BL-EST, verbatim as they stood before the
//! event-driven rewrite of `bsp_baselines::list`: every pick rescans all
//! `n` nodes for the ready ones (and ETF recomputes `best_proc` for each),
//! Θ(n²) overall. Kept only as the reference the heap-driven schedulers
//! must match bit for bit — `tests/list_equivalence.rs` proptests it, the
//! `baselines/list_scaling` bench asserts it before timing. Shares no code
//! with the production `ListState`.

use bsp_baselines::CommModel;
use bsp_dag::topo::{bottom_level, TopoInfo};
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::ClassicalSchedule;

struct ListState<'a> {
    dag: &'a Dag,
    machine: &'a BspParams,
    model: CommModel,
    comm_factor: f64,
    proc_free: Vec<u64>,
    proc: Vec<u32>,
    start: Vec<u64>,
    placed: Vec<bool>,
    remaining_preds: Vec<u32>,
}

impl<'a> ListState<'a> {
    fn with_model(dag: &'a Dag, machine: &'a BspParams, model: CommModel) -> Self {
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
        }
    }

    /// Ready nodes: unplaced with all predecessors placed.
    fn ready_nodes(&self) -> Vec<NodeId> {
        (0..self.dag.n() as NodeId)
            .filter(|&v| !self.placed[v as usize] && self.remaining_preds[v as usize] == 0)
            .collect()
    }

    fn transfer_delay(&self, c: u64, src: u32, dst: u32) -> u64 {
        match self.model {
            CommModel::MeanLambda => (self.comm_factor * c as f64).round() as u64,
            CommModel::PerPairLambda => {
                self.machine.g() * c * self.machine.lambda(src as usize, dst as usize)
            }
        }
    }

    fn est(&self, v: NodeId, q: u32) -> u64 {
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
        ready.max(self.proc_free[q as usize])
    }

    fn best_proc(&self, v: NodeId) -> (u32, u64) {
        let mut best = (0u32, u64::MAX);
        for q in 0..self.proc_free.len() as u32 {
            let t = self.est(v, q);
            if t < best.1 {
                best = (q, t);
            }
        }
        best
    }

    fn place(&mut self, v: NodeId, q: u32, t: u64) {
        debug_assert!(!self.placed[v as usize]);
        self.placed[v as usize] = true;
        self.proc[v as usize] = q;
        self.start[v as usize] = t;
        self.proc_free[q as usize] = t + self.dag.work(v);
        for &w in self.dag.successors(v) {
            self.remaining_preds[w as usize] -= 1;
        }
    }

    fn finish(self) -> ClassicalSchedule {
        debug_assert!(self.placed.iter().all(|&b| b));
        ClassicalSchedule {
            proc: self.proc,
            start: self.start,
        }
    }
}

/// Scan-loop ETF: the minimum over ready nodes of
/// `(min_q est, ¬bl, argmin q, v)`.
pub fn etf_reference(dag: &Dag, machine: &BspParams, model: CommModel) -> ClassicalSchedule {
    let topo = TopoInfo::new(dag);
    let bl = bottom_level(dag, &topo);
    let mut st = ListState::with_model(dag, machine, model);
    for _ in 0..dag.n() {
        let ready = st.ready_nodes();
        let mut best: Option<(u64, u64, u32, bsp_dag::NodeId)> = None; // (est, -bl, proc, node)
        for &v in &ready {
            let (q, t) = st.best_proc(v);
            let key = (t, u64::MAX - bl[v as usize], q, v);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (_, _, q, v) = best.expect("ready set cannot be empty while nodes remain");
        let t = st.est(v, q);
        st.place(v, q, t);
    }
    st.finish()
}

/// Scan-loop BL-EST: the ready node with the largest bottom level (ties
/// to the smaller id) on its `best_proc`.
pub fn blest_reference(dag: &Dag, machine: &BspParams, model: CommModel) -> ClassicalSchedule {
    let topo = TopoInfo::new(dag);
    let bl = bottom_level(dag, &topo);
    let mut st = ListState::with_model(dag, machine, model);
    for _ in 0..dag.n() {
        let ready = st.ready_nodes();
        // Highest bottom level first; ties to the smaller id.
        let &v = ready
            .iter()
            .max_by_key(|&&v| (bl[v as usize], std::cmp::Reverse(v)))
            .expect("ready set cannot be empty while nodes remain");
        let (q, t) = st.best_proc(v);
        st.place(v, q, t);
    }
    st.finish()
}
