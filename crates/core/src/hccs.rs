//! Hill climbing on the communication schedule (HCcs, paper §4.3, A.3).
//!
//! With `(π, τ)` fixed, every required transfer `(v, π(v) → q)` may be
//! scheduled in any communication phase `s ∈ [τ(v), s0 − 1]`, where `s0` is
//! the first superstep computing a successor of `v` on `q` (the
//! direct-from-source model). HCcs greedily moves single transfers to
//! cheaper phases until no move improves the cost.

use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::comm::{required_transfers, Transfer};
use bsp_schedule::solve::Stop;
use bsp_schedule::{BspSchedule, CommSchedule, CommStep};
use std::time::Duration;

/// Budgets of a pipeline's HCcs runs; the pipeline folds them into the
/// [`Stop`] it hands [`optimize_comm_schedule`].
#[derive(Debug, Clone, Copy)]
pub struct CommHillClimbConfig {
    /// Maximum accepted moves (`None` = unlimited).
    pub max_moves: Option<usize>,
    /// Wall-clock limit (`None` = unlimited).
    pub time_limit: Option<Duration>,
}

impl Default for CommHillClimbConfig {
    fn default() -> Self {
        CommHillClimbConfig {
            max_moves: None,
            time_limit: Some(Duration::from_secs(2)),
        }
    }
}

/// Incremental state for the communication-scheduling subproblem.
pub struct CommState<'a> {
    dag: &'a Dag,
    machine: &'a BspParams,
    transfers: Vec<Transfer>,
    /// Chosen phase per transfer.
    phase: Vec<u32>,
    /// λ-weighted bytes sent per `[step][proc]`.
    send: Vec<u64>,
    recv: Vec<u64>,
    comm_count: Vec<u32>,
    /// Whether the superstep computes any node (fixed by the assignment).
    has_work: Vec<bool>,
    /// Max work per superstep (fixed).
    work_max: Vec<u64>,
    step_cost: Vec<u64>,
    total: u64,
    n_steps: usize,
}

impl<'a> CommState<'a> {
    /// Builds the state from an assignment, placing every transfer *lazily*
    /// (at its latest feasible phase), which is the schedule the rest of the
    /// framework assumes.
    pub fn new(dag: &'a Dag, machine: &'a BspParams, sched: &BspSchedule) -> Self {
        let transfers = required_transfers(dag, sched);
        let phase: Vec<u32> = transfers.iter().map(|t| t.latest).collect();
        Self::with_phases(dag, machine, sched, transfers, phase)
    }

    fn with_phases(
        dag: &'a Dag,
        machine: &'a BspParams,
        sched: &BspSchedule,
        transfers: Vec<Transfer>,
        phase: Vec<u32>,
    ) -> Self {
        let p = machine.p();
        let comp_steps = sched.n_supersteps() as usize;
        let comm_steps = phase.iter().map(|&s| s as usize + 1).max().unwrap_or(0);
        let n_steps = comp_steps.max(comm_steps).max(1);
        let mut st = CommState {
            dag,
            machine,
            transfers,
            phase,
            send: vec![0; n_steps * p],
            recv: vec![0; n_steps * p],
            comm_count: vec![0; n_steps],
            has_work: vec![false; n_steps],
            work_max: vec![0; n_steps],
            step_cost: vec![0; n_steps],
            total: 0,
            n_steps,
        };
        let mut work = vec![0u64; n_steps * p];
        for v in dag.nodes() {
            let (q, s) = (sched.proc(v) as usize, sched.step(v) as usize);
            work[s * p + q] += dag.work(v);
            st.has_work[s] = true;
        }
        for s in 0..n_steps {
            st.work_max[s] = work[s * p..(s + 1) * p].iter().copied().max().unwrap_or(0);
        }
        for i in 0..st.transfers.len() {
            let t = st.transfers[i];
            let s = st.phase[i] as usize;
            let weighted = dag.comm(t.node) * machine.lambda(t.from as usize, t.to as usize);
            st.send[s * p + t.from as usize] += weighted;
            st.recv[s * p + t.to as usize] += weighted;
            st.comm_count[s] += 1;
        }
        for s in 0..n_steps {
            st.step_cost[s] = st.compute_step_cost(s);
            st.total += st.step_cost[s];
        }
        st
    }

    /// Current total schedule cost (work + g·comm + latency).
    pub fn cost(&self) -> u64 {
        self.total
    }

    /// Number of supersteps tracked (computation or communication).
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// Number of required transfers.
    pub fn n_transfers(&self) -> usize {
        self.transfers.len()
    }

    fn compute_step_cost(&self, s: usize) -> u64 {
        let p = self.machine.p();
        let row = s * p;
        let c = (0..p)
            .map(|q| self.send[row + q].max(self.recv[row + q]))
            .max()
            .unwrap_or(0);
        let nonempty = self.has_work[s] || self.comm_count[s] > 0;
        self.work_max[s] + self.machine.g() * c + if nonempty { self.machine.l() } else { 0 }
    }

    /// Computes the exact total-cost delta of moving transfer `i` to
    /// `new_phase` without mutating anything: the mirror of
    /// [`crate::state::ScheduleState::probe_move`] for the communication
    /// subproblem. A transfer touches exactly two supersteps, so no scratch
    /// is needed; runs in `O(P)` with zero allocation.
    fn probe_phase(&self, i: usize, new_phase: u32) -> i64 {
        let t = self.transfers[i];
        let old = self.phase[i] as usize;
        let new = new_phase as usize;
        if old == new {
            return 0;
        }
        let p = self.machine.p();
        let weighted = self.dag.comm(t.node) * self.machine.lambda(t.from as usize, t.to as usize);
        let mut delta = 0i64;
        for (s, sign) in [(old, -1i64), (new, 1i64)] {
            let row = s * p;
            let dsendrow = sign * weighted as i64;
            let c = (0..p)
                .map(|q| {
                    let mut send = self.send[row + q] as i64;
                    let mut recv = self.recv[row + q] as i64;
                    if q == t.from as usize {
                        send += dsendrow;
                    }
                    if q == t.to as usize {
                        recv += dsendrow;
                    }
                    send.max(recv) as u64
                })
                .max()
                .unwrap_or(0);
            let count = (self.comm_count[s] as i64 + sign) as u32;
            let nonempty = self.has_work[s] || count > 0;
            let new_cost = self.work_max[s]
                + self.machine.g() * c
                + if nonempty { self.machine.l() } else { 0 };
            delta += new_cost as i64 - self.step_cost[s] as i64;
        }
        delta
    }

    /// Moves transfer `i` to `new_phase`, returning the new total cost.
    fn apply(&mut self, i: usize, new_phase: u32) -> u64 {
        let p = self.machine.p();
        let t = self.transfers[i];
        let old = self.phase[i] as usize;
        let new = new_phase as usize;
        if old == new {
            return self.total;
        }
        let weighted = self.dag.comm(t.node) * self.machine.lambda(t.from as usize, t.to as usize);
        self.send[old * p + t.from as usize] -= weighted;
        self.recv[old * p + t.to as usize] -= weighted;
        self.comm_count[old] -= 1;
        self.send[new * p + t.from as usize] += weighted;
        self.recv[new * p + t.to as usize] += weighted;
        self.comm_count[new] += 1;
        self.phase[i] = new_phase;
        for s in [old, new] {
            self.total -= self.step_cost[s];
            self.step_cost[s] = self.compute_step_cost(s);
            self.total += self.step_cost[s];
        }
        self.total
    }

    /// Extracts the explicit communication schedule.
    pub fn comm_schedule(&self) -> CommSchedule {
        CommSchedule::from_entries(
            self.transfers
                .iter()
                .zip(&self.phase)
                .map(|(t, &s)| CommStep {
                    node: t.node,
                    from: t.from,
                    to: t.to,
                    step: s,
                })
                .collect(),
        )
    }
}

/// The first improving phase for transfer `i`, probing candidate phases in
/// window order.
fn first_improving_phase(state: &CommState<'_>, i: usize) -> Option<u32> {
    let t = state.transfers[i];
    let cur = state.phase[i];
    (t.earliest..=t.latest).find(|&s| s != cur && state.probe_phase(i, s) < 0)
}

/// Runs greedy first-improvement hill climbing over transfer phases until
/// no move improves or `stop` (polled once per transfer). Returns the
/// number of accepted moves; the cost never increases.
pub fn comm_hill_climb(state: &mut CommState<'_>, stop: &mut Stop) -> usize {
    let mut accepted = 0usize;
    loop {
        let mut improved = false;
        for i in 0..state.transfers.len() {
            if stop.poll() || stop.moves_left() == 0 {
                return accepted;
            }
            if let Some(s) = first_improving_phase(state, i) {
                state.apply(i, s);
                accepted += 1;
                stop.spend_move();
                improved = true;
            }
        }
        if !improved {
            return accepted;
        }
    }
}

/// Convenience wrapper: derives transfers from `sched`, optimizes their
/// phases with [`comm_hill_climb`], and returns the explicit `Γ` plus its
/// total cost.
pub fn optimize_comm_schedule(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    stop: &mut Stop,
) -> (CommSchedule, u64) {
    let mut st = CommState::new(dag, machine, sched);
    comm_hill_climb(&mut st, stop);
    let cost = st.cost();
    (st.comm_schedule(), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_schedule::cost::total_cost;
    use bsp_schedule::validity::validate;

    /// h-relation economics: moving a transfer helps when it is its phase's
    /// bottleneck and the destination phase's bottleneck lives on a
    /// *disjoint* processor pair. Setup (g = 1, four processors):
    ///
    /// * `a` (c=8) p0→p1, fixed at phase 0 (consumer in superstep 1);
    /// * `e` (c=3) p0→p1, fixed at phase 1;
    /// * `b` (c=7) p2→p3, window `[0, 1]`, lazily at phase 1.
    ///
    /// Lazy cost: phases 8 + max(3,7) = 15. Moving `b` to phase 0 overlaps
    /// it with `a` on disjoint pairs: max(8,7) + 3 = 11.
    #[test]
    fn spreads_transfers_across_phases() {
        let mut bld = DagBuilder::new();
        let a = bld.add_node(1, 8);
        let e = bld.add_node(1, 3);
        let b = bld.add_node(1, 7);
        let wa = bld.add_node(1, 1);
        let we = bld.add_node(1, 1);
        let wb = bld.add_node(1, 1);
        bld.add_edge(a, wa).unwrap();
        bld.add_edge(e, we).unwrap();
        bld.add_edge(b, wb).unwrap();
        let dag = bld.build().unwrap();
        let machine = BspParams::new(4, 1, 0);
        // a: (p0, s0) -> wa: (p1, s1); e: (p0, s1) -> we: (p1, s2);
        // b: (p2, s0) -> wb: (p3, s2).
        let sched = BspSchedule::from_parts(vec![0, 0, 2, 1, 1, 3], vec![0, 1, 0, 1, 2, 2]);
        let mut st = CommState::new(&dag, &machine, &sched);
        let lazy = st.cost();
        let moves = comm_hill_climb(&mut st, &mut Stop::new(None, None));
        assert!(moves >= 1);
        assert_eq!(st.cost(), lazy - 4, "expected 15 -> 11 comm units");
        // Result must stay a valid explicit schedule.
        let comm = st.comm_schedule();
        assert!(validate(&dag, 4, &sched, &comm).is_ok());
        assert_eq!(st.cost(), total_cost(&dag, &machine, &sched, &comm));
    }

    #[test]
    fn no_transfers_no_moves() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::from_parts(vec![0, 0], vec![0, 1]);
        let mut st = CommState::new(&dag, &machine, &sched);
        assert_eq!(st.n_transfers(), 0);
        assert_eq!(comm_hill_climb(&mut st, &mut Stop::new(None, None)), 0);
    }

    #[test]
    fn cost_matches_external_evaluation_after_moves() {
        let mut b = DagBuilder::new();
        let mut prev = Vec::new();
        for _ in 0..3 {
            prev.push(b.add_node(2, 3));
        }
        let mut next = Vec::new();
        for i in 0..3 {
            let v = b.add_node(1, 1);
            b.add_edge(prev[i], v).unwrap();
            next.push(v);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(3, 2, 4);
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 1, 2, 1], vec![0, 0, 1, 2, 2, 3]);
        let (comm, cost) =
            optimize_comm_schedule(&dag, &machine, &sched, &mut Stop::new(None, None));
        assert!(validate(&dag, 3, &sched, &comm).is_ok());
        assert_eq!(cost, total_cost(&dag, &machine, &sched, &comm));
        // Never worse than lazy.
        let lazy = CommSchedule::lazy(&dag, &sched);
        assert!(cost <= total_cost(&dag, &machine, &sched, &lazy));
    }
}
