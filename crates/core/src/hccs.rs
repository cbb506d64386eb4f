//! Hill climbing on the communication schedule (HCcs, paper §4.3, A.3).
//!
//! With `(π, τ)` fixed, every required transfer `(v, π(v) → q)` may be
//! scheduled in any communication phase `s ∈ [τ(v), s0 − 1]`, where `s0` is
//! the first superstep computing a successor of `v` on `q` (the
//! direct-from-source model). HCcs greedily moves single transfers to
//! cheaper phases until no move improves the cost.
//!
//! [`CommState`] keeps the per-cell tallies [`step_tallies`] builds for
//! [`bsp_schedule::cost::schedule_cost`], moves one transfer's send and
//! receive volume between two phases, and re-costs those two rows as
//! [`SuperstepCost`]s — the same rows `schedule_cost` reports for the
//! [`CommState::comm_schedule`] it hands out.

use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::comm::{required_transfers, Transfer};
use bsp_schedule::cost::{step_tallies, StepTallies, SuperstepCost};
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

/// Incremental state for the communication-scheduling subproblem: the
/// transfers, their phases, and the [`StepTallies`] those phases and the
/// fixed assignment give, kept up to date as transfers move.
pub struct CommState<'a> {
    dag: &'a Dag,
    machine: &'a BspParams,
    transfers: Vec<Transfer>,
    /// Chosen phase per transfer.
    phase: Vec<u32>,
    /// Per-superstep cells and counts; only the transfer side changes.
    t: StepTallies,
    /// Max work per superstep (fixed).
    work_max: Vec<u64>,
    /// `row(s).total(g)` per superstep, and their sum.
    step_cost: Vec<u64>,
    total: u64,
}

/// The transfers placed in their phases, as communication-schedule entries.
fn entries<'t>(
    transfers: &'t [Transfer],
    phase: &'t [u32],
) -> impl Iterator<Item = CommStep> + Clone + 't {
    transfers.iter().zip(phase).map(|(t, &step)| CommStep {
        node: t.node,
        from: t.from,
        to: t.to,
        step,
    })
}

impl<'a> CommState<'a> {
    /// Builds the state from an assignment, placing every transfer *lazily*
    /// (at its latest feasible phase), which is the schedule the rest of the
    /// framework assumes.
    pub fn new(dag: &'a Dag, machine: &'a BspParams, sched: &BspSchedule) -> Self {
        let transfers = required_transfers(dag, sched);
        let phase: Vec<u32> = transfers.iter().map(|t| t.latest).collect();
        let t = step_tallies(dag, machine, sched, entries(&transfers, &phase));
        let work_max = t
            .work
            .chunks_exact(machine.p())
            .map(|row| row.iter().copied().max().unwrap_or(0))
            .collect();
        let mut st = CommState {
            dag,
            machine,
            transfers,
            phase,
            t,
            work_max,
            step_cost: Vec::new(),
            total: 0,
        };
        st.step_cost = (0..st.t.n_steps)
            .map(|s| st.row(s).total(machine.g()))
            .collect();
        st.total = st.step_cost.iter().sum();
        st
    }

    /// Current total schedule cost (work + g·comm + latency).
    pub fn cost(&self) -> u64 {
        self.total
    }

    /// Number of supersteps tracked (computation or communication).
    pub fn n_steps(&self) -> usize {
        self.t.n_steps
    }

    /// Superstep `s`'s cost components under the current phases; the
    /// empty row past the last tracked superstep.
    pub fn row(&self, s: usize) -> SuperstepCost {
        if s < self.t.n_steps {
            self.shifted_row(s, 0, 0, 0, 0)
        } else {
            SuperstepCost::default()
        }
    }

    /// Row `s` with `d` more λ-weighted units sent by `from` and received
    /// by `to`, and `dcount` more transfers. `O(P)`.
    fn shifted_row(&self, s: usize, from: usize, to: usize, d: i64, dcount: i64) -> SuperstepCost {
        let p = self.machine.p();
        let row = s * p;
        let hrel = (0..p)
            .map(|q| {
                let send = self.t.send[row + q] as i64 + if q == from { d } else { 0 };
                let recv = self.t.recv[row + q] as i64 + if q == to { d } else { 0 };
                send.max(recv) as u64
            })
            .max()
            .unwrap_or(0);
        let nonempty = self.t.nodes_in_step[s] > 0 || self.t.comms_in_step[s] as i64 + dcount > 0;
        SuperstepCost::new(self.work_max[s], hrel, nonempty, self.machine)
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
        let weighted = self.dag.comm(t.node) * self.machine.lambda(t.from as usize, t.to as usize);
        let mut delta = 0i64;
        for (s, sign) in [(old, -1i64), (new, 1i64)] {
            let d = sign * weighted as i64;
            let row = self.shifted_row(s, t.from as usize, t.to as usize, d, sign);
            delta += row.total(self.machine.g()) as i64 - self.step_cost[s] as i64;
        }
        delta
    }

    /// Moves transfer `i` to `new_phase`.
    fn apply(&mut self, i: usize, new_phase: u32) {
        let p = self.machine.p();
        let t = self.transfers[i];
        let old = self.phase[i] as usize;
        let new = new_phase as usize;
        if old == new {
            return;
        }
        let weighted = self.dag.comm(t.node) * self.machine.lambda(t.from as usize, t.to as usize);
        self.t.send[old * p + t.from as usize] -= weighted;
        self.t.recv[old * p + t.to as usize] -= weighted;
        self.t.comms_in_step[old] -= 1;
        self.t.send[new * p + t.from as usize] += weighted;
        self.t.recv[new * p + t.to as usize] += weighted;
        self.t.comms_in_step[new] += 1;
        self.phase[i] = new_phase;
        for s in [old, new] {
            self.total -= self.step_cost[s];
            self.step_cost[s] = self.row(s).total(self.machine.g());
            self.total += self.step_cost[s];
        }
    }

    /// Extracts the explicit communication schedule.
    pub fn comm_schedule(&self) -> CommSchedule {
        CommSchedule::from_entries(entries(&self.transfers, &self.phase).collect())
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
