//! The historical apply/revert local-search kernel, kept as an
//! executable specification.
//!
//! [`RefScheduleState`] is the pre-probe implementation of
//! [`bsp_core::state::ScheduleState`]: per-(node, processor) `BTreeMap`
//! multisets for the consumer steps, and candidate evaluation by a full
//! `apply_move` + revert pair (allocating scratch `Vec`s on every move).
//! It is *not* used by any scheduler. It exists for two reasons:
//!
//! 1. **Differential testing** — `proptests.rs` and
//!    `kernel_equivalence.rs` assert that the flat probe-based
//!    kernel makes bit-identical decisions and produces bit-identical
//!    costs to this implementation on every instance they generate.
//! 2. **Benchmark baseline** — the `local_search` criterion group
//!    (which `#[path]`-includes this file) times the probe kernel
//!    against [`best_move_apply_revert`] on the same scans.

#![allow(dead_code)]

use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::BspSchedule;
use std::collections::BTreeMap;

/// Consumer-step multisets of one node, bucketed by consumer processor.
#[derive(Debug, Clone, Default)]
struct Needs {
    buckets: Vec<(u32, BTreeMap<u32, u32>)>,
}

impl Needs {
    fn bucket_mut(&mut self, q: u32) -> &mut BTreeMap<u32, u32> {
        if let Some(i) = self.buckets.iter().position(|b| b.0 == q) {
            &mut self.buckets[i].1
        } else {
            self.buckets.push((q, BTreeMap::new()));
            &mut self.buckets.last_mut().unwrap().1
        }
    }

    fn min(&self, q: u32) -> Option<u32> {
        self.buckets
            .iter()
            .find(|b| b.0 == q)
            .and_then(|b| b.1.keys().next().copied())
    }

    fn insert(&mut self, q: u32, s: u32) {
        *self.bucket_mut(q).entry(s).or_insert(0) += 1;
    }

    fn remove(&mut self, q: u32, s: u32) {
        let b = self.bucket_mut(q);
        let c = b
            .get_mut(&s)
            .expect("removing a consumer step that is not recorded");
        *c -= 1;
        if *c == 0 {
            b.remove(&s);
        }
    }
}

/// The pre-probe [`bsp_core::state::ScheduleState`]: identical contract
/// (`cost`, `is_move_valid`, `apply_move`), original data layout.
pub struct RefScheduleState<'a> {
    dag: &'a Dag,
    machine: &'a BspParams,
    proc: Vec<u32>,
    step: Vec<u32>,
    n_steps: usize,
    work: Vec<u64>,
    send: Vec<u64>,
    recv: Vec<u64>,
    nodes_count: Vec<u32>,
    comm_count: Vec<u32>,
    step_cost: Vec<u64>,
    total: u64,
    needs: Vec<Needs>,
    touched: Vec<u32>,
}

impl<'a> RefScheduleState<'a> {
    /// Builds the state from an assignment satisfying
    /// [`BspSchedule::respects_precedence_lazy`].
    pub fn new(dag: &'a Dag, machine: &'a BspParams, sched: &BspSchedule) -> Self {
        assert_eq!(sched.n(), dag.n());
        debug_assert!(sched.respects_precedence_lazy(dag));
        let p = machine.p();
        let n_steps = sched.n_supersteps().max(1) as usize;
        let mut st = RefScheduleState {
            dag,
            machine,
            proc: sched.procs().to_vec(),
            step: sched.steps().to_vec(),
            n_steps,
            work: vec![0; n_steps * p],
            send: vec![0; n_steps * p],
            recv: vec![0; n_steps * p],
            nodes_count: vec![0; n_steps],
            comm_count: vec![0; n_steps],
            step_cost: vec![0; n_steps],
            total: 0,
            needs: vec![Needs::default(); dag.n()],
            touched: Vec::new(),
        };
        for v in dag.nodes() {
            let (pv, sv) = (st.proc[v as usize], st.step[v as usize]);
            st.work[sv as usize * p + pv as usize] += dag.work(v);
            st.nodes_count[sv as usize] += 1;
            for &w in dag.successors(v) {
                st.needs[v as usize].insert(st.proc[w as usize], st.step[w as usize]);
            }
        }
        for v in dag.nodes() {
            let pv = st.proc[v as usize];
            let buckets: Vec<(u32, Option<u32>)> = st.needs[v as usize]
                .buckets
                .iter()
                .map(|(q, b)| (*q, b.keys().next().copied()))
                .collect();
            for (q, min) in buckets {
                if q != pv {
                    if let Some(m) = min {
                        st.add_transfer(v, pv, q, m - 1);
                    }
                }
            }
        }
        for s in 0..st.n_steps {
            st.step_cost[s] = st.compute_step_cost(s);
            st.total += st.step_cost[s];
        }
        st
    }

    /// Current total cost (lazy communication model).
    #[inline]
    pub fn cost(&self) -> u64 {
        self.total
    }

    /// Current processor of `v`.
    #[inline]
    pub fn proc(&self, v: NodeId) -> u32 {
        self.proc[v as usize]
    }

    /// Current superstep of `v`.
    #[inline]
    pub fn step(&self, v: NodeId) -> u32 {
        self.step[v as usize]
    }

    /// Snapshot of the current assignment.
    pub fn snapshot(&self) -> BspSchedule {
        BspSchedule::from_parts(self.proc.clone(), self.step.clone())
    }

    /// Whether moving `v` to `(p_new, s_new)` keeps the assignment valid.
    pub fn is_move_valid(&self, v: NodeId, p_new: u32, s_new: u32) -> bool {
        for &u in self.dag.predecessors(v) {
            let ok = if self.proc[u as usize] == p_new {
                self.step[u as usize] <= s_new
            } else {
                self.step[u as usize] < s_new
            };
            if !ok {
                return false;
            }
        }
        for &w in self.dag.successors(v) {
            let ok = if self.proc[w as usize] == p_new {
                s_new <= self.step[w as usize]
            } else {
                s_new < self.step[w as usize]
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Applies the move of `v` to `(p_new, s_new)` and returns the new
    /// total cost, allocating per-move scratch (the historical behaviour).
    pub fn apply_move(&mut self, v: NodeId, p_new: u32, s_new: u32) -> u64 {
        let p = self.machine.p();
        let (p_old, s_old) = (self.proc[v as usize], self.step[v as usize]);
        if p_old == p_new && s_old == s_new {
            return self.total;
        }
        self.ensure_steps(s_new as usize + 1);
        self.touched.clear();

        if p_old != p_new {
            let outgoing: Vec<(u32, u32)> = self.needs[v as usize]
                .buckets
                .iter()
                .filter(|(q, b)| *q != p_old && !b.is_empty())
                .map(|(q, b)| (*q, *b.keys().next().unwrap()))
                .collect();
            for (q, m) in outgoing {
                self.remove_transfer(v, p_old, q, m - 1);
            }
        }

        let preds: Vec<NodeId> = self.dag.predecessors(v).to_vec();
        for u in preds {
            self.retarget_consumer(u, p_old, s_old, p_new, s_new);
        }

        self.work[s_old as usize * p + p_old as usize] -= self.dag.work(v);
        self.nodes_count[s_old as usize] -= 1;
        self.work[s_new as usize * p + p_new as usize] += self.dag.work(v);
        self.nodes_count[s_new as usize] += 1;
        self.touched.push(s_old);
        self.touched.push(s_new);
        self.proc[v as usize] = p_new;
        self.step[v as usize] = s_new;

        if p_old != p_new {
            let outgoing: Vec<(u32, u32)> = self.needs[v as usize]
                .buckets
                .iter()
                .filter(|(q, b)| *q != p_new && !b.is_empty())
                .map(|(q, b)| (*q, *b.keys().next().unwrap()))
                .collect();
            for (q, m) in outgoing {
                self.add_transfer(v, p_new, q, m - 1);
            }
        }

        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &s in &touched {
            let s = s as usize;
            self.total -= self.step_cost[s];
            self.step_cost[s] = self.compute_step_cost(s);
            self.total += self.step_cost[s];
        }
        touched.clear();
        self.touched = touched;
        self.total
    }

    fn retarget_consumer(&mut self, u: NodeId, p_old: u32, s_old: u32, p_new: u32, s_new: u32) {
        let pu = self.proc[u as usize];
        let old_min_before = self.needs[u as usize].min(p_old);
        self.needs[u as usize].remove(p_old, s_old);
        let old_min_after = self.needs[u as usize].min(p_old);
        if p_old != pu && old_min_before != old_min_after {
            if let Some(m) = old_min_before {
                self.remove_transfer(u, pu, p_old, m - 1);
            }
            if let Some(m) = old_min_after {
                self.add_transfer(u, pu, p_old, m - 1);
            }
        }
        let new_min_before = self.needs[u as usize].min(p_new);
        self.needs[u as usize].insert(p_new, s_new);
        let new_min_after = self.needs[u as usize].min(p_new);
        if p_new != pu && new_min_before != new_min_after {
            if let Some(m) = new_min_before {
                self.remove_transfer(u, pu, p_new, m - 1);
            }
            if let Some(m) = new_min_after {
                self.add_transfer(u, pu, p_new, m - 1);
            }
        }
    }

    fn add_transfer(&mut self, v: NodeId, src: u32, dst: u32, phase: u32) {
        let p = self.machine.p();
        self.ensure_steps(phase as usize + 1);
        let weighted = self.dag.comm(v) * self.machine.lambda(src as usize, dst as usize);
        self.send[phase as usize * p + src as usize] += weighted;
        self.recv[phase as usize * p + dst as usize] += weighted;
        self.comm_count[phase as usize] += 1;
        self.touched.push(phase);
    }

    fn remove_transfer(&mut self, v: NodeId, src: u32, dst: u32, phase: u32) {
        let p = self.machine.p();
        let weighted = self.dag.comm(v) * self.machine.lambda(src as usize, dst as usize);
        self.send[phase as usize * p + src as usize] -= weighted;
        self.recv[phase as usize * p + dst as usize] -= weighted;
        self.comm_count[phase as usize] -= 1;
        self.touched.push(phase);
    }

    fn ensure_steps(&mut self, want: usize) {
        if want <= self.n_steps {
            return;
        }
        let p = self.machine.p();
        self.work.resize(want * p, 0);
        self.send.resize(want * p, 0);
        self.recv.resize(want * p, 0);
        self.nodes_count.resize(want, 0);
        self.comm_count.resize(want, 0);
        self.step_cost.resize(want, 0);
        self.n_steps = want;
    }

    fn compute_step_cost(&self, s: usize) -> u64 {
        let p = self.machine.p();
        let row = s * p;
        let w = self.work[row..row + p].iter().copied().max().unwrap_or(0);
        let c = (0..p)
            .map(|q| self.send[row + q].max(self.recv[row + q]))
            .max()
            .unwrap_or(0);
        let nonempty = self.nodes_count[s] > 0 || self.comm_count[s] > 0;
        w + self.machine.g() * c + if nonempty { self.machine.l() } else { 0 }
    }

    /// Full recomputation of the total cost; cross-checks the bookkeeping.
    pub fn recomputed_cost(&self) -> u64 {
        lazy_cost(self.dag, self.machine, &self.snapshot())
    }
}

/// The historical steepest-descent neighbourhood scan: every candidate is
/// evaluated by a full `apply_move` + revert pair. Returns the move with
/// the strictly largest cost decrease (ties to the first in scan order).
pub fn best_move_apply_revert(
    state: &mut RefScheduleState<'_>,
    n: u32,
    p: u32,
) -> Option<(NodeId, u32, u32)> {
    let before = state.cost();
    let mut best: Option<(u64, NodeId, u32, u32)> = None;
    for v in 0..n as NodeId {
        let (cur_p, cur_s) = (state.proc(v), state.step(v));
        let lo = cur_s.saturating_sub(1);
        for s in lo..=cur_s + 1 {
            for q in 0..p {
                if (q, s) == (cur_p, cur_s) || !state.is_move_valid(v, q, s) {
                    continue;
                }
                let after = state.apply_move(v, q, s);
                state.apply_move(v, cur_p, cur_s); // revert; moves are exact inverses
                if after < before && best.as_ref().is_none_or(|&(b, ..)| after < b) {
                    best = Some((after, v, q, s));
                }
            }
        }
    }
    best.map(|(_, v, q, s)| (v, q, s))
}
