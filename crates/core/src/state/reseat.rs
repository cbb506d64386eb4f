//! Un-contractions as table edits: a multilevel walk keeps one state from
//! its coarsest stage down to the input DAG.
//!
//! The walk's graph is [`MutableDag::stage_by_id`], the current stage over
//! the original ids, in which a node merged away is an isolated node of
//! weight 0. The tables leave such a node out: it is *absent*
//! ([`ScheduleState::with_absent`]). It counts in no row, its consumer slice
//! is empty, and it sleeps settled, so no sweep visits it and no wake-all
//! reaches it. Live nodes keep their original ids, so a sweep visits them in
//! the order a state built on the compacted stage would. The tables equal
//! that state's but for the absent ids and the empty rows past the last
//! superstep, and so every climb on them is that state's climb.
//!
//! Undoing a contraction `(u, v)` revives `v` at `u`'s `(π, τ)`
//! ([`ScheduleTables::uncontract`]). A batch of them changes two things:
//!
//! * *The re-seated nodes* — each kept node alive before the batch, and each
//!   revived one. Their weights and out-edges change. The batch takes every
//!   kept node off the tables (its work, node count and lazy transfers)
//!   under the old graph, and puts every re-seated node on under the new
//!   one. Its work lands in the cell it left, since a revived node shares
//!   its parent's placement.
//! * *The consumer slices* of the re-seated nodes and of every predecessor
//!   of a revived node. Such a predecessor's slice gains `v` at `u`'s
//!   placement, or trades `u`'s entry for it: the same `(proc, step)` either
//!   way, so none of its bucket minima, and none of its lazy transfers,
//!   moves.
//!
//! The graph follows by [`MutableDag::restage`] and the slices by
//! [`rewrite_csr_rows`]: the rewritten rows plus one copy of each array per
//! batch. The batch stamps the rows it touched and every node whose slice,
//! weights or edges changed, and wakes each re-seated node with its
//! consumers, as a move does. So the certificates and sleepers of the rest
//! stand.

use super::{ScheduleState, ScheduleTables};
use bsp_dag::graph::rewrite_csr_rows;
use bsp_dag::{Dag, MutableDag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::BspSchedule;

impl<'a> ScheduleState<'a> {
    /// [`ScheduleState::new`] with the `absent` nodes left out (see the
    /// module docs): each must be isolated and of weight 0 in `dag`. They
    /// count in no row and no sweep visits them until
    /// [`ScheduleTables::uncontract`] revives them.
    pub fn with_absent(
        dag: &'a Dag,
        machine: &'a BspParams,
        sched: &BspSchedule,
        absent: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut st = ScheduleState::new(dag, machine, sched);
        for v in absent {
            debug_assert!(
                dag.work(v) == 0 && dag.comm(v) == 0 && dag.in_degree(v) + dag.out_degree(v) == 0,
                "absent node {v} carries weight or edges"
            );
            let s = sched.step(v);
            st.t.meta[s as usize].nodes -= 1;
            st.t.touched.push(s);
            st.t.awake.leave_out(v);
        }
        st.refresh_touched();
        st
    }

    /// Puts `x` on the tables (`on`) or takes it off: its work and node
    /// count at its placement, and one lazy transfer per remote bucket of
    /// its consumer slice. Leaves the touched rows for the caller's
    /// refresh.
    fn seat(&mut self, x: NodeId, on: bool) {
        let (px, sx) = (self.t.sched.proc(x), self.t.sched.step(x));
        let (cell, w) = (
            sx as usize * self.machine.p() + px as usize,
            self.dag.work(x),
        );
        let (slot, meta) = (&mut self.t.slots[cell], &mut self.t.meta[sx as usize]);
        if on {
            slot.work += w;
            meta.nodes += 1;
        } else {
            slot.work -= w;
            meta.nodes -= 1;
        }
        self.t.touched.push(sx);
        let (lo, hi) = self.cons_range(x);
        let mut i = lo;
        while i < hi {
            let (q, m) = self.t.cons[i];
            i = self.bucket_end(i, hi, q);
            match (q == px, on) {
                (true, _) => {}
                (false, true) => self.add_transfer(x, px, q, m - 1),
                (false, false) => self.remove_transfer(x, px, q, m - 1),
            }
        }
    }
}

impl ScheduleTables {
    /// Undoes up to `count` contractions of `walk`, latest first, on
    /// `stage` — `walk`'s [`MutableDag::stage_by_id`], which this keeps up
    /// to date — and on these tables, built over `stage` for `machine`.
    /// Each revived node takes the `(π, τ)` of the node it had been merged
    /// into. The tables end equal to the ones
    /// [`ScheduleState::with_absent`] builds from the new stage and
    /// assignment, for the cost of the batch's rows plus one copy of the
    /// adjacency and consumer arrays (see the module docs).
    pub fn uncontract(
        &mut self,
        stage: &mut Dag,
        machine: &BspParams,
        walk: &mut MutableDag,
        count: usize,
    ) {
        let mut pairs = Vec::new();
        // Nodes whose consumer slices change, and on top of those the ones
        // whose in-edges change: the rows `restage` rewrites.
        let (mut sliced, mut rows) = (Vec::new(), Vec::new());
        while pairs.len() < count {
            let Some((u, v)) = walk.uncontract() else {
                break;
            };
            pairs.push((u, v));
            sliced.extend([u, v]);
            sliced.extend(walk.predecessors(v));
            rows.extend(walk.successors(v));
        }
        if pairs.is_empty() {
            return;
        }
        let mut seated: Vec<NodeId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
        seated.sort_unstable();
        seated.dedup();
        sliced.sort_unstable();
        sliced.dedup();

        // Off the tables under the old graph: the seated nodes that were
        // alive before the batch (the revived ones are still absent).
        let mut st = ScheduleState::attach(stage, machine, std::mem::take(self));
        st.t.clock += 1;
        for &x in &seated {
            if !st.is_absent(x) {
                st.seat(x, false);
            }
        }
        let tables = st.detach();
        rows.extend(&sliced);
        walk.restage(stage, &mut rows);

        let mut st = ScheduleState::attach(stage, machine, tables);
        for &(u, v) in &pairs {
            let (q, s) = (st.t.sched.proc(u), st.t.sched.step(u));
            st.t.sched.set(v, q, s);
            st.t.awake.revive(v);
        }
        let (dag, t) = (st.dag, &mut st.t);
        rewrite_csr_rows(&mut t.cons_off, &mut t.cons, &sliced, |x, out| {
            let lo = out.len();
            let place = |w: &NodeId| (t.sched.proc(*w), t.sched.step(*w));
            out.extend(dag.successors(x).iter().map(place));
            out[lo..].sort_unstable();
        });
        for &x in &seated {
            st.seat(x, true);
            st.wake_with_consumers(x);
        }
        let now = st.t.clock;
        for &x in &sliced {
            st.t.node_stamp[x as usize] = now;
        }
        st.refresh_touched();
        debug_assert_eq!(st.t.cons.len(), stage.m());
        *self = st.detach();
    }

    /// These tables with the absent nodes and the empty rows past the last
    /// superstep dropped: what [`ScheduleState::new`] builds on the
    /// compacted stage.
    #[cfg(test)]
    pub(crate) fn present_only(&self) -> ScheduleTables {
        let present: Vec<usize> = (0..self.n())
            .filter(|&v| !self.awake.is_absent(v as NodeId))
            .collect();
        let steps = (self.n_supersteps() as usize).max(1);
        let p = self.slots.len() / self.n_steps;
        let sched = &self.sched;
        ScheduleTables {
            sched: BspSchedule::from_parts(
                present.iter().map(|&v| sched.proc(v as NodeId)).collect(),
                present.iter().map(|&v| sched.step(v as NodeId)).collect(),
            ),
            n_steps: steps,
            slots: self.slots[..steps * p].to_vec(),
            meta: self.meta[..steps].to_vec(),
            total: self.total,
            cons: self.cons.clone(),
            cons_off: present
                .iter()
                .map(|&v| self.cons_off[v])
                .chain([self.cons.len() as u32])
                .collect(),
            ..ScheduleTables::default()
        }
    }
}
