//! Mutations: applying a move (and the transfer and consumer-arena
//! updates under it, and the nodes it wakes), squeezing out empty
//! supersteps, and refreshing the cached row maxima and costs of the rows
//! a mutation touched.

use super::awake::Hotness;
use super::{ScheduleState, Slot, StepMeta, TopK};
use bsp_dag::NodeId;
use bsp_schedule::cost::lazy_cost;

impl ScheduleState<'_> {
    /// Applies the move of `v` to `(p_new, s_new)` and returns the new total
    /// cost. The caller is responsible for having checked
    /// [`ScheduleState::is_move_valid`]; the move is exactly reversible by
    /// applying the inverse move, and allocation-free apart from one-time
    /// step-table growth when `s_new` exceeds every step seen so far. It
    /// wakes `v`, its consumers, and each producer whose lazy transfers it
    /// moved, with that producer's consumers.
    pub fn apply_move(&mut self, v: NodeId, p_new: u32, s_new: u32) -> u64 {
        let p = self.machine.p();
        let (p_old, s_old) = (self.t.sched.proc(v), self.t.sched.step(v));
        if p_old == p_new && s_old == s_new {
            return self.t.total;
        }
        self.ensure_steps(s_new as usize + 1);
        self.t.touched.clear();
        self.t.clock += 1;

        // 1. Producer side: drop v's outgoing transfers under the old π(v).
        if p_old != p_new {
            let (lo, hi) = self.cons_range(v);
            let mut i = lo;
            while i < hi {
                let (q, m) = self.t.cons[i];
                while i < hi && self.t.cons[i].0 == q {
                    i += 1;
                }
                if q != p_old {
                    self.remove_transfer(v, p_old, q, m - 1);
                }
            }
        }

        // 2. Consumer side: update each predecessor's consumer multiset.
        //    (`self.dag` is a plain reference copy, so iterating its adjacency
        //    while mutating the state borrows nothing from `self`.)
        let dag = self.dag;
        for &u in dag.predecessors(v) {
            if self.retarget_consumer(u, p_old, s_old, p_new, s_new) {
                self.wake_with_consumers(u);
            }
            self.t.node_stamp[u as usize] = self.t.clock;
        }

        // 3. Work movement.
        self.t.slots[s_old as usize * p + p_old as usize].work -= dag.work(v);
        self.t.meta[s_old as usize].nodes -= 1;
        self.t.slots[s_new as usize * p + p_new as usize].work += dag.work(v);
        self.t.meta[s_new as usize].nodes += 1;
        self.t.touched.push(s_old);
        self.t.touched.push(s_new);
        self.t.sched.set(v, p_new, s_new);
        self.t.node_stamp[v as usize] = self.t.clock;
        self.wake_with_consumers(v);

        // 4. Producer side: re-add v's outgoing transfers under the new π(v).
        if p_old != p_new {
            let (lo, hi) = self.cons_range(v);
            let mut i = lo;
            while i < hi {
                let (q, m) = self.t.cons[i];
                while i < hi && self.t.cons[i].0 == q {
                    i += 1;
                }
                if q != p_new {
                    self.add_transfer(v, p_new, q, m - 1);
                }
            }
        }

        self.refresh_touched();
        self.t.total
    }

    /// Refreshes the cached cost and row maxima of every superstep in
    /// `touched` — each row the current mutation changed a slot or a count
    /// of — folds the differences into the total, stamps those rows with
    /// the mutation's clock, and wakes every node if a row gained a hot
    /// cell.
    pub(super) fn refresh_touched(&mut self) {
        let mut touched = std::mem::take(&mut self.t.touched);
        touched.sort_unstable();
        touched.dedup();
        let mut gained = 0;
        for &s in &touched {
            let s = s as usize;
            self.t.total -= self.t.meta[s].cost;
            gained += self.refresh_step(s) as u64;
            self.t.total += self.t.meta[s].cost;
            self.t.row_stamp[s] = self.t.clock;
        }
        self.wake_all(gained);
        touched.clear();
        self.t.touched = touched;
    }

    /// Moves consumer `v` of producer `u` from `(p_old, s_old)` to
    /// `(p_new, s_new)` in `u`'s consumer multiset, shifting `u`'s lazy
    /// transfers when a bucket minimum changes. Returns whether one did.
    fn retarget_consumer(
        &mut self,
        u: NodeId,
        p_old: u32,
        s_old: u32,
        p_new: u32,
        s_new: u32,
    ) -> bool {
        let old_min_before = self.bucket_min(u, p_old);
        let new_min_before = self.bucket_min(u, p_new);
        self.slice_retarget(u, (p_old, s_old), (p_new, s_new));
        // With p_old == p_new one bucket changed, and its net minimum
        // change covers the removal and the insertion.
        let moved = self.shift_transfer(u, p_old, old_min_before);
        moved | (p_old != p_new && self.shift_transfer(u, p_new, new_min_before))
    }

    /// Moves `u`'s lazy transfer to processor `q` where the earliest
    /// consumer step of bucket `q` changed from `before` (there is none
    /// for an empty bucket, or for `q == π(u)`). Returns whether it moved.
    pub(super) fn shift_transfer(&mut self, u: NodeId, q: u32, before: Option<u32>) -> bool {
        let after = self.bucket_min(u, q);
        let pu = self.t.sched.proc(u);
        if q == pu || before == after {
            return false;
        }
        if let Some(m) = before {
            self.remove_transfer(u, pu, q, m - 1);
        }
        if let Some(m) = after {
            self.add_transfer(u, pu, q, m - 1);
        }
        true
    }

    /// Replaces one `old` entry of `u`'s sorted consumer slice with `new`,
    /// preserving sorted order by rotating the span between the two
    /// positions (the slice length is fixed at `out_degree(u)`).
    pub(super) fn slice_retarget(&mut self, u: NodeId, old: (u32, u32), new: (u32, u32)) {
        let (lo, hi) = self.cons_range(u);
        let sl = &mut self.t.cons[lo..hi];
        let i = sl.partition_point(|&e| e < old);
        debug_assert!(sl[i] == old, "retargeting an unrecorded consumer entry");
        let j = sl.partition_point(|&e| e < new);
        if j > i {
            sl[i..j].rotate_left(1);
            sl[j - 1] = new;
        } else {
            sl[j..=i].rotate_right(1);
            sl[j] = new;
        }
    }

    pub(super) fn add_transfer(&mut self, v: NodeId, src: u32, dst: u32, phase: u32) {
        let p = self.machine.p();
        self.ensure_steps(phase as usize + 1);
        let weighted = self.weighted(v, src, dst);
        self.t.slots[phase as usize * p + src as usize].send += weighted;
        self.t.slots[phase as usize * p + dst as usize].recv += weighted;
        self.t.meta[phase as usize].comm += 1;
        self.t.touched.push(phase);
    }

    pub(super) fn remove_transfer(&mut self, v: NodeId, src: u32, dst: u32, phase: u32) {
        let p = self.machine.p();
        let weighted = self.weighted(v, src, dst);
        self.t.slots[phase as usize * p + src as usize].send -= weighted;
        self.t.slots[phase as usize * p + dst as usize].recv -= weighted;
        self.t.meta[phase as usize].comm -= 1;
        self.t.touched.push(phase);
    }

    pub(super) fn ensure_steps(&mut self, want: usize) {
        if want <= self.t.n_steps {
            return;
        }
        let p = self.machine.p();
        self.t.slots.resize(want * p, Slot::default());
        // The cached maxima of an all-zero row as `refresh_step` writes
        // them, so a grown table equals a freshly built one.
        let zeros = TopK::scan(std::iter::repeat_n(0, p));
        let blank = StepMeta {
            wtop: zeros,
            htop: zeros,
            ..StepMeta::EMPTY
        };
        self.t.meta.resize(want, blank);
        // A new row holds what a probe read there before it existed:
        // nothing. Its stamp stays 0 until something lands in it.
        self.t.row_stamp.resize(want, 0);
        self.t.n_steps = want;
    }

    /// Squeezes out the empty supersteps at or above `floor` in place —
    /// those that compute no node and carry no lazy transfer — preserving
    /// the order of the rest; supersteps below `floor` (an online
    /// runtime's committed prefix) keep their index even when empty. The
    /// resulting state is the one [`ScheduleState::new`] would build from
    /// the compacted assignment, and the cost is unchanged (an empty
    /// superstep costs 0). `O(n + m + S·P)`, and free of any pass over
    /// the schedule when nothing is empty. The awake set stays as it is:
    /// a renumbering changes no row's hotness and no node's enumeration.
    pub fn compact_from(&mut self, floor: u32) {
        let is_empty = |m: &StepMeta| m.nodes == 0 && m.comm == 0;
        let floor = (floor as usize).min(self.t.n_steps);
        if !self.t.meta[floor..].iter().any(is_empty) {
            return;
        }
        let p = self.machine.p();
        let mut remap = vec![0u32; self.t.n_steps];
        let mut next = floor;
        for s in 0..self.t.n_steps {
            if s < floor {
                remap[s] = s as u32;
                continue;
            }
            remap[s] = next as u32;
            if !is_empty(&self.t.meta[s]) {
                self.t.meta[next] = self.t.meta[s];
                self.t.slots.copy_within(s * p..(s + 1) * p, next * p);
                next += 1;
            }
        }
        // Keep one (empty) superstep when nothing is left, as `new` does.
        let kept = next.max(1);
        self.t.meta.truncate(kept);
        self.t.slots.truncate(kept * p);
        self.t.n_steps = kept;
        // Every row at or above the first gap now holds another row's
        // contents, and every node there another superstep: one stamp on
        // all rows voids whatever was certified before (a node's own row
        // is always among the rows its certificate reads).
        self.t.clock += 1;
        self.t.row_stamp.truncate(kept);
        self.t.row_stamp.fill(self.t.clock);
        for s in self.t.sched.steps_mut() {
            *s = remap[*s as usize];
        }
        // The remap is monotone, so every consumer slice stays sorted.
        for e in &mut self.t.cons {
            e.1 = remap[e.1 as usize];
        }
    }

    /// Rescans superstep `s`, refreshing its cached cost and [`TopK`]
    /// row maxima in one `O(P)` pass. Returns whether the row gained a
    /// hot cell ([`Hotness::gained`]).
    pub(super) fn refresh_step(&mut self, s: usize) -> bool {
        let p = self.machine.p();
        let row = s * p;
        let wt = TopK::scan(self.t.slots[row..row + p].iter().map(|b| b.work));
        let ht = TopK::scan(
            self.t.slots[row..row + p]
                .iter()
                .map(|b| b.send.max(b.recv)),
        );
        let m = &mut self.t.meta[s];
        let was = Hotness::of(m.refreshed_nodes, &m.wtop, &m.htop, p);
        let nonempty = m.nodes > 0 || m.comm > 0;
        m.cost = wt.vals[0]
            + self.machine.g() * ht.vals[0]
            + if nonempty { self.machine.l() } else { 0 };
        m.wtop = wt;
        m.htop = ht;
        m.refreshed_nodes = m.nodes;
        Hotness::of(m.nodes, &wt, &ht, p).gained(&was)
    }

    /// Full O(n + m + S·P) recomputation of the total cost; used by tests to
    /// cross-check the incremental bookkeeping.
    pub fn recomputed_cost(&self) -> u64 {
        lazy_cost(self.dag, self.machine, &self.snapshot())
    }
}
