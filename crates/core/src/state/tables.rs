//! Building the tables — from an assignment, or by re-attaching them to a
//! grown DAG — the consumer-arena accessors every other seam reads, and
//! move validity.

use super::{Awake, ScheduleState, ScheduleTables, Slot, StepMeta};
use bsp_dag::graph::append_to_csr;
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::BspSchedule;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next [`ScheduleTables`] identity; 0 is left to the default tables.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The set of processors onto which a node may validly move within a fixed
/// superstep (see [`ScheduleState::valid_procs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcWindow {
    /// Every processor admits the move.
    All,
    /// Exactly one processor admits the move (a neighbour occupies the
    /// same superstep, pinning the node to its processor).
    Only(u32),
    /// No processor admits the move.
    None,
}

impl ProcWindow {
    /// The admitted processors of a `p`-processor machine, ascending.
    #[inline]
    pub fn procs(self, p: u32) -> std::ops::Range<u32> {
        match self {
            ProcWindow::All => 0..p,
            ProcWindow::Only(q) => q..q + 1,
            ProcWindow::None => 0..0,
        }
    }

    /// Intersects the window with "must be on processor `q`".
    #[inline]
    fn narrow(self, q: u32) -> ProcWindow {
        match self {
            ProcWindow::All => ProcWindow::Only(q),
            ProcWindow::Only(p) if p == q => self,
            _ => ProcWindow::None,
        }
    }
}

/// Placeholder consumer entry [`ScheduleState::attach_appended`] puts in
/// the arena slots of consumers it has not inserted yet. It sorts after
/// every real `(proc, step)` pair and belongs to no processor's bucket.
const VACANT: (u32, u32) = (u32::MAX, u32::MAX);

impl<'a> ScheduleState<'a> {
    /// Builds the state from an assignment. The assignment must satisfy
    /// [`BspSchedule::respects_precedence_lazy`].
    pub fn new(dag: &'a Dag, machine: &'a BspParams, sched: &BspSchedule) -> Self {
        bsp_dag::calls::note("ScheduleState::new");
        assert_eq!(sched.n(), dag.n());
        debug_assert!(sched.respects_precedence_lazy(dag));
        let p = machine.p();
        let n_steps = sched.n_supersteps().max(1) as usize;
        let mut cons_off = Vec::with_capacity(dag.n() + 1);
        cons_off.push(0u32);
        for v in dag.nodes() {
            cons_off.push(cons_off[v as usize] + dag.out_degree(v) as u32);
        }
        let mut st = ScheduleState {
            dag,
            machine,
            t: ScheduleTables {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                sched: sched.clone(),
                n_steps,
                slots: vec![Slot::default(); n_steps * p],
                meta: vec![StepMeta::EMPTY; n_steps],
                total: 0,
                cons: Vec::with_capacity(dag.m()),
                cons_off,
                clock: 1,
                row_stamp: vec![0; n_steps],
                node_stamp: vec![0; dag.n()],
                cert: vec![0; dag.n()],
                cert_floor: 1,
                awake: Awake::new(dag.n()),
                touched: Vec::new(),
            },
        };
        for v in dag.nodes() {
            let (pv, sv) = (sched.proc(v), sched.step(v));
            st.t.slots[sv as usize * p + pv as usize].work += dag.work(v);
            st.t.meta[sv as usize].nodes += 1;
            for &w in dag.successors(v) {
                st.t.cons.push((sched.proc(w), sched.step(w)));
            }
            let (lo, hi) = (st.t.cons_off[v as usize] as usize, st.t.cons.len());
            st.t.cons[lo..hi].sort_unstable();
        }
        // Materialize lazy transfers: one per non-empty cross-processor
        // bucket, in the phase before the bucket's earliest consumer step.
        for v in dag.nodes() {
            let pv = sched.proc(v);
            let (lo, hi) = st.cons_range(v);
            let mut i = lo;
            while i < hi {
                let (q, m) = st.t.cons[i];
                while i < hi && st.t.cons[i].0 == q {
                    i += 1;
                }
                if q != pv {
                    st.add_transfer(v, pv, q, m - 1);
                }
            }
        }
        st.t.touched.clear();
        for s in 0..st.t.n_steps {
            st.refresh_step(s);
            st.t.total += st.t.meta[s].cost;
        }
        st
    }

    /// Re-attaches tables that [`ScheduleState::detach`] released, to a
    /// DAG that has since grown by [`Dag::append`] (or not at all, with an
    /// empty `placed`): the tables cover nodes `0..tables.n()`, `dag` has
    /// `placed.len()` more, and `placed[i]` is the `(processor, superstep)`
    /// of node `tables.n() + i`. The machine must be the one the tables
    /// were built for, and the whole assignment lazily valid.
    ///
    /// The resulting tables equal the ones [`ScheduleState::new`] builds
    /// from that assignment, for work proportional to the batch and its
    /// edges plus one block move of the consumer arena (the successor
    /// CSR's own shift, [`append_to_csr`]): each new node's work lands in
    /// its slot, each new consumer is inserted into its producers' sorted
    /// slices, and a lazy transfer moves only where the newcomer became
    /// its bucket's earliest consumer. Only the rows so touched are
    /// refreshed and stamped, together with the new nodes and their
    /// producers (whose slices changed). The new nodes start awake, and
    /// the batch wakes what it disturbed, as a move does.
    pub fn attach_appended(
        dag: &'a Dag,
        machine: &'a BspParams,
        mut tables: ScheduleTables,
        placed: &[(u32, u32)],
    ) -> Self {
        let n0 = tables.n();
        assert_eq!(n0 + placed.len(), dag.n());
        assert_eq!(tables.slots.len(), tables.n_steps * machine.p());
        let mut gained: Vec<(NodeId, (u32, u32))> = (n0 as NodeId..dag.n() as NodeId)
            .flat_map(|x| dag.predecessors(x).iter().map(|&u| (u, VACANT)))
            .collect();
        gained.sort_unstable_by_key(|&(u, _)| u);
        append_to_csr(&mut tables.cons_off, &mut tables.cons, dag.n(), &gained);
        tables.node_stamp.resize(dag.n(), 0);
        tables.cert.resize(dag.n(), 0);
        tables.awake.grow(dag.n());
        tables.clock += 1;
        tables.touched.clear();
        let mut st = ScheduleState {
            dag,
            machine,
            t: tables,
        };
        for (x, &(q, s)) in (n0 as NodeId..).zip(placed) {
            st.insert_appended(x, q, s);
        }
        st.refresh_touched();
        debug_assert_eq!(st.t.cons.len(), dag.m());
        st
    }

    /// Places appended node `x` — the next unplaced id, whose arena slots
    /// in its producers' slices are still [`VACANT`] — at `(q, s)`.
    fn insert_appended(&mut self, x: NodeId, q: u32, s: u32) {
        debug_assert_eq!(x as usize, self.t.sched.n());
        let (dag, p, now) = (self.dag, self.machine.p(), self.t.clock);
        self.ensure_steps(s as usize + 1);
        self.t.sched.push(q, s);
        self.t.slots[s as usize * p + q as usize].work += dag.work(x);
        self.t.meta[s as usize].nodes += 1;
        self.t.touched.push(s);
        self.t.node_stamp[x as usize] = now;
        for &u in dag.predecessors(x) {
            let before = self.bucket_min(u, q);
            self.slice_retarget(u, VACANT, (q, s));
            self.t.node_stamp[u as usize] = now;
            if self.shift_transfer(u, q, before) {
                self.wake_with_consumers(u);
            }
        }
    }

    /// Which processors admit a valid move of `v` into superstep `s`, in one
    /// `O(degree)` pass — the neighbourhood scans use this instead of `3·P`
    /// separate [`ScheduleState::is_move_valid`] calls. A predecessor
    /// placed *in* step `s` forces the move onto its own processor (lazy
    /// cross-processor edges need a strictly earlier producer step), a
    /// predecessor after `s` forbids the step entirely; successors mirror
    /// this downwards.
    pub fn valid_procs(&self, v: NodeId, s: u32) -> ProcWindow {
        let mut w = ProcWindow::All;
        for &u in self.dag.predecessors(v) {
            let su = self.t.sched.step(u);
            if su > s {
                return ProcWindow::None;
            }
            if su == s {
                w = match w.narrow(self.t.sched.proc(u)) {
                    ProcWindow::None => return ProcWindow::None,
                    nw => nw,
                };
            }
        }
        for &x in self.dag.successors(v) {
            let sx = self.t.sched.step(x);
            if sx < s {
                return ProcWindow::None;
            }
            if sx == s {
                w = match w.narrow(self.t.sched.proc(x)) {
                    ProcWindow::None => return ProcWindow::None,
                    nw => nw,
                };
            }
        }
        w
    }

    /// Whether moving `v` to `(p_new, s_new)` keeps the assignment valid
    /// under the lazy communication model.
    pub fn is_move_valid(&self, v: NodeId, p_new: u32, s_new: u32) -> bool {
        for &u in self.dag.predecessors(v) {
            let ok = if self.t.sched.proc(u) == p_new {
                self.t.sched.step(u) <= s_new
            } else {
                self.t.sched.step(u) < s_new
            };
            if !ok {
                return false;
            }
        }
        for &w in self.dag.successors(v) {
            let ok = if self.t.sched.proc(w) == p_new {
                s_new <= self.t.sched.step(w)
            } else {
                s_new < self.t.sched.step(w)
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// `v`'s slice bounds in the consumer arena.
    #[inline]
    pub(super) fn cons_range(&self, v: NodeId) -> (usize, usize) {
        (
            self.t.cons_off[v as usize] as usize,
            self.t.cons_off[v as usize + 1] as usize,
        )
    }

    /// Index of the first entry of bucket `q` in `v`'s slice (or of the
    /// next bucket if `q` is empty). Short slices — the common case — are
    /// scanned linearly; long ones binary-searched.
    #[inline]
    pub(super) fn bucket_start(&self, v: NodeId, q: u32) -> usize {
        let (lo, hi) = self.cons_range(v);
        let sl = &self.t.cons[lo..hi];
        if sl.len() <= 16 {
            let mut i = 0;
            while i < sl.len() && sl[i].0 < q {
                i += 1;
            }
            lo + i
        } else {
            lo + sl.partition_point(|&(b, _)| b < q)
        }
    }

    /// Index one past the last entry of bucket `q`, which starts at or
    /// before `i` in a consumer slice ending at `hi`. Linear over short
    /// tails, binary-searched over long ones.
    #[inline]
    pub(super) fn bucket_end(&self, i: usize, hi: usize, q: u32) -> usize {
        let sl = &self.t.cons[i..hi];
        if sl.len() <= 16 {
            i + sl.iter().take_while(|e| e.0 == q).count()
        } else {
            i + sl.partition_point(|e| e.0 <= q)
        }
    }

    /// Earliest consumer step of `v` on processor `q`, if any.
    #[inline]
    pub(super) fn bucket_min(&self, v: NodeId, q: u32) -> Option<u32> {
        let i = self.bucket_start(v, q);
        let (_, hi) = self.cons_range(v);
        (i < hi && self.t.cons[i].0 == q).then(|| self.t.cons[i].1)
    }

    /// λ-weighted volume of one transfer of `v`'s value from `src` to `dst`.
    #[inline]
    pub(super) fn weighted(&self, v: NodeId, src: u32, dst: u32) -> u64 {
        self.dag.comm(v) * self.machine.lambda(src as usize, dst as usize)
    }
}
