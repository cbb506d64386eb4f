//! Incremental schedule state for local search (paper §4.3, Appendix A.3).
//!
//! [`ScheduleState`] stores an assignment `(π, τ)` together with the derived
//! *lazy* communication schedule and the per-superstep work/send/receive
//! tallies, so that a single-node move can be *probed* — its exact cost
//! delta computed without mutating anything — and *applied* in time
//! proportional to the node's degree instead of re-evaluating the whole
//! schedule. This is the paper's "sophisticated data structures" claim that
//! makes hill climbing practical, taken one step further: candidate
//! evaluation no longer needs an apply/revert pair at all.
//!
//! # Flat data layout
//!
//! The per-superstep tables (`work`, `send`, `recv`, per-step node and
//! transfer counts, cached step costs) are flat `S·P` arrays. The consumer
//! multisets — for every node `v` and processor `q`, the supersteps at which
//! `v`'s value is needed on `q`, whose minimum determines the lazy transfer
//! phase — are a single CSR arena: `cons[cons_off[v]..cons_off[v+1]]` holds
//! one `(proc, step)` pair per outgoing edge of `v`, kept **sorted**. The
//! multiset cardinality of a node never changes (it is its out-degree), so a
//! consumer retarget is a rotation inside the fixed-size slice and the arena
//! never reallocates. Sorted order makes bucket iteration deterministic
//! (ascending processor, then step) regardless of move history, bucket
//! minima `O(log deg)` lookups, and apply/revert round trips bit-exact.
//!
//! # Probing vs applying
//!
//! [`ScheduleState::probe_move`] computes the exact total-cost delta of a
//! valid candidate move through `&self`: it never grows the step tables,
//! never touches the consumer arena, and performs zero heap allocation
//! (its scratch buffers live behind an uncontended [`Mutex`] and retain
//! their capacity across calls; whole-neighbourhood scans bring their own
//! [`ProbeScratch`] via [`ScheduleState::probe_move_in`] and skip the
//! lock). A probe gathers the `O(deg)` changed
//! `(superstep, processor)` cells, then re-derives each touched step's
//! `max` work and h-relation from the cells plus cached top-`K` row maxima
//! — `O(changed)` per step instead of the `O(P)` rescan `apply_move` pays,
//! with an `O(P + changed)` fallback only when every cached top processor
//! changed. Total: `O(deg)` expected, independent of `P`, versus
//! `O(deg + t·P)` twice for an apply/revert pair (`t` = touched steps).
//! The contract, enforced by proptests against the historical
//! implementation (`tests/kernel_reference`), is
//!
//! ```text
//! probe_move(v, q, s) == apply_move(v, q, s) − cost_before   (bit-for-bit)
//! ```
//!
//! so steepest descent, tabu search and simulated annealing scan their
//! neighbourhoods read-only and mutate the state only for the single move
//! they actually accept. Scans pre-filter candidate steps with
//! [`ScheduleState::valid_procs`] — one `O(deg)` pass per `(node, step)`
//! replaces `P` per-candidate validity checks.
//!
//! A probe need not run at all when the move provably cannot improve.
//! One private enumeration lists every cell a move of `v` can
//! *decrement*; two folds read it. [`ScheduleState::may_improve`] is the
//! early-exit one — no listed cell can lower its row, so skip the node.
//! [`ScheduleState::gain_bound`] lands all listed decrements at once and
//! re-costs their rows, an upper bound on what any move of `v` saves. A
//! candidate's [`ScheduleState::target_rise`] is what it must add no
//! matter what (its work cell rises; an empty row gets charged), so
//!
//! ```text
//! probe_move(v, q, s) ≥ target_rise(v, q, s) − gain_bound(v)
//! ```
//!
//! and a first-improvement scan — hill climbing — skips every candidate
//! whose rise reaches the bound.
//!
//! # Tables, stamps and certificates
//!
//! Everything above lives in [`ScheduleTables`], which borrows nothing;
//! [`ScheduleState`] is a `(&Dag, &BspParams)` view over it. A caller that
//! grows its DAG between two uses — the online runtime — detaches the
//! tables, appends to the graph and re-attaches them
//! ([`ScheduleState::attach_appended`]), paying for the batch instead of a
//! rebuild.
//!
//! Every mutation stamps a counter onto the superstep rows and the nodes
//! it changed. A sweep that probed a node's whole neighbourhood in vain
//! records the counter ([`ScheduleState::certify`]); while nothing those
//! probes read carries a newer stamp the node is provably still stuck
//! ([`ScheduleState::certified`], which lists the read set branch by
//! branch), and the next sweep skips it.

use bsp_dag::graph::append_to_csr;
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::BspSchedule;
use std::ops::ControlFlow;
use std::sync::Mutex;

/// How many of a row's largest per-processor values are cached. Probed
/// moves change ≤ 3 processors of a touched step in the common case, so
/// four entries make the `O(P)` fallback rescan vanish even on schedules
/// full of tied maxima (where any changed processor may be "the" max).
const TOP_K: usize = 4;

/// Cached `TOP_K` largest per-processor values of one superstep row (work,
/// or `max(send, recv)` for the h-relation) in descending order, with the
/// processors that attain them. Lets a probe re-derive a row maximum after
/// changing a few cells without rescanning all `P` processors: the first
/// cached entry whose processor did *not* change still bounds the
/// unchanged side of the row exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TopK {
    vals: [u64; TOP_K],
    procs: [u32; TOP_K],
}

impl TopK {
    /// An all-zero row (also used for supersteps beyond the allocated
    /// tables): the sentinel procs match nothing, so the unchanged side
    /// correctly evaluates to 0.
    const EMPTY: TopK = TopK {
        vals: [0; TOP_K],
        procs: [u32::MAX; TOP_K],
    };

    /// Builds the cache from one row of per-processor values.
    fn scan(values: impl Iterator<Item = u64>) -> TopK {
        let mut t = TopK::EMPTY;
        for (q, v) in values.enumerate() {
            let mut k = TOP_K;
            while k > 0 && (t.procs[k - 1] == u32::MAX || v > t.vals[k - 1]) {
                k -= 1;
            }
            if k < TOP_K {
                for j in (k + 1..TOP_K).rev() {
                    t.vals[j] = t.vals[j - 1];
                    t.procs[j] = t.procs[j - 1];
                }
                t.vals[k] = v;
                t.procs[k] = q as u32;
            }
        }
        t
    }

    /// Exact maximum over the processors *not* in `changed`, or `None` if
    /// every cached entry's processor changed (fallback must rescan).
    /// Correct because entries are descending: the first unchanged entry
    /// dominates all non-cached processors and every cached one below it.
    #[inline]
    fn unchanged_max(&self, changed: &[u32]) -> Option<u64> {
        for k in 0..TOP_K {
            if self.procs[k] == u32::MAX {
                // Fewer than K processors exist; the rest of the row is empty.
                return Some(0);
            }
            if !changed.contains(&self.procs[k]) {
                return Some(self.vals[k]);
            }
        }
        None
    }
}

/// One `(superstep, processor)` slot of the flat tables: the work assigned
/// there plus the λ-weighted volume the processor sends and receives in
/// that superstep's communication phase. Interleaved so a probed cell costs
/// one cache fetch instead of three (separate work/send/recv arrays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Slot {
    work: u64,
    send: u64,
    recv: u64,
}

/// Interleaved per-superstep metadata: the node / transfer counts that
/// decide the latency charge, the cached step cost, and the cached [`TopK`]
/// row maxima for work and the h-relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepMeta {
    /// Cached `Cwork + g·Ccomm + ℓ·[nonempty]` of this superstep.
    cost: u64,
    /// Nodes computed in this superstep.
    nodes: u32,
    /// Transfers carried in this superstep's communication phase.
    comm: u32,
    wtop: TopK,
    htop: TopK,
}

impl StepMeta {
    const EMPTY: StepMeta = StepMeta {
        cost: 0,
        nodes: 0,
        comm: 0,
        wtop: TopK::EMPTY,
        htop: TopK::EMPTY,
    };
}

/// One superstep touched by a probed move: net count deltas plus the head
/// of its linked list of per-processor cell deltas.
#[derive(Debug, Clone, Copy)]
struct StepDelta {
    step: u32,
    dnodes: i64,
    dcomm: i64,
    /// Index of the first cell in `ProbeScratch::cells`, `u32::MAX` = none.
    head: u32,
}

/// One changed `(superstep, processor)` cell, linked per step.
#[derive(Debug, Clone, Copy)]
struct CellDelta {
    proc: u32,
    dwork: i64,
    dsend: i64,
    drecv: i64,
    next: u32,
}

/// Reusable scratch for [`ScheduleState::probe_move`]: the per-superstep
/// and per-(superstep, processor) deltas a candidate move would cause.
/// Cleared (capacity retained) on every probe, so probing is allocation-free
/// once the buffers have warmed up to the working degree. Both vectors stay
/// tiny (at most `degree + 2` steps), so lookups are linear scans.
///
/// Single-probe callers never see this type — [`ScheduleState::probe_move`]
/// keeps one instance internally, behind a mutex. The whole-neighbourhood
/// scans (steepest, tabu) own one (`ProbeScratch::default()`) and probe
/// through [`ScheduleState::probe_move_in`], which skips the lock; hill
/// climbing borrows the internal one, warm, for a whole run, and its
/// [`ScheduleState::gain_bound`]s accumulate in it too.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    steps: Vec<StepDelta>,
    cells: Vec<CellDelta>,
    /// Epoch-stamped per-processor accumulator for the fallback row rescan:
    /// `(epoch, Δwork, Δsend, Δrecv)`, lazily sized to `P`.
    row: Vec<(u32, i64, i64, i64)>,
    epoch: u32,
    /// Epoch-stamped step → entry index so [`ProbeScratch::step_entry`] is
    /// `O(1)` even when a high-degree move touches many distinct phases:
    /// `(epoch, index into steps)`, lazily sized to the largest step seen.
    step_idx: Vec<(u32, u32)>,
    sepoch: u32,
}

impl ProbeScratch {
    fn clear(&mut self) {
        self.steps.clear();
        self.cells.clear();
        self.sepoch = self.sepoch.wrapping_add(1);
        if self.sepoch == 0 {
            self.step_idx.fill((0, 0));
            self.sepoch = 1;
        }
    }

    fn step_entry(&mut self, s: u32) -> usize {
        let si = s as usize;
        if si >= self.step_idx.len() {
            self.step_idx.resize(si + 1, (0, 0));
        }
        let (ep, idx) = self.step_idx[si];
        if ep == self.sepoch {
            return idx as usize;
        }
        self.steps.push(StepDelta {
            step: s,
            dnodes: 0,
            dcomm: 0,
            head: u32::MAX,
        });
        let idx = self.steps.len() - 1;
        self.step_idx[si] = (self.sepoch, idx as u32);
        idx
    }

    /// Adds `(dwork, dsend, drecv)` to the cell of processor `p` in the
    /// step entry `si`, merging into an existing cell when present.
    fn add_cell(&mut self, si: usize, p: u32, dwork: i64, dsend: i64, drecv: i64) {
        let mut i = self.steps[si].head;
        while i != u32::MAX {
            let c = &mut self.cells[i as usize];
            if c.proc == p {
                c.dwork += dwork;
                c.dsend += dsend;
                c.drecv += drecv;
                return;
            }
            i = c.next;
        }
        self.cells.push(CellDelta {
            proc: p,
            dwork,
            dsend,
            drecv,
            next: self.steps[si].head,
        });
        self.steps[si].head = (self.cells.len() - 1) as u32;
    }

    fn work(&mut self, s: u32, p: u32, dwork: i64, dnodes: i64) {
        let si = self.step_entry(s);
        self.steps[si].dnodes += dnodes;
        self.add_cell(si, p, dwork, 0, 0);
    }

    /// Records adding (`sign = 1`) or removing (`sign = -1`) one transfer of
    /// λ-weighted volume `w` in communication phase `phase`. Zero-volume
    /// transfers still flip the phase's transfer count (they keep a
    /// superstep non-empty) but touch no cells — an unchanged cell never
    /// affects the row maxima, so skipping it is exact.
    fn transfer(&mut self, phase: u32, src: u32, dst: u32, w: u64, sign: i64) {
        let si = self.step_entry(phase);
        self.steps[si].dcomm += sign;
        if w != 0 {
            let dw = sign * w as i64;
            self.add_cell(si, src, 0, dw, 0);
            self.add_cell(si, dst, 0, 0, dw);
        }
    }

    /// Records re-sourcing one transfer within its phase: `src_old → dst`
    /// (volume `w_old`) is replaced by `src_new → dst` (volume `w_new`).
    /// The phase's transfer count is unchanged, and on non-NUMA machines
    /// `w_old == w_new` cancels the receiver delta entirely.
    fn move_transfer_src(
        &mut self,
        phase: u32,
        src_old: u32,
        src_new: u32,
        dst: u32,
        w_old: u64,
        w_new: u64,
    ) {
        let si = self.step_entry(phase);
        if w_old != 0 {
            self.add_cell(si, src_old, 0, -(w_old as i64), 0);
        }
        if w_new != 0 {
            self.add_cell(si, src_new, 0, w_new as i64, 0);
        }
        let dr = w_new as i64 - w_old as i64;
        if dr != 0 {
            self.add_cell(si, dst, 0, 0, dr);
        }
    }
}

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

/// A fold over the cells a move of a node can decrement, as
/// [`ScheduleState::decrements`] enumerates them: `work` once for the
/// node's own work cell and node count, then `transfer` per existing lazy
/// transfer of `producer`'s value the move may remove, re-source or pull
/// forward. Breaking stops the enumeration.
trait DecrementFold {
    fn work(&mut self, st: &ScheduleState<'_>, step: u32, proc: u32, w: u64) -> ControlFlow<()>;
    fn transfer(
        &mut self,
        st: &ScheduleState<'_>,
        producer: NodeId,
        phase: u32,
        src: u32,
        dst: u32,
    ) -> ControlFlow<()>;
}

/// [`ScheduleState::may_improve`]'s fold: breaks at the first decrement
/// that can lower its row on its own.
struct CanLower;

impl DecrementFold for CanLower {
    #[inline(always)]
    fn work(&mut self, st: &ScheduleState<'_>, step: u32, proc: u32, w: u64) -> ControlFlow<()> {
        let meta = &st.t.meta[step as usize];
        let cell = st.t.slots[step as usize * st.machine.p() + proc as usize].work;
        let unique_max = w > 0 && cell == meta.wtop.vals[0] && meta.wtop.vals[1] < cell;
        if meta.nodes == 1 || unique_max {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    #[inline(always)]
    fn transfer(
        &mut self,
        st: &ScheduleState<'_>,
        _: NodeId,
        phase: u32,
        src: u32,
        dst: u32,
    ) -> ControlFlow<()> {
        if st.phase_is_hot(phase, src, dst) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// [`ScheduleState::gain_bound`]'s fold: lands every decrement, at full
/// volume, in one probe scratch.
struct AllLanded<'s>(&'s mut ProbeScratch);

impl DecrementFold for AllLanded<'_> {
    #[inline(always)]
    fn work(&mut self, _: &ScheduleState<'_>, step: u32, proc: u32, w: u64) -> ControlFlow<()> {
        self.0.work(step, proc, -(w as i64), -1);
        ControlFlow::Continue(())
    }

    #[inline(always)]
    fn transfer(
        &mut self,
        st: &ScheduleState<'_>,
        producer: NodeId,
        phase: u32,
        src: u32,
        dst: u32,
    ) -> ControlFlow<()> {
        let w = st.weighted(producer, src, dst);
        self.0.transfer(phase, src, dst, w, -1);
        ControlFlow::Continue(())
    }
}

/// Placeholder consumer entry [`ScheduleState::attach_appended`] puts in
/// the arena slots of consumers it has not inserted yet. It sorts after
/// every real `(proc, step)` pair and belongs to no processor's bucket.
const VACANT: (u32, u32) = (u32::MAX, u32::MAX);

/// Everything a [`ScheduleState`] stores that borrows neither the DAG nor
/// the machine: the assignment, the per-superstep tables, the consumer
/// arena, the change stamps and the probe scratch. A caller that has to
/// *mutate* the DAG between two uses of one state — the online runtime,
/// which appends every arrival batch to its graph — keeps the tables
/// across the mutation: [`ScheduleState::detach`], grow the DAG,
/// [`ScheduleState::attach_appended`]. Nothing is recomputed for the nodes
/// that were already there.
///
/// Two tables compare equal when they describe the same schedule state
/// (assignment, superstep rows with their cached maxima and costs,
/// consumer arena); stamps, certificates and scratch are not compared.
#[derive(Debug, Default)]
pub struct ScheduleTables {
    sched: BspSchedule,
    n_steps: usize,
    /// `slots[s*P + p]`: interleaved work / λ-weighted send / receive of
    /// processor `p` in superstep `s` — one cache fetch per probed cell.
    slots: Vec<Slot>,
    /// Per-superstep metadata (counts, cached cost, cached [`TopK`] row
    /// maxima), likewise interleaved.
    meta: Vec<StepMeta>,
    total: u64,
    /// CSR consumer arena: `cons[cons_off[v]..cons_off[v+1]]` is the sorted
    /// multiset of `(proc, step)` placements of `v`'s successors.
    cons: Vec<(u32, u32)>,
    cons_off: Vec<u32>,
    /// Mutation counter behind the stamps below: every `apply_move`,
    /// renumbering `compact_from` and `attach_appended` takes the next
    /// value. See [`ScheduleState::certified`].
    clock: u64,
    /// `row_stamp[s]`: clock of the last mutation that changed anything in
    /// superstep row `s` (a slot, a count, the cached maxima or cost).
    row_stamp: Vec<u64>,
    /// `node_stamp[v]`: clock of the last mutation that changed `v`'s own
    /// placement or an entry of `v`'s consumer slice.
    node_stamp: Vec<u64>,
    /// `cert[v]`: clock at which `v`'s neighbourhood was last found to hold
    /// no improving move; void when below `cert_floor`.
    cert: Vec<u64>,
    cert_floor: u64,
    /// Scratch: steps whose cached cost must be refreshed after a move.
    touched: Vec<u32>,
    /// Scratch for read-only probing (allocation-free after warm-up). A
    /// `Mutex` rather than a `RefCell` so `ScheduleState` stays `Sync`;
    /// probes lock it uncontended.
    probe: Mutex<ProbeScratch>,
}

impl PartialEq for ScheduleTables {
    fn eq(&self, o: &Self) -> bool {
        self.sched == o.sched
            && self.n_steps == o.n_steps
            && self.slots == o.slots
            && self.meta == o.meta
            && self.total == o.total
            && self.cons == o.cons
            && self.cons_off == o.cons_off
    }
}

impl ScheduleTables {
    /// Number of nodes the tables cover.
    pub fn n(&self) -> usize {
        self.sched.n()
    }

    /// The assignment the tables describe.
    pub fn schedule(&self) -> &BspSchedule {
        &self.sched
    }

    /// `max τ(v) + 1` (0 without nodes), read off the superstep rows: the
    /// last row that computes a node. Equals
    /// [`BspSchedule::n_supersteps`] of [`ScheduleTables::schedule`]
    /// without the pass over `n`.
    pub fn n_supersteps(&self) -> u32 {
        self.meta
            .iter()
            .rposition(|m| m.nodes > 0)
            .map_or(0, |s| s as u32 + 1)
    }

    /// Work assigned to processor `q` in superstep `s` (0 beyond the
    /// allocated rows).
    pub(crate) fn work(&self, s: u32, q: u32) -> u64 {
        let p = self.slots.len() / self.n_steps.max(1);
        self.slots
            .get(s as usize * p + q as usize)
            .map_or(0, |c| c.work)
    }
}

/// Mutable schedule with O(degree)-amortized single-node moves, read-only
/// move probing, and an incrementally maintained total cost under the lazy
/// communication model: a `(&Dag, &BspParams)` view over
/// [`ScheduleTables`].
pub struct ScheduleState<'a> {
    dag: &'a Dag,
    machine: &'a BspParams,
    t: ScheduleTables,
}

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
                touched: Vec::new(),
                probe: Mutex::new(ProbeScratch::default()),
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
    /// producers (whose slices changed).
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
            let pu = self.t.sched.proc(u);
            let before = self.bucket_min(u, q);
            self.slice_retarget(u, VACANT, (q, s));
            self.t.node_stamp[u as usize] = now;
            if q != pu && before.is_none_or(|m| s < m) {
                if let Some(m) = before {
                    self.remove_transfer(u, pu, q, m - 1);
                }
                self.add_transfer(u, pu, q, s - 1);
            }
        }
    }

    /// Releases the tables, e.g. to mutate the DAG they were borrowed
    /// against (see [`ScheduleTables`]).
    pub fn detach(self) -> ScheduleTables {
        self.t
    }

    /// The lifetime-free half of the state.
    pub fn tables(&self) -> &ScheduleTables {
        &self.t
    }

    /// Underlying DAG.
    pub fn dag(&self) -> &'a Dag {
        self.dag
    }

    /// Number of DAG nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.dag.n()
    }

    /// Number of processors.
    #[inline]
    pub fn p(&self) -> u32 {
        self.machine.p() as u32
    }

    /// Machine parameters.
    pub fn machine(&self) -> &'a BspParams {
        self.machine
    }

    /// Current total cost (lazy communication model).
    #[inline]
    pub fn cost(&self) -> u64 {
        self.t.total
    }

    /// Current processor of `v`.
    #[inline]
    pub fn proc(&self, v: NodeId) -> u32 {
        self.t.sched.proc(v)
    }

    /// Current superstep of `v`.
    #[inline]
    pub fn step(&self, v: NodeId) -> u32 {
        self.t.sched.step(v)
    }

    /// Number of allocated supersteps (including possibly empty ones).
    pub fn n_steps(&self) -> usize {
        self.t.n_steps
    }

    /// Snapshot of the current assignment.
    pub fn snapshot(&self) -> BspSchedule {
        self.t.sched.clone()
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

    /// Whether phase `e` can get cheaper by losing or shrinking a transfer
    /// between processors `a` and `b`: the phase computes nothing (so its
    /// latency charge hangs on its transfers alone), or one of the two
    /// cells attains the row's positive h-relation maximum.
    #[inline]
    fn phase_is_hot(&self, e: u32, a: u32, b: u32) -> bool {
        let m = &self.t.meta[e as usize];
        let top = m.htop.vals[0];
        let row = e as usize * self.machine.p();
        let h = |x: u32| {
            let c = &self.t.slots[row + x as usize];
            c.send.max(c.recv)
        };
        m.nodes == 0 || (top > 0 && (h(a) == top || h(b) == top))
    }

    /// Enumerates every table cell that some move of `v` in the
    /// hill-climbing neighbourhood (any processor, supersteps `τ(v) − 1
    /// ..= τ(v) + 1`) can *decrement* into `fold`, one call per branch of
    /// [`ScheduleState::probe_move_in`] that subtracts, until the fold
    /// breaks. `O(deg)` over the existing tables — `v`'s consumer buckets
    /// plus one walk over each predecessor's bucket heads — and read-only.
    ///
    /// **Why it is complete.** The cost is `Σ_s [max_p work + g · max_p
    /// max(send, recv) + ℓ · nonempty]`, and every term is monotone in its
    /// cells and counts. A move therefore lowers the total only where it
    /// lowers some superstep's term, which takes one of three events: a
    /// work row maximum drops, an h-relation row maximum drops, or a
    /// superstep empties — each at a cell or count the move decrements.
    /// A single-node move decrements exactly one work cell and node count
    /// and the send / receive cells and transfer counts of the transfers
    /// it removes, re-sources or pulls forward:
    ///
    /// 1. *Work:* `v`'s own cell and node count at `(τ(v), π(v))` (probe
    ///    step 1).
    /// 2. *Producer re-sourcing:* for each remote consumer bucket `(q ≠
    ///    π(v), min step m)` of `v`, the transfer `π(v) → q` in phase
    ///    `m − 1`. Moving `v` off `π(v)` removes it (`q == p_new`) or
    ///    re-sources it (probe step 2), which lowers `π(v)`'s send cell
    ///    and — on NUMA machines, when the new source is closer — `q`'s
    ///    receive cell.
    /// 3. *Consumer buckets (`pred_mins` remove / insert):* for a
    ///    predecessor `u` and a remote bucket `(q ≠ π(u), min step m)` of
    ///    `u` with either `q == π(v)` (taking `v` out of its own bucket,
    ///    or moving it earlier within it, may shift that bucket's minimum:
    ///    the *remove* half of probe step 3) or `m > max(τ(v) − 1, τ(u) +
    ///    1)` (`v`, landing on `q` no earlier than that, would become the
    ///    bucket's new minimum and pull the transfer forward: the *insert*
    ///    half), the transfer `π(u) → q` in phase `m − 1`.
    ///
    /// Every transfer counts at its full volume and as removable (count
    /// − 1), which covers a re-sourcing's smaller decrement. Each is a
    /// distinct existing transfer, so the decrements of one cell sum to at
    /// most its value.
    #[inline]
    fn decrements<F: DecrementFold>(&self, v: NodeId, fold: &mut F) -> ControlFlow<()> {
        let (pv, sv) = (self.t.sched.proc(v), self.t.sched.step(v));
        fold.work(self, sv, pv, self.dag.work(v))?;
        let (lo, hi) = self.cons_range(v);
        let mut i = lo;
        while i < hi {
            let (q, m) = self.t.cons[i];
            i = self.bucket_end(i, hi, q);
            if q != pv {
                fold.transfer(self, v, m - 1, pv, q)?;
            }
        }
        for &u in self.dag.predecessors(v) {
            let (pu, su) = (self.t.sched.proc(u), self.t.sched.step(u));
            let earliest = sv.saturating_sub(1).max(su + 1);
            let (lo, hi) = self.cons_range(u);
            let mut i = lo;
            while i < hi {
                let (q, m) = self.t.cons[i];
                i = self.bucket_end(i, hi, q);
                if q != pu && (q == pv || m > earliest) {
                    fold.transfer(self, u, m - 1, pu, q)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// An exact *necessary* condition for `v` to have an improving move in
    /// the hill-climbing neighbourhood (any processor, supersteps
    /// `τ(v) − 1 ..= τ(v) + 1`): `false` guarantees that every valid
    /// [`ScheduleState::probe_move`] of `v` in that window is `≥ 0`, so a
    /// sweep may skip all of its `≤ 3·P` probes. The early-exit fold over
    /// the cells a move of `v` can decrement — `v`'s own work cell, and
    /// the transfers of `v` and of its predecessors that a move removes,
    /// re-sources or pulls forward; [`ScheduleState::gain_bound`] is the
    /// complete fold over the same enumeration: `true` as soon as one of
    /// them can lower its row on its own. The test is one-sided: `true`
    /// promises nothing.
    ///
    /// * *Work:* `v` is the only node of its superstep (moving it away may
    ///   drop the step's latency charge), or `w(v) > 0` and `v`'s cell is
    ///   the **unique** maximum of its row — only that one work cell is
    ///   ever decremented, so a tied maximum cannot drop.
    /// * *Transfers:* the phase is *hot* for its two cells: one of them
    ///   attains the row's positive h-relation maximum, or the phase
    ///   computes nothing, so removing a transfer from it — even a
    ///   zero-volume one — may empty it.
    pub fn may_improve(&self, v: NodeId) -> bool {
        self.decrements(v, &mut CanLower).is_break()
    }

    /// An upper bound on what any move of `v` in the hill-climbing
    /// neighbourhood can save: `probe_move(v, q, s) ≥ target_rise(v, q, s)
    /// − gain_bound(v)` for every valid candidate. The complete fold over
    /// the cells a move of `v` can decrement (see
    /// [`ScheduleState::may_improve`] for the early-exit one): all of them
    /// are applied at once, at full volume, into `sc`, and each touched
    /// superstep row is re-costed as [`ScheduleState::probe_move_in`]
    /// would re-cost it — so the bound is, per row, the cost that row
    /// would shed if *every* decrement landed together:
    ///
    /// * the work drop at `τ(v)`: `wmax − max(w2nd, cell − w(v))` when
    ///   `v`'s cell is the unique maximum, else 0;
    /// * `g ×` the h-relation drop, **per row**: `htop₀ − max(first top-K
    ///   entry on an undecremented processor, max over decremented cells
    ///   of the cell less its total decrement)` — two tied maxima lowered
    ///   by two different transfers *do* lower the row;
    /// * `ℓ` per row whose node and transfer counts can both reach 0.
    ///
    /// Every move decrements a subset of those cells by at most as much,
    /// and its increments only raise cells, so no row ends below this.
    /// Zero whenever `may_improve(v)` is false. `O(deg)`, allocation-free
    /// once `sc` is warm, read-only.
    pub fn gain_bound(&self, sc: &mut ProbeScratch, v: NodeId) -> u64 {
        sc.clear();
        let _ = self.decrements(v, &mut AllLanded(sc));
        let delta = self.eval_probe(sc);
        debug_assert!(delta <= 0, "decrements raised the cost by {delta}");
        delta.unsigned_abs()
    }

    /// The part of a move's cost change that no decrement can offset: how
    /// far moving `v` to `(q, s)` must raise the work maximum of the
    /// target row `s`, plus `ℓ` if that row is empty. The target's work
    /// cell only rises, to `work[s][q] + w(v)`; no other work cell of row
    /// `s` falls unless `s == τ(v)`, where the row may first lose the work
    /// drop [`ScheduleState::gain_bound`] already counts, so the rise is
    /// measured from `wmax` less that drop there. An empty row has no cell to
    /// decrement and turns nonempty. So [`ScheduleState::probe_move`]`(v,
    /// q, s) ≥ target_rise − gain_bound`, and a first-improvement scan may
    /// skip every candidate with `target_rise ≥ gain_bound`. `O(1)`.
    pub fn target_rise(&self, v: NodeId, q: u32, s: u32) -> u64 {
        let w = self.dag.work(v);
        let Some(m) = self.t.meta.get(s as usize) else {
            return w + self.machine.l(); // beyond the table: an empty row
        };
        let p = self.machine.p();
        let cell = self.t.slots[s as usize * p + q as usize].work;
        let mut wmax = m.wtop.vals[0];
        let (pv, sv) = (self.t.sched.proc(v), self.t.sched.step(v));
        if s == sv {
            let own = self.t.slots[s as usize * p + pv as usize].work;
            if own == wmax && m.wtop.vals[1] < own {
                wmax = m.wtop.vals[1].max(own - w);
            }
        }
        let empty = m.nodes == 0 && m.comm == 0;
        (cell + w).saturating_sub(wmax) + if empty { self.machine.l() } else { 0 }
    }

    /// Voids every certificate issued so far. A certificate speaks about
    /// the probes of *one* sweep loop — one floor, one neighbourhood — so
    /// that loop calls this on entry.
    pub fn void_certificates(&mut self) {
        self.t.clock += 1;
        self.t.cert_floor = self.t.clock;
    }

    /// Records that every probe of `v`'s hill-climbing neighbourhood just
    /// came back `≥ 0` (a *failure certificate*). See
    /// [`ScheduleState::certified`].
    #[inline]
    pub fn certify(&mut self, v: NodeId) {
        self.t.cert[v as usize] = self.t.clock;
    }

    /// Whether `v` holds a failure certificate ([`ScheduleState::certify`])
    /// that is still good: nothing a probe of `v` into supersteps
    /// `τ(v) − 1 ..= τ(v) + 1` reads has changed since it was issued, so
    /// each of those probes would return exactly what it returned then —
    /// no improvement — and a sweep may skip them all. `O(deg(v) +
    /// Σ_{u ∈ pred(v)} outdeg(u))` over contiguous slices, against `≤ 3·P`
    /// probes of that order each.
    ///
    /// **The stamps.** Every mutation (`apply_move`, a renumbering
    /// `compact_from`, `attach_appended`) takes the next value of a
    /// counter and writes it onto what it changed: every superstep row of
    /// its `touched` list — a row is on that list whenever one of its
    /// slots or counts changed, which is the only way its cached maxima
    /// and cost change — and every node whose placement *or consumer
    /// slice* changed: the moved (or appended) node, and each of its
    /// predecessors, whose slices hold its `(proc, step)` entry. Growing
    /// the step table stamps nothing: a fresh row reads as the empty row
    /// a probe saw in its place before.
    ///
    /// **Why the read set is complete.** A certificate issued at clock `c`
    /// holds iff none of the following carries a stamp `> c`; one line
    /// per thing a probe reads:
    ///
    /// * [`ScheduleState::valid_procs`] reads `(π, τ)` of `v`'s
    ///   predecessors and successors: a predecessor that moved carries
    ///   its own stamp; a successor that moved rewrote its entry in `v`'s
    ///   slice and stamped `v`.
    /// * `probe_move_in` step 1 (work, node counts) reads rows `τ(v)` and
    ///   `s_new ∈ τ(v) − 1 ..= τ(v) + 1`.
    /// * step 2 (producer re-sourcing) reads `v`'s consumer slice — stamp
    ///   of `v` — and, per bucket with earliest step `m`, row `m − 1`:
    ///   the rows `s − 1` over the entries `(·, s)` of `v`'s slice.
    /// * step 3 (`pred_mins`, both halves) reads, per predecessor `u`,
    ///   `π(u)` and `u`'s consumer slice — stamp of `u` — and moves a
    ///   transfer between phases `m − 1`, where `m` is a bucket minimum
    ///   `pred_mins` can return — the rows `s − 1` over the entries of
    ///   `u`'s slice — or `s_new` itself: rows `τ(v) − 2 ..= τ(v)`.
    /// * `eval_probe` / `rescan_adjusted` read slots, counts, cached
    ///   maxima and cost of exactly the rows named above, and rows at or
    ///   beyond the table as empty.
    /// * `weighted`, `g`, `ℓ`, `λ` and the DAG never change.
    ///
    /// So: the stamps of `v` and of each predecessor, rows `τ(v) − 2 ..=
    /// τ(v) + 1`, and row `s − 1` for every entry of `v`'s slice and of
    /// each predecessor's slice. A renumbering stamps every row, `τ(v)`
    /// among them. A floor only removes probes, so a certificate issued
    /// under a floor is good under that floor.
    pub fn certified(&self, v: NodeId) -> bool {
        let t = &self.t;
        let c = t.cert[v as usize];
        if c < t.cert_floor {
            return false;
        }
        if c == t.clock {
            return true; // nothing at all has happened since
        }
        let row_is_newer = |r: u32| t.row_stamp.get(r as usize).is_some_and(|&at| at > c);
        let slice_is_newer = |x: NodeId| {
            let (lo, hi) = self.cons_range(x);
            t.node_stamp[x as usize] > c
                || t.cons[lo..hi]
                    .iter()
                    .any(|&(_, s)| s > 0 && row_is_newer(s - 1))
        };
        let sv = t.sched.step(v);
        !((sv.saturating_sub(2)..=sv + 1).any(row_is_newer)
            || slice_is_newer(v)
            || self.dag.predecessors(v).iter().any(|&u| slice_is_newer(u)))
    }

    /// `v`'s slice bounds in the consumer arena.
    #[inline]
    fn cons_range(&self, v: NodeId) -> (usize, usize) {
        (
            self.t.cons_off[v as usize] as usize,
            self.t.cons_off[v as usize + 1] as usize,
        )
    }

    /// Index of the first entry of bucket `q` in `v`'s slice (or of the
    /// next bucket if `q` is empty). Short slices — the common case — are
    /// scanned linearly; long ones binary-searched.
    #[inline]
    fn bucket_start(&self, v: NodeId, q: u32) -> usize {
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
    fn bucket_end(&self, i: usize, hi: usize, q: u32) -> usize {
        let sl = &self.t.cons[i..hi];
        if sl.len() <= 16 {
            i + sl.iter().take_while(|e| e.0 == q).count()
        } else {
            i + sl.partition_point(|e| e.0 <= q)
        }
    }

    /// Earliest consumer step of `v` on processor `q`, if any.
    #[inline]
    fn bucket_min(&self, v: NodeId, q: u32) -> Option<u32> {
        let i = self.bucket_start(v, q);
        let (_, hi) = self.cons_range(v);
        (i < hi && self.t.cons[i].0 == q).then(|| self.t.cons[i].1)
    }

    /// λ-weighted volume of one transfer of `v`'s value from `src` to `dst`.
    #[inline]
    fn weighted(&self, v: NodeId, src: u32, dst: u32) -> u64 {
        self.dag.comm(v) * self.machine.lambda(src as usize, dst as usize)
    }

    /// One-walk extraction of everything the consumer-side probe needs from
    /// `u`'s sorted slice: the minimum of bucket `q_rm` *before* and *after*
    /// removing one occurrence of `s_rm`, and the minimum of bucket `q_ins`.
    /// Replaces three independent bucket walks; exits early once the slice
    /// passes both buckets.
    #[inline]
    fn pred_mins(
        &self,
        u: NodeId,
        q_rm: u32,
        s_rm: u32,
        q_ins: u32,
    ) -> (Option<u32>, Option<u32>, Option<u32>) {
        let (lo, hi) = self.cons_range(u);
        let (mut rm_head, mut rm_second, mut ins_head) = (None, None, None);
        if hi - lo > 16 {
            // Long slice: two binary searches beat walking the whole slice.
            let i = self.bucket_start(u, q_rm);
            if i < hi && self.t.cons[i].0 == q_rm {
                rm_head = Some(self.t.cons[i].1);
                if i + 1 < hi && self.t.cons[i + 1].0 == q_rm {
                    rm_second = Some(self.t.cons[i + 1].1);
                }
            }
            if q_ins == q_rm {
                ins_head = rm_head;
            } else {
                let j = self.bucket_start(u, q_ins);
                if j < hi && self.t.cons[j].0 == q_ins {
                    ins_head = Some(self.t.cons[j].1);
                }
            }
        } else {
            let hi_proc = q_rm.max(q_ins);
            let mut i = lo;
            while i < hi {
                let (b, s) = self.t.cons[i];
                if b > hi_proc {
                    break;
                }
                if b == q_rm {
                    if rm_head.is_none() {
                        rm_head = Some(s);
                    } else if rm_second.is_none() {
                        rm_second = Some(s);
                    }
                }
                if b == q_ins && ins_head.is_none() {
                    ins_head = Some(s);
                }
                i += 1;
            }
        }
        debug_assert!(rm_head.is_some_and(|m| m <= s_rm));
        let rm_after = if rm_head != Some(s_rm) {
            rm_head // the removed step was not the minimum
        } else {
            rm_second
        };
        (rm_head, rm_after, ins_head)
    }

    /// Computes the **exact** total-cost delta of moving `v` to
    /// `(p_new, s_new)` without mutating the state: no table growth, no
    /// consumer retargeting, no heap allocation. The move must be valid
    /// ([`ScheduleState::is_move_valid`]); the returned delta equals
    /// `apply_move(v, p_new, s_new) − cost()` bit-for-bit, including moves
    /// into supersteps beyond the currently allocated table (probed
    /// virtually as empty). Runs in `O(deg · log deg + t · P)` for `t ≤
    /// deg + 2` touched supersteps.
    pub fn probe_move(&self, v: NodeId, p_new: u32, s_new: u32) -> i64 {
        self.probe_move_in(&mut self.scratch(), v, p_new, s_new)
    }

    /// The internal probe scratch, locked (uncontended).
    fn scratch(&self) -> std::sync::MutexGuard<'_, ProbeScratch> {
        self.t
            .probe
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Lends the internal probe scratch for a whole scan — warm, so the
    /// scan's first probes allocate nothing either — until
    /// [`ScheduleState::return_scratch`].
    pub(crate) fn lend_scratch(&self) -> ProbeScratch {
        std::mem::take(&mut self.scratch())
    }

    /// Hands back what [`ScheduleState::lend_scratch`] lent.
    pub(crate) fn return_scratch(&self, sc: ProbeScratch) {
        *self.scratch() = sc;
    }

    /// [`ScheduleState::probe_move`] with caller-supplied scratch: the
    /// entry point for whole-neighbourhood scans, which own a
    /// [`ProbeScratch`] and probe without touching the internal mutex. The
    /// result is a pure function of the state and the move — independent
    /// of which scratch is passed.
    pub fn probe_move_in(&self, sc: &mut ProbeScratch, v: NodeId, p_new: u32, s_new: u32) -> i64 {
        let (p_old, s_old) = (self.t.sched.proc(v), self.t.sched.step(v));
        if p_old == p_new && s_old == s_new {
            return 0;
        }
        debug_assert!(self.is_move_valid(v, p_new, s_new));
        sc.clear();

        // 1. Work movement and per-step node counts.
        let w = self.dag.work(v) as i64;
        sc.work(s_old, p_old, -w, -1);
        sc.work(s_new, p_new, w, 1);

        // 2. Producer side: v's outgoing transfers change source processor.
        //    Phases are fixed by the consumers, which do not move, so a
        //    bucket that stays remote is one re-sourced transfer in place.
        if p_old != p_new {
            let (lo, hi) = self.cons_range(v);
            let mut i = lo;
            while i < hi {
                let (q, m) = self.t.cons[i];
                while i < hi && self.t.cons[i].0 == q {
                    i += 1;
                }
                if q == p_old {
                    sc.transfer(m - 1, p_new, q, self.weighted(v, p_new, q), 1);
                } else if q == p_new {
                    sc.transfer(m - 1, p_old, q, self.weighted(v, p_old, q), -1);
                } else {
                    sc.move_transfer_src(
                        m - 1,
                        p_old,
                        p_new,
                        q,
                        self.weighted(v, p_old, q),
                        self.weighted(v, p_new, q),
                    );
                }
            }
        }

        // 3. Consumer side: each predecessor's bucket minima may shift,
        //    moving (or creating / destroying) its lazy transfer.
        for &u in self.dag.predecessors(v) {
            let pu = self.t.sched.proc(u);
            if p_old == p_new {
                if p_old == pu {
                    continue; // local consumer stays local: no transfer
                }
                let (before, removed, _) = self.pred_mins(u, p_old, s_old, p_old);
                let after = Some(removed.map_or(s_new, |m| m.min(s_new)));
                if before != after {
                    let w = self.weighted(u, pu, p_old);
                    if let Some(m) = before {
                        sc.transfer(m - 1, pu, p_old, w, -1);
                    }
                    if let Some(m) = after {
                        sc.transfer(m - 1, pu, p_old, w, 1);
                    }
                }
                continue;
            }
            let (rm_before, rm_after, ins_before) = self.pred_mins(u, p_old, s_old, p_new);
            if p_old != pu && rm_before != rm_after {
                let w = self.weighted(u, pu, p_old);
                if let Some(m) = rm_before {
                    sc.transfer(m - 1, pu, p_old, w, -1);
                }
                if let Some(m) = rm_after {
                    sc.transfer(m - 1, pu, p_old, w, 1);
                }
            }
            if p_new != pu {
                let after = Some(ins_before.map_or(s_new, |m| m.min(s_new)));
                if ins_before != after {
                    let w = self.weighted(u, pu, p_new);
                    if let Some(m) = ins_before {
                        sc.transfer(m - 1, pu, p_new, w, -1);
                    }
                    if let Some(m) = after {
                        sc.transfer(m - 1, pu, p_new, w, 1);
                    }
                }
            }
        }

        self.eval_probe(sc)
    }

    /// Folds the accumulated deltas into a total-cost delta. Per touched
    /// superstep, the new row maxima are derived from the changed cells and
    /// the cached [`TopK`] entries — `O(changed)` per step, falling back
    /// to an `O(P)` rescan only when both cached top processors changed.
    /// Steps at or beyond `n_steps` read as empty.
    fn eval_probe(&self, sc: &mut ProbeScratch) -> i64 {
        let p = self.machine.p();
        let (g, l) = (self.machine.g(), self.machine.l());
        let mut delta = 0i64;
        for ei in 0..sc.steps.len() {
            let e = sc.steps[ei];
            let s = e.step as usize;
            let in_range = s < self.t.n_steps;
            let row = s * p;
            let m = if in_range {
                self.t.meta[s]
            } else {
                StepMeta::EMPTY
            };
            let (wt, ht) = (m.wtop, m.htop);
            // Maxima over the changed processors (their adjusted values),
            // recording which processors changed at all.
            let (mut wcand, mut hcand) = (0u64, 0u64);
            let mut changed = [0u32; 32];
            let mut n_changed = 0usize;
            let mut i = e.head;
            while i != u32::MAX {
                let c = sc.cells[i as usize];
                let q = c.proc as usize;
                let b = if in_range {
                    self.t.slots[row + q]
                } else {
                    Slot::default()
                };
                wcand = wcand.max((b.work as i64 + c.dwork) as u64);
                let h = ((b.send as i64 + c.dsend) as u64).max((b.recv as i64 + c.drecv) as u64);
                hcand = hcand.max(h);
                if n_changed < changed.len() {
                    changed[n_changed] = c.proc;
                }
                n_changed += 1;
                i = c.next;
            }
            // Unchanged side: the first cached top entry on an unchanged
            // processor is exact; rescan only if all K tops changed (or
            // the changed set overflowed the inline buffer).
            let (w_unch, h_unch) = if n_changed <= changed.len() {
                let ch = &changed[..n_changed];
                (wt.unchanged_max(ch), ht.unchanged_max(ch))
            } else {
                (None, None)
            };
            let w_max = match w_unch {
                Some(u) => wcand.max(u),
                None => self.rescan_adjusted(sc, e.head, in_range, row, false),
            };
            let c_max = match h_unch {
                Some(u) => hcand.max(u),
                None => self.rescan_adjusted(sc, e.head, in_range, row, true),
            };
            let nonempty = m.nodes as i64 + e.dnodes > 0 || m.comm as i64 + e.dcomm > 0;
            let new_cost = w_max + g * c_max + if nonempty { l } else { 0 };
            delta += new_cost as i64 - m.cost as i64;
        }
        delta
    }

    /// Full adjusted row maximum (work when `hrel` is false, h-relation
    /// otherwise): the rare probe fallback when every cached top processor
    /// of a touched step changed. `O(P + cells)` via the epoch-stamped
    /// per-processor accumulator in the scratch.
    fn rescan_adjusted(
        &self,
        sc: &mut ProbeScratch,
        head: u32,
        in_range: bool,
        row: usize,
        hrel: bool,
    ) -> u64 {
        let p = self.machine.p();
        if sc.row.len() < p {
            sc.row.resize(p, (0, 0, 0, 0));
        }
        sc.epoch = sc.epoch.wrapping_add(1);
        if sc.epoch == 0 {
            sc.row.fill((0, 0, 0, 0));
            sc.epoch = 1;
        }
        let mut i = head;
        while i != u32::MAX {
            let c = sc.cells[i as usize];
            sc.row[c.proc as usize] = (sc.epoch, c.dwork, c.dsend, c.drecv);
            i = c.next;
        }
        let mut best = 0u64;
        for q in 0..p {
            let (ep, dw, ds, dr) = sc.row[q];
            let (dw, ds, dr) = if ep == sc.epoch {
                (dw, ds, dr)
            } else {
                (0, 0, 0)
            };
            let b = if in_range {
                self.t.slots[row + q]
            } else {
                Slot::default()
            };
            let val = if hrel {
                ((b.send as i64 + ds) as u64).max((b.recv as i64 + dr) as u64)
            } else {
                (b.work as i64 + dw) as u64
            };
            best = best.max(val);
        }
        best
    }

    /// Applies the move of `v` to `(p_new, s_new)` and returns the new total
    /// cost. The caller is responsible for having checked
    /// [`ScheduleState::is_move_valid`]; the move is exactly reversible by
    /// applying the inverse move, and allocation-free apart from one-time
    /// step-table growth when `s_new` exceeds every step seen so far.
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
            self.retarget_consumer(u, p_old, s_old, p_new, s_new);
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
    /// of — folds the differences into the total, and stamps those rows
    /// with the mutation's clock.
    fn refresh_touched(&mut self) {
        let mut touched = std::mem::take(&mut self.t.touched);
        touched.sort_unstable();
        touched.dedup();
        for &s in &touched {
            let s = s as usize;
            self.t.total -= self.t.meta[s].cost;
            self.refresh_step(s);
            self.t.total += self.t.meta[s].cost;
            self.t.row_stamp[s] = self.t.clock;
        }
        touched.clear();
        self.t.touched = touched;
    }

    /// Moves consumer `v` of producer `u` from `(p_old, s_old)` to
    /// `(p_new, s_new)` in `u`'s consumer multiset, shifting `u`'s lazy
    /// transfers when a bucket minimum changes.
    fn retarget_consumer(&mut self, u: NodeId, p_old: u32, s_old: u32, p_new: u32, s_new: u32) {
        let pu = self.t.sched.proc(u);
        let old_min_before = self.bucket_min(u, p_old);
        let new_min_before = self.bucket_min(u, p_new);
        self.slice_retarget(u, (p_old, s_old), (p_new, s_new));
        let old_min_after = self.bucket_min(u, p_old);
        if p_old == p_new {
            // Single bucket: the net min change covers remove + insert.
            if p_old != pu && old_min_before != old_min_after {
                if let Some(m) = old_min_before {
                    self.remove_transfer(u, pu, p_old, m - 1);
                }
                if let Some(m) = old_min_after {
                    self.add_transfer(u, pu, p_old, m - 1);
                }
            }
            return;
        }
        if p_old != pu && old_min_before != old_min_after {
            if let Some(m) = old_min_before {
                self.remove_transfer(u, pu, p_old, m - 1);
            }
            if let Some(m) = old_min_after {
                self.add_transfer(u, pu, p_old, m - 1);
            }
        }
        let new_min_after = self.bucket_min(u, p_new);
        if p_new != pu && new_min_before != new_min_after {
            if let Some(m) = new_min_before {
                self.remove_transfer(u, pu, p_new, m - 1);
            }
            if let Some(m) = new_min_after {
                self.add_transfer(u, pu, p_new, m - 1);
            }
        }
    }

    /// Replaces one `old` entry of `u`'s sorted consumer slice with `new`,
    /// preserving sorted order by rotating the span between the two
    /// positions (the slice length is fixed at `out_degree(u)`).
    fn slice_retarget(&mut self, u: NodeId, old: (u32, u32), new: (u32, u32)) {
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

    fn add_transfer(&mut self, v: NodeId, src: u32, dst: u32, phase: u32) {
        let p = self.machine.p();
        self.ensure_steps(phase as usize + 1);
        let weighted = self.weighted(v, src, dst);
        self.t.slots[phase as usize * p + src as usize].send += weighted;
        self.t.slots[phase as usize * p + dst as usize].recv += weighted;
        self.t.meta[phase as usize].comm += 1;
        self.t.touched.push(phase);
    }

    fn remove_transfer(&mut self, v: NodeId, src: u32, dst: u32, phase: u32) {
        let p = self.machine.p();
        let weighted = self.weighted(v, src, dst);
        self.t.slots[phase as usize * p + src as usize].send -= weighted;
        self.t.slots[phase as usize * p + dst as usize].recv -= weighted;
        self.t.meta[phase as usize].comm -= 1;
        self.t.touched.push(phase);
    }

    fn ensure_steps(&mut self, want: usize) {
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
    /// the schedule when nothing is empty.
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
    /// row maxima in one `O(P)` pass.
    fn refresh_step(&mut self, s: usize) {
        let p = self.machine.p();
        let row = s * p;
        let wt = TopK::scan(self.t.slots[row..row + p].iter().map(|b| b.work));
        let ht = TopK::scan(
            self.t.slots[row..row + p]
                .iter()
                .map(|b| b.send.max(b.recv)),
        );
        let m = &mut self.t.meta[s];
        let nonempty = m.nodes > 0 || m.comm > 0;
        m.cost = wt.vals[0]
            + self.machine.g() * ht.vals[0]
            + if nonempty { self.machine.l() } else { 0 };
        m.wtop = wt;
        m.htop = ht;
    }

    /// Full O(n + m + S·P) recomputation of the total cost; used by tests to
    /// cross-check the incremental bookkeeping.
    pub fn recomputed_cost(&self) -> u64 {
        lazy_cost(self.dag, self.machine, &self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_schedule::compact::compact_lazy;

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 2);
        let x = b.add_node(2, 3);
        let y = b.add_node(3, 1);
        let d = b.add_node(1, 1);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, d).unwrap();
        b.add_edge(y, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn initial_cost_matches_full_evaluation() {
        let dag = diamond();
        let machine = BspParams::new(2, 3, 5);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
        let st = ScheduleState::new(&dag, &machine, &sched);
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    #[test]
    fn move_validity_rules() {
        let dag = diamond();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
        let st = ScheduleState::new(&dag, &machine, &sched);
        // Moving d (node 3) to proc 0 step 1: pred x on proc 0 at step 1 (ok,
        // same proc), pred y on proc 1 at step 1 (needs strict <) -> invalid.
        assert!(!st.is_move_valid(3, 0, 1));
        // d to proc 0 step 2: x same proc earlier ok, y cross at 1 < 2 ok.
        assert!(st.is_move_valid(3, 0, 2));
        // a (node 0) to step 1 proc 0: succ x at step 1 same proc ok, succ y
        // on proc 1 at step 1 needs <, invalid.
        assert!(!st.is_move_valid(0, 0, 1));
    }

    #[test]
    fn apply_move_updates_cost_incrementally() {
        let dag = diamond();
        let machine = BspParams::new(2, 3, 5);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        assert!(st.is_move_valid(3, 0, 2));
        let c = st.apply_move(3, 0, 2);
        assert_eq!(c, st.recomputed_cost());
        // Revert restores the original cost.
        let back = st.apply_move(3, 1, 2);
        assert_eq!(back, st.recomputed_cost());
    }

    #[test]
    fn probe_equals_apply_delta_on_diamond() {
        let dag = diamond();
        let machine = BspParams::new(2, 3, 5);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        for v in 0..4u32 {
            let (cp, cs) = (st.proc(v), st.step(v));
            for s in cs.saturating_sub(1)..=cs + 2 {
                for q in 0..2u32 {
                    if (q, s) == (cp, cs) || !st.is_move_valid(v, q, s) {
                        continue;
                    }
                    let before = st.cost();
                    let delta = st.probe_move(v, q, s);
                    let after = st.apply_move(v, q, s);
                    assert_eq!(
                        after as i64 - before as i64,
                        delta,
                        "probe mismatch for {v} -> ({q}, {s})"
                    );
                    assert_eq!(st.apply_move(v, cp, cs), before, "revert broken");
                }
            }
        }
    }

    #[test]
    fn probe_is_read_only_beyond_the_step_table() {
        let dag = diamond();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let steps_before = st.n_steps();
        assert!(st.is_move_valid(3, 0, 5));
        let delta = st.probe_move(3, 0, 5);
        assert_eq!(st.n_steps(), steps_before, "probe must never grow state");
        let before = st.cost();
        let after = st.apply_move(3, 0, 5);
        assert_eq!(after as i64 - before as i64, delta);
        assert!(st.n_steps() >= 6);
    }

    #[test]
    fn moves_grow_superstep_axis() {
        let dag = diamond();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        assert!(st.is_move_valid(3, 0, 5));
        let c = st.apply_move(3, 0, 5);
        assert_eq!(c, st.recomputed_cost());
        assert!(st.n_steps() >= 6);
    }

    #[test]
    fn compact_from_keeps_committed_gaps() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 5);
        // u committed in step 1 (step 0 dispatched empty), v tentative in 9.
        let sched = BspSchedule::from_parts(vec![0, 0], vec![1, 9]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost();
        st.compact_from(2);
        // Committed steps 0 and 1 survive untouched; 9 pulls down to the
        // frontier.
        assert_eq!(st.snapshot().steps(), &[1, 2]);
        assert_eq!((st.cost(), st.recomputed_cost()), (before, before));
        // Floor 0 is plain `compact_lazy`, transfer phases included.
        let cross = BspSchedule::from_parts(vec![0, 1], vec![2, 7]);
        let mut st = ScheduleState::new(&dag, &machine, &cross);
        st.compact_from(0);
        assert_eq!(st.snapshot(), compact_lazy(&dag, &cross));
        assert_eq!(st.snapshot().steps(), &[0, 2]);
        assert_eq!(st.cost(), st.recomputed_cost());
        // The compacted state still probes and applies exactly.
        let (before, delta) = (st.cost() as i64, st.probe_move(1, 0, 0));
        assert_eq!(st.apply_move(1, 0, 0) as i64 - before, delta);
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    /// Some probe of `v`'s hill-climbing neighbourhood is negative.
    fn improves(st: &ScheduleState<'_>, v: NodeId) -> bool {
        let cur = (st.proc(v), st.step(v));
        (cur.1.saturating_sub(1)..=cur.1 + 1).any(|s| {
            st.valid_procs(v, s)
                .procs(st.p())
                .any(|q| (q, s) != cur && st.probe_move(v, q, s) < 0)
        })
    }

    #[test]
    fn certificate_stands_until_something_it_reads_changes() {
        // u0, u1 → v; z and w pad rows 2 and 1; a → b is a third party
        // whose only contact with v is superstep row 0 = τ(v) − 2.
        let mut b = DagBuilder::new();
        let u0 = b.add_node(1, 3);
        let u1 = b.add_node(1, 2);
        let v = b.add_node(2, 1);
        let _z = b.add_node(2, 1);
        let _w = b.add_node(3, 1);
        let a = b.add_node(1, 4);
        let c = b.add_node(1, 1);
        let far = b.add_node(1, 1);
        b.add_edge(u0, v).unwrap();
        b.add_edge(u1, v).unwrap();
        b.add_edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(3, 1, 0);
        // u0, u1, v, z, w, a, c, far
        let sched =
            BspSchedule::from_parts(vec![0, 1, 0, 2, 2, 2, 2, 1], vec![0, 0, 2, 2, 1, 0, 1, 6]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        st.void_certificates();
        assert!(!st.certified(v), "nothing is certified before it is probed");
        assert!(!improves(&st, v));
        st.certify(v);
        assert!(st.certified(v));

        // A move in rows v never reads leaves the certificate standing …
        st.apply_move(far, 0, 7);
        assert!(st.certified(v) && !improves(&st, v));
        // … and one that puts a transfer into phase 0 — where v's move to
        // (p1, 1) would put u0's — voids it: the move is now free there.
        st.apply_move(a, 1, 0);
        assert!(!st.certified(v), "row τ(v) − 2 is part of the read set");
        assert!(improves(&st, v), "and it mattered");
        assert_eq!(st.cost(), st.recomputed_cost());

        // Renumbering voids everything that was certified before it.
        let stuck: Vec<NodeId> = dag.nodes().filter(|&x| !improves(&st, x)).collect();
        assert!(!stuck.is_empty());
        stuck.iter().for_each(|&x| st.certify(x));
        st.apply_move(far, 0, 9);
        assert!(stuck.iter().all(|&x| x == far || st.certified(x)));
        st.compact_from(0);
        assert!(stuck.iter().all(|&x| !st.certified(x)));
    }

    #[test]
    fn appending_a_consumer_voids_its_siblings_certificates() {
        // u → v, y on p1; a → b keeps phase 4 busy on the cells u's
        // transfer would use, e → f keeps phase 2 busy on the other two;
        // w pads v's row, so v leaving it drops no maximum.
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 3);
        let v = b.add_node(1, 1);
        let y = b.add_node(1, 1);
        let a = b.add_node(1, 2);
        let bb = b.add_node(1, 1);
        let e = b.add_node(1, 4);
        let f = b.add_node(1, 1);
        let _w = b.add_node(1, 1);
        for (from, to) in [(u, v), (u, y), (a, bb), (e, f)] {
            b.add_edge(from, to).unwrap();
        }
        let mut dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        // u, v, y, a, b, e, f, w
        let sched =
            BspSchedule::from_parts(vec![0, 1, 1, 0, 1, 1, 0, 0], vec![0, 1, 5, 4, 5, 2, 3, 1]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        st.void_certificates();
        // Pulling v over to u's processor would push u's transfer from
        // phase 0 to phase 4, on top of a's: no gain.
        assert!(!improves(&st, v));
        st.certify(v);
        let tables = st.detach();

        // x consumes u from (p1, 3): not the earliest consumer there, so
        // no transfer moves and only row 3 — which v never reads — is
        // touched. But with v gone, u's transfer would now land in phase
        // 2, under e's, for free.
        dag.append(&[(1, 1, &[u])]).unwrap();
        let st = ScheduleState::attach_appended(&dag, &machine, tables, &[(1, 3)]);
        assert!(st.tables() == ScheduleState::new(&dag, &machine, &st.snapshot()).tables());
        assert!(!st.certified(v), "u's slice changed under v's certificate");
        assert!(improves(&st, v), "and it mattered");
    }

    #[test]
    fn emptying_a_superstep_saves_latency() {
        let dag = diamond();
        let machine = BspParams::new(2, 1, 100);
        // d alone in superstep 2.
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 0], vec![0, 1, 1, 2]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost();
        let probed = st.probe_move(3, 0, 1);
        let after = st.apply_move(3, 0, 1);
        assert_eq!(after, st.recomputed_cost());
        assert_eq!(after as i64 - before as i64, probed);
        assert!(
            after + 100 <= before,
            "latency saving not captured: {before} -> {after}"
        );
    }
}
