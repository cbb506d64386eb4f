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
//! so steepest descent and tabu search scan their neighbourhoods
//! read-only and mutate the state only for the single move
//! they actually accept. Scans pre-filter candidate steps with
//! [`ScheduleState::valid_procs`] — one `O(deg)` pass per `(node, step)`
//! replaces `P` per-candidate validity checks.
//!
//! A probe need not run at all when the move provably cannot improve.
//! One private enumeration lists every cell a move of `v` can
//! *decrement*; two folds read it. [`ScheduleState::may_improve`] is the
//! early-exit one — no listed cell can lower its row, so skip the node.
//! [`ScheduleState::gain_bound`] lands all listed decrements at once and
//! re-costs their rows, an upper bound on what any move of `v` saves, and
//! keeps each touched row's *floor* — the row with every decrement landed
//! — in the scratch. A candidate `(q, s)` must still raise some cells of
//! processor `q`: its work cell, and off `π(v)` the send cells of the
//! transfers `v`'s consumers now need from `q` and the receive cell of
//! the predecessor values `q` now lacks.
//! [`ScheduleState::target_rise`] is the work part alone;
//! [`ScheduleState::move_floor`] lifts each raised row above its floor,
//! cell by cell, so
//!
//! ```text
//! probe_move(v, q, s) ≥ move_floor(v, q, s) ≥ target_rise(v, q, s) − gain_bound(v)
//! ```
//!
//! and a first-improvement scan — hill climbing — skips every candidate
//! whose floor is `≥ 0`.
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
//!
//! Certificates speak about one climb. The *awake set* outlives climbs,
//! detaching and compaction: a node whose [`ScheduleState::may_improve`]
//! came back false sleeps until a mutation changes something that test
//! reads ([`ScheduleState::is_awake`]). A move wakes the nodes around it;
//! a row refresh that turns a cold cell hot wakes every node. So a sweep
//! of a re-plan visits what the batch disturbed, not the whole suffix.
//!
//! # Layout
//!
//! This file holds the data: the row types, [`ScheduleTables`] and the
//! [`ScheduleState`] view with its accessors. The operations live in one
//! file per seam: `tables` (building and re-attaching the tables, the
//! consumer arena, move validity), `apply` (applying moves, compaction,
//! row refresh), `probe` (the read-only probe and its row evaluation),
//! `certify` (stamps and failure certificates), `bound` (the
//! enumeration of the cells a move can decrement, its folds, and the
//! candidate floors read off them) and `awake` (the awake set, the row
//! hotness it is woken by, and why the wake rules are complete).

use awake::Awake;
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::BspSchedule;
use std::sync::Mutex;

mod apply;
mod awake;
mod bound;
mod certify;
mod probe;
mod tables;
#[cfg(test)]
mod tests;

pub use probe::ProbeScratch;
pub use tables::ProcWindow;

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
    /// `nodes` as of the last refresh: with `wtop` and `htop` it gives the
    /// row's [`awake::Hotness`] before the mutation being refreshed.
    refreshed_nodes: u32,
    wtop: TopK,
    htop: TopK,
}

impl StepMeta {
    const EMPTY: StepMeta = StepMeta {
        cost: 0,
        nodes: 0,
        comm: 0,
        refreshed_nodes: 0,
        wtop: TopK::EMPTY,
        htop: TopK::EMPTY,
    };
}
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
/// consumer arena); stamps, certificates, the awake set and scratch are
/// not compared.
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
    /// The nodes a hill-climbing sweep still visits (see `awake`).
    awake: Awake,
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
}
