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
//! The per-superstep tables are flat: one interleaved work / send / receive
//! slot per `(superstep, processor)`, and per superstep its node and
//! transfer counts, cached top-`K` row maxima and cached step cost. A row
//! is costed in one place, [`SuperstepCost`]: [`ScheduleState::row`] reads
//! it off the cached maxima and counts, the refresh after a move caches
//! its `total`, and a probe re-costs each touched row as one — the same
//! rows [`bsp_schedule::cost::schedule_cost`] reports for the snapshot's
//! lazy schedule, comparable superstep by superstep. The consumer
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
//! once warm (its buffers are the thread's [`ProbeScratch`], lent by
//! [`with_scratch`], which keeps their capacity across probes, states and
//! solves; whole-neighbourhood scans hold it for the whole scan and probe
//! through [`ScheduleState::probe_move_in`]). A probe lands its `O(deg)`
//! changes in one dense row of `P` `(Δwork, Δsend, Δrecv)` cells per
//! touched superstep — the row found in `O(1)` through an epoch-stamped
//! per-step index, the cell by its processor — then re-costs each touched
//! row in one pass over its `P` slots and cells. That is the `O(t·P)`
//! (`t ≤ deg + 2` touched steps) the refresh after `apply_move` pays
//! too, with nothing written and no branch on which processors changed;
//! on the 4–16 processors every benchmark workload runs, it beats
//! re-deriving each maximum from cached top-`K` entries with a rescan
//! fallback (README, "Performance"). The predecessors' bucket minima come
//! from the scratch's *view* of `v` (`view`): one walk of their consumer
//! slices per node and clock — a hill-climbing visit's gain bound, or a
//! scan's first probe of the node — shared by all its candidates. Total:
//! `O(deg + t·P)` per probe, plus `O(Σ_{u ∈ pred(v)} outdeg(u))` once
//! per node; versus `O(deg + t·P)` twice, every table edit written and
//! undone, for an apply/revert pair. The contract, enforced by proptests
//! against the historical implementation (`tests/kernel_reference`), is
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
//! cell by cell — `O(deg(v))`, the receive rule reading the view — so
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
//! changes its DAG between two uses detaches the tables, edits the graph
//! and re-attaches them, paying for the edit instead of a rebuild: the
//! online runtime appends arrivals ([`ScheduleState::attach_appended`]),
//! and the multilevel walk undoes contractions
//! ([`ScheduleTables::uncontract`], over a graph whose merged-away nodes
//! are absent from the tables).
//!
//! Every mutation stamps a counter onto the superstep rows and the nodes
//! it changed. A sweep that probed a node's whole neighbourhood in vain
//! records the counter ([`ScheduleState::certify`]); while nothing those
//! probes read carries a newer stamp the node is provably still stuck
//! ([`ScheduleState::certified`], which lists the read set branch by
//! branch), and the next sweep skips it.
//!
//! Certificates and the *awake set* both outlive climbs, detaching and
//! edits. A certificate was issued under its climb's floor and holds at
//! any higher one; a climb at a lower floor voids them all. A node whose
//! [`ScheduleState::may_improve`] came back false sleeps until a mutation
//! changes something that test reads ([`ScheduleState::is_awake`]). A move
//! wakes the nodes around it; a row refresh that turns a cold cell hot
//! wakes every node. So a sweep of a re-plan, or of the next multilevel
//! chunk, visits what the edit disturbed, and probes only the
//! neighbourhoods whose certificates it voided.
//!
//! # Layout
//!
//! This file holds the data: the row types, [`ScheduleTables`] and the
//! [`ScheduleState`] view with its accessors. The operations live in one
//! file per seam: `tables` (building and re-attaching the tables, the
//! consumer arena, move validity), `apply` (applying moves, compaction,
//! row refresh), `probe` (the read-only probe, its row evaluation and the
//! thread's scratch), `view` (the bucket minima of a node's predecessors,
//! gathered once per node and clock), `certify` (stamps and failure
//! certificates), `bound`
//! (the enumeration of the cells a move can decrement, its folds, and the
//! candidate floors read off them), `awake` (the awake set, the row
//! hotness it is woken by, and why the wake rules are complete) and
//! `reseat` (absent nodes, and un-contractions as table edits).

use awake::Awake;
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::cost::SuperstepCost;
use bsp_schedule::BspSchedule;

mod apply;
mod awake;
mod bound;
mod certify;
mod probe;
mod reseat;
mod tables;
#[cfg(test)]
mod tests;
mod view;

pub use probe::{with_scratch, ProbeScratch};
pub use tables::ProcWindow;

/// How many of a row's largest per-processor values are cached: the row
/// hotness the awake set is woken by (`awake::Hotness`) names the
/// processors tied at the h-relation maximum from them, up to this many.
const TOP_K: usize = 4;

/// Cached `TOP_K` largest per-processor values of one superstep row (work,
/// or `max(send, recv)` for the h-relation) in descending order, with the
/// processors that attain them. The row's cost reads the two maxima; the
/// early-exit and floor tests (`bound`) read whether a cell is the unique
/// work maximum, the second-largest work and the h-relation maximum; the
/// row hotness reads which processors tie at the top. Refreshed by the
/// `O(P)` rescan after each move; a probe re-costs a row from its slots
/// instead (`probe`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TopK {
    vals: [u64; TOP_K],
    procs: [u32; TOP_K],
}

impl TopK {
    /// An all-zero row (also used for supersteps beyond the allocated
    /// tables), its sentinel procs naming no processor.
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
    /// Cached `row().total(g)` of this superstep.
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

    /// The row the cached maxima and counts describe.
    #[inline]
    fn row(&self, machine: &BspParams) -> SuperstepCost {
        let nonempty = self.nodes > 0 || self.comm > 0;
        SuperstepCost::new(self.wtop.vals[0], self.htop.vals[0], nonempty, machine)
    }
}
/// Everything a [`ScheduleState`] stores that borrows neither the DAG nor
/// the machine: the assignment, the per-superstep tables, the consumer
/// arena and the change stamps (the probe scratch is the thread's, see
/// [`with_scratch`]). A caller that has to *mutate* the DAG between two
/// uses of one state — the online runtime, which appends every arrival
/// batch to its graph — keeps the tables across the mutation:
/// [`ScheduleState::detach`], grow the DAG,
/// [`ScheduleState::attach_appended`]. Nothing is recomputed for the nodes
/// that were already there.
///
/// Two tables compare equal when they describe the same schedule state
/// (assignment, superstep rows with their cached maxima and costs,
/// consumer arena); stamps, certificates and the awake set are not
/// compared.
#[derive(Debug, Default)]
pub struct ScheduleTables {
    /// Distinct per [`ScheduleState::new`] in the process: with the
    /// clock it names one state of one set of tables, which is what a
    /// [`ProbeScratch`] keys what it keeps by.
    id: u64,
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

    /// Writes the work of superstep `s` into `row`, one entry per
    /// processor (all 0 beyond the allocated rows).
    pub(crate) fn row_work(&self, s: u32, row: &mut [u64]) {
        let p = row.len();
        match self.slots.get(s as usize * p..(s as usize + 1) * p) {
            Some(cells) => {
                for (w, c) in row.iter_mut().zip(cells) {
                    *w = c.work;
                }
            }
            None => row.fill(0),
        }
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

    /// Re-attaches released tables to the DAG and machine they describe:
    /// the same ones, or a DAG [`ScheduleTables::uncontract`] kept up to
    /// date. (A DAG grown by [`Dag::append`] takes
    /// [`ScheduleState::attach_appended`].)
    pub fn attach(dag: &'a Dag, machine: &'a BspParams, tables: ScheduleTables) -> Self {
        assert_eq!(tables.n(), dag.n());
        ScheduleState {
            dag,
            machine,
            t: tables,
        }
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

    /// Superstep `s`'s cost components as the tables cache them; the
    /// empty row past the allocated ones.
    pub fn row(&self, s: usize) -> SuperstepCost {
        self.t
            .meta
            .get(s)
            .map_or(SuperstepCost::default(), |m| m.row(self.machine))
    }

    /// Snapshot of the current assignment.
    pub fn snapshot(&self) -> BspSchedule {
        self.t.sched.clone()
    }
}
