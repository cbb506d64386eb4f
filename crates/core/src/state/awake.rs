//! The awake set: the nodes a hill-climbing sweep still has to visit.
//!
//! A sweep asks [`ScheduleState::may_improve`] of a node before anything
//! else, and on a re-plan the answer is nearly always no. So the tables
//! keep one bit per node. A visit whose `may_improve` is false puts the
//! node to sleep, a sweep visits only the awake nodes, and every mutation
//! wakes each node whose `may_improve` it could flip. The invariant is:
//!
//! ```text
//! v asleep and τ(v) ≥ the floor of the last climb  ⇒  may_improve(v) == false
//! ```
//!
//! so a sweep skips only visits that the plain loop would have pruned,
//! and the accepted moves are the plain loop's. Below the floor a sweep
//! puts nodes to sleep unasked and marks them *settled*: they are
//! committed, and they sleep through a wake-all too. A later climb at a
//! lower floor wakes every node first ([`ScheduleState::prepare_sweeps`]).
//!
//! `may_improve(v)` reads two things, and a mutation wakes what can flip:
//!
//! * **`v`'s decrement enumeration.** It reads `(π(v), τ(v))`, the heads of
//!   `v`'s remote consumer buckets, and for each producer `u` its
//!   placement and the heads of its remote buckets. A remote bucket head
//!   *is* a lazy transfer of its producer: one per remote bucket, in the
//!   phase before its earliest consumer. So the enumeration changes only
//!   when `v` or a producer of `v` moves, or when a lazy transfer of `v`
//!   or of a producer appears, moves or disappears. A move of `x` therefore
//!   wakes `x` and its consumers, and each producer of `x` whose transfers
//!   it changed, with that producer's consumers. An appended node starts
//!   awake and wakes the producers whose transfers it changed, with their
//!   consumers.
//! * **The [`Hotness`] of the rows it lists.** A row's hotness changes
//!   only when the row is touched, and the refresh of every touched row
//!   compares the two. If a cell turned hot that was cold, every node that
//!   is not settled wakes: which sleepers list that cell is not indexed.
//!
//! A node is settled only while it sits below the floor: a sweep that saw
//! it there set the mark, a move wakes it and every wake clears the mark,
//! and a compaction only ever renumbers rows downwards. A compaction also removes only
//! rows that carry nothing, and every listed row carries something: `v`'s
//! own row computes `v`, and a listed transfer's phase carries it. So
//! each enumeration lists the same cells, renumbered, and the set
//! survives.

use super::{ScheduleState, TopK, TOP_K};
use bsp_dag::NodeId;

/// The awake and the settled nodes, one bit each, 64 to a word (bits past
/// `n` clear), and what the climbs need to keep them.
#[derive(Debug, Default)]
pub(super) struct Awake {
    awake: Vec<u64>,
    /// Asleep below the floor of the last climb, unless woken since.
    settled: Vec<u64>,
    /// Left out of the tables (see `reseat`): asleep and settled until
    /// revived. Empty while no node is.
    absent: Vec<u64>,
    n: usize,
    /// Floor of the last climb.
    floor: u32,
    /// Row refreshes that gained a hot cell since a climb took the count.
    wake_alls: u64,
}

impl Awake {
    /// `n` nodes, all awake.
    pub(super) fn new(n: usize) -> Awake {
        let mut a = Awake::default();
        a.grow(n);
        a
    }

    /// Extends the ids to `0..n`; the new nodes are awake.
    pub(super) fn grow(&mut self, n: usize) {
        let old = self.n;
        self.awake.resize(n.div_ceil(64), !0);
        self.settled.resize(n.div_ceil(64), 0);
        if !self.absent.is_empty() {
            self.absent.resize(n.div_ceil(64), 0);
        }
        if let Some(w) = self.awake.get_mut(old / 64) {
            *w |= !0 << (old % 64);
        }
        self.n = n;
        self.clear_tail();
    }

    fn clear_tail(&mut self) {
        if let Some(last) = self.awake.last_mut() {
            *last &= !0 >> ((64 - self.n % 64) % 64);
        }
    }

    /// Wakes every node that is not settled.
    fn wake_all(&mut self) {
        for (a, s) in self.awake.iter_mut().zip(&self.settled) {
            *a |= !s;
        }
        self.clear_tail();
    }

    /// Wakes `v`; it may have left the settled rows.
    #[inline]
    fn wake(&mut self, v: NodeId) {
        debug_assert!(!self.is_absent(v), "waking absent node {v}");
        let (w, bit) = (v as usize / 64, 1 << (v % 64));
        self.awake[w] |= bit;
        self.settled[w] &= !bit;
    }

    /// Leaves `v` out: asleep and settled until [`Awake::revive`].
    pub(super) fn leave_out(&mut self, v: NodeId) {
        if self.absent.is_empty() {
            self.absent.resize(self.n.div_ceil(64), 0);
        }
        self.absent[v as usize / 64] |= 1 << (v % 64);
        self.sleep(v, true);
    }

    /// Takes `v` back in, awake.
    pub(super) fn revive(&mut self, v: NodeId) {
        self.absent[v as usize / 64] &= !(1 << (v % 64));
        self.wake(v);
    }

    #[inline]
    pub(super) fn is_absent(&self, v: NodeId) -> bool {
        self.absent
            .get(v as usize / 64)
            .is_some_and(|w| w >> (v % 64) & 1 == 1)
    }

    #[inline]
    fn sleep(&mut self, v: NodeId, settled: bool) {
        let (w, bit) = (v as usize / 64, 1 << (v % 64));
        self.awake[w] &= !bit;
        if settled {
            self.settled[w] |= bit;
        }
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.awake[v as usize / 64] >> (v % 64) & 1 == 1
    }

    /// The smallest awake node `≥ from`, a word at a time.
    #[inline]
    fn next_from(&self, from: NodeId) -> Option<NodeId> {
        let mut w = from as usize / 64;
        let mut bits = self.awake.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.awake.get(w)?;
        }
        Some((w * 64) as NodeId + bits.trailing_zeros())
    }
}

/// What [`ScheduleState::may_improve`] reads of one superstep row — the
/// cells at which a decrement can lower the row on its own (*hot* cells):
///
/// * the work cell of a node alone in the row, or of `w > 0` on the
///   unique work-maximum processor;
/// * a transfer's two cells when the row computes nothing, or when one of
///   them is at the row's positive h-relation maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Hotness {
    /// The row computes nothing: every transfer of its phase is hot.
    idle: bool,
    /// The row computes exactly one node: that node's work cell is hot.
    lone: bool,
    /// The processor whose work cell is the row's unique maximum
    /// (`u32::MAX`: none).
    wmax: u32,
    /// The processors at the row's positive h-relation maximum, as far as
    /// [`TopK`] caches them (`u32::MAX`-padded).
    hmax: [u32; TOP_K],
    /// All `TOP_K` cached h-entries tie on a machine with more processors:
    /// `hmax` may miss some.
    spill: bool,
}

impl Hotness {
    /// The hotness of a row computing `nodes` nodes, with cached maxima
    /// `wtop` and `htop`, on `p` processors.
    pub(super) fn of(nodes: u32, wtop: &TopK, htop: &TopK, p: usize) -> Hotness {
        let top = htop.vals[0];
        let mut hmax = [u32::MAX; TOP_K];
        for k in 0..TOP_K {
            if top > 0 && htop.vals[k] == top {
                hmax[k] = htop.procs[k];
            }
        }
        Hotness {
            idle: nodes == 0,
            lone: nodes == 1,
            wmax: if wtop.vals[0] > wtop.vals[1] {
                wtop.procs[0]
            } else {
                u32::MAX
            },
            hmax,
            spill: top > 0 && htop.vals[TOP_K - 1] == top && p > TOP_K,
        }
    }

    /// Whether a cell is hot under `self` that may have been cold under
    /// `was`, for a node that stayed put. A row that computed nothing had
    /// no work cell and every transfer hot, so nobody asleep listed it. A
    /// row that computed one node had that node awake, so only a new
    /// node — woken by its move — can sit on a new work maximum.
    pub(super) fn gained(&self, was: &Hotness) -> bool {
        if was.idle {
            return false;
        }
        let new_hmax = |q: &u32| *q != u32::MAX && !was.hmax.contains(q);
        self.idle
            || (self.lone && !was.lone)
            || (self.wmax != u32::MAX && self.wmax != was.wmax && !was.lone)
            || self.hmax.iter().any(new_hmax)
            || self.spill
    }
}

impl ScheduleState<'_> {
    /// Whether `v` is awake: the next hill-climbing sweep visits it if it
    /// sits at or above the sweep's floor. A sleeping node at or above the
    /// floor of the last climb has no improving move
    /// ([`ScheduleState::may_improve`] is false).
    pub fn is_awake(&self, v: NodeId) -> bool {
        self.t.awake.contains(v)
    }

    /// The smallest awake node `≥ from`.
    #[inline]
    pub(crate) fn next_awake(&self, from: NodeId) -> Option<NodeId> {
        self.t.awake.next_from(from)
    }

    /// Puts `v` to sleep: it has no improving move. A node below the
    /// floor of the climb under way is `settled` as well.
    #[inline]
    pub(crate) fn sleep(&mut self, v: NodeId, settled: bool) {
        self.t.awake.sleep(v, settled);
    }

    /// Readies the set and the certificates for sweeps at `floor`. Nodes
    /// below an earlier climb's floor went to sleep unasked, and a
    /// certificate issued at a higher floor never probed the steps in
    /// between, so a lower floor wakes every present node and voids every
    /// certificate first. A floor at or above the last one keeps both: it
    /// only removes candidates.
    pub(crate) fn prepare_sweeps(&mut self, floor: u32) {
        let a = &mut self.t.awake;
        if floor < a.floor {
            a.settled.fill(0);
            a.settled[..a.absent.len()].copy_from_slice(&a.absent);
            a.wake_all();
            self.void_certificates();
        }
        self.t.awake.floor = floor;
    }

    /// Whether the tables leave `v` out (see `reseat`): it counts in no
    /// row and no sweep visits it.
    pub(crate) fn is_absent(&self, v: NodeId) -> bool {
        self.t.awake.is_absent(v)
    }

    /// Takes the count of row refreshes that gained a hot cell (and woke
    /// every unsettled node) since the last call.
    pub(crate) fn take_wake_alls(&mut self) -> u64 {
        std::mem::take(&mut self.t.awake.wake_alls)
    }

    /// Wakes `v` and its consumers: `v` moved, or one of its lazy
    /// transfers did.
    pub(super) fn wake_with_consumers(&mut self, v: NodeId) {
        let a = &mut self.t.awake;
        a.wake(v);
        for &x in self.dag.successors(v) {
            a.wake(x);
        }
    }

    /// Wakes every unsettled node: `gained` refreshed rows gained a hot
    /// cell.
    pub(super) fn wake_all(&mut self, gained: u64) {
        if gained > 0 {
            self.t.awake.wake_alls += gained;
            self.t.awake.wake_all();
        }
    }
}
