//! The enumeration of every cell a move of a node can decrement, the
//! folds over it — [`ScheduleState::may_improve`] and
//! [`ScheduleState::gain_bound`] — and what a candidate must raise no
//! matter what: its work row ([`ScheduleState::target_rise`]) and, off
//! its own processor, the transfers it creates
//! ([`ScheduleState::move_floor`]).

use super::probe::Deltas;
use super::view::View;
use super::{ProbeScratch, ScheduleState, Slot};
use bsp_dag::NodeId;
use bsp_schedule::cost::SuperstepCost;
use std::ops::ControlFlow;

/// A fold over the cells a move of a node can decrement, as
/// [`ScheduleState::decrements`] enumerates them: `work` once for the
/// node's own work cell and node count, then `transfer` per existing lazy
/// transfer of `producer`'s value the move may remove, re-source or pull
/// forward. Breaking stops the enumeration. On the way, `pred` hears of
/// each predecessor `k` (in `dag.predecessors` order) and `bucket` of each
/// of its buckets on another processor `q`, which spans `cons[at..end]`:
/// what the [`View`] records.
pub(super) trait DecrementFold {
    fn work(&mut self, _: &ScheduleState<'_>, _step: u32, _proc: u32, _w: u64) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
    fn transfer(
        &mut self,
        _: &ScheduleState<'_>,
        _producer: NodeId,
        _phase: u32,
        _src: u32,
        _dst: u32,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
    fn pred(&mut self, _k: usize, _pu: u32) {}
    fn bucket(&mut self, _: &ScheduleState<'_>, _k: usize, _q: u32, _at: usize, _end: usize) {}
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

/// The last [`ScheduleState::gain_bound`] fold, kept in the
/// [`ProbeScratch`] for [`ScheduleState::move_floor`]: every decrement of
/// one node landed at once, each touched row as it then stands (its
/// *floor*: no move of the node leaves the row below it), and the bound.
#[derive(Debug, Default)]
pub(super) struct Fold {
    landed: Deltas,
    /// `floors[i]`: the row of entry `i` of `landed`.
    floors: Vec<SuperstepCost>,
    bound: u64,
    /// The tables, the node and the clock the fold was taken at.
    of: Option<(u64, NodeId, u64)>,
}

/// The cells on the target processor `q` a candidate move must raise,
/// merged per superstep row: `(row, work, send, recv)` increments. Rows
/// beyond the capacity are dropped — each row only adds to the floor, so
/// leaving one out keeps the floor sound.
struct Raises {
    rows: [(u32, u64, u64, u64); Raises::CAP],
    len: usize,
}

impl Raises {
    const CAP: usize = 8;

    fn add(&mut self, step: u32, work: u64, send: u64, recv: u64) {
        let rows = &mut self.rows[..self.len];
        if let Some(r) = rows.iter_mut().find(|r| r.0 == step) {
            r.1 += work;
            r.2 += send;
            r.3 += recv;
        } else if self.len < Self::CAP {
            self.rows[self.len] = (step, work, send, recv);
            self.len += 1;
        }
    }
}

/// [`ScheduleState::gain_bound`]'s fold: lands every decrement, at full
/// volume, in one set of deltas, and fills the node's view on the way.
struct AllLanded<'s>(&'s mut Deltas, &'s mut View);

impl DecrementFold for AllLanded<'_> {
    #[inline(always)]
    fn work(&mut self, _: &ScheduleState<'_>, step: u32, proc: u32, w: u64) -> ControlFlow<()> {
        self.0.work(step, proc, -(w as i64), -1);
        ControlFlow::Continue(())
    }

    #[inline(always)]
    fn pred(&mut self, k: usize, pu: u32) {
        self.1.pred(k, pu);
    }

    #[inline(always)]
    fn bucket(&mut self, st: &ScheduleState<'_>, k: usize, q: u32, at: usize, end: usize) {
        self.1.bucket(st, k, q, at, end);
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

impl ScheduleState<'_> {
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
    /// 3. *Consumer buckets (probe step 3, remove / insert):* for a
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
    pub(super) fn decrements<F: DecrementFold>(&self, v: NodeId, fold: &mut F) -> ControlFlow<()> {
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
        for (k, &u) in self.dag.predecessors(v).iter().enumerate() {
            let (pu, su) = (self.t.sched.proc(u), self.t.sched.step(u));
            fold.pred(k, pu);
            let earliest = sv.saturating_sub(1).max(su + 1);
            let (lo, hi) = self.cons_range(u);
            let mut i = lo;
            while i < hi {
                let (q, m) = self.t.cons[i];
                let end = self.bucket_end(i, hi, q);
                if q != pu {
                    fold.bucket(self, k, q, i, end);
                    if q == pv || m > earliest {
                        fold.transfer(self, u, m - 1, pu, q)?;
                    }
                }
                i = end;
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
    /// Zero whenever `may_improve(v)` is false. The landed decrements and
    /// the re-costed rows stay in `sc`, where probes leave them, for
    /// [`ScheduleState::move_floor`]; the walk also fills `sc`'s view of
    /// `v`, which the probes and floors of `v` then read. `O(deg)`,
    /// allocation-free once `sc` is warm, read-only.
    pub fn gain_bound(&self, sc: &mut ProbeScratch, v: NodeId) -> u64 {
        let f = &mut sc.fold;
        f.landed.clear(self.machine.p(), self.t.n_steps);
        f.floors.clear();
        // A view that describes `v` already gets what it holds rewritten.
        self.view_start(&mut sc.view, v);
        let _ = self.decrements(v, &mut AllLanded(&mut f.landed, &mut sc.view));
        let delta = self.eval_rows(&f.landed, |r| f.floors.push(r));
        debug_assert!(delta <= 0, "decrements raised the cost by {delta}");
        f.bound = delta.unsigned_abs();
        f.of = Some((self.t.id, v, self.t.clock));
        f.bound
    }

    /// The part of a move's cost change that no decrement can offset: how
    /// far moving `v` to `(q, s)` must raise the work maximum of the
    /// target row `s`, plus `ℓ` if that row is empty. The target's work
    /// cell only rises, to `work[s][q] + w(v)`; no other work cell of row
    /// `s` falls unless `s == τ(v)`, where the row may first lose the work
    /// drop [`ScheduleState::gain_bound`] already counts, so the rise is
    /// measured from `wmax` less that drop there. An empty row has no cell to
    /// decrement and turns nonempty. So [`ScheduleState::probe_move`]`(v,
    /// q, s) ≥ target_rise − gain_bound`: the work-only part of
    /// [`ScheduleState::move_floor`], which a scan may try first. `O(1)`.
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

    /// A lower bound on [`ScheduleState::probe_move`]`(v, q, s)` for a
    /// valid candidate, at least `target_rise(v, q, s) − gain_bound(v)`:
    /// a first-improvement scan may skip every candidate whose floor is
    /// `≥ 0`. `sc` must hold `v`'s fold — the last
    /// [`ScheduleState::gain_bound`]`(sc, v)` on the state as it is;
    /// probes through `sc` in between leave it alone. `O(deg(v))`, the
    /// receive rule reading the predecessors' bucket minima from `sc`'s
    /// view of `v` (walked again only if a probe of another node took the
    /// view over); no allocation.
    ///
    /// The fold landed every decrement any move of `v` can make, so each
    /// row it touched has a *floor* no move leaves it below, and the
    /// floors sum to the current cost less the bound. On top of that, the
    /// move *must* raise some cells of processor `q`:
    ///
    /// * the target work cell `(s, q)` gains `w(v)`, and row `s` computes
    ///   something;
    /// * for `q ≠ π(v)`, every consumer bucket `q′ ≠ q` of `v` (earliest
    ///   step `m`) becomes a transfer `q → q′` in phase `m − 1`: send cell
    ///   `(m − 1, q)` gains `c(v)·λ(q, q′)` per such bucket (`c` the
    ///   communication weight);
    /// * for `q ≠ π(v)`, every predecessor `u` with `π(u) ≠ q` whose
    ///   earliest consumer on `q` is absent or later than `s` gets `v` as
    ///   that bucket's new minimum: receive cell `(s − 1, q)` gains
    ///   `c(u)·λ(π(u), q)`.
    ///
    /// Each raised cell ends at least at its current value less what the
    /// fold landed on it, plus its certain increment, and each of those
    /// rows carries something. So a raised row ends at least at its floor
    /// with the raised cells so set, and the floor is `−gain_bound` plus
    /// what that lifts each raised row above its floor.
    pub fn move_floor(&self, sc: &mut ProbeScratch, v: NodeId, q: u32, s: u32) -> i64 {
        let (f, view) = (&sc.fold, &mut sc.view);
        debug_assert_eq!(
            f.of,
            Some((self.t.id, v, self.t.clock)),
            "no fold of {v} in the scratch"
        );
        let pv = self.t.sched.proc(v);
        let mut raises = Raises {
            rows: [(0, 0, 0, 0); Raises::CAP],
            len: 0,
        };
        raises.add(s, self.dag.work(v), 0, 0);
        if q != pv {
            let (lo, hi) = self.cons_range(v);
            let mut i = lo;
            while i < hi {
                let (b, m) = self.t.cons[i];
                i = self.bucket_end(i, hi, b);
                if b != q {
                    raises.add(m - 1, 0, self.weighted(v, q, b), 0);
                }
            }
            self.view(view, v);
            let mut recv = None;
            for (k, &u) in self.dag.predecessors(v).iter().enumerate() {
                let pu = view.proc(k);
                if pu != q && view.min(k, q).is_none_or(|m| m > s) {
                    *recv.get_or_insert(0) += self.weighted(u, pu, q);
                }
            }
            if let Some(w) = recv {
                raises.add(s - 1, 0, 0, w);
            }
        }
        raises.rows[..raises.len]
            .iter()
            .fold(-(f.bound as i64), |floor, &r| {
                floor + self.lift(f, q, r) as i64
            })
    }

    /// How far raising processor `q`'s cells of one row by `(work, send,
    /// recv)` — on top of the fold's landed decrements — lifts the row
    /// above its floor, the row being certain to carry something.
    fn lift(&self, f: &Fold, q: u32, (step, work, send, recv): (u32, u64, u64, u64)) -> u64 {
        let s = step as usize;
        let (floor, (dw, ds, dr)) = match f.landed.entry(step) {
            Some(i) => (f.floors[i], f.landed.cell(step, q)),
            None => (self.row(s), (0, 0, 0)),
        };
        let p = self.machine.p();
        let cell = self
            .t
            .slots
            .get(s * p + q as usize)
            .copied()
            .unwrap_or(Slot::default());
        let at = |x: u64, d: i64| (x as i64 + d) as u64;
        let w = at(cell.work, dw) + work;
        let h = (at(cell.send, ds) + send).max(at(cell.recv, dr) + recv);
        w.saturating_sub(floor.work)
            + self.machine.g() * h.saturating_sub(floor.comm)
            + (self.machine.l() - floor.latency)
    }
}
