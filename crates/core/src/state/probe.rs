//! The read-only probe: the scratch a candidate move's deltas accumulate
//! in, the probe itself, and the row evaluation that re-costs each touched
//! row as a [`SuperstepCost`] and sums the rows into an exact cost delta.

use super::bound::Fold;
use super::view::View;
use super::{ScheduleState, Slot, StepMeta};
use bsp_dag::NodeId;
use bsp_schedule::cost::SuperstepCost;
use std::cell::Cell;

/// One superstep touched by a set of deltas: its net node and transfer
/// count deltas. Its cells are the entry's row of [`Deltas::cells`].
#[derive(Debug, Clone, Copy)]
struct StepDelta {
    step: u32,
    dnodes: i64,
    dcomm: i64,
}

/// The changes a set of table edits would make, gathered per superstep
/// without touching the tables: a probed move's, or every decrement of one
/// node landed at once ([`ScheduleState::gain_bound`]). Each touched
/// superstep gets one dense row of `P` `(Δwork, Δsend, Δrecv)` cells, so
/// [`ScheduleState::eval_rows`] re-costs it in one pass over the row.
/// Cleared (capacity retained) before each use, so filling it is
/// allocation-free once the buffers have warmed up to the working degree
/// and the table's size.
#[derive(Debug, Default)]
pub(super) struct Deltas {
    steps: Vec<StepDelta>,
    /// `cells[i·P + q]`: `(Δwork, Δsend, Δrecv)` of processor `q` in the
    /// superstep of entry `i` of `steps`.
    cells: Vec<(i64, i64, i64)>,
    /// Epoch-stamped per-superstep index: `idx[s]` holds `(epoch, entry
    /// of s in steps)`, so finding a step's row is `O(1)` however many
    /// the deltas touch. Sized to the table's rows on clear, grown past
    /// them on demand.
    idx: Vec<(u32, u32)>,
    p: usize,
    epoch: u32,
}

impl Deltas {
    /// Empties the deltas for a table of `rows` supersteps of `p` slots.
    pub(super) fn clear(&mut self, p: usize, rows: usize) {
        self.steps.clear();
        self.cells.clear();
        // Start at a typical move's size rather than double up to it.
        self.steps.reserve(16);
        self.cells.reserve(16 * p);
        self.p = p;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.idx.fill((0, 0));
            self.epoch = 1;
        }
        if self.idx.len() < rows {
            self.idx.resize(rows, (0, 0));
        }
    }

    /// The entry of step `s`, appending an all-zero one (and its row of
    /// cells) if nothing landed there yet.
    fn step_entry(&mut self, s: u32) -> usize {
        let (epoch, next) = (self.epoch, self.steps.len());
        if s as usize >= self.idx.len() {
            self.idx.resize(s as usize + 1, (0, 0));
        }
        let e = &mut self.idx[s as usize];
        if e.0 == epoch {
            return e.1 as usize;
        }
        *e = (epoch, next as u32);
        self.steps.push(StepDelta {
            step: s,
            dnodes: 0,
            dcomm: 0,
        });
        self.cells.resize(self.cells.len() + self.p, (0, 0, 0));
        next
    }

    /// The entry of step `s`, if anything landed there: its position in
    /// the order [`ScheduleState::eval_rows`] reports rows in.
    #[inline]
    pub(super) fn entry(&self, s: u32) -> Option<usize> {
        match self.idx.get(s as usize) {
            Some(&(ep, i)) if ep == self.epoch => Some(i as usize),
            _ => None,
        }
    }

    /// `(Δwork, Δsend, Δrecv)` of processor `p` in superstep `s`.
    #[inline]
    pub(super) fn cell(&self, s: u32, p: u32) -> (i64, i64, i64) {
        self.entry(s)
            .map_or((0, 0, 0), |i| self.cells[i * self.p + p as usize])
    }

    /// Adds `(dwork, dsend, drecv)` to the cell of processor `p` in the
    /// step entry `si`.
    #[inline]
    fn add_cell(&mut self, si: usize, p: u32, dwork: i64, dsend: i64, drecv: i64) {
        let c = &mut self.cells[si * self.p + p as usize];
        c.0 += dwork;
        c.1 += dsend;
        c.2 += drecv;
    }

    pub(super) fn work(&mut self, s: u32, p: u32, dwork: i64, dnodes: i64) {
        let si = self.step_entry(s);
        self.steps[si].dnodes += dnodes;
        self.add_cell(si, p, dwork, 0, 0);
    }

    /// Records adding (`sign = 1`) or removing (`sign = -1`) one transfer of
    /// λ-weighted volume `w` in communication phase `phase`. Zero-volume
    /// transfers still flip the phase's transfer count (they keep a
    /// superstep non-empty) but touch no cells — an unchanged cell never
    /// affects the row maxima, so skipping it is exact.
    pub(super) fn transfer(&mut self, phase: u32, src: u32, dst: u32, w: u64, sign: i64) {
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

/// Reusable scratch for [`ScheduleState::probe_move`]: the deltas of the
/// candidate being probed, the last [`ScheduleState::gain_bound`] fold,
/// which probes leave alone so that [`ScheduleState::move_floor`] can read
/// it between them, and the view of the node they are about
/// (`state/view.rs`). Probing is allocation-free once the buffers have
/// warmed up.
///
/// Each thread keeps one, lent out by [`with_scratch`]: both hill climbs
/// and tabu search borrow it for a whole run, and
/// [`ScheduleState::probe_move`] for one probe, so it stays warm across
/// the states and solves a thread works through. What it keeps — the
/// fold and the view — is keyed by the tables' identity, the node and the
/// clock, so no state ever reads another's, and a probe's result does not
/// depend on which scratch it is given.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    d: Deltas,
    pub(super) fold: Fold,
    pub(super) view: View,
}

thread_local! {
    static SCRATCH: Cell<ProbeScratch> = Cell::new(ProbeScratch::default());
}

/// Runs `f` on this thread's [`ProbeScratch`], warm from the thread's last
/// search. The scratch is taken for the call and put back after it, so a
/// nested call gets a cold one rather than a borrow panic, and a panic in
/// `f` only drops the taken buffers.
pub fn with_scratch<R>(f: impl FnOnce(&mut ProbeScratch) -> R) -> R {
    let mut sc = SCRATCH.take();
    let r = f(&mut sc);
    SCRATCH.set(sc);
    r
}

impl ScheduleState<'_> {
    /// Computes the **exact** total-cost delta of moving `v` to
    /// `(p_new, s_new)` without mutating the state: no table growth, no
    /// consumer retargeting, no heap allocation once this thread's
    /// scratch ([`with_scratch`]) has warmed up. The move must be valid
    /// ([`ScheduleState::is_move_valid`]); the returned delta equals
    /// `apply_move(v, p_new, s_new) − cost()` bit-for-bit, including moves
    /// into supersteps beyond the currently allocated table (probed
    /// virtually as empty). Runs in `O(deg)`, plus `O(P)` for each of the
    /// `t ≤ deg + 2` touched supersteps, after one `O(Σ_{u ∈ pred(v)}
    /// outdeg(u))` walk when the scratch's view does not describe `v` at
    /// this clock yet.
    pub fn probe_move(&self, v: NodeId, p_new: u32, s_new: u32) -> i64 {
        with_scratch(|sc| self.probe_move_in(sc, v, p_new, s_new))
    }

    /// [`ScheduleState::probe_move`] with caller-supplied scratch: the
    /// entry point for whole-neighbourhood scans, which hold a
    /// [`ProbeScratch`] for the whole scan. The result is a pure function
    /// of the state and the move — independent of which scratch is passed.
    pub fn probe_move_in(&self, sc: &mut ProbeScratch, v: NodeId, p_new: u32, s_new: u32) -> i64 {
        let (p_old, s_old) = (self.t.sched.proc(v), self.t.sched.step(v));
        if p_old == p_new && s_old == s_new {
            return 0;
        }
        debug_assert!(self.is_move_valid(v, p_new, s_new));
        let (d, view) = (&mut sc.d, &mut sc.view);
        d.clear(self.machine.p(), self.t.n_steps + 1);

        // 1. Work movement and per-step node counts.
        let w = self.dag.work(v) as i64;
        d.work(s_old, p_old, -w, -1);
        d.work(s_new, p_new, w, 1);

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
                    d.transfer(m - 1, p_new, q, self.weighted(v, p_new, q), 1);
                } else if q == p_new {
                    d.transfer(m - 1, p_old, q, self.weighted(v, p_old, q), -1);
                } else {
                    d.move_transfer_src(
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
        //    moving (or creating / destroying) its lazy transfer. The view
        //    holds the minima, looked up once per visit of `v`.
        self.view(view, v);
        for (i, &u) in self.dag.predecessors(v).iter().enumerate() {
            let (pu, rm_before, rm_after) = view.own(i);
            if p_old == p_new {
                if p_old == pu {
                    continue; // local consumer stays local: no transfer
                }
                let after = Some(rm_after.map_or(s_new, |m| m.min(s_new)));
                if rm_before != after {
                    let w = self.weighted(u, pu, p_old);
                    if let Some(m) = rm_before {
                        d.transfer(m - 1, pu, p_old, w, -1);
                    }
                    if let Some(m) = after {
                        d.transfer(m - 1, pu, p_old, w, 1);
                    }
                }
                continue;
            }
            if p_old != pu && rm_before != rm_after {
                let w = self.weighted(u, pu, p_old);
                if let Some(m) = rm_before {
                    d.transfer(m - 1, pu, p_old, w, -1);
                }
                if let Some(m) = rm_after {
                    d.transfer(m - 1, pu, p_old, w, 1);
                }
            }
            if p_new != pu {
                let ins_before = view.min(i, p_new);
                let after = Some(ins_before.map_or(s_new, |m| m.min(s_new)));
                if ins_before != after {
                    let w = self.weighted(u, pu, p_new);
                    if let Some(m) = ins_before {
                        d.transfer(m - 1, pu, p_new, w, -1);
                    }
                    if let Some(m) = after {
                        d.transfer(m - 1, pu, p_new, w, 1);
                    }
                }
            }
        }

        self.eval_rows(&sc.d, |_| {})
    }

    /// Folds the deltas `d` into a total-cost delta, handing each touched
    /// row to `each` as re-costed, in entry order. Each touched superstep
    /// is re-costed in one pass over its `P` slots and delta cells — `O(P)`
    /// per touched step, the same pass `apply_move`'s refresh makes, with
    /// no branch on which processors changed. Steps at or beyond `n_steps`
    /// read as empty.
    pub(super) fn eval_rows(&self, d: &Deltas, mut each: impl FnMut(SuperstepCost)) -> i64 {
        let p = self.machine.p();
        let mut delta = 0i64;
        for (e, cells) in d.steps.iter().zip(d.cells.chunks_exact(p)) {
            let s = e.step as usize;
            let m = self.t.meta.get(s).unwrap_or(&StepMeta::EMPTY);
            let (w_max, c_max) = if s < self.t.n_steps {
                row_maxima(self.t.slots[s * p..(s + 1) * p].iter().copied(), cells)
            } else {
                row_maxima(std::iter::repeat(Slot::default()), cells)
            };
            let nonempty = m.nodes as i64 + e.dnodes > 0 || m.comm as i64 + e.dcomm > 0;
            let row = SuperstepCost::new(w_max, c_max, nonempty, self.machine);
            delta += row.total(self.machine.g()) as i64 - m.cost as i64;
            each(row);
        }
        delta
    }
}

/// The work and h-relation maxima of one superstep row: the `slots` with
/// the delta `cells` added, processor by processor.
#[inline]
fn row_maxima(slots: impl Iterator<Item = Slot>, cells: &[(i64, i64, i64)]) -> (u64, u64) {
    let at = |x: u64, d: i64| (x as i64 + d) as u64;
    slots.zip(cells).fold((0, 0), |(w, h), (b, &(dw, ds, dr))| {
        (
            w.max(at(b.work, dw)),
            h.max(at(b.send, ds).max(at(b.recv, dr))),
        )
    })
}
