//! The read-only probe: the scratch a candidate move's deltas accumulate
//! in, the probe itself, and the row evaluation that re-costs each touched
//! row as a [`SuperstepCost`] and sums the rows into an exact cost delta.

use super::bound::Fold;
use super::view::View;
use super::{ScheduleState, Slot, StepMeta};
use bsp_dag::NodeId;
use bsp_schedule::cost::SuperstepCost;
use std::cell::Cell;

/// One superstep touched by a set of deltas: net count deltas plus the
/// head of its linked list of per-processor cell deltas.
#[derive(Debug, Clone, Copy)]
struct StepDelta {
    step: u32,
    dnodes: i64,
    dcomm: i64,
    /// Index of the first cell in `Deltas::cells`, `u32::MAX` = none.
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

/// The changes a set of table edits would make, gathered per superstep
/// and per `(superstep, processor)` cell without touching the tables: a
/// probed move's, or every decrement of one node landed at once
/// ([`ScheduleState::gain_bound`]). Cleared (capacity retained) before
/// each use, so filling it is allocation-free once the buffers have
/// warmed up to the working degree and the table's size.
#[derive(Debug, Default)]
pub(super) struct Deltas {
    steps: Vec<StepDelta>,
    cells: Vec<CellDelta>,
    /// Epoch-stamped `(step · (P + 1) + proc)` index, so that finding a
    /// step's entry or a cell is `O(1)` however many the deltas touch:
    /// slot `proc < P` of a superstep holds `(epoch, index into cells)`,
    /// slot `P` `(epoch, index into steps)`. Sized to the table's rows on
    /// clear, grown past them on demand.
    idx: Vec<(u32, u32)>,
    stride: usize,
    epoch: u32,
}

impl Deltas {
    /// Empties the deltas for a table of `rows` supersteps of `p` slots.
    pub(super) fn clear(&mut self, p: usize, rows: usize) {
        self.steps.clear();
        self.cells.clear();
        // Start at a typical move's size rather than double up to it.
        self.steps.reserve(16);
        self.cells.reserve(32);
        self.stride = p + 1;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.idx.fill((0, 0));
            self.epoch = 1;
        }
        if self.idx.len() < rows * self.stride {
            self.idx.resize(rows * self.stride, (0, 0));
        }
    }

    /// The index slot of processor `p` in superstep `s` (`p == P`: the
    /// step's entry).
    #[inline]
    fn slot(&mut self, s: u32, p: usize) -> &mut (u32, u32) {
        let i = s as usize * self.stride + p;
        if i >= self.idx.len() {
            self.idx.resize((s as usize + 1) * self.stride, (0, 0));
        }
        &mut self.idx[i]
    }

    /// What slot `(s, p)` indexes this epoch, if anything.
    #[inline]
    fn find(&self, s: u32, p: usize) -> Option<usize> {
        match self.idx.get(s as usize * self.stride + p) {
            Some(&(ep, i)) if ep == self.epoch => Some(i as usize),
            _ => None,
        }
    }

    fn step_entry(&mut self, s: u32) -> usize {
        let (epoch, next) = (self.epoch, self.steps.len());
        let e = self.slot(s, self.stride - 1);
        if e.0 == epoch {
            return e.1 as usize;
        }
        *e = (epoch, next as u32);
        self.steps.push(StepDelta {
            step: s,
            dnodes: 0,
            dcomm: 0,
            head: u32::MAX,
        });
        next
    }

    /// The entry of step `s`, if anything landed there: its position in
    /// the order [`ScheduleState::eval_rows`] reports rows in.
    #[inline]
    pub(super) fn entry(&self, s: u32) -> Option<usize> {
        self.find(s, self.stride - 1)
    }

    /// `(Δwork, Δsend, Δrecv)` of processor `p` in superstep `s`.
    #[inline]
    pub(super) fn cell(&self, s: u32, p: u32) -> (i64, i64, i64) {
        self.find(s, p as usize).map_or((0, 0, 0), |i| {
            let c = &self.cells[i];
            (c.dwork, c.dsend, c.drecv)
        })
    }

    /// Adds `(dwork, dsend, drecv)` to the cell of processor `p` in the
    /// step entry `si`, merging into an existing cell when present.
    #[inline]
    fn add_cell(&mut self, si: usize, p: u32, dwork: i64, dsend: i64, drecv: i64) {
        let (epoch, next) = (self.epoch, self.cells.len());
        let e = self.slot(self.steps[si].step, p as usize);
        let (ep, i) = *e;
        if ep != epoch {
            *e = (epoch, next as u32);
        } else {
            let c = &mut self.cells[i as usize];
            c.dwork += dwork;
            c.dsend += dsend;
            c.drecv += drecv;
            return;
        }
        self.cells.push(CellDelta {
            proc: p,
            dwork,
            dsend,
            drecv,
            next: self.steps[si].head,
        });
        self.steps[si].head = next as u32;
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
    /// `t ≤ deg + 2` touched supersteps whose cached top processors all
    /// changed, after one `O(Σ_{u ∈ pred(v)} outdeg(u))` walk when the
    /// scratch's view does not describe `v` at this clock yet.
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
    /// row to `each` as re-costed, in entry order. Per touched superstep,
    /// the new row maxima are derived from the changed cells and the
    /// cached [`super::TopK`] entries — `O(changed)` per step, falling
    /// back to an `O(P)` rescan only when every cached top processor
    /// changed. Steps at or beyond `n_steps` read as empty.
    pub(super) fn eval_rows(&self, d: &Deltas, mut each: impl FnMut(SuperstepCost)) -> i64 {
        let p = self.machine.p();
        let mut delta = 0i64;
        for ei in 0..d.steps.len() {
            let e = d.steps[ei];
            let s = e.step as usize;
            let in_range = s < self.t.n_steps;
            let row = s * p;
            let m = self.t.meta.get(s).unwrap_or(&StepMeta::EMPTY);
            // Maxima over the changed processors (their adjusted values).
            let (mut wcand, mut hcand) = (0u64, 0u64);
            let mut i = e.head;
            while i != u32::MAX {
                let c = d.cells[i as usize];
                let q = c.proc as usize;
                let b = if in_range {
                    self.t.slots[row + q]
                } else {
                    Slot::default()
                };
                wcand = wcand.max((b.work as i64 + c.dwork) as u64);
                let h = ((b.send as i64 + c.dsend) as u64).max((b.recv as i64 + c.drecv) as u64);
                hcand = hcand.max(h);
                i = c.next;
            }
            // Unchanged side: the first cached top entry on a processor
            // without a cell is exact; rescan only if all K tops changed.
            let changed = |q: u32| d.find(e.step, q as usize).is_some();
            let (w_unch, h_unch) = (m.wtop.unchanged_max(changed), m.htop.unchanged_max(changed));
            let w_max = match w_unch {
                Some(u) => wcand.max(u),
                None => self.rescan_adjusted(d, e.step, in_range, row, false),
            };
            let c_max = match h_unch {
                Some(u) => hcand.max(u),
                None => self.rescan_adjusted(d, e.step, in_range, row, true),
            };
            let nonempty = m.nodes as i64 + e.dnodes > 0 || m.comm as i64 + e.dcomm > 0;
            let row = SuperstepCost::new(w_max, c_max, nonempty, self.machine);
            delta += row.total(self.machine.g()) as i64 - m.cost as i64;
            each(row);
        }
        delta
    }

    /// Full adjusted row maximum (work when `hrel` is false, h-relation
    /// otherwise) of superstep `step`: the rare probe fallback when every
    /// cached top processor of a touched step changed. `O(P)`, each
    /// processor's delta read through the cell index.
    fn rescan_adjusted(
        &self,
        d: &Deltas,
        step: u32,
        in_range: bool,
        row: usize,
        hrel: bool,
    ) -> u64 {
        let mut best = 0u64;
        for q in 0..self.machine.p() {
            let (dw, ds, dr) = d.cell(step, q as u32);
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
}
