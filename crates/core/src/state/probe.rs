//! The read-only probe: the scratch a candidate move's deltas accumulate
//! in, the probe itself, and the row evaluation that turns those deltas
//! into an exact cost delta.

use super::bound::Fold;
use super::{ScheduleState, Slot, StepMeta};
use bsp_dag::NodeId;

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
/// warmed up to the working degree. Both vectors stay tiny (at most
/// `degree + 2` steps), so cell lookups are linear scans.
#[derive(Debug, Default)]
pub(super) struct Deltas {
    steps: Vec<StepDelta>,
    cells: Vec<CellDelta>,
    /// Epoch-stamped step → entry index so [`Deltas::step_entry`] is
    /// `O(1)` even when a high-degree move touches many distinct phases:
    /// `(epoch, index into steps)`, lazily sized to the largest step seen.
    step_idx: Vec<(u32, u32)>,
    sepoch: u32,
}

impl Deltas {
    pub(super) fn clear(&mut self) {
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

    /// The entry of step `s`, if anything landed there: its position in
    /// the order [`ScheduleState::eval_rows`] reports rows in.
    #[inline]
    pub(super) fn entry(&self, s: u32) -> Option<usize> {
        match self.step_idx.get(s as usize) {
            Some(&(ep, idx)) if ep == self.sepoch => Some(idx as usize),
            _ => None,
        }
    }

    /// `(Δwork, Δsend, Δrecv)` of processor `p` in entry `si`.
    #[inline]
    pub(super) fn cell(&self, si: usize, p: u32) -> (i64, i64, i64) {
        let mut i = self.steps[si].head;
        while i != u32::MAX {
            let c = &self.cells[i as usize];
            if c.proc == p {
                return (c.dwork, c.dsend, c.drecv);
            }
            i = c.next;
        }
        (0, 0, 0)
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

/// Epoch-stamped per-processor accumulator for the fallback row rescan
/// ([`ScheduleState::eval_rows`]): `(epoch, Δwork, Δsend, Δrecv)`,
/// lazily sized to `P`.
#[derive(Debug, Default)]
pub(super) struct Rescan {
    row: Vec<(u32, i64, i64, i64)>,
    epoch: u32,
}

/// A superstep row as [`ScheduleState::eval_rows`] re-costs it under a
/// set of deltas: its work and h-relation maxima, and whether it computes
/// or carries anything.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct RowEval {
    pub(super) work: u64,
    pub(super) hrel: u64,
    pub(super) nonempty: bool,
}

/// Reusable scratch for [`ScheduleState::probe_move`]: the deltas of the
/// candidate being probed, the rescan accumulator, and the last
/// [`ScheduleState::gain_bound`] fold, which probes leave alone so that
/// [`ScheduleState::move_floor`] can read it between them. Probing is
/// allocation-free once the buffers have warmed up.
///
/// Single-probe callers never see this type — [`ScheduleState::probe_move`]
/// keeps one instance internally, behind a mutex. The whole-neighbourhood
/// scan ([`crate::hc::best_admissible`]) probes through
/// [`ScheduleState::probe_move_in`] with its caller's, which skips the
/// lock: tabu search owns one (`ProbeScratch::default()`), while both hill
/// climbs borrow the internal one, warm, for a whole run (greedy's folds
/// accumulate in it too).
#[derive(Debug, Default)]
pub struct ProbeScratch {
    d: Deltas,
    pub(super) rescan: Rescan,
    pub(super) fold: Fold,
}

impl ScheduleState<'_> {
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
        let d = &mut sc.d;
        d.clear();

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
                        d.transfer(m - 1, pu, p_old, w, -1);
                    }
                    if let Some(m) = after {
                        d.transfer(m - 1, pu, p_old, w, 1);
                    }
                }
                continue;
            }
            let (rm_before, rm_after, ins_before) = self.pred_mins(u, p_old, s_old, p_new);
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

        self.eval_rows(&sc.d, &mut sc.rescan, |_| {})
    }

    /// Folds the deltas `d` into a total-cost delta, handing each touched
    /// row to `each` as re-costed, in entry order. Per touched superstep,
    /// the new row maxima are derived from the changed cells and the
    /// cached [`super::TopK`] entries — `O(changed)` per step, falling
    /// back to an `O(P)` rescan only when both cached top processors
    /// changed. Steps at or beyond `n_steps` read as empty.
    pub(super) fn eval_rows(
        &self,
        d: &Deltas,
        rescan: &mut Rescan,
        mut each: impl FnMut(RowEval),
    ) -> i64 {
        let p = self.machine.p();
        let (g, l) = (self.machine.g(), self.machine.l());
        let mut delta = 0i64;
        for ei in 0..d.steps.len() {
            let e = d.steps[ei];
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
                None => self.rescan_adjusted(d, rescan, e.head, in_range, row, false),
            };
            let c_max = match h_unch {
                Some(u) => hcand.max(u),
                None => self.rescan_adjusted(d, rescan, e.head, in_range, row, true),
            };
            let nonempty = m.nodes as i64 + e.dnodes > 0 || m.comm as i64 + e.dcomm > 0;
            let new_cost = w_max + g * c_max + if nonempty { l } else { 0 };
            delta += new_cost as i64 - m.cost as i64;
            each(RowEval {
                work: w_max,
                hrel: c_max,
                nonempty,
            });
        }
        delta
    }

    /// Full adjusted row maximum (work when `hrel` is false, h-relation
    /// otherwise): the rare probe fallback when every cached top processor
    /// of a touched step changed. `O(P + cells)` via the epoch-stamped
    /// per-processor accumulator `acc`.
    fn rescan_adjusted(
        &self,
        d: &Deltas,
        acc: &mut Rescan,
        head: u32,
        in_range: bool,
        row: usize,
        hrel: bool,
    ) -> u64 {
        let p = self.machine.p();
        if acc.row.len() < p {
            acc.row.resize(p, (0, 0, 0, 0));
        }
        acc.epoch = acc.epoch.wrapping_add(1);
        if acc.epoch == 0 {
            acc.row.fill((0, 0, 0, 0));
            acc.epoch = 1;
        }
        let mut i = head;
        while i != u32::MAX {
            let c = d.cells[i as usize];
            acc.row[c.proc as usize] = (acc.epoch, c.dwork, c.dsend, c.drecv);
            i = c.next;
        }
        let mut best = 0u64;
        for q in 0..p {
            let (ep, dw, ds, dr) = acc.row[q];
            let (dw, ds, dr) = if ep == acc.epoch {
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
}
