//! Failure certificates and the change stamps they are checked against.

use super::ScheduleState;
use bsp_dag::NodeId;

impl ScheduleState<'_> {
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
}
