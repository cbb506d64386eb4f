//! The neighbourhood view of one node `v`: the bucket minima of its
//! predecessors that the probe's consumer side (step 3) and the move
//! floor's receive rule read, gathered once per `(tables, v, clock)`.
//! None depends on the candidate: per predecessor `u`, the minimum of
//! bucket `π(v)` before and after removing one `τ(v)` entry, and that of
//! every other bucket, are fixed for a whole visit.
//! [`ScheduleState::gain_bound`] walks every bucket of every predecessor
//! already and records them on the way; a probe of a node the view does
//! not describe walks them itself. A minimum is stamped with the view's
//! epoch and an unseen bucket reads as empty, so nothing is ever cleared:
//! filling costs what the walk costs, not `in-degree · P`. The key — the
//! tables' identity, the node, and the clock every mutation advances —
//! keeps a stale view from being read.

use super::bound::DecrementFold;
use super::ScheduleState;
use bsp_dag::NodeId;

/// The minimum of a bucket the walk saw empty (no `τ(v)` entry left).
const EMPTY: u32 = u32::MAX;

/// The view of one node `v`; part of the [`super::ProbeScratch`].
#[derive(Debug, Default)]
pub(super) struct View {
    /// The tables' identity, the node and the clock the view describes.
    of: Option<(u64, NodeId, u64)>,
    /// `(π(v), τ(v))`.
    at: (u32, u32),
    /// Bumped per description; the stamp of a bucket minimum it holds.
    epoch: u32,
    /// `P + 1` pairs per predecessor `u` of `v`, in `dag.predecessors(v)`
    /// order: per processor `q ≠ π(u)`, `(stamp, minimum of bucket q)`;
    /// then `(π(u), minimum of bucket π(v) after removing one τ(v) entry)`.
    preds: Vec<(u32, u32)>,
    stride: usize,
}

impl View {
    /// `π(u)` of predecessor `k`.
    #[inline]
    pub(super) fn proc(&self, k: usize) -> u32 {
        self.preds[k * self.stride + self.stride - 1].0
    }

    /// `(π(u), minimum of bucket π(v) before, after removing one τ(v)
    /// entry)` of predecessor `k`; the minima are `None` if `π(u) == π(v)`.
    #[inline]
    pub(super) fn own(&self, k: usize) -> (u32, Option<u32>, Option<u32>) {
        let (pu, after) = self.preds[k * self.stride + self.stride - 1];
        let after = (after != EMPTY).then_some(after);
        (pu, self.min(k, self.at.0), after)
    }

    /// The minimum of predecessor `k`'s bucket `q ≠ π(u)`, `None` if empty.
    #[inline]
    pub(super) fn min(&self, k: usize, q: u32) -> Option<u32> {
        let (stamp, m) = self.preds[k * self.stride + q as usize];
        (stamp == self.epoch).then_some(m)
    }
}

/// The walk that fills the view: `decrements` reports each predecessor
/// and each of its buckets on another processor.
impl DecrementFold for View {
    #[inline]
    fn pred(&mut self, k: usize, pu: u32) {
        self.preds[k * self.stride + self.stride - 1] = (pu, EMPTY);
    }

    #[inline]
    fn bucket(&mut self, st: &ScheduleState<'_>, k: usize, q: u32, at: usize, end: usize) {
        let (row, m) = (k * self.stride, st.t.cons[at].1);
        self.preds[row + q as usize] = (self.epoch, m);
        if q == self.at.0 {
            let second = (at + 1 < end).then(|| st.t.cons[at + 1].1);
            self.preds[row + self.stride - 1].1 = if m != self.at.1 {
                m
            } else {
                second.unwrap_or(EMPTY)
            };
        }
    }
}

impl ScheduleState<'_> {
    /// Points `view` at `v` as the tables now stand, unless it describes
    /// that already: `true` if the caller must now walk `v`'s
    /// predecessors into it.
    pub(super) fn view_start(&self, view: &mut View, v: NodeId) -> bool {
        let key = (self.t.id, v, self.t.clock);
        if view.of == Some(key) {
            return false;
        }
        let (p, deg) = (self.machine.p(), self.dag.in_degree(v));
        view.of = Some(key);
        view.at = (self.t.sched.proc(v), self.t.sched.step(v));
        view.stride = p + 1;
        view.epoch = view.epoch.wrapping_add(1);
        if view.epoch == 0 {
            view.preds.fill((0, 0));
            view.epoch = 1;
        }
        if view.preds.len() < deg * view.stride {
            // Room for more predecessors than the first node has, so the
            // buffer does not grow by doubling from a handful.
            view.preds.resize(deg.max(16) * view.stride, (0, 0));
        }
        true
    }

    /// Makes `view` describe `v`, walking its predecessors' slices unless
    /// it already does.
    pub(super) fn view(&self, view: &mut View, v: NodeId) {
        if self.view_start(view, v) {
            let _ = self.decrements(v, view);
        }
    }
}
