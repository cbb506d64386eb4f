//! The hill-climbing loop of `bsp_core::hc` without its exact filters —
//! the reference the production sweep must reproduce move for move
//! (`proptests.rs`), and the "work-only rise test", "without the move
//! floor" and "without certificates" climbs `local_search.rs` holds the
//! production climb to.

use bsp_core::state::{ProbeScratch, ScheduleState};
use bsp_dag::NodeId;

/// What [`hill_climb_reference`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceClimb {
    pub accepted: usize,
    pub local_minimum: bool,
    pub sweeps: u32,
    pub probes: u64,
}

/// Sweeps the nodes at or above `floor` in id order, applying the first
/// improving move of each node's neighbourhood (and retrying the node)
/// until a sweep accepts nothing or `max_moves` moves are accepted.
/// `may_try(st, v)` gates a node's scan: `|_, _| true` is the plain loop
/// (neither `may_improve` nor failure certificates),
/// `|st, v| st.may_improve(v)` the loop with the first filter only.
pub fn hill_climb_reference(
    st: &mut ScheduleState<'_>,
    max_moves: usize,
    floor: u32,
    may_try: impl Fn(&ScheduleState<'_>, NodeId) -> bool,
) -> ReferenceClimb {
    climb(st, max_moves, floor, may_try, false, false)
}

/// The production loop's node filters without its per-candidate move
/// floor: `may_improve`, then failure certificates (voided on entry,
/// issued after every scan that found nothing), every remaining
/// candidate probed. Runs to a local minimum from floor 0.
#[allow(dead_code)] // `local_search.rs`'s; the proptests use the plain loop
pub fn hill_climb_certified(st: &mut ScheduleState<'_>) -> ReferenceClimb {
    st.void_certificates();
    climb(st, usize::MAX, 0, |st, v| st.may_improve(v), true, false)
}

/// [`hill_climb_certified`] with the work-only candidate test in place of
/// the move floor: a candidate is not probed when `target_rise > 0` and
/// `target_rise ≥ gain_bound`.
#[allow(dead_code)] // `local_search.rs`'s
pub fn hill_climb_rise_bounded(st: &mut ScheduleState<'_>) -> ReferenceClimb {
    st.void_certificates();
    climb(st, usize::MAX, 0, |st, v| st.may_improve(v), true, true)
}

fn climb(
    st: &mut ScheduleState<'_>,
    max_moves: usize,
    floor: u32,
    may_try: impl Fn(&ScheduleState<'_>, NodeId) -> bool,
    certificates: bool,
    rise_test: bool,
) -> ReferenceClimb {
    let mut out = ReferenceClimb {
        accepted: 0,
        local_minimum: false,
        sweeps: 0,
        probes: 0,
    };
    let mut sc = ProbeScratch::default();
    let mut try_node = |st: &mut ScheduleState<'_>, v: NodeId, probes: &mut u64| {
        if !may_try(st, v) || (certificates && st.certified(v)) {
            return false;
        }
        let cur = (st.proc(v), st.step(v));
        let mut gain = None;
        for s in cur.1.saturating_sub(1).max(floor)..=cur.1 + 1 {
            for q in st.valid_procs(v, s).procs(st.p()) {
                if (q, s) == cur {
                    continue;
                }
                if rise_test {
                    let rise = st.target_rise(v, q, s);
                    if rise > 0 && rise >= *gain.get_or_insert_with(|| st.gain_bound(&mut sc, v)) {
                        continue;
                    }
                }
                *probes += 1;
                if st.probe_move_in(&mut sc, v, q, s) < 0 {
                    st.apply_move(v, q, s);
                    return true;
                }
            }
        }
        if certificates {
            st.certify(v);
        }
        false
    };
    loop {
        out.sweeps += 1;
        let mut improved = false;
        for v in 0..st.n() as NodeId {
            if out.accepted >= max_moves {
                return out;
            }
            if st.step(v) < floor {
                continue;
            }
            while try_node(st, v, &mut out.probes) {
                out.accepted += 1;
                improved = true;
                if out.accepted >= max_moves {
                    return out;
                }
            }
        }
        if !improved {
            out.local_minimum = true;
            return out;
        }
    }
}
