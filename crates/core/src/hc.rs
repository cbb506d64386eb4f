//! Hill-climbing local search over node moves (paper §4.3, A.3).
//!
//! From the current schedule, the neighbourhood of a node `v` at
//! `(p, s)` is: every other processor in superstep `s`, and every processor
//! in supersteps `s − 1` and `s + 1`. The search greedily applies the first
//! cost-decreasing valid move it finds (the paper found greedy
//! first-improvement as good as steepest-descent and much faster), until a
//! local minimum or a budget is reached. Candidates are evaluated through
//! the read-only [`ScheduleState::probe_move_in`] gain kernel, in the
//! thread's [`ProbeScratch`], which the run borrows whole
//! ([`with_scratch`]: no lock per probe, no warm-up allocation per run or
//! per state); the state is mutated only for accepted moves. The scratch
//! also holds the visited node's *view*: its predecessors' processors and
//! bucket minima, recorded by the walk the node's gain bound makes anyway,
//! once per visit. Every floor and probe of the visit reads the minima
//! there, in `O(1)` per predecessor, instead of looking them up in the
//! consumer slices per candidate; a move advances the state's clock, which
//! the view is keyed by.
//!
//! A sweep costs what can still move. It visits only the *awake* nodes
//! ([`ScheduleState::is_awake`]), in ascending id, a bitset word at a
//! time. A visit that [`ScheduleState::may_improve`] proves stuck puts
//! the node to sleep without a probe, and it sleeps — across sweeps,
//! climbs and re-plans — until a mutation changes something that test
//! reads; a sweep passing a node below its floor puts it to sleep too. A
//! node whose neighbourhood an earlier sweep probed in vain is skipped
//! while its *failure certificate* holds ([`ScheduleState::certified`]:
//! nothing those probes read has changed). Of the nodes that remain, a
//! candidate is not probed when what it must add — its work, and off its
//! own processor the transfers it must send and receive — already costs
//! at least what any move of the node can save
//! ([`ScheduleState::move_floor`] ≥ 0, read off the node's
//! [`ScheduleState::gain_bound`] fold, taken once per visit at its first
//! candidate): its probe could only be `≥ 0`. All four skip only what
//! would have failed, and first improvement takes a move only when its
//! delta is `< 0`, so nothing a skip removes could have been taken — the
//! accepted-move sequence, every move cap and every result are those of
//! the plain loop. A certificate outlives its climb: it was issued under
//! that climb's floor, and a higher floor only removes candidates, so it
//! stands until a climb at a lower floor voids them all (as that climb
//! wakes every sleeper); until then only a mutation that changes what its
//! probes read voids it. So a re-plan, or the next chunk of a multilevel
//! walk, re-probes only the neighbourhoods something changed. The
//! [`Stop`] is polled once per awake visit (it reads
//! the wall clock and the cancel token on every 64th, the first
//! included), so a climb that finds nothing awake polls nothing: every
//! node it may move is proven stuck, and it ends at a local minimum.
//!
//! [`hill_climb_steepest`] is the paper's other variant (A.3 (ii)): every
//! round scans the whole `n · 3 · P` neighbourhood and applies the single
//! best improving move. The authors found it no better than greedy and
//! much slower per step; it is kept so that the claim can be reproduced
//! (the `ablation` experiment). Its scan, [`best_admissible`], is the one
//! full-neighbourhood scan of the crate — tabu search ([`crate::tabu`])
//! runs it under its own admission test — and it skips nothing: its
//! winners are pinned move by move to the historical apply/revert scan
//! (`tests/kernel_reference`).

use crate::state::{with_scratch, ProbeScratch, ScheduleState};
use bsp_dag::NodeId;
use bsp_schedule::solve::Stop;
use std::time::Duration;

/// Budgets of a pipeline's hill-climbing stage; the pipeline folds them
/// into the [`Stop`] it hands [`hill_climb`].
#[derive(Debug, Clone, Copy)]
pub struct HillClimbConfig {
    /// Maximum number of *accepted* (improving) moves; `None` = unlimited.
    pub max_moves: Option<usize>,
    /// Wall-clock limit; `None` = unlimited.
    pub time_limit: Option<Duration>,
}

impl Default for HillClimbConfig {
    fn default() -> Self {
        HillClimbConfig {
            max_moves: None,
            time_limit: Some(Duration::from_secs(5)),
        }
    }
}

/// Outcome of a hill-climbing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HillClimbStats {
    /// Number of improving moves applied.
    pub accepted: usize,
    /// Whether a local minimum was certified (a full sweep found nothing).
    pub local_minimum: bool,
}

/// Runs greedy first-improvement hill climbing in place until a local
/// minimum or `stop`. The cost of `state` never increases.
pub fn hill_climb(state: &mut ScheduleState<'_>, stop: &mut Stop) -> HillClimbStats {
    hill_climb_from(state, stop, 0)
}

/// [`hill_climb`] restricted to the tentative suffix of an online
/// schedule: nodes in supersteps below `floor` are *committed* (already
/// dispatched) — they are never moved, and no node is ever moved into a
/// superstep below `floor`. Committed nodes still participate in every
/// cost and precedence computation, so a suffix move is accepted only if
/// it is valid against the frozen prefix too. `floor == 0` is exactly
/// [`hill_climb`].
pub fn hill_climb_from(
    state: &mut ScheduleState<'_>,
    stop: &mut Stop,
    floor: u32,
) -> HillClimbStats {
    let mut visits = Visits::default();
    let stats = with_scratch(|sc| hill_climb_from_inner(state, sc, stop, floor, &mut visits));
    // One flush per run: the sweeps themselves stay counter-free.
    let m = crate::obs::ls_metrics();
    m.moves.add(stats.accepted as u64);
    m.visits.add(visits.total);
    m.pruned.add(visits.pruned);
    m.sleeps.add(visits.sleeps);
    m.wake_alls.add(state.take_wake_alls());
    m.certified.add(visits.certified);
    m.hc_probes.add(visits.probes);
    m.bound_skips.add(visits.bound_skips);
    m.floor_skips.add(visits.floor_skips);
    stats
}

/// Per-run tally of node visits (one per neighbourhood attempt of an
/// awake node), of those [`ScheduleState::may_improve`] ruled out before
/// any probe, of the nodes put to sleep (those visits, and the awake
/// nodes below the floor a sweep passed), of the visits a failure
/// certificate ruled out after `may_improve`, of the candidates of the
/// rest the move floor ruled out (all of them, and those the work-only
/// rise test `target_rise ≥ gain_bound` would have probed), and of the
/// probes that were left (a release build's: the ones debug builds add to
/// check the filters are not counted).
#[derive(Default)]
struct Visits {
    probes: u64,
    total: u64,
    pruned: u64,
    sleeps: u64,
    certified: u64,
    bound_skips: u64,
    floor_skips: u64,
}

fn hill_climb_from_inner(
    state: &mut ScheduleState<'_>,
    sc: &mut ProbeScratch,
    stop: &mut Stop,
    floor: u32,
    visits: &mut Visits,
) -> HillClimbStats {
    let n = state.dag().n() as u32;
    let p = state.machine().p() as u32;
    let mut accepted = 0usize;
    let stopped = |accepted| HillClimbStats {
        accepted,
        local_minimum: false,
    };

    // Certificates and sleepers from earlier climbs stand unless the
    // floor dropped below theirs.
    state.prepare_sweeps(floor);
    if n > 0 && stop.moves_left() == 0 {
        return stopped(accepted);
    }
    loop {
        let mut improved_this_sweep = false;
        let mut from = 0;
        while let Some(v) = next_visit(state, from, floor) {
            from = v + 1;
            if state.step(v) < floor {
                // Committed: no sweep at this floor or above visits it.
                state.sleep(v, true);
                visits.sleeps += 1;
                continue;
            }
            if stop.poll() {
                return stopped(accepted);
            }
            // Try moves for v until none improves (a node can profitably
            // move several times across sweeps; within the sweep we retry
            // the same node after a success, matching greedy descent).
            while try_improve_node(state, sc, v, p, floor, visits) {
                accepted += 1;
                improved_this_sweep = true;
                stop.spend_move();
                if stop.moves_left() == 0 {
                    return stopped(accepted);
                }
            }
        }
        if !improved_this_sweep {
            return HillClimbStats {
                accepted,
                local_minimum: true,
            };
        }
    }
}

/// The next node at or after `from` a sweep at `floor` visits: the next
/// awake one. Debug builds check every present sleeping node they pass
/// over at or above the floor, as they probe every candidate a filter
/// skips.
fn next_visit(state: &ScheduleState<'_>, from: NodeId, floor: u32) -> Option<NodeId> {
    let next = state.next_awake(from);
    if cfg!(debug_assertions) {
        for u in from..next.unwrap_or(state.n() as NodeId) {
            debug_assert!(
                state.step(u) < floor || state.is_absent(u) || !state.may_improve(u),
                "sleeping node {u} passes may_improve"
            );
        }
    }
    next
}

/// Attempts the neighbourhood of `v`; probes candidates read-only and
/// applies the first improving move. Three exact filters skip probes that
/// would fail — so the accepted-move sequence is unchanged (debug builds
/// probe them anyway and assert it). Two skip the whole node:
/// [`ScheduleState::may_improve`] (nothing in the current tables *can*
/// improve; the node goes to sleep until a mutation could change that),
/// then, for a node that passes it, [`ScheduleState::certified`]
/// (an earlier sweep, of this climb or an earlier one at no lower floor,
/// probed the whole neighbourhood, found nothing, and nothing those probes
/// read has changed since). The third
/// skips one candidate: its [`ScheduleState::move_floor`] is `≥ 0`. The
/// floor reads the node's [`ScheduleState::gain_bound`] fold, taken once
/// per visit at the first candidate; the `O(1)` work-only part of it
/// ([`ScheduleState::target_rise`] ≥ the bound) is tried first and spares
/// the floor's `O(deg)` walk where it already decides. A scan that comes
/// up empty issues the certificate. Steps are pre-filtered with
/// [`ScheduleState::valid_procs`], preserving the `(s, q)` probe order.
/// Steps below `floor` are never probed (committed-prefix protection).
fn try_improve_node(
    state: &mut ScheduleState<'_>,
    sc: &mut ProbeScratch,
    v: NodeId,
    p: u32,
    floor: u32,
    visits: &mut Visits,
) -> bool {
    visits.total += 1;
    let pruned = !state.may_improve(v);
    if pruned {
        state.sleep(v, false);
    }
    let certified = !pruned && state.certified(v);
    visits.pruned += pruned as u64;
    visits.sleeps += pruned as u64;
    visits.certified += certified as u64;
    let stuck = pruned || certified;
    if stuck && !cfg!(debug_assertions) {
        return false;
    }
    let (cur_p, cur_s) = (state.proc(v), state.step(v));
    let lo = cur_s.saturating_sub(1).max(floor);
    let hi = cur_s + 1;
    let mut bound = None;
    for s in lo..=hi {
        for q in state.valid_procs(v, s).procs(p) {
            if (q, s) == (cur_p, cur_s) {
                continue;
            }
            let gain = *bound.get_or_insert_with(|| state.gain_bound(sc, v));
            // The work-only part of the floor decides first where it can;
            // debug builds take the whole floor anyway, to check it.
            let rise = state.target_rise(v, q, s);
            let by_rise = rise > 0 && rise >= gain;
            let lower = (!by_rise || cfg!(debug_assertions)).then(|| state.move_floor(sc, v, q, s));
            let skip = by_rise || lower.is_some_and(|f| f >= 0);
            visits.bound_skips += (skip && !stuck) as u64;
            visits.floor_skips += (skip && !by_rise && !stuck) as u64;
            if skip && !cfg!(debug_assertions) {
                continue;
            }
            let delta = state.probe_move_in(sc, v, q, s);
            visits.probes += !(stuck || skip) as u64;
            debug_assert!(
                !(stuck && delta < 0),
                "{} ruled out an improving move of {v} to ({q}, {s}): {delta}",
                if pruned {
                    "may_improve"
                } else {
                    "a certificate"
                }
            );
            debug_assert!(
                lower.is_none_or(|f| delta >= f && f >= rise as i64 - gain as i64),
                "move of {v} to ({q}, {s}) beats its floor: rise {rise}, gain bound {gain}, \
                 floor {lower:?}, delta {delta}"
            );
            if delta < 0 {
                state.apply_move(v, q, s);
                return true;
            }
        }
    }
    if !stuck {
        state.certify(v);
    }
    false
}

/// Runs steepest-descent hill climbing in place: every round applies the
/// best improving move of the whole neighbourhood ([`best_admissible`]).
/// Stops at a local minimum or when `stop` says so (it is asked once per
/// round). The cost of `state` never increases.
pub fn hill_climb_steepest(state: &mut ScheduleState<'_>, stop: &mut Stop) -> HillClimbStats {
    let mut accepted = 0usize;
    let mut local_minimum = state.n() == 0;
    with_scratch(|sc| {
        while !local_minimum && stop.moves_left() > 0 && !stop.expired() {
            match best_admissible(state, sc, |_, _, _, delta| delta < 0) {
                Some((v, q, s, _)) => {
                    state.apply_move(v, q, s);
                    accepted += 1;
                    stop.spend_move();
                }
                None => local_minimum = true,
            }
        }
    });
    crate::obs::ls_metrics().moves.add(accepted as u64);
    HillClimbStats {
        accepted,
        local_minimum,
    }
}

/// Probes every move of every node read-only and returns the first one,
/// in `(v, s, q)` ascending order, with the strictly smallest delta among
/// those `admit(v, q, s, delta)` accepts — `None` if it accepts none. The
/// current placement is skipped and steps are pre-filtered with
/// [`ScheduleState::valid_procs`]. `admit` is asked only of a candidate
/// whose delta beats the best so far: both tests are pure, so the winner
/// is the one asking every candidate would give. Allocates nothing beyond
/// warming `sc`, and flushes the scan and probe counters once.
pub fn best_admissible(
    state: &ScheduleState<'_>,
    sc: &mut ProbeScratch,
    mut admit: impl FnMut(NodeId, u32, u32, i64) -> bool,
) -> Option<(NodeId, u32, u32, i64)> {
    let p = state.p();
    let mut best: Option<(NodeId, u32, u32, i64)> = None;
    let mut probes = 0u64;
    for v in 0..state.n() as NodeId {
        let (cur_p, cur_s) = (state.proc(v), state.step(v));
        for s in cur_s.saturating_sub(1)..=cur_s + 1 {
            for q in state.valid_procs(v, s).procs(p) {
                if (q, s) == (cur_p, cur_s) {
                    continue;
                }
                probes += 1;
                let delta = state.probe_move_in(sc, v, q, s);
                if best.is_none_or(|(.., b)| delta < b) && admit(v, q, s, delta) {
                    best = Some((v, q, s, delta));
                }
            }
        }
    }
    let m = crate::obs::ls_metrics();
    m.scans.inc();
    m.probes.add(probes);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_model::BspParams;
    use bsp_schedule::validity::validate_lazy;
    use bsp_schedule::BspSchedule;

    #[test]
    fn gathers_scattered_chain_onto_one_processor() {
        // A chain spread over processors pays communication every step; HC
        // should pull it together (or at least strictly reduce cost).
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_node(1, 5)).collect();
        for i in 0..5 {
            b.add_edge(v[i], v[i + 1]).unwrap();
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 5, 3);
        let sched = BspSchedule::from_parts(vec![0, 1, 0, 1, 0, 1], vec![0, 1, 2, 3, 4, 5]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost(); // 6 work + 5 transfers * 25 + 6 latencies = 149
        assert_eq!(before, 149);
        let stats = hill_climb(&mut st, &mut Stop::new(None, None));
        assert!(stats.local_minimum);
        assert_eq!(st.cost(), st.recomputed_cost());
        assert!(validate_lazy(&dag, 2, &st.snapshot()).is_ok());
        // Greedy first-improvement reaches a local minimum; it must at least
        // eliminate every transfer (any cross-processor edge costs g*c = 25,
        // more than the entire all-local schedule), i.e. land within a few
        // latency charges of the global optimum 9.
        assert!(st.cost() <= 6 + 3 * machine.l(), "stuck at {}", st.cost());
    }

    #[test]
    fn spreads_parallel_work() {
        // Independent heavy nodes all on one processor: HC moves them apart.
        // Strict first-improvement cannot cross the plateau from the
        // 2+2-per-processor split (cost 22) to the perfect 1-per-processor
        // split (cost 12) — every single move keeps the max load at 20 — so
        // the guaranteed outcome is cost <= 22 (vs. 42 initially).
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_node(10, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 1, 2);
        let sched = BspSchedule::zeroed(4);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        assert_eq!(st.cost(), 42);
        hill_climb(&mut st, &mut Stop::new(None, None));
        assert!(st.cost() <= 22, "got {}", st.cost());
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    #[test]
    fn gain_bound_skips_candidates_it_ties_with() {
        // Three independent nodes, ℓ = 0: v (work 3) and a (1) share row
        // 0, b (1) is alone in row 1, a and b on p1.
        let mut b = DagBuilder::new();
        for w in [3, 1, 1] {
            b.add_node(w, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        let sched = BspSchedule::from_parts(vec![0, 1, 1], vec![0, 0, 1]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let mut sc = ProbeScratch::default();
        // v's unique maximum can drop by 3 − 1 = 2. Its three candidates
        // must raise a work row by 3, 2 and 3: every one is skipped,
        // (p0, 1) with rise == bound (its probe is exactly 0).
        assert_eq!(st.gain_bound(&mut sc, 0), 2);
        assert_eq!(st.probe_move(0, 0, 1), 0);
        let mut visits = Visits::default();
        assert!(!try_improve_node(&mut st, &mut sc, 0, 2, 0, &mut visits));
        assert_eq!((visits.bound_skips, visits.probes), (3, 0));
        // b can save its own work, 1: (p0, 0) raises row 0 by exactly 1
        // and is skipped; (p1, 0) is probed and taken (−1).
        assert_eq!(st.gain_bound(&mut sc, 2), 1);
        let mut visits = Visits::default();
        assert!(try_improve_node(&mut st, &mut sc, 2, 2, 0, &mut visits));
        assert_eq!((visits.bound_skips, visits.probes), (1, 1));
        assert_eq!((st.proc(2), st.step(2)), (1, 0));
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    /// u (comm `cu`) on p0 and u2 (comm 2) on p1 in row 0, both feeding v
    /// (work 1) alone in row 1 on p0; `g = 1`, `ℓ = 0`. v can save its
    /// work cell (1) and u2's transfer into p0 (2): gain bound 3. Moving v
    /// to p1 makes u's value a transfer into p1 instead, and neither v
    /// nor u has a consumer to send to.
    fn receive_instance(cu: u64) -> (bsp_dag::Dag, BspParams, BspSchedule) {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, cu);
        let u2 = b.add_node(1, 2);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        b.add_edge(u2, v).unwrap();
        let sched = BspSchedule::from_parts(vec![0, 1, 0], vec![0, 0, 1]);
        (b.build().unwrap(), BspParams::new(2, 1, 0), sched)
    }

    #[test]
    fn floor_of_exactly_zero_is_skipped() {
        let (dag, machine, sched) = receive_instance(2);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let mut sc = ProbeScratch::default();
        assert_eq!(st.gain_bound(&mut sc, 2), 3);
        // (p1, 1) raises v's row by 1 and u's new transfer lifts row 0
        // back to h = 2: floor −3 + 1 + 2 = 0, and so is the probe. Its
        // work rise alone (1 < 3) would have probed it.
        assert_eq!(st.target_rise(2, 1, 1), 1);
        assert_eq!(st.move_floor(&mut sc, 2, 1, 1), 0);
        assert_eq!(st.probe_move(2, 1, 1), 0);
        // (p1, 2) likewise lands u's transfer in row 1: floor 0. (p0, 2)
        // creates no transfer (floor −2) and is probed: 0.
        assert_eq!(st.move_floor(&mut sc, 2, 1, 2), 0);
        assert_eq!(st.move_floor(&mut sc, 2, 0, 2), -2);
        let mut visits = Visits::default();
        assert!(!try_improve_node(&mut st, &mut sc, 2, 2, 0, &mut visits));
        let counts = (visits.bound_skips, visits.floor_skips, visits.probes);
        assert_eq!(counts, (2, 2, 1));
    }

    #[test]
    fn receive_cell_alone_rules_out_a_candidate() {
        // u's value weighs 3: (p1, 1) must receive it in row 0, above
        // the 2 its move saves there — floor 1, probe 1 — while the rise
        // test leaves it at 1 − 3 = −2.
        let (dag, machine, sched) = receive_instance(3);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let mut sc = ProbeScratch::default();
        let gain = st.gain_bound(&mut sc, 2) as i64;
        assert_eq!(st.target_rise(2, 1, 1) as i64 - gain, -2);
        assert_eq!(st.move_floor(&mut sc, 2, 1, 1), 1);
        assert_eq!(st.probe_move(2, 1, 1), 1);
        let mut visits = Visits::default();
        assert!(!try_improve_node(&mut st, &mut sc, 2, 2, 0, &mut visits));
        assert_eq!((visits.floor_skips, visits.probes), (2, 1));

        // Weighing 1, it fits under the transfer u2 sends from p1 in row
        // 0, which the move removes: the fold landed that on p1's cell,
        // so the floor is −1, and the move is taken.
        let (dag, machine, sched) = receive_instance(1);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        st.gain_bound(&mut sc, 2);
        assert_eq!(st.move_floor(&mut sc, 2, 1, 1), -1);
        let mut visits = Visits::default();
        assert!(try_improve_node(&mut st, &mut sc, 2, 2, 0, &mut visits));
        assert_eq!((st.proc(2), st.step(2)), (1, 1));
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    #[test]
    fn floor_freezes_the_committed_prefix() {
        // The scattered chain again, but supersteps 0..3 are committed:
        // nodes 0..3 must keep their exact assignment and nothing may move
        // below superstep 3.
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_node(1, 5)).collect();
        for i in 0..5 {
            b.add_edge(v[i], v[i + 1]).unwrap();
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 5, 3);
        let sched = BspSchedule::from_parts(vec![0, 1, 0, 1, 0, 1], vec![0, 1, 2, 3, 4, 5]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost();
        let unlimited = || Stop::new(None, None);
        hill_climb_from(&mut st, &mut unlimited(), 3);
        let after = st.snapshot();
        for v in 0..3 {
            assert_eq!(after.proc(v), sched.proc(v), "committed node {v} moved");
            assert_eq!(after.step(v), sched.step(v), "committed node {v} moved");
        }
        for v in 3..6 {
            assert!(after.step(v) >= 3, "node {v} moved below the floor");
        }
        assert!(st.cost() <= before);
        assert!(validate_lazy(&dag, 2, &after).is_ok());
        // The sweep put the committed nodes to sleep unasked; a climb at a
        // lower floor wakes them and moves as a fresh state does.
        assert!((0..3).all(|v| !st.is_awake(v)));
        let mut fresh = ScheduleState::new(&dag, &machine, &after);
        hill_climb(&mut st, &mut unlimited());
        hill_climb(&mut fresh, &mut unlimited());
        assert_ne!(st.snapshot(), after);
        assert_eq!(st.snapshot(), fresh.snapshot());

        // floor 0 reproduces plain hill_climb exactly.
        let mut a = ScheduleState::new(&dag, &machine, &sched);
        let mut b2 = ScheduleState::new(&dag, &machine, &sched);
        hill_climb(&mut a, &mut unlimited());
        hill_climb_from(&mut b2, &mut unlimited(), 0);
        assert_eq!(a.snapshot(), b2.snapshot());
    }

    #[test]
    fn respects_move_budget() {
        let dag = random_layered_dag(
            1,
            LayeredConfig {
                layers: 4,
                width: 6,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 2, 3);
        let sched = BspSchedule::zeroed(dag.n());
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let stats = hill_climb(&mut st, &mut Stop::new(None, Some(3)));
        assert!(stats.accepted <= 3);
    }

    /// All four searches from one start, each under a stop `stop` makes,
    /// reduced to what a caller sees: the steps taken and where they end.
    fn four_searches(stop: &dyn Fn() -> Stop) -> Vec<(&'static str, usize, String)> {
        use crate::hccs::{comm_hill_climb, CommState};
        use crate::tabu::{tabu_search, TabuConfig};
        let dag = random_layered_dag(2, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3).with_numa(bsp_model::NumaTopology::binary_tree(4, 3));
        let start = crate::init::bspg::bspg_schedule(&dag, &machine);
        let mut out = Vec::new();

        let mut st = ScheduleState::new(&dag, &machine, &start);
        let stats = hill_climb(&mut st, &mut stop());
        out.push(("hc", stats.accepted, format!("{:?}", st.snapshot())));

        let mut st = ScheduleState::new(&dag, &machine, &start);
        let stats = hill_climb_steepest(&mut st, &mut stop());
        out.push(("steepest", stats.accepted, format!("{:?}", st.snapshot())));

        let mut comm = CommState::new(&dag, &machine, &start);
        let moves = comm_hill_climb(&mut comm, &mut stop());
        out.push(("hccs", moves, format!("{:?}", comm.comm_schedule())));

        let cfg = TabuConfig {
            max_iters: 40,
            ..TabuConfig::default()
        };
        let (best, _, stats) = tabu_search(&dag, &machine, &start, &cfg, &mut stop());
        out.push(("tabu", stats.iterations, format!("{best:?}")));
        out
    }

    #[test]
    fn unrepresentable_time_limit_is_no_limit() {
        // `Instant::now() + Duration::MAX` used to panic, in all four.
        let unlimited = four_searches(&|| Stop::new(None, None));
        assert!(unlimited.iter().all(|(_, steps, _)| *steps > 0));
        assert_eq!(
            four_searches(&|| Stop::new(Some(Duration::MAX), None)),
            unlimited
        );
    }

    /// A request whose token `token` cancels, for building [`Stop`]s.
    fn cancellable(token: &bsp_schedule::solve::CancelToken) -> bsp_schedule::solve::Budget {
        bsp_schedule::solve::Budget::unlimited().with_cancel(token.clone())
    }

    #[test]
    fn cancelled_token_returns_before_any_move() {
        use bsp_schedule::solve::{CancelToken, SolveCx, SolveRequest};
        let (dag, machine) = (DagBuilder::new().build().unwrap(), BspParams::new(2, 1, 1));
        let token = CancelToken::new();
        let req = SolveRequest::new(&dag, &machine).with_budget(cancellable(&token));
        let cx = SolveCx::new("t", &req);
        // A spent deadline is the reference: nobody takes a step.
        let at_rest = four_searches(&|| Stop::new(Some(Duration::ZERO), None));
        assert!(at_rest.iter().all(|(_, steps, _)| *steps == 0));
        assert_ne!(four_searches(&|| cx.stop(None, None)), at_rest);
        token.cancel();
        assert_eq!(four_searches(&|| cx.stop(None, None)), at_rest);
    }

    #[test]
    fn cancellation_lands_inside_the_climb() {
        // One-sided on time: uncancelled, this climb runs for seconds in a
        // debug build; it can only end short of a local minimum if the
        // poll inside the sweep saw the token.
        use bsp_schedule::solve::{CancelToken, SolveCx, SolveRequest};
        let dag = random_layered_dag(
            7,
            LayeredConfig {
                layers: 90,
                width: 60,
                ..Default::default()
            },
        );
        let machine = BspParams::new(8, 1, 5).with_numa(bsp_model::NumaTopology::binary_tree(8, 2));
        let token = CancelToken::new();
        let req = SolveRequest::new(&dag, &machine).with_budget(cancellable(&token));
        let mut stop = SolveCx::new("t", &req).stop(None, None);
        let start = crate::init::bspg::bspg_schedule(&dag, &machine);
        let mut st = ScheduleState::new(&dag, &machine, &start);
        let stats = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            });
            hill_climb(&mut st, &mut stop)
        });
        assert!(!stats.local_minimum, "the climb ran to its end: {stats:?}");
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    #[test]
    fn expired_time_limit_returns_before_any_move() {
        // The clock is read on the first visit, not the 64th.
        let dag = random_layered_dag(2, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let mut st = ScheduleState::new(&dag, &machine, &BspSchedule::zeroed(dag.n()));
        let stats = hill_climb(&mut st, &mut Stop::new(Some(Duration::ZERO), None));
        assert_eq!((stats.accepted, stats.local_minimum), (0, false));
    }

    #[test]
    fn never_increases_cost_and_stays_valid() {
        for seed in 0..6 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 5,
                    width: 5,
                    edge_prob: 0.4,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 3, 5);
            let sched = BspSchedule::zeroed(dag.n());
            let mut st = ScheduleState::new(&dag, &machine, &sched);
            let before = st.cost();
            hill_climb(&mut st, &mut Stop::new(None, Some(500)));
            assert!(st.cost() <= before, "seed {seed}");
            assert_eq!(st.cost(), st.recomputed_cost(), "seed {seed}");
            assert!(
                validate_lazy(&dag, 4, &st.snapshot()).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn steepest_picks_the_largest_drop() {
        // Two independent improvements exist: moving the heavy node away
        // (large gain) and moving the light node (small gain). The first
        // accepted move must be the heavy one.
        let mut b = DagBuilder::new();
        b.add_node(10, 1);
        b.add_node(2, 1);
        b.add_node(1, 1);
        let dag = b.build().unwrap();
        let machine = BspParams::new(3, 1, 1);
        let sched = BspSchedule::zeroed(3);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost(); // max work 13 + latency
        let stats = hill_climb_steepest(&mut st, &mut Stop::new(None, Some(1)));
        assert_eq!(stats.accepted, 1);
        // Best single move separates the 10-weight node (or equivalently
        // leaves max at 10): cost drop of 3 beats any other option.
        assert!(
            before - st.cost() >= 3,
            "drop {} too small",
            before - st.cost()
        );
        assert_eq!(st.cost(), st.recomputed_cost());
    }

    #[test]
    fn reaches_local_minimum_and_stays_valid() {
        for seed in 0..4 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 4,
                    width: 5,
                    edge_prob: 0.4,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 3, 5);
            let sched = BspSchedule::zeroed(dag.n());
            let mut st = ScheduleState::new(&dag, &machine, &sched);
            let before = st.cost();
            let stats = hill_climb_steepest(&mut st, &mut Stop::new(None, None));
            assert!(stats.local_minimum, "seed {seed}");
            assert!(st.cost() <= before, "seed {seed}");
            assert_eq!(st.cost(), st.recomputed_cost(), "seed {seed}");
            assert!(
                validate_lazy(&dag, 4, &st.snapshot()).is_ok(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn steepest_final_cost_close_to_greedy() {
        // Paper A.3: the two variants land in comparably good local minima.
        // We assert the weaker reproducible property: both strictly improve
        // the scattered start and end within 2x of each other.
        let dag = random_layered_dag(
            99,
            LayeredConfig {
                layers: 5,
                width: 6,
                edge_prob: 0.35,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 2, 3);
        let sched = BspSchedule::zeroed(dag.n());
        let unlimited = || Stop::new(None, None);

        let mut greedy_state = ScheduleState::new(&dag, &machine, &sched);
        hill_climb(&mut greedy_state, &mut unlimited());
        let mut steep_state = ScheduleState::new(&dag, &machine, &sched);
        hill_climb_steepest(&mut steep_state, &mut unlimited());

        let (g, s) = (greedy_state.cost(), steep_state.cost());
        assert!(s <= 2 * g && g <= 2 * s, "greedy {g} vs steepest {s}");
    }

    #[test]
    fn empty_dag_is_a_trivial_minimum() {
        let dag = DagBuilder::new().build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::zeroed(0);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let stats = hill_climb_steepest(&mut st, &mut Stop::new(None, None));
        assert!(stats.local_minimum);
        assert_eq!(stats.accepted, 0);
    }
}
