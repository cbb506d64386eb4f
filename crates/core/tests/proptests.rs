//! Property tests for the scheduling framework.
//!
//! The central invariants:
//! 1. the incremental cost bookkeeping of `ScheduleState` agrees with a
//!    from-scratch evaluation after arbitrary valid move sequences;
//! 2. every algorithm's output is a valid BSP schedule;
//! 3. every refinement stage is monotone (never returns something worse).

mod hc_reference;
mod kernel_reference;

use bsp_core::hc::{best_admissible, hill_climb, hill_climb_from};
use bsp_core::hccs::optimize_comm_schedule;
use bsp_core::init::{bspg_schedule, source_schedule};
use bsp_core::multilevel::{coarsen, multilevel_schedule, MultilevelConfig, Uncoarsening};
use bsp_core::state::{ProbeScratch, ProcWindow, ScheduleState};
use bsp_core::{place_appended, place_new_nodes, repair_precedence_from};
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::topo::is_topological_order;
use bsp_dag::{Dag, DagBuilder, NodeId, TopoInfo};
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::cost::{lazy_cost, total_cost};
use bsp_schedule::solve::{SolveCx, SolveRequest, Stop};
use bsp_schedule::validity::{validate, validate_lazy};
use bsp_schedule::BspSchedule;
use hc_reference::hill_climb_reference;
use kernel_reference::RefScheduleState;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_dag() -> impl Strategy<Value = Dag> {
    (0u64..400, 2usize..6, 2usize..6, 0.15f64..0.7).prop_map(|(seed, layers, width, p)| {
        random_layered_dag(
            seed,
            LayeredConfig {
                layers,
                width,
                edge_prob: p,
                max_work: 7,
                max_comm: 5,
            },
        )
    })
}

fn arb_machine() -> impl Strategy<Value = BspParams> {
    (1usize..3u32 as usize, 1u64..6, 0u64..8, proptest::bool::ANY).prop_map(|(pe, g, l, numa)| {
        let p = [2usize, 4, 8][pe];
        let m = BspParams::new(p, g, l);
        if numa {
            m.with_numa(NumaTopology::binary_tree(p, 2 + g % 3))
        } else {
            m
        }
    })
}

fn arb_erdos_dag() -> impl Strategy<Value = Dag> {
    (0u64..400, 2usize..28, 0.02f64..0.4)
        .prop_map(|(seed, n, q)| random_order_dag(seed, n, q, 7, 5))
}

fn random_valid_assignment(dag: &Dag, p: u32, seed: u64) -> BspSchedule {
    let topo = TopoInfo::new(dag);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sched = BspSchedule::zeroed(dag.n());
    for &v in &topo.order {
        let proc = rng.gen_range(0..p);
        let mut min_step = 0u32;
        for &u in dag.predecessors(v) {
            let req = if sched.proc(u) == proc {
                sched.step(u)
            } else {
                sched.step(u) + 1
            };
            min_step = min_step.max(req);
        }
        sched.set(v, proc, min_step + rng.gen_range(0..2));
    }
    sched
}

/// Drives random valid moves through the flat kernel and the historical
/// reference side by side: `probe_move` must equal the applied delta
/// bit-for-bit, and both kernels must track identical total costs.
fn probe_contract(
    dag: &Dag,
    machine: &BspParams,
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let p = machine.p() as u32;
    let sched = random_valid_assignment(dag, p, seed);
    let mut st = ScheduleState::new(dag, machine, &sched);
    let mut reference = RefScheduleState::new(dag, machine, &sched);
    prop_assert_eq!(st.cost(), reference.cost());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9b0b);
    let mut checked = 0;
    for _ in 0..60 {
        if dag.n() == 0 {
            break;
        }
        let v = rng.gen_range(0..dag.n() as u32);
        let q = rng.gen_range(0..p);
        let s = st.step(v).saturating_sub(1) + rng.gen_range(0..3);
        // The batched validity window must agree with the per-candidate check.
        let windowed = match st.valid_procs(v, s) {
            ProcWindow::All => true,
            ProcWindow::Only(w) => w == q,
            ProcWindow::None => false,
        };
        prop_assert_eq!(st.is_move_valid(v, q, s), windowed, "window disagrees");
        if (q, s) == (st.proc(v), st.step(v)) || !st.is_move_valid(v, q, s) {
            continue;
        }
        let steps_before = st.n_steps();
        let before = st.cost();
        let delta = st.probe_move(v, q, s);
        prop_assert_eq!(st.n_steps(), steps_before, "probe grew the step table");
        prop_assert_eq!(st.cost(), before, "probe changed the cost");
        let after = st.apply_move(v, q, s);
        prop_assert_eq!(
            after as i64 - before as i64,
            delta,
            "probe({}, {}, {}) disagrees with the applied delta",
            v,
            q,
            s
        );
        prop_assert_eq!(reference.apply_move(v, q, s), after, "kernels diverged");
        checked += 1;
        if rng.gen_bool(0.25) {
            prop_assert_eq!(st.cost(), st.recomputed_cost());
        }
    }
    // The generators above always admit some valid move on non-trivial DAGs.
    prop_assert!(dag.n() < 2 || checked > 0);
    prop_assert_eq!(st.cost(), st.recomputed_cost());
    Ok(())
}

/// Machines for the sweep-pruning properties: `P` from 1 up (so `P = 1`
/// and `P < TOP_K = 4` rows are covered), uniform or NUMA tree / ring.
fn arb_prune_machine() -> impl Strategy<Value = BspParams> {
    (0usize..5, 1u64..6, 0u64..8, 0usize..3).prop_map(|(pe, g, l, kind)| {
        let p = [1usize, 2, 3, 4, 8][pe];
        let m = BspParams::new(p, g, l);
        match kind {
            1 if p.is_power_of_two() && p >= 2 => {
                m.with_numa(NumaTopology::binary_tree(p, 2 + g % 3))
            }
            2 if p >= 2 => m.with_numa(NumaTopology::ring(p)),
            _ => m,
        }
    })
}

/// `dag` with about a quarter of its nodes' work and a quarter of their
/// communication weights set to zero (the generators only draw `≥ 1`).
fn with_zeroed_weights(dag: &Dag, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2e20);
    let mut b = DagBuilder::new();
    for v in dag.nodes() {
        let work = if rng.gen_bool(0.25) { 0 } else { dag.work(v) };
        let comm = if rng.gen_bool(0.25) { 0 } else { dag.comm(v) };
        b.add_node(work, comm);
    }
    for (u, v) in dag.edges() {
        b.add_edge(u, v).unwrap();
    }
    b.build().unwrap()
}

/// Soundness of the sweep filter at the current state: a node that
/// `may_improve` rules out has no negative probe anywhere in the
/// hill-climbing neighbourhood. Returns how many nodes were ruled out.
fn pruned_nodes_have_no_improving_move(
    st: &ScheduleState<'_>,
) -> Result<usize, proptest::test_runner::TestCaseError> {
    let mut pruned = 0;
    for v in st.dag().nodes() {
        if st.may_improve(v) {
            continue;
        }
        pruned += 1;
        let found = has_improving_probe(st, v);
        prop_assert!(found.is_none(), "pruned node {} improves: {:?}", v, found);
    }
    Ok(pruned)
}

fn prune_soundness(
    dag: &Dag,
    machine: &BspParams,
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let p = machine.p() as u32;
    let sched = random_valid_assignment(dag, p, seed);
    let mut st = ScheduleState::new(dag, machine, &sched);
    pruned_nodes_have_no_improving_move(&st)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50fd);
    for _ in 0..30 {
        let v = rng.gen_range(0..dag.n() as u32);
        let q = rng.gen_range(0..p);
        let s = st.step(v).saturating_sub(1) + rng.gen_range(0..3);
        if st.is_move_valid(v, q, s) {
            st.apply_move(v, q, s);
            pruned_nodes_have_no_improving_move(&st)?;
        }
    }
    // At a local minimum every node fails all its probes; the filter must
    // still never contradict one (and here it has the most to rule out).
    let floor = rng.gen_range(0..3);
    hill_climb_from(&mut st, &mut Stop::new(None, None), floor);
    pruned_nodes_have_no_improving_move(&st)?;
    Ok(())
}

/// Soundness of the candidate lower bound at the current state: for every
/// valid candidate `(q, s)` of every node's hill-climbing window,
/// `target_rise(v, q, s) − gain_bound(v) ≤ probe_move(v, q, s)`, and a
/// node `may_improve` rules out has nothing to gain.
fn candidate_bound_holds(
    st: &ScheduleState<'_>,
    sc: &mut ProbeScratch,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for v in st.dag().nodes() {
        let bound = st.gain_bound(sc, v);
        prop_assert!(
            st.may_improve(v) || bound == 0,
            "pruned node {} has gain bound {}",
            v,
            bound
        );
        let cur = (st.proc(v), st.step(v));
        for s in cur.1.saturating_sub(1)..=cur.1 + 1 {
            for q in st.valid_procs(v, s).procs(st.p()) {
                if (q, s) == cur {
                    continue;
                }
                let rise = st.target_rise(v, q, s);
                let delta = st.probe_move(v, q, s);
                prop_assert!(
                    rise as i64 - bound as i64 <= delta,
                    "move of {} to ({}, {}): rise {} − bound {} > delta {}",
                    v,
                    q,
                    s,
                    rise,
                    bound,
                    delta
                );
            }
        }
    }
    Ok(())
}

/// Soundness of the move floor at the current state: for every valid
/// candidate `(q, s)` of every node's hill-climbing window,
/// `probe_move(v, q, s) ≥ move_floor(v, q, s) ≥ target_rise(v, q, s) −
/// gain_bound(v)`. The candidates are probed through the scratch that
/// holds the node's fold, as hill climbing probes them: the fold must
/// survive the probes.
fn move_floor_holds(
    st: &ScheduleState<'_>,
    sc: &mut ProbeScratch,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for v in st.dag().nodes() {
        let bound = st.gain_bound(sc, v);
        let cur = (st.proc(v), st.step(v));
        for s in cur.1.saturating_sub(1)..=cur.1 + 1 {
            for q in st.valid_procs(v, s).procs(st.p()) {
                if (q, s) == cur {
                    continue;
                }
                let floor = st.move_floor(sc, v, q, s);
                let rise = st.target_rise(v, q, s);
                let delta = st.probe_move_in(sc, v, q, s);
                prop_assert!(
                    rise as i64 - bound as i64 <= floor && floor <= delta,
                    "move of {} to ({}, {}): rise {} − bound {} ≤ floor {} ≤ delta {} fails",
                    v,
                    q,
                    s,
                    rise,
                    bound,
                    floor,
                    delta
                );
            }
        }
    }
    Ok(())
}

/// Every valid move of `st`'s neighbourhood with its delta, in `(v, s, q)`
/// order, one `is_move_valid` per processor: the brute-force scan.
fn all_moves(st: &ScheduleState<'_>) -> Vec<(NodeId, u32, u32, i64)> {
    let mut moves = Vec::new();
    for v in st.dag().nodes() {
        let cur = (st.proc(v), st.step(v));
        for s in cur.1.saturating_sub(1)..=cur.1 + 1 {
            for q in 0..st.p() {
                if (q, s) != cur && st.is_move_valid(v, q, s) {
                    moves.push((v, q, s, st.probe_move(v, q, s)));
                }
            }
        }
    }
    moves
}

/// [`best_admissible`] finds the first admitted minimum of the brute-force
/// scan, under a hashed test that rejects about a third of the candidates
/// and under steepest descent's `delta < 0` — which admits nothing exactly
/// at a local minimum.
fn first_admitted_minimum_holds(
    st: &ScheduleState<'_>,
    sc: &mut ProbeScratch,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let moves = all_moves(st);
    let first_min = |admit: &dyn Fn(NodeId, u32, u32, i64) -> bool| {
        let admitted = moves.iter().filter(|&&(v, q, s, d)| admit(v, q, s, d));
        admitted.min_by_key(|m| m.3).copied()
    };
    let salt = st.cost();
    let hashed = move |v: NodeId, q: u32, s: u32, _| {
        let key = u64::from(v) << 42 ^ u64::from(q) << 21 ^ u64::from(s) ^ salt << 7;
        !(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32).is_multiple_of(3)
    };
    prop_assert_eq!(best_admissible(st, sc, hashed), first_min(&hashed));
    let descent = best_admissible(st, sc, |_, _, _, d| d < 0);
    prop_assert_eq!(descent, first_min(&|_, _, _, d| d < 0));
    prop_assert_eq!(descent.is_none(), moves.iter().all(|m| m.3 >= 0));
    Ok(())
}

/// `holds` on a random schedule, after every move of a random sequence
/// (with a compaction now and then) and at a local minimum; `salt` picks
/// the sequence.
fn holds_along_a_walk(
    dag: &Dag,
    machine: &BspParams,
    seed: u64,
    salt: u64,
    holds: fn(
        &ScheduleState<'_>,
        &mut ProbeScratch,
    ) -> Result<(), proptest::test_runner::TestCaseError>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let p = machine.p() as u32;
    let sched = random_valid_assignment(dag, p, seed);
    let mut st = ScheduleState::new(dag, machine, &sched);
    let mut sc = ProbeScratch::default();
    holds(&st, &mut sc)?;
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    for _ in 0..20 {
        let v = rng.gen_range(0..dag.n() as u32);
        let q = rng.gen_range(0..p);
        let s = st.step(v).saturating_sub(1) + rng.gen_range(0..3);
        if st.is_move_valid(v, q, s) {
            st.apply_move(v, q, s);
            holds(&st, &mut sc)?;
        }
        if rng.gen_range(0..6) == 0 {
            st.compact_from(rng.gen_range(0..3));
            holds(&st, &mut sc)?;
        }
    }
    let floor = rng.gen_range(0..3);
    hill_climb_from(&mut st, &mut Stop::new(None, None), floor);
    holds(&st, &mut sc)
}

/// The first improving probe `(q, s, delta)` of `v`'s hill-climbing
/// neighbourhood, if there is one.
fn has_improving_probe(st: &ScheduleState<'_>, v: NodeId) -> Option<(u32, u32, i64)> {
    let tau = st.step(v);
    for s in tau.saturating_sub(1)..=tau + 1 {
        for q in st.valid_procs(v, s).procs(st.p()) {
            // The null move probes as 0.
            let delta = st.probe_move(v, q, s);
            if delta < 0 {
                return Some((q, s, delta));
            }
        }
    }
    None
}

/// Issues a failure certificate to every node that has no improving probe.
fn certify_stuck_nodes(st: &mut ScheduleState<'_>) {
    for v in 0..st.n() as NodeId {
        if has_improving_probe(st, v).is_none() {
            st.certify(v);
        }
    }
}

/// Soundness of the certificates at the current state: a node whose
/// certificate still stands has no improving probe. Returns how many
/// stand.
fn certified_nodes_have_no_improving_move(
    st: &ScheduleState<'_>,
    after: &str,
) -> Result<usize, proptest::test_runner::TestCaseError> {
    let mut standing = 0;
    for v in 0..st.n() as NodeId {
        if st.certified(v) {
            standing += 1;
            let found = has_improving_probe(st, v);
            prop_assert!(
                found.is_none(),
                "after {}: certified node {} improves: {:?}",
                after,
                v,
                found
            );
        }
    }
    Ok(standing)
}

/// Certificates under random mutations: certify every stuck node, then
/// apply random valid moves (improving or not), now and then squeeze out
/// the empty supersteps or re-certify; after every mutation each
/// certificate that still stands must be true.
fn certificate_soundness(
    dag: &Dag,
    machine: &BspParams,
    seed: u64,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let p = machine.p() as u32;
    let sched = random_valid_assignment(dag, p, seed);
    let mut st = ScheduleState::new(dag, machine, &sched);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xce27);
    // Start from a partly converged schedule, where certificates are many.
    hill_climb(&mut st, &mut Stop::new(None, Some(rng.gen_range(0..30))));
    st.void_certificates();
    prop_assert_eq!(certified_nodes_have_no_improving_move(&st, "voiding")?, 0);
    certify_stuck_nodes(&mut st);
    for _ in 0..40 {
        let v = rng.gen_range(0..dag.n() as u32);
        let q = rng.gen_range(0..p);
        let s = st.step(v).saturating_sub(1) + rng.gen_range(0..3);
        if st.is_move_valid(v, q, s) {
            st.apply_move(v, q, s);
            certified_nodes_have_no_improving_move(&st, "a move")?;
        }
        match rng.gen_range(0..8) {
            0 => {
                st.compact_from(rng.gen_range(0..3));
                certified_nodes_have_no_improving_move(&st, "compaction")?;
            }
            1 => certify_stuck_nodes(&mut st),
            _ => {}
        }
    }
    prop_assert_eq!(st.cost(), st.recomputed_cost());
    Ok(())
}

/// The node-id prefix `0..k` of a DAG whose edges ascend in id.
fn prefix_of(dag: &Dag, k: usize) -> Dag {
    dag.induced_subgraph(&(0..k as NodeId).collect::<Vec<_>>())
        .0
}

/// No node at or above `floor` sleeps while `may_improve` says it may
/// move: the awake set's invariant.
fn sleepers_are_stuck(
    st: &ScheduleState<'_>,
    floor: u32,
    after: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    for v in 0..st.n() as NodeId {
        prop_assert!(
            st.is_awake(v) || st.step(v) < floor || !st.may_improve(v),
            "after {}: node {} sleeps but may improve",
            after,
            v
        );
    }
    Ok(())
}

/// A climb of the kept state `st`, capped at `cap` moves, at `floor`:
/// it moves as the plain loop does on a state built fresh from the same
/// assignment (which has every node awake), and leaves the awake set's
/// invariant standing.
fn kept_climb_is_fresh_climb(
    st: &mut ScheduleState<'_>,
    cap: usize,
    floor: u32,
    after: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    sleepers_are_stuck(st, floor, after)?;
    let mut fresh = ScheduleState::new(st.dag(), st.machine(), &st.snapshot());
    let plain = hill_climb_reference(&mut fresh, cap, floor, |_, _| true);
    let kept = hill_climb_from(st, &mut Stop::new(None, Some(cap)), floor);
    prop_assert_eq!(
        (kept.accepted, kept.local_minimum),
        (plain.accepted, plain.local_minimum),
        "climb after {}",
        after
    );
    prop_assert_eq!(st.snapshot(), fresh.snapshot(), "climb after {}", after);
    sleepers_are_stuck(st, floor, "a climb")
}

/// Grows a state batch by batch the way the online append path does and
/// checks, after every batch, that (a) `place_appended` puts the new
/// nodes where `place_new_nodes` + frontier clamp +
/// `repair_precedence_from` put them, (b) the appended tables equal the
/// ones `ScheduleState::new` builds from the same assignment, (c) the
/// certificates issued before the batch that still stand are true.
/// Between batches the state takes random moves and compactions, so the
/// tables being extended are lived-in ones. After the append and after
/// every move and compaction, a capped climb at a floor that never
/// decreases checks the awake set ([`kept_climb_is_fresh_climb`]).
fn append_equivalence(
    dag: &Dag,
    machine: &BspParams,
    seed: u64,
    cut: usize,
    batch: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert!(
        dag.edges().all(|(u, v)| u < v),
        "generators number along edges"
    );
    let p = machine.p() as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa99e);
    let mut at = cut.min(dag.n());
    let mut graph = prefix_of(dag, at);
    let start = random_valid_assignment(&graph, p, seed);
    let mut tables = ScheduleState::new(&graph, machine, &start).detach();
    let mut climb_floor = 0;
    while at < dag.n() {
        let to = (at + batch).min(dag.n());
        let old = tables.schedule().clone();
        let floor = rng.gen_range(0..=old.n_supersteps());
        graph = prefix_of(dag, to);

        // (a) against the general path.
        let placed = place_appended(&graph, machine, &tables, floor);
        let mut assign: Vec<Option<(u32, u32)>> = (0..at as NodeId)
            .map(|v| Some((old.proc(v), old.step(v))))
            .collect();
        assign.resize(to, None);
        let topo = TopoInfo::new(&graph);
        let mut general = place_new_nodes(&graph, &topo, machine, &assign);
        for v in at as NodeId..to as NodeId {
            if general.step(v) < floor {
                general.set(v, general.proc(v), floor);
            }
        }
        let general = repair_precedence_from(&graph, &topo, &general, floor).unwrap();
        let appended: Vec<(u32, u32)> = (at as NodeId..to as NodeId)
            .map(|v| (general.proc(v), general.step(v)))
            .collect();
        prop_assert_eq!(&placed, &appended, "placement of nodes {}..{}", at, to);
        prop_assert_eq!(&general.procs()[..at], old.procs());
        prop_assert_eq!(&general.steps()[..at], old.steps());

        // (b) + (c).
        let mut st = ScheduleState::attach_appended(&graph, machine, tables, &placed);
        let fresh = ScheduleState::new(&graph, machine, &general);
        prop_assert!(
            st.tables() == fresh.tables(),
            "tables after appending {}..{}",
            at,
            to
        );
        prop_assert_eq!(st.cost(), st.recomputed_cost());
        certified_nodes_have_no_improving_move(&st, "an append")?;

        // Live in the state a little before the next batch.
        climb_floor += rng.gen_bool(0.3) as u32;
        kept_climb_is_fresh_climb(&mut st, rng.gen_range(1..8), climb_floor, "an append")?;
        for _ in 0..rng.gen_range(0..6) {
            let v = rng.gen_range(0..to as u32);
            let q = rng.gen_range(0..p);
            let s = st.step(v).saturating_sub(1) + rng.gen_range(0..3);
            if st.is_move_valid(v, q, s) {
                st.apply_move(v, q, s);
                kept_climb_is_fresh_climb(&mut st, rng.gen_range(1..8), climb_floor, "a move")?;
            }
        }
        st.compact_from(rng.gen_range(0..=st.tables().n_supersteps()));
        prop_assert_eq!(st.tables().n_supersteps(), st.snapshot().n_supersteps());
        let lived_in = ScheduleState::new(&graph, machine, &st.snapshot());
        prop_assert!(
            st.tables() == lived_in.tables(),
            "tables after moves and compaction"
        );
        kept_climb_is_fresh_climb(&mut st, rng.gen_range(1..8), climb_floor, "compaction")?;
        // Hand compact tables on, as a re-plan does after its climb.
        st.compact_from(rng.gen_range(0..=st.tables().n_supersteps()));
        sleepers_are_stuck(&st, climb_floor, "the last compaction")?;
        st.void_certificates();
        certify_stuck_nodes(&mut st);
        tables = st.detach();
        at = to;
    }
    Ok(())
}

fn prune_equivalence(
    dag: &Dag,
    machine: &BspParams,
    seed: u64,
    max_moves: Option<usize>,
    floor: u32,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let sched = random_valid_assignment(dag, machine.p() as u32, seed);
    let mut pruned = ScheduleState::new(dag, machine, &sched);
    let mut reference = ScheduleState::new(dag, machine, &sched);
    let stats = hill_climb_from(&mut pruned, &mut Stop::new(None, max_moves), floor);
    // The plain loop: neither `may_improve` nor failure certificates.
    let plain = hill_climb_reference(
        &mut reference,
        max_moves.unwrap_or(usize::MAX),
        floor,
        |_, _| true,
    );
    prop_assert_eq!(
        (stats.accepted, stats.local_minimum),
        (plain.accepted, plain.local_minimum)
    );
    prop_assert_eq!(pruned.snapshot(), reference.snapshot());
    prop_assert_eq!(pruned.cost(), reference.cost());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heart of HC: incremental cost == full re-evaluation after any
    /// sequence of random valid moves (applied AND reverted).
    #[test]
    fn incremental_cost_matches_full_recompute(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        let p = machine.p() as u32;
        let sched = random_valid_assignment(&dag, p, seed);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        prop_assert_eq!(st.cost(), st.recomputed_cost());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..40 {
            let v = rng.gen_range(0..dag.n() as u32);
            let q = rng.gen_range(0..p);
            let s = st.step(v).saturating_sub(1) + rng.gen_range(0..3);
            if st.is_move_valid(v, q, s) {
                st.apply_move(v, q, s);
                if rng.gen_bool(0.3) {
                    prop_assert_eq!(
                        st.cost(),
                        st.recomputed_cost(),
                        "after move of {} to ({}, {})",
                        v,
                        q,
                        s
                    );
                }
            }
        }
        prop_assert_eq!(st.cost(), st.recomputed_cost());
        prop_assert!(validate_lazy(&dag, machine.p(), &st.snapshot()).is_ok());
    }

    /// The probe contract on layered DAGs:
    /// `probe_move(v,q,s) == apply_move(v,q,s) − cost_before`, bit-for-bit,
    /// for random valid moves — and the flat kernel agrees move-by-move
    /// with the historical BTreeMap/apply-revert implementation.
    #[test]
    fn probe_equals_apply_delta_layered(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        probe_contract(&dag, &machine, seed)?;
    }

    /// Same probe contract on Erdős–Rényi (random-order) DAGs, whose degree
    /// distribution and bucket shapes differ from the layered family.
    #[test]
    fn probe_equals_apply_delta_erdos(
        dag in arb_erdos_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        probe_contract(&dag, &machine, seed)?;
    }

    /// Hill climbing: monotone, consistent, valid.
    #[test]
    fn hill_climb_monotone_and_consistent(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        let sched = random_valid_assignment(&dag, machine.p() as u32, seed);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost();
        hill_climb(&mut st, &mut Stop::new(None, Some(200)));
        prop_assert!(st.cost() <= before);
        prop_assert_eq!(st.cost(), st.recomputed_cost());
        prop_assert!(validate_lazy(&dag, machine.p(), &st.snapshot()).is_ok());
    }

    /// Sweep pruning is sound on layered DAGs (with zero-work and
    /// zero-comm nodes): `!may_improve(v)` ⇒ every probe of `v` is `≥ 0`,
    /// on random schedules, after random move sequences and at a local
    /// minimum.
    #[test]
    fn may_improve_is_sound_layered(
        dag in arb_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
    ) {
        prune_soundness(&dag, &machine, seed)?;
        prune_soundness(&with_zeroed_weights(&dag, seed), &machine, seed)?;
    }

    /// The same on Erdős–Rényi DAGs.
    #[test]
    fn may_improve_is_sound_erdos(
        dag in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
    ) {
        prune_soundness(&dag, &machine, seed)?;
        prune_soundness(&with_zeroed_weights(&dag, seed), &machine, seed)?;
    }

    /// The candidate lower bound is sound on layered and Erdős–Rényi DAGs
    /// (with zero-work and zero-comm nodes, NUMA machines included):
    /// `target_rise − gain_bound ≤ probe_move` for every valid candidate,
    /// on random schedules, after random moves and compactions and at a
    /// local minimum.
    #[test]
    fn candidate_lower_bound_is_sound(
        layered in arb_dag(),
        erdos in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
    ) {
        for dag in [layered, erdos] {
            holds_along_a_walk(&dag, &machine, seed, 0xb0d5, candidate_bound_holds)?;
            let zeroed = with_zeroed_weights(&dag, seed);
            holds_along_a_walk(&zeroed, &machine, seed, 0xb0d5, candidate_bound_holds)?;
        }
    }

    /// The move floor is sound and at least the candidate lower bound, on
    /// layered and Erdős–Rényi DAGs (with zero-work and zero-comm nodes,
    /// NUMA machines included): `probe_move ≥ move_floor ≥ target_rise −
    /// gain_bound` for every valid candidate, on random schedules, after
    /// random moves and compactions and at a local minimum.
    #[test]
    fn move_floor_is_sound(
        layered in arb_dag(),
        erdos in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
    ) {
        for dag in [layered, erdos] {
            holds_along_a_walk(&dag, &machine, seed, 0xf10a, move_floor_holds)?;
            let zeroed = with_zeroed_weights(&dag, seed);
            holds_along_a_walk(&zeroed, &machine, seed, 0xf10a, move_floor_holds)?;
        }
    }

    /// The one full-neighbourhood scan is the first admitted minimum of a
    /// brute-force scan, on layered and Erdős–Rényi DAGs (NUMA machines
    /// included), along a random walk and at a local minimum.
    #[test]
    fn best_admissible_is_the_first_admitted_minimum(
        layered in arb_dag(),
        erdos in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
    ) {
        for dag in [layered, erdos] {
            holds_along_a_walk(&dag, &machine, seed, 0x5ca7, first_admitted_minimum_holds)?;
        }
    }

    /// A failure certificate that still stands is true: after random
    /// moves, compactions and re-certifications, no certified node has an
    /// improving probe (zero-weight nodes and NUMA machines included).
    #[test]
    fn certificates_are_sound(
        layered in arb_dag(),
        erdos in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
    ) {
        for dag in [layered, erdos] {
            certificate_soundness(&dag, &machine, seed)?;
            certificate_soundness(&with_zeroed_weights(&dag, seed), &machine, seed)?;
        }
    }

    /// The append path of the online re-plan: placements equal the
    /// general path's, appended tables equal freshly built ones, and
    /// certificates survive an append only where they stay true.
    #[test]
    fn appended_state_equals_a_rebuilt_one(
        layered in arb_dag(),
        erdos in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
        cut in 0usize..12,
        batch in 1usize..9,
    ) {
        for dag in [layered, erdos] {
            append_equivalence(&dag, &machine, seed, cut, batch)?;
            append_equivalence(&with_zeroed_weights(&dag, seed), &machine, seed, cut, batch)?;
        }
    }

    /// The hill climb with both filters — `may_improve` and the failure
    /// certificates — equals the unfiltered reference loop in accepted
    /// moves, `local_minimum` and final assignment, move for move — with
    /// and without a move cap, with and without a committed floor.
    #[test]
    fn pruned_hill_climb_equals_unpruned_reference(
        layered in arb_dag(),
        erdos in arb_erdos_dag(),
        machine in arb_prune_machine(),
        seed in 0u64..10_000,
        cap in 0usize..40,
        floor in 0u32..4,
    ) {
        // `cap == 0` stands for "no cap".
        let cap = (cap > 0).then_some(cap);
        for dag in [layered, erdos] {
            prune_equivalence(&dag, &machine, seed, cap, floor)?;
            prune_equivalence(&with_zeroed_weights(&dag, seed), &machine, seed, cap, floor)?;
        }
    }

    /// Initializers always produce valid schedules covering all nodes.
    #[test]
    fn initializers_always_valid(dag in arb_dag(), machine in arb_machine()) {
        let a = bspg_schedule(&dag, &machine);
        prop_assert!(validate_lazy(&dag, machine.p(), &a).is_ok());
        let b = source_schedule(&dag, &machine);
        prop_assert!(validate_lazy(&dag, machine.p(), &b).is_ok());
    }

    /// HCcs: the explicit Γ it returns is valid and costs no more than lazy.
    #[test]
    fn hccs_valid_and_never_worse_than_lazy(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        let sched = random_valid_assignment(&dag, machine.p() as u32, seed);
        let (comm, cost) = optimize_comm_schedule(&dag, &machine, &sched, &mut Stop::new(None, Some(300)));
        prop_assert!(validate(&dag, machine.p(), &sched, &comm).is_ok());
        prop_assert_eq!(cost, total_cost(&dag, &machine, &sched, &comm));
        prop_assert!(cost <= lazy_cost(&dag, &machine, &sched));
    }

    /// Coarsening invariants: acyclic at every prefix, weights conserved.
    #[test]
    fn coarsening_prefixes_stay_acyclic(dag in arb_dag(), keep in 0.1f64..0.9) {
        let target = ((dag.n() as f64) * keep) as usize;
        let log = coarsen(&dag, target.max(1), &MultilevelConfig::default());
        for k in [log.len() / 2, log.len()] {
            let stage = Uncoarsening::new(&dag, &log[..k]).stage();
            let topo = TopoInfo::new(&stage);
            prop_assert!(is_topological_order(&stage, &topo.order));
            prop_assert_eq!(stage.total_work(), dag.total_work());
            prop_assert_eq!(stage.n(), dag.n() - k);
        }
    }

    /// The window-ILP formulation: the incumbent schedule always maps to a
    /// feasible point of the model, for random windows — the strongest
    /// single check of the ILPfull/ILPpart constraint system.
    #[test]
    fn window_ilp_warm_start_always_feasible(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        use bsp_core::ilp::window::{WindowIlp, WindowOptions};
        use bsp_schedule::compact::compact_lazy;
        let sched = random_valid_assignment(&dag, machine.p() as u32, seed);
        let sched = compact_lazy(&dag, &sched);
        let s_max = sched.n_supersteps();
        if s_max == 0 {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc1);
        let s1 = rng.gen_range(0..s_max);
        let s2 = rng.gen_range(s1..s_max);
        let w = WindowIlp::build(&dag, &machine, &sched, s1, s2, WindowOptions::default());
        let warm = w.warm_start(&dag, &machine, &sched);
        prop_assert!(
            w.model.is_feasible(&warm, 1e-5),
            "warm start infeasible for window [{},{}] of {} steps", s1, s2, s_max
        );
    }

    /// End-to-end multilevel produces valid schedules.
    #[test]
    fn multilevel_valid(dag in arb_dag(), machine in arb_machine()) {
        let mut base = |d: &Dag, m: &BspParams| {
            let s = bspg_schedule(d, m);
            let mut st = ScheduleState::new(d, m, &s);
            hill_climb(&mut st, &mut Stop::new(None, Some(100)));
            st.snapshot()
        };
        let cfg = MultilevelConfig { ratios: vec![0.3], ..Default::default() };
        let sched = multilevel_schedule(&dag, &machine, &cfg, &mut base, &mut Stop::new(None, None));
        prop_assert!(validate_lazy(&dag, machine.p(), &sched).is_ok());
    }

    /// Steepest-descent HC: monotone, incrementally consistent, valid.
    #[test]
    fn steepest_monotone_and_consistent(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        use bsp_core::hc::hill_climb_steepest;
        let sched = random_valid_assignment(&dag, machine.p() as u32, seed);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        let before = st.cost();
        hill_climb_steepest(&mut st, &mut Stop::new(None, Some(40)));
        prop_assert!(st.cost() <= before);
        prop_assert_eq!(st.cost(), st.recomputed_cost());
        prop_assert!(validate_lazy(&dag, machine.p(), &st.snapshot()).is_ok());
    }

    /// Tabu search: the returned best is valid, its reported cost is exact,
    /// and it never loses to the input — even though the walk climbs — and
    /// it is deterministic.
    #[test]
    fn tabu_never_worse_and_deterministic(
        dag in arb_dag(),
        machine in arb_machine(),
        seed in 0u64..10_000,
    ) {
        use bsp_core::tabu::{tabu_search, TabuConfig};
        let sched = random_valid_assignment(&dag, machine.p() as u32, seed);
        let input = lazy_cost(&dag, &machine, &sched);
        let cfg = TabuConfig { max_iters: 60, stall_limit: 25, tenure: 8 };
        let (best, cost, _) = tabu_search(&dag, &machine, &sched, &cfg, &mut Stop::new(None, None));
        prop_assert!(cost <= input);
        prop_assert_eq!(cost, lazy_cost(&dag, &machine, &best));
        prop_assert!(validate_lazy(&dag, machine.p(), &best).is_ok());
        let (best2, cost2, _) = tabu_search(&dag, &machine, &sched, &cfg, &mut Stop::new(None, None));
        prop_assert_eq!(cost, cost2);
        prop_assert_eq!(best, best2);
    }

    /// Auto-selection: the chosen strategy is consistent with the dominance
    /// metric and the result is always a valid schedule.
    #[test]
    fn auto_strategy_consistent_with_dominance(
        dag in arb_dag(),
        machine in arb_machine(),
    ) {
        use bsp_core::auto::{comm_dominance, solve_auto, AutoConfig, Strategy};
        use bsp_core::pipeline::PipelineConfig;
        let pipe = PipelineConfig { enable_ilp: false, ..Default::default() };
        let auto = AutoConfig { min_nodes_for_ml: 10, ..AutoConfig::default() };
        let mut cx = SolveCx::new("auto", &SolveRequest::new(&dag, &machine));
        let (r, strat) = solve_auto(&dag, &machine, &pipe, &auto, &mut cx);
        prop_assert!(validate(&dag, machine.p(), &r.sched, &r.comm).is_ok());
        let dom = comm_dominance(&dag, &machine);
        if dag.n() >= auto.min_nodes_for_ml {
            match strat {
                Strategy::Base => prop_assert!(dom < auto.ccr_lo),
                Strategy::Multilevel => prop_assert!(dom >= auto.ccr_hi),
                Strategy::Both => prop_assert!(dom >= auto.ccr_lo && dom < auto.ccr_hi),
            }
        } else {
            prop_assert_eq!(strat, Strategy::Base);
        }
    }
}
