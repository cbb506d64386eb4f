use super::*;
use bsp_dag::DagBuilder;
use bsp_schedule::compact::compact_lazy;

fn diamond() -> Dag {
    let mut b = DagBuilder::new();
    let a = b.add_node(1, 2);
    let x = b.add_node(2, 3);
    let y = b.add_node(3, 1);
    let d = b.add_node(1, 1);
    b.add_edge(a, x).unwrap();
    b.add_edge(a, y).unwrap();
    b.add_edge(x, d).unwrap();
    b.add_edge(y, d).unwrap();
    b.build().unwrap()
}

#[test]
fn initial_cost_matches_full_evaluation() {
    let dag = diamond();
    let machine = BspParams::new(2, 3, 5);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let st = ScheduleState::new(&dag, &machine, &sched);
    assert_eq!(st.cost(), st.recomputed_cost());
}

#[test]
fn move_validity_rules() {
    let dag = diamond();
    let machine = BspParams::new(2, 1, 1);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let st = ScheduleState::new(&dag, &machine, &sched);
    // Moving d (node 3) to proc 0 step 1: pred x on proc 0 at step 1 (ok,
    // same proc), pred y on proc 1 at step 1 (needs strict <) -> invalid.
    assert!(!st.is_move_valid(3, 0, 1));
    // d to proc 0 step 2: x same proc earlier ok, y cross at 1 < 2 ok.
    assert!(st.is_move_valid(3, 0, 2));
    // a (node 0) to step 1 proc 0: succ x at step 1 same proc ok, succ y
    // on proc 1 at step 1 needs <, invalid.
    assert!(!st.is_move_valid(0, 0, 1));
}

#[test]
fn apply_move_updates_cost_incrementally() {
    let dag = diamond();
    let machine = BspParams::new(2, 3, 5);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    assert!(st.is_move_valid(3, 0, 2));
    let c = st.apply_move(3, 0, 2);
    assert_eq!(c, st.recomputed_cost());
    // Revert restores the original cost.
    let back = st.apply_move(3, 1, 2);
    assert_eq!(back, st.recomputed_cost());
}

#[test]
fn probe_equals_apply_delta_on_diamond() {
    let dag = diamond();
    let machine = BspParams::new(2, 3, 5);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    for v in 0..4u32 {
        let (cp, cs) = (st.proc(v), st.step(v));
        for s in cs.saturating_sub(1)..=cs + 2 {
            for q in 0..2u32 {
                if (q, s) == (cp, cs) || !st.is_move_valid(v, q, s) {
                    continue;
                }
                let before = st.cost();
                let delta = st.probe_move(v, q, s);
                let after = st.apply_move(v, q, s);
                assert_eq!(
                    after as i64 - before as i64,
                    delta,
                    "probe mismatch for {v} -> ({q}, {s})"
                );
                assert_eq!(st.apply_move(v, cp, cs), before, "revert broken");
            }
        }
    }
}

#[test]
fn probe_is_read_only_beyond_the_step_table() {
    let dag = diamond();
    let machine = BspParams::new(2, 1, 1);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    let steps_before = st.n_steps();
    assert!(st.is_move_valid(3, 0, 5));
    let delta = st.probe_move(3, 0, 5);
    assert_eq!(st.n_steps(), steps_before, "probe must never grow state");
    let before = st.cost();
    let after = st.apply_move(3, 0, 5);
    assert_eq!(after as i64 - before as i64, delta);
    assert!(st.n_steps() >= 6);
}

#[test]
fn moves_grow_superstep_axis() {
    let dag = diamond();
    let machine = BspParams::new(2, 1, 1);
    let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0, 1, 1, 2]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    assert!(st.is_move_valid(3, 0, 5));
    let c = st.apply_move(3, 0, 5);
    assert_eq!(c, st.recomputed_cost());
    assert!(st.n_steps() >= 6);
}

#[test]
fn compact_from_keeps_committed_gaps() {
    let mut b = DagBuilder::new();
    let u = b.add_node(1, 1);
    let v = b.add_node(1, 1);
    b.add_edge(u, v).unwrap();
    let dag = b.build().unwrap();
    let machine = BspParams::new(2, 1, 5);
    // u committed in step 1 (step 0 dispatched empty), v tentative in 9.
    let sched = BspSchedule::from_parts(vec![0, 0], vec![1, 9]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    let before = st.cost();
    st.compact_from(2);
    // Committed steps 0 and 1 survive untouched; 9 pulls down to the
    // frontier.
    assert_eq!(st.snapshot().steps(), &[1, 2]);
    assert_eq!((st.cost(), st.recomputed_cost()), (before, before));
    // Floor 0 is plain `compact_lazy`, transfer phases included.
    let cross = BspSchedule::from_parts(vec![0, 1], vec![2, 7]);
    let mut st = ScheduleState::new(&dag, &machine, &cross);
    st.compact_from(0);
    assert_eq!(st.snapshot(), compact_lazy(&dag, &cross));
    assert_eq!(st.snapshot().steps(), &[0, 2]);
    assert_eq!(st.cost(), st.recomputed_cost());
    // The compacted state still probes and applies exactly.
    let (before, delta) = (st.cost() as i64, st.probe_move(1, 0, 0));
    assert_eq!(st.apply_move(1, 0, 0) as i64 - before, delta);
    assert_eq!(st.cost(), st.recomputed_cost());
}

/// Some probe of `v`'s hill-climbing neighbourhood is negative.
fn improves(st: &ScheduleState<'_>, v: NodeId) -> bool {
    let cur = (st.proc(v), st.step(v));
    (cur.1.saturating_sub(1)..=cur.1 + 1).any(|s| {
        st.valid_procs(v, s)
            .procs(st.p())
            .any(|q| (q, s) != cur && st.probe_move(v, q, s) < 0)
    })
}

#[test]
fn certificate_stands_until_something_it_reads_changes() {
    // u0, u1 → v; z and w pad rows 2 and 1; a → b is a third party
    // whose only contact with v is superstep row 0 = τ(v) − 2.
    let mut b = DagBuilder::new();
    let u0 = b.add_node(1, 3);
    let u1 = b.add_node(1, 2);
    let v = b.add_node(2, 1);
    let _z = b.add_node(2, 1);
    let _w = b.add_node(3, 1);
    let a = b.add_node(1, 4);
    let c = b.add_node(1, 1);
    let far = b.add_node(1, 1);
    b.add_edge(u0, v).unwrap();
    b.add_edge(u1, v).unwrap();
    b.add_edge(a, c).unwrap();
    let dag = b.build().unwrap();
    let machine = BspParams::new(3, 1, 0);
    // u0, u1, v, z, w, a, c, far
    let sched = BspSchedule::from_parts(vec![0, 1, 0, 2, 2, 2, 2, 1], vec![0, 0, 2, 2, 1, 0, 1, 6]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    st.void_certificates();
    assert!(!st.certified(v), "nothing is certified before it is probed");
    assert!(!improves(&st, v));
    st.certify(v);
    assert!(st.certified(v));

    // A move in rows v never reads leaves the certificate standing …
    st.apply_move(far, 0, 7);
    assert!(st.certified(v) && !improves(&st, v));
    // … and one that puts a transfer into phase 0 — where v's move to
    // (p1, 1) would put u0's — voids it: the move is now free there.
    st.apply_move(a, 1, 0);
    assert!(!st.certified(v), "row τ(v) − 2 is part of the read set");
    assert!(improves(&st, v), "and it mattered");
    assert_eq!(st.cost(), st.recomputed_cost());

    // Renumbering voids everything that was certified before it.
    let stuck: Vec<NodeId> = dag.nodes().filter(|&x| !improves(&st, x)).collect();
    assert!(!stuck.is_empty());
    stuck.iter().for_each(|&x| st.certify(x));
    st.apply_move(far, 0, 9);
    assert!(stuck.iter().all(|&x| x == far || st.certified(x)));
    st.compact_from(0);
    assert!(stuck.iter().all(|&x| !st.certified(x)));
}

#[test]
fn appending_a_consumer_voids_its_siblings_certificates() {
    // u → v, y on p1; a → b keeps phase 4 busy on the cells u's
    // transfer would use, e → f keeps phase 2 busy on the other two;
    // w pads v's row, so v leaving it drops no maximum.
    let mut b = DagBuilder::new();
    let u = b.add_node(1, 3);
    let v = b.add_node(1, 1);
    let y = b.add_node(1, 1);
    let a = b.add_node(1, 2);
    let bb = b.add_node(1, 1);
    let e = b.add_node(1, 4);
    let f = b.add_node(1, 1);
    let _w = b.add_node(1, 1);
    for (from, to) in [(u, v), (u, y), (a, bb), (e, f)] {
        b.add_edge(from, to).unwrap();
    }
    let mut dag = b.build().unwrap();
    let machine = BspParams::new(2, 1, 0);
    // u, v, y, a, b, e, f, w
    let sched = BspSchedule::from_parts(vec![0, 1, 1, 0, 1, 1, 0, 0], vec![0, 1, 5, 4, 5, 2, 3, 1]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    st.void_certificates();
    // Pulling v over to u's processor would push u's transfer from
    // phase 0 to phase 4, on top of a's: no gain.
    assert!(!improves(&st, v));
    st.certify(v);
    let tables = st.detach();

    // x consumes u from (p1, 3): not the earliest consumer there, so
    // no transfer moves and only row 3 — which v never reads — is
    // touched. But with v gone, u's transfer would now land in phase
    // 2, under e's, for free.
    dag.append(&[(1, 1, &[u])]).unwrap();
    let st = ScheduleState::attach_appended(&dag, &machine, tables, &[(1, 3)]);
    assert!(st.tables() == ScheduleState::new(&dag, &machine, &st.snapshot()).tables());
    assert!(!st.certified(v), "u's slice changed under v's certificate");
    assert!(improves(&st, v), "and it mattered");
}

#[test]
fn a_tie_beyond_the_cached_maxima_wakes_every_node() {
    // P = 8, ℓ = 0. a0..a3 (work 3) on p0..p3 each send 2 to the next of
    // them: phase 0's h-relation ties at 2 on p0..p3, all TOP_K cached
    // entries. v and z (work 1) on p5 each have one consumer, y on p7 and
    // w on p5 itself.
    let mut b = DagBuilder::new();
    let a: Vec<NodeId> = (0..4).map(|_| b.add_node(3, 2)).collect();
    for &ai in &a {
        let c = b.add_node(1, 1);
        b.add_edge(ai, c).unwrap();
    }
    let [v, y, z, w] = [(); 4].map(|_| b.add_node(1, 1));
    b.add_edge(v, y).unwrap();
    b.add_edge(z, w).unwrap();
    let dag = b.build().unwrap();
    let machine = BspParams::new(8, 1, 0);
    // a0..a3, their consumers, v, y, z, w
    let procs = vec![0, 1, 2, 3, 1, 2, 3, 0, 5, 7, 5, 5];
    let steps = vec![0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 0, 1];
    let mut st = ScheduleState::new(&dag, &machine, &BspSchedule::from_parts(procs, steps));
    // v sends 1 from p5 in phase 0, below the maximum: stuck.
    assert!(!st.may_improve(v));
    st.sleep(v, false);
    // w leaves p5, so z now sends from it too: p5 joins the tie at 2,
    // past the cached entries, and v's transfer is hot. Nothing v's
    // enumeration reads moved; only the row's hotness tells.
    st.apply_move(w, 6, 1);
    assert!(st.may_improve(v));
    assert!(st.is_awake(v), "p5 reached the h-maximum unseen");
}

#[test]
fn emptying_a_superstep_saves_latency() {
    let dag = diamond();
    let machine = BspParams::new(2, 1, 100);
    // d alone in superstep 2.
    let sched = BspSchedule::from_parts(vec![0, 0, 0, 0], vec![0, 1, 1, 2]);
    let mut st = ScheduleState::new(&dag, &machine, &sched);
    let before = st.cost();
    let probed = st.probe_move(3, 0, 1);
    let after = st.apply_move(3, 0, 1);
    assert_eq!(after, st.recomputed_cost());
    assert_eq!(after as i64 - before as i64, probed);
    assert!(
        after + 100 <= before,
        "latency saving not captured: {before} -> {after}"
    );
}
