//! The production scheduler against the pre-append-path reference
//! (`reference/mod.rs`), push by push: same graph, same schedule, same
//! frontier, same suffix view, same report (but for the wall-clock
//! field), same errors at the same push, same sealed outcome — whichever
//! of the two re-plan paths each batch took.

mod reference;

use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::Dag;
use bsp_instance::trace::{arrival_trace, ArrivalEvent, ArrivalOrder, ArrivalTrace, TraceConfig};
use bsp_model::{BspParams, NumaTopology};
use bsp_online::{replay, BatchReport, OnlineConfig, OnlineError, OnlineScheduler};
use bsp_schedule::prefix::validate_prefix;
use bsp_schedule::validity::validate;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reference::RefScheduler;
use std::time::Duration;

/// Only the move cap ever binds, so both schedulers take the same
/// decisions on any host.
fn cfg(batch_size: usize) -> OnlineConfig {
    let mut cfg = OnlineConfig::default();
    cfg.batch_size = batch_size;
    cfg.budget_per_arrival = Duration::from_secs(60);
    cfg.moves_per_arrival = Some(16);
    cfg
}

fn timeless(r: Option<BatchReport>) -> Option<BatchReport> {
    r.map(|r| BatchReport { elapsed_us: 0, ..r })
}

/// Pushes `events` through both schedulers, comparing everything
/// observable after every push. Returns the error both stopped on, if
/// any.
fn lockstep(
    events: &[ArrivalEvent],
    machine: &BspParams,
    cfg: &OnlineConfig,
) -> Result<Option<OnlineError>, TestCaseError> {
    let mut new = OnlineScheduler::new(machine, cfg.clone()).unwrap();
    let mut old = RefScheduler::new(machine, cfg.clone()).unwrap();
    for (i, ev) in events.iter().enumerate() {
        let (a, b) = (new.push(ev), old.push(ev));
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(timeless(a), timeless(b), "report of push {}", i),
            (Err(a), Err(b)) => {
                prop_assert_eq!(&a, &b, "error of push {}", i);
                // A typed rejection leaves both usable or both poisoned.
                prop_assert_eq!(
                    new.push(&ArrivalEvent::Finalize).is_err(),
                    old.push(&ArrivalEvent::Finalize).is_err()
                );
                return Ok(Some(a));
            }
            (a, b) => prop_assert!(false, "push {}: {:?} vs reference {:?}", i, a, b),
        }
        prop_assert_eq!(new.dag(), old.dag(), "graph after push {}", i);
        prop_assert_eq!(new.schedule(), old.schedule(), "schedule after push {}", i);
        prop_assert_eq!(new.frontier(), old.frontier(), "frontier after push {}", i);
        prop_assert_eq!(new.suffix(), old.suffix(), "suffix after push {}", i);
        prop_assert!(
            validate_prefix(new.dag(), machine.p(), new.schedule(), new.frontier()).is_ok()
        );
    }
    let (a, b) = (new.into_outcome(), old.outcome().cloned());
    prop_assert_eq!(a.is_some(), b.is_some());
    if let (Some(a), Some(b)) = (a, b) {
        prop_assert_eq!(&a.dag, &b.dag);
        prop_assert_eq!(&a.sched, &b.sched);
        prop_assert_eq!(&a.comm, &b.comm);
        prop_assert_eq!(a.cost, b.cost);
        prop_assert_eq!(&a.ext_ids, &b.ext_ids);
        prop_assert_eq!(
            (a.stats.arrivals, a.stats.reveals, a.stats.replans),
            (b.stats.arrivals, b.stats.reveals, b.stats.replans)
        );
        let reports = |s: &bsp_online::OnlineStats| -> Vec<_> {
            s.batches.iter().map(|&r| timeless(Some(r))).collect()
        };
        prop_assert_eq!(reports(&a.stats), reports(&b.stats));
        prop_assert!(validate(&a.dag, machine.p(), &a.sched, &a.comm).is_ok());
    }
    Ok(None)
}

fn arb_dag() -> impl Strategy<Value = Dag> {
    (
        0u64..500,
        2usize..6,
        2usize..6,
        0.15f64..0.6,
        proptest::bool::ANY,
    )
        .prop_map(|(seed, layers, width, q, layered)| {
            if layered {
                random_layered_dag(
                    seed,
                    LayeredConfig {
                        layers,
                        width,
                        edge_prob: q,
                        max_work: 7,
                        max_comm: 5,
                    },
                )
            } else {
                random_order_dag(seed, layers * width, q / 2.0, 7, 5)
            }
        })
}

fn machine(kind: usize) -> BspParams {
    match kind {
        0 => BspParams::new(4, 1, 3),
        1 => BspParams::new(8, 2, 5),
        2 => BspParams::new(4, 2, 3).with_numa(NumaTopology::binary_tree(4, 3)),
        _ => BspParams::new(3, 2, 0).with_numa(NumaTopology::ring(3)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random DAGs × arrival order × reveals on/off × uniform/NUMA ×
    /// batch size: the two schedulers agree after every push.
    #[test]
    fn production_equals_reference_push_by_push(
        dag in arb_dag(),
        shuffled in proptest::bool::ANY,
        reveals in proptest::bool::ANY,
        kind in 0usize..4,
        bi in 0usize..3,
        seed in 0u64..1000,
    ) {
        let tcfg = TraceConfig {
            order: if shuffled { ArrivalOrder::ShuffledReady } else { ArrivalOrder::Topological },
            reveal_frac: if reveals { 0.3 } else { 0.0 },
            reveal_delay: 4,
            seed,
        };
        let trace = arrival_trace(&dag, "eq", &tcfg);
        let stopped = lockstep(&trace.events, &machine(kind), &cfg([1, 3, 8][bi]))?;
        prop_assert_eq!(stopped, None, "generator traces are always accepted");
    }
}

fn arrive(node: u32, deps: &[u32]) -> ArrivalEvent {
    ArrivalEvent::Arrive {
        node,
        work: 1 + node as u64 % 4,
        comm: 1 + node as u64 % 3,
        deps: deps.to_vec(),
    }
}

/// A reveal from a later arrival to an earlier one: the session's edges
/// stop ascending in id, and the arrival-only batches after it still
/// append.
#[test]
fn backward_reveal_then_arrivals() {
    let mut events = vec![
        arrive(10, &[]),
        arrive(11, &[10]),
        arrive(12, &[]),
        arrive(13, &[12]),
        // 13 → 11 points backwards in arrival id (3 → 1) and closes no
        // cycle; 11 is still tentative.
        ArrivalEvent::Reveal { from: 13, to: 11 },
        arrive(14, &[11, 13]),
        arrive(15, &[14, 10]),
    ];
    for k in 16..40 {
        events.push(arrive(k, &[k - 1, k - 3]));
        if k % 7 == 0 {
            events.push(ArrivalEvent::Reveal { from: k - 5, to: k });
        }
    }
    events.push(ArrivalEvent::Finalize);
    for batch in [1, 3, 8] {
        for kind in 0..4 {
            let stopped = lockstep(&events, &machine(kind), &cfg(batch)).unwrap();
            assert_eq!(stopped, None, "batch {batch} machine {kind}");
        }
    }
}

/// Duplicate `deps` collapse to one edge on both paths.
#[test]
fn duplicate_deps_collapse() {
    let mut events = vec![arrive(0, &[]), arrive(1, &[0, 0]), arrive(2, &[1, 0, 1, 0])];
    for k in 3..30 {
        events.push(arrive(k, &[k - 1, k - 2, k - 1, k - 3, k - 3]));
    }
    events.push(ArrivalEvent::Finalize);
    for batch in [1, 3, 8] {
        assert_eq!(lockstep(&events, &machine(2), &cfg(batch)).unwrap(), None);
    }
    let out = replay(
        &ArrivalTrace {
            name: "dups".into(),
            events,
        },
        &machine(2),
        &cfg(3),
    )
    .unwrap();
    assert_eq!(out.dag.predecessors(2), &[0, 1]);
}

/// Every `OnlineError` arises at the same push with the same payload.
#[test]
fn errors_arise_at_the_same_push() {
    let m = machine(0);
    // Protocol errors at `push` (the stream stays usable).
    for bad in [
        arrive(1, &[]),                          // DuplicateNode
        arrive(9, &[7]),                         // UnknownNode (dep)
        arrive(9, &[9]),                         // its own id: not arrived yet
        ArrivalEvent::Reveal { from: 0, to: 8 }, // UnknownNode (endpoint)
    ] {
        let events = [arrive(0, &[]), arrive(1, &[0]), bad];
        assert!(lockstep(&events, &m, &cfg(8)).unwrap().is_some());
    }
    // Edit errors at the re-plan that integrates the reveal.
    let dup = [
        arrive(0, &[]),
        arrive(1, &[0]),
        ArrivalEvent::Reveal { from: 0, to: 1 },
        ArrivalEvent::Finalize,
    ];
    assert!(matches!(
        lockstep(&dup, &m, &cfg(8)).unwrap(),
        Some(OnlineError::Edit(_))
    ));
    let cycle = [
        arrive(0, &[]),
        arrive(1, &[0]),
        arrive(2, &[1]),
        ArrivalEvent::Reveal { from: 2, to: 0 },
        arrive(3, &[]),
    ];
    assert!(matches!(
        lockstep(&cycle, &m, &cfg(4)).unwrap(),
        Some(OnlineError::Edit(_))
    ));
    // A reveal into a committed consumer from a producer that has only
    // just arrived: the commit guard was out-run.
    let dag = random_layered_dag(
        9,
        LayeredConfig {
            layers: 10,
            width: 6,
            edge_prob: 0.4,
            max_work: 7,
            max_comm: 5,
        },
    );
    let mut late = arrival_trace(&dag, "late", &TraceConfig::default()).events;
    late.pop(); // Finalize
    let mut probe = OnlineScheduler::new(&m, cfg(4)).unwrap();
    for ev in &late {
        probe.push(ev).unwrap();
    }
    assert!(
        probe.frontier() > probe.schedule().step(0),
        "node 0 is committed"
    );
    late.push(arrive(1000, &[]));
    late.push(ArrivalEvent::Reveal { from: 1000, to: 0 });
    late.push(ArrivalEvent::Finalize);
    assert!(matches!(
        lockstep(&late, &m, &cfg(4)).unwrap(),
        Some(OnlineError::CommitConflict(_))
    ));
    // Events after `Finalize`, and after a poisoning error.
    let done = [arrive(0, &[]), ArrivalEvent::Finalize, arrive(1, &[])];
    assert_eq!(
        lockstep(&done, &m, &cfg(8)).unwrap(),
        Some(OnlineError::Finalized)
    );
}

/// The append path runs none of the whole-graph passes: the tallies of
/// `bsp_dag::calls` (debug builds only) stand still across a stream of
/// arrival-only batches, and move again on the first batch with a reveal.
#[cfg(debug_assertions)]
#[test]
fn append_path_runs_no_whole_graph_pass() {
    const PASSES: [&str; 5] = [
        "apply_edits",
        "DagBuilder::build",
        "TopoInfo::new",
        "repair_precedence_from",
        "ScheduleState::new",
    ];
    let tally = || PASSES.map(bsp_dag::calls::count);
    let dag = random_layered_dag(
        3,
        LayeredConfig {
            layers: 12,
            width: 8,
            edge_prob: 0.3,
            max_work: 7,
            max_comm: 5,
        },
    );
    let trace = arrival_trace(&dag, "append", &TraceConfig::default());
    let mut sch = OnlineScheduler::new(&machine(2), cfg(4)).unwrap();
    let before = tally();
    let mut replans = 0;
    for ev in trace
        .events
        .iter()
        .filter(|e| !matches!(e, ArrivalEvent::Finalize))
    {
        replans += sch.push(ev).unwrap().is_some() as u32;
    }
    assert_eq!(replans, 24);
    assert_eq!(tally(), before, "a whole-graph pass ran on the append path");
    // A reveal takes the general path, which runs each of them once.
    sch.push(&ArrivalEvent::Reveal { from: 90, to: 95 })
        .unwrap();
    sch.flush().unwrap().unwrap();
    assert_eq!(tally(), before.map(|c| c + 1));
}

/// "No wall-clock limit" is expressible: `Duration::MAX` per arrival used
/// to overflow when scaled by the batch size.
#[test]
fn unlimited_wall_clock_budget_does_not_overflow() {
    let dag = random_layered_dag(5, LayeredConfig::default());
    let trace = arrival_trace(&dag, "max", &TraceConfig::default());
    let mut unlimited = cfg(8);
    unlimited.budget_per_arrival = Duration::MAX;
    let out = replay(&trace, &machine(0), &unlimited).unwrap();
    let same = replay(&trace, &machine(0), &cfg(8)).unwrap();
    assert_eq!(out.sched, same.sched);
    assert!(out.stats.batches.iter().all(|b| !b.truncated));
}

/// Scaling guard: 2·10⁴ arrivals of a deep layered DAG (400 layers × 50)
/// replay to a valid schedule whose prefix is consistent at the end of
/// the stream — in seconds in a debug build, which a per-batch pass over
/// the whole graph would not allow.
#[test]
fn deep_layered_stream_of_20k_arrivals_replays() {
    let dag = random_layered_dag(
        17,
        LayeredConfig {
            layers: 400,
            width: 50,
            edge_prob: 0.06,
            max_work: 9,
            max_comm: 4,
        },
    );
    assert_eq!(dag.n(), 20_000);
    let m = machine(1);
    let trace = arrival_trace(&dag, "deep", &TraceConfig::default());
    let mut c = cfg(8);
    c.moves_per_arrival = Some(4);
    let mut sch = OnlineScheduler::new(&m, c).unwrap();
    let mut frontier = 0;
    for ev in &trace.events {
        sch.push(ev).unwrap();
        assert!(sch.frontier() >= frontier);
        frontier = sch.frontier();
    }
    assert!(validate_prefix(sch.dag(), m.p(), sch.schedule(), sch.frontier()).is_ok());
    let out = sch.into_outcome().unwrap();
    assert_eq!(out.dag, dag, "topological arrival order is id order");
    assert!(validate(&out.dag, m.p(), &out.sched, &out.comm).is_ok());
    assert_eq!(out.stats.replans, 2_501);
}
