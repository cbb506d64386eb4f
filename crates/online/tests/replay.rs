//! Property tests for the online arrival runtime — the two ISSUE-level
//! invariants plus the replay/stream equivalences:
//!
//! 1. replaying any full `ArrivalTrace` yields a schedule accepted by
//!    `validate` / `validate_with_memory` (over the revealed DAG and,
//!    re-expressed via `for_source`, over the source DAG);
//! 2. the committed prefix is a valid schedule of the revealed subgraph
//!    after *every* event, the frontier is monotone, and per-batch
//!    re-planning work never exceeds the configured move budget.

use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_dag::Dag;
use bsp_instance::trace::{arrival_trace, ArrivalEvent, ArrivalOrder, TraceConfig};
use bsp_model::BspParams;
use bsp_online::{replay, OnlineConfig, OnlineError, OnlineScheduler};
use bsp_schedule::cost::total_cost;
use bsp_schedule::prefix::validate_prefix;
use bsp_schedule::validity::{validate, validate_with_memory};
use proptest::prelude::*;
use std::time::Duration;

fn arb_dag() -> impl Strategy<Value = Dag> {
    (0u64..300, 2usize..5, 2usize..5, 0.15f64..0.6).prop_map(|(seed, layers, width, p)| {
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

fn arb_trace_cfg() -> impl Strategy<Value = TraceConfig> {
    (0usize..3, 0.0f64..0.6, 0u32..8, 0u64..1000).prop_map(|(o, frac, delay, seed)| TraceConfig {
        order: ArrivalOrder::ALL[o],
        reveal_frac: frac,
        reveal_delay: delay,
        seed,
    })
}

/// Deterministic test configuration: a deadline far beyond what any of
/// these instances need, so the accepted-move cap is the only budget that
/// ever binds and runs are reproducible.
fn test_cfg() -> OnlineConfig {
    let mut cfg = OnlineConfig::default();
    cfg.batch_size = 4;
    cfg.budget_per_arrival = Duration::from_secs(5);
    cfg.moves_per_arrival = Some(32);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: a full-trace replay is a valid schedule of the whole
    /// DAG, under both the plain and the memory-aware validators, with an
    /// exactly-reported cost — and it re-expresses losslessly over the
    /// source instance's node ids.
    #[test]
    fn full_trace_replay_is_valid(
        dag in arb_dag(),
        tcfg in arb_trace_cfg(),
        pi in 0usize..2,
    ) {
        let p = [2usize, 4][pi];
        let machine = BspParams::new(p, 1, 3);
        let trace = arrival_trace(&dag, "prop", &tcfg);
        let outcome = replay(&trace, &machine, &test_cfg()).unwrap();
        prop_assert_eq!(outcome.stats.arrivals as usize, dag.n());
        prop_assert_eq!(outcome.dag.n(), dag.n());
        prop_assert!(validate(&outcome.dag, p, &outcome.sched, &outcome.comm).is_ok());
        prop_assert!(
            validate_with_memory(&outcome.dag, &machine, &outcome.sched, &outcome.comm).is_ok()
        );
        prop_assert_eq!(
            outcome.cost,
            total_cost(&outcome.dag, &machine, &outcome.sched, &outcome.comm)
        );
        let (sched, comm) = outcome.for_source().unwrap();
        prop_assert!(validate(&dag, p, &sched, &comm).is_ok());
        prop_assert_eq!(outcome.cost, total_cost(&dag, &machine, &sched, &comm));
    }

    /// Invariant 2: at every event of the stream the committed prefix is
    /// a valid schedule of the revealed subgraph, the frontier never
    /// retreats, and each batch's accepted hill-climbing moves stay
    /// within `moves_per_arrival × arrivals`.
    #[test]
    fn prefix_stays_valid_and_budget_is_respected(
        dag in arb_dag(),
        tcfg in arb_trace_cfg(),
        pi in 0usize..2,
    ) {
        let p = [2usize, 4][pi];
        let machine = BspParams::new(p, 1, 3);
        let trace = arrival_trace(&dag, "prop", &tcfg);
        let cfg = test_cfg();
        let mut sch = OnlineScheduler::new(&machine, cfg.clone()).unwrap();
        let mut frontier = 0u32;
        for ev in &trace.events {
            let report = sch.push(ev).unwrap();
            prop_assert!(
                validate_prefix(sch.dag(), p, sch.schedule(), sch.frontier()).is_ok(),
                "prefix invalid after {:?}", ev
            );
            prop_assert!(sch.frontier() >= frontier, "frontier retreated");
            frontier = sch.frontier();
            if let Some(r) = report {
                let cap = cfg.moves_per_arrival.unwrap() as u64
                    * r.arrivals.max(cfg.batch_size as u64);
                prop_assert!(
                    r.hc_moves <= cap,
                    "batch {} accepted {} moves, budget {}", r.batch, r.hc_moves, cap
                );
            }
        }
        prop_assert!(sch.is_finalized());
        let outcome = sch.outcome().unwrap();
        prop_assert_eq!(outcome.sched.n_supersteps(), sch.frontier());
        // The suffix view of a finalized stream is empty: all dispatched.
        prop_assert!(sch.suffix().nodes.is_empty());
    }
}

#[test]
fn replay_equals_manual_pushes() {
    let dag = random_layered_dag(
        11,
        LayeredConfig {
            layers: 4,
            width: 4,
            edge_prob: 0.4,
            max_work: 7,
            max_comm: 5,
        },
    );
    let machine = BspParams::new(4, 1, 3);
    let tcfg = TraceConfig {
        order: ArrivalOrder::ShuffledReady,
        reveal_frac: 0.3,
        reveal_delay: 5,
        seed: 7,
    };
    let trace = arrival_trace(&dag, "manual", &tcfg);
    let a = replay(&trace, &machine, &test_cfg()).unwrap();
    let mut sch = OnlineScheduler::new(&machine, test_cfg()).unwrap();
    for ev in &trace.events {
        sch.push(ev).unwrap();
    }
    let b = sch.outcome().unwrap();
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.sched, b.sched);
    assert_eq!(a.ext_ids, b.ext_ids);
}

#[test]
fn stream_protocol_errors_are_typed() {
    let machine = BspParams::new(2, 1, 2);
    let mut sch = OnlineScheduler::new(&machine, test_cfg()).unwrap();
    sch.push(&ArrivalEvent::Arrive {
        node: 3,
        work: 1,
        comm: 1,
        deps: vec![],
    })
    .unwrap();
    assert_eq!(
        sch.push(&ArrivalEvent::Arrive {
            node: 3,
            work: 1,
            comm: 1,
            deps: vec![]
        }),
        Err(OnlineError::DuplicateNode { node: 3 })
    );
    assert_eq!(
        sch.push(&ArrivalEvent::Arrive {
            node: 4,
            work: 1,
            comm: 1,
            deps: vec![9]
        }),
        Err(OnlineError::UnknownNode { node: 9 })
    );
    assert_eq!(
        sch.push(&ArrivalEvent::Reveal { from: 3, to: 8 }),
        Err(OnlineError::UnknownNode { node: 8 })
    );
    sch.push(&ArrivalEvent::Finalize).unwrap();
    assert_eq!(
        sch.push(&ArrivalEvent::Finalize),
        Err(OnlineError::Finalized)
    );
}

#[test]
fn memory_bounded_machines_are_rejected() {
    use bsp_instance::MachineSpec;
    let machine = MachineSpec::parse("bsp?p=2&mem=64").unwrap().build();
    assert!(
        machine.memory().is_some(),
        "spec should carry a memory bound"
    );
    assert_eq!(
        OnlineScheduler::new(&machine, test_cfg()).err(),
        Some(OnlineError::UnsupportedMachine)
    );
}

#[test]
fn empty_stream_finalizes_cleanly() {
    let machine = BspParams::new(2, 1, 2);
    let mut sch = OnlineScheduler::new(&machine, test_cfg()).unwrap();
    sch.push(&ArrivalEvent::Finalize).unwrap();
    let outcome = sch.outcome().unwrap();
    assert_eq!(outcome.dag.n(), 0);
    assert_eq!(outcome.cost, 0);
}

/// FNV-1a.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of `π ‖ τ`.
fn fnv_assignment(sched: &bsp_schedule::BspSchedule) -> u64 {
    let words = sched.procs().iter().chain(sched.steps());
    fnv(words.flat_map(|x| x.to_le_bytes()))
}

/// Replays captured at the commit before sweep pruning and the re-plan
/// restructuring (PR 14's parent): `(cost, fnv(π ‖ τ), Σ hc_moves,
/// replans)` per `(instance, order)`. Only the move cap binds, so every
/// number repeats on any machine.
#[test]
fn pinned_replays_are_bit_identical() {
    let numa = "bsp?p=4&g=2&numa=tree&delta=3";
    let specs = [
        "spmv?n=40&q=0.25&seed=5 @ bsp?p=8&g=2&l=5".to_string(),
        format!("stencil?width=12&steps=8 @ {numa}"),
        format!("erdos?n=120&q=0.05&seed=5 @ {numa}"),
    ];
    let registry = bsp_instance::InstanceRegistry::standard();
    let mut got = Vec::new();
    for spec in &specs {
        let inst = registry.generate_one(spec, 0).unwrap();
        for order in [ArrivalOrder::Topological, ArrivalOrder::ShuffledReady] {
            let tcfg = TraceConfig {
                order,
                seed: 7,
                ..TraceConfig::default()
            };
            let trace = arrival_trace(&inst.dag, &inst.name, &tcfg);
            let mut cfg = OnlineConfig::default();
            cfg.budget_per_arrival = Duration::from_secs(60);
            let out = replay(&trace, &inst.machine, &cfg).unwrap();
            let moves: u64 = out.stats.batches.iter().map(|b| b.hc_moves).sum();
            got.push((
                out.cost,
                fnv_assignment(&out.sched),
                moves,
                out.stats.replans,
            ));
        }
    }
    assert_eq!(
        got,
        vec![
            (318, 0x41da6ce333c057f1, 55, 62),
            (305, 0x755ad525a7284f87, 133, 62),
            (288, 0x4fee9991a4147e25, 0, 15),
            (234, 0xcb9cbcd5528a1921, 49, 15),
            (546, 0xa2be9cbe54d7fa51, 165, 16),
            (595, 0x045d4b441b092d21, 168, 16),
        ]
    );
}

/// Replays captured at the commit before the append-only re-plan and the
/// failure certificates (PR 18's parent, 5716d07): `(final cost,
/// fnv(π ‖ τ), fnv over the per-batch (cost, supersteps, frontier,
/// hc_moves) sequence)` for the three `online-stream` reference shapes on
/// its two machines in both arrival orders, and once more with 30 % of
/// the edges revealed late (so both re-plan paths are pinned, batch by
/// batch). Only the move cap binds.
#[test]
fn pinned_replays_batch_by_batch() {
    let uniform = "bsp?p=8&g=2&l=5";
    let numa = "bsp?p=4&g=2&numa=tree&delta=3";
    let registry = bsp_instance::InstanceRegistry::standard();
    let mut got = Vec::new();
    for (dag_spec, reveal_frac) in [
        ("spmv?n=50&seed=5", 0.0),
        ("erdos?n=300&q=0.03&seed=5", 0.0),
        ("stencil?width=16&steps=12", 0.0),
        ("erdos?n=300&q=0.03&seed=5", 0.3),
    ] {
        for machine in [uniform, numa] {
            let inst = registry
                .generate_one(&format!("{dag_spec} @ {machine}"), 0)
                .unwrap();
            for order in [ArrivalOrder::Topological, ArrivalOrder::ShuffledReady] {
                let tcfg = TraceConfig {
                    order,
                    seed: 7,
                    reveal_frac,
                    ..TraceConfig::default()
                };
                let trace = arrival_trace(&inst.dag, &inst.name, &tcfg);
                let mut cfg = OnlineConfig::default();
                cfg.budget_per_arrival = Duration::from_secs(60);
                let out = replay(&trace, &inst.machine, &cfg).unwrap();
                assert_eq!(out.stats.reveals > 0, reveal_frac > 0.0);
                let per_batch = out
                    .stats
                    .batches
                    .iter()
                    .flat_map(|b| [b.cost, b.supersteps as u64, b.frontier as u64, b.hc_moves]);
                let batches = fnv(per_batch.flat_map(u64::to_le_bytes));
                got.push((out.cost, fnv_assignment(&out.sched), batches));
            }
        }
    }
    assert_eq!(
        got,
        vec![
            // spmv?n=50 (n = 824): uniform topo / shuffle, NUMA topo / shuffle
            (533, 0x7341de075c912395, 0x55fc72943647f31e),
            (556, 0x47a1fbe7bb556677, 0x409301083256475c),
            (1360, 0x87af7ab824db6a36, 0x01fecb7920579f65),
            (1172, 0x17a73b41fc52c465, 0x6d9d7964f4ae9334),
            // erdos?n=300&q=0.03
            (866, 0x5952ad450dd55635, 0xe56fcf0ab7dde7cf),
            (905, 0x40607e4183278151, 0x5870b05293689005),
            (1766, 0x9f415cf6674c88a5, 0x7ec0460bef71a144),
            (1775, 0x35f84c5278bd1789, 0xf7bc632cf0a86a1a),
            // stencil?width=16&steps=12 (n = 208)
            (211, 0xa553e5d06669d125, 0x9ebdc54ee1a15091),
            (228, 0x4b6a435d24a31796, 0x83be04e5bbec6acb),
            (549, 0x83ac4483929a6625, 0xecb9724f3ea90de2),
            (403, 0xbed8a9813d1567ac, 0xe011e0314c94d543),
            // erdos?n=300&q=0.03 with reveal_frac = 0.3 (389 / 407 reveals)
            (906, 0xb46c02fb4baf71e2, 0xb402bec376f12573),
            (907, 0x9f590b7da7fd8cbb, 0x4832b66c3d5ff644),
            (1789, 0xe85843bbb56d9b97, 0x09abb9fa57e0be77),
            (1746, 0xec831e916cefc905, 0xad7980bb4ba95030),
        ]
    );
}
