//! Bit-identity of the parallel neighbourhood scans (PR 6 tentpole).
//!
//! The `*_threaded` local-search entry points must make the *same
//! decisions* as their sequential counterparts for every thread count —
//! not merely land at an equal cost. These properties pin that contract:
//! identical winning move per scan, identical move sequence over a full
//! run, identical final schedules and statistics, at thread counts that
//! straddle the chunking (2, 3) and oversubscribe a small host (8).
//!
//! The instances are sized past the sequential fallback threshold
//! (`n ≥ 64` nodes / `≥ 128` transfers) so the parallel code path really
//! runs; the thread counts exceed the CI host's core count on purpose —
//! determinism must hold regardless of physical parallelism.

use bsp_core::hccs::{comm_hill_climb, optimize_comm_schedule, CommState};
use bsp_core::state::ScheduleState;
use bsp_core::steepest::{best_move, hill_climb_steepest};
use bsp_core::tabu::{tabu_search, TabuConfig};
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::{Dag, TopoInfo};
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;
use proptest::prelude::*;

const THREADS: [usize; 3] = [2, 3, 8];

/// Layered DAGs big enough (≥ 64 nodes) to engage the chunked scan.
fn arb_big_dag() -> impl Strategy<Value = Dag> {
    (0u64..200, 8usize..12, 8usize..14, 0.1f64..0.4).prop_map(|(seed, layers, width, q)| {
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

/// Scattered but valid start with plenty of improving moves.
fn spread_start(dag: &Dag, p: u32) -> BspSchedule {
    let topo = TopoInfo::new(dag);
    let mut s = BspSchedule::zeroed(dag.n());
    for v in dag.nodes() {
        s.set(v, v % p, topo.level[v as usize]);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One steepest scan: the winning `(v, q, s, delta)` tuple is identical
    /// for every thread count.
    #[test]
    fn steepest_scan_winner_is_thread_invariant(
        dag in arb_big_dag(),
        machine in arb_machine(),
    ) {
        let start = spread_start(&dag, machine.p() as u32);
        let st = ScheduleState::new(&dag, &machine, &start);
        let reference = best_move(&st, 1);
        for t in THREADS {
            prop_assert_eq!(best_move(&st, t), reference, "threads = {}", t);
        }
    }

    /// A full steepest descent: identical move count and final schedule.
    #[test]
    fn steepest_full_run_is_thread_invariant(
        dag in arb_big_dag(),
        machine in arb_machine(),
    ) {
        let stop = || Stop::new(None, Some(60));
        let start = spread_start(&dag, machine.p() as u32);
        let mut seq = ScheduleState::new(&dag, &machine, &start);
        let seq_stats = hill_climb_steepest(&mut seq, 1, &mut stop());
        for t in THREADS {
            let mut par = ScheduleState::new(&dag, &machine, &start);
            let par_stats = hill_climb_steepest(&mut par, t, &mut stop());
            prop_assert_eq!(par_stats.accepted, seq_stats.accepted, "threads = {}", t);
            prop_assert_eq!(par.cost(), seq.cost(), "threads = {}", t);
            prop_assert_eq!(par.snapshot(), seq.snapshot(), "threads = {}", t);
        }
    }

    /// Tabu search: identical best schedule, cost and counters — the
    /// admissibility filter (tabu list + aspiration) must not perturb the
    /// parallel reduce's tie-break.
    #[test]
    fn tabu_run_is_thread_invariant(
        dag in arb_big_dag(),
        machine in arb_machine(),
    ) {
        let cfg = TabuConfig { max_iters: 40, stall_limit: 20, time_limit: None, tenure: 6 };
        let stop = || Stop::new(None, None);
        let start = spread_start(&dag, machine.p() as u32);
        let (seq_best, seq_cost, seq_stats) = tabu_search(&dag, &machine, &start, &cfg, 1, &mut stop());
        for t in THREADS {
            let (best, cost, stats) = tabu_search(&dag, &machine, &start, &cfg, t, &mut stop());
            prop_assert_eq!(cost, seq_cost, "threads = {}", t);
            prop_assert_eq!(&best, &seq_best, "threads = {}", t);
            prop_assert_eq!(stats, seq_stats, "threads = {}", t);
        }
    }

    /// HCcs: the first-improvement phase assignment — and therefore the
    /// explicit Γ — is identical for every thread count.
    #[test]
    fn hccs_run_is_thread_invariant(
        dag in arb_big_dag(),
        machine in arb_machine(),
        seed in 0u64..1000,
    ) {
        // A second scattered start (keyed by seed) varies the transfer set.
        let mut start = spread_start(&dag, machine.p() as u32);
        if seed % 2 == 1 {
            let topo = TopoInfo::new(&dag);
            for v in dag.nodes() {
                start.set(v, (v + 1) % machine.p() as u32, topo.level[v as usize]);
            }
        }
        let stop = || Stop::new(None, Some(200));
        let (seq_comm, seq_cost) = optimize_comm_schedule(&dag, &machine, &start, 1, &mut stop());
        for t in THREADS {
            let (comm, cost) =
                optimize_comm_schedule(&dag, &machine, &start, t, &mut stop());
            prop_assert_eq!(cost, seq_cost, "threads = {}", t);
            prop_assert_eq!(&comm, &seq_comm, "threads = {}", t);
        }
    }
}

/// A pinned large Erdős instance where the parallel path demonstrably
/// engages (n well past the fallback threshold) — a fast, deterministic
/// smoke check that needs no proptest shrinking when it fails.
#[test]
fn pinned_large_instance_thread_invariant() {
    let dag = random_order_dag(11, 300, 0.02, 9, 5);
    let machine = BspParams::new(8, 2, 4).with_numa(NumaTopology::binary_tree(8, 3));
    let start = spread_start(&dag, 8);

    let st = ScheduleState::new(&dag, &machine, &start);
    let reference = best_move(&st, 1);
    assert!(reference.is_some(), "instance too trivial");
    for t in THREADS {
        assert_eq!(best_move(&st, t), reference, "threads = {t}");
    }

    // The comm scan too, through the stateful entry point.
    let stop = || Stop::new(None, Some(500));
    let mut seq = CommState::new(&dag, &machine, &start);
    let seq_accepted = comm_hill_climb(&mut seq, 1, &mut stop());
    assert!(seq_accepted > 0, "no transfers to improve");
    for t in THREADS {
        let mut par = CommState::new(&dag, &machine, &start);
        let par_accepted = comm_hill_climb(&mut par, t, &mut stop());
        assert_eq!(par_accepted, seq_accepted, "threads = {t}");
        assert_eq!(par.cost(), seq.cost(), "threads = {t}");
        assert_eq!(par.comm_schedule(), seq.comm_schedule(), "threads = {t}");
    }
}

/// `threads = 0` auto-detects and must behave like any explicit count.
#[test]
fn auto_detect_is_equivalent_too() {
    let dag = random_order_dag(5, 150, 0.03, 7, 5);
    let machine = BspParams::new(4, 2, 3);
    let start = spread_start(&dag, 4);
    let st = ScheduleState::new(&dag, &machine, &start);
    assert_eq!(best_move(&st, 0), best_move(&st, 1));
}
