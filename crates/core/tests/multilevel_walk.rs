//! The journaled un-coarsening walk against the replay it replaced
//! (`multilevel_reference`): same stage graphs, same projected schedules,
//! same final schedule — plus the size the replay could not reach.

mod multilevel_reference;

use bsp_core::hc::hill_climb;
use bsp_core::init::bspg_schedule;
use bsp_core::multilevel::{coarsen, multilevel_with_log, MultilevelConfig, Uncoarsening};
use bsp_core::state::ScheduleState;
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::Dag;
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::solve::Stop;
use bsp_schedule::validity::validate_lazy;
use bsp_schedule::BspSchedule;
use multilevel_reference::{project, representatives, stage_graph};
use proptest::prelude::*;

/// Layered DAGs (contractions stay local) and dense random-order ones
/// (edges that pre-exist a redirect, long merge chains).
fn arb_dag() -> impl Strategy<Value = Dag> {
    (
        0u64..400,
        2usize..7,
        2usize..7,
        0.1f64..0.7,
        proptest::bool::ANY,
    )
        .prop_map(|(seed, layers, width, q, layered)| {
            if layered {
                let cfg = LayeredConfig {
                    layers,
                    width,
                    edge_prob: q,
                    max_work: 7,
                    max_comm: 5,
                };
                random_layered_dag(seed, cfg)
            } else {
                random_order_dag(seed, layers * width, q / 2.0, 7, 5)
            }
        })
}

fn refined(dag: &Dag, machine: &BspParams, start: &BspSchedule, moves: usize) -> BspSchedule {
    let mut st = ScheduleState::new(dag, machine, start);
    hill_climb(&mut st, &mut Stop::new(None, Some(moves)));
    st.snapshot()
}

#[test]
fn representatives_follow_contraction_chains() {
    let cfg = LayeredConfig {
        layers: 6,
        width: 6,
        edge_prob: 0.3,
        max_work: 5,
        max_comm: 6,
    };
    let dag = random_layered_dag(2, cfg);
    let log = coarsen(&dag, dag.n() / 3, &MultilevelConfig::default());
    let reps = representatives(dag.n(), &log);
    let (_, map) = stage_graph(&dag, &log);
    for v in dag.nodes() {
        assert!(
            map[reps[v as usize] as usize].is_some(),
            "rep of {v} must be alive"
        );
    }
}

proptest! {
    /// Same candidates in the same order at every refresh, same verdict at
    /// every pop: the log is the one the exhaustive per-edge search writes.
    /// Short refresh periods put most pops right after a refresh, long ones
    /// leave the queue stale for many contractions.
    #[test]
    fn coarsen_log_matches_exhaustive_search(
        dag in arb_dag(),
        keep in 0.05f64..0.6,
        refresh_period in 1usize..40,
    ) {
        let cfg = MultilevelConfig { refresh_period, ..Default::default() };
        let target = (((dag.n() as f64) * keep) as usize).max(1);
        prop_assert_eq!(
            coarsen(&dag, target, &cfg),
            multilevel_reference::coarsen(&dag, target, &cfg)
        );
    }

    /// At every chunk boundary the walk stands on the graph the replay
    /// builds from scratch, holding the schedule the union-find projects.
    #[test]
    fn walk_matches_replay_at_every_chunk(
        dag in arb_dag(),
        keep in 0.1f64..0.6,
        interval in 1usize..8,
        moves in 0usize..25,
    ) {
        let machine = BspParams::new(4, 3, 5).with_numa(NumaTopology::binary_tree(4, 3));
        let target = ((dag.n() as f64) * keep) as usize;
        let log = coarsen(&dag, target.max(1), &MultilevelConfig::default());

        let mut walk = Uncoarsening::new(&dag, &log);
        let coarse = walk.stage();
        prop_assert_eq!(&coarse, &stage_graph(&dag, &log).0);
        let mut prev_sched = refined(&coarse, &machine, &bspg_schedule(&coarse, &machine), moves);
        walk.adopt(&prev_sched);
        prop_assert_eq!(&walk.projected(), &prev_sched);

        let mut prev_k = log.len();
        while prev_k > 0 {
            let k = prev_k.saturating_sub(interval);
            walk.undo(interval);
            prop_assert_eq!(walk.remaining(), k);
            let (stage, projected) = project(&dag, &log, prev_k, k, &prev_sched);
            prop_assert_eq!(&walk.stage(), &stage, "stage after {} of {}", k, log.len());
            prop_assert_eq!(&walk.projected(), &projected, "projection onto stage {}", k);
            prop_assert!(projected.respects_precedence_lazy(&stage));
            prev_sched = refined(&stage, &machine, &projected, moves);
            walk.adopt(&prev_sched);
            prev_k = k;
        }
        prop_assert_eq!(walk.stage(), dag);
    }

    /// With a probe that never fires the whole scheme returns the replay's
    /// schedule, bit for bit.
    #[test]
    fn unexpired_run_is_bit_identical_to_the_replay(
        dag in arb_dag(),
        interval in 1usize..8,
    ) {
        let machine = BspParams::new(4, 3, 5).with_numa(NumaTopology::binary_tree(4, 3));
        let cfg = MultilevelConfig { refine_interval: interval, ..Default::default() };
        let log = coarsen(&dag, (dag.n() * 3).div_ceil(10), &cfg);
        let mut base = |d: &Dag, m: &BspParams| refined(d, m, &bspg_schedule(d, m), 50);
        let mut unlimited = Stop::new(None, None);
        let walked = multilevel_with_log(&dag, &machine, &log, &cfg, &mut base, &mut unlimited);
        prop_assert_eq!(
            walked,
            multilevel_reference::multilevel_with_log(&dag, &machine, &log, &cfg, &mut base)
        );
    }
}

/// The size guard `cargo test` itself enforces: a 3 000-node layered DAG
/// down to 30 % and back, projection only. The per-edge unbounded
/// contractability search needed 7.6 s for this log in a *release* build,
/// and the replay rebuilt 420 stages from 3 000 nodes each.
#[test]
fn coarsen_and_walk_back_3000_nodes() {
    let cfg = LayeredConfig {
        layers: 30,
        width: 100,
        edge_prob: 0.04,
        max_work: 8,
        max_comm: 4,
    };
    let dag = random_layered_dag(42, cfg);
    let machine = BspParams::new(8, 2, 5);
    let ml = MultilevelConfig {
        refine_moves: 0,
        ..MultilevelConfig::default()
    };
    let log = coarsen(&dag, dag.n() * 3 / 10, &ml);
    assert_eq!(log.len(), dag.n() - dag.n() * 3 / 10);
    let sched = multilevel_with_log(
        &dag,
        &machine,
        &log,
        &ml,
        &mut bspg_schedule,
        &mut Stop::new(None, None),
    );
    assert!(validate_lazy(&dag, machine.p(), &sched).is_ok());
}
