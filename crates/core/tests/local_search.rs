//! Hill climbing on one mid-size instance per DAG family: a sweep over a
//! converged schedule moves nothing, pruned or not; and a climb from BSPg
//! reaches the same minimum by the same moves with the move floor, with
//! only its work part (`target_rise ≥ gain_bound`), with neither, and
//! without failure certificates either, each test skipping exactly the
//! probes it saves.
//!
//! The skip counts are guards too: a climb with candidates that skipped
//! none has a slack bound, and so has a NUMA climb (`erdos`) whose floor
//! skipped nothing beyond the rise test.

mod hc_reference;

use bsp_core::hc::hill_climb;
use bsp_core::init::bspg_schedule;
use bsp_core::state::ScheduleState;
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::{Dag, TopoInfo};
use bsp_dagdb::fine::spmv_dag;
use bsp_dagdb::SparsePattern;
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::solve::Stop;
use hc_reference::ReferenceClimb;
use std::sync::Mutex;

/// The skip counters are process-global: every test here holds this.
static COUNTERS: Mutex<()> = Mutex::new(());

/// `(name, dag, p)`: one instance per family.
fn configs() -> Vec<(String, Dag, u32)> {
    let layered = LayeredConfig {
        layers: 24,
        width: 32,
        edge_prob: 0.08,
        max_work: 9,
        max_comm: 5,
    };
    vec![
        ("layered/p8".into(), random_layered_dag(5, layered), 8),
        ("erdos/p8".into(), random_order_dag(11, 500, 0.012, 9, 5), 8),
        (
            "spmv/p4".into(),
            spmv_dag(&SparsePattern::random(48, 0.25, 3)),
            4,
        ),
    ]
}

/// The `erdos` configs climb on a binary-tree NUMA machine, the rest on a
/// uniform one.
fn machine(name: &str, p: u32) -> BspParams {
    let p = p as usize;
    if name.starts_with("erdos") {
        BspParams::new(p, 1, 5).with_numa(NumaTopology::binary_tree(p, 3))
    } else {
        BspParams::new(p, 3, 5)
    }
}

/// Climbs `st` to a local minimum; returns the moves and what the climb
/// probed and skipped: `[probes, rise-test skips, other move-floor skips]`.
/// Fails on a slack bound.
fn counted_climb(name: &str, st: &mut ScheduleState<'_>) -> (usize, [u64; 3]) {
    let totals = ["hc_probes", "bound_skips", "floor_skips"]
        .map(|c| bsp_obs::global().counter(&format!("bsp_ls_{c}_total"), &[]));
    let before = totals.each_ref().map(|c| c.get());
    let stats = hill_climb(st, &mut Stop::new(None, None));
    assert!(stats.local_minimum, "{name}");
    let [probes, skips, floor] = [0, 1, 2].map(|i| totals[i].get() - before[i]);
    assert!(
        probes + skips == 0 || skips > 0,
        "{name}: the move floor skipped none of {probes} candidates"
    );
    assert!(
        !name.starts_with("erdos") || floor > 0,
        "{name}: on a NUMA machine the move floor skipped nothing beyond the rise test"
    );
    (stats.accepted, [probes, skips - floor, floor])
}

#[test]
fn a_sweep_over_a_converged_schedule_moves_nothing() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut configs = configs();
    // What an online re-plan sweeps mid-stream: the first 60 % (in
    // topological order) of a wide spmv DAG, where most arrived nodes do
    // not have their consumers yet. BSPg leaves it at a minimum where
    // `may_improve` rules out every visit: no candidates there.
    let wide = spmv_dag(&SparsePattern::random(120, 0.25, 3));
    let arrived = &TopoInfo::new(&wide).order[..wide.n() * 3 / 5];
    configs.push(("spmv-prefix/p8".into(), wide.induced_subgraph(arrived).0, 8));
    for (name, dag, p) in configs {
        let m = machine(&name, p);
        let mut st = ScheduleState::new(&dag, &m, &bspg_schedule(&dag, &m));
        counted_climb(&name, &mut st);
        let converged = st.snapshot();
        // Every node probed, without the `may_improve` filter.
        let improvable = dag.nodes().any(|v| {
            let (q0, s0) = (st.proc(v), st.step(v));
            (s0.saturating_sub(1)..=s0 + 1).any(|s| {
                let mut procs = st.valid_procs(v, s).procs(st.p());
                procs.any(|q| (q, s) != (q0, s0) && st.probe_move(v, q, s) < 0)
            })
        });
        assert!(!improvable, "{name}: not a local minimum");
        let stats = hill_climb(&mut st, &mut Stop::new(None, None));
        assert_eq!((stats.accepted, stats.local_minimum), (0, true), "{name}");
        assert_eq!(st.snapshot(), converged, "{name}: a sweep moved a node");
    }
}

#[test]
fn bounded_rise_certified_and_uncertified_climbs_agree() {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    for (name, dag, p) in configs() {
        let m = machine(&name, p);
        let start = bspg_schedule(&dag, &m);
        let mut bounded = ScheduleState::new(&dag, &m, &start);
        let (accepted, [probes, rise, floor]) = counted_climb(&name, &mut bounded);
        let references: [fn(&mut ScheduleState<'_>) -> ReferenceClimb; 3] = [
            hc_reference::hill_climb_rise_bounded,
            hc_reference::hill_climb_certified,
            |st| hc_reference::hill_climb_reference(st, usize::MAX, 0, |st, v| st.may_improve(v)),
        ];
        let probed = references.map(|climb| {
            let mut st = ScheduleState::new(&dag, &m, &start);
            let out = climb(&mut st);
            assert_eq!(
                (out.accepted, out.local_minimum),
                (accepted, true),
                "{name}"
            );
            assert_eq!(
                st.snapshot(),
                bounded.snapshot(),
                "{name}: end states differ"
            );
            out.probes
        });
        // Neither test changes a decision, so every candidate one skipped
        // is a probe the same loop without it ran.
        assert_eq!(probed[0], probes + floor, "{name}");
        assert_eq!(probed[1], probes + rise + floor, "{name}");
    }
}
