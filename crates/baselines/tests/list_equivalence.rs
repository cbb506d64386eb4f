//! The heap-driven ETF and BL-EST against the scan loops they replaced
//! (`reference/`): the same `ClassicalSchedule`, `proc` *and* `start`, on
//! every machine shape and under both EST communication models — and a
//! 10⁵-node run that the Θ(n²) loops would not finish in minutes.

mod reference;

use bsp_baselines::blest::blest_schedule_with;
use bsp_baselines::etf::etf_schedule_with;
use bsp_baselines::CommModel;
use bsp_dag::random::{random_layered_dag, random_order_dag, LayeredConfig};
use bsp_dag::{Dag, DagBuilder};
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::validity::validate_lazy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the generated DAG's weights are rewritten: each mode provokes a
/// different kind of tie in the ETF key.
#[derive(Debug, Clone, Copy)]
enum Weights {
    /// As generated: positive work and communication.
    Random,
    /// Some nodes take no time, so placing them leaves `proc_free` where
    /// it was and several nodes start at one instant on one processor.
    SomeZeroWork,
    /// Some outputs cost nothing to ship: `data_ready` is the same on
    /// every processor and only the processor index separates them.
    SomeZeroComm,
    /// Work and communication from {0, 1}: all of the above at once. A
    /// free node with a free output releases successors that compete, at
    /// the same instant and bottom level, with the pairs it tied with —
    /// the only case where `q` before `v` in the key changes a schedule.
    ZeroOrOne,
    /// All weights 1: every bottom level of a layer ties.
    Unit,
    /// The `dagdb` rule `w = indeg − 1`: chains and sources weigh 0.
    InDegree,
}

const WEIGHTS: [Weights; 6] = [
    Weights::Random,
    Weights::SomeZeroWork,
    Weights::SomeZeroComm,
    Weights::ZeroOrOne,
    Weights::Unit,
    Weights::InDegree,
];

/// `dag` with its weights rewritten by `mode` and, if `relabel`, its node
/// ids permuted: the generators number nodes topologically, which would
/// leave the id tie-break never deciding between a node and a descendant
/// of its rival.
fn perturbed(dag: &Dag, mode: Weights, relabel: bool, seed: u64) -> Dag {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut id: Vec<u32> = dag.nodes().collect();
    if relabel {
        for i in (1..id.len()).rev() {
            id.swap(i, rng.gen_range(0..=i));
        }
    }
    let mut weights = vec![(0, 0); dag.n()];
    for v in dag.nodes() {
        weights[id[v as usize] as usize] = match mode {
            Weights::Random => (dag.work(v), dag.comm(v)),
            Weights::SomeZeroWork => (if rng.gen_bool(0.4) { 0 } else { dag.work(v) }, dag.comm(v)),
            Weights::SomeZeroComm => (dag.work(v), if rng.gen_bool(0.5) { 0 } else { dag.comm(v) }),
            Weights::ZeroOrOne => (rng.gen_range(0..=1), rng.gen_range(0..=1)),
            Weights::Unit => (1, 1),
            Weights::InDegree => (dag.in_degree(v).saturating_sub(1) as u64, 1),
        };
    }
    let mut b = DagBuilder::with_capacity(dag.n(), dag.m());
    for (w, c) in weights {
        b.add_node(w, c);
    }
    for (u, v) in dag.edges() {
        b.add_edge(id[u as usize], id[v as usize]).unwrap();
    }
    b.build().unwrap()
}

fn arb_dag() -> impl Strategy<Value = Dag> {
    let layered = (0u64..1000, 1usize..7, 1usize..9, 0.1f64..0.8).prop_map(
        |(seed, layers, width, edge_prob)| {
            random_layered_dag(
                seed,
                LayeredConfig {
                    layers,
                    width,
                    edge_prob,
                    max_work: 6,
                    max_comm: 5,
                },
            )
        },
    );
    let erdos = (0u64..1000, 1usize..40, 0.02f64..0.4)
        .prop_map(|(seed, n, p)| random_order_dag(seed, n, p, 6, 5));
    (
        layered,
        erdos,
        proptest::bool::ANY,
        0usize..WEIGHTS.len(),
        proptest::bool::ANY,
        0u64..1000,
    )
        .prop_map(|(layered, erdos, pick, mode, relabel, seed)| {
            let dag = if pick { &layered } else { &erdos };
            perturbed(dag, WEIGHTS[mode], relabel, seed)
        })
}

/// P ∈ {1, 2, 3, 4, 8} × {uniform, binary tree, ring, two-level sockets},
/// each shape wherever it is defined for that P.
fn machines(g: u64) -> Vec<BspParams> {
    let mut out = Vec::new();
    for p in [1usize, 2, 3, 4, 8] {
        out.push(BspParams::new(p, g, 3));
        if p >= 2 {
            out.push(BspParams::new(p, g, 3).with_numa(NumaTopology::ring(p)));
            let cores = if p % 2 == 0 { p / 2 } else { 1 };
            out.push(BspParams::new(p, g, 3).with_numa(NumaTopology::two_level(
                p / cores,
                cores,
                4,
            )));
        }
        if p >= 2 && p.is_power_of_two() {
            out.push(BspParams::new(p, g, 3).with_numa(NumaTopology::binary_tree(p, 3)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn heap_driven_equals_scan_loops(dag in arb_dag(), g in 1u64..4) {
        for machine in machines(g) {
            for model in [CommModel::MeanLambda, CommModel::PerPairLambda] {
                let etf = etf_schedule_with(&dag, &machine, model);
                let want = reference::etf_reference(&dag, &machine, model);
                prop_assert_eq!(
                    &etf, &want,
                    "etf {:?} on {:?}\n dag {:?}\n got  {:?}\n want {:?}",
                    model, machine, dag, etf, want
                );
                let blest = blest_schedule_with(&dag, &machine, model);
                let want = reference::blest_reference(&dag, &machine, model);
                prop_assert_eq!(
                    &blest, &want,
                    "bl-est {:?} on {:?}\n dag {:?}\n got  {:?}\n want {:?}",
                    model, machine, dag, blest, want
                );
            }
        }
    }
}

/// The scaling guard `cargo test` itself enforces: both list schedulers on
/// a 10⁵-node layered DAG, valid classically and as lazy BSP. The scan
/// loops take Θ(n²) — minutes here even in release.
#[test]
fn list_schedulers_scale_to_1e5_nodes() {
    let dag = random_layered_dag(
        15,
        LayeredConfig {
            layers: 2000,
            width: 50,
            edge_prob: 0.05,
            ..Default::default()
        },
    );
    assert_eq!(dag.n(), 100_000);
    let machine = BspParams::new(8, 2, 5);
    for (name, classical) in [
        (
            "etf",
            etf_schedule_with(&dag, &machine, CommModel::MeanLambda),
        ),
        (
            "bl-est",
            blest_schedule_with(&dag, &machine, CommModel::MeanLambda),
        ),
    ] {
        assert!(
            classical.is_valid(&dag),
            "{name}: invalid classical schedule"
        );
        let bsp = classical.to_bsp(&dag);
        assert!(
            validate_lazy(&dag, machine.p(), &bsp).is_ok(),
            "{name}: invalid BSP"
        );
    }
}

/// Ties on `(est, ¬bl)` go to the smaller *processor* before the smaller
/// node id, and the order shows in the schedule only through a free node
/// with a free output. At t = 1, `a` (data on q1) and `b` (data on q0) tie;
/// the scan loop takes `(q0, b)` first, so when `a` — zero work, zero
/// output — then releases `s`, q0 is busy and `s` runs beside `b` on q1.
/// Taking the smaller id `a` first instead would hand q0 to `s` (smaller
/// id than `b`) and push `b` back by one.
#[test]
fn etf_breaks_ties_by_processor_before_node_id() {
    let mut bld = DagBuilder::new();
    let pb = bld.add_node(1, 5);
    let pa = bld.add_node(1, 5);
    let a = bld.add_node(0, 0);
    let s = bld.add_node(1, 1);
    let b = bld.add_node(1, 1);
    bld.add_edge(pb, b).unwrap();
    bld.add_edge(pa, a).unwrap();
    bld.add_edge(a, s).unwrap();
    let dag = bld.build().unwrap();
    let machine = BspParams::new(2, 1, 0);
    let got = etf_schedule_with(&dag, &machine, CommModel::MeanLambda);
    assert_eq!(got.proc, vec![0, 1, 1, 1, 0]);
    assert_eq!(got.start, vec![0, 0, 1, 1, 1]);
    assert_eq!(
        got,
        reference::etf_reference(&dag, &machine, CommModel::MeanLambda)
    );
}
