//! Work-count pin for hill climbing: the exact counter deltas of a climb
//! to a local minimum from BSPg and from Source, on one NUMA `erdos`
//! instance and one uniform `spmv` instance, and from BSPg on the
//! `offline-refine` benchmark's largest instance (`erdos` n = 800 on an
//! 8-processor ring) and on a 64-processor `layered` one. A change to the
//! cost of one candidate leaves every count alone; a change to what the
//! search visits, skips or probes moves one. The counters are
//! process-global, so this binary holds this one test.

use bsp_core::hc::hill_climb;
use bsp_core::init::{bspg_schedule, source_schedule};
use bsp_core::state::ScheduleState;
use bsp_instance::InstanceRegistry;
use bsp_schedule::solve::Stop;

/// The counters pinned, `bsp_ls_{name}_total`, in the order of the rows
/// below.
const COUNTERS: [&str; 7] = [
    "moves",
    "visits",
    "pruned",
    "certified",
    "hc_probes",
    "bound_skips",
    "wake_all",
];

/// `(instance, start, counter deltas)`.
const PINS: [(&str, &str, [u64; 7]); 6] = [
    (
        "erdos?n=300&q=0.03&seed=20240527 @ bsp?p=16&numa=sockets&sockets=2&delta=4",
        "bspg",
        [124, 1_615, 110, 73, 2_994, 15_059, 152],
    ),
    (
        "erdos?n=300&q=0.03&seed=20240527 @ bsp?p=16&numa=sockets&sockets=2&delta=4",
        "source",
        [426, 2_516, 118, 263, 10_570, 26_620, 402],
    ),
    (
        "spmv?n=100&q=0.3&seed=20240527 @ bsp?p=8&g=2&l=5",
        "bspg",
        [6, 5_369, 2_716, 935, 489, 13_742, 2],
    ),
    (
        "spmv?n=100&q=0.3&seed=20240527 @ bsp?p=8&g=2&l=5",
        "source",
        [0, 3_252, 0, 0, 0, 800, 0],
    ),
    (
        "erdos?n=800&q=0.01&seed=20240527 @ bsp?p=8&numa=ring",
        "bspg",
        [179, 6_576, 393, 164, 2_278, 22_766, 190],
    ),
    (
        "layered?layers=20&width=50&q=0.06&seed=3 @ bsp?p=64&g=2&l=5",
        "bspg",
        [51, 2_506, 1_281, 414, 1_346, 45_961, 49],
    ),
];

#[test]
fn climbs_visit_skip_and_probe_the_pinned_counts() {
    let registry = InstanceRegistry::standard();
    let counters = COUNTERS.map(|c| bsp_obs::global().counter(&format!("bsp_ls_{c}_total"), &[]));
    let mut got = Vec::new();
    for (spec, start, _) in PINS {
        let inst = registry.generate_one(spec, 0).expect("spec parses");
        let (dag, machine) = (&inst.dag, &inst.machine);
        let sched = match start {
            "bspg" => bspg_schedule(dag, machine),
            _ => source_schedule(dag, machine),
        };
        let mut st = ScheduleState::new(dag, machine, &sched);
        let before = counters.each_ref().map(|c| c.get());
        let stats = hill_climb(&mut st, &mut Stop::new(None, None));
        assert!(stats.local_minimum, "{spec} from {start}");
        got.push(std::array::from_fn::<u64, 7, _>(|i| {
            counters[i].get() - before[i]
        }));
    }
    let want: Vec<[u64; 7]> = PINS.iter().map(|p| p.2).collect();
    assert_eq!(got, want, "counts of {COUNTERS:?} per climb");
}
