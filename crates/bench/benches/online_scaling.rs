//! Online re-plan scaling: a whole arrival stream replayed through
//! [`OnlineScheduler`] on `spmv` and `layered` DAGs of n ≈ 10³, 4·10³ and
//! 1.6·10⁴ nodes (topological arrival order, batches of 8, the
//! `online-stream` workload's uniform machine and move cap).
//!
//! A re-plan integrates its batch and then runs one floor-restricted
//! hill-climbing sweep over the tentative suffix. Each size gets two rows:
//! `replay` is the stream as configured, `integrate` the same stream with
//! the move cap at 0, which makes the hill climb return before its first
//! visit — everything a re-plan does *but* the sweep and the superstep
//! renumbering its moves now and then call for (graph growth, placement,
//! state extension, frontier, report). The line
//! printed above each pair turns both into µs per arrival, read from the
//! scheduler's own per-batch clock. On the append path `integrate` costs
//! what arrived: it must stay flat from n ≈ 10³ to 1.6·10⁴, where a
//! per-batch pass over the graph (the reference below) grows with n. What
//! is left of `replay` is the sweep, which visits only the awake nodes:
//! those a mutation since their last visit may have freed to move. The
//! line also prints the sweep's visits per re-plan; on `spmv` n ≈ 1.6·10⁴,
//! whose schedule keeps nearly everything tentative, the target fails
//! when they exceed a tenth of the nodes (a sweep over the whole suffix
//! visits about half).
//!
//! Before anything is timed the n ≈ 10³ streams are replayed through the
//! scheduler of the commit before the append path (the test-only reference
//! in `crates/online/tests/reference/`) and the two outcomes asserted
//! equal — graph, schedule, Γ, cost and every batch report but its
//! wall-clock field. CI runs this target in `--test` mode, which makes the
//! 1.6·10⁴ rows a release-build smoke of the scaling itself.

#[path = "../../online/tests/reference/mod.rs"]
mod reference;

use bsp_instance::trace::{arrival_trace, ArrivalTrace, TraceConfig};
use bsp_instance::InstanceRegistry;
use bsp_model::BspParams;
use bsp_online::{replay, BatchReport, OnlineConfig, OnlineOutcome};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Constant mean degree across the sizes of a family.
const LADDER: [(&str, &str, &str); 6] = [
    ("spmv", "n1e3", "spmv?n=55&q=0.3"),
    ("spmv", "n4e3", "spmv?n=115&q=0.3"),
    ("spmv", "n16e3", "spmv?n=230&q=0.3"),
    ("layered", "n1e3", "layered?layers=20&width=50&q=0.08"),
    ("layered", "n4e3", "layered?layers=40&width=100&q=0.04"),
    ("layered", "n16e3", "layered?layers=80&width=200&q=0.02"),
];

/// `online-stream`'s configuration with the wall clock out of the way:
/// only the move cap binds, so every run takes the same decisions.
fn config(moves_per_arrival: usize) -> OnlineConfig {
    OnlineConfig {
        budget_per_arrival: Duration::from_secs(60),
        moves_per_arrival: Some(moves_per_arrival),
        ..OnlineConfig::default()
    }
}

fn reference_replay(
    trace: &ArrivalTrace,
    machine: &BspParams,
    cfg: &OnlineConfig,
) -> OnlineOutcome {
    let mut sch = reference::RefScheduler::new(machine, cfg.clone()).expect("unbounded memory");
    for ev in &trace.events {
        sch.push(ev).expect("generator traces are accepted");
    }
    sch.outcome().expect("the trace ends in Finalize").clone()
}

fn timeless(batches: &[BatchReport]) -> Vec<BatchReport> {
    let strip = |&b| BatchReport { elapsed_us: 0, ..b };
    batches.iter().map(strip).collect()
}

fn assert_equals_reference(family: &str, got: &OnlineOutcome, want: &OnlineOutcome) {
    assert_eq!(got.dag, want.dag, "{family}: graph");
    assert_eq!(got.sched, want.sched, "{family}: schedule");
    assert_eq!(got.comm, want.comm, "{family}: communication schedule");
    assert_eq!(got.cost, want.cost, "{family}: cost");
    assert_eq!(got.ext_ids, want.ext_ids, "{family}: id map");
    assert_eq!(
        timeless(&got.stats.batches),
        timeless(&want.stats.batches),
        "{family}: batch reports"
    );
}

/// Re-plan time per arrival as the scheduler's own reports clock it.
fn replan_us_per_arrival(out: &OnlineOutcome) -> f64 {
    let total: u64 = out.stats.batches.iter().map(|b| b.elapsed_us).sum();
    total as f64 / out.stats.arrivals as f64
}

fn bench_online_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("online_scaling");
    g.sample_size(3);
    for (family, size, spec) in LADDER {
        let inst = InstanceRegistry::standard()
            .generate_one(&format!("{spec}&seed=20240527 @ bsp?p=8&g=2&l=5"), 0)
            .expect("ladder spec parses");
        let trace = arrival_trace(&inst.dag, &inst.name, &TraceConfig::default());
        let (full, no_sweep) = (config(64), config(0));
        let visits = || bsp_obs::global().counter("bsp_ls_visits_total", &[]).get();
        let before = visits();
        let out = replay(&trace, &inst.machine, &full).expect("replays");
        let per_replan = (visits() - before) as f64 / out.stats.replans.max(1) as f64;
        let integrated = replay(&trace, &inst.machine, &no_sweep).expect("replays");
        if size == "n1e3" {
            let want = reference_replay(&trace, &inst.machine, &full);
            assert_equals_reference(family, &out, &want);
            let want = reference_replay(&trace, &inst.machine, &no_sweep);
            assert_equals_reference(family, &integrated, &want);
        }
        let n = inst.dag.n();
        println!(
            "online_scaling: {family}/{size} n = {n}, m = {}, re-plans = {}: \
             {:.1} µs/arrival, {:.1} without the sweep; {per_replan:.0} visits/re-plan \
             ({:.1} % of n)",
            inst.dag.m(),
            out.stats.replans,
            replan_us_per_arrival(&out),
            replan_us_per_arrival(&integrated),
            100.0 * per_replan / n as f64,
        );
        assert!(
            (family, size) != ("spmv", "n16e3") || per_replan <= 0.1 * n as f64,
            "{family}/{size}: a re-plan visits {per_replan:.0} of {n} nodes"
        );
        for (row, cfg) in [("replay", &full), ("integrate", &no_sweep)] {
            g.bench_function(BenchmarkId::new(format!("{row}/{family}"), size), |b| {
                b.iter(|| black_box(replay(&trace, &inst.machine, cfg).expect("replays").cost))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_online_scaling);
criterion_main!(benches);
