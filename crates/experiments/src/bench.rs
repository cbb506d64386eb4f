//! The `bench` command: machine-readable per-instance timings.
//!
//! Runs every `--sched` spec on every `--instances` spec (sensible
//! defaults for both) and reports, per (instance, scheduler) pair, the
//! solve wall-clock in nanoseconds alongside the achieved and trivial
//! costs, plus a `kernel` section timing the local-search neighbourhood
//! scan under the probe and the historical apply/revert kernels, and a
//! `parallel` section timing the same steepest scan fanned out over 1, 2,
//! 4 and 8 worker threads ([`bsp_core::steepest::best_move_threaded`]),
//! and a `serve` section measuring `bsp-serve` request throughput on the
//! cold / cached / warm service paths over loopback TCP
//! ([`crate::serve_cmd::serve_bench_runs`]), and an `online` section
//! replaying streaming-arrival traces through the incremental prefix
//! scheduler and comparing the final cost against the offline cold solve
//! ([`crate::online_cmd::online_bench_runs`]), and a `metrics` section
//! snapshotting the process-wide `bsp-obs` registry at the end of the
//! run. With `--json <path>` the full report is written as indented JSON
//! (`schema: "bsp-sched/bench-v6"`), the `BENCH_*.json` perf-trajectory
//! format: commit one per revision and diff them to see hot-path
//! regressions.

use crate::runner::{
    detect_threads, pipeline_config, resolve_instance_groups, EvalOptions, RunConfig,
};
use bsp_bench::{kernel_scan_configs, spread_schedule};
use bsp_core::reference::{best_move_apply_revert, RefScheduleState};
use bsp_core::state::ScheduleState;
use bsp_core::steepest::{best_move, best_move_threaded};
use bsp_instance::Instance;
use bsp_model::BspParams;
use bsp_schedule::solve::SolveRequest;
use bsp_schedule::trivial::trivial_cost;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed (instance, scheduler) measurement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchRun {
    /// Resolved instance name (re-generatable spec).
    pub instance: String,
    /// Scheduler spec string.
    pub sched: String,
    /// Instance node count.
    pub n: usize,
    /// Instance edge count.
    pub m: usize,
    /// Machine processor count.
    pub p: usize,
    /// Achieved schedule cost.
    pub cost: u64,
    /// Trivial single-processor cost (the scale-free reference).
    pub trivial: u64,
    /// Solve wall-clock in nanoseconds.
    pub nanos: u64,
}

/// One local-search kernel measurement: the full steepest-descent
/// neighbourhood scan, timed with the probe kernel and with the historical
/// apply/revert kernel on the same instance and start schedule. The ratio
/// `nanos_apply_revert / nanos_probe` is the kernel speedup tracked across
/// revisions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelRun {
    /// Config label, `<family>/p<P>`.
    pub bench: String,
    /// Instance node count.
    pub n: usize,
    /// Instance edge count.
    pub m: usize,
    /// Machine processor count.
    pub p: usize,
    /// Full-neighbourhood scan wall-clock with `probe_move` (best of 3).
    pub nanos_probe: u64,
    /// Same scan with the historical apply/revert kernel (best of 3).
    pub nanos_apply_revert: u64,
}

/// One parallel-scan measurement: the full steepest-descent neighbourhood
/// scan ([`best_move_threaded`]) at one worker-thread count. Rows with the
/// same `bench` differ only in `threads`; `nanos(1) / nanos(t)` is the
/// scan speedup at `t` workers on the recording host (see `host_threads`
/// in [`BenchReport`] — speedups are only meaningful when the host has
/// that many cores).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelScanRun {
    /// Config label, `<family>/p<P>`.
    pub bench: String,
    /// Instance node count.
    pub n: usize,
    /// Machine processor count.
    pub p: usize,
    /// Worker threads the scan was fanned out over.
    pub threads: usize,
    /// Full-neighbourhood scan wall-clock (best of 3).
    pub nanos: u64,
}

/// The whole report: header plus per-pair runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Format marker for downstream tooling.
    pub schema: String,
    /// Whether `--quick` trimmed the defaults.
    pub quick: bool,
    /// Resolved `--threads` of the run configuration. Solve measurements
    /// are still timed one at a time so `nanos` is comparable across
    /// revisions; this records the setting the sweep commands would use.
    pub threads: usize,
    /// Detected available parallelism of the recording host — the context
    /// needed to read the `parallel` section (a 1-core host cannot show
    /// scan speedups regardless of the thread count).
    pub host_threads: usize,
    /// All measurements, instance-major.
    pub runs: Vec<BenchRun>,
    /// Local-search kernel scan timings (probe vs apply/revert).
    pub kernel: Vec<KernelRun>,
    /// Parallel steepest-scan timings at 1/2/4/8 worker threads.
    pub parallel: Vec<ParallelScanRun>,
    /// `bsp-serve` request throughput on the cold/cached/warm paths.
    pub serve: Vec<crate::serve_cmd::ServeRun>,
    /// Streaming-arrival replays: final online cost vs offline cold
    /// solve, per (instance, arrival order).
    pub online: Vec<crate::online_cmd::OnlineRun>,
    /// Flat snapshot of the process-wide `bsp-obs` registry at the end
    /// of the run: every counter and gauge the measured subsystems
    /// incremented (solver stage counts, local-search probes/scans,
    /// parallel-runtime chunk counts, serve cache traffic). Histograms
    /// appear through the p50/p99 columns of the serve/online sections.
    pub metrics: Vec<bsp_serve::MetricWire>,
}

/// Default instance specs: one representative of each catalogue corner,
/// including a memory-bounded machine so the perf trajectory tracks the
/// residency-simulator hot path.
fn default_instance_specs(quick: bool) -> Vec<String> {
    let mut v = vec![
        "spmv?n=120&q=0.25 @ bsp?p=4&g=2".to_string(),
        "butterfly?k=4 @ bsp?p=8&numa=tree&delta=3".to_string(),
        "stencil?width=16&steps=8 @ bsp?p=4&g=2&mem=24".to_string(),
    ];
    if !quick {
        v.extend([
            "sptrsv?n=80&q=0.3 @ bsp?p=4&g=2".to_string(),
            "forkjoin?chains=4&depth=3&stages=3 @ bsp?p=8".to_string(),
            "erdos?n=80&q=0.08 @ bsp?p=8&numa=ring".to_string(),
            "stencil?width=20&steps=10 @ bsp?p=8&numa=sockets&sockets=2&delta=4".to_string(),
            "spmv?n=120&q=0.25 @ bsp?p=4&g=2&mem=256&evict=belady".to_string(),
        ]);
    }
    v
}

/// Times the full steepest neighbourhood scan under both kernels, on the
/// configurations shared with the `local_search` criterion group
/// ([`bsp_bench::kernel_scan_configs`]) so `BENCH_*.json` and
/// `cargo bench` measure identical workloads.
fn kernel_runs(quick: bool) -> Vec<KernelRun> {
    let reps = if quick { 1 } else { 3 };
    kernel_scan_configs(quick)
        .into_iter()
        .map(|(bench, dag, p)| {
            let p = p as usize;
            let bench = bench.to_string();
            let machine = BspParams::new(p, 3, 5);
            let sched = spread_schedule(&dag, p as u32);
            let n = dag.n() as u32;
            let st = ScheduleState::new(&dag, &machine, &sched);
            let nanos_probe = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(best_move(&st));
                    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
                })
                .min()
                .unwrap_or(0);
            let mut reference = RefScheduleState::new(&dag, &machine, &sched);
            let nanos_apply_revert = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(best_move_apply_revert(&mut reference, n, p as u32));
                    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
                })
                .min()
                .unwrap_or(0);
            KernelRun {
                bench,
                n: dag.n(),
                m: dag.m(),
                p,
                nanos_probe,
                nanos_apply_revert,
            }
        })
        .collect()
}

/// Thread counts the parallel section samples: sequential baseline plus
/// the powers of two the acceptance targets quote.
const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Times the full steepest neighbourhood scan under
/// [`best_move_threaded`] at each [`PARALLEL_THREADS`] count, on the same
/// configurations as [`kernel_runs`]. Every thread count is asserted to
/// select the same winning move as the sequential scan — the
/// bit-identical-determinism contract — before its timing is recorded.
fn parallel_scan_runs(quick: bool) -> Vec<ParallelScanRun> {
    let reps = if quick { 1 } else { 3 };
    let mut out = Vec::new();
    for (bench, dag, p) in kernel_scan_configs(quick) {
        let p = p as usize;
        let machine = BspParams::new(p, 3, 5);
        let sched = spread_schedule(&dag, p as u32);
        let st = ScheduleState::new(&dag, &machine, &sched);
        let reference = best_move(&st);
        for threads in PARALLEL_THREADS {
            assert_eq!(
                best_move_threaded(&st, threads),
                reference,
                "parallel scan diverged from sequential at {threads} threads"
            );
            let nanos = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(best_move_threaded(&st, threads));
                    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
                })
                .min()
                .unwrap_or(0);
            out.push(ParallelScanRun {
                bench: bench.to_string(),
                n: dag.n(),
                p,
                threads,
                nanos,
            });
        }
    }
    out
}

/// Runs the bench sweep, prints a human summary, and writes the JSON
/// report to `--json <path>` when given.
pub fn bench(cfg: &RunConfig) {
    let inst_specs = if cfg.instances.is_empty() {
        default_instance_specs(cfg.quick)
    } else {
        cfg.instances.clone()
    };
    let sched_specs: Vec<String> = if cfg.scheds.is_empty() {
        [
            "cilk",
            "hdagg",
            "bl-est",
            "bl-est/mem",
            "etf",
            "init/bspg",
            "init/source",
            "pipeline/base?ilp=off",
        ]
        .map(str::to_string)
        .into()
    } else {
        cfg.scheds.clone()
    };

    let insts: Vec<Instance> = resolve_instance_groups(&inst_specs)
        .into_iter()
        .flat_map(|(_, insts)| insts)
        .collect();
    let max_n = insts.iter().map(|i| i.dag.n()).max().unwrap_or(0);
    let base = pipeline_config(max_n, &EvalOptions::default());
    let sched_registry = bsp_sched::Registry::standard();
    let schedulers: Vec<_> = sched_specs
        .iter()
        .map(|spec| {
            sched_registry
                .get_with(spec, &base)
                .unwrap_or_else(|e| panic!("--sched {spec:?}: {e}"))
        })
        .collect();

    eprintln!(
        "[bench] {} instances x {} schedulers, timed sequentially",
        insts.len(),
        schedulers.len(),
    );
    // Solves are timed one at a time: concurrent measurement would fold
    // sibling contention into `nanos` and make BENCH_*.json diffs report
    // scheduling noise as perf changes.
    let mut runs = Vec::with_capacity(insts.len() * schedulers.len());
    for inst in &insts {
        for (sched, spec) in schedulers.iter().zip(&sched_specs) {
            let req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(cfg.budget());
            let t0 = Instant::now();
            let out = sched.solve(&req);
            let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            // On memory-bounded machines every schedule is re-costed under
            // the residency simulator, so memory-oblivious schedulers pay
            // for the re-fetch traffic they cause and the column stays
            // comparable. Unbounded machines: memory_cost ≡ the reported
            // total.
            let cost = bsp_schedule::memory::memory_cost(
                &inst.dag,
                &inst.machine,
                &out.result.sched,
                &out.result.comm,
            )
            .total;
            runs.push(BenchRun {
                instance: inst.name.clone(),
                sched: spec.clone(),
                n: inst.dag.n(),
                m: inst.dag.m(),
                p: inst.machine.p(),
                cost,
                trivial: trivial_cost(&inst.dag, &inst.machine),
                nanos,
            });
        }
    }

    println!(
        "{:<44} {:<24} {:>7} {:>10} {:>12}",
        "instance", "sched", "n", "cost", "time"
    );
    for r in &runs {
        println!(
            "{:<44} {:<24} {:>7} {:>10} {:>9.2} ms",
            truncated(&r.instance, 44),
            r.sched,
            r.n,
            r.cost,
            r.nanos as f64 / 1e6
        );
    }

    eprintln!("[bench] timing local-search kernel scans (probe vs apply/revert)");
    let kernel = kernel_runs(cfg.quick);
    println!(
        "\n{:<16} {:>7} {:>4} {:>12} {:>14} {:>8}",
        "kernel scan", "n", "p", "probe", "apply_revert", "speedup"
    );
    for k in &kernel {
        println!(
            "{:<16} {:>7} {:>4} {:>9.2} ms {:>11.2} ms {:>7.2}x",
            k.bench,
            k.n,
            k.p,
            k.nanos_probe as f64 / 1e6,
            k.nanos_apply_revert as f64 / 1e6,
            k.nanos_apply_revert as f64 / k.nanos_probe.max(1) as f64,
        );
    }

    eprintln!("[bench] timing parallel steepest scans (1/2/4/8 worker threads)");
    let parallel = parallel_scan_runs(cfg.quick);
    println!(
        "\n{:<16} {:>7} {:>4} {:>3} {:>12} {:>8}",
        "parallel scan", "n", "p", "t", "nanos", "speedup"
    );
    for r in &parallel {
        let base = parallel
            .iter()
            .find(|b| b.bench == r.bench && b.threads == 1)
            .map_or(r.nanos, |b| b.nanos);
        println!(
            "{:<16} {:>7} {:>4} {:>3} {:>9.2} ms {:>7.2}x",
            r.bench,
            r.n,
            r.p,
            r.threads,
            r.nanos as f64 / 1e6,
            base as f64 / r.nanos.max(1) as f64,
        );
    }

    eprintln!("[bench] measuring bsp-serve throughput (cold/cached/warm over loopback)");
    let serve = crate::serve_cmd::serve_bench_runs(cfg);
    crate::serve_cmd::print_serve_runs(&serve);

    eprintln!("[bench] replaying streaming-arrival traces (online vs cold solve)");
    // The online section keeps its own memory-free instance defaults —
    // `--instances` rows with memory-bounded machines are skipped there.
    let online = crate::online_cmd::online_bench_runs(cfg);
    crate::online_cmd::print_online_runs(&online);

    let report = BenchReport {
        schema: "bsp-sched/bench-v6".to_string(),
        quick: cfg.quick,
        threads: cfg.threads,
        host_threads: detect_threads(),
        runs,
        kernel,
        parallel,
        serve,
        online,
        metrics: bsp_serve::metric_wires(&bsp_obs::global().snapshot()),
    };
    if let Some(path) = &cfg.json {
        let text = serde::json::to_string_pretty(&report);
        std::fs::write(path, text + "\n")
            .unwrap_or_else(|e| panic!("writing --json {}: {e}", path.display()));
        println!(
            "\nwrote {} runs to {} (schema {})",
            report.runs.len(),
            path.display(),
            report.schema
        );
    }
}

fn truncated(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let head: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_round_trips_through_json() {
        let report = BenchReport {
            schema: "bsp-sched/bench-v6".to_string(),
            quick: true,
            threads: 4,
            host_threads: 8,
            runs: vec![BenchRun {
                instance: "spmv?n=120&q=0.25&seed=42 @ bsp?p=4&g=2".to_string(),
                sched: "etf".to_string(),
                n: 120,
                m: 300,
                p: 4,
                cost: 999,
                trivial: 1500,
                nanos: 123_456_789,
            }],
            kernel: vec![KernelRun {
                bench: "layered/p8".to_string(),
                n: 768,
                m: 1920,
                p: 8,
                nanos_probe: 1_700_000,
                nanos_apply_revert: 5_100_000,
            }],
            parallel: vec![ParallelScanRun {
                bench: "layered/p8".to_string(),
                n: 768,
                p: 8,
                threads: 4,
                nanos: 600_000,
            }],
            serve: vec![crate::serve_cmd::ServeRun {
                path: "cached".to_string(),
                instance: "layered?layers=10&width=20 @ bsp?p=4&g=2&l=5".to_string(),
                requests: 1000,
                nanos: 450_000_000,
                requests_per_sec: 2222,
                p50_us: 410,
                p99_us: 980,
                mean_cost: 4321,
            }],
            online: vec![crate::online_cmd::OnlineRun {
                instance: "spmv?n=120&q=0.25&seed=42 @ bsp?p=4&g=2".to_string(),
                order: "layered".to_string(),
                n: 120,
                arrivals: 120,
                reveals: 28,
                replans: 15,
                online_cost: 1070,
                cold_cost: 1000,
                cost_ratio_x1000: 1070,
                p50_us: 650,
                p99_us: 1900,
                nanos: 37_000_000,
                hc_visits: 5200,
                hc_pruned: 4100,
            }],
            metrics: vec![bsp_serve::MetricWire {
                name: "bsp_serve_requests_total{method=\"solve\"}".to_string(),
                kind: "counter".to_string(),
                value: 1001,
            }],
        };
        let text = serde::json::to_string_pretty(&report);
        let back: BenchReport = serde::json::from_str(&text).expect("report parses back");
        assert_eq!(back, report);
    }

    #[test]
    fn kernel_configs_cover_all_three_families_at_two_machine_sizes() {
        let full = kernel_scan_configs(false);
        for fam in ["layered", "erdos", "spmv"] {
            let sizes: Vec<u32> = full
                .iter()
                .filter(|(b, ..)| b.starts_with(fam))
                .map(|&(_, _, p)| p)
                .collect();
            assert_eq!(sizes.len(), 2, "{fam} must be scanned at two sizes");
            assert!(sizes.iter().any(|&p| p >= 32), "{fam} needs a large-P row");
        }
        assert_eq!(
            kernel_scan_configs(true).len(),
            3,
            "quick trims to one per family"
        );
    }
}
