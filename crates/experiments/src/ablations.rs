//! Ablation studies.
//!
//! These do not reproduce a paper table; they quantify the extensions the
//! paper names as future work (§8, Appendix A):
//!
//! * `ablation_local_search` — greedy first-improvement HC (the paper's
//!   choice) vs steepest descent (A.3 variant (ii)) vs tabu search, under
//!   matched budgets;
//! * `ablation_numa_est` — mean-λ list baselines vs the NUMA-aware per-pair
//!   EST extension (A.1);
//! * `ablation_presolve` — branch-and-bound with and without the presolve
//!   pass on `ILPfull`-sized windows;
//! * `ablation_auto` — the CCR-driven base/multilevel auto-selection (§7.3)
//!   against always-base and always-multilevel.

use crate::metrics::{geomean, ratio};
use crate::runner::{dataset_dags, pipeline_config, EvalOptions, NamedDag, RunConfig};
use bsp_core::auto::{comm_dominance, solve_auto, AutoConfig, Strategy};
use bsp_core::hc::{hill_climb, hill_climb_steepest};
use bsp_core::ilp::window::{WindowIlp, WindowOptions};
use bsp_core::init::{bspg_schedule, source_schedule};
use bsp_core::multilevel::MultilevelConfig;
use bsp_core::pipeline::{solve_base_pipeline, solve_multilevel_pipeline};
use bsp_core::state::ScheduleState;
use bsp_core::tabu::{tabu_search, TabuConfig};
use bsp_dag::Dag;
use bsp_dagdb::DatasetKind;
use bsp_model::{BspParams, NumaTopology};
use bsp_par::parallel_map;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::scheduler::SharedScheduler;
use bsp_schedule::solve::{SolveCx, SolveRequest, Stop};
use bsp_schedule::BspSchedule;
use std::time::{Duration, Instant};

/// Builds one baseline from the scheduler registry by spec string —
/// only the requested entry is constructed.
fn registered(spec: &str) -> SharedScheduler {
    bsp_sched::Registry::standard()
        .get(spec)
        .unwrap_or_else(|e| panic!("baseline spec {spec:?}: {e}"))
}

const ELL: u64 = 5;

fn small_instances(cfg: &RunConfig) -> Vec<NamedDag> {
    let mut v = dataset_dags(DatasetKind::Tiny, cfg.scale);
    v.extend(dataset_dags(DatasetKind::Small, cfg.scale));
    v
}

/// Best-of-two initialization (BSPg, Source) by lazy cost.
fn best_init(dag: &Dag, machine: &BspParams) -> BspSchedule {
    let a = bspg_schedule(dag, machine);
    let b = source_schedule(dag, machine);
    if lazy_cost(dag, machine, &a) <= lazy_cost(dag, machine, &b) {
        a
    } else {
        b
    }
}

/// Local-search ablation: each method refines the same initial schedule
/// under the same wall-clock budget.
pub fn ablation_local_search(cfg: &RunConfig) {
    let budget = Duration::from_millis(if cfg.quick { 120 } else { 400 });
    let mut jobs = Vec::new();
    for inst in small_instances(cfg) {
        for p in [4usize, 8] {
            for g in [1u64, 5] {
                jobs.push((inst.clone(), p, g));
            }
        }
    }
    eprintln!(
        "[ablation:ls] {} jobs on {} threads",
        jobs.len(),
        cfg.threads
    );

    struct Row {
        init: u64,
        greedy: (u64, Duration),
        steepest: (u64, Duration),
        tabu: (u64, Duration),
    }
    let rows = parallel_map(cfg.threads, jobs, |(inst, p, g)| {
        let machine = BspParams::new(*p, *g, ELL);
        let start = best_init(&inst.dag, &machine);
        let init = lazy_cost(&inst.dag, &machine, &start);

        let timed = |f: &dyn Fn() -> u64| {
            let t0 = Instant::now();
            let c = f();
            (c, t0.elapsed())
        };
        let stop = || Stop::new(Some(budget), None);
        let greedy = timed(&|| {
            let mut st = ScheduleState::new(&inst.dag, &machine, &start);
            hill_climb(&mut st, &mut stop());
            st.cost()
        });
        let steepest = timed(&|| {
            let mut st = ScheduleState::new(&inst.dag, &machine, &start);
            hill_climb_steepest(&mut st, &mut stop());
            st.cost()
        });
        let tabu = timed(&|| {
            let tc = TabuConfig::default();
            tabu_search(&inst.dag, &machine, &start, &tc, &mut stop()).1
        });
        Row {
            init,
            greedy,
            steepest,
            tabu,
        }
    });

    let report = |name: &str, pick: &dyn Fn(&Row) -> (u64, Duration)| {
        let vs_init = geomean(
            &rows
                .iter()
                .map(|r| ratio(pick(r).0, r.init))
                .collect::<Vec<_>>(),
        );
        let vs_greedy = geomean(
            &rows
                .iter()
                .map(|r| ratio(pick(r).0, r.greedy.0))
                .collect::<Vec<_>>(),
        );
        let ms: f64 = rows
            .iter()
            .map(|r| pick(r).1.as_secs_f64() * 1e3)
            .sum::<f64>()
            / rows.len() as f64;
        println!(
            "{name:<10} cost/init = {vs_init:.3}   cost/greedyHC = {vs_greedy:.3}   mean time = {ms:.0} ms"
        );
    };
    println!(
        "Local-search ablation (budget {budget:?} each, {} runs):",
        rows.len()
    );
    report("greedyHC", &|r| r.greedy);
    report("steepest", &|r| r.steepest);
    report("tabu", &|r| r.tabu);
}

/// NUMA-aware EST ablation: list baselines with mean-λ vs per-pair λ.
pub fn ablation_numa_est(cfg: &RunConfig) {
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = if cfg.quick { &[4] } else { &[2, 3, 4] };
    let mut jobs = Vec::new();
    for inst in small_instances(cfg) {
        for &p in ps {
            for &d in deltas {
                jobs.push((inst.clone(), p, d));
            }
        }
    }
    eprintln!(
        "[ablation:est] {} jobs on {} threads",
        jobs.len(),
        cfg.threads
    );
    // The NUMA-aware variants are addressed through the spec grammar, the
    // plain ones by bare name — both paths build exactly one entry.
    let suite: Vec<SharedScheduler> = ["etf", "etf?numa=on", "bl-est", "bl-est?numa=on"]
        .map(registered)
        .into();
    let rows = parallel_map(cfg.threads, jobs, |(inst, p, d)| {
        let machine = BspParams::new(*p, 1, ELL).with_numa(NumaTopology::binary_tree(*p, *d));
        let [etf_plain, etf_aware, bl_plain, bl_aware]: [u64; 4] = std::array::from_fn(|i| {
            suite[i]
                .solve(&SolveRequest::new(&inst.dag, &machine))
                .total()
        });
        (*p, *d, etf_plain, etf_aware, bl_plain, bl_aware)
    });
    println!("NUMA-aware EST ablation (ratio aware/plain; < 1 means the extension helps):");
    for &p in ps {
        for &d in deltas {
            let sel: Vec<_> = rows.iter().filter(|r| r.0 == p && r.1 == d).collect();
            let etf = geomean(&sel.iter().map(|r| ratio(r.3, r.2)).collect::<Vec<_>>());
            let bl = geomean(&sel.iter().map(|r| ratio(r.5, r.4)).collect::<Vec<_>>());
            println!("  P={p:<3} Δ={d}:  ETF {etf:.3}   BL-EST {bl:.3}");
        }
    }
}

/// Presolve ablation on full-window ILPs from tiny instances.
pub fn ablation_presolve(cfg: &RunConfig) {
    let insts = dataset_dags(DatasetKind::Tiny, cfg.scale);
    let limits = bsp_ilp::SolveLimits {
        max_nodes: 400,
        time_limit: Duration::from_secs(2),
        gap: 1e-6,
    };
    let mut jobs = Vec::new();
    for inst in insts {
        for p in [2usize, 4] {
            jobs.push((inst.clone(), p));
        }
    }
    eprintln!(
        "[ablation:presolve] {} jobs on {} threads",
        jobs.len(),
        cfg.threads
    );
    let rows = parallel_map(cfg.threads, jobs, |(inst, p)| {
        let machine = BspParams::new(*p, 2, ELL);
        let sched = best_init(&inst.dag, &machine);
        let compacted = bsp_schedule::compact::compact_lazy(&inst.dag, &sched);
        let s_max = compacted.n_supersteps().max(1);
        let w = WindowIlp::build(
            &inst.dag,
            &machine,
            &compacted,
            0,
            s_max - 1,
            WindowOptions::default(),
        );
        let warm = w.warm_start(&inst.dag, &machine, &compacted);

        let t0 = Instant::now();
        let plain = w.model.solve(Some(&warm), &limits);
        let t_plain = t0.elapsed();
        let t1 = Instant::now();
        let pre = bsp_ilp::solve_with_presolve(&w.model, Some(&warm), &limits);
        let t_pre = t1.elapsed();
        (
            w.model.n_vars(),
            plain.objective,
            pre.objective,
            t_plain,
            t_pre,
        )
    });
    let time_ratio = geomean(
        &rows
            .iter()
            .map(|r| (r.4.as_secs_f64() / r.3.as_secs_f64().max(1e-9)).max(1e-9))
            .collect::<Vec<_>>(),
    );
    let better = rows.iter().filter(|r| r.2 < r.1 - 1e-6).count();
    let worse = rows.iter().filter(|r| r.2 > r.1 + 1e-6).count();
    let mean_vars: f64 = rows.iter().map(|r| r.0 as f64).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "Presolve ablation on {} full-window ILPs (mean {mean_vars:.0} vars):",
        rows.len()
    );
    println!("  time(presolve)/time(plain) geomean = {time_ratio:.2}");
    println!("  objective better with presolve: {better}, worse: {worse} (same budget)");
}

/// Auto-selection ablation: CCR-driven strategy vs always-base / always-ML.
pub fn ablation_auto(cfg: &RunConfig) {
    let insts = dataset_dags(DatasetKind::Small, cfg.scale);
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = &[0, 2, 4]; // 0 = uniform (no NUMA)
    let mut jobs = Vec::new();
    for inst in &insts {
        if inst.dag.n() < 40 {
            continue;
        }
        for &p in ps {
            for &d in deltas {
                jobs.push((inst.clone(), p, d));
            }
        }
    }
    eprintln!(
        "[ablation:auto] {} jobs on {} threads",
        jobs.len(),
        cfg.threads
    );
    let rows = parallel_map(cfg.threads, jobs, |(inst, p, d)| {
        let mut machine = BspParams::new(*p, 1, ELL);
        if *d > 0 {
            machine = machine.with_numa(NumaTopology::binary_tree(*p, *d));
        }
        let pipe = pipeline_config(inst.dag.n(), &EvalOptions::default());
        let (dag, req) = (&inst.dag, SolveRequest::new(&inst.dag, &machine));
        let cx = |name| SolveCx::new(name, &req);
        let base = solve_base_pipeline(dag, &machine, &pipe, &mut cx("pipeline/base")).cost;
        let ml_cfg = MultilevelConfig::default();
        let mut ml_cx = cx("pipeline/multilevel");
        let ml = solve_multilevel_pipeline(dag, &machine, &pipe, &ml_cfg, &mut ml_cx).cost;
        let (auto_r, strat) = solve_auto(
            dag,
            &machine,
            &pipe,
            &AutoConfig::default(),
            &mut cx("auto"),
        );
        (
            comm_dominance(&inst.dag, &machine),
            base,
            ml,
            auto_r.cost,
            strat,
        )
    });
    let vs_best = geomean(
        &rows
            .iter()
            .map(|r| ratio(r.3, r.1.min(r.2)))
            .collect::<Vec<_>>(),
    );
    let vs_base = geomean(&rows.iter().map(|r| ratio(r.3, r.1)).collect::<Vec<_>>());
    let vs_ml = geomean(&rows.iter().map(|r| ratio(r.3, r.2)).collect::<Vec<_>>());
    let picks = |s: Strategy| rows.iter().filter(|r| r.4 == s).count();
    println!("Auto-selection ablation ({} runs):", rows.len());
    println!("  auto/min(base, ml) = {vs_best:.3} (1.0 = always picked the winner)");
    println!("  auto/base = {vs_base:.3}   auto/ml = {vs_ml:.3}");
    println!(
        "  strategy counts: base={} multilevel={} both={}",
        picks(Strategy::Base),
        picks(Strategy::Multilevel),
        picks(Strategy::Both)
    );
    let misses = rows
        .iter()
        .filter(|r| {
            (r.4 == Strategy::Base && r.2 < r.1) || (r.4 == Strategy::Multilevel && r.1 < r.2)
        })
        .count();
    println!(
        "  committed to the wrong side in {misses}/{} runs",
        rows.len()
    );
}

/// Clustering-vs-list check of the §4.1 claim: DSC clustering is expected
/// to lose to BL-EST/ETF once communication costs matter.
pub fn ablation_cluster(cfg: &RunConfig) {
    let mut jobs = Vec::new();
    for inst in small_instances(cfg) {
        for p in [4usize, 8] {
            for g in [1u64, 3, 5] {
                jobs.push((inst.clone(), p, g));
            }
        }
    }
    eprintln!(
        "[ablation:cluster] {} jobs on {} threads",
        jobs.len(),
        cfg.threads
    );
    let suite: Vec<SharedScheduler> = ["dsc", "etf", "bl-est", "cilk"].map(registered).into();
    let rows = parallel_map(cfg.threads, jobs, |(inst, p, g)| {
        let machine = BspParams::new(*p, *g, ELL);
        let [dsc, etf, blest, cilk]: [u64; 4] = std::array::from_fn(|i| {
            suite[i]
                .solve(&SolveRequest::new(&inst.dag, &machine))
                .total()
        });
        (*g, dsc, etf, blest, cilk)
    });
    println!("Clustering (DSC) vs list baselines (ratio DSC/other; > 1 = DSC loses):");
    for g in [1u64, 3, 5] {
        let sel: Vec<_> = rows.iter().filter(|r| r.0 == g).collect();
        let vs_etf = geomean(&sel.iter().map(|r| ratio(r.1, r.2)).collect::<Vec<_>>());
        let vs_blest = geomean(&sel.iter().map(|r| ratio(r.1, r.3)).collect::<Vec<_>>());
        let vs_cilk = geomean(&sel.iter().map(|r| ratio(r.1, r.4)).collect::<Vec<_>>());
        println!(
            "  g={g}:  DSC/ETF {vs_etf:.3}   DSC/BL-EST {vs_blest:.3}   DSC/Cilk {vs_cilk:.3}"
        );
    }
}

/// Runs all ablations.
pub fn all(cfg: &RunConfig) {
    println!("--- local search ---");
    ablation_local_search(cfg);
    println!("\n--- NUMA-aware EST ---");
    ablation_numa_est(cfg);
    println!("\n--- ILP presolve ---");
    ablation_presolve(cfg);
    println!("\n--- auto base/ML selection ---");
    ablation_auto(cfg);
    println!("\n--- clustering vs list ---");
    ablation_cluster(cfg);
}
