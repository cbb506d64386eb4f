//! One function per paper table/figure group.

use crate::metrics::{geomean, ratio, reduction_pct};
use crate::runner::{
    dataset_dags, evaluate, instance_dags, pipeline_config, resolve_instance_groups, Eval,
    EvalOptions, NamedDag, RunConfig,
};
use bsp_core::ilp::init::ilp_init;
use bsp_core::init::{bspg_schedule, source_schedule};
use bsp_dagdb::DatasetKind;
use bsp_instance::{Instance, MachineSpec, NumaSpec};
use bsp_model::BspParams;
use bsp_par::parallel_map;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::solve::{SolveRequest, Stop};

const ELL: u64 = 5;

fn datasets(cfg: &RunConfig) -> Vec<(DatasetKind, Vec<NamedDag>)> {
    let kinds: &[DatasetKind] = if cfg.quick {
        &[DatasetKind::Tiny, DatasetKind::Small]
    } else {
        &[
            DatasetKind::Tiny,
            DatasetKind::Small,
            DatasetKind::Medium,
            DatasetKind::Large,
        ]
    };
    kinds
        .iter()
        .map(|&k| (k, dataset_dags(k, cfg.scale)))
        .collect()
}

fn grid_p(cfg: &RunConfig) -> Vec<usize> {
    if cfg.quick {
        vec![4, 8]
    } else {
        vec![4, 8, 16]
    }
}

fn grid_g(cfg: &RunConfig) -> Vec<u64> {
    if cfg.quick {
        vec![1, 5]
    } else {
        vec![1, 3, 5]
    }
}

/// A sweep job: one instance under one machine.
struct Job {
    set: DatasetKind,
    p: usize,
    g: u64,
    delta: u64, // 0 = uniform
    inst: NamedDag,
    opts: EvalOptions,
}

fn machine_of(job: &Job) -> BspParams {
    MachineSpec {
        p: job.p,
        g: job.g,
        l: ELL,
        numa: if job.delta > 0 {
            NumaSpec::Tree { delta: job.delta }
        } else {
            NumaSpec::Uniform
        },
        mem: None,
    }
    .build()
}

fn run_jobs(cfg: &RunConfig, jobs: Vec<Job>) -> Vec<(DatasetKind, usize, u64, u64, Eval)> {
    eprintln!("[sweep] {} jobs on {} threads", jobs.len(), cfg.threads);
    parallel_map(cfg.threads, jobs, |j| {
        let machine = machine_of(j);
        let e = evaluate(&j.inst.name, &j.inst.dag, &machine, &j.opts);
        (j.set, j.p, j.g, j.delta, e)
    })
}

fn no_numa_jobs(cfg: &RunConfig, opts: EvalOptions) -> Vec<Job> {
    let opts = EvalOptions {
        budget: cfg.budget(),
        ..opts
    };
    let mut jobs = Vec::new();
    for (set, insts) in datasets(cfg) {
        for p in grid_p(cfg) {
            for g in grid_g(cfg) {
                for inst in &insts {
                    jobs.push(Job {
                        set,
                        p,
                        g,
                        delta: 0,
                        inst: inst.clone(),
                        opts: opts.clone(),
                    });
                }
            }
        }
    }
    jobs
}

fn numa_jobs(cfg: &RunConfig, opts: EvalOptions, skip_tiny: bool) -> Vec<Job> {
    let opts = EvalOptions {
        budget: cfg.budget(),
        ..opts
    };
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = if cfg.quick { &[2, 4] } else { &[2, 3, 4] };
    let mut jobs = Vec::new();
    for (set, insts) in datasets(cfg) {
        if skip_tiny && set == DatasetKind::Tiny {
            continue;
        }
        for &p in ps {
            for &delta in deltas {
                for inst in &insts {
                    jobs.push(Job {
                        set,
                        p,
                        g: 1,
                        delta,
                        inst: inst.clone(),
                        opts: opts.clone(),
                    });
                }
            }
        }
    }
    jobs
}

fn red2(evals: &[&Eval]) -> String {
    let vs_cilk = geomean(
        &evals
            .iter()
            .map(|e| ratio(e.ours, e.cilk))
            .collect::<Vec<_>>(),
    );
    let vs_hdagg = geomean(
        &evals
            .iter()
            .map(|e| ratio(e.ours, e.hdagg))
            .collect::<Vec<_>>(),
    );
    format!(
        "{:>3}% / {:>3}%",
        reduction_pct(vs_cilk),
        reduction_pct(vs_hdagg)
    )
}

/// One no-NUMA sweep (with the list baselines) feeding Tables 1, 6, 7, 8
/// and Figure 5 — they share identical jobs.
pub fn no_numa_suite(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        no_numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                list_baselines: true,
                ..Default::default()
            },
        ),
    );
    println!("--- Table 1 ---");
    table1_print(cfg, &results);
    println!("\n--- Figure 5 ---");
    fig5_print(cfg, &results);
    println!("\n--- Table 6 ---");
    table6_print(cfg, &results);
    println!("\n--- Tables 7 + 8 ---");
    table7_print(cfg, &results);
}

/// Table 1 (§7.1): cost reduction vs Cilk and HDagg without NUMA, split by
/// (g, P) and by (g, dataset), plus the headline means.
pub fn table1(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        no_numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                ..Default::default()
            },
        ),
    );
    table1_print(cfg, &results);
}

fn table1_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    let all: Vec<&Eval> = results.iter().map(|r| &r.4).collect();
    println!(
        "overall mean ratio: vs Cilk {:.2} (paper 0.56), vs HDagg {:.2} (paper 0.76)",
        geomean(
            &all.iter()
                .map(|e| ratio(e.ours, e.cilk))
                .collect::<Vec<_>>()
        ),
        geomean(
            &all.iter()
                .map(|e| ratio(e.ours, e.hdagg))
                .collect::<Vec<_>>()
        ),
    );
    println!("\nreduction vs Cilk / HDagg by (P, g):");
    println!("{:>6} {:>14} {:>14} {:>14}", "", "g=1", "g=3", "g=5");
    for p in grid_p(cfg) {
        let mut row = format!("P={p:<4}");
        for g in grid_g(cfg) {
            let sel: Vec<&Eval> = results
                .iter()
                .filter(|r| r.1 == p && r.2 == g)
                .map(|r| &r.4)
                .collect();
            row += &format!(" {:>14}", red2(&sel));
        }
        println!("{row}");
    }
    println!("\nreduction vs Cilk / HDagg by (dataset, g):");
    for (set, _) in datasets(cfg) {
        let mut row = format!("{:<7}", set.name());
        for g in grid_g(cfg) {
            let sel: Vec<&Eval> = results
                .iter()
                .filter(|r| r.0 == set && r.2 == g)
                .map(|r| &r.4)
                .collect();
            row += &format!(" {:>14}", red2(&sel));
        }
        println!("{row}");
    }
}

/// Figure 5 (§7.1): stage-wise mean cost ratios normalized to Cilk, per g.
pub fn fig5(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        no_numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                ..Default::default()
            },
        ),
    );
    fig5_print(cfg, &results);
}

fn fig5_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    println!(
        "{:>5} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "g", "Cilk", "HDagg", "Init", "HCcs", "ILP"
    );
    for g in grid_g(cfg) {
        let sel: Vec<&Eval> = results.iter().filter(|r| r.2 == g).map(|r| &r.4).collect();
        let col = |f: &dyn Fn(&Eval) -> u64| {
            geomean(&sel.iter().map(|e| ratio(f(e), e.cilk)).collect::<Vec<_>>())
        };
        println!(
            "{:>5} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            g,
            1.0,
            col(&|e| e.hdagg),
            col(&|e| e.init),
            col(&|e| e.hc),
            col(&|e| e.ours),
        );
    }
}

/// Table 6 (App. C.2): the full (g, P, dataset) factorial, vs Cilk/HDagg.
pub fn table6(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        no_numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                ..Default::default()
            },
        ),
    );
    table6_print(cfg, &results);
}

fn table6_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    for g in grid_g(cfg) {
        println!("\n--- g = {g} ---");
        print!("{:<8}", "");
        for p in grid_p(cfg) {
            print!("{:>16}", format!("P={p}"));
        }
        println!();
        for (set, _) in datasets(cfg) {
            print!("{:<8}", set.name());
            for p in grid_p(cfg) {
                let sel: Vec<&Eval> = results
                    .iter()
                    .filter(|r| r.0 == set && r.1 == p && r.2 == g)
                    .map(|r| &r.4)
                    .collect();
                print!("{:>16}", red2(&sel));
            }
            println!();
        }
    }
}

/// Tables 7 and 8 (App. C.2): per-algorithm ratios at g = 5 (normalized to
/// Cilk) including BL-EST/ETF, and the tiny-vs-ETF reduction grid.
pub fn table7_and_8(cfg: &RunConfig) {
    let opts = EvalOptions {
        ilp: true,
        list_baselines: true,
        ..Default::default()
    };
    let results = run_jobs(cfg, no_numa_jobs(cfg, opts));
    table7_print(cfg, &results);
}

fn table7_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    println!("Table 7 — per-algorithm mean ratios vs Cilk at g = 5:");
    println!(
        "{:<8} {:>8} {:>8} {:>6} {:>7} {:>6} {:>6} {:>8} {:>7}",
        "", "BL-EST", "ETF", "Cilk", "HDagg", "Init", "HCcs", "ILPpart", "ILPcs"
    );
    for (set, _) in datasets(cfg) {
        let sel: Vec<&Eval> = results
            .iter()
            .filter(|r| r.0 == set && r.2 == 5)
            .map(|r| &r.4)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let col = |f: &dyn Fn(&Eval) -> u64| {
            geomean(&sel.iter().map(|e| ratio(f(e), e.cilk)).collect::<Vec<_>>())
        };
        println!(
            "{:<8} {:>8.3} {:>8.3} {:>6.3} {:>7.3} {:>6.3} {:>6.3} {:>8.3} {:>7.3}",
            set.name(),
            col(&|e| e.blest),
            col(&|e| e.etf),
            1.0,
            col(&|e| e.hdagg),
            col(&|e| e.init),
            col(&|e| e.hc),
            col(&|e| e.part),
            col(&|e| e.ours),
        );
    }

    println!("\nTable 8 — reduction vs ETF on tiny, by (P, g):");
    print!("{:<6}", "");
    for g in grid_g(cfg) {
        print!("{:>8}", format!("g={g}"));
    }
    println!();
    for p in grid_p(cfg) {
        print!("P={p:<4}");
        for g in grid_g(cfg) {
            let sel: Vec<&Eval> = results
                .iter()
                .filter(|r| r.0 == DatasetKind::Tiny && r.1 == p && r.2 == g)
                .map(|r| &r.4)
                .collect();
            let geo = geomean(&sel.iter().map(|e| ratio(e.ours, e.etf)).collect::<Vec<_>>());
            print!("{:>7}%", reduction_pct(geo));
        }
        println!();
    }
}

/// Table 9 (App. C.3): the effect of the latency parameter ℓ on the medium
/// dataset at g = 1, P = 8.
pub fn table9(cfg: &RunConfig) {
    let kind = if cfg.quick {
        DatasetKind::Small
    } else {
        DatasetKind::Medium
    };
    let insts = dataset_dags(kind, cfg.scale);
    let opts = EvalOptions {
        ilp: true,
        budget: cfg.budget(),
        ..Default::default()
    };
    let ells: Vec<u64> = vec![2, 5, 10, 20];
    let mut jobs = Vec::new();
    for &l in &ells {
        for inst in &insts {
            jobs.push((l, inst.clone()));
        }
    }
    let results = parallel_map(cfg.threads, jobs, |(l, inst)| {
        let machine = MachineSpec::uniform(8, 1, *l).build();
        (*l, evaluate(&inst.name, &inst.dag, &machine, &opts))
    });
    println!("reduction vs Cilk / HDagg on {} (g=1, P=8):", kind.name());
    for &l in &ells {
        let sel: Vec<&Eval> = results.iter().filter(|r| r.0 == l).map(|r| &r.1).collect();
        println!("l = {:>2}:  {}", l, red2(&sel));
    }
}

/// One NUMA base-scheduler sweep feeding Tables 2 and 10.
pub fn numa_base_suite(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                ..Default::default()
            },
            false,
        ),
    );
    println!("--- Table 2 ---");
    println!("reduction vs Cilk / HDagg with NUMA (g=1, l=5):");
    numa_grid(cfg, &results, red2);
    println!("\n--- Table 10 ---");
    table10_print(cfg, &results);
}

/// Table 2 (§7.2): NUMA, base scheduler, aggregated per (P, Δ).
pub fn table2(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                ..Default::default()
            },
            false,
        ),
    );
    println!("reduction vs Cilk / HDagg with NUMA (g=1, l=5):");
    numa_grid(cfg, &results, red2);
}

/// Table 10 (App. C.4): NUMA reduction per (P, Δ, dataset).
pub fn table10(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                ..Default::default()
            },
            false,
        ),
    );
    table10_print(cfg, &results);
}

fn table10_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = if cfg.quick { &[2, 4] } else { &[2, 3, 4] };
    for &p in ps {
        println!("\n--- P = {p} ---");
        print!("{:<8}", "");
        for &d in deltas {
            print!("{:>16}", format!("delta={d}"));
        }
        println!();
        for (set, _) in datasets(cfg) {
            print!("{:<8}", set.name());
            for &d in deltas {
                let sel: Vec<&Eval> = results
                    .iter()
                    .filter(|r| r.0 == set && r.1 == p && r.3 == d)
                    .map(|r| &r.4)
                    .collect();
                print!("{:>16}", red2(&sel));
            }
            println!();
        }
    }
}

/// Runs the NUMA + multilevel sweep once and prints Figure 6, Tables 3, 13
/// and 14, and the trivial-schedule counts — they all share the same jobs.
pub fn numa_ml_suite(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                multilevel: true,
                ..Default::default()
            },
            true,
        ),
    );
    println!("--- Figure 6 ---");
    fig6_print(cfg, &results);
    println!("\n--- Tables 3, 13, 14 ---");
    table3_print(cfg, &results);
    println!("\n--- Trivial-schedule comparison (§7.3) ---");
    trivial_print(&results);
}

/// Figure 6 (§7.2–7.3): NUMA stage ratios incl. the multilevel column.
pub fn fig6(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                multilevel: true,
                ..Default::default()
            },
            true,
        ),
    );
    fig6_print(cfg, &results);
}

fn fig6_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    println!(
        "{:>10} {:>6} {:>7} {:>6} {:>6} {:>6} {:>6}",
        "(P,delta)", "Cilk", "HDagg", "Init", "HCcs", "ILP", "ML"
    );
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = if cfg.quick { &[2, 4] } else { &[2, 3, 4] };
    for &p in ps {
        for &d in deltas {
            let sel: Vec<&Eval> = results
                .iter()
                .filter(|r| r.1 == p && r.3 == d)
                .map(|r| &r.4)
                .collect();
            let col = |f: &dyn Fn(&Eval) -> u64| {
                geomean(&sel.iter().map(|e| ratio(f(e), e.cilk)).collect::<Vec<_>>())
            };
            println!(
                "{:>10} {:>6.2} {:>7.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
                format!("({p},{d})"),
                1.0,
                col(&|e| e.hdagg),
                col(&|e| e.init),
                col(&|e| e.hc),
                col(&|e| e.ours),
                col(&|e| e.ml_opt()),
            );
        }
    }
}

/// Tables 3, 13 and 14 (§7.3, App. C.6): the multilevel scheduler vs the
/// baselines (C15 / C30 / C_opt) and vs the base scheduler.
pub fn table3_and_14(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                multilevel: true,
                ..Default::default()
            },
            true,
        ),
    );
    table3_print(cfg, &results);
}

fn table3_print(cfg: &RunConfig, results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    println!("Tables 3+13 — ML reduction vs Cilk / HDagg per (P, Δ) (C15; C30; Copt):");
    numa_grid(cfg, results, |sel| {
        let red = |f: &dyn Fn(&Eval) -> u64| {
            let c = geomean(&sel.iter().map(|e| ratio(f(e), e.cilk)).collect::<Vec<_>>());
            let h = geomean(&sel.iter().map(|e| ratio(f(e), e.hdagg)).collect::<Vec<_>>());
            format!("{}%/{}%", reduction_pct(c), reduction_pct(h))
        };
        format!(
            "{} ; {} ; {}",
            red(&|e| e.ml15),
            red(&|e| e.ml30),
            red(&|e| e.ml_opt())
        )
    });
    println!("\nTable 14 — ML-to-base-scheduler cost ratio per (P, Δ) (C15; C30; Copt):");
    numa_grid(cfg, results, |sel| {
        let rr = |f: &dyn Fn(&Eval) -> u64| {
            geomean(&sel.iter().map(|e| ratio(f(e), e.ours)).collect::<Vec<_>>())
        };
        format!(
            "{:.3} ; {:.3} ; {:.3}",
            rr(&|e| e.ml15),
            rr(&|e| e.ml30),
            rr(&|e| e.ml_opt())
        )
    });
}

/// §7.3: how often the best non-trivial solution is no better than the
/// trivial all-on-one-processor schedule, with and without ML.
pub fn trivial_counts(cfg: &RunConfig) {
    let results = run_jobs(
        cfg,
        numa_jobs(
            cfg,
            EvalOptions {
                ilp: true,
                multilevel: true,
                ..Default::default()
            },
            true,
        ),
    );
    trivial_print(&results);
}

fn trivial_print(results: &[(DatasetKind, usize, u64, u64, Eval)]) {
    let base_bad: Vec<_> = results.iter().filter(|r| r.4.ours >= r.4.trivial).collect();
    let ml_bad = results
        .iter()
        .filter(|r| r.4.ml_opt().max(1) >= r.4.trivial)
        .count();
    println!(
        "base scheduler >= trivial: {} / {} cases (paper: 114/396)",
        base_bad.len(),
        results.len()
    );
    println!(
        "multilevel     >= trivial: {ml_bad} / {} cases (paper: 8/396)",
        results.len()
    );
    for r in base_bad.iter().take(8) {
        println!(
            "  e.g. {} (n={}, P={}, delta={}): ours {} vs trivial {}",
            r.4.name, r.4.n, r.1, r.3, r.4.ours, r.4.trivial
        );
    }
}

/// Tables 11 + Figure 7 (App. C.5): the huge dataset without NUMA,
/// Init + HC + HCcs only.
pub fn table11_and_fig7(cfg: &RunConfig) {
    let insts = dataset_dags(DatasetKind::Huge, cfg.scale);
    let opts = EvalOptions {
        budget: cfg.budget(),
        ..Default::default()
    }; // no ILP
    let mut jobs = Vec::new();
    for p in grid_p(cfg) {
        for g in grid_g(cfg) {
            for inst in &insts {
                jobs.push(Job {
                    set: DatasetKind::Huge,
                    p,
                    g,
                    delta: 0,
                    inst: inst.clone(),
                    opts: opts.clone(),
                });
            }
        }
    }
    let results = run_jobs(cfg, jobs);
    println!("Table 11 — reduction vs Cilk / HDagg on huge (no NUMA):");
    print!("{:<6}", "");
    for g in grid_g(cfg) {
        print!("{:>16}", format!("g={g}"));
    }
    println!();
    for p in grid_p(cfg) {
        print!("P={p:<4}");
        for g in grid_g(cfg) {
            let sel: Vec<&Eval> = results
                .iter()
                .filter(|r| r.1 == p && r.2 == g)
                .map(|r| &r.4)
                .collect();
            print!("{:>16}", red2(&sel));
        }
        println!();
    }
    println!("\nFigure 7 — stage ratios vs Cilk per P:");
    println!(
        "{:>5} {:>6} {:>7} {:>6} {:>6}",
        "P", "Cilk", "HDagg", "Init", "HCcs"
    );
    for p in grid_p(cfg) {
        let sel: Vec<&Eval> = results.iter().filter(|r| r.1 == p).map(|r| &r.4).collect();
        let col = |f: &dyn Fn(&Eval) -> u64| {
            geomean(&sel.iter().map(|e| ratio(f(e), e.cilk)).collect::<Vec<_>>())
        };
        println!(
            "{:>5} {:>6.2} {:>7.2} {:>6.2} {:>6.2}",
            p,
            1.0,
            col(&|e| e.hdagg),
            col(&|e| e.init),
            col(&|e| e.hc),
        );
    }
}

/// Table 12 (App. C.5): huge dataset with NUMA.
pub fn table12(cfg: &RunConfig) {
    let insts = dataset_dags(DatasetKind::Huge, cfg.scale);
    let opts = EvalOptions {
        budget: cfg.budget(),
        ..Default::default()
    };
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = if cfg.quick { &[2, 4] } else { &[2, 3, 4] };
    let mut jobs = Vec::new();
    for &p in ps {
        for &delta in deltas {
            for inst in &insts {
                jobs.push(Job {
                    set: DatasetKind::Huge,
                    p,
                    g: 1,
                    delta,
                    inst: inst.clone(),
                    opts: opts.clone(),
                });
            }
        }
    }
    let results = run_jobs(cfg, jobs);
    println!("Table 12 — reduction vs Cilk / HDagg on huge with NUMA:");
    numa_grid(cfg, &results, red2);
}

/// Tables 4 + 5 (App. C.1): which initializer wins on the training set.
pub fn table4_and_5(cfg: &RunConfig) {
    let insts = instance_dags(&format!("dataset/training?scale={}", cfg.scale.max(0.1)));
    let mut jobs = Vec::new();
    for p in grid_p(cfg) {
        for g in grid_g(cfg) {
            for inst in &insts {
                jobs.push((p, g, inst.clone()));
            }
        }
    }
    let results = parallel_map(cfg.threads, jobs, |(p, g, inst)| {
        let machine = BspParams::new(*p, *g, ELL);
        // ILPinit degenerates to one-node batches when P² dominates the
        // window budget; skip it there (the paper's tuning reached the same
        // conclusion and only deploys ILPinit for P = 4). Budget each batch
        // tightly — the method is "a faster heuristic just for
        // initialization" (App. A.4) and runs once per ~2-8 nodes.
        let ilp_feasible = inst.dag.n() * p * p * 3 <= 20_000;
        let ilp_cost = if ilp_feasible {
            let mut icfg = pipeline_config(
                inst.dag.n(),
                &EvalOptions {
                    ilp: true,
                    ..Default::default()
                },
            )
            .ilp;
            icfg.limits.max_nodes = 25;
            icfg.limits.time_limit = std::time::Duration::from_millis(120);
            let unlimited = Stop::new(None, None);
            let init = ilp_init(&inst.dag, &machine, &icfg, &unlimited);
            lazy_cost(&inst.dag, &machine, &init)
        } else {
            u64::MAX
        };
        let costs = [
            lazy_cost(&inst.dag, &machine, &bspg_schedule(&inst.dag, &machine)),
            lazy_cost(&inst.dag, &machine, &source_schedule(&inst.dag, &machine)),
            ilp_cost,
        ];
        let winner = (0..3).min_by_key(|&i| (costs[i], i)).unwrap();
        (*p, *g, inst.name.clone(), inst.dag.n(), winner)
    });
    let names = ["BSPg", "Source", "ILPinit"];
    println!("Table 4 — wins on spmv instances per P:");
    for p in grid_p(cfg) {
        let mut wins = [0usize; 3];
        for r in results.iter().filter(|r| r.0 == p && r.2.contains("spmv")) {
            wins[r.4] += 1;
        }
        println!(
            "P={p:<3} BSPg: {}  Source: {}  ILPinit: {}",
            wins[0], wins[1], wins[2]
        );
    }
    println!("\nTable 5 — wins on exp/cg/knn per (P, size tercile):");
    let mut sizes: Vec<usize> = results
        .iter()
        .filter(|r| !r.2.contains("spmv"))
        .map(|r| r.3)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let cut = |q: f64| sizes[((sizes.len() - 1) as f64 * q) as usize];
    let (c1, c2) = (cut(0.34), cut(0.67));
    for p in grid_p(cfg) {
        for (lo, hi, label) in [
            (0, c1, "small-n"),
            (c1 + 1, c2, "mid-n"),
            (c2 + 1, usize::MAX, "large-n"),
        ] {
            let mut wins = [0usize; 3];
            for r in results
                .iter()
                .filter(|r| r.0 == p && !r.2.contains("spmv") && r.3 >= lo && r.3 <= hi)
            {
                wins[r.4] += 1;
            }
            println!(
                "P={p:<3} {label:<8} BSPg: {}  Source: {}  ILPinit: {}",
                wins[0], wins[1], wins[2]
            );
        }
    }
    let _ = names;
}

fn numa_grid<F: Fn(&[&Eval]) -> String>(
    cfg: &RunConfig,
    results: &[(DatasetKind, usize, u64, u64, Eval)],
    cell: F,
) {
    let ps: &[usize] = if cfg.quick { &[8] } else { &[8, 16] };
    let deltas: &[u64] = if cfg.quick { &[2, 4] } else { &[2, 3, 4] };
    print!("{:<6}", "");
    for &d in deltas {
        print!("{:>28}", format!("delta={d}"));
    }
    println!();
    for &p in ps {
        print!("P={p:<4}");
        for &d in deltas {
            let sel: Vec<&Eval> = results
                .iter()
                .filter(|r| r.1 == p && r.3 == d)
                .map(|r| &r.4)
                .collect();
            print!("{:>28}", cell(&sel));
        }
        println!();
    }
}

/// Registry overview: the scheduler *and* instance catalogues (names,
/// families, flags, spec strings), then every scheduler on the selected
/// instances, reported as geomean cost ratio vs the trivial
/// single-processor schedule. Not a paper table — a health dashboard for
/// the whole suite that grows automatically as algorithms and instance
/// families are registered. Respects `--sched` (scheduler subset),
/// `--instances` (full `dag @ machine` specs; default: the tiny/small
/// datasets on the two reference machines) and `--budget-ms`.
pub fn registry_overview(cfg: &RunConfig) {
    use bsp_schedule::trivial::trivial_cost;

    let registry = bsp_sched::Registry::standard();
    println!(
        "registered schedulers ({} entries):",
        registry.entries().len()
    );
    println!(
        "  {:<20} {:<12} {:>5} {:>5} {:>7}  summary",
        "spec", "kind", "numa", "det", "budget"
    );
    for d in registry.descriptors() {
        let onoff = |b: bool| if b { "yes" } else { "-" };
        println!(
            "  {:<20} {:<12} {:>5} {:>5} {:>7}  {}",
            d.spec(),
            format!("{:?}", d.kind).to_lowercase(),
            onoff(d.numa_aware),
            onoff(d.deterministic),
            onoff(d.supports_budget),
            d.summary
        );
    }
    let instance_registry = bsp_sched::instances();
    println!(
        "\nregistered instance families ({} entries):",
        instance_registry.sources().len()
    );
    println!("  {:<18} {:<12} {:>5}  summary", "spec", "family", "batch");
    for d in instance_registry.descriptors() {
        println!(
            "  {:<18} {:<12} {:>5}  {}",
            d.spec(),
            format!("{:?}", d.family).to_lowercase(),
            if d.batch { "yes" } else { "-" },
            d.summary
        );
    }
    println!();

    let inst_specs: Vec<String> = if cfg.instances.is_empty() {
        let mut v = vec![format!("dataset/tiny?scale={} @ bsp?p=4&g=3", cfg.scale)];
        if !cfg.quick {
            v.push(format!(
                "dataset/small?scale={} @ bsp?p=8&numa=tree&delta=3",
                cfg.scale
            ));
        }
        v
    } else {
        cfg.instances.clone()
    };
    let groups: Vec<(String, Vec<Instance>)> = resolve_instance_groups(&inst_specs);
    let max_n = groups
        .iter()
        .flat_map(|(_, insts)| insts.iter().map(|i| i.dag.n()))
        .max()
        .unwrap_or(0);
    let base = pipeline_config(max_n, &EvalOptions::default());
    let specs: Vec<String> = if cfg.scheds.is_empty() {
        registry.descriptors().map(|d| d.spec()).collect()
    } else {
        cfg.scheds.clone()
    };
    let schedulers: Vec<_> = specs
        .iter()
        .map(|spec| {
            registry
                .get_with(spec, &base)
                .unwrap_or_else(|e| panic!("--sched {spec:?}: {e}"))
        })
        .collect();
    eprintln!(
        "[registry] {} schedulers x {} instance groups on {} threads",
        schedulers.len(),
        groups.len(),
        cfg.threads
    );
    for (gname, insts) in &groups {
        // Rows are keyed by spec index, not scheduler name — two specs may
        // configure the same entry differently and must not pool.
        let jobs: Vec<_> = schedulers
            .iter()
            .enumerate()
            .flat_map(|(i, s)| insts.iter().map(move |inst| (i, s, inst)))
            .collect();
        let rows = parallel_map(cfg.threads, jobs, |(i, s, inst)| {
            let req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(cfg.budget());
            let out = s.solve(&req);
            (
                *i,
                ratio(out.total(), trivial_cost(&inst.dag, &inst.machine)),
            )
        });
        println!(
            "instances {gname} ({} members; geomean cost / trivial; lower is better):",
            insts.len()
        );
        for (i, spec) in specs.iter().enumerate() {
            let rs: Vec<f64> = rows
                .iter()
                .filter(|&&(j, _)| j == i)
                .map(|&(_, r)| r)
                .collect();
            println!("  {spec:<28} {:.3}", geomean(&rs));
        }
    }
}

/// The `solve` command: run the `--sched` specs (default: the three
/// pipelines) on an instance named by `--instances` (default: the last
/// member of the small dataset on the P=8 NUMA reference machine) under
/// the `--budget-ms` deadline, printing the per-stage reports of each
/// solve — the CLI window into the anytime API. Batch instance specs
/// contribute their last (largest) member; every `--instances` spec gets
/// its own block.
pub fn solve_specs(cfg: &RunConfig) {
    let registry = bsp_sched::Registry::standard();
    let specs: Vec<String> = if cfg.scheds.is_empty() {
        vec![
            "pipeline/base".to_string(),
            "pipeline/multilevel".to_string(),
            "auto".to_string(),
        ]
    } else {
        cfg.scheds.clone()
    };
    let inst_specs: Vec<String> = if cfg.instances.is_empty() {
        vec![format!(
            "dataset/small?scale={} @ bsp?p=8&numa=tree&delta=3",
            cfg.scale
        )]
    } else {
        cfg.instances.clone()
    };
    for (_spec, insts) in resolve_instance_groups(&inst_specs) {
        let inst = insts.last().expect("instance spec expanded to nothing");
        let base = pipeline_config(inst.dag.n(), &EvalOptions::default());
        println!(
            "instance {} (n = {}, P = {}), budget {:?}",
            inst.name,
            inst.dag.n(),
            inst.machine.p(),
            cfg.budget().deadline
        );
        for spec in &specs {
            let s = registry
                .get_with(spec, &base)
                .unwrap_or_else(|e| panic!("--sched {spec:?}: {e}"));
            let req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(cfg.budget());
            let out = s.solve(&req);
            println!(
                "\n{spec} -> cost {} in {:.1} ms{}",
                out.total(),
                out.elapsed.as_secs_f64() * 1e3,
                if out.budget_exhausted {
                    " (budget exhausted)"
                } else {
                    ""
                }
            );
            for st in &out.stages {
                println!(
                    "  stage {:<12} cost {:>8}  {:>8.1} ms{}",
                    st.stage,
                    st.cost_after,
                    st.elapsed.as_secs_f64() * 1e3,
                    if st.truncated { "  [truncated]" } else { "" }
                );
            }
        }
        println!();
    }
}
