//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§6–§7, Appendix C). Run with an experiment id:
//!
//! ```text
//! cargo run -p bsp-experiments --release -- table1 [--scale 0.15] [--threads N]
//! cargo run -p bsp-experiments --release -- registry   # descriptor catalogues + health
//! cargo run -p bsp-experiments --release -- solve --sched "pipeline/base?ilp=off" --budget-ms 250
//! cargo run -p bsp-experiments --release -- memory    # cost vs fast-memory capacity, all families
//! cargo run -p bsp-experiments --release -- serve --addr 127.0.0.1:7570 --store results.json --store-cap 512
//! cargo run -p bsp-experiments --release -- chaos --quick [--faults "faults?seed=7&panic=0.02"]
//! cargo run -p bsp-experiments --release -- online --check [--order shuffle] [--budget-ms 2]
//! cargo run -p bsp-experiments --release -- all
//! ```
//!
//! `--sched <spec>` (repeatable) selects schedulers by spec string for the
//! `registry`, `solve` and `memory` commands — `"etf?numa=on"`,
//! `"pipeline/base?ilp=off&hc_iters=200"` (grammar: README § "Choosing a
//! scheduler"). `--instances <spec>` (repeatable) selects problem
//! instances for the `registry`, `solve` and `online` commands through
//! the instance registry — `"spmv?n=1000&q=0.3 @ bsp?p=8&numa=tree"`
//! (grammar: README § "Instances & machines"); the table sweeps themselves
//! fetch their datasets through the same API (`dataset/<kind>?scale=…`).
//! `--budget-ms <N>` puts a wall-clock deadline on every pipeline solve
//! of the table sweeps and the `registry`/`solve` commands; the
//! ablation studies keep their own matched budgets and reject the flag.
//!
//! `serve` runs the `bsp-serve` scheduling daemon (README § "Service"):
//! `--addr <host:port>` binds it (default `127.0.0.1:7570`), `--store
//! <path>` persists the result cache across restarts, `--threads` sizes
//! the worker pool, `--budget-ms` sets the default per-request budget and
//! `--metrics-addr <host:port>` additionally binds the observability
//! sidecar (`GET /metrics` Prometheus text, `GET /trace` Chrome trace
//! JSON — README § "Observability").
//!
//! This harness reproduces the paper's *cost* comparisons; how fast the
//! stack runs is measured by the repo benchmark (`benchmark/README.md`).
//!
//! Defaults are scaled down (instances and budgets) so a full sweep runs on
//! a laptop; `--scale 1.0` restores paper-sized instances. Absolute costs
//! are not comparable with the paper's testbed, but the reported *ratios*
//! reproduce its comparisons.

mod ablations;
mod chaos_cmd;
mod memory;
mod metrics;
mod online_cmd;
mod runner;
mod serve_cmd;
mod tables;

use runner::RunConfig;
use std::env;

/// Every experiment id but `all`, with what it runs.
const EXPERIMENTS: &[(&str, fn(&RunConfig))] = &[
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3_and_14),
    ("table4", tables::table4_and_5),
    ("table5", tables::table4_and_5),
    ("table6", tables::table6),
    ("table7", tables::table7_and_8),
    ("table8", tables::table7_and_8),
    ("table9", tables::table9),
    ("table10", tables::table10),
    ("table11", tables::table11_and_fig7),
    ("table12", tables::table12),
    ("table13", tables::table3_and_14),
    ("table14", tables::table3_and_14),
    ("fig5", tables::fig5),
    ("fig6", tables::fig6),
    ("fig7", tables::table11_and_fig7),
    ("trivial", tables::trivial_counts),
    ("registry", tables::registry_overview),
    ("solve", tables::solve_specs),
    ("serve", serve_cmd::serve),
    ("chaos", chaos_cmd::chaos),
    ("online", online_cmd::online),
    ("memory", memory::memory_sweep),
    ("ablation", ablations::all),
    ("ablation-ls", ablations::ablation_local_search),
    ("ablation-est", ablations::ablation_numa_est),
    ("ablation-presolve", ablations::ablation_presolve),
    ("ablation-auto", ablations::ablation_auto),
    ("ablation-cluster", ablations::ablation_cluster),
];

/// What `--help` prints: this file's module docs.
fn usage() -> String {
    include_str!("main.rs")
        .lines()
        .map_while(|l| l.strip_prefix("//!"))
        .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
        .collect()
}

/// The value of the value-taking flag at `args[*i]`, advancing `i` onto
/// it; a flag given last on the line aborts with its name.
fn value<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| panic!("{flag} takes a value"))
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut cfg = RunConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                print!("{}", usage());
                return;
            }
            "--scale" => {
                cfg.scale = value(&args, &mut i).parse().expect("--scale takes a float");
            }
            "--threads" => {
                // 0 = auto-detect, matching the bsp-par convention.
                let requested = value(&args, &mut i)
                    .parse()
                    .expect("--threads takes an integer");
                cfg.threads = bsp_par::resolve_threads(requested);
            }
            "--quick" => cfg.quick = true,
            "--sched" => cfg.scheds.push(value(&args, &mut i).to_string()),
            "--instances" => cfg.instances.push(value(&args, &mut i).to_string()),
            "--budget-ms" => {
                cfg.budget_ms = Some(
                    value(&args, &mut i)
                        .parse()
                        .expect("--budget-ms takes milliseconds"),
                );
            }
            "--addr" => cfg.addr = Some(value(&args, &mut i).to_string()),
            "--metrics-addr" => cfg.metrics_addr = Some(value(&args, &mut i).to_string()),
            "--store" => cfg.store = Some(value(&args, &mut i).into()),
            "--store-cap" => {
                cfg.store_cap = Some(
                    value(&args, &mut i)
                        .parse()
                        .expect("--store-cap takes an entry count"),
                );
            }
            "--order" => cfg.order = Some(value(&args, &mut i).to_string()),
            "--check" => cfg.check = true,
            "--faults" => cfg.faults = Some(value(&args, &mut i).to_string()),
            other if id.is_none() => id = Some(other.to_string()),
            other => panic!("unexpected argument: {other}"),
        }
        i += 1;
    }
    let id = id.unwrap_or_else(|| "all".to_string());
    let experiment = |name: &str| EXPERIMENTS.iter().find(|(known, _)| *known == name);
    if id != "all" && experiment(&id).is_none() {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|&(known, _)| known).collect();
        eprintln!(
            "unknown experiment id: {id}\nknown ids: all {}",
            known.join(" ")
        );
        std::process::exit(2);
    }
    // Reject flag/command combinations that would otherwise be silently
    // ignored.
    if !cfg.scheds.is_empty() && !matches!(id.as_str(), "registry" | "solve" | "memory") {
        panic!("--sched applies only to the `registry`, `solve` and `memory` commands");
    }
    if !cfg.instances.is_empty() && !matches!(id.as_str(), "registry" | "solve" | "online") {
        panic!("--instances applies only to the `registry`, `solve` and `online` commands");
    }
    if cfg.budget_ms.is_some() && (id.starts_with("ablation") || id == "all") {
        panic!("--budget-ms does not apply to the ablation studies (matched internal budgets)");
    }
    if cfg.addr.is_some() && id != "serve" {
        panic!("--addr applies only to the `serve` command");
    }
    if cfg.metrics_addr.is_some() && id != "serve" {
        panic!("--metrics-addr applies only to the `serve` command");
    }
    if cfg.store.is_some() && id != "serve" {
        panic!("--store applies only to the `serve` command");
    }
    if cfg.store_cap.is_some() && id != "serve" {
        panic!("--store-cap applies only to the `serve` command");
    }
    if cfg.order.is_some() && id != "online" {
        panic!("--order applies only to the `online` command");
    }
    if cfg.check && id != "online" {
        panic!("--check applies only to the `online` command");
    }
    if cfg.faults.is_some() && !matches!(id.as_str(), "serve" | "chaos") {
        panic!("--faults applies only to the `serve` and `chaos` commands");
    }

    let run = |name: &str| {
        println!("\n================ {name} ================");
        let (_, run) = experiment(name).expect("ids are checked before any header");
        run(&cfg);
    };

    if id == "all" {
        // Experiments sharing a sweep are grouped into suites so `all`
        // computes each sweep exactly once.
        run("table4"); // + table5 (same jobs)
        println!("\n================ table1 + fig5 + table6 + table7 + table8 ================");
        tables::no_numa_suite(&cfg);
        run("table9");
        println!("\n================ table2 + table10 ================");
        tables::numa_base_suite(&cfg);
        println!("\n================ fig6 + table3/13/14 + trivial ================");
        tables::numa_ml_suite(&cfg);
        run("table11"); // + fig7 (same jobs)
        run("table12");
        run("ablation");
    } else {
        run(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::value;

    #[test]
    #[should_panic(expected = "--scale takes a value")]
    fn a_flag_given_last_names_itself() {
        let args = ["--sched", "etf", "--scale"].map(str::to_string);
        let mut i = 0;
        assert_eq!(value(&args, &mut i), "etf");
        assert_eq!(i, 1);
        i += 1;
        value(&args, &mut i);
    }
}
