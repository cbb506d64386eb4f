//! Instance evaluation and parallel sweep execution.

use bsp_core::hc::HillClimbConfig;
use bsp_core::hccs::CommHillClimbConfig;
use bsp_core::ilp::IlpConfig;
use bsp_core::multilevel::MultilevelConfig;
use bsp_core::pipeline::{solve_base_pipeline, solve_multilevel_pipeline, PipelineConfig};
use bsp_dag::Dag;
use bsp_dagdb::DatasetKind;
use bsp_instance::{InstanceRegistry, DEFAULT_SEED};
use bsp_model::BspParams;
use bsp_schedule::solve::{Budget, SolveCx, SolveRequest};
use bsp_schedule::trivial::trivial_cost;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Global run options.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Instance-size scale (1.0 = paper sizes).
    pub scale: f64,
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Smaller parameter grids for smoke runs.
    pub quick: bool,
    /// Scheduler spec strings selected with `--sched` (empty = command
    /// default, usually the whole registry).
    pub scheds: Vec<String>,
    /// Instance spec strings selected with `--instances` (empty = command
    /// default), resolved through [`bsp_instance::InstanceRegistry`].
    pub instances: Vec<String>,
    /// Per-solve wall-clock budget from `--budget-ms`.
    pub budget_ms: Option<u64>,
    /// Bind address from `--addr` (the `serve` command).
    pub addr: Option<String>,
    /// Observability-sidecar bind address from `--metrics-addr` (the
    /// `serve` command; `None` = sidecar disabled).
    pub metrics_addr: Option<String>,
    /// Result-store path from `--store` (the `serve` command).
    pub store: Option<std::path::PathBuf>,
    /// LRU entry cap of the serve result store from `--store-cap`
    /// (`None` = unbounded).
    pub store_cap: Option<usize>,
    /// Arrival-order filter from `--order` (the `online` command;
    /// `None` = all generators).
    pub order: Option<String>,
    /// Fail the `online` command if any replayed final cost exceeds the
    /// acceptance ratio over the cold solve (`--check`).
    pub check: bool,
    /// Fault-plan spec from `--faults` (the `serve` and `chaos`
    /// commands; `None` = injection disabled).
    pub faults: Option<String>,
}

impl RunConfig {
    /// The per-request budget `--budget-ms` implies.
    pub fn budget(&self) -> Budget {
        match self.budget_ms {
            Some(ms) => Budget::deadline(Duration::from_millis(ms)),
            None => Budget::unlimited(),
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.12,
            threads: bsp_par::detect_threads(),
            quick: false,
            scheds: Vec::new(),
            instances: Vec::new(),
            budget_ms: None,
            addr: None,
            metrics_addr: None,
            store: None,
            store_cap: None,
            order: None,
            check: false,
            faults: None,
        }
    }
}

/// A named DAG from the instance registry — the unit the table sweeps
/// pair with their machine grids (the machine clause of the spec, if any,
/// is validated but the grids supply their own machines).
#[derive(Debug, Clone)]
pub struct NamedDag {
    /// Member name as resolved by the registry.
    pub name: String,
    /// The generated DAG.
    pub dag: Dag,
}

/// Resolves an instance spec's DAG side through
/// [`InstanceRegistry::standard`], panicking with the spec and registry
/// error on failure (CLI surface: a bad `--instances` should abort).
pub fn instance_dags(spec: &str) -> Vec<NamedDag> {
    InstanceRegistry::standard()
        .dags(spec, DEFAULT_SEED)
        .unwrap_or_else(|e| panic!("instance spec {spec:?}: {e}"))
        .into_iter()
        .map(|(name, dag)| NamedDag { name, dag })
        .collect()
}

/// The paper's datasets, fetched through the spec-addressable instance
/// API (`dataset/<kind>?scale=…`) rather than private constructors.
pub fn dataset_dags(kind: DatasetKind, scale: f64) -> Vec<NamedDag> {
    instance_dags(&format!("dataset/{}?scale={scale}", kind.name()))
}

/// Resolves each full `--instances` spec (`dag?… @ bsp?…`) into its
/// instances, keeping the spec alongside its expansion. The one
/// resolve-or-abort path shared by the `registry`, `solve`, `online` and
/// `chaos` commands; callers supply their own defaults.
pub fn resolve_instance_groups(specs: &[String]) -> Vec<(String, Vec<bsp_instance::Instance>)> {
    let registry = InstanceRegistry::standard();
    specs
        .iter()
        .map(|spec| {
            let insts = registry
                .generate(spec, DEFAULT_SEED)
                .unwrap_or_else(|e| panic!("--instances {spec:?}: {e}"));
            (spec.clone(), insts)
        })
        .collect()
}

/// What to compute for an instance.
#[derive(Debug, Clone, Default)]
pub struct EvalOptions {
    /// Run the ILP stages of the pipeline.
    pub ilp: bool,
    /// Run the multilevel scheduler (both coarsening ratios).
    pub multilevel: bool,
    /// Also run the BL-EST and ETF baselines.
    pub list_baselines: bool,
    /// Per-solve budget (from `--budget-ms`); deadlines bound the pipeline
    /// stages, while the atomic baselines run to completion regardless.
    pub budget: Budget,
}

/// All costs measured for one (instance, machine) pair. Baseline schedules
/// are evaluated under the paper's cost model with lazy Γ; the pipeline
/// stages use their optimized Γ. Serializes to JSON so sweep results can
/// be saved, diffed across revisions, and replayed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eval {
    /// Instance name.
    pub name: String,
    /// Node count.
    pub n: usize,
    /// Trivial single-processor cost.
    pub trivial: u64,
    /// Cilk baseline.
    pub cilk: u64,
    /// HDagg baseline.
    pub hdagg: u64,
    /// BL-EST baseline (0 if not run).
    pub blest: u64,
    /// ETF baseline (0 if not run).
    pub etf: u64,
    /// Best initialization cost.
    pub init: u64,
    /// After HC + HCcs.
    pub hc: u64,
    /// After ILPfull/ILPpart (before ILPcs).
    pub part: u64,
    /// Final pipeline cost.
    pub ours: u64,
    /// Multilevel with 15% coarsening (0 if not run).
    pub ml15: u64,
    /// Multilevel with 30% coarsening (0 if not run).
    pub ml30: u64,
}

impl Eval {
    /// Best multilevel result (`C_opt`): min of the two ratios.
    pub fn ml_opt(&self) -> u64 {
        match (self.ml15, self.ml30) {
            (0, x) | (x, 0) => x,
            (a, b) => a.min(b),
        }
    }
}

/// Budgets adapted to instance size so sweeps stay laptop-sized.
pub fn pipeline_config(n: usize, opts: &EvalOptions) -> PipelineConfig {
    let hc_moves = if n <= 600 {
        4000
    } else {
        20_000_000 / n.max(1)
    };
    let hc_time = if n <= 2000 {
        Duration::from_millis(1500)
    } else {
        Duration::from_secs(6)
    };
    let enable_ilp = opts.ilp && n <= 1500;
    PipelineConfig {
        hc: HillClimbConfig {
            max_moves: Some(hc_moves),
            time_limit: Some(hc_time),
        },
        hccs: CommHillClimbConfig {
            max_moves: Some(4000),
            time_limit: Some(Duration::from_millis(800)),
        },
        ilp: IlpConfig {
            full_max_vars: 900,
            part_target_vars: 400,
            limits: bsp_ilp_limits(n),
        },
        enable_ilp,
        use_ilp_init: Some(false), // run explicitly where tables need it
        escape: None,
        ..PipelineConfig::default()
    }
}

fn bsp_ilp_limits(n: usize) -> bsp_ilp::SolveLimits {
    bsp_ilp::SolveLimits {
        max_nodes: 120,
        time_limit: Duration::from_millis(if n <= 200 { 900 } else { 400 }),
        gap: 1e-6,
    }
}

/// Evaluates one (dag, machine) pair. Baselines are built individually by
/// spec string through the scheduler registry — only the four the paper's
/// main comparison columns use (cilk, hdagg, bl-est, etf) are constructed;
/// the NUMA-aware variants and DSC are covered by the dedicated ablation
/// tables instead.
pub fn evaluate(name: &str, dag: &Dag, machine: &BspParams, opts: &EvalOptions) -> Eval {
    let cfg = pipeline_config(dag.n(), opts);
    let registry = bsp_sched::Registry::standard();
    let run = |spec: &str| -> u64 {
        registry
            .get_with(spec, &cfg)
            .unwrap_or_else(|e| panic!("baseline spec {spec:?}: {e}"))
            .solve(&SolveRequest::new(dag, machine).with_budget(opts.budget.clone()))
            .total()
    };
    let cilk = run("cilk");
    let hdagg = run("hdagg");
    let (blest, etf) = if opts.list_baselines {
        (run("bl-est"), run("etf"))
    } else {
        (0, 0)
    };
    let req = SolveRequest::new(dag, machine).with_budget(opts.budget.clone());
    let mut cx = SolveCx::new("pipeline/base", &req);
    let r = solve_base_pipeline(dag, machine, &cfg, &mut cx);

    let (ml15, ml30) = if opts.multilevel && dag.n() >= 20 {
        let ml_cost = |ratio: f64| {
            let ml = MultilevelConfig {
                ratios: vec![ratio],
                ..Default::default()
            };
            let req = SolveRequest::new(dag, machine).with_budget(opts.budget.clone());
            let mut cx = SolveCx::new("pipeline/multilevel", &req);
            solve_multilevel_pipeline(dag, machine, &cfg, &ml, &mut cx).cost
        };
        (ml_cost(0.15), ml_cost(0.3))
    } else {
        (0, 0)
    };

    Eval {
        name: name.to_string(),
        n: dag.n(),
        trivial: trivial_cost(dag, machine),
        cilk,
        hdagg,
        blest,
        etf,
        init: r.init_cost,
        hc: r.hc_cost,
        part: r.part_cost,
        ours: r.cost,
        ml15,
        ml30,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_round_trips_through_json() {
        let eval = Eval {
            name: "fine/spmv/mid".to_string(),
            n: 123,
            trivial: 456,
            cilk: 400,
            hdagg: 390,
            blest: 0,
            etf: 0,
            init: 380,
            hc: 350,
            part: 340,
            ours: 330,
            ml15: u64::MAX, // the "not run" sentinel must survive
            ml30: 320,
        };
        let text = serde::json::to_string(&eval);
        let back: Eval = serde::json::from_str(&text).expect("eval parses back");
        assert_eq!(back, eval);
        assert_eq!(back.ml_opt(), 320);
    }

    #[test]
    fn dataset_dags_go_through_the_instance_registry() {
        let dags = dataset_dags(DatasetKind::Tiny, 0.5);
        assert!(!dags.is_empty());
        for d in &dags {
            assert!(d.name.starts_with("dataset/tiny?scale=0.5#"), "{}", d.name);
            assert!(d.dag.n() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "instance spec")]
    fn bad_instance_specs_abort_with_context() {
        instance_dags("no-such-family?x=1");
    }
}
