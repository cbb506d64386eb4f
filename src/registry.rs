//! The scheduler [`Registry`]: every algorithm in the workspace behind one
//! spec-addressable catalogue.
//!
//! Each entry pairs a [`SchedulerDescriptor`] (stable name, family,
//! NUMA-awareness, determinism, budget support, accepted parameters) with a
//! factory, so harnesses can *list* the suite without constructing
//! anything and *build* exactly the schedulers they need from spec strings
//! like `"etf?numa=on"` or `"pipeline/base?ilp=off&hc_iters=200"` (grammar:
//! [`SchedulerSpec`], README § "Choosing a scheduler"). The experiment
//! runner, the examples and the smoke tests all consume it, so a new
//! algorithm becomes visible to every harness by adding exactly one entry
//! to [`Registry::standard`]. Every scheduler has exactly one name;
//! variants (`numa=on`, `mem=on`) are parameters, never second entries.
//!
//! The entries are the schedulers: a factory receives its descriptor's
//! name and the parsed spec, and builds this module's one [`Scheduler`]
//! type from that name and a closure over the configuration it parsed,
//! around the algorithm's plain function (`etf_bsp`,
//! `solve_base_pipeline`, …). `mem=on` is a post-step of that type, not a
//! wrapper around it.
//!
//! ```
//! use bsp_sched::prelude::*;
//!
//! let dag = bsp_sched::dag::random::random_layered_dag(3, Default::default());
//! let machine = BspParams::new(4, 2, 5);
//! let registry = Registry::standard();
//!
//! // Spec-string lookup builds only the requested scheduler.
//! let etf = registry.get("etf?numa=on").unwrap();
//! let out = etf.solve(&SolveRequest::new(&dag, &machine));
//! assert!(bsp_sched::schedule::validate(&dag, 4, &out.result.sched, &out.result.comm).is_ok());
//!
//! // Or iterate the whole suite.
//! for s in registry.build_all(&PipelineConfig { enable_ilp: false, ..Default::default() }) {
//!     let out = s.solve(&SolveRequest::new(&dag, &machine));
//!     assert!(out.total() > 0);
//! }
//! ```

use bsp_baselines::{
    blest_bsp, blest_bsp_numa_aware, cilk_bsp, dsc_bsp, etf_bsp, etf_bsp_numa_aware,
    hdagg_schedule, HDaggConfig,
};
use bsp_core::auto::{solve_auto, AutoConfig};
use bsp_core::init::{bspg::bspg_schedule, source::source_schedule};
use bsp_core::memrepair::repair_outcome;
use bsp_core::multilevel::MultilevelConfig;
use bsp_core::pipeline::{
    solve_base_pipeline, solve_multilevel_pipeline, PipelineConfig, PipelineResult,
};
use bsp_core::schedulers::solve_pipeline;
use bsp_core::tabu::TabuConfig;
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::scheduler::{ScheduleResult, Scheduler, SchedulerKind, SharedScheduler};
use bsp_schedule::solve::{solve_single_stage, SolveCx, SolveOutcome, SolveRequest};
use bsp_schedule::spec::{SchedulerDescriptor, SchedulerSpec, SpecError};
use bsp_schedule::BspSchedule;
use std::time::Duration;

/// Builds one configured scheduler from its descriptor's name and a parsed
/// spec. The base `PipelineConfig` seeds the pipeline entries; spec
/// parameters override it.
type Factory =
    fn(&'static str, &SchedulerSpec, &PipelineConfig) -> Result<SharedScheduler, SpecError>;

/// One registry row: static metadata plus a factory.
pub struct RegistryEntry {
    descriptor: SchedulerDescriptor,
    factory: Factory,
}

impl RegistryEntry {
    /// The entry's static metadata.
    pub fn descriptor(&self) -> &SchedulerDescriptor {
        &self.descriptor
    }

    /// Builds the scheduler this spec configures. Fails on parameters the
    /// entry does not accept or values that do not parse.
    pub fn build(
        &self,
        spec: &SchedulerSpec,
        base: &PipelineConfig,
    ) -> Result<SharedScheduler, SpecError> {
        spec.deny_unknown(self.descriptor.name, self.descriptor.params)?;
        (self.factory)(self.descriptor.name, spec, base)
    }

    /// Builds the entry's default configuration (a bare-name spec).
    pub fn build_default(&self, base: &PipelineConfig) -> SharedScheduler {
        self.build(&SchedulerSpec::bare(self.descriptor.name), base)
            .expect("bare spec always builds")
    }
}

/// The catalogue of registered schedulers, addressable by spec string.
pub struct Registry {
    entries: Vec<RegistryEntry>,
}

impl Registry {
    /// Every scheduler in the workspace. Ordering is stable: baselines,
    /// then initializers, then pipelines — the column order of the paper's
    /// tables.
    pub fn standard() -> Registry {
        Registry {
            entries: standard_entries(),
        }
    }

    /// All rows, in registration order.
    pub fn entries(&self) -> &[RegistryEntry] {
        &self.entries
    }

    /// All descriptors, in registration order.
    pub fn descriptors(&self) -> impl Iterator<Item = &SchedulerDescriptor> + '_ {
        self.entries.iter().map(|e| &e.descriptor)
    }

    /// The entry named `name`, if registered.
    pub fn entry(&self, name: &str) -> Option<&RegistryEntry> {
        self.entries.iter().find(|e| e.descriptor.name == name)
    }

    /// Parses a spec string and builds exactly that scheduler (no other
    /// entry is constructed), with `PipelineConfig::default()` seeding the
    /// pipeline entries.
    pub fn get(&self, spec: &str) -> Result<SharedScheduler, SpecError> {
        self.get_with(spec, &PipelineConfig::default())
    }

    /// [`get`](Self::get) with an explicit base configuration — harnesses
    /// that adapt budgets to instance size pass their tuned config here and
    /// still let the spec override individual knobs.
    ///
    /// `race/<spec>,<spec>,…` builds a [`RaceScheduler`](crate::race)
    /// portfolio: each comma-separated element is resolved through this
    /// same method (so every registered spec can race), the racers run
    /// concurrently under one shared budget, and the first finisher
    /// cancels the rest. Races cannot nest.
    pub fn get_with(
        &self,
        spec: &str,
        base: &PipelineConfig,
    ) -> Result<SharedScheduler, SpecError> {
        if let Some(rest) = spec.strip_prefix(crate::race::RACE_PREFIX) {
            return self.get_race(spec, rest, base);
        }
        let spec = SchedulerSpec::parse(spec)?;
        let entry = self
            .entry(spec.name())
            .ok_or_else(|| SpecError::UnknownScheduler {
                name: spec.name().to_string(),
                known: self.descriptors().map(|d| d.name.to_string()).collect(),
            })?;
        entry.build(&spec, base)
    }

    /// Resolves the comma-separated racer list of a `race/…` spec. `full`
    /// is the whole spec string (the race's stable name), `rest` the part
    /// after the prefix.
    fn get_race(
        &self,
        full: &str,
        rest: &str,
        base: &PipelineConfig,
    ) -> Result<SharedScheduler, SpecError> {
        let specs: Vec<String> = rest.split(',').map(str::to_string).collect();
        let mut racers = Vec::with_capacity(specs.len());
        for sub in &specs {
            if sub.starts_with(crate::race::RACE_PREFIX) {
                return Err(SpecError::BadValue {
                    key: "race".to_string(),
                    value: sub.clone(),
                    expected: "a non-race scheduler spec (races cannot nest)",
                });
            }
            // Recursion resolves parameters and unknown-name errors with
            // the ordinary diagnostics; an empty element ("race/a,,b" or
            // a bare "race/") fails as EmptyName.
            racers.push(self.get_with(sub, base)?);
        }
        Ok(Box::new(crate::race::RaceScheduler::new(
            full.to_string(),
            specs,
            racers,
        )))
    }

    /// Builds every entry at its default configuration.
    pub fn build_all(&self, base: &PipelineConfig) -> Vec<SharedScheduler> {
        self.entries.iter().map(|e| e.build_default(base)).collect()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

/// Spec keys every pipeline entry accepts (the shared tuning surface).
const PIPELINE_PARAMS: &[&str] = &[
    "ilp",
    "ilp_ms",
    "ilp_init",
    "hc_iters",
    "hc_ms",
    "hccs_iters",
    "hccs_ms",
    "escape",
    "mem",
];

/// What a registry scheduler does with a request, given the name it
/// answers to.
type Body = Box<dyn Fn(&str, &SolveRequest<'_>) -> SolveOutcome + Send + Sync>;

/// The one scheduler type every factory builds: the name it answers to,
/// the body that solves, and whether the `mem=on` repair follows.
struct Built {
    name: String,
    mem_repair: bool,
    body: Body,
}

impl Scheduler for Built {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        let out = (self.body)(&self.name, req);
        if self.mem_repair {
            repair_outcome(&self.name, req, out)
        } else {
            out
        }
    }
}

/// Boxes a [`Built`] answering to `name`.
fn built(
    name: impl Into<String>,
    mem_repair: bool,
    body: impl Fn(&str, &SolveRequest<'_>) -> SolveOutcome + Send + Sync + 'static,
) -> SharedScheduler {
    Box::new(Built {
        name: name.into(),
        mem_repair,
        body: Box::new(body),
    })
}

/// A baseline or stand-alone initializer: `assign` produces only an
/// assignment, costed under its lazy Γ as the paper evaluates them, in one
/// `"run"` stage.
fn single_stage(
    name: impl Into<String>,
    mem_repair: bool,
    assign: impl Fn(&SolveRequest<'_>) -> BspSchedule + Send + Sync + 'static,
) -> SharedScheduler {
    built(name, mem_repair, move |name, req| {
        solve_single_stage(name, req, || {
            ScheduleResult::from_lazy(req.dag, req.machine, assign(req))
        })
    })
}

/// A pipeline, which returns its own optimized communication schedule.
fn pipeline(
    name: &'static str,
    spec: &SchedulerSpec,
    run: impl Fn(&Dag, &BspParams, &mut SolveCx<'_>) -> PipelineResult + Send + Sync + 'static,
) -> Result<SharedScheduler, SpecError> {
    let mem_repair = mem_on(spec)?;
    Ok(built(name, mem_repair, move |name, req| {
        solve_pipeline(name, req, |cx| run(req.dag, req.machine, cx))
    }))
}

/// A list baseline with its `numa` and `mem` switches. `numa=on` shows in
/// the name, except under `mem=on`, which answers to the bare name.
fn list_baseline(
    name: &'static str,
    spec: &SchedulerSpec,
    plain: fn(&Dag, &BspParams) -> BspSchedule,
    numa_aware: fn(&Dag, &BspParams) -> BspSchedule,
) -> Result<SharedScheduler, SpecError> {
    let numa = spec.bool_param("numa")?.unwrap_or(false);
    let mem_repair = mem_on(spec)?;
    let list = if numa { numa_aware } else { plain };
    let name = if numa && !mem_repair {
        format!("{name}?numa=on")
    } else {
        name.to_string()
    };
    Ok(single_stage(name, mem_repair, move |req| {
        list(req.dag, req.machine)
    }))
}

/// The shared `mem=on` switch: the feasibility repair post-step, which on
/// memory-bounded machines appends a `mem-repair` stage and re-costs the
/// result under the residency simulator (a no-op on unbounded machines).
fn mem_on(spec: &SchedulerSpec) -> Result<bool, SpecError> {
    Ok(spec.bool_param("mem")?.unwrap_or(false))
}

/// Applies the shared pipeline parameters to a copy of `base`.
fn pipeline_cfg(spec: &SchedulerSpec, base: &PipelineConfig) -> Result<PipelineConfig, SpecError> {
    let mut cfg = base.clone();
    if let Some(ilp) = spec.bool_param("ilp")? {
        cfg.enable_ilp = ilp;
    }
    if let Some(ms) = spec.u64_param("ilp_ms")? {
        cfg.ilp.limits.time_limit = Duration::from_millis(ms);
    }
    if let Some(on) = spec.bool_param("ilp_init")? {
        cfg.use_ilp_init = Some(on);
    }
    if let Some(n) = spec.usize_param("hc_iters")? {
        cfg.hc.max_moves = Some(n);
    }
    if let Some(ms) = spec.u64_param("hc_ms")? {
        cfg.hc.time_limit = Some(Duration::from_millis(ms));
    }
    if let Some(n) = spec.usize_param("hccs_iters")? {
        cfg.hccs.max_moves = Some(n);
    }
    if let Some(ms) = spec.u64_param("hccs_ms")? {
        cfg.hccs.time_limit = Some(Duration::from_millis(ms));
    }
    match spec.get("escape") {
        None | Some("none") => {}
        Some("tabu") => cfg.escape = Some(TabuConfig::default()),
        Some(v) => {
            return Err(SpecError::BadValue {
                key: "escape".to_string(),
                value: v.to_string(),
                expected: "none|tabu",
            })
        }
    }
    Ok(cfg)
}

fn standard_entries() -> Vec<RegistryEntry> {
    vec![
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "cilk",
                kind: SchedulerKind::Baseline,
                numa_aware: false,
                deterministic: true,
                supports_budget: false,
                params: &["seed"],
                summary: "Cilk work-stealing baseline (deterministic steal stream)",
            },
            factory: |name, spec, _| {
                // Steal victims come from a deterministic stream. The
                // request seed shifts (not replaces) the configured one,
                // so seed 0, the default, reproduces the historical tables.
                let seed = spec.u64_param("seed")?.unwrap_or(42);
                Ok(single_stage(name, false, move |req| {
                    cilk_bsp(req.dag, req.machine, seed.wrapping_add(req.seed))
                }))
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "bl-est",
                kind: SchedulerKind::Baseline,
                numa_aware: false,
                deterministic: true,
                // Flags describe the bare-name configuration: the list
                // scheduler is atomic; only the `mem=on` repair wrapper
                // polls the deadline (between splits).
                supports_budget: false,
                params: &["numa", "mem"],
                summary: "BL-EST list scheduling (numa=on: per-pair λ EST, A.1; mem=on: memory feasibility repair)",
            },
            factory: |name, spec, _| {
                list_baseline(name, spec, blest_bsp, blest_bsp_numa_aware)
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "etf",
                kind: SchedulerKind::Baseline,
                numa_aware: false,
                deterministic: true,
                supports_budget: false,
                params: &["numa", "mem"],
                summary: "ETF list scheduling (numa=on: per-pair λ EST, A.1; mem=on: memory feasibility repair)",
            },
            factory: |name, spec, _| list_baseline(name, spec, etf_bsp, etf_bsp_numa_aware),
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "hdagg",
                kind: SchedulerKind::Baseline,
                numa_aware: false,
                deterministic: true,
                supports_budget: false,
                params: &[],
                summary: "HDagg wavefront aggregation baseline",
            },
            factory: |name, _, _| {
                Ok(single_stage(name, false, |req| {
                    hdagg_schedule(req.dag, req.machine, HDaggConfig::default())
                }))
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "dsc",
                kind: SchedulerKind::Baseline,
                numa_aware: false,
                deterministic: true,
                supports_budget: false,
                params: &[],
                summary: "Dominant Sequence Clustering baseline",
            },
            factory: |name, _, _| {
                Ok(single_stage(name, false, |req| dsc_bsp(req.dag, req.machine)))
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "init/bspg",
                kind: SchedulerKind::Initializer,
                numa_aware: false,
                deterministic: true,
                supports_budget: false,
                params: &[],
                summary: "BSP-tailored greedy initializer (Algorithm 1), stand-alone",
            },
            factory: |name, _, _| {
                Ok(single_stage(name, false, |req| {
                    bspg_schedule(req.dag, req.machine)
                }))
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "init/source",
                kind: SchedulerKind::Initializer,
                numa_aware: false,
                deterministic: true,
                supports_budget: false,
                params: &[],
                summary: "wavefront initializer (Algorithm 2), stand-alone",
            },
            factory: |name, _, _| {
                Ok(single_stage(name, false, |req| {
                    source_schedule(req.dag, req.machine)
                }))
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "pipeline/base",
                kind: SchedulerKind::Pipeline,
                numa_aware: true,
                deterministic: false,
                supports_budget: true,
                params: PIPELINE_PARAMS,
                summary: "Figure-3 pipeline: init → HC/HCcs → ILP stages",
            },
            factory: |name, spec, base| {
                let cfg = pipeline_cfg(spec, base)?;
                pipeline(name, spec, move |dag, machine, cx| {
                    solve_base_pipeline(dag, machine, &cfg, cx)
                })
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "pipeline/multilevel",
                kind: SchedulerKind::Pipeline,
                numa_aware: true,
                deterministic: false,
                supports_budget: true,
                params: &[
                    "ilp",
                    "ilp_ms",
                    "ilp_init",
                    "hc_iters",
                    "hc_ms",
                    "hccs_iters",
                    "hccs_ms",
                    "escape",
                    "mem",
                    "ratio",
                ],
                summary: "Figure-4 pipeline: coarsen → solve → uncoarsen-refine",
            },
            factory: |name, spec, base| {
                let mut ml = MultilevelConfig::default();
                if let Some(r) = spec.f64_param("ratio")? {
                    if !(0.0..=1.0).contains(&r) {
                        return Err(SpecError::BadValue {
                            key: "ratio".to_string(),
                            value: r.to_string(),
                            expected: "ratio in [0, 1]",
                        });
                    }
                    ml.ratios = vec![r];
                }
                let cfg = pipeline_cfg(spec, base)?;
                pipeline(name, spec, move |dag, machine, cx| {
                    solve_multilevel_pipeline(dag, machine, &cfg, &ml, cx)
                })
            },
        },
        RegistryEntry {
            descriptor: SchedulerDescriptor {
                name: "auto",
                kind: SchedulerKind::Pipeline,
                numa_aware: true,
                deterministic: false,
                supports_budget: true,
                params: &[
                    "ilp",
                    "ilp_ms",
                    "ilp_init",
                    "hc_iters",
                    "hc_ms",
                    "hccs_iters",
                    "hccs_ms",
                    "escape",
                    "mem",
                    "ccr_lo",
                    "ccr_hi",
                ],
                summary: "CCR-driven selector between the base and multilevel pipelines",
            },
            factory: |name, spec, base| {
                let mut auto = AutoConfig::default();
                if let Some(lo) = spec.f64_param("ccr_lo")? {
                    auto.ccr_lo = lo;
                }
                if let Some(hi) = spec.f64_param("ccr_hi")? {
                    auto.ccr_hi = hi;
                }
                let cfg = pipeline_cfg(spec, base)?;
                pipeline(name, spec, move |dag, machine, cx| {
                    solve_auto(dag, machine, &cfg, &auto, cx).0
                })
            },
        },
    ]
}
