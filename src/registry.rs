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

use bsp_baselines::{BlestScheduler, CilkScheduler, DscScheduler, EtfScheduler, HDaggScheduler};
use bsp_core::auto::AutoConfig;
use bsp_core::memrepair::MemoryRepairScheduler;
use bsp_core::multilevel::MultilevelConfig;
use bsp_core::pipeline::PipelineConfig;
use bsp_core::tabu::TabuConfig;
use bsp_core::{AutoScheduler, BasePipeline, BspgInit, MultilevelPipeline, SourceInit};
use bsp_schedule::scheduler::{Scheduler, SchedulerKind, SharedScheduler};
use bsp_schedule::spec::{SchedulerDescriptor, SchedulerSpec, SpecError};
use std::time::Duration;

/// Builds one configured scheduler from a parsed spec. The base
/// `PipelineConfig` seeds the pipeline entries; spec parameters override it.
type Factory = fn(&SchedulerSpec, &PipelineConfig) -> Result<SharedScheduler, SpecError>;

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
        (self.factory)(spec, base)
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

/// Applies the shared `mem=on` switch: wrap the scheduler in the
/// feasibility repair pass, which on memory-bounded machines appends a
/// `mem-repair` stage and re-costs the result under the residency
/// simulator (no-op on unbounded machines and when `mem` is off).
fn with_mem_repair<S: Scheduler + Send + Sync + 'static>(
    spec: &SchedulerSpec,
    name: &'static str,
    inner: S,
) -> Result<SharedScheduler, SpecError> {
    Ok(if spec.bool_param("mem")?.unwrap_or(false) {
        Box::new(MemoryRepairScheduler::new(name, inner))
    } else {
        Box::new(inner)
    })
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
            factory: |spec, _| {
                let seed = spec.u64_param("seed")?.unwrap_or(42);
                Ok(Box::new(CilkScheduler { seed }))
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
            factory: |spec, _| {
                let numa_aware = spec.bool_param("numa")?.unwrap_or(false);
                with_mem_repair(spec, "bl-est", BlestScheduler { numa_aware })
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
            factory: |spec, _| {
                let numa_aware = spec.bool_param("numa")?.unwrap_or(false);
                with_mem_repair(spec, "etf", EtfScheduler { numa_aware })
            },
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
            factory: |_, _| Ok(Box::new(HDaggScheduler::default())),
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
            factory: |_, _| Ok(Box::new(DscScheduler)),
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
            factory: |_, _| Ok(Box::new(BspgInit)),
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
            factory: |_, _| Ok(Box::new(SourceInit)),
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
            factory: |spec, base| {
                let inner = BasePipeline {
                    cfg: pipeline_cfg(spec, base)?,
                };
                with_mem_repair(spec, "pipeline/base", inner)
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
            factory: |spec, base| {
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
                let inner = MultilevelPipeline {
                    cfg: pipeline_cfg(spec, base)?,
                    ml,
                };
                with_mem_repair(spec, "pipeline/multilevel", inner)
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
            factory: |spec, base| {
                let mut auto = AutoConfig::default();
                if let Some(lo) = spec.f64_param("ccr_lo")? {
                    auto.ccr_lo = lo;
                }
                if let Some(hi) = spec.f64_param("ccr_hi")? {
                    auto.ccr_hi = hi;
                }
                let inner = AutoScheduler {
                    cfg: pipeline_cfg(spec, base)?,
                    auto,
                };
                with_mem_repair(spec, "auto", inner)
            },
        },
    ]
}
