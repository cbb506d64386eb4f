//! `bsp-sched` — BSP + NUMA multiprocessor DAG scheduling.
//!
//! A full Rust implementation of the scheduling framework of
//! *Efficient Multi-Processor Scheduling in Increasingly Realistic Models*
//! (Papp, Anegg, Karanasiou, Yzelman — IPPS 2024): the BSP cost model with
//! NUMA extensions and per-processor fast-memory limits (the
//! "realistic-models ladder": classical → BSP → NUMA → memory-bounded),
//! classic baselines (Cilk, BL-EST, ETF, HDagg), initialization
//! heuristics, hill-climbing local search, ILP refinement (with an in-tree
//! MILP solver), a multilevel coarsen-solve-refine scheduler, and a
//! residency simulator plus feasibility repair for memory-bounded
//! machines.
//!
//! Every algorithm is also exposed behind the [`schedule::Scheduler`]
//! trait's anytime `solve` API — [`SolveRequest`](prelude::SolveRequest) in
//! (DAG + machine + [`Budget`](prelude::Budget) + seed + observer),
//! [`SolveOutcome`](prelude::SolveOutcome) out (costed schedule + per-stage
//! reports) — and catalogued in the spec-addressable [`Registry`]:
//! `Registry::standard().get("pipeline/base?ilp=off&hc_iters=200")` builds
//! exactly that scheduler. See the README's "Choosing a scheduler" section
//! for the spec grammar and budget semantics.
//!
//! This façade crate re-exports the sub-crates; see each for details:
//!
//! * [`dag`] — computational DAGs, hyperDAG format, contraction;
//! * [`model`] — machine descriptions `(P, g, ℓ, λ)`;
//! * [`schedule`] — BSP schedules, validity, cost;
//! * [`ilp`] — the MILP substrate;
//! * [`baselines`] — comparison schedulers;
//! * [`core`] — the paper's algorithm framework;
//! * [`dagdb`] — the computational DAG database and generators.
//!
//! ```
//! use bsp_sched::prelude::*;
//!
//! let dag = bsp_sched::dagdb::fine::spmv_dag(
//!     &bsp_sched::dagdb::SparsePattern::random(12, 0.3, 7),
//! );
//! let machine = BspParams::new(4, 3, 5);
//! let pipeline = Registry::standard().get("pipeline/base?ilp=off").unwrap();
//! let out = pipeline.solve(&SolveRequest::new(&dag, &machine));
//! assert!(out.total() > 0);
//! ```

pub use bsp_baselines as baselines;
pub use bsp_core as core;
pub use bsp_dag as dag;
pub use bsp_dagdb as dagdb;
pub use bsp_ilp as ilp;
pub use bsp_instance as instance;
pub use bsp_model as model;
pub use bsp_schedule as schedule;

pub mod race;
pub mod registry;

pub use race::RaceScheduler;
pub use registry::{Registry, RegistryEntry};

/// The standard catalogue of problem-instance families, the counterpart
/// of [`Registry::standard`] for instances:
/// `instances().generate_one("spmv?n=1000&q=0.3 @ bsp?p=8&numa=tree", 42)`
/// builds exactly that reproducible (DAG, machine) pair. See the README's
/// "Instances & machines" section for the spec grammar.
pub fn instances() -> bsp_instance::InstanceRegistry {
    bsp_instance::InstanceRegistry::standard()
}

/// Common imports for applications.
pub mod prelude {
    pub use crate::registry::{Registry, RegistryEntry};
    pub use bsp_core::auto::{AutoConfig, Strategy};
    pub use bsp_core::memrepair::{repair_memory, RepairReport};
    pub use bsp_core::pipeline::{PipelineConfig, PipelineResult};
    pub use bsp_dag::{Dag, DagBuilder};
    pub use bsp_instance::{
        Instance, InstanceDescriptor, InstanceError, InstanceRegistry, InstanceSource, MachineSpec,
        NumaSpec,
    };
    pub use bsp_model::{BspParams, EvictionPolicy, MemorySpec, NumaTopology};
    pub use bsp_schedule::cost::{lazy_cost, schedule_cost, total_cost};
    pub use bsp_schedule::memory::{memory_cost, memory_violations, simulate_memory, MemoryReport};
    pub use bsp_schedule::scheduler::{ScheduleResult, Scheduler, SchedulerKind};
    pub use bsp_schedule::solve::{
        Budget, CancelToken, ImprovementEvent, Observer, SolveOutcome, SolveRequest, StageReport,
        Stop,
    };
    pub use bsp_schedule::spec::{SchedulerDescriptor, SchedulerSpec, SpecError};
    pub use bsp_schedule::validity::{validate_memory, validate_with_memory};
    pub use bsp_schedule::{BspSchedule, CommSchedule};
}
