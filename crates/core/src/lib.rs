//! The BSP+NUMA scheduling framework — the paper's primary contribution.
//!
//! This crate implements the full algorithm suite of *Efficient
//! Multi-Processor Scheduling in Increasingly Realistic Models* (IPPS 2024):
//!
//! * **Initialization heuristics** (§4.2): [`init::bspg`] (Algorithm 1),
//!   [`init::source`] (Algorithm 2), and the ILP-based [`ilp::init`].
//! * **Local search** (§4.3): [`hc`] — single-node-move hill climbing over
//!   an incrementally maintained cost ([`state::ScheduleState`]), greedy
//!   and, as in A.3, steepest descent ([`hc::hill_climb_steepest`]) — and
//!   [`hccs`] — hill climbing on communication-phase choices.
//! * **ILP refinement** (§4.4): [`ilp`] — `ILPfull`, `ILPpart` window
//!   reoptimization, and `ILPcs`, all solved by the in-tree
//!   branch-and-bound solver (`bsp-ilp`) with warm starts and an
//!   accept-only-if-better contract.
//! * **Multilevel scheduling** (§4.5): [`multilevel`] — coarsen / solve /
//!   uncoarsen-and-refine, for communication-dominated instances.
//! * **The combined pipelines** (§6, Figures 3–4): [`pipeline`].
//!
//! Beyond the paper's evaluated configuration, the crate implements the
//! extensions its conclusion (§8) and appendices name as future work:
//!
//! * [`tabu`] — local search that escapes local minima (forced
//!   best-admissible moves with a tabu list), guaranteed never to return
//!   worse than its input; it scans its neighbourhood with steepest
//!   descent's
//!   [`hc::best_admissible`], through the allocation-free
//!   [`state::ScheduleState::probe_move`] gain kernel
//!   (`tests/kernel_reference` keeps the historical apply/revert kernel as
//!   the executable specification);
//! * [`auto`] — CCR-driven selection between the base and multilevel
//!   pipelines ("decide if coarsification is even necessary", §7.3/C.6);
//! * [`memrepair`] — feasibility repair for memory-bounded machines
//!   (greedy superstep splitting, and [`memrepair::repair_outcome`], the
//!   post-step behind the registry's `mem=on`), the memory-constrained
//!   rung of the realistic-models ladder.
//!
//! The crate has no [`Scheduler`](bsp_schedule::Scheduler) types of its
//! own: the `bsp-sched` registry builds every scheduler from the functions
//! here. [`schedulers::solve_pipeline`] runs a pipeline under a request's
//! budget:
//!
//! ```
//! use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
//! use bsp_core::schedulers::solve_pipeline;
//! use bsp_dag::random::{random_layered_dag, LayeredConfig};
//! use bsp_model::BspParams;
//! use bsp_schedule::solve::SolveRequest;
//!
//! let dag = random_layered_dag(1, LayeredConfig::default());
//! let machine = BspParams::new(4, 3, 5);
//! let mut cfg = PipelineConfig::default();
//! cfg.enable_ilp = false; // quick run
//! let req = SolveRequest::new(&dag, &machine);
//! let out = solve_pipeline("pipeline/base", &req, |cx| {
//!     solve_base_pipeline(&dag, &machine, &cfg, cx)
//! });
//! assert!(out.total() <= out.stages[0].cost_after); // never worse than `init`
//! ```

pub mod auto;
pub mod hc;
pub mod hccs;
pub mod ilp;
pub mod init;
pub mod memrepair;
pub mod multilevel;
pub(crate) mod obs;
pub mod pipeline;
pub mod schedulers;
pub mod state;
pub mod tabu;
pub mod warm;

pub use auto::{AutoConfig, Strategy};
pub use memrepair::{repair_memory, repair_memory_with, repair_outcome, RepairReport};
pub use pipeline::{PipelineConfig, PipelineResult};
pub use schedulers::solve_pipeline;
pub use state::{ScheduleState, ScheduleTables};
pub use warm::{
    place_appended, place_new_nodes, repair_precedence, repair_precedence_from,
    solve_warm_pipeline, solve_warm_suffix, warm_start_from_map, SuffixOutcome,
};
