//! Baseline DAG schedulers (paper §4.1, Appendix A.1).
//!
//! Four baselines are provided, matching the paper's comparison set:
//!
//! * [`cilk`] — the Cilk work-stealing scheduler, adapted to DAGs: ready
//!   nodes are pushed on the stack of the processor that finished their last
//!   predecessor, idle processors steal from the bottom of a random victim.
//!   Represents the practical/application side.
//! * [`blest`] — the BL-EST list scheduler: highest *bottom level* first,
//!   assigned to the processor with the earliest start time (EST), with
//!   communication-volume-aware delays.
//! * [`etf`] — the ETF list scheduler: among all ready (node, processor)
//!   pairs, schedule the one with the earliest starting time.
//! * [`hdagg`] — a reimplementation of the HDagg wavefront scheduler \[46\]:
//!   level sets are aggregated into supersteps while per-processor work
//!   stays balanced, and whole connected components are placed on a single
//!   processor to avoid intra-superstep communication.
//!
//! Cilk, BL-EST and ETF produce classical (time-indexed) schedules that are
//! converted to BSP by the superstep-slicing rule of Appendix A.1
//! ([`bsp_schedule::ClassicalSchedule::to_bsp`]); HDagg is already
//! superstep-structured.

//! The list schedulers additionally support a NUMA-aware EST mode
//! ([`list::CommModel::PerPairLambda`]) — the Appendix A.1 extension the
//! paper leaves to future work — exposed as [`etf::etf_bsp_numa_aware`] and
//! [`blest::blest_bsp_numa_aware`].

//! [`cluster`] adds the clustering family §4.1 discusses (a simplified
//! Dominant Sequence Clustering \[42\]), so the claim that list schedulers
//! dominate clustering under communication costs can be checked in-tree.

pub mod blest;
pub mod cilk;
pub mod cluster;
pub mod etf;
pub mod hdagg;
pub mod list;

pub use blest::{blest_bsp, blest_bsp_numa_aware, blest_schedule};
pub use cilk::{cilk_bsp, cilk_schedule};
pub use cluster::{dsc_bsp, dsc_schedule};
pub use etf::{etf_bsp, etf_bsp_numa_aware, etf_schedule};
pub use hdagg::{hdagg_schedule, HDaggConfig};
pub use list::CommModel;
