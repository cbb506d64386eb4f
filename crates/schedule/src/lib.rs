//! BSP schedule representation, validity checking and cost evaluation
//! (paper §3.2–§3.5).
//!
//! A BSP schedule of a DAG consists of
//!
//! * an assignment of nodes to processors `π : V → {0..P-1}` and supersteps
//!   `τ : V → ℕ` ([`BspSchedule`]), and
//! * a communication schedule `Γ` of 4-tuples `(v, p1, p2, s)` meaning "the
//!   output of `v` is sent from `p1` to `p2` in the communication phase of
//!   superstep `s`" ([`CommSchedule`]).
//!
//! The cost of superstep `s` is `Cwork(s) + g·Ccomm(s) + ℓ`, where `Cwork`
//! is the maximum work assigned to any processor and `Ccomm` the maximum
//! (λ-weighted, under NUMA) amount sent or received by any processor; the
//! schedule cost is the sum over supersteps ([`cost`]).
//!
//! ```
//! use bsp_dag::DagBuilder;
//! use bsp_model::BspParams;
//! use bsp_schedule::{BspSchedule, CommSchedule, cost::schedule_cost};
//!
//! let mut b = DagBuilder::new();
//! let u = b.add_node(2, 1);
//! let v = b.add_node(3, 1);
//! b.add_edge(u, v).unwrap();
//! let dag = b.build().unwrap();
//!
//! // u on processor 0 in superstep 0, v on processor 1 in superstep 1.
//! let sched = BspSchedule::from_parts(vec![0, 1], vec![0, 1]);
//! let comm = CommSchedule::lazy(&dag, &sched);
//! let machine = BspParams::new(2, 2, 5);
//! let c = schedule_cost(&dag, &machine, &sched, &comm);
//! // superstep 0: work 2 + g*1 + l; superstep 1: work 3 + l.
//! assert_eq!(c.total, (2 + 2 + 5) + (3 + 5));
//! ```

pub mod classical;
pub mod comm;
pub mod compact;
pub mod cost;
pub mod events;
pub mod export;
pub mod memory;
pub mod prefix;
pub mod schedule;
pub mod scheduler;
pub mod solve;
pub mod spec;
pub mod trivial;
pub mod validity;

pub use classical::ClassicalSchedule;
pub use comm::{CommSchedule, CommStep, Transfer};
pub use cost::{schedule_cost, CostBreakdown};
pub use events::{EventObserver, SolveEvent, StageReportWire};
pub use export::{classical_to_gantt, dag_to_dot, schedule_to_dot, schedule_to_text};
pub use memory::{
    memory_cost, memory_violations, min_repairable_capacity, node_working_set, simulate_memory,
    MemoryReport, MemoryViolation, RefetchEvent,
};
pub use prefix::{split_at, validate_prefix, PrefixViolation};
pub use schedule::BspSchedule;
pub use scheduler::{ScheduleResult, Scheduler, SchedulerKind};
pub use solve::{
    Budget, ImprovementEvent, Observer, SolveCx, SolveOutcome, SolveRequest, StageReport,
};
pub use spec::{SchedulerDescriptor, SchedulerSpec, SpecError};
pub use validity::{validate, validate_memory, validate_with_memory, InvalidSchedule};
