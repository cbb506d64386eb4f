//! Streaming DAG arrival: online scheduling with a committed prefix.
//!
//! The paper's framing is *increasingly realistic models*; this crate is
//! the online rung of that ladder. Instead of a one-shot cold solve, the
//! problem arrives as an event stream
//! ([`ArrivalTrace`](bsp_instance::trace::ArrivalTrace)): nodes arrive
//! over time, some edges are disclosed late, and the machine is already
//! *executing* the schedule while it is being extended. The
//! [`OnlineScheduler`] maintains:
//!
//! * a **committed prefix** — supersteps below the commit frontier have
//!   been dispatched and are frozen;
//! * a **tentative suffix** — everything at the frontier and above, free
//!   to be rewritten when new work arrives.
//!
//! Re-planning reuses the warm-start machinery of `bsp_core::warm`:
//! list-insert the new nodes (never below the frontier), delay them
//! behind their producers, then floor-restricted hill climbing
//! ([`bsp_core::solve_warm_suffix`]) under a *per-arrival work budget*
//! enforced through the anytime [`SolveCx`](bsp_schedule::solve::SolveCx)
//! contract — a wall-clock deadline plus an accepted-move cap, both
//! proportional to the number of arrivals in the batch.
//!
//! **A re-plan costs what arrived.** Internal node ids are arrival order,
//! and an arrival consumes only nodes that arrived before it, so every
//! edge an arrival brings ascends in id. The scheduler keeps its graph
//! and its `ScheduleState` tables between re-plans and integrates a batch
//! along one of two paths ([`scheduler`] has the details):
//!
//! * a batch of arrivals only — every batch of a trace without late
//!   reveals — is *appended*: [`Dag::append`](bsp_dag::Dag::append) grows
//!   the graph in place, [`bsp_core::place_appended`] places the batch,
//!   [`ScheduleState::attach_appended`](bsp_core::ScheduleState::attach_appended)
//!   extends the tables. No graph rebuild, topological sort, repair pass
//!   or state construction runs, and nothing proportional to `n` is
//!   allocated;
//! * a batch that reveals an edge takes the general path: the batch
//!   becomes a [`DagEdit`](bsp_instance::DagEdit) list,
//!   [`apply_edits`](bsp_instance::apply_edits) rebuilds the graph, the
//!   surviving assignment is transplanted, list insertion and
//!   [`bsp_core::repair_precedence_from`] run over a topological order and
//!   a fresh state is built — a reveal may point anywhere, even from a
//!   later arrival to an earlier one. The arrival-only batches after it
//!   append again.
//!
//! The two paths produce the same graph, schedule and report, batch for
//! batch (`tests/equivalence.rs` drives the scheduler against the
//! rebuild-every-batch one it replaced).
//!
//! Two invariants hold at every event (and are proptested):
//!
//! 1. the committed prefix is a valid schedule of the revealed subgraph
//!    ([`bsp_schedule::prefix::validate_prefix`]);
//! 2. re-planning work stays within the configured budget
//!    ([`BatchReport::hc_moves`] never exceeds moves-per-arrival ×
//!    batch arrivals).
//!
//! Commitment is deliberately conservative: the frontier trails the last
//! superstep by [`COMMIT_LAG`] and never overtakes the
//! [`REVEAL_GUARD`] most recent arrivals, so a
//! late-revealed edge (bounded by
//! [`bsp_instance::trace::MAX_REVEAL_DELAY`]) always lands on a
//! still-tentative consumer. A trace that violates the bound anyway is
//! rejected with the typed [`OnlineError::CommitConflict`] rather than
//! silently rewriting dispatched work.
//!
//! ```
//! use bsp_dag::DagBuilder;
//! use bsp_instance::trace::{arrival_trace, TraceConfig};
//! use bsp_model::BspParams;
//! use bsp_online::{replay, OnlineConfig};
//! use bsp_schedule::validity::validate;
//!
//! let mut b = DagBuilder::new();
//! let u = b.add_node(2, 1);
//! let v = b.add_node(3, 1);
//! let w = b.add_node(1, 1);
//! b.add_edge(u, v).unwrap();
//! b.add_edge(v, w).unwrap();
//! let dag = b.build().unwrap();
//! let machine = BspParams::new(2, 1, 2);
//!
//! let trace = arrival_trace(&dag, "chain", &TraceConfig::default());
//! let outcome = replay(&trace, &machine, &OnlineConfig::default()).unwrap();
//! // The replayed schedule is valid over the revealed DAG (nodes indexed
//! // by arrival order) …
//! assert!(validate(&outcome.dag, 2, &outcome.sched, &outcome.comm).is_ok());
//! // … and, re-expressed in source ids, over the original DAG too.
//! let (sched, comm) = outcome.for_source().unwrap();
//! assert!(validate(&dag, 2, &sched, &comm).is_ok());
//! assert_eq!(outcome.stats.arrivals, 3);
//! ```

pub mod scheduler;

pub use scheduler::{
    replay, BatchReport, OnlineConfig, OnlineError, OnlineOutcome, OnlineScheduler, OnlineStats,
    SuffixView, COMMIT_LAG, REVEAL_GUARD,
};
