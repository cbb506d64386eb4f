//! Computational DAG substrate for BSP scheduling.
//!
//! This crate provides the directed-acyclic-graph representation used
//! throughout the scheduling framework (paper §3.1): nodes carry a *work
//! weight* `w(v)` (time to execute the operation) and a *communication
//! weight* `c(v)` (size of the operation's output), and directed edges
//! encode precedence constraints.
//!
//! Main entry points:
//!
//! * [`Dag`] — immutable CSR-backed graph with weights, the workhorse type.
//! * [`DagBuilder`] — incremental, cycle-checked construction.
//! * [`MutableDag`] — adjacency-set representation supporting the edge
//!   contractions of the multilevel scheduler (paper §4.5, Appendix A.5).
//! * [`hyperdag`] — the HyperDAG_DB text interchange format (paper §5,
//!   Appendix B).
//! * [`topo`], [`traversal`], [`analysis`] — ordering, reachability and
//!   structural statistics.
//!
//! ```
//! use bsp_dag::DagBuilder;
//!
//! // A tiny diamond: a -> {b, c} -> d.
//! let mut b = DagBuilder::new();
//! let a = b.add_node(1, 1);
//! let x = b.add_node(2, 1);
//! let y = b.add_node(3, 1);
//! let d = b.add_node(1, 1);
//! b.add_edge(a, x).unwrap();
//! b.add_edge(a, y).unwrap();
//! b.add_edge(x, d).unwrap();
//! b.add_edge(y, d).unwrap();
//! let dag = b.build().unwrap();
//! assert_eq!(dag.n(), 4);
//! assert_eq!(dag.total_work(), 7);
//! ```

pub mod analysis;
pub mod builder;
#[doc(hidden)]
pub mod calls;
pub mod contraction;
pub mod graph;
pub mod hyperdag;
pub mod random;
pub mod topo;
pub mod traversal;

pub use analysis::DagStats;
pub use builder::{DagBuilder, DagError};
pub use contraction::MutableDag;
pub use graph::{Dag, NodeId};
pub use topo::TopoInfo;
