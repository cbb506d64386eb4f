//! A small mixed-integer linear programming (MILP) substrate.
//!
//! The paper solves its scheduling (sub)problems with the CBC solver; this
//! crate is the from-scratch replacement. It provides:
//!
//! * [`Model`] — variables with bounds and integrality, linear constraints,
//!   and a linear objective (always *minimized*);
//! * [`simplex`] — a bounded-variable tableau simplex for the LP relaxation,
//!   cold (two-phase primal) or re-solved from a kept tableau (dual);
//! * [`branch_bound`] — depth-first branch-and-bound over integer variables
//!   on one re-solved tableau, with warm starts, node/time limits, and a
//!   rounding primal heuristic.
//!
//! The solver is *anytime*: given a feasible warm start it never returns a
//! worse solution, which is the contract the scheduling pipeline relies on
//! (every ILP stage in the paper is warm-started from the incumbent
//! schedule and capped by a time limit).
//!
//! ```
//! use bsp_ilp::{Model, Sense, SolveLimits};
//!
//! // max x + 2y  s.t. x + y <= 3, x,y in {0,1,2,3} integer
//! // (minimize the negation).
//! let mut m = Model::new();
//! let x = m.add_integer(0.0, 3.0, -1.0);
//! let y = m.add_integer(0.0, 3.0, -2.0);
//! m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 3.0);
//! let sol = m.solve(None, &SolveLimits::default());
//! assert_eq!(sol.objective.round() as i64, -6); // y = 3
//! ```

//! [`mod@presolve`] adds CBC-style preprocessing (activity-based bound
//! tightening, integer bound rounding, redundancy and infeasibility
//! detection); [`presolve::solve_with_presolve`] chains it with the
//! branch-and-bound search.

pub mod branch_bound;
pub mod model;
pub mod presolve;
pub mod simplex;

pub use branch_bound::{MipSolution, MipStatus, SolveLimits};
pub use model::{Model, Sense, VarId};
pub use presolve::{presolve, solve_with_presolve, PresolveResult};
pub use simplex::{LpCounts, LpSolution, LpStatus, LpWorkspace, MAX_TABLEAU_ENTRIES};
