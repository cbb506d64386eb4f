//! The polymorphic [`Scheduler`] interface.
//!
//! Every scheduling algorithm in the workspace — the four comparison
//! baselines, DSC clustering, the paper's initialization heuristics, the
//! Figure-3 and Figure-4 pipelines, and the CCR-driven auto-selector — is
//! reached through this one trait, so harnesses (the experiment runner,
//! the criterion benches, the examples, the daemon) iterate a single
//! registry instead of hand-wiring each algorithm. The registry itself —
//! `Registry`, with spec-string lookup — lives in the `bsp-sched` façade
//! crate, the only crate that can see every algorithm. Its entries are
//! the implementations: each builds one scheduler from its name and a
//! closure over the parsed spec, around the algorithm's plain function.
//!
//! A [`Scheduler`] consumes a [`SolveRequest`] — DAG, machine,
//! [`Budget`](crate::solve::Budget), seed, observer — and produces a
//! [`SolveOutcome`]: a complete, costed result (the assignment `(π, τ)`, a
//! communication schedule `Γ`, and the full [`CostBreakdown`] under the
//! paper's BSP+NUMA cost model) plus per-stage reports. Algorithms that
//! only produce an assignment (the baselines and initializers) are costed
//! under the lazy `Γ` — exactly how the paper evaluates them — via
//! [`ScheduleResult::from_lazy`], and report a single `"run"` stage.

use crate::comm::CommSchedule;
use crate::cost::{schedule_cost, CostBreakdown};
use crate::schedule::BspSchedule;
use crate::solve::{SolveOutcome, SolveRequest};
use bsp_dag::Dag;
use bsp_model::BspParams;

/// Which family a registry entry belongs to (its descriptor's `kind`);
/// lets harnesses select comparable subsets (e.g. "all baselines" for a
/// table's comparison columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Prior-work comparison schedulers (Cilk, BL-EST, ETF, HDagg, DSC).
    Baseline,
    /// The paper's initialization heuristics, run stand-alone.
    Initializer,
    /// Full pipelines (Figure 3, Figure 4, and the auto-selector).
    Pipeline,
}

/// A complete, costed scheduling outcome.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The node → (processor, superstep) assignment.
    pub sched: BspSchedule,
    /// The communication schedule the cost was evaluated under.
    pub comm: CommSchedule,
    /// Full cost breakdown of `(sched, comm)` on the machine.
    pub cost: CostBreakdown,
}

impl ScheduleResult {
    /// Costs an assignment under its lazy communication schedule (values
    /// sent in the superstep their producer computes in).
    pub fn from_lazy(dag: &Dag, machine: &BspParams, sched: BspSchedule) -> Self {
        let comm = CommSchedule::lazy(dag, &sched);
        let cost = schedule_cost(dag, machine, &sched, &comm);
        ScheduleResult { sched, comm, cost }
    }

    /// Costs an assignment under an explicitly optimized `Γ`.
    pub fn from_parts(
        dag: &Dag,
        machine: &BspParams,
        sched: BspSchedule,
        comm: CommSchedule,
    ) -> Self {
        let cost = schedule_cost(dag, machine, &sched, &comm);
        ScheduleResult { sched, comm, cost }
    }

    /// Total schedule cost (shorthand for `self.cost.total`).
    pub fn total(&self) -> u64 {
        self.cost.total
    }
}

/// A named scheduling algorithm: request in, costed outcome out.
///
/// A built scheduler carries its configuration (seed, NUMA-awareness,
/// pipeline budgets, …) captured from the spec it was built from, so two
/// schedulers of the same algorithm with different tuning can coexist. The
/// request's [`Budget`](crate::solve::Budget) caps the scheduler's own
/// configuration; anytime schedulers (the pipelines) check the deadline
/// between stages and return their best-so-far schedule when it expires.
/// The family of a scheduler is registry metadata (`SchedulerDescriptor`),
/// not part of the trait.
pub trait Scheduler {
    /// Stable identifier used in tables, bench ids and spec-string lookups
    /// (e.g. `"etf"`, `"pipeline/base"`).
    fn name(&self) -> &str;

    /// Solves the request, returning a valid, costed schedule with stage
    /// reports. Must return a valid schedule for *every* budget, including
    /// an already-expired deadline.
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome;
}

/// A boxed scheduler shareable across harness worker threads.
pub type SharedScheduler = Box<dyn Scheduler + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;

    struct RoundRobin;

    impl Scheduler for RoundRobin {
        fn name(&self) -> &str {
            "round-robin"
        }
        fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
            // One superstep per node, processors round-robin: always valid.
            crate::solve::solve_single_stage(self.name(), req, || {
                let p = req.machine.p() as u32;
                let n = req.dag.n() as u32;
                let sched =
                    BspSchedule::from_parts((0..n).map(|v| v % p).collect(), (0..n).collect());
                ScheduleResult::from_lazy(req.dag, req.machine, sched)
            })
        }
    }

    #[test]
    fn trait_object_round_trips_through_box() {
        let mut b = DagBuilder::new();
        let u = b.add_node(2, 1);
        let v = b.add_node(3, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 1);

        let boxed: Box<dyn Scheduler> = Box::new(RoundRobin);
        assert_eq!(boxed.name(), "round-robin");
        let out = boxed.solve(&SolveRequest::new(&dag, &machine));
        let r = &out.result;
        assert!(crate::validity::validate(&dag, 2, &r.sched, &r.comm).is_ok());
        assert_eq!(out.total(), r.cost.total);
        assert!(out.total() > 0);
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.stages[0].cost_after, out.total());
    }

    #[test]
    fn lazy_and_parts_agree_on_lazy_comm() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 2);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 2, 3);
        let sched = BspSchedule::from_parts(vec![0, 1], vec![0, 1]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let a = ScheduleResult::from_lazy(&dag, &machine, sched.clone());
        let b2 = ScheduleResult::from_parts(&dag, &machine, sched, comm);
        assert_eq!(a.cost, b2.cost);
    }
}
