//! Feasibility repair for memory-bounded machines: greedy superstep
//! splitting.
//!
//! A schedule violates a machine's fast-memory bound when some compute
//! phase's working set — the cell's distinct inputs plus its own outputs —
//! exceeds the capacity `M`
//! ([`InvalidSchedule::MemoryExceeded`](bsp_schedule::InvalidSchedule)).
//! Cross-superstep pressure is never a feasibility problem (eviction plus
//! re-fetch handles it, at a cost the residency simulator charges), so
//! repair only has to break up oversized cells: the offending cell's nodes
//! are partitioned, in topological order, into consecutive groups whose
//! individual working sets fit, and `k − 1` fresh supersteps are inserted
//! to hold groups `1..k` (every later superstep shifts up). The
//! transformation preserves schedule validity — same-processor precedence
//! is kept by the topological grouping, and cross-processor consumers only
//! move further into the future — and is deterministic.
//!
//! Spill traffic is *not* inserted explicitly: splitting re-exposes the
//! eviction points to the residency simulator, which charges the implied
//! re-fetches into the cost model (`SuperstepCost::refetch`). This mirrors
//! the greedy spill-insertion view — each group boundary is exactly a
//! point where the evicted inputs of later groups spill to their
//! producers' backing stores.
//!
//! The pass is *monotone in feasibility*: it never increases the number of
//! memory violations, and a node whose own working set exceeds `M` (no
//! split can help) is left in place and reported, so the result is always
//! feasible-or-best-effort — also under an expired budget, which simply
//! stops the splitting early ([`repair_memory_with`]).

use bsp_dag::topo::TopoInfo;
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::memory::{memory_cost, memory_violations, node_working_set};
use bsp_schedule::scheduler::ScheduleResult;
use bsp_schedule::solve::{Budget, SolveCx, SolveOutcome, SolveRequest};
use bsp_schedule::{BspSchedule, CommSchedule};
use std::collections::HashSet;

/// What one repair pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Memory violations in the input schedule.
    pub violations_before: usize,
    /// Memory violations remaining (0 unless a single node's working set
    /// exceeds `M`, or the budget expired mid-repair).
    pub violations_after: usize,
    /// Oversized cells split.
    pub splits: usize,
    /// Supersteps inserted across all splits.
    pub inserted_supersteps: u32,
    /// Whether the budget stopped the pass before it ran dry.
    pub truncated: bool,
}

/// [`repair_memory`] with a budget probe: `expired()` is polled between
/// splits, and a `true` stops the pass, returning the current best-effort
/// schedule (always at least as feasible as the input).
pub fn repair_memory_with(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    mut expired: impl FnMut() -> bool,
) -> (BspSchedule, RepairReport) {
    let mut report = RepairReport {
        violations_before: memory_violations(dag, machine, sched).len(),
        ..RepairReport::default()
    };
    let mut cur = sched.clone();
    if report.violations_before == 0 {
        return (cur, report);
    }
    let spec = machine
        .memory()
        .expect("violations exist only on memory-bounded machines");
    let topo = TopoInfo::new(dag);
    // A node whose own working set (its output plus all inputs) exceeds M
    // cannot be made feasible by any split.
    let unrepairable: Vec<bool> = dag
        .nodes()
        .map(|v| !spec.fits(node_working_set(dag, v)))
        .collect();
    // Each iteration splits one oversized multi-node cell into groups that
    // individually fit (or a single unrepairable node), so no cell is ever
    // attempted twice and the loop is bounded by the cell count. Cells
    // holding two or more unrepairable nodes are skipped outright:
    // splitting them would turn one violation into several, breaking the
    // never-more-violations contract.
    loop {
        if expired() {
            report.truncated = true;
            break;
        }
        let violations = memory_violations(dag, machine, &cur);
        let Some(target) = violations.iter().find(|v| {
            let mut nodes = 0usize;
            let mut bad = 0usize;
            for w in dag.nodes() {
                if cur.proc(w) == v.proc && cur.step(w) == v.step {
                    nodes += 1;
                    bad += unrepairable[w as usize] as usize;
                }
            }
            nodes > 1 && bad <= 1
        }) else {
            break; // only unsplittable cells remain (if any)
        };
        let (q, s) = (target.proc, target.step);
        let mut cell: Vec<NodeId> = dag
            .nodes()
            .filter(|&w| cur.proc(w) == q && cur.step(w) == s)
            .collect();
        cell.sort_unstable_by_key(|&w| (topo.position[w as usize], w));

        // Greedy grouping: add nodes while the group's working set fits.
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        let mut counted: HashSet<NodeId> = HashSet::new();
        let mut need = 0u64;
        for &v in &cell {
            let mut delta = 0;
            let fresh: Vec<NodeId> = std::iter::once(v)
                .chain(dag.predecessors(v).iter().copied())
                .filter(|u| !counted.contains(u))
                .collect();
            for &u in &fresh {
                delta += dag.comm(u);
            }
            if !groups.is_empty() && !counted.is_empty() && !spec.fits(need + delta) {
                counted.clear();
                need = 0;
                groups.push(Vec::new());
            } else if groups.is_empty() {
                groups.push(Vec::new());
            }
            if counted.is_empty() {
                // (Re)opening a group: count v and all its inputs.
                for u in std::iter::once(v).chain(dag.predecessors(v).iter().copied()) {
                    if counted.insert(u) {
                        need += dag.comm(u);
                    }
                }
            } else {
                for &u in &fresh {
                    counted.insert(u);
                }
                need += delta;
            }
            groups.last_mut().unwrap().push(v);
        }
        let k = groups.len() as u32;
        debug_assert!(k >= 2, "an oversized multi-node cell must split");
        // Insert k−1 supersteps: later steps shift, group j lands at s+j.
        for w in dag.nodes() {
            if cur.step(w) > s {
                cur.set(w, cur.proc(w), cur.step(w) + k - 1);
            }
        }
        for (j, group) in groups.iter().enumerate() {
            for &v in group {
                cur.set(v, q, s + j as u32);
            }
        }
        report.splits += 1;
        report.inserted_supersteps += k - 1;
        debug_assert!(cur.respects_precedence_lazy(dag));
    }
    report.violations_after = memory_violations(dag, machine, &cur).len();
    debug_assert!(report.violations_after <= report.violations_before);
    (cur, report)
}

/// Makes a schedule memory-feasible by splitting oversized supersteps
/// (see the module docs). On machines without a memory bound, or for
/// already-feasible schedules, the input is returned unchanged.
pub fn repair_memory(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
) -> (BspSchedule, RepairReport) {
    repair_memory_with(dag, machine, sched, || false)
}

/// The `mem=on` post-step of a registry scheduler: on memory-bounded
/// machines only, repairs the schedule `inner` found and re-costs it under
/// the residency simulator ([`memory_cost`]), appending a `"mem-repair"`
/// stage reported under `scheduler`. The repair runs on whatever budget
/// the inner solve left.
///
/// That stage is the one exempt from the monotone `cost_after` contract:
/// its objective is feasibility, and making an infeasible schedule
/// feasible (extra supersteps, re-fetch traffic surfaced in the cost) may
/// legitimately raise the reported cost. On machines without a memory
/// bound `inner` is returned untouched, bit for bit.
pub fn repair_outcome(
    scheduler: &str,
    req: &SolveRequest<'_>,
    inner: SolveOutcome,
) -> SolveOutcome {
    if !req.machine.is_memory_bounded() {
        return inner;
    }
    let sub_req = SolveRequest {
        dag: req.dag,
        machine: req.machine,
        budget: Budget {
            deadline: req.budget.deadline.map(|d| d.saturating_sub(inner.elapsed)),
            ..req.budget.clone()
        },
        seed: req.seed,
        observer: req.observer,
    };
    let mut cx = SolveCx::new(scheduler, &sub_req);
    cx.begin("mem-repair");
    let (repaired, report) =
        repair_memory_with(req.dag, req.machine, &inner.result.sched, || cx.expired());
    // An untouched assignment keeps the inner solver's (possibly
    // optimized) Γ; a split one needs its communication schedule
    // re-derived because superstep indices moved.
    let (sched, comm) = if report.splits == 0 {
        (inner.result.sched, inner.result.comm)
    } else {
        let comm = CommSchedule::lazy(req.dag, &repaired);
        (repaired, comm)
    };
    let cost = memory_cost(req.dag, req.machine, &sched, &comm);
    let total = cost.total;
    cx.improved(total);
    cx.end(total, report.truncated);
    let repair_out = cx.finish(ScheduleResult { sched, comm, cost });

    let mut stages = inner.stages;
    stages.extend(repair_out.stages);
    SolveOutcome {
        result: repair_out.result,
        stages,
        elapsed: inner.elapsed + repair_out.elapsed,
        budget_exhausted: inner.budget_exhausted || repair_out.budget_exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_model::MemorySpec;
    use bsp_schedule::validity::{validate_memory, validate_with_memory};

    /// Six footprint-2 values computed in one superstep on one processor.
    fn fat_cell() -> (Dag, BspSchedule) {
        let mut b = DagBuilder::new();
        for _ in 0..6 {
            b.add_node(1, 2);
        }
        (b.build().unwrap(), BspSchedule::zeroed(6))
    }

    #[test]
    fn splits_an_oversized_cell_into_fitting_steps() {
        let (dag, sched) = fat_cell();
        let machine = BspParams::new(1, 1, 0).with_memory(MemorySpec::new(4));
        let (fixed, report) = repair_memory(&dag, &machine, &sched);
        assert_eq!(report.violations_before, 1);
        assert_eq!(report.violations_after, 0);
        assert_eq!(report.splits, 1);
        // 12 units over capacity 4: three groups of two nodes each.
        assert_eq!(report.inserted_supersteps, 2);
        assert_eq!(fixed.n_supersteps(), 3);
        assert!(validate_memory(&dag, &machine, &fixed).is_ok());
    }

    #[test]
    fn no_bound_and_feasible_inputs_pass_through_unchanged() {
        let (dag, sched) = fat_cell();
        let unbounded = BspParams::new(1, 1, 0);
        let (same, report) = repair_memory(&dag, &unbounded, &sched);
        assert_eq!(same, sched);
        assert_eq!(report, RepairReport::default());
        let roomy = BspParams::new(1, 1, 0).with_memory(MemorySpec::new(12));
        let (same, report) = repair_memory(&dag, &roomy, &sched);
        assert_eq!(same, sched);
        assert_eq!(report.splits, 0);
    }

    #[test]
    fn respects_dependencies_inside_the_split_cell() {
        // A chain of four nodes in one cell: groups must follow topological
        // order, and the downstream consumer on another processor must
        // still come strictly later.
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_node(1, 2)).collect();
        for w in v.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let tail = b.add_node(1, 1);
        b.add_edge(v[3], tail).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 0, 1], vec![0, 0, 0, 0, 1]);
        // Working set of the cell: 4 values of 2 = 8 (chained inputs are
        // also outputs); capacity 5 forces a split.
        let machine = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(5));
        let (fixed, report) = repair_memory(&dag, &machine, &sched);
        assert!(report.splits >= 1);
        assert!(fixed.respects_precedence_lazy(&dag));
        let comm = CommSchedule::lazy(&dag, &fixed);
        assert!(validate_with_memory(&dag, &machine, &fixed, &comm).is_ok());
        for w in v.windows(2) {
            assert!(fixed.step(w[0]) <= fixed.step(w[1]));
        }
        assert!(fixed.step(v[3]) < fixed.step(tail));
    }

    #[test]
    fn unrepairable_single_node_is_reported_not_looped() {
        // One node whose own inputs exceed M: no split can fix it.
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 4);
        let v = b.add_node(1, 4);
        let w = b.add_node(1, 1);
        b.add_edge(u, w).unwrap();
        b.add_edge(v, w).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 1, 0], vec![0, 0, 1]);
        let machine = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(6));
        let (fixed, report) = repair_memory(&dag, &machine, &sched);
        // w needs 4 + 4 + 1 = 9 > 6 forever; the pass terminates and never
        // makes things worse.
        assert_eq!(fixed, sched);
        assert_eq!(report.violations_after, report.violations_before);
        assert!(report.violations_after > 0);
        assert_eq!(report.splits, 0);
    }

    #[test]
    fn expired_budget_stops_early_but_stays_valid() {
        let (dag, sched) = fat_cell();
        let machine = BspParams::new(1, 1, 0).with_memory(MemorySpec::new(4));
        let (fixed, report) = repair_memory_with(&dag, &machine, &sched, || true);
        assert!(report.truncated);
        assert_eq!(fixed, sched, "no time: best-effort input passthrough");
        assert!(report.violations_after <= report.violations_before);
    }

    #[test]
    fn repair_is_deterministic_on_random_instances() {
        for seed in 0..4 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 5,
                    width: 6,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 1, 2).with_memory(MemorySpec::new(16));
            let sched = crate::init::bspg::bspg_schedule(&dag, &machine);
            let (a, ra) = repair_memory(&dag, &machine, &sched);
            let (b, rb) = repair_memory(&dag, &machine, &sched);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(ra, rb, "seed {seed}");
            assert!(ra.violations_after <= ra.violations_before, "seed {seed}");
            assert!(a.respects_precedence_lazy(&dag), "seed {seed}");
        }
    }

    #[test]
    fn wrapper_repairs_and_recosts_on_bounded_machines_only() {
        use bsp_schedule::memory::simulate_memory;
        use bsp_schedule::solve::solve_single_stage;

        let dag = random_layered_dag(
            3,
            LayeredConfig {
                layers: 4,
                width: 5,
                ..Default::default()
            },
        );
        let bspg = |req: &SolveRequest<'_>| {
            solve_single_stage("init/bspg", req, || {
                let sched = crate::init::bspg::bspg_schedule(req.dag, req.machine);
                ScheduleResult::from_lazy(req.dag, req.machine, sched)
            })
        };
        let repaired = |req: &SolveRequest<'_>| repair_outcome("init/bspg", req, bspg(req));

        // Unbounded machine: bit-identical to the inner solve.
        let plain = BspParams::new(4, 1, 2);
        let req = SolveRequest::new(&dag, &plain);
        let inner = bspg(&req);
        let outer = repaired(&req);
        assert_eq!(outer.result.sched, inner.result.sched);
        assert_eq!(outer.result.cost, inner.result.cost);
        assert_eq!(outer.stages.len(), inner.stages.len());

        // Bounded machine: the outcome gains a mem-repair stage, is
        // feasible, and its cost matches the memory-aware re-evaluation.
        // Capacity = the largest single-node working set, so splitting can
        // always reach feasibility.
        let min_capacity = bsp_schedule::memory::min_repairable_capacity(&dag);
        let bounded = BspParams::new(4, 1, 2).with_memory(MemorySpec::new(min_capacity));
        let req = SolveRequest::new(&dag, &bounded);
        let out = repaired(&req);
        assert_eq!(out.stages.last().unwrap().stage, "mem-repair");
        let r = &out.result;
        assert!(validate_with_memory(&dag, &bounded, &r.sched, &r.comm).is_ok());
        assert!(simulate_memory(&dag, &bounded, &r.sched, &r.comm).is_feasible());
        assert_eq!(
            out.total(),
            memory_cost(&dag, &bounded, &r.sched, &r.comm).total
        );
        assert_eq!(out.stages.last().unwrap().cost_after, out.total());
    }
}
