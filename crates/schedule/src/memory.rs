//! Superstep-granular fast-memory residency simulation for
//! memory-bounded machines.
//!
//! When a machine carries a [`MemorySpec`](bsp_memory::MemorySpec)
//! (`BspParams::with_memory`),
//! every processor keeps at most `M` units of value footprint resident,
//! where node `v`'s output occupies its communication weight `c(v)`.
//! This module replays a `(π, τ, Γ)` schedule superstep by superstep and
//! answers two questions:
//!
//! * **Is it feasible?** The *working set* of a compute phase — the cell's
//!   distinct input values plus its own outputs — must fit in `M`
//!   simultaneously. A cell that cannot fit is a
//!   [`MemoryViolation`] (surfaced through validity as
//!   [`InvalidSchedule::MemoryExceeded`](crate::validity::InvalidSchedule::MemoryExceeded));
//!   the repair pass in `bsp-core` removes such cells by splitting
//!   supersteps.
//! * **What does it cost?** Feasible schedules may still thrash: a value
//!   evicted between its uses must be *re-fetched* from its producer
//!   (whose slow memory always backs the values it computed), and that
//!   transfer re-enters the h-relation. [`memory_cost`] folds the
//!   simulator's re-fetch traffic into the
//!   [`SuperstepCost::refetch`](crate::cost::SuperstepCost) component, so
//!   `total = Cwork + g·(Ccomm + refetch) + ℓ` per superstep.
//!
//! Model conventions, chosen so the unbounded case degenerates exactly to
//! the paper's BSP+NUMA cost model:
//!
//! * Re-fetch traffic for the compute phase of superstep `s` is charged to
//!   superstep `s`'s h-relation, weighted `c(u)·λ(π(u), q)` like any other
//!   transfer. A reload on the producer's own processor (`π(u) = q`) is a
//!   local slow-memory access and free (λ diagonal is 0).
//! * Residency changes deterministically: compute phases touch their
//!   working set (pinned against eviction while the phase runs), then the
//!   communication phase lands received values; eviction follows the
//!   spec's [`EvictionPolicy`] with id-order tie-breaks.
//! * On a machine without a memory bound the simulation is skipped
//!   entirely: [`memory_cost`] returns [`schedule_cost`] bit-identically.

use crate::comm::CommSchedule;
use crate::cost::{breakdown_from_tallies, schedule_cost, step_tallies, CostBreakdown};
use crate::schedule::BspSchedule;
use bsp_dag::{Dag, NodeId};
use bsp_memory::{EvictionPolicy, Residency};
use bsp_model::BspParams;
use std::collections::{HashMap, HashSet};

/// One re-fetch the simulator had to schedule: the value of `node`,
/// evicted on `to` before its use in superstep `step`, is shipped again
/// from its producer's processor `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefetchEvent {
    /// The value re-fetched.
    pub node: NodeId,
    /// The producer's processor (slow-memory backing copy).
    pub from: u32,
    /// The processor that needs the value back.
    pub to: u32,
    /// The consuming superstep the traffic is charged to.
    pub step: u32,
}

/// A point where a schedule demands more simultaneous fast memory than the
/// machine has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryViolation {
    /// Offending processor.
    pub proc: u32,
    /// Offending superstep.
    pub step: u32,
    /// Footprint that would have to be resident simultaneously.
    pub need: u64,
    /// The machine's capacity `M`.
    pub capacity: u64,
}

/// Everything one replay of a schedule on a memory-bounded machine
/// observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Re-fetches, in simulation order (step, then processor, then node).
    pub refetches: Vec<RefetchEvent>,
    /// Working sets that cannot fit (empty ⇔ the schedule is
    /// memory-feasible).
    pub violations: Vec<MemoryViolation>,
    /// Extra λ-weighted units sent per `[step][proc]` (row-major,
    /// `step * P + proc`).
    pub extra_send: Vec<u64>,
    /// Extra λ-weighted units received per `[step][proc]`.
    pub extra_recv: Vec<u64>,
}

impl MemoryReport {
    /// Whether every working set fits — the condition
    /// [`validate_memory`](crate::validity::validate_memory) enforces.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total λ-weighted re-fetch units received (the volume the memory
    /// bound added to the communication phases).
    pub fn refetch_units(&self) -> u64 {
        self.extra_recv.iter().sum()
    }
}

/// The distinct-value working sets of every `(processor, superstep)` cell:
/// outputs computed there plus inputs read from elsewhere. Returns, per
/// cell in `(step, proc)` order, the cell key, its member values
/// (ascending node id, inputs and outputs merged) and its total footprint.
fn working_sets(dag: &Dag, sched: &BspSchedule) -> Vec<((u32, u32), Vec<NodeId>, u64)> {
    let mut members: HashMap<(u32, u32), Vec<NodeId>> = HashMap::new();
    for v in dag.nodes() {
        let cell = (sched.step(v), sched.proc(v));
        members.entry(cell).or_default().push(v);
        for &u in dag.predecessors(v) {
            members.entry(cell).or_default().push(u);
        }
    }
    let mut cells: Vec<((u32, u32), Vec<NodeId>, u64)> = members
        .into_iter()
        .map(|((s, q), mut vs)| {
            vs.sort_unstable();
            vs.dedup();
            let need = vs.iter().map(|&u| dag.comm(u)).sum();
            ((s, q), vs, need)
        })
        .collect();
    cells.sort_unstable_by_key(|&(cell, ..)| cell);
    cells
}

/// One node's own working set: its output plus all its distinct input
/// values — the footprint that must be simultaneously resident to compute
/// `v` no matter how the schedule is arranged.
pub fn node_working_set(dag: &Dag, v: NodeId) -> u64 {
    dag.comm(v)
        + dag
            .predecessors(v)
            .iter()
            .map(|&u| dag.comm(u))
            .sum::<u64>()
}

/// The largest [`node_working_set`] of the DAG: the smallest capacity `M`
/// at which superstep splitting (`bsp-core`'s repair pass) can always
/// reach feasibility, because every node fits on its own. The natural
/// lower anchor for capacity sweeps.
pub fn min_repairable_capacity(dag: &Dag) -> u64 {
    dag.nodes()
        .map(|v| node_working_set(dag, v))
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Lists every working set exceeding the machine's capacity, in
/// `(step, proc)` order. Empty for machines without a memory bound.
pub fn memory_violations(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
) -> Vec<MemoryViolation> {
    let Some(spec) = machine.memory() else {
        return Vec::new();
    };
    working_sets(dag, sched)
        .into_iter()
        .filter(|&(_, _, need)| !spec.fits(need))
        .map(|((step, proc), _, need)| MemoryViolation {
            proc,
            step,
            need,
            capacity: spec.capacity,
        })
        .collect()
}

/// Replays `(π, τ, Γ)` against the machine's fast-memory bound. For
/// machines without one the report is empty (no re-fetches, no
/// violations).
pub fn simulate_memory(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    comm: &CommSchedule,
) -> MemoryReport {
    let Some(spec) = machine.memory() else {
        return MemoryReport::default();
    };
    let p = machine.p();
    let comp_steps = sched.n_supersteps();
    let n_steps = comp_steps.max(comm.max_step().map_or(0, |s| s + 1)) as usize;
    let mut report = MemoryReport {
        extra_send: vec![0; n_steps * p],
        extra_recv: vec![0; n_steps * p],
        ..MemoryReport::default()
    };

    // Belady oracle: input-use times of each value per processor, encoded
    // as 2·step (compute phases) so they interleave with communication
    // phases at 2·step + 1.
    let mut uses: HashMap<(NodeId, u32), Vec<u64>> = HashMap::new();
    if spec.evict == EvictionPolicy::Belady {
        for v in dag.nodes() {
            for &u in dag.predecessors(v) {
                uses.entry((u, sched.proc(v)))
                    .or_default()
                    .push(2 * sched.step(v) as u64);
            }
        }
        for times in uses.values_mut() {
            times.sort_unstable();
            times.dedup();
        }
    }
    let next_use_after = |u: NodeId, q: u32, now: u64| -> u64 {
        uses.get(&(u, q)).map_or(u64::MAX, |times| {
            let i = times.partition_point(|&t| t <= now);
            times.get(i).copied().unwrap_or(u64::MAX)
        })
    };

    let mut resident: Vec<Residency> = (0..p).map(|_| Residency::new(*spec)).collect();
    let cells = working_sets(dag, sched);
    let mut next_cell = 0usize;
    let mut comm_at: Vec<Vec<&crate::comm::CommStep>> = vec![Vec::new(); n_steps];
    for e in comm.entries() {
        comm_at[e.step as usize].push(e);
    }

    for s in 0..n_steps as u32 {
        // Compute phase: every cell of this superstep, processors in
        // ascending order (cells are sorted by (step, proc)).
        while next_cell < cells.len() && cells[next_cell].0 .0 == s {
            let ((_, q), ref set, need) = cells[next_cell];
            next_cell += 1;
            if !spec.fits(need) {
                report.violations.push(MemoryViolation {
                    proc: q,
                    step: s,
                    need,
                    capacity: spec.capacity,
                });
            }
            let pinned: HashSet<NodeId> = set.iter().copied().collect();
            let now = 2 * s as u64;
            for &u in set {
                // Inputs produced elsewhere that were evicted (or never
                // arrived, for a best-effort infeasible schedule) must be
                // re-fetched from their producer before the phase runs.
                let is_input = sched.proc(u) != q || sched.step(u) != s;
                if is_input && !resident[q as usize].contains(u) && dag.comm(u) > 0 {
                    let from = sched.proc(u);
                    report.refetches.push(RefetchEvent {
                        node: u,
                        from,
                        to: q,
                        step: s,
                    });
                    let weighted = dag.comm(u) * machine.lambda(from as usize, q as usize);
                    report.extra_send[s as usize * p + from as usize] += weighted;
                    report.extra_recv[s as usize * p + q as usize] += weighted;
                }
                resident[q as usize].insert(
                    u,
                    dag.comm(u),
                    now,
                    |id| pinned.contains(&id),
                    |id| next_use_after(id, q, now),
                );
            }
        }
        // Communication phase: received values land in the target's fast
        // memory (senders stream from their backing copy). Entries iterate
        // in the schedule's sorted order — deterministic.
        let now = 2 * s as u64 + 1;
        for e in &comm_at[s as usize] {
            let out = resident[e.to as usize].insert(
                e.node,
                dag.comm(e.node),
                now,
                |_| false,
                |id| next_use_after(id, e.to, now),
            );
            if out.overflow {
                report.violations.push(MemoryViolation {
                    proc: e.to,
                    step: s,
                    need: resident[e.to as usize].used(),
                    capacity: spec.capacity,
                });
            }
        }
    }
    report
}

/// [`schedule_cost`] under the machine's memory bound: the residency
/// simulator's re-fetch traffic is folded into each superstep's h-relation
/// ([`SuperstepCost::refetch`](crate::cost::SuperstepCost)). On machines
/// without a bound this *is* `schedule_cost`, bit for bit.
pub fn memory_cost(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    comm: &CommSchedule,
) -> CostBreakdown {
    if !machine.is_memory_bounded() {
        return schedule_cost(dag, machine, sched, comm);
    }
    let report = simulate_memory(dag, machine, sched, comm);
    let tallies = step_tallies(dag, machine, sched, comm.entries().iter().copied());
    breakdown_from_tallies(
        machine,
        &tallies,
        Some((&report.extra_send, &report.extra_recv)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_memory::MemorySpec;

    /// The worked example from the PR description: a chain `a → x → y` on
    /// two processors plus a late second use of `a`, with `M` forcing `a`
    /// out of processor 1's memory in between.
    ///
    /// DAG (work, comm): a(1,2) on p0; x(1,2), y(1,2), z(1,0) on p1 with
    /// edges a→x, x→y, a→z, y→z. Machine P=2, g=1, ℓ=0, M=4, LRU.
    ///
    /// * step 0: p0 computes a (working set 2); lazy Γ ships a→p1 (h = 2).
    /// * step 1: p1 computes x, set {a, x} = 4 — fits exactly.
    /// * step 2: p1 computes y, set {x, y} = 4 — `a` must be evicted.
    /// * step 3: p1 computes z, set {a, y, z} = 4 — `a` is gone and is
    ///   re-fetched from p0: traffic c(a)·λ = 2 charged to step 3.
    ///
    /// Costs: steps (1+2) + 1 + 1 + (1+2) = 8; without the memory bound
    /// the same schedule costs 6, so refetch adds exactly c(a)·g = 2.
    fn worked_example() -> (Dag, BspSchedule) {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 2);
        let x = b.add_node(1, 2);
        let y = b.add_node(1, 2);
        let z = b.add_node(1, 0);
        b.add_edge(a, x).unwrap();
        b.add_edge(x, y).unwrap();
        b.add_edge(a, z).unwrap();
        b.add_edge(y, z).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 1, 1, 1], vec![0, 1, 2, 3]);
        (dag, sched)
    }

    #[test]
    fn worked_example_charges_exactly_one_refetch() {
        let (dag, sched) = worked_example();
        let machine = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(4));
        let comm = CommSchedule::lazy(&dag, &sched);
        let report = simulate_memory(&dag, &machine, &sched, &comm);
        assert!(report.is_feasible(), "{:?}", report.violations);
        assert_eq!(
            report.refetches,
            vec![RefetchEvent {
                node: 0,
                from: 0,
                to: 1,
                step: 3
            }]
        );
        assert_eq!(report.refetch_units(), 2);

        let bounded = memory_cost(&dag, &machine, &sched, &comm);
        let unbounded = schedule_cost(&dag, &machine, &sched, &comm);
        assert_eq!(unbounded.total, 6);
        assert_eq!(bounded.total, 8);
        assert_eq!(bounded.refetch_total, 2);
        assert_eq!(bounded.per_step[3].refetch, 2);
        assert_eq!(bounded.per_step[3].comm, 0);
    }

    #[test]
    fn ample_memory_reproduces_the_unbounded_cost() {
        let (dag, sched) = worked_example();
        let comm = CommSchedule::lazy(&dag, &sched);
        let plain = BspParams::new(2, 1, 0);
        let roomy = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(1_000));
        assert_eq!(
            memory_cost(&dag, &roomy, &sched, &comm),
            schedule_cost(&dag, &plain, &sched, &comm)
        );
        assert!(simulate_memory(&dag, &roomy, &sched, &comm)
            .refetches
            .is_empty());
        // And without a bound the simulator does not even run.
        assert_eq!(
            simulate_memory(&dag, &plain, &sched, &comm),
            MemoryReport::default()
        );
    }

    #[test]
    fn oversized_working_set_is_a_violation() {
        let (dag, sched) = worked_example();
        let machine = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(3));
        let violations = memory_violations(&dag, &machine, &sched);
        // Steps 1 ({a,x}=4), 2 ({x,y}=4) and 3 ({a,y,z}=4) all exceed 3.
        assert_eq!(violations.len(), 3);
        assert_eq!(
            violations[0],
            MemoryViolation {
                proc: 1,
                step: 1,
                need: 4,
                capacity: 3
            }
        );
        let comm = CommSchedule::lazy(&dag, &sched);
        let report = simulate_memory(&dag, &machine, &sched, &comm);
        assert!(!report.is_feasible());
    }

    #[test]
    fn belady_oracle_beats_lru_when_recency_misleads() {
        // p1's input-use pattern is a, b, a — and b is never used again
        // while a is. When c arrives (for the final step) the memory is
        // full: LRU evicts a (touched longest ago) and pays a re-fetch;
        // the Belady oracle evicts the dead value b and pays nothing.
        let mut builder = DagBuilder::new();
        let a = builder.add_node(1, 2); // 0: p0, step 0
        let b = builder.add_node(1, 2); // 1: p0, step 1
        let c = builder.add_node(1, 2); // 2: p0, step 2
        let x1 = builder.add_node(1, 0); // 3: p1, step 2, reads a
        let x2 = builder.add_node(1, 0); // 4: p1, step 3, reads b
        let x3 = builder.add_node(1, 0); // 5: p1, step 4, reads a and c
        builder.add_edge(a, x1).unwrap();
        builder.add_edge(b, x2).unwrap();
        builder.add_edge(a, x3).unwrap();
        builder.add_edge(c, x3).unwrap();
        let dag = builder.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 1, 1, 1], vec![0, 1, 2, 2, 3, 4]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let lru = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(4));
        let oracle = BspParams::new(2, 1, 0)
            .with_memory(MemorySpec::new(4).with_policy(EvictionPolicy::Belady));
        let lru_report = simulate_memory(&dag, &lru, &sched, &comm);
        let oracle_report = simulate_memory(&dag, &oracle, &sched, &comm);
        assert_eq!(lru_report.refetch_units(), 2, "{lru_report:?}");
        assert_eq!(oracle_report.refetch_units(), 0, "{oracle_report:?}");
        assert!(
            memory_cost(&dag, &oracle, &sched, &comm).total
                < memory_cost(&dag, &lru, &sched, &comm).total
        );
    }

    #[test]
    fn local_reload_is_free() {
        // One processor, M forces eviction between the two uses of a: the
        // reload comes from p0's own backing store, so no traffic.
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 2);
        let x = b.add_node(1, 2);
        let y = b.add_node(1, 2);
        let z = b.add_node(1, 0);
        b.add_edge(a, x).unwrap();
        b.add_edge(x, y).unwrap();
        b.add_edge(a, z).unwrap();
        b.add_edge(y, z).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 0], vec![0, 1, 2, 3]);
        let machine = BspParams::new(1, 3, 0).with_memory(MemorySpec::new(4));
        let comm = CommSchedule::empty();
        let report = simulate_memory(&dag, &machine, &sched, &comm);
        assert!(report.is_feasible());
        assert_eq!(report.refetches.len(), 1, "{:?}", report.refetches);
        assert_eq!(report.refetch_units(), 0);
        assert_eq!(
            memory_cost(&dag, &machine, &sched, &comm).total,
            schedule_cost(&dag, &machine, &sched, &comm).total
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let (dag, sched) = worked_example();
        let machine = BspParams::new(2, 1, 0).with_memory(MemorySpec::new(4));
        let comm = CommSchedule::lazy(&dag, &sched);
        let a = simulate_memory(&dag, &machine, &sched, &comm);
        let b = simulate_memory(&dag, &machine, &sched, &comm);
        assert_eq!(a, b);
    }
}
