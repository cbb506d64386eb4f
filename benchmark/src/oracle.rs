//! An independent, deliberately naive validity and cost checker.
//!
//! Written from the paper's definitions (§3.2 validity, §3.3–3.4 cost) and
//! from the module documentation of the repo's memory model, sharing no
//! code with `bsp_schedule::{cost, validity, memory}`: it reads the DAG,
//! machine and schedule through their plain accessors and recomputes
//! everything from scratch with maps and loops. Every answer the
//! benchmark accepts is checked here, outside the timed region.
//!
//! Definitions, as the paper states them:
//!
//! * **Validity.** Every node is on a processor `< P`. For each edge
//!   `(u, v)`: if `π(u) = π(v)` then `τ(u) ≤ τ(v)`; otherwise some
//!   `(u, p1, π(v), s) ∈ Γ` has `s < τ(v)`. For each `(v, p1, p2, s) ∈ Γ`:
//!   `p1 ≠ p2`, and `v` is present on `p1` by the communication phase of
//!   `s` — computed there (`π(v) = p1`, `τ(v) ≤ s`) or delivered by an
//!   earlier entry (`s' < s`).
//! * **Cost.** `Σ_s [ max_p work(s,p) + g · max_p max(send(s,p), recv(s,p)) + ℓ ]`
//!   with `send`/`recv` summing `c(v) · λ(p1, p2)` over the entries of
//!   phase `s`. As in the repo, `ℓ` is charged for non-empty supersteps
//!   only, which on a compacted schedule is the paper's per-superstep `ℓ`.
//! * **Lazy Γ.** The value of `u` goes from `π(u)` to every other
//!   processor `q` that computes a successor of `u`, in phase
//!   `min{τ(w) : w ∈ succ(u), π(w) = q} − 1`.
//! * **Memory bound** (repo extension, LRU only): a compute phase's
//!   working set — its nodes plus their inputs, footprint `c(v)` each —
//!   must fit in `M`; inputs evicted before use are re-fetched from their
//!   producer and that traffic joins the h-relation of the consuming
//!   superstep.

use bsp_sched::dag::Dag;
use bsp_sched::instance::Instance;
use bsp_sched::model::{BspParams, EvictionPolicy};
use bsp_sched::prelude::SolveOutcome;
use bsp_sched::schedule::{BspSchedule, CommSchedule};
use std::collections::{BTreeMap, BTreeSet};

/// One entry of a communication schedule: `(node, from, to, step)`.
pub type Send = (u32, u32, u32, u32);

/// The lazy communication schedule of an assignment, sorted.
pub fn lazy_comm(dag: &Dag, sched: &BspSchedule) -> Vec<Send> {
    let mut first_need: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for (u, w) in dag.edges() {
        let q = sched.proc(w);
        if q != sched.proc(u) {
            let need = first_need.entry((u, q)).or_insert(u32::MAX);
            *need = (*need).min(sched.step(w));
        }
    }
    first_need
        .into_iter()
        .map(|((u, q), s)| (u, sched.proc(u), q, s.saturating_sub(1)))
        .collect()
}

fn sends_of(comm: &CommSchedule) -> Vec<Send> {
    comm.entries()
        .iter()
        .map(|e| (e.node, e.from, e.to, e.step))
        .collect()
}

/// Checks `(π, τ, Γ)` against the paper's validity conditions.
pub fn validate(dag: &Dag, p: usize, sched: &BspSchedule, sends: &[Send]) -> Result<(), String> {
    if sched.n() != dag.n() {
        return Err(format!(
            "schedule covers {} nodes, DAG has {}",
            sched.n(),
            dag.n()
        ));
    }
    for v in dag.nodes() {
        if sched.proc(v) as usize >= p {
            return Err(format!("node {v} on processor {} >= P={p}", sched.proc(v)));
        }
    }
    // present[(v, q)]: first superstep whose compute and communication
    // phases may use v on q.
    let mut present: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for v in dag.nodes() {
        present.insert((v, sched.proc(v)), sched.step(v));
    }
    let mut by_step = sends.to_vec();
    by_step.sort_by_key(|&(v, from, to, s)| (s, v, from, to));
    // Entries of one phase cannot feed each other (delivery lands at
    // s + 1), so deliveries of a phase are applied after it is checked.
    let mut i = 0;
    while i < by_step.len() {
        let s = by_step[i].3;
        let mut j = i;
        while j < by_step.len() && by_step[j].3 == s {
            let (v, from, to, _) = by_step[j];
            if v as usize >= dag.n() || from as usize >= p || to as usize >= p {
                return Err(format!("Γ entry ({v},{from},{to},{s}) out of range"));
            }
            if from == to {
                return Err(format!("Γ entry ({v},{from},{to},{s}) sends to itself"));
            }
            if present.get(&(v, from)).is_none_or(|&a| a > s) {
                return Err(format!(
                    "Γ entry ({v},{from},{to},{s}): value not on {from} yet"
                ));
            }
            j += 1;
        }
        for &(v, _, to, _) in &by_step[i..j] {
            let slot = present.entry((v, to)).or_insert(u32::MAX);
            *slot = (*slot).min(s + 1);
        }
        i = j;
    }
    for (u, v) in dag.edges() {
        let q = sched.proc(v);
        if present.get(&(u, q)).is_none_or(|&a| a > sched.step(v)) {
            return Err(format!(
                "edge ({u},{v}): value of {u} not on processor {q} by superstep {}",
                sched.step(v)
            ));
        }
    }
    Ok(())
}

/// Re-fetch traffic of a memory-bounded machine: per `(step, proc)` extra
/// λ-weighted units sent and received. Also checks that every compute
/// phase's working set fits.
fn refetch_traffic(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    sends: &[Send],
    n_steps: usize,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let spec = machine.memory().expect("caller checked the bound");
    if spec.evict != EvictionPolicy::Lru {
        return Err("the oracle models LRU eviction only".to_string());
    }
    let p = machine.p();
    let cap = spec.capacity;
    let mut extra_send = vec![0u64; n_steps * p];
    let mut extra_recv = vec![0u64; n_steps * p];
    // Per processor: value -> (footprint, last use).
    let mut resident: Vec<BTreeMap<u32, (u64, u64)>> = vec![BTreeMap::new(); p];
    let used = |r: &BTreeMap<u32, (u64, u64)>| r.values().map(|x| x.0).sum::<u64>();
    // Insert `id` and evict least-recently-used values (ties to the
    // smaller id), never `id` itself nor anything in `pinned`, until the
    // set fits or nothing evictable is left.
    let insert =
        |r: &mut BTreeMap<u32, (u64, u64)>, id: u32, fp: u64, now: u64, pinned: &BTreeSet<u32>| {
            if let Some(slot) = r.get_mut(&id) {
                slot.1 = now;
                return;
            }
            r.insert(id, (fp, now));
            while used(r) > cap {
                let victim = r
                    .iter()
                    .filter(|(&k, _)| k != id && !pinned.contains(&k))
                    .min_by_key(|(&k, &(_, last))| (last, k))
                    .map(|(&k, _)| k);
                match victim {
                    Some(k) => {
                        r.remove(&k);
                    }
                    None => break,
                }
            }
        };
    // cells[(s, q)]: the nodes computed in superstep s on processor q.
    let mut cells: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for v in dag.nodes() {
        cells
            .entry((sched.step(v), sched.proc(v)))
            .or_default()
            .push(v);
    }
    for s in 0..n_steps as u32 {
        for q in 0..p as u32 {
            let Some(computed) = cells.get(&(s, q)) else {
                continue;
            };
            let mut set: BTreeSet<u32> = BTreeSet::new();
            for &v in computed {
                set.insert(v);
                set.extend(dag.predecessors(v).iter().copied());
            }
            let need: u64 = set.iter().map(|&u| dag.comm(u)).sum();
            if need > cap {
                return Err(format!(
                    "superstep {s} on processor {q} needs {need} units, M = {cap}"
                ));
            }
            let now = 2 * s as u64;
            for &u in &set {
                let is_input = sched.proc(u) != q || sched.step(u) != s;
                if is_input && !resident[q as usize].contains_key(&u) && dag.comm(u) > 0 {
                    let from = sched.proc(u) as usize;
                    let w = dag.comm(u) * machine.lambda(from, q as usize);
                    extra_send[s as usize * p + from] += w;
                    extra_recv[s as usize * p + q as usize] += w;
                }
                insert(&mut resident[q as usize], u, dag.comm(u), now, &set);
            }
        }
        let now = 2 * s as u64 + 1;
        let mut phase: Vec<&Send> = sends.iter().filter(|e| e.3 == s).collect();
        phase.sort();
        for &&(v, _, to, _) in &phase {
            insert(
                &mut resident[to as usize],
                v,
                dag.comm(v),
                now,
                &BTreeSet::new(),
            );
        }
    }
    Ok((extra_send, extra_recv))
}

/// The cost of `(π, τ, Γ)`. With `memory_model`, re-fetch traffic of the
/// machine's fast-memory bound is added (and its working-set condition
/// checked); without it the bound is ignored, as the schedulers that do
/// not model memory ignore it.
pub fn cost(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    sends: &[Send],
    memory_model: bool,
) -> Result<u64, String> {
    let p = machine.p();
    let n_steps = dag
        .nodes()
        .map(|v| sched.step(v) + 1)
        .chain(sends.iter().map(|e| e.3 + 1))
        .max()
        .unwrap_or(0) as usize;
    let (extra_send, extra_recv) = if memory_model && machine.memory().is_some() {
        refetch_traffic(dag, machine, sched, sends, n_steps)?
    } else {
        (vec![0; n_steps * p], vec![0; n_steps * p])
    };
    // Tallies per (superstep, processor), then the per-superstep maxima.
    let mut work = vec![0u64; n_steps * p];
    let (mut send, mut recv) = (extra_send, extra_recv);
    let mut busy: Vec<bool> = (0..n_steps)
        .map(|s| (0..p).any(|q| send[s * p + q] > 0 || recv[s * p + q] > 0))
        .collect();
    for v in dag.nodes() {
        let s = sched.step(v) as usize;
        work[s * p + sched.proc(v) as usize] += dag.work(v);
        busy[s] = true;
    }
    for &(v, from, to, step) in sends {
        let s = step as usize;
        let w = dag.comm(v) * machine.lambda(from as usize, to as usize);
        send[s * p + from as usize] += w;
        recv[s * p + to as usize] += w;
        busy[s] = true;
    }
    let mut total = 0u64;
    for (s, &busy) in busy.iter().enumerate() {
        let row = s * p..(s + 1) * p;
        let w = work[row.clone()].iter().copied().max().unwrap_or(0);
        let h = row.map(|i| send[i].max(recv[i])).max().unwrap_or(0);
        total += w + machine.g() * h + if busy { machine.l() } else { 0 };
    }
    Ok(total)
}

/// Cost of the single-processor, single-superstep schedule: all work in
/// sequence, nothing communicated.
pub fn trivial_cost(dag: &Dag, machine: &BspParams) -> u64 {
    let work: u64 = dag.nodes().map(|v| dag.work(v)).sum();
    work + if dag.n() > 0 { machine.l() } else { 0 }
}

/// Full check of one answer: valid under the paper's conditions and
/// costing exactly `reported`. `memory_model` says whether the answer
/// claims the memory-bounded cost (the `mem=on` schedulers).
pub fn check(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    comm: &CommSchedule,
    reported: u64,
    memory_model: bool,
) -> Result<(), String> {
    let sends = sends_of(comm);
    validate(dag, machine.p(), sched, &sends)?;
    let c = cost(dag, machine, sched, &sends, memory_model)?;
    if c != reported {
        return Err(format!("reported cost {reported}, oracle computes {c}"));
    }
    Ok(())
}

/// [`check`] of a library answer against the cost it reports.
pub fn check_outcome(
    inst: &Instance,
    out: &SolveOutcome,
    memory_model: bool,
) -> Result<(), String> {
    check(
        &inst.dag,
        &inst.machine,
        &out.result.sched,
        &out.result.comm,
        out.total(),
        memory_model,
    )
}

/// Kahn's algorithm over the raw edge list: the input DAG is acyclic and
/// its weights are usable (the input half of "oracle-check all inputs").
pub fn check_input(dag: &Dag) -> Result<(), String> {
    let n = dag.n();
    let mut indeg = vec![0usize; n];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in dag.edges() {
        if u as usize >= n || v as usize >= n || u == v {
            return Err(format!("edge ({u},{v}) out of range"));
        }
        indeg[v as usize] += 1;
        succ[u as usize].push(v);
    }
    let mut ready: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = ready.pop() {
        seen += 1;
        for &v in &succ[u as usize] {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                ready.push(v);
            }
        }
    }
    if seen != n {
        return Err(format!(
            "cycle: only {seen} of {n} nodes sort topologically"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_sched::dag::DagBuilder;
    use bsp_sched::model::{MemorySpec, NumaTopology};
    use bsp_sched::schedule::CommStep;

    /// The paper's Figure 1, as `tests/paper_figure1.rs` builds it: nodes
    /// `a1..a4` on processor 0 and `b1..b5` on processor 1 in superstep
    /// 0; three consumers in superstep 1 needing `a1` on 1 and `b1`, `b2`
    /// on 0. Unit weights.
    fn figure1() -> (Dag, BspSchedule) {
        let mut b = DagBuilder::new();
        let a: Vec<_> = (0..4).map(|_| b.add_node(1, 1)).collect();
        let bs: Vec<_> = (0..5).map(|_| b.add_node(1, 1)).collect();
        let d1 = b.add_node(1, 1);
        let d2 = b.add_node(1, 1);
        let c1 = b.add_node(1, 1);
        b.add_edge(bs[0], d1).unwrap();
        b.add_edge(bs[1], d2).unwrap();
        b.add_edge(a[0], c1).unwrap();
        b.add_edge(a[1], d1).unwrap();
        b.add_edge(bs[2], c1).unwrap();
        let mut proc = vec![0u32; 4];
        proc.extend([1u32; 5]);
        proc.extend([0, 0, 1]);
        let mut step = vec![0u32; 9];
        step.extend([1, 1, 1]);
        (b.build().unwrap(), BspSchedule::from_parts(proc, step))
    }

    #[test]
    fn figure1_costs_match_section_3_3() {
        let (dag, sched) = figure1();
        let sends = lazy_comm(&dag, &sched);
        // One value 0→1 and two values 1→0, all in phase 0.
        assert_eq!(sends, vec![(0, 0, 1, 0), (4, 1, 0, 0), (5, 1, 0, 0)]);
        for (g, l) in [(1u64, 0u64), (2, 5), (5, 3)] {
            let machine = BspParams::new(2, g, l);
            assert!(validate(&dag, 2, &sched, &sends).is_ok());
            // Superstep 1: work max(4,5), h-relation 2; superstep 2: work 2.
            assert_eq!(
                cost(&dag, &machine, &sched, &sends, false).unwrap(),
                (5 + 2 * g + l) + (2 + l)
            );
        }
    }

    #[test]
    fn figure1_numa_scales_the_h_relation() {
        let (dag, sched) = figure1();
        let sends = lazy_comm(&dag, &sched);
        let machine =
            BspParams::new(2, 1, 0).with_numa(NumaTopology::explicit(2, vec![0, 3, 3, 0]));
        assert_eq!(
            cost(&dag, &machine, &sched, &sends, false).unwrap(),
            (5 + 6) + 2
        );
    }

    #[test]
    fn agrees_with_the_repo_on_figure1_and_its_lazy_gamma() {
        let (dag, sched) = figure1();
        let comm = CommSchedule::lazy(&dag, &sched);
        assert_eq!(sends_of(&comm), lazy_comm(&dag, &sched));
        let machine = BspParams::new(2, 2, 5);
        let reported = bsp_sched::schedule::cost::total_cost(&dag, &machine, &sched, &comm);
        assert!(check(&dag, &machine, &sched, &comm, reported, false).is_ok());
        assert!(check(&dag, &machine, &sched, &comm, reported + 1, false).is_err());
    }

    #[test]
    fn rejects_each_kind_of_invalid_schedule() {
        let (dag, sched) = figure1();
        let sends = lazy_comm(&dag, &sched);
        // Missing transfer.
        assert!(validate(&dag, 2, &sched, &sends[1..]).is_err());
        // Transfer too late: phase 1 cannot feed superstep 1.
        let mut late = sends.clone();
        late[0].3 = 1;
        assert!(validate(&dag, 2, &sched, &late).is_err());
        // Sending a value the sender does not hold.
        let mut wrong = sends.clone();
        wrong.push((1, 1, 0, 0));
        assert!(validate(&dag, 2, &sched, &wrong).is_err());
        // Self-send, processor out of range, consumer before producer.
        assert!(validate(&dag, 2, &sched, &[(0, 0, 0, 0)]).is_err());
        assert!(validate(&dag, 1, &sched, &sends).is_err());
        let mut early = sched.clone();
        early.set(9, 0, 0);
        early.set(1, 0, 1);
        assert!(validate(&dag, 2, &early, &sends).is_err());
        // A relay is legal: 4 goes 1→0 in phase 0... and a same-phase
        // forward of it is not.
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let chain = b.build().unwrap();
        let s = BspSchedule::from_parts(vec![0, 2], vec![0, 2]);
        assert!(validate(&chain, 3, &s, &[(0, 0, 1, 0), (0, 1, 2, 1)]).is_ok());
        assert!(validate(&chain, 3, &s, &[(0, 0, 1, 0), (0, 1, 2, 0)]).is_err());
    }

    #[test]
    fn empty_supersteps_are_not_charged_latency() {
        let mut b = DagBuilder::new();
        b.add_node(3, 1);
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 7);
        let sched = BspSchedule::from_parts(vec![0], vec![2]);
        assert_eq!(cost(&dag, &machine, &sched, &[], false).unwrap(), 3 + 7);
        assert_eq!(trivial_cost(&dag, &machine), 3 + 7);
    }

    /// The memory-bounded rung: a value evicted between its two uses is
    /// re-fetched, and the traffic is charged to the consuming superstep.
    #[test]
    fn memory_bound_adds_refetch_traffic_and_rejects_oversized_cells() {
        // u (proc 0) feeds v1 and v2 on proc 1 in supersteps 1 and 3;
        // filler values on proc 1 in superstep 2 push u out of an M=3 LRU.
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 2);
        let v1 = b.add_node(1, 1);
        let f1 = b.add_node(1, 1);
        let f2 = b.add_node(1, 1);
        let f3 = b.add_node(1, 1);
        let v2 = b.add_node(1, 1);
        b.add_edge(u, v1).unwrap();
        b.add_edge(u, v2).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 1, 1, 1, 1, 1], vec![0, 1, 2, 2, 2, 3]);
        let _ = (f1, f2, f3);
        let sends = lazy_comm(&dag, &sched);
        assert_eq!(sends, vec![(0, 0, 1, 0)]);
        let numa = NumaTopology::explicit(2, vec![0, 3, 3, 0]);
        let roomy = BspParams::new(2, 2, 1)
            .with_numa(numa.clone())
            .with_memory(MemorySpec::new(100));
        let tight = BspParams::new(2, 2, 1)
            .with_numa(numa)
            .with_memory(MemorySpec::new(3));
        let base = cost(&dag, &roomy, &sched, &sends, true).unwrap();
        assert_eq!(base, cost(&dag, &roomy, &sched, &sends, false).unwrap());
        // One re-fetch of u (c=2, λ=3) in superstep 3: g·6 = 12 extra.
        assert_eq!(cost(&dag, &tight, &sched, &sends, true).unwrap(), base + 12);
        // The repo's simulator agrees on both machines.
        let comm = CommSchedule::from_entries(vec![CommStep {
            node: 0,
            from: 0,
            to: 1,
            step: 0,
        }]);
        for m in [&roomy, &tight] {
            let reported = bsp_sched::schedule::memory::memory_cost(&dag, m, &sched, &comm).total;
            assert!(check(&dag, m, &sched, &comm, reported, true).is_ok());
        }
        // A cell that cannot fit is invalid, not merely expensive.
        let tiny = BspParams::new(2, 2, 1).with_memory(MemorySpec::new(2));
        assert!(cost(&dag, &tiny, &sched, &sends, true).is_err());
    }

    #[test]
    fn check_input_finds_cycles_only_where_there_are_some() {
        let (dag, _) = figure1();
        assert!(check_input(&dag).is_ok());
    }
}
