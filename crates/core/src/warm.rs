//! Warm-started re-solves: schedule an edited DAG starting from a cached
//! schedule of its base instance instead of from scratch.
//!
//! This is the algorithmic core of the `bsp-serve` delta-instance API and
//! the service-side twin of online-arrival scheduling: a DAG edit arrives
//! against an instance we already solved, and the new schedule should cost
//! a *repair*, not a cold solve. The pipeline is
//!
//! 1. **transplant** — surviving nodes keep their cached `(processor,
//!    superstep)` assignment through the edit's node map
//!    ([`warm_start_from_map`]);
//! 2. **list insertion** — nodes the edit introduced are placed greedily:
//!    earliest superstep their placed predecessors allow, cheapest
//!    processor of that superstep under a comm-aware score
//!    ([`place_new_nodes`]);
//! 3. **precedence repair** — one topological pass pushes nodes later
//!    until every edge is satisfied again (edits only ever *delay*
//!    nodes, so the pass terminates and is deterministic;
//!    [`repair_precedence`]), then empty supersteps are compacted away;
//! 4. **feasibility repair** — on memory-bounded machines, the
//!    `memrepair` superstep-splitting pass restores the working-set
//!    condition;
//! 5. **local re-optimization** — the PR 5 probe kernel (hill climbing +
//!    communication-schedule search) polishes the repaired schedule under
//!    the request's remaining budget.
//!
//! The monotone guarantee of the anytime API carries over: the warm
//! result is **never worse than its repaired starting point** (stage 5
//! only replaces the incumbent with strictly cheaper schedules), and any
//! budget — including an already-expired one — yields a valid schedule.
//!
//! ```
//! use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
//! use bsp_core::{solve_warm_pipeline, warm_start_from_map};
//! use bsp_dag::DagBuilder;
//! use bsp_model::BspParams;
//! use bsp_schedule::cost::lazy_cost;
//! use bsp_schedule::solve::{SolveCx, SolveRequest};
//!
//! // Base instance u → v, solved cold.
//! let mut b = DagBuilder::new();
//! let u = b.add_node(4, 1);
//! let v = b.add_node(3, 1);
//! b.add_edge(u, v).unwrap();
//! let base_dag = b.build().unwrap();
//! let machine = BspParams::new(2, 1, 2);
//! let cfg = PipelineConfig { enable_ilp: false, ..Default::default() };
//! let req = SolveRequest::new(&base_dag, &machine);
//! let base = solve_base_pipeline(&base_dag, &machine, &cfg, &mut SolveCx::new("base", &req));
//!
//! // The edit appended a consumer w of v; nodes 0 and 1 survive as-is.
//! let mut b = DagBuilder::new();
//! let u = b.add_node(4, 1);
//! let v = b.add_node(3, 1);
//! let w = b.add_node(2, 1);
//! b.add_edge(u, v).unwrap();
//! b.add_edge(v, w).unwrap();
//! let edited = b.build().unwrap();
//!
//! let initial = warm_start_from_map(&edited, &machine, &base.sched, &[Some(0), Some(1)]);
//! let start = lazy_cost(&edited, &machine, &initial);
//! let req = SolveRequest::new(&edited, &machine);
//! let mut cx = SolveCx::new("warm", &req);
//! let r = solve_warm_pipeline(&edited, &machine, &initial, &cfg, &mut cx);
//! assert!(r.cost <= start); // monotone: never worse than the repaired start
//! ```

use crate::hc::{hill_climb_from, HillClimbStats};
use crate::memrepair::repair_memory_with;
use crate::pipeline::{Incumbent, PipelineConfig, PipelineResult};
use crate::state::{ScheduleState, ScheduleTables};
use bsp_dag::topo::TopoInfo;
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::prefix::PrefixViolation;
use bsp_schedule::solve::SolveCx;
use bsp_schedule::BspSchedule;
use std::collections::BTreeMap;

/// Transplants `base` (a schedule of the *pre-edit* DAG) onto the edited
/// `dag`: surviving nodes keep their assignment through `node_map`
/// (`node_map[old] = Some(new)` as produced by
/// `bsp_instance::apply_edits`), added nodes are list-inserted, and the
/// result is precedence-repaired and compacted into a valid schedule.
///
/// `node_map` must map into `0..dag.n()`; nodes of the edited DAG that no
/// map entry hits are treated as new.
pub fn warm_start_from_map(
    dag: &Dag,
    machine: &BspParams,
    base: &BspSchedule,
    node_map: &[Option<NodeId>],
) -> BspSchedule {
    let p = machine.p() as u32;
    let mut assign: Vec<Option<(u32, u32)>> = vec![None; dag.n()];
    for (old, new) in node_map.iter().enumerate() {
        if let Some(new) = *new {
            debug_assert!((new as usize) < dag.n(), "node_map out of range");
            // Clamp the cached processor in case the machine shrank.
            let proc = base.proc(old as NodeId).min(p.saturating_sub(1));
            assign[new as usize] = Some((proc, base.step(old as NodeId)));
        }
    }
    let topo = TopoInfo::new(dag);
    let placed = place_new_nodes(dag, &topo, machine, &assign);
    let repaired = repair_precedence_from(dag, &topo, &placed, 0).expect("floor 0 commits nothing");
    compact_lazy(dag, &repaired)
}

/// The processor list insertion gives a new node `v` in a superstep whose
/// per-processor work is `row`: the one minimizing a cost-model score —
/// the NUMA-weighted communication from its predecessors (`g · Σ
/// c(u)·λ(π(u), q)`, `π(u)` read through `proc_of`) plus the work already
/// there plus `w(v)` — tie-broken by processor id.
fn cheapest_proc(
    dag: &Dag,
    machine: &BspParams,
    v: NodeId,
    row: &[u64],
    proc_of: impl Fn(NodeId) -> u32,
) -> u32 {
    let numa = machine.numa();
    (0..machine.p() as u32)
        .min_by_key(|&q| {
            let comm: u64 = dag
                .predecessors(v)
                .iter()
                .map(|&u| dag.comm(u) * numa.lambda(proc_of(u) as usize, q as usize))
                .sum();
            (row[q as usize] + dag.work(v) + machine.g() * comm, q)
        })
        .unwrap_or(0)
}

/// Greedy list insertion for unplaced nodes: in topological order (`topo`
/// must be `dag`'s [`TopoInfo`]; a re-plan computes it once for this and
/// [`repair_precedence_from`]), each
/// `None` slot gets the earliest superstep after its placed predecessors
/// and the processor minimizing a cost-model score — the NUMA-weighted
/// communication from its predecessors (`g · Σ c(u)·λ(π(u), q)`) plus
/// the marginal work-imbalance increase of that superstep — tie-broken
/// by superstep load, then processor id. On uniform machines with light
/// comm weights this degrades to least-loaded insertion; on NUMA
/// machines it keeps consumers near their producers' subtree, which the
/// floor-restricted hill climb cannot recover after the fact.
/// Already-placed nodes are untouched; the result still needs a
/// [`repair_precedence`] pass (placed nodes' precedence is not yet
/// re-checked here).
pub fn place_new_nodes(
    dag: &Dag,
    topo: &TopoInfo,
    machine: &BspParams,
    assign: &[Option<(u32, u32)>],
) -> BspSchedule {
    debug_assert_eq!(assign.len(), dag.n());
    let p = machine.p() as u32;

    let mut proc = vec![0u32; dag.n()];
    let mut step = vec![0u32; dag.n()];
    let mut placed = vec![false; dag.n()];
    for (v, a) in assign.iter().enumerate() {
        if let Some((q, s)) = *a {
            proc[v] = q.min(p.saturating_sub(1));
            step[v] = s;
            placed[v] = true;
        }
    }
    // work[(q, s)] tracked sparsely: steps grow as insertions demand.
    let mut work: Vec<Vec<u64>> = Vec::new(); // work[s][q]
    let ensure_step = |work: &mut Vec<Vec<u64>>, s: u32| {
        while work.len() <= s as usize {
            work.push(vec![0u64; p as usize]);
        }
    };
    for v in dag.nodes() {
        if placed[v as usize] {
            ensure_step(&mut work, step[v as usize]);
            work[step[v as usize] as usize][proc[v as usize] as usize] += dag.work(v);
        }
    }

    for &v in &topo.order {
        if placed[v as usize] {
            continue;
        }
        // Earliest superstep strictly after every placed predecessor (a
        // same-superstep read is only legal on the producer's processor;
        // the conservative +1 keeps the choice processor-independent).
        let s = dag
            .predecessors(v)
            .iter()
            .map(|&u| step[u as usize] + 1)
            .max()
            .unwrap_or(0);
        ensure_step(&mut work, s);
        let q = cheapest_proc(dag, machine, v, &work[s as usize], |u| proc[u as usize]);
        proc[v as usize] = q;
        step[v as usize] = s;
        placed[v as usize] = true;
        work[s as usize][q as usize] += dag.work(v);
    }
    BspSchedule::from_parts(proc, step)
}

/// What [`place_new_nodes`], the frontier clamp and
/// [`repair_precedence_from`] together give the nodes an append-only
/// batch added — `tables.n()..dag.n()`, every one consuming smaller ids
/// only — without a pass over the rest: the `(processor, superstep)` of
/// each, in id order, ready for [`ScheduleState::attach_appended`].
///
/// Id order is a topological order of the batch, and a new node has no
/// consumer among the old ones, so the old nodes' assignment (lazily
/// valid, the state `tables` describes) is not revisited: list insertion
/// reads each superstep's work from the tables' rows, plus what the
/// batch itself has placed so far; then every new node is lifted to
/// `floor` (a dispatched superstep cannot gain work) and delayed behind
/// its producers exactly as the repair pass would.
pub fn place_appended(
    dag: &Dag,
    machine: &BspParams,
    tables: &ScheduleTables,
    floor: u32,
) -> Vec<(u32, u32)> {
    let n0 = tables.n();
    let base = tables.schedule();
    let mut placed: Vec<(u32, u32)> = Vec::with_capacity(dag.n() - n0);
    let at = |placed: &[(u32, u32)], u: NodeId| match (u as usize).checked_sub(n0) {
        None => (base.proc(u), base.step(u)),
        Some(i) => placed[i],
    };
    // Work the batch itself has put into a superstep so far, per processor.
    let mut added: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut row = vec![0u64; machine.p()];
    for v in n0 as NodeId..dag.n() as NodeId {
        let s = dag
            .predecessors(v)
            .iter()
            .map(|&u| at(&placed, u).1 + 1)
            .max()
            .unwrap_or(0);
        let extra = added.entry(s).or_insert_with(|| vec![0; machine.p()]);
        for (q, w) in row.iter_mut().enumerate() {
            *w = tables.work(s, q as u32) + extra[q];
        }
        let q = cheapest_proc(dag, machine, v, &row, |u| at(&placed, u).0);
        extra[q as usize] += dag.work(v);
        placed.push((q, s));
    }
    for v in n0 as NodeId..dag.n() as NodeId {
        let (q, s) = placed[v as usize - n0];
        let after_producers = dag.predecessors(v).iter().map(|&u| {
            let (pu, su) = at(&placed, u);
            su + u32::from(pu != q)
        });
        placed[v as usize - n0].1 = after_producers.fold(s.max(floor), u32::max);
    }
    placed
}

/// Restores lazy-Γ precedence by delaying nodes: one topological pass
/// sets `τ(v) ← max(τ(v), τ(u))` over same-processor predecessors `u`
/// and `max(τ(v), τ(u)+1)` over cross-processor ones. Processors never
/// change, nodes only move later, and the pass visits each edge once, so
/// the result is valid (lazily) and deterministic.
pub fn repair_precedence(dag: &Dag, sched: &BspSchedule) -> BspSchedule {
    repair_precedence_from(dag, &TopoInfo::new(dag), sched, 0).expect("floor 0 commits nothing")
}

/// [`repair_precedence`] for online schedules with a committed prefix:
/// supersteps below `floor` are frozen, so only nodes at `floor` and
/// above may be delayed. A precedence violation that would require
/// delaying a *committed* node (equivalently: an edge into a committed
/// consumer from a tentative producer, or a committed-committed edge the
/// frozen assignment breaks) cannot be repaired by delay and is returned
/// as the typed [`PrefixViolation`] instead. Nodes with `τ(v) < floor`
/// count as committed; `floor == 0` is exactly [`repair_precedence`]
/// (and never fails). `topo` must be `dag`'s [`TopoInfo`].
pub fn repair_precedence_from(
    dag: &Dag,
    topo: &TopoInfo,
    sched: &BspSchedule,
    floor: u32,
) -> Result<BspSchedule, PrefixViolation> {
    bsp_dag::calls::note("repair_precedence_from");
    let mut step: Vec<u32> = sched.steps().to_vec();
    for &v in &topo.order {
        let committed = step[v as usize] < floor;
        let mut s = step[v as usize];
        for &u in dag.predecessors(v) {
            if committed && step[u as usize] >= floor {
                return Err(PrefixViolation::ProducerTentative { from: u, to: v });
            }
            let min = if sched.proc(u) == sched.proc(v) {
                step[u as usize]
            } else {
                step[u as usize] + 1
            };
            if committed && min > s {
                return Err(PrefixViolation::EdgeViolation {
                    from: u,
                    to: v,
                    from_step: step[u as usize],
                    to_step: s,
                });
            }
            s = s.max(min);
        }
        step[v as usize] = s;
    }
    Ok(BspSchedule::from_parts(sched.procs().to_vec(), step))
}

/// What [`solve_warm_suffix`] did; the re-optimized assignment is in the
/// state it was given.
#[derive(Debug, Clone)]
pub struct SuffixOutcome {
    /// Lazy-Γ cost afterwards.
    pub cost: u64,
    /// Cost of the state as given (compacted), before hill climbing.
    pub init_cost: u64,
    /// Accepted-move counters of the suffix hill climb (the per-arrival
    /// work-budget evidence an online runtime records).
    pub hc: HillClimbStats,
}

/// The incremental warm entry point for online re-planning: re-optimizes
/// the *tentative suffix* (supersteps `floor` and above) of the schedule
/// in `st` under `cx`'s work budget, leaving the committed prefix
/// untouched.
///
/// `st` holds a lazily valid assignment — built by [`ScheduleState::new`]
/// from the output of [`repair_precedence_from`], or kept from the last
/// re-plan and extended by [`ScheduleState::attach_appended`]; it need not
/// be compacted. The stages mirror [`solve_warm_pipeline`] — `warm-init`
/// then `hc` — but hill climbing is floor-restricted
/// ([`hill_climb_from`]), compaction preserves committed superstep
/// indices, and the communication schedule stays lazy (the suffix is
/// still tentative; Γ is finalized at dispatch time). The one state
/// serves the whole call: both costs are read from it and both
/// compactions ([`ScheduleState::compact_from`]) happen inside it, so no
/// lazy Γ is ever materialized here. The monotone contract carries over:
/// the result never costs more than what came in, and an expired budget
/// leaves that, compacted.
pub fn solve_warm_suffix(
    st: &mut ScheduleState<'_>,
    floor: u32,
    cfg: &PipelineConfig,
    cx: &mut SolveCx<'_>,
) -> SuffixOutcome {
    let _span = bsp_obs::trace::global().span("pipeline/warm-suffix", "pipeline");
    let init_cost = cx.stage("warm-init", |cx| {
        st.compact_from(floor);
        cx.improved(st.cost());
        (st.cost(), st.cost())
    });

    let hc = if cx.check_expired() {
        HillClimbStats {
            accepted: 0,
            local_minimum: false,
        }
    } else {
        cx.stage("hc", |cx| {
            let mut stop = cx.stop(cfg.hc.time_limit, cfg.hc.max_moves);
            let hc = hill_climb_from(st, &mut stop, floor);
            st.compact_from(floor);
            if st.cost() < init_cost {
                cx.improved(st.cost());
            }
            (st.cost(), hc)
        })
    };

    SuffixOutcome {
        cost: st.cost(),
        init_cost,
        hc,
    }
}

/// Runs the warm-start pipeline under `cx`'s budget clock: stage
/// `warm-init` (feasibility repair of `initial` — precedence is assumed
/// already valid, memory is repaired on bounded machines) and stage `hc`
/// (probe-kernel hill climbing plus communication-schedule search).
///
/// `initial` must be a valid (lazy-Γ) schedule of `dag` — the output of
/// [`warm_start_from_map`]. The result never costs more than the repaired
/// starting point, and an expired budget returns that starting point.
pub fn solve_warm_pipeline(
    dag: &Dag,
    machine: &BspParams,
    initial: &BspSchedule,
    cfg: &PipelineConfig,
    cx: &mut SolveCx<'_>,
) -> PipelineResult {
    let _span = bsp_obs::trace::global().span("pipeline/warm", "pipeline");

    // Stage 1 — repair. Runs even under an expired deadline so that a
    // valid best-so-far exists (mirrors the cold pipeline's init stage).
    let mut best = cx.stage("warm-init", |cx| {
        let mut sched = initial.clone();
        if machine.memory().is_some() {
            sched = repair_memory_with(dag, machine, &sched, || cx.expired()).0;
        }
        let cost = lazy_cost(dag, machine, &sched);
        (cost, Incumbent::lazy(cx, dag, sched, cost))
    });
    let init_cost = best.cost;

    // Stage 2 — local re-optimization with the probe kernel.
    if !cx.check_expired() {
        cx.stage("hc", |cx| {
            let start = ScheduleState::new(dag, machine, &best.sched);
            best.climb_from(start, cfg, cx);
            (best.cost, ())
        });
    }

    let cost = best.cost;
    best.into_result(init_cost, cost, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_schedule::solve::SolveRequest;
    use bsp_schedule::validity::validate_lazy;

    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_node(1, 1)).collect();
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[1], v[2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn repair_precedence_pushes_consumers_later() {
        let dag = chain3();
        // Node 2 on another processor in the same superstep as node 1:
        // cross-processor needs a strictly later step.
        let broken = BspSchedule::from_parts(vec![0, 0, 1], vec![0, 1, 1]);
        let fixed = repair_precedence(&dag, &broken);
        assert_eq!(fixed.step(2), 2);
        assert!(validate_lazy(&dag, 2, &fixed).is_ok());
        // An already-valid schedule passes through unchanged.
        let ok = BspSchedule::from_parts(vec![0, 0, 0], vec![0, 0, 0]);
        assert_eq!(repair_precedence(&dag, &ok), ok);
    }

    #[test]
    fn place_new_nodes_picks_least_loaded_processor() {
        let dag = chain3();
        let machine = BspParams::new(2, 1, 1);
        // Only node 0 placed (on proc 1); 1 and 2 are "new".
        let topo = TopoInfo::new(&dag);
        let placed = place_new_nodes(&dag, &topo, &machine, &[Some((1, 0)), None, None]);
        assert_eq!(placed.step(1), 1);
        assert_eq!(placed.step(2), 2);
        assert!(validate_lazy(&dag, 2, &repair_precedence(&dag, &placed)).is_ok());
    }

    #[test]
    fn repair_precedence_from_delays_only_the_suffix() {
        let dag = chain3();
        // Node 0 committed (step 0); nodes 1, 2 tentative but too early.
        let broken = BspSchedule::from_parts(vec![0, 1, 0], vec![0, 1, 1]);
        let topo = TopoInfo::new(&dag);
        let fixed = repair_precedence_from(&dag, &topo, &broken, 1).unwrap();
        assert_eq!(fixed.step(0), 0);
        assert_eq!(fixed.step(2), 2);
        assert!(validate_lazy(&dag, 2, &fixed).is_ok());
        // floor 0 agrees with the unconstrained repair.
        assert_eq!(
            repair_precedence_from(&dag, &topo, &broken, 0).unwrap(),
            repair_precedence(&dag, &broken)
        );
    }

    #[test]
    fn repair_precedence_from_rejects_committed_conflicts() {
        let dag = chain3();
        let topo = TopoInfo::new(&dag);
        use bsp_schedule::prefix::PrefixViolation;
        // Node 1 committed at step 0 but its producer 0 is tentative.
        let sched = BspSchedule::from_parts(vec![0, 0, 0], vec![1, 0, 2]);
        assert_eq!(
            repair_precedence_from(&dag, &topo, &sched, 1),
            Err(PrefixViolation::ProducerTentative { from: 0, to: 1 })
        );
        // Both committed, cross-processor in the same superstep: the
        // frozen consumer would need delaying.
        let sched = BspSchedule::from_parts(vec![0, 1, 0], vec![0, 0, 3]);
        assert_eq!(
            repair_precedence_from(&dag, &topo, &sched, 1),
            Err(PrefixViolation::EdgeViolation {
                from: 0,
                to: 1,
                from_step: 0,
                to_step: 0
            })
        );
    }

    #[test]
    fn suffix_solve_is_monotone_and_preserves_the_prefix() {
        let dag = random_layered_dag(
            11,
            LayeredConfig {
                layers: 6,
                width: 5,
                edge_prob: 0.3,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 2, 3);
        let initial = warm_start_from_map(
            &dag,
            &machine,
            &crate::init::bspg::bspg_schedule(&dag, &machine),
            &(0..dag.n() as NodeId).map(Some).collect::<Vec<_>>(),
        );
        let floor = initial.n_supersteps() / 2;
        let start_cost = lazy_cost(&dag, &machine, &initial);
        let req = SolveRequest::new(&dag, &machine);
        let mut cx = SolveCx::new("online", &req);
        let cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let mut st = ScheduleState::new(&dag, &machine, &initial);
        let out = solve_warm_suffix(&mut st, floor, &cfg, &mut cx);
        let sched = st.snapshot();
        assert_eq!(out.init_cost, start_cost);
        assert!(out.cost <= out.init_cost);
        assert_eq!(out.cost, lazy_cost(&dag, &machine, &sched));
        assert!(validate_lazy(&dag, 4, &sched).is_ok());
        for v in dag.nodes() {
            if initial.step(v) < floor {
                assert_eq!(sched.proc(v), initial.proc(v), "node {v}");
                assert_eq!(sched.step(v), initial.step(v), "node {v}");
            } else {
                assert!(sched.step(v) >= floor, "node {v}");
            }
        }
        assert!(bsp_schedule::prefix::validate_prefix(&dag, 4, &sched, floor).is_ok());
    }

    #[test]
    fn suffix_solve_respects_move_caps() {
        let dag = random_layered_dag(4, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let initial = warm_start_from_map(
            &dag,
            &machine,
            &crate::init::bspg::bspg_schedule(&dag, &machine),
            &(0..dag.n() as NodeId).map(Some).collect::<Vec<_>>(),
        );
        let req = SolveRequest::new(&dag, &machine)
            .with_budget(bsp_schedule::solve::Budget::unlimited().with_max_stage_moves(3));
        let mut cx = SolveCx::new("online", &req);
        let cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let mut st = ScheduleState::new(&dag, &machine, &initial);
        let out = solve_warm_suffix(&mut st, 0, &cfg, &mut cx);
        assert!(out.hc.accepted <= 3);
    }

    #[test]
    fn warm_start_from_map_survives_node_removal() {
        let dag = random_layered_dag(5, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let base = crate::init::bspg::bspg_schedule(&dag, &machine);
        // "Edit": drop node 0 — build the induced sub-DAG and its map.
        let keep: Vec<NodeId> = (1..dag.n() as NodeId).collect();
        let (sub, map) = dag.induced_subgraph(&keep);
        let warm = warm_start_from_map(&sub, &machine, &base, &map);
        assert!(validate_lazy(&sub, 4, &warm).is_ok());
    }

    #[test]
    fn warm_pipeline_never_worse_than_repaired_start() {
        let dag = random_layered_dag(
            9,
            LayeredConfig {
                layers: 5,
                width: 5,
                edge_prob: 0.3,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 2, 3);
        let initial = warm_start_from_map(
            &dag,
            &machine,
            &crate::init::bspg::bspg_schedule(&dag, &machine),
            &(0..dag.n() as NodeId).map(Some).collect::<Vec<_>>(),
        );
        let start_cost = lazy_cost(&dag, &machine, &initial);
        let req = SolveRequest::new(&dag, &machine);
        let mut cx = SolveCx::new("warm", &req);
        let cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let r = solve_warm_pipeline(&dag, &machine, &initial, &cfg, &mut cx);
        assert!(r.cost <= start_cost, "warm solve must be monotone");
        assert!(validate_lazy(&dag, 4, &r.sched).is_ok());
        assert_eq!(
            r.cost,
            bsp_schedule::cost::total_cost(&dag, &machine, &r.sched, &r.comm)
        );
    }

    #[test]
    fn warm_pipeline_expired_budget_returns_valid_start() {
        let dag = random_layered_dag(3, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let initial = warm_start_from_map(
            &dag,
            &machine,
            &crate::init::bspg::bspg_schedule(&dag, &machine),
            &(0..dag.n() as NodeId).map(Some).collect::<Vec<_>>(),
        );
        let req =
            SolveRequest::new(&dag, &machine).with_budget(bsp_schedule::solve::Budget::expired());
        let mut cx = SolveCx::new("warm", &req);
        let r = solve_warm_pipeline(
            &dag,
            &machine,
            &initial,
            &PipelineConfig::default(),
            &mut cx,
        );
        assert!(validate_lazy(&dag, 4, &r.sched).is_ok());
        assert_eq!(r.cost, lazy_cost(&dag, &machine, &r.sched));
    }
}
