//! The multilevel scheduler's two log walks as they stood before
//! `MutableDag` journaled its contractions and bounded its searches.
//!
//! Un-coarsening rebuilt every stage from the original DAG by replaying a
//! prefix of the log and routed every projection through a fresh
//! union-find: O(L²) contractions for a log of length L. Coarsening asked
//! the unbounded `is_contractable` about every live edge at every refresh.
//! Both left production for their cost and stay here for being obviously
//! right: `multilevel_walk.rs` holds the journaled walk and the
//! order-bounded candidate search to them, stage by stage and entry by
//! entry. The function bodies are the production code of that
//! commit (the search reads the graph through `MutableDag`'s accessors,
//! so nothing here depends on the order `MutableDag` now maintains).

use bsp_core::hc::hill_climb;
use bsp_core::multilevel::{Contraction, MultilevelConfig};
use bsp_core::state::ScheduleState;
use bsp_dag::{Dag, MutableDag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;

/// The old `MutableDag::is_contractable`, through the public accessors: a
/// DFS from the other successors of `u` that knows of no order and runs
/// until it finds `v` or exhausts `u`'s descendants, with a fresh visited
/// array per call.
fn is_contractable(m: &MutableDag, n: usize, u: NodeId, v: NodeId) -> bool {
    if !m.is_alive(u) || !m.is_alive(v) || !m.successors(u).contains(&v) {
        return false;
    }
    // Fast path: if v's only predecessor is u there can be no other path.
    if m.predecessors(v).len() == 1 {
        return true;
    }
    let mut visited = vec![false; n];
    let mut stack: Vec<NodeId> = m
        .successors(u)
        .iter()
        .copied()
        .filter(|&w| w != v)
        .collect();
    for &w in &stack {
        visited[w as usize] = true;
    }
    while let Some(x) = stack.pop() {
        if x == v {
            return false;
        }
        for &y in m.successors(x) {
            if y == v {
                return false;
            }
            if !visited[y as usize] {
                visited[y as usize] = true;
                stack.push(y);
            }
        }
    }
    true
}

/// The old `coarsen`: every refresh filters all live edges through the
/// per-edge search.
pub fn coarsen(dag: &Dag, target: usize, cfg: &MultilevelConfig) -> Vec<Contraction> {
    let n = dag.n();
    let mut m = MutableDag::from_dag(dag);
    let mut log = Vec::new();
    let mut queue: Vec<(NodeId, NodeId)> = Vec::new();
    let mut since_refresh = usize::MAX; // force initial refresh

    while m.n_alive() > target.max(1) {
        if queue.is_empty() || since_refresh >= cfg.refresh_period {
            queue = ranked_candidates(&m, n);
            since_refresh = 0;
            if queue.is_empty() {
                break;
            }
        }
        let mut contracted = false;
        while let Some((u, v)) = queue.pop() {
            if m.is_alive(u) && m.is_alive(v) && is_contractable(&m, n, u, v) {
                m.contract_edge(u, v);
                log.push(Contraction { kept: u, merged: v });
                since_refresh += 1;
                contracted = true;
                break;
            }
        }
        if !contracted {
            // Stale queue exhausted; force a refresh (or stop if none left).
            since_refresh = usize::MAX;
            let fresh = ranked_candidates(&m, n);
            if fresh.is_empty() {
                break;
            }
            queue = fresh;
        }
    }
    log
}

fn ranked_candidates(m: &MutableDag, n: usize) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = m
        .live_edges()
        .into_iter()
        .filter(|&(u, v)| is_contractable(m, n, u, v))
        .collect();
    if edges.is_empty() {
        return edges;
    }
    // Ascending by merged work; ties by ids for determinism.
    edges.sort_by_key(|&(u, v)| (m.work(u) + m.work(v), u, v));
    let third = edges.len().div_ceil(3);
    let mut head: Vec<(NodeId, NodeId)> = edges[..third].to_vec();
    let tail: Vec<(NodeId, NodeId)> = edges[third..].to_vec();
    // Within the lightest third: prefer large c(u): sort ascending so the
    // best sits at the very back for pop().
    head.sort_by_key(|&(u, v)| (m.comm(u), std::cmp::Reverse(u), std::cmp::Reverse(v)));
    // Final pop order: head (best last), preceded by tail as fallback.
    let mut out = tail;
    out.reverse(); // lightest of the tail popped first once head exhausts
    out.extend(head);
    out
}

/// Builds the coarse [`Dag`] after applying `log[..k]`, together with the
/// original-to-coarse node mapping.
pub fn stage_graph(dag: &Dag, log: &[Contraction]) -> (Dag, Vec<Option<NodeId>>) {
    let mut m = MutableDag::from_dag(dag);
    for c in log {
        m.contract_edge(c.kept, c.merged);
    }
    m.compact()
}

/// Representative (surviving original id) of every node after `log`.
pub fn representatives(n: usize, log: &[Contraction]) -> Vec<NodeId> {
    let mut parent: Vec<NodeId> = (0..n as NodeId).collect();
    fn find(parent: &mut [NodeId], v: NodeId) -> NodeId {
        if parent[v as usize] != v {
            let r = find(parent, parent[v as usize]);
            parent[v as usize] = r;
        }
        parent[v as usize]
    }
    for c in log {
        let r = find(&mut parent, c.kept);
        parent[c.merged as usize] = r;
    }
    (0..n as NodeId).map(|v| find(&mut parent, v)).collect()
}

/// One chunk boundary of the old loop: the stage after `log[..k]` and
/// `prev_sched` (a schedule of the stage after `log[..prev_k]`, `k ≤
/// prev_k`) projected onto it.
pub fn project(
    dag: &Dag,
    log: &[Contraction],
    prev_k: usize,
    k: usize,
    prev_sched: &BspSchedule,
) -> (Dag, BspSchedule) {
    let (stage, stage_map) = stage_graph(dag, &log[..k]);
    // Project: each stage-k node inherits from its representative at
    // stage prev_k.
    let reps = representatives(dag.n(), &log[..prev_k]);
    let (_, prev_map) = stage_graph(dag, &log[..prev_k]);
    let mut proc = vec![0u32; stage.n()];
    let mut step = vec![0u32; stage.n()];
    for orig in dag.nodes() {
        if let Some(sid) = stage_map[orig as usize] {
            let rep = reps[orig as usize];
            let pid = prev_map[rep as usize].expect("representative must be alive");
            proc[sid as usize] = prev_sched.proc(pid);
            step[sid as usize] = prev_sched.step(pid);
        }
    }
    (stage, BspSchedule::from_parts(proc, step))
}

/// The old `multilevel_with_log` (`refine_interval` must be positive).
pub fn multilevel_with_log(
    dag: &Dag,
    machine: &BspParams,
    log: &[Contraction],
    cfg: &MultilevelConfig,
    base: &mut dyn FnMut(&Dag, &BspParams) -> BspSchedule,
) -> BspSchedule {
    // Solve on the fully coarsened graph.
    let (coarse, _) = stage_graph(dag, log);
    let coarse_sched = base(&coarse, machine);

    // Walk back towards the original graph, refining every chunk.
    let mut prev_k = log.len();
    let mut prev_sched = coarse_sched;
    while prev_k > 0 {
        let k = prev_k.saturating_sub(cfg.refine_interval);
        let (stage, projected) = project(dag, log, prev_k, k, &prev_sched);
        let mut st = ScheduleState::new(&stage, machine, &projected);
        hill_climb(&mut st, &mut Stop::new(None, Some(cfg.refine_moves)));
        prev_sched = st.snapshot();
        prev_k = k;
    }
    compact_lazy(dag, &prev_sched)
}
