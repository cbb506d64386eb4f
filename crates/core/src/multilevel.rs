//! Multilevel scheduling: coarsen → solve → uncoarsen + refine
//! (paper §4.5, Appendix A.5).
//!
//! The DAG is repeatedly coarsened by contracting a *contractable* edge
//! (one with no alternative directed path), preferring edges with small
//! merged work weight `w(u) + w(v)` and large communication weight `c(u)`.
//! The coarse DAG is scheduled with the base scheduler; the contractions
//! are then undone in reverse order in small chunks, projecting the
//! schedule onto the finer DAG (children inherit the merged node's
//! processor and superstep — always valid, since the coarse graph was a
//! DAG) and running a bounded hill-climbing refinement after every chunk.
//!
//! As in the paper, the algorithm is run for coarsening ratios 30% and 15%
//! and the cheaper result is kept, and the communication-schedule
//! optimizers are applied once at the end on the original DAG.
//!
//! Both halves walk the contraction log once. [`coarsen`] asks
//! [`MutableDag`] which edges are contractable — every candidate refresh
//! and every re-verification before a contraction — and each of those
//! searches is bounded by the topological order `MutableDag` keeps valid
//! across contractions, so it costs the region between an edge's endpoints
//! instead of everything below its tail. The un-coarsening applies the log
//! to one `MutableDag` and then undoes it entry by entry from that graph's
//! journal (`bsp_dag::contraction` explains why the inverse is exact),
//! where rebuilding each stage from the original DAG cost the whole log
//! prefix, O(L²) contractions for a log of length L.
//!
//! [`multilevel_with_log`] keeps one schedule state per ratio walk, over
//! the original ids. The coarsest stage is extracted and scheduled once;
//! from then on the state's graph is [`MutableDag::stage_by_id`], where a
//! node merged away is absent from the tables. Each un-contraction is an
//! edit of the graph and of the tables
//! ([`crate::state::ScheduleTables::uncontract`]): the revived node takes
//! its parent's `(π, τ)`, the edges it owns move off the kept node, and
//! only what changed is stamped and woken. So a chunk's climb starts from
//! the last one's sleepers and failure certificates and re-probes only the
//! neighbourhoods the chunk changed, and no chunk builds a graph or a
//! state. The schedules are the ones a fresh state per chunk gives, bit
//! for bit. [`Uncoarsening`] is that per-chunk walk — a dense stage and its
//! projected schedule at every chunk boundary. The kept walk takes its
//! coarsest stage from it, and its tests hold the kept state to it at
//! every chunk.

use crate::hc::hill_climb;
use crate::state::{ScheduleState, ScheduleTables};
use bsp_dag::{Dag, MutableDag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;

/// Multilevel tuning parameters.
#[derive(Debug, Clone)]
pub struct MultilevelConfig {
    /// Coarsening ratios to try; the cheapest final schedule wins.
    /// Paper default: `[0.3, 0.15]`.
    pub ratios: Vec<f64>,
    /// Number of uncontractions between refinement passes (paper: 5).
    pub refine_interval: usize,
    /// Accepted-move budget per refinement pass (paper: 100).
    pub refine_moves: usize,
    /// Candidate list refresh period during coarsening (a deviation from
    /// the paper's per-step re-sort, which is O(|E|) per contraction; the
    /// list is refreshed every this many contractions and every candidate
    /// is still exactly re-verified before being applied).
    pub refresh_period: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            ratios: vec![0.3, 0.15],
            refine_interval: 5,
            refine_moves: 100,
            refresh_period: 64,
        }
    }
}

/// One recorded contraction: `merged` was merged into `kept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contraction {
    /// Surviving node (original id space).
    pub kept: NodeId,
    /// Node merged away.
    pub merged: NodeId,
}

/// Coarsens `dag` down to (at most) `target` live nodes. Returns the
/// contraction log in application order; fewer contractions are returned if
/// the graph runs out of contractable edges.
pub fn coarsen(dag: &Dag, target: usize, cfg: &MultilevelConfig) -> Vec<Contraction> {
    let mut m = MutableDag::from_dag(dag);
    let mut log = Vec::new();
    let mut queue: Vec<(NodeId, NodeId)> = Vec::new();
    let mut since_refresh = usize::MAX; // force initial refresh

    while m.n_alive() > target.max(1) {
        if queue.is_empty() || since_refresh >= cfg.refresh_period {
            queue = ranked_candidates(&m);
            since_refresh = 0;
            if queue.is_empty() {
                break;
            }
        }
        let mut contracted = false;
        while let Some((u, v)) = queue.pop() {
            if m.is_alive(u) && m.is_alive(v) && m.is_contractable(u, v) {
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
            let fresh = ranked_candidates(&m);
            if fresh.is_empty() {
                break;
            }
            queue = fresh;
        }
    }
    log
}

/// Candidate edges ordered so that popping from the *back* follows the
/// paper's rule: ascending merged work weight, and within the lightest
/// third, larger `c(u)` first.
fn ranked_candidates(m: &MutableDag) -> Vec<(NodeId, NodeId)> {
    let mut edges = m.contractable_edges();
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

/// The un-coarsening walk over one contraction log: the graph at the
/// current stage and the schedule projected onto it.
///
/// Built at the coarsest stage (`log` applied in full), it moves towards the
/// original DAG by undoing journal entries of its one [`MutableDag`], so a
/// stage costs its own size — no stage is rebuilt from the original DAG,
/// and no earlier stage is kept. The schedule lives in original-id space
/// (only live nodes' entries mean anything), which makes projection a copy:
/// a revived node takes `(π, τ)` of the node it had been merged into.
pub struct Uncoarsening {
    m: MutableDag,
    sched: BspSchedule,
}

impl Uncoarsening {
    /// Applies `log` to a copy of `dag`. The schedule starts all-zero;
    /// [`Uncoarsening::adopt`] one for the coarsest stage before walking.
    pub fn new(dag: &Dag, log: &[Contraction]) -> Self {
        let mut m = MutableDag::from_dag(dag);
        for c in log {
            m.contract_edge(c.kept, c.merged);
        }
        Uncoarsening {
            m,
            sched: BspSchedule::zeroed(dag.n()),
        }
    }

    /// Contractions not yet undone; 0 once the stage is the original DAG.
    pub fn remaining(&self) -> usize {
        self.sched.n() - self.m.n_alive()
    }

    /// Undoes up to `count` contractions, latest first. Each revived node
    /// inherits its processor and superstep from the node it was merged
    /// into — valid on the finer stage because the coarser one was a DAG.
    pub fn undo(&mut self, count: usize) {
        for _ in 0..count {
            let Some((kept, merged)) = self.m.uncontract() else {
                break;
            };
            self.sched
                .set(merged, self.sched.proc(kept), self.sched.step(kept));
        }
    }

    /// The current stage as a dense [`Dag`] (live nodes in id order).
    pub fn stage(&self) -> Dag {
        self.m.compact().0
    }

    /// The schedule of the current stage, indexed like [`Uncoarsening::stage`].
    pub fn projected(&self) -> BspSchedule {
        let live = || self.m.live_nodes();
        BspSchedule::from_parts(
            live().map(|v| self.sched.proc(v)).collect(),
            live().map(|v| self.sched.step(v)).collect(),
        )
    }

    /// Takes over `sched`, a schedule of the current stage.
    pub fn adopt(&mut self, sched: &BspSchedule) {
        for (id, v) in self.m.live_nodes().enumerate() {
            let id = id as NodeId;
            self.sched.set(v, sched.proc(id), sched.step(id));
        }
    }
}

/// The walk [`multilevel_with_log`] refines along: one contraction log
/// undone on a [`MutableDag`], with one schedule state kept from the
/// coarsest stage down. The state covers the original ids
/// ([`MutableDag::stage_by_id`]; merged-away nodes are absent from it), so
/// an un-contraction is an edit of its tables
/// ([`ScheduleTables::uncontract`]) and a chunk's climb starts from the
/// last one's sleepers and failure certificates: it re-probes only what the
/// chunk's edits changed.
struct KeptWalk {
    m: MutableDag,
    stage: Dag,
    tables: ScheduleTables,
}

impl KeptWalk {
    /// Applies `log` to `dag` and schedules the coarsest stage with `base`.
    fn new(
        dag: &Dag,
        machine: &BspParams,
        log: &[Contraction],
        base: &mut dyn FnMut(&Dag, &BspParams) -> BspSchedule,
    ) -> Self {
        let mut coarsest = Uncoarsening::new(dag, log);
        let coarse = coarsest.stage();
        let coarse_sched = base(&coarse, machine);
        debug_assert!(coarse_sched.respects_precedence_lazy(&coarse));
        coarsest.adopt(&coarse_sched);
        let Uncoarsening { m, sched } = coarsest;
        let stage = m.stage_by_id();
        let dead = dag.nodes().filter(|&v| !m.is_alive(v));
        let tables = ScheduleState::with_absent(&stage, machine, &sched, dead).detach();
        KeptWalk { m, stage, tables }
    }

    /// Contractions not yet undone.
    fn remaining(&self) -> usize {
        self.stage.n() - self.m.n_alive()
    }

    /// Undoes up to `count` contractions, latest first.
    fn undo(&mut self, machine: &BspParams, count: usize) {
        self.tables
            .uncontract(&mut self.stage, machine, &mut self.m, count);
    }

    /// Hill-climbs the current stage under `stop`.
    fn climb(&mut self, machine: &BspParams, stop: &mut Stop) {
        let tables = std::mem::take(&mut self.tables);
        let mut st = ScheduleState::attach(&self.stage, machine, tables);
        hill_climb(&mut st, stop);
        self.tables = st.detach();
    }
}

/// Runs the full multilevel scheme for a single coarsening `log`, given a
/// base scheduler for the coarse graph. Returns the refined assignment on
/// the original DAG.
///
/// `stop` is asked once per chunk of un-contractions, and again inside
/// every refinement climb (each with its own allowance of
/// `cfg.refine_moves`); once it has fired the remaining chunks are
/// projected but no longer refined, which still yields a valid schedule.
pub fn multilevel_with_log(
    dag: &Dag,
    machine: &BspParams,
    log: &[Contraction],
    cfg: &MultilevelConfig,
    base: &mut dyn FnMut(&Dag, &BspParams) -> BspSchedule,
    stop: &mut Stop,
) -> BspSchedule {
    let mut walk = KeptWalk::new(dag, machine, log, base);
    // Walk back towards the original graph, refining every chunk. An
    // interval of 0 would never advance; it means 1.
    let interval = cfg.refine_interval.max(1);
    while walk.remaining() > 0 {
        walk.undo(machine, interval);
        if stop.expired() {
            // Out of budget: project the rest of the way down, unrefined.
            walk.undo(machine, walk.remaining());
            break;
        }
        walk.climb(machine, &mut stop.with_moves(cfg.refine_moves));
    }
    compact_lazy(dag, walk.tables.schedule())
}

/// Full multilevel scheduler: tries every configured coarsening ratio and
/// returns the assignment with the lowest lazy cost. `base` schedules the
/// coarse DAG (the paper uses the Figure-3 pipeline without `ILPcs`);
/// `stop` ends the refinement as in [`multilevel_with_log`].
pub fn multilevel_schedule(
    dag: &Dag,
    machine: &BspParams,
    cfg: &MultilevelConfig,
    base: &mut dyn FnMut(&Dag, &BspParams) -> BspSchedule,
    stop: &mut Stop,
) -> BspSchedule {
    // Coarsen once to the smallest ratio; larger ratios are prefixes.
    let min_ratio = cfg.ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let deepest_target = ((dag.n() as f64) * min_ratio).ceil() as usize;
    let full_log = coarsen(dag, deepest_target.max(2), cfg);

    let mut best: Option<(u64, BspSchedule)> = None;
    for &ratio in &cfg.ratios {
        let target = ((dag.n() as f64) * ratio).ceil() as usize;
        let k = full_log.len().min(dag.n().saturating_sub(target));
        let sched = multilevel_with_log(dag, machine, &full_log[..k], cfg, base, stop);
        let cost = lazy_cost(dag, machine, &sched);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, sched));
        }
    }
    best.expect("at least one ratio configured").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::TopoInfo;
    use bsp_schedule::validity::validate_lazy;

    fn sample(seed: u64) -> Dag {
        random_layered_dag(
            seed,
            LayeredConfig {
                layers: 6,
                width: 6,
                edge_prob: 0.3,
                max_work: 5,
                max_comm: 6,
            },
        )
    }

    fn bspg(d: &Dag, m: &BspParams) -> BspSchedule {
        crate::init::bspg::bspg_schedule(d, m)
    }

    #[test]
    fn coarsen_reaches_target_and_stays_acyclic() {
        let dag = sample(1);
        let log = coarsen(&dag, dag.n() / 4, &MultilevelConfig::default());
        assert!(dag.n() - log.len() <= dag.n() / 4 + 1);
        let coarse = Uncoarsening::new(&dag, &log).stage();
        let topo = TopoInfo::new(&coarse);
        assert!(bsp_dag::topo::is_topological_order(&coarse, &topo.order));
        assert_eq!(coarse.total_work(), dag.total_work());
    }

    #[test]
    fn walk_ends_on_the_original_dag() {
        let dag = sample(2);
        let log = coarsen(&dag, dag.n() / 3, &MultilevelConfig::default());
        let mut walk = Uncoarsening::new(&dag, &log);
        assert_eq!(walk.remaining(), log.len());
        walk.undo(log.len() - 1);
        assert_eq!(walk.remaining(), 1);
        walk.undo(5);
        assert_eq!(walk.remaining(), 0);
        assert_eq!(walk.stage(), dag);
    }

    #[test]
    fn multilevel_produces_valid_schedules() {
        let dag = sample(3);
        let machine = BspParams::new(4, 5, 5);
        let sched = multilevel_schedule(
            &dag,
            &machine,
            &MultilevelConfig::default(),
            &mut bspg,
            &mut Stop::new(None, None),
        );
        assert!(validate_lazy(&dag, 4, &sched).is_ok());
    }

    /// `dag` with the work of every third node and the communication
    /// weight of every fourth set to 0: nodes that often cannot improve,
    /// so that many sleep.
    fn with_zeros(dag: &Dag) -> Dag {
        let mut b = bsp_dag::DagBuilder::new();
        for v in dag.nodes() {
            let w = if v % 3 == 0 { 0 } else { dag.work(v) };
            b.add_node(w, if v % 4 == 0 { 0 } else { dag.comm(v) });
        }
        for (u, v) in dag.edges() {
            b.add_edge(u, v).expect("an edge of a DAG");
        }
        b.build().expect("a DAG")
    }

    /// What an edit must leave true of the kept state: every present
    /// sleeper is stuck, and every standing certificate is true.
    fn sleepers_and_certificates_hold(st: &ScheduleState<'_>) -> Result<(), String> {
        for v in st.dag().nodes().filter(|&v| !st.is_absent(v)) {
            if !st.is_awake(v) && st.may_improve(v) {
                return Err(format!("node {v} sleeps but may improve"));
            }
            let tau = st.step(v);
            let window = tau.saturating_sub(1)..=tau + 1;
            let mut moves =
                window.flat_map(|s| st.valid_procs(v, s).procs(st.p()).map(move |q| (q, s)));
            if st.certified(v) && moves.any(|(q, s)| st.probe_move(v, q, s) < 0) {
                return Err(format!("certified node {v} improves"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        // 256 cases: a kept sleeper whose edit forgot to wake it turns up
        // within them.
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// After every chunk the kept tables are the ones a state built on
        /// the compacted stage holds, before and after the chunk's climb:
        /// an un-contraction batch is an exact edit, and a climb on the
        /// kept state is the climb on a fresh one. After every batch the
        /// sleepers are stuck and the standing certificates true.
        #[test]
        fn kept_tables_equal_a_fresh_state_at_every_chunk(
            seed in 0u64..400,
            layered in proptest::bool::ANY,
            zeros in proptest::bool::ANY,
            keep in 0.1f64..0.6,
            interval in 1usize..8,
            moves in 0usize..25,
        ) {
            let dag = if layered {
                sample(seed)
            } else {
                bsp_dag::random::random_order_dag(seed, 30, 0.15, 7, 5)
            };
            let dag = if zeros { with_zeros(&dag) } else { dag };
            let machine = BspParams::new(4, 3, 5)
                .with_numa(bsp_model::NumaTopology::binary_tree(4, 3));
            let log = coarsen(&dag, ((dag.n() as f64 * keep) as usize).max(1), &MultilevelConfig::default());
            let mut kept = KeptWalk::new(&dag, &machine, &log, &mut bspg);
            let mut oracle = Uncoarsening::new(&dag, &log);
            oracle.adopt(&kept.tables.present_only().schedule().clone());
            while kept.remaining() > 0 {
                kept.undo(&machine, interval);
                let st = ScheduleState::attach(&kept.stage, &machine, std::mem::take(&mut kept.tables));
                let held = sleepers_and_certificates_hold(&st);
                kept.tables = st.detach();
                proptest::prop_assert!(held.is_ok(), "after undo: {:?}", held);
                oracle.undo(interval);
                let stage = oracle.stage();
                let mut fresh = ScheduleState::new(&stage, &machine, &oracle.projected());
                proptest::prop_assert!(kept.tables.present_only() == *fresh.tables(), "after undo");
                let mut stop = Stop::new(None, Some(moves));
                kept.climb(&machine, &mut stop);
                hill_climb(&mut fresh, &mut Stop::new(None, Some(moves)));
                let climbed = fresh.snapshot();
                let rebuilt = ScheduleState::new(&stage, &machine, &climbed);
                let present = kept.tables.present_only();
                proptest::prop_assert_eq!(present.schedule(), &climbed);
                proptest::prop_assert!(present == *rebuilt.tables(), "after climb");
                oracle.adopt(&climbed);
            }
            proptest::prop_assert_eq!(&kept.stage, &dag);
        }
    }

    /// `refine_interval: 0` used to leave the walk where it stood forever.
    #[test]
    fn zero_refine_interval_means_one() {
        let dag = sample(5);
        let machine = BspParams::new(4, 5, 5);
        let run = |refine_interval| {
            let cfg = MultilevelConfig {
                refine_interval,
                ..MultilevelConfig::default()
            };
            multilevel_schedule(&dag, &machine, &cfg, &mut bspg, &mut Stop::new(None, None))
        };
        assert_eq!(run(0), run(1));
    }

    /// Out of budget from the start: every chunk is projected, none is
    /// refined — the result is the coarse schedule carried down unchanged.
    #[test]
    fn expired_walk_only_projects() {
        let dag = sample(6);
        let machine = BspParams::new(4, 20, 10);
        let log = coarsen(&dag, dag.n() / 3, &MultilevelConfig::default());
        let run = |refine_moves, stop: &mut Stop| {
            let cfg = MultilevelConfig {
                refine_moves,
                ..MultilevelConfig::default()
            };
            multilevel_with_log(&dag, &machine, &log, &cfg, &mut bspg, stop)
        };
        let cut_short = run(100, &mut Stop::new(Some(std::time::Duration::ZERO), None));
        assert!(validate_lazy(&dag, 4, &cut_short).is_ok());
        assert_eq!(cut_short, run(0, &mut Stop::new(None, None)));
        assert_ne!(cut_short, run(100, &mut Stop::new(None, None)));
    }

    #[test]
    fn multilevel_beats_trivial_on_comm_heavy_instance() {
        // High g and NUMA-like conditions: communication dominates; the
        // multilevel result must at least stay within the trivial cost.
        let dag = sample(4);
        let machine = BspParams::new(4, 20, 10);
        let trivial = dag.total_work() + machine.l();
        let mut base = |d: &Dag, m: &BspParams| {
            let s = bspg(d, m);
            let mut st = ScheduleState::new(d, m, &s);
            hill_climb(&mut st, &mut Stop::new(None, Some(300)));
            st.snapshot()
        };
        let sched = multilevel_schedule(
            &dag,
            &machine,
            &MultilevelConfig::default(),
            &mut base,
            &mut Stop::new(None, None),
        );
        assert!(validate_lazy(&dag, 4, &sched).is_ok());
        let cost = lazy_cost(&dag, &machine, &sched);
        assert!(
            cost <= trivial + trivial / 2,
            "multilevel wildly off: {cost} vs trivial {trivial}"
        );
    }
}
