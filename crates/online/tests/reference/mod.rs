//! The online scheduler of the commit before the append-only re-plan,
//! kept as the reference the production scheduler is tested against
//! (`tests/equivalence.rs`). `push`, `flush`, `replan`, `advance_frontier`
//! and `finalize` are that commit's, verbatim but for one call-site
//! adaptation to a signature this change moved: `solve_warm_suffix`
//! takes the state it used to build inside.

#![allow(dead_code)]

use bsp_core::hccs::optimize_comm_schedule;
use bsp_core::{
    place_new_nodes, repair_precedence_from, solve_warm_suffix, ScheduleState, SuffixOutcome,
};
use bsp_dag::{Dag, DagBuilder, NodeId, TopoInfo};
use bsp_instance::trace::ArrivalEvent;
use bsp_instance::{apply_edits, DagEdit};
use bsp_model::BspParams;
use bsp_online::{
    BatchReport, OnlineConfig, OnlineError, OnlineOutcome, OnlineStats, SuffixView, COMMIT_LAG,
    REVEAL_GUARD,
};
use bsp_schedule::cost::{lazy_cost, total_cost};
use bsp_schedule::prefix::validate_prefix;
use bsp_schedule::solve::{Budget, SolveCx, SolveRequest, Stop};
use bsp_schedule::{BspSchedule, CommSchedule};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Buffered, not-yet-integrated events of the current batch.
#[derive(Debug, Default)]
struct PendingBatch {
    edits: Vec<DagEdit>,
    arrivals: u64,
    reveals: u64,
}

/// The scheduler as it stood before the append path: every batch goes
/// through `apply_edits`, a `TopoInfo`, list insertion, the repair pass
/// and a fresh `ScheduleState`.
pub struct RefScheduler {
    machine: BspParams,
    cfg: OnlineConfig,
    /// The integrated (revealed) DAG; node ids are arrival order.
    dag: Dag,
    /// Assignment of every integrated node.
    sched: BspSchedule,
    /// Commit frontier: supersteps below it are frozen.
    frontier: u32,
    /// Trace id → internal id for every arrived node (buffered included).
    ext2int: HashMap<u32, NodeId>,
    /// Internal id → trace id.
    int2ext: Vec<u32>,
    /// Internal ids of the most recent arrivals (commit guard window).
    recent: VecDeque<NodeId>,
    pending: PendingBatch,
    stats: OnlineStats,
    finalized: bool,
    poisoned: bool,
    outcome: Option<OnlineOutcome>,
}

impl RefScheduler {
    /// A scheduler for one stream against `machine`. Rejects
    /// memory-bounded machines ([`OnlineError::UnsupportedMachine`]):
    /// feasibility repair there splits supersteps, which could rewrite
    /// dispatched work.
    pub fn new(machine: &BspParams, cfg: OnlineConfig) -> Result<Self, OnlineError> {
        if machine.memory().is_some() {
            return Err(OnlineError::UnsupportedMachine);
        }
        Ok(RefScheduler {
            machine: machine.clone(),
            cfg,
            dag: DagBuilder::new().build().expect("empty DAG is acyclic"),
            sched: BspSchedule::zeroed(0),
            frontier: 0,
            ext2int: HashMap::new(),
            int2ext: Vec::new(),
            recent: VecDeque::new(),
            pending: PendingBatch::default(),
            stats: OnlineStats::default(),
            finalized: false,
            poisoned: false,
            outcome: None,
        })
    }

    /// The revealed DAG as of the last re-plan (buffered events are not
    /// integrated yet).
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The current schedule (committed prefix + tentative suffix).
    pub fn schedule(&self) -> &BspSchedule {
        &self.sched
    }

    /// The commit frontier.
    pub fn frontier(&self) -> u32 {
        self.frontier
    }

    /// The machine this stream schedules onto.
    pub fn machine(&self) -> &BspParams {
        &self.machine
    }

    /// Session counters so far.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Whether `Finalize` has been processed.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// The final result, once finalized.
    pub fn outcome(&self) -> Option<&OnlineOutcome> {
        self.outcome.as_ref()
    }

    /// The tentative-suffix view of the current schedule.
    pub fn suffix(&self) -> SuffixView {
        let mut nodes = Vec::new();
        let mut procs = Vec::new();
        let mut steps = Vec::new();
        for v in self.dag.nodes() {
            if self.sched.step(v) >= self.frontier {
                nodes.push(self.int2ext[v as usize]);
                procs.push(self.sched.proc(v));
                steps.push(self.sched.step(v));
            }
        }
        SuffixView {
            frontier: self.frontier,
            nodes,
            procs,
            steps,
        }
    }

    /// Feeds one event. Arrivals and reveals buffer until the batch fills
    /// ([`OnlineConfig::batch_size`] arrivals) — then a re-plan runs and
    /// its report is returned. `Finalize` drains the buffer, runs a last
    /// suffix pass, commits everything and seals the
    /// [`outcome`](Self::outcome).
    pub fn push(&mut self, ev: &ArrivalEvent) -> Result<Option<BatchReport>, OnlineError> {
        if self.poisoned {
            return Err(OnlineError::Poisoned);
        }
        if self.finalized {
            return Err(OnlineError::Finalized);
        }
        match ev {
            ArrivalEvent::Arrive {
                node,
                work,
                comm,
                deps,
            } => {
                if self.ext2int.contains_key(node) {
                    return Err(OnlineError::DuplicateNode { node: *node });
                }
                let mut preds = Vec::with_capacity(deps.len());
                for d in deps {
                    match self.ext2int.get(d) {
                        Some(&u) => preds.push(u),
                        None => return Err(OnlineError::UnknownNode { node: *d }),
                    }
                }
                let int = self.int2ext.len() as NodeId;
                self.ext2int.insert(*node, int);
                self.int2ext.push(*node);
                self.pending.edits.push(DagEdit::AddNode {
                    work: *work,
                    comm: *comm,
                    preds,
                    succs: Vec::new(),
                });
                self.pending.arrivals += 1;
                self.stats.arrivals += 1;
                if self.pending.arrivals as usize >= self.cfg.batch_size {
                    return self.replan().map(Some);
                }
                Ok(None)
            }
            ArrivalEvent::Reveal { from, to } => {
                let f = *self
                    .ext2int
                    .get(from)
                    .ok_or(OnlineError::UnknownNode { node: *from })?;
                let t = *self
                    .ext2int
                    .get(to)
                    .ok_or(OnlineError::UnknownNode { node: *to })?;
                self.pending.edits.push(DagEdit::AddEdge { from: f, to: t });
                self.pending.reveals += 1;
                self.stats.reveals += 1;
                Ok(None)
            }
            ArrivalEvent::Finalize => {
                let report = self.finalize()?;
                Ok(report)
            }
        }
    }

    /// Forces a re-plan of the buffered events (no-op when nothing is
    /// buffered).
    pub fn flush(&mut self) -> Result<Option<BatchReport>, OnlineError> {
        if self.poisoned {
            return Err(OnlineError::Poisoned);
        }
        if self.pending.edits.is_empty() {
            return Ok(None);
        }
        self.replan().map(Some)
    }

    /// Integrates the pending batch and re-optimizes the suffix under the
    /// per-arrival work budget.
    fn replan(&mut self) -> Result<BatchReport, OnlineError> {
        let t0 = Instant::now();
        let pending = std::mem::take(&mut self.pending);

        let out = apply_edits(&self.dag, &pending.edits).map_err(|e| {
            self.poisoned = true;
            OnlineError::Edit(e)
        })?;
        // Arrivals only append: survivors keep their id, so the transplant
        // is the identity on the old range.
        debug_assert_eq!(out.dag.n(), self.dag.n() + pending.arrivals as usize);

        let mut assign: Vec<Option<(u32, u32)>> = vec![None; out.dag.n()];
        for (old, new) in out.node_map.iter().enumerate() {
            let new = new.expect("online edits never remove nodes");
            assign[new as usize] = Some((
                self.sched.proc(old as NodeId),
                self.sched.step(old as NodeId),
            ));
        }
        // One topological order serves placement and repair.
        let topo = TopoInfo::new(&out.dag);
        let mut placed = place_new_nodes(&out.dag, &topo, &self.machine, &assign);
        // New nodes may never land below the frontier: dispatched
        // supersteps cannot gain work.
        for &v in &out.added {
            if placed.step(v) < self.frontier {
                placed.set(v, placed.proc(v), self.frontier);
            }
            self.recent.push_back(v);
        }
        while self.recent.len() > REVEAL_GUARD {
            self.recent.pop_front();
        }
        let repaired =
            repair_precedence_from(&out.dag, &topo, &placed, self.frontier).map_err(|v| {
                self.poisoned = true;
                OnlineError::CommitConflict(v)
            })?;

        let units = pending.arrivals.max(1) as u32;
        let (sched, suffix, truncated) = self.solve_suffix(&out.dag, &repaired, units);

        self.dag = out.dag;
        self.sched = sched;
        self.advance_frontier();

        let report = BatchReport {
            batch: self.stats.replans,
            arrivals: pending.arrivals,
            reveals: pending.reveals,
            cost: suffix.cost,
            supersteps: self.sched.n_supersteps(),
            frontier: self.frontier,
            hc_moves: suffix.hc.accepted as u64,
            elapsed_us: t0.elapsed().as_micros() as u64,
            truncated,
        };
        self.stats.replans += 1;
        self.stats.batches.push(report);
        debug_assert!(
            validate_prefix(&self.dag, self.machine.p(), &self.sched, self.frontier).is_ok()
        );
        Ok(report)
    }

    /// Re-optimizes the tentative suffix of `initial` under the work
    /// budget of `units` arrivals, enforced through the anytime `SolveCx`
    /// contract: deadline + accepted-move cap, both scaled by `units`.
    /// Also returns whether the budget cut the hill climb short.
    fn solve_suffix(
        &self,
        dag: &Dag,
        initial: &BspSchedule,
        units: u32,
    ) -> (BspSchedule, SuffixOutcome, bool) {
        let mut budget = Budget::deadline(self.cfg.budget_per_arrival * units);
        if let Some(m) = self.cfg.moves_per_arrival {
            budget = budget.with_max_stage_moves(m * units as usize);
        }
        let req = SolveRequest::new(dag, &self.machine).with_budget(budget);
        let mut cx = SolveCx::new("online", &req);
        let mut st = ScheduleState::new(dag, &self.machine, initial);
        let suffix = solve_warm_suffix(&mut st, self.frontier, &self.cfg.pipeline, &mut cx);
        let truncated = cx.check_expired();
        (st.snapshot(), suffix, truncated)
    }

    /// Advances the commit frontier: trail the last superstep by
    /// `COMMIT_LAG`, but never overtake the `REVEAL_GUARD` most recent
    /// arrivals (their supersteps may still gain revealed edges). The
    /// frontier is monotone.
    fn advance_frontier(&mut self) {
        let lag = self.sched.n_supersteps().saturating_sub(COMMIT_LAG);
        let guard = self
            .recent
            .iter()
            .map(|&v| self.sched.step(v))
            .min()
            .unwrap_or(lag);
        self.frontier = self.frontier.max(lag.min(guard));
    }

    /// Drains the buffer, runs one final suffix pass, commits everything
    /// and seals the outcome. Returns the last re-plan report, if any
    /// re-plan ran.
    fn finalize(&mut self) -> Result<Option<BatchReport>, OnlineError> {
        let mut last = None;
        if !self.pending.edits.is_empty() {
            last = Some(self.replan()?);
        }
        // One drain pass over the remaining tentative suffix, under a
        // whole-batch budget: the stream is over, so this is the last
        // chance to polish the not-yet-dispatched tail.
        if self.dag.n() > 0 {
            let t0 = Instant::now();
            let units = self.cfg.batch_size.max(1) as u32;
            let (sched, suffix, truncated) = self.solve_suffix(&self.dag, &self.sched, units);
            self.sched = sched;
            let report = BatchReport {
                batch: self.stats.replans,
                arrivals: 0,
                reveals: 0,
                cost: suffix.cost,
                supersteps: self.sched.n_supersteps(),
                frontier: self.frontier,
                hc_moves: suffix.hc.accepted as u64,
                elapsed_us: t0.elapsed().as_micros() as u64,
                truncated,
            };
            self.stats.replans += 1;
            self.stats.batches.push(report);
            last = Some(report);
        }
        // Everything dispatches now.
        self.frontier = self.sched.n_supersteps();
        self.finalized = true;

        let mut comm = CommSchedule::lazy(&self.dag, &self.sched);
        let mut cost = lazy_cost(&self.dag, &self.machine, &self.sched);
        if self.dag.n() > 0 {
            // Γ-only optimization: node assignments are untouched, so the
            // committed prefix is preserved by construction.
            let hccs = &self.cfg.pipeline.hccs;
            let (cand_comm, cand_cost) = optimize_comm_schedule(
                &self.dag,
                &self.machine,
                &self.sched,
                &mut Stop::new(hccs.time_limit, hccs.max_moves),
            );
            if cand_cost < cost {
                comm = cand_comm;
                cost = cand_cost;
            }
        }
        debug_assert_eq!(
            cost,
            total_cost(&self.dag, &self.machine, &self.sched, &comm)
        );
        self.outcome = Some(OnlineOutcome {
            dag: self.dag.clone(),
            sched: self.sched.clone(),
            comm,
            cost,
            ext_ids: self.int2ext.clone(),
            stats: self.stats.clone(),
        });
        Ok(last)
    }
}
