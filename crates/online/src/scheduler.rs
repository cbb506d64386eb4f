//! The event-driven arrival runtime: [`OnlineScheduler`] and
//! [`replay`].
//!
//! # A re-plan costs what arrived
//!
//! The scheduler owns its graph and its schedule state across re-plans:
//! a [`Dag`] and the [`ScheduleTables`] of the last re-plan (assignment,
//! superstep rows, consumer arena — everything a `ScheduleState` holds
//! that does not borrow the graph). A batch takes one of two paths:
//!
//! * **Append path** — the batch holds arrivals only. An arrival
//!   consumes nodes that arrived before it, so every new edge runs into a
//!   fresh largest id: [`Dag::append`] pushes the nodes onto the graph in
//!   place (no edge list, sort, Kahn pass or cycle search — such an edge
//!   cannot close a cycle), [`place_appended`] gives them the processor
//!   and superstep that list insertion, the frontier clamp and the repair
//!   pass would (id order *is* a topological order of the batch, and no
//!   old node consumes a new one, so nothing old is revisited), and
//!   [`ScheduleState::attach_appended`] extends the kept tables by them.
//!   None of `apply_edits`, `DagBuilder::build`, `TopoInfo::new`,
//!   `repair_precedence_from` or `ScheduleState::new` runs (a test counts
//!   them), and nothing proportional to `n` is allocated.
//! * **General path** — the batch reveals an edge. It is yesterday's
//!   re-plan and stays the one way any other edit is applied:
//!   [`apply_edits`] rebuilds the graph, survivors keep their assignment,
//!   [`place_new_nodes`] and [`repair_precedence_from`] run over a
//!   topological order, and a fresh `ScheduleState` is built. The
//!   append path is tested against it batch for batch
//!   (`tests/equivalence.rs`).
//!
//! **The monotone-id invariant.** Internal ids are arrival order, and an
//! arrival consumes earlier arrivals only, so within an arrival-only
//! batch id order is a topological order and no old node consumes a
//! new one — that is all the append path relies on. A reveal may point
//! anywhere (a hand-written trace may reveal an edge from a later arrival
//! to an earlier one), which is why a batch holding one takes the general
//! path and its [`TopoInfo::new`]. No session ever leaves the append
//! path: whatever the old edges look like, the nodes of an arrival-only
//! batch come last among themselves in ascending id in `TopoInfo::new`'s
//! smallest-id-first order, and that relative order is all the general
//! path's placement and repair take from it.
//!
//! Both paths then run the one floor-restricted hill climb
//! ([`solve_warm_suffix`]) on the state and keep its tables.

use bsp_core::hccs::optimize_comm_schedule;
use bsp_core::pipeline::PipelineConfig;
use bsp_core::{
    place_appended, place_new_nodes, repair_precedence_from, solve_warm_suffix, ScheduleState,
    ScheduleTables, SuffixOutcome,
};
use bsp_dag::{Dag, DagBuilder, NodeId, TopoInfo};
use bsp_instance::trace::{ArrivalEvent, ArrivalTrace, MAX_REVEAL_DELAY};
use bsp_instance::{apply_edits, DagEdit, EditError};
use bsp_model::BspParams;
use bsp_schedule::cost::{lazy_cost, total_cost};
use bsp_schedule::prefix::{validate_prefix, PrefixViolation};
use bsp_schedule::solve::{Budget, SolveCx, SolveRequest, Stop};
use bsp_schedule::{BspSchedule, CommSchedule};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning knobs of an [`OnlineScheduler`].
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Arrivals buffered before a re-plan runs (`Finalize` and
    /// [`OnlineScheduler::flush`] force one earlier).
    pub batch_size: usize,
    /// Wall-clock re-planning budget granted per arrival; a batch of `k`
    /// arrivals re-plans under a `k ×` this deadline.
    pub budget_per_arrival: Duration,
    /// Accepted-move cap per arrival (the deterministic half of the work
    /// budget); `None` = wall-clock only.
    pub moves_per_arrival: Option<usize>,
    /// Pipeline configuration for the suffix hill climb (ILP off by
    /// default — per-arrival budgets are far below ILP scale).
    pub pipeline: PipelineConfig,
}

/// How many trailing supersteps stay tentative when the frontier
/// advances: after a re-plan the frontier moves to
/// `n_supersteps − COMMIT_LAG` (but see [`REVEAL_GUARD`]).
pub const COMMIT_LAG: u32 = 2;

/// The frontier never overtakes the supersteps of this many most recent
/// arrivals, so late edge reveals (bounded by [`MAX_REVEAL_DELAY`]
/// arrivals) always land on tentative consumers. Exceeds the trace's
/// reveal delay bound.
pub const REVEAL_GUARD: usize = 2 * MAX_REVEAL_DELAY as usize;

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            batch_size: 8,
            budget_per_arrival: Duration::from_millis(2),
            moves_per_arrival: Some(64),
            pipeline: PipelineConfig {
                enable_ilp: false,
                ..PipelineConfig::default()
            },
        }
    }
}

/// Why the online runtime rejected an event (or a whole stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// An `Arrive` reused a node id that already arrived.
    DuplicateNode {
        /// The trace-level node id.
        node: u32,
    },
    /// An `Arrive` dep or `Reveal` endpoint never arrived.
    UnknownNode {
        /// The trace-level node id.
        node: u32,
    },
    /// The underlying edit batch was rejected (duplicate edge, cycle).
    Edit(EditError),
    /// A revealed edge (or an edit-induced delay) would rewrite the
    /// committed prefix — the trace out-ran the scheduler's commit
    /// guard.
    CommitConflict(PrefixViolation),
    /// An event arrived after `Finalize`.
    Finalized,
    /// A previous error left the stream unusable.
    Poisoned,
    /// Memory-bounded machines are not supported online (superstep
    /// splitting could rewrite dispatched supersteps).
    UnsupportedMachine,
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::DuplicateNode { node } => write!(f, "node {node} arrived twice"),
            OnlineError::UnknownNode { node } => {
                write!(f, "node {node} referenced before arrival")
            }
            OnlineError::Edit(e) => write!(f, "edit rejected: {e}"),
            OnlineError::CommitConflict(v) => {
                write!(f, "event conflicts with the committed prefix: {v}")
            }
            OnlineError::Finalized => write!(f, "event after finalize"),
            OnlineError::Poisoned => write!(f, "stream poisoned by an earlier error"),
            OnlineError::UnsupportedMachine => {
                write!(f, "online scheduling requires an unbounded-memory machine")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// What one re-plan did. `elapsed_us / arrivals` is the per-arrival
/// latency sample the experiment tables aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Re-plan sequence number (0-based).
    pub batch: u64,
    /// `Arrive` events integrated by this re-plan.
    pub arrivals: u64,
    /// `Reveal` events integrated by this re-plan.
    pub reveals: u64,
    /// Lazy-Γ cost of the full (prefix + suffix) schedule afterwards.
    pub cost: u64,
    /// Superstep count afterwards.
    pub supersteps: u32,
    /// Commit frontier afterwards.
    pub frontier: u32,
    /// Accepted hill-climbing moves (work-budget evidence: never exceeds
    /// `moves_per_arrival × max(arrivals, 1)`).
    pub hc_moves: u64,
    /// Wall-clock time of the re-plan, in microseconds.
    pub elapsed_us: u64,
    /// Whether the work budget cut the hill climb short.
    pub truncated: bool,
}

/// Counters and per-batch reports of one online session.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OnlineStats {
    /// Total `Arrive` events.
    pub arrivals: u64,
    /// Total `Reveal` events.
    pub reveals: u64,
    /// Total re-plans.
    pub replans: u64,
    /// One report per re-plan, in order.
    pub batches: Vec<BatchReport>,
}

/// The tentative-suffix view streamed to clients after a re-plan: the
/// assignment of every node at or above the commit frontier, in
/// trace-level node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixView {
    /// Commit frontier (supersteps below it are frozen).
    pub frontier: u32,
    /// Trace-level ids of the tentative nodes.
    pub nodes: Vec<u32>,
    /// Their processor assignments.
    pub procs: Vec<u32>,
    /// Their superstep assignments.
    pub steps: Vec<u32>,
}

/// The final result of a finalized stream.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The fully revealed DAG, nodes indexed by *arrival order*.
    pub dag: Dag,
    /// Final assignment over `dag`'s ids.
    pub sched: BspSchedule,
    /// Final communication schedule, HCcs-polished once at finalize.
    pub comm: CommSchedule,
    /// Final total cost under `comm`.
    pub cost: u64,
    /// Trace-level id of each node of `dag`.
    pub ext_ids: Vec<u32>,
    /// Session counters and per-batch reports.
    pub stats: OnlineStats,
}

impl OnlineOutcome {
    /// Re-expresses the result over the *source* DAG's node ids, when the
    /// trace used a dense id range `0..n` (generator-derived traces do).
    /// Returns `None` for sparse custom id spaces.
    pub fn for_source(&self) -> Option<(BspSchedule, CommSchedule)> {
        let n = self.dag.n();
        let mut seen = vec![false; n];
        for &e in &self.ext_ids {
            if (e as usize) >= n || seen[e as usize] {
                return None;
            }
            seen[e as usize] = true;
        }
        let mut sched = BspSchedule::zeroed(n);
        for v in 0..n as NodeId {
            sched.set(
                self.ext_ids[v as usize],
                self.sched.proc(v),
                self.sched.step(v),
            );
        }
        let comm = CommSchedule::from_entries(
            self.comm
                .entries()
                .iter()
                .map(|e| bsp_schedule::CommStep {
                    node: self.ext_ids[e.node as usize],
                    ..*e
                })
                .collect(),
        );
        Some((sched, comm))
    }
}

/// Buffered, not-yet-integrated events of the current batch.
#[derive(Debug, Default)]
struct PendingBatch {
    edits: Vec<DagEdit>,
    arrivals: u64,
    reveals: u64,
}

/// The event-driven arrival runtime. See the [crate docs](crate) for the
/// model; [`replay`] for the one-call driver.
///
/// ```
/// use bsp_instance::trace::ArrivalEvent;
/// use bsp_model::BspParams;
/// use bsp_online::{OnlineConfig, OnlineScheduler};
///
/// let machine = BspParams::new(2, 1, 2);
/// let mut sch = OnlineScheduler::new(&machine, OnlineConfig::default()).unwrap();
/// sch.push(&ArrivalEvent::Arrive { node: 7, work: 2, comm: 1, deps: vec![] }).unwrap();
/// sch.push(&ArrivalEvent::Arrive { node: 9, work: 3, comm: 1, deps: vec![7] }).unwrap();
/// sch.push(&ArrivalEvent::Finalize).unwrap();
/// let outcome = sch.outcome().unwrap();
/// assert_eq!(outcome.dag.n(), 2);
/// assert_eq!(outcome.ext_ids, vec![7, 9]);
/// ```
pub struct OnlineScheduler {
    machine: BspParams,
    cfg: OnlineConfig,
    /// The integrated (revealed) DAG; node ids are arrival order.
    dag: Dag,
    /// The schedule state of the last re-plan over `dag` — the assignment
    /// of every integrated node and everything derived from it —
    /// detached from the graph so the next batch can grow it.
    tables: ScheduleTables,
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

impl OnlineScheduler {
    /// A scheduler for one stream against `machine`. Rejects
    /// memory-bounded machines ([`OnlineError::UnsupportedMachine`]):
    /// feasibility repair there splits supersteps, which could rewrite
    /// dispatched work.
    pub fn new(machine: &BspParams, cfg: OnlineConfig) -> Result<Self, OnlineError> {
        if machine.memory().is_some() {
            return Err(OnlineError::UnsupportedMachine);
        }
        let dag = DagBuilder::new().build().expect("empty DAG is acyclic");
        let tables = ScheduleState::new(&dag, machine, &BspSchedule::zeroed(0)).detach();
        Ok(OnlineScheduler {
            machine: machine.clone(),
            cfg,
            dag,
            tables,
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
        self.tables.schedule()
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

    /// Consumes the scheduler for its final result, once finalized —
    /// [`outcome`](Self::outcome) without the clone.
    pub fn into_outcome(self) -> Option<OnlineOutcome> {
        self.outcome
    }

    /// The tentative-suffix view of the current schedule.
    pub fn suffix(&self) -> SuffixView {
        let sched = self.schedule();
        let mut nodes = Vec::new();
        let mut procs = Vec::new();
        let mut steps = Vec::new();
        for v in self.dag.nodes() {
            if sched.step(v) >= self.frontier {
                nodes.push(self.int2ext[v as usize]);
                procs.push(sched.proc(v));
                steps.push(sched.step(v));
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
        // Fault-injection site for stream sessions: an injected panic
        // unwinds into the serving layer's isolation boundary (which
        // closes the session), an injected slow stretches the re-plan.
        if let Some(plan) = bsp_faults::current() {
            plan.apply_sync(bsp_faults::Site::Online);
        }
        let t0 = Instant::now();
        let pending = std::mem::take(&mut self.pending);
        let n0 = self.dag.n() as NodeId;
        let mut state = if pending.reveals == 0 {
            let placed = self.append_arrivals(&pending.edits);
            let tables = std::mem::take(&mut self.tables);
            ScheduleState::attach_appended(&self.dag, &self.machine, tables, &placed)
        } else {
            let repaired = self.rebuild_with_edits(&pending.edits)?;
            ScheduleState::new(&self.dag, &self.machine, &repaired)
        };
        let units = pending.arrivals.max(1) as u32;
        let (suffix, truncated) = solve_suffix(&self.cfg, self.frontier, &mut state, units);
        self.tables = state.detach();

        self.recent.extend(n0..self.dag.n() as NodeId);
        let excess = self.recent.len().saturating_sub(REVEAL_GUARD);
        self.recent.drain(..excess);
        self.advance_frontier();
        Ok(self.report(t0, &pending, &suffix, truncated))
    }

    /// The append path (see the [module docs](self)): grows the graph by
    /// an arrival-only batch in place and returns where the new nodes go,
    /// for [`ScheduleState::attach_appended`]. Cannot fail — a dep resolved
    /// to an earlier arrival at `push`, and a new node is placed at or
    /// above the frontier.
    fn append_arrivals(&mut self, edits: &[DagEdit]) -> Vec<(u32, u32)> {
        let nodes: Vec<(u64, u64, &[NodeId])> = edits
            .iter()
            .map(|e| match e {
                DagEdit::AddNode {
                    work, comm, preds, ..
                } => (*work, *comm, preds.as_slice()),
                _ => unreachable!("a batch without reveals holds arrivals only"),
            })
            .collect();
        self.dag
            .append(&nodes)
            .expect("deps resolve to earlier arrivals");
        place_appended(&self.dag, &self.machine, &self.tables, self.frontier)
    }

    /// The general path (see the [module docs](self)): applies any edit
    /// batch through [`apply_edits`], transplants the surviving
    /// assignment, list-inserts and repairs over a topological order.
    /// Replaces the graph and returns the repaired assignment, which a
    /// fresh `ScheduleState` is then built from.
    fn rebuild_with_edits(&mut self, edits: &[DagEdit]) -> Result<BspSchedule, OnlineError> {
        let out = apply_edits(&self.dag, edits).map_err(|e| {
            self.poisoned = true;
            OnlineError::Edit(e)
        })?;
        let sched = self.tables.schedule();
        let mut assign: Vec<Option<(u32, u32)>> = vec![None; out.dag.n()];
        for (old, new) in out.node_map.iter().enumerate() {
            let new = new.expect("online edits never remove nodes");
            assign[new as usize] = Some((sched.proc(old as NodeId), sched.step(old as NodeId)));
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
        }
        let repaired =
            repair_precedence_from(&out.dag, &topo, &placed, self.frontier).map_err(|v| {
                self.poisoned = true;
                OnlineError::CommitConflict(v)
            })?;
        self.dag = out.dag;
        Ok(repaired)
    }

    /// Records and returns the report of the re-plan that began at `t0`.
    fn report(
        &mut self,
        t0: Instant,
        pending: &PendingBatch,
        suffix: &SuffixOutcome,
        truncated: bool,
    ) -> BatchReport {
        let report = BatchReport {
            batch: self.stats.replans,
            arrivals: pending.arrivals,
            reveals: pending.reveals,
            cost: suffix.cost,
            supersteps: self.tables.n_supersteps(),
            frontier: self.frontier,
            hc_moves: suffix.hc.accepted as u64,
            elapsed_us: t0.elapsed().as_micros() as u64,
            truncated,
        };
        self.stats.replans += 1;
        self.stats.batches.push(report);
        debug_assert!(
            validate_prefix(&self.dag, self.machine.p(), self.schedule(), self.frontier).is_ok()
        );
        report
    }

    /// Advances the commit frontier: trail the last superstep by
    /// [`COMMIT_LAG`], but never overtake the [`REVEAL_GUARD`] most recent
    /// arrivals (their supersteps may still gain revealed edges). The
    /// frontier is monotone.
    fn advance_frontier(&mut self) {
        let lag = self.tables.n_supersteps().saturating_sub(COMMIT_LAG);
        let sched = self.tables.schedule();
        let guard = self
            .recent
            .iter()
            .map(|&v| sched.step(v))
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
            let tables = std::mem::take(&mut self.tables);
            let mut state = ScheduleState::attach_appended(&self.dag, &self.machine, tables, &[]);
            let (suffix, truncated) = solve_suffix(&self.cfg, self.frontier, &mut state, units);
            self.tables = state.detach();
            last = Some(self.report(t0, &PendingBatch::default(), &suffix, truncated));
        }
        // Everything dispatches now.
        self.frontier = self.tables.n_supersteps();
        self.finalized = true;

        let sched = self.tables.schedule();
        let mut comm = CommSchedule::lazy(&self.dag, sched);
        let mut cost = lazy_cost(&self.dag, &self.machine, sched);
        if self.dag.n() > 0 {
            // Γ-only optimization: node assignments are untouched, so the
            // committed prefix is preserved by construction.
            let hccs = &self.cfg.pipeline.hccs;
            let (cand_comm, cand_cost) = optimize_comm_schedule(
                &self.dag,
                &self.machine,
                sched,
                &mut Stop::new(hccs.time_limit, hccs.max_moves),
            );
            if cand_cost < cost {
                comm = cand_comm;
                cost = cand_cost;
            }
        }
        debug_assert_eq!(cost, total_cost(&self.dag, &self.machine, sched, &comm));
        self.outcome = Some(OnlineOutcome {
            dag: self.dag.clone(),
            sched: sched.clone(),
            comm,
            cost,
            ext_ids: self.int2ext.clone(),
            stats: self.stats.clone(),
        });
        Ok(last)
    }
}

/// Re-optimizes the tentative suffix of `state` (supersteps `frontier`
/// and above) under the work budget of `units` arrivals, enforced through
/// the anytime `SolveCx` contract: deadline + accepted-move cap, both
/// scaled by `units` (a per-arrival budget too large to scale, such as
/// `Duration::MAX`, is no deadline at all). Also returns whether the
/// budget cut the hill climb short.
fn solve_suffix(
    cfg: &OnlineConfig,
    frontier: u32,
    state: &mut ScheduleState<'_>,
    units: u32,
) -> (SuffixOutcome, bool) {
    let mut budget = Budget::deadline(cfg.budget_per_arrival.saturating_mul(units));
    if let Some(m) = cfg.moves_per_arrival {
        budget = budget.with_max_stage_moves(m * units as usize);
    }
    let (dag, machine) = (state.dag(), state.machine());
    let req = SolveRequest::new(dag, machine).with_budget(budget);
    let mut cx = SolveCx::new("online", &req);
    let suffix = solve_warm_suffix(state, frontier, &cfg.pipeline, &mut cx);
    (suffix, cx.check_expired())
}

/// Replays a full trace against `machine`: pushes every event through an
/// [`OnlineScheduler`] and returns the sealed outcome. The trace must end
/// in `Finalize` (a missing one is tolerated: the stream is finalized
/// after the last event).
pub fn replay(
    trace: &ArrivalTrace,
    machine: &BspParams,
    cfg: &OnlineConfig,
) -> Result<OnlineOutcome, OnlineError> {
    let mut sch = OnlineScheduler::new(machine, cfg.clone())?;
    for ev in &trace.events {
        sch.push(ev)?;
    }
    if !sch.is_finalized() {
        sch.push(&ArrivalEvent::Finalize)?;
    }
    Ok(sch.into_outcome().expect("finalized stream has an outcome"))
}
