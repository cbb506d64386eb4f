//! The anytime solve API: [`SolveRequest`], [`Budget`], [`Observer`],
//! [`StageReport`] and [`SolveOutcome`].
//!
//! The paper's framework is an *anytime* pipeline: initializers, hill
//! climbing and ILP stages monotonically improve a schedule, so stopping at
//! any stage boundary still yields a valid best-so-far schedule. This module
//! is the request/response surface that exposes that property: a
//! [`SolveRequest`] bundles the instance with a [`Budget`] (wall-clock
//! deadline, per-stage move caps, a cancel token), an RNG seed, and an
//! [`Observer`] that receives stage and improvement events while the solve
//! runs. Every [`Scheduler`](crate::scheduler::Scheduler) consumes a request
//! and returns a [`SolveOutcome`]: the final costed schedule plus one
//! [`StageReport`] per pipeline stage that ran.
//!
//! Budget semantics (also documented in the README):
//!
//! * One type reads a clock or a cancel token inside a stage: [`Stop`]. A
//!   pipeline asks its [`SolveCx`] for one per search
//!   ([`SolveCx::stop`]: the tighter of the solve's deadline and the
//!   stage's own time limit, the request's token, the tighter of the two
//!   move caps) and every search loop — HC, HCcs, steepest descent, tabu,
//!   multilevel's refinement climbs — polls it: once per
//!   whole-neighbourhood round, and on every 64th step where a step is
//!   cheap (the first included). So the **deadline** is honoured inside
//!   every search, not only at stage boundaries, and an expired one makes
//!   the remaining stages (near) no-ops. Because every stage holds the
//!   monotone contract, the result is always a *valid* schedule — under
//!   an already-expired deadline, the best initialization.
//! * **Move caps** bound the accepted moves of each local-search stage.
//! * The **cancel token** ([`Budget::with_cancel`]) is read wherever the
//!   clock is read, so a cancelled solve winds down from *inside* its
//!   current search, to the same valid best-so-far an expired deadline
//!   would leave — the cooperative-stop channel used by portfolio racing
//!   and by the daemon when a client disconnects.
//! * An **ILP solve** sees the deadline as a `Duration`
//!   ([`Stop::remaining`], folded into its time limit when the solve
//!   starts), not the token: `bsp-ilp` is dependency-free, so a
//!   cancellation takes effect when the solve returns, not inside a
//!   branch-and-bound search.
//!
//! ```
//! use bsp_dag::DagBuilder;
//! use bsp_model::BspParams;
//! use bsp_schedule::solve::{Budget, SolveRequest};
//! use std::time::Duration;
//!
//! let mut b = DagBuilder::new();
//! let u = b.add_node(2, 1);
//! let v = b.add_node(3, 1);
//! b.add_edge(u, v).unwrap();
//! let dag = b.build().unwrap();
//! let machine = BspParams::new(2, 1, 1);
//!
//! let req = SolveRequest::new(&dag, &machine)
//!     .with_budget(Budget::deadline(Duration::from_millis(50)).with_max_stage_moves(100))
//!     .with_seed(7);
//! assert_eq!(req.seed, 7);
//! assert_eq!(req.budget.max_stage_moves, Some(100));
//! assert!(!req.budget.is_unlimited());
//! ```

use crate::scheduler::ScheduleResult;
use bsp_dag::Dag;
use bsp_model::BspParams;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag with optional parent chaining.
///
/// Cloning shares the flag. [`CancelToken::child`] derives a token that is
/// cancelled when *either* it or its parent is cancelled, while cancelling
/// the child leaves the parent (and the child's siblings) untouched —
/// exactly the shape portfolio racing needs.
///
/// ```
/// use bsp_schedule::solve::CancelToken;
///
/// let parent = CancelToken::new();
/// let child = parent.child();
/// assert!(!child.is_cancelled());
/// child.cancel();
/// assert!(child.is_cancelled() && !parent.is_cancelled());
///
/// let sibling = parent.child();
/// parent.cancel();
/// assert!(sibling.is_cancelled(), "parent cancellation reaches children");
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no parent.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A new token that is also cancelled whenever `self` is.
    pub fn child(&self) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Raises the flag on this token (and so on every child derived from
    /// it). Idempotent and safe to call from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether this token or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// Resource limits for one solve call.
///
/// The default budget is unlimited: no deadline, no move caps, no cancel
/// token.
///
/// ```
/// use bsp_schedule::solve::Budget;
/// use std::time::Duration;
///
/// let b = Budget::deadline(Duration::from_millis(250));
/// assert_eq!(b.deadline, Some(Duration::from_millis(250)));
/// assert!(Budget::default().is_unlimited());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock limit for the whole solve, measured from the moment
    /// `solve` is entered. `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Cap on accepted moves per local-search stage (HC, HCcs, escape).
    /// `None` = the scheduler's configured caps.
    pub max_stage_moves: Option<usize>,
    /// Shared cooperative-cancellation token: once cancelled, the budget
    /// counts as expired at every [`SolveCx::check_expired`] site and in
    /// every [`Stop`], so the solve winds down to its best-so-far schedule
    /// exactly as under an expired deadline. `None` = not externally
    /// cancellable.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The unlimited budget (same as `Budget::default()`).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// An otherwise-unlimited budget with a wall-clock deadline.
    pub fn deadline(d: Duration) -> Self {
        Budget {
            deadline: Some(d),
            ..Budget::default()
        }
    }

    /// An already-expired budget: the solve returns its best initialization
    /// (still a valid schedule) as fast as the stages can be skipped.
    pub fn expired() -> Self {
        Budget::deadline(Duration::ZERO)
    }

    /// This budget with a per-stage accepted-move cap.
    pub fn with_max_stage_moves(mut self, moves: usize) -> Self {
        self.max_stage_moves = Some(moves);
        self
    }

    /// This budget with a shared cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Whether this budget constrains nothing (and cannot be cancelled).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_stage_moves.is_none() && self.cancel.is_none()
    }
}

/// A stage or improvement event, as seen by an [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImprovementEvent<'e> {
    /// Stage that produced the improvement.
    pub stage: &'e str,
    /// New incumbent cost.
    pub cost: u64,
    /// Time since the solve started.
    pub elapsed: Duration,
}

/// Receives progress events during a solve. All methods default to no-ops,
/// so implementors override only what they need. Observers must be [`Sync`]:
/// harnesses solve on worker threads.
pub trait Observer: Sync {
    /// A pipeline stage is starting.
    fn on_stage_start(&self, scheduler: &str, stage: &str) {
        let _ = (scheduler, stage);
    }
    /// The incumbent schedule improved.
    fn on_improvement(&self, scheduler: &str, event: &ImprovementEvent<'_>) {
        let _ = (scheduler, event);
    }
    /// A pipeline stage finished (report includes truncation by budget).
    fn on_stage_end(&self, scheduler: &str, report: &StageReport) {
        let _ = (scheduler, report);
    }
}

/// The do-nothing observer every request starts with.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// The shared no-op observer instance.
pub static NOOP_OBSERVER: NoopObserver = NoopObserver;

/// What happened in one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// Stable stage name (`"init"`, `"hc"`, `"ilp"`, `"multilevel"`,
    /// `"polish"`, or `"run"` for single-stage schedulers).
    pub stage: String,
    /// Incumbent cost when the stage ended. Stage reports are monotone
    /// non-increasing in `cost_after`, and the last report equals the
    /// outcome's final cost.
    pub cost_after: u64,
    /// Wall-clock time the stage consumed.
    pub elapsed: Duration,
    /// Whether the budget had run out when the stage ended: whatever the
    /// stage could skip or cut short, it did.
    pub truncated: bool,
}

/// A scheduling problem plus the resources granted to solve it.
pub struct SolveRequest<'a> {
    /// The computational DAG to schedule.
    pub dag: &'a Dag,
    /// The machine description.
    pub machine: &'a BspParams,
    /// Resource limits; default unlimited.
    pub budget: Budget,
    /// RNG seed mixed into every randomized component (Cilk's steal-victim
    /// streams); `0` reproduces the scheduler's configured seeds.
    pub seed: u64,
    /// Progress observer; defaults to [`NOOP_OBSERVER`].
    pub observer: &'a dyn Observer,
}

impl<'a> SolveRequest<'a> {
    /// A request with an unlimited budget, seed 0 and no observer.
    pub fn new(dag: &'a Dag, machine: &'a BspParams) -> Self {
        SolveRequest {
            dag,
            machine,
            budget: Budget::default(),
            seed: 0,
            observer: &NOOP_OBSERVER,
        }
    }

    /// This request with the given budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// This request with the given RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inert: returns `self`. Kept only because the repo benchmark
    /// (`benchmark/`) calls it; goes with ROADMAP item 1(b).
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// This request with the given observer.
    pub fn with_observer(mut self, observer: &'a dyn Observer) -> Self {
        self.observer = observer;
        self
    }
}

/// A completed solve: the final costed schedule plus per-stage reports.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The final schedule, communication schedule and cost breakdown.
    pub result: ScheduleResult,
    /// One report per stage that ran, in execution order. `cost_after` is
    /// monotone non-increasing and the last entry equals `result.total()`.
    pub stages: Vec<StageReport>,
    /// Total wall-clock time of the solve.
    pub elapsed: Duration,
    /// Whether the budget expired before all stages could run to
    /// completion.
    pub budget_exhausted: bool,
}

impl SolveOutcome {
    /// Final total cost (shorthand for `self.result.total()`).
    pub fn total(&self) -> u64 {
        self.result.total()
    }
}

/// [`Stop::poll`] reads the clock and the cancel flag on every
/// `POLL_STRIDE`-th call, the first included (so a spent budget returns
/// before any work). In the hill climb a step is a node visit: between a
/// few dozen nanoseconds (skipped) and `3·P` probes of `O(deg)` each, so a
/// deadline is overshot by at most `64 · 3·P · O(deg)` probe steps plus the
/// moves accepted meanwhile — microseconds on sparse graphs, more around
/// hub nodes or on wide machines — while a converged sweep, nearly all
/// skips, does not spend a quarter of its time in `Instant::now()`.
const POLL_STRIDE: u32 = 64;

/// When a search must stop: the one type that reads a clock or a
/// [`CancelToken`] inside a stage, and the accepted-move allowance next to
/// them. Built per search by [`SolveCx::stop`], or by [`Stop::new`] for a
/// caller without a [`SolveCx`]. Once it has fired it stays fired.
///
/// ```
/// use bsp_schedule::solve::Stop;
/// use std::time::Duration;
///
/// let mut stop = Stop::new(Some(Duration::ZERO), Some(2));
/// assert!(stop.poll(), "the first poll reads the clock");
/// assert_eq!(stop.remaining(), Some(Duration::ZERO));
/// stop.spend_move();
/// assert_eq!(stop.moves_left(), 1);
/// assert!(!Stop::new(None, None).expired());
/// ```
#[derive(Debug, Clone)]
pub struct Stop {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    moves_left: usize,
    until_poll: u32,
    fired: bool,
}

impl Stop {
    /// A stop that fires `time_limit` from now and allows `max_moves`
    /// accepted moves; `None` = unlimited, and a limit too large to be a
    /// representable instant is no limit.
    pub fn new(time_limit: Option<Duration>, max_moves: Option<usize>) -> Self {
        Stop {
            deadline: time_limit.and_then(|t| Instant::now().checked_add(t)),
            cancel: None,
            moves_left: max_moves.unwrap_or(usize::MAX),
            until_poll: 0,
            fired: false,
        }
    }

    /// A stop on the same clock and token with a fresh allowance of
    /// `moves` accepted moves (one refinement climb of many).
    pub fn with_moves(&self, moves: usize) -> Self {
        Stop {
            moves_left: moves,
            until_poll: 0,
            ..self.clone()
        }
    }

    fn spent(&self) -> bool {
        self.fired
            || self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether the deadline has passed or the token has been cancelled,
    /// read now. For loops whose steps are whole-neighbourhood rounds.
    pub fn expired(&mut self) -> bool {
        self.fired = self.spent();
        self.fired
    }

    /// [`expired`](Self::expired) for loops whose steps are cheap: reads
    /// the clock and the token on every 64th call, the first included.
    #[inline]
    pub fn poll(&mut self) -> bool {
        if self.until_poll == 0 {
            self.until_poll = POLL_STRIDE;
            self.expired();
        }
        self.until_poll -= 1;
        self.fired
    }

    /// Accepted moves still allowed (`usize::MAX` = unlimited).
    #[inline]
    pub fn moves_left(&self) -> usize {
        self.moves_left
    }

    /// Counts one accepted move against the allowance.
    #[inline]
    pub fn spend_move(&mut self) {
        self.moves_left = self.moves_left.saturating_sub(1);
    }

    /// Wall-clock time left; `None` = unlimited, zero once fired or
    /// cancelled. What an ILP solve gets in place of the stop itself.
    pub fn remaining(&self) -> Option<Duration> {
        if self.fired || self.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            return Some(Duration::ZERO);
        }
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Bookkeeping a scheduler threads through its stages: the budget clock,
/// the observer, and the stage reports accumulated so far.
///
/// Pipelines run each stage through [`stage`](SolveCx::stage) (or, for a
/// stage with its own truncation rule, [`begin`](SolveCx::begin) /
/// [`end`](SolveCx::end)), call [`improved`](SolveCx::improved) when the
/// incumbent drops and [`check_expired`](SolveCx::check_expired) between
/// stages, and hand every search a [`stop`](SolveCx::stop);
/// [`finish`](SolveCx::finish) seals everything into a [`SolveOutcome`].
pub struct SolveCx<'a> {
    scheduler: String,
    observer: &'a dyn Observer,
    start: Instant,
    /// The whole solve's limits; every search's [`Stop`] narrows this one.
    limits: Stop,
    stages: Vec<StageReport>,
    current: Option<(String, Instant)>,
    exhausted: bool,
}

impl<'a> SolveCx<'a> {
    /// Starts the clock for one solve of `req` by scheduler `scheduler`.
    pub fn new(scheduler: &str, req: &SolveRequest<'a>) -> Self {
        let start = Instant::now();
        SolveCx {
            scheduler: scheduler.to_string(),
            observer: req.observer,
            start,
            limits: Stop {
                cancel: req.budget.cancel.clone(),
                ..Stop::new(req.budget.deadline, req.budget.max_stage_moves)
            },
            stages: Vec::new(),
            current: None,
            exhausted: false,
        }
    }

    /// Time since the solve started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the wall-clock deadline has passed or the budget's
    /// cancellation token has been cancelled.
    pub fn expired(&self) -> bool {
        self.limits.spent()
    }

    /// [`expired`](Self::expired), additionally recording budget
    /// exhaustion in the outcome. Use this for between-stage checks.
    pub fn check_expired(&mut self) -> bool {
        if self.expired() {
            self.exhausted = true;
            true
        } else {
            false
        }
    }

    /// The [`Stop`] for one search of the current stage: it fires at the
    /// tighter of the solve's deadline and `stage_time` from now, or when
    /// the request's token is cancelled, and allows the tighter of
    /// `stage_moves` and the budget's move cap.
    pub fn stop(&self, stage_time: Option<Duration>, stage_moves: Option<usize>) -> Stop {
        let stage = Stop::new(stage_time, stage_moves);
        Stop {
            deadline: match (self.limits.deadline, stage.deadline) {
                (Some(solve), Some(stage)) => Some(solve.min(stage)),
                (solve, stage) => solve.or(stage),
            },
            moves_left: self.limits.moves_left.min(stage.moves_left),
            ..self.limits.clone()
        }
    }

    /// The context of a solve nested inside this one (multilevel's coarse
    /// runs): its own request — silent observer, its own stage reports —
    /// on the outer solve's clock: the
    /// same deadline, token and move cap.
    pub fn nested(&self, scheduler: &str) -> SolveCx<'static> {
        SolveCx {
            scheduler: scheduler.to_string(),
            observer: &NOOP_OBSERVER,
            start: Instant::now(),
            limits: self.limits.clone(),
            stages: Vec::new(),
            current: None,
            exhausted: false,
        }
    }

    /// Begins a named stage (notifies the observer, starts its clock).
    pub fn begin(&mut self, stage: &str) {
        self.observer.on_stage_start(&self.scheduler, stage);
        self.current = Some((stage.to_string(), Instant::now()));
    }

    /// Reports an incumbent improvement within the current stage.
    pub fn improved(&self, cost: u64) {
        let stage = self.current.as_ref().map_or("", |(s, _)| s.as_str());
        self.observer.on_improvement(
            &self.scheduler,
            &ImprovementEvent {
                stage,
                cost,
                elapsed: self.elapsed(),
            },
        );
    }

    /// Ends the current stage with its final cost and truncation flag.
    pub fn end(&mut self, cost_after: u64, truncated: bool) {
        let (stage, began) = self
            .current
            .take()
            .expect("SolveCx::end without a matching begin");
        if truncated {
            self.exhausted = true;
        }
        let report = StageReport {
            stage,
            cost_after,
            elapsed: began.elapsed(),
            truncated,
        };
        self.observer.on_stage_end(&self.scheduler, &report);
        self.stages.push(report);
    }

    /// Runs `run` as the stage `name`: [`begin`](Self::begin), a trace
    /// span (category `"pipeline"`), and [`end`](Self::end) with the cost
    /// `run` returns first, truncated if the budget has
    /// [`expired`](Self::expired) by then. Hands back what `run` returns
    /// second.
    pub fn stage<R>(&mut self, name: &str, run: impl FnOnce(&mut Self) -> (u64, R)) -> R {
        self.begin(name);
        let span = bsp_obs::trace::global().span(name, "pipeline");
        let (cost, found) = run(self);
        span.finish();
        let truncated = self.expired();
        self.end(cost, truncated);
        found
    }

    /// Number of stage reports recorded so far (a checkpoint for
    /// [`discard_stages`](Self::discard_stages)).
    pub fn mark(&self) -> usize {
        self.stages.len()
    }

    /// Drops the reports in `[from, to)` — used by selectors that run
    /// several pipelines and keep only the winner's trajectory.
    pub fn discard_stages(&mut self, from: usize, to: usize) {
        self.stages.drain(from..to.min(self.stages.len()));
    }

    /// Seals the context into an outcome around the final result.
    pub fn finish(self, result: ScheduleResult) -> SolveOutcome {
        debug_assert!(self.current.is_none(), "unfinished stage at finish");
        SolveOutcome {
            result,
            stages: self.stages,
            elapsed: self.start.elapsed(),
            budget_exhausted: self.exhausted,
        }
    }
}

/// Runs a single-stage (non-anytime) scheduler under the request's clock:
/// one `"run"` stage, one improvement event, never truncated. Baselines and
/// stand-alone initializers are not anytime algorithms — they run to
/// completion regardless of the budget, which keeps the "any budget yields
/// a valid schedule" contract trivially.
pub fn solve_single_stage(
    scheduler: &str,
    req: &SolveRequest<'_>,
    run: impl FnOnce() -> ScheduleResult,
) -> SolveOutcome {
    let mut cx = SolveCx::new(scheduler, req);
    cx.begin("run");
    let result = run();
    cx.improved(result.total());
    cx.end(result.total(), false);
    // A budget can be exhausted even though nothing was truncated (the
    // stage is atomic); record it so callers can tell.
    cx.check_expired();
    cx.finish(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use std::sync::Mutex;

    fn tiny() -> (Dag, BspParams) {
        let mut b = DagBuilder::new();
        let u = b.add_node(2, 1);
        let v = b.add_node(3, 1);
        b.add_edge(u, v).unwrap();
        (b.build().unwrap(), BspParams::new(2, 1, 1))
    }

    #[test]
    fn cancel_token_chain() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        let shared = a.clone();
        a.cancel();
        assert!(shared.is_cancelled(), "clones share the flag");
        assert!(!b.is_cancelled() && !root.is_cancelled());
        root.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn budget_builders() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::deadline(Duration::from_millis(5)).with_max_stage_moves(10);
        assert_eq!(b.deadline, Some(Duration::from_millis(5)));
        assert_eq!(b.max_stage_moves, Some(10));
        assert_eq!(Budget::expired().deadline, Some(Duration::ZERO));
    }

    #[test]
    fn clamps_fold_budget_into_stage_configs() {
        let (dag, machine) = tiny();
        let req = SolveRequest::new(&dag, &machine)
            .with_budget(Budget::deadline(Duration::from_secs(3600)).with_max_stage_moves(5));
        let cx = SolveCx::new("t", &req);
        // Remaining ≈ 1h, stage limit 1ms: stage limit wins.
        let left = cx.stop(Some(Duration::from_millis(1)), None).remaining();
        assert!(left.unwrap() <= Duration::from_millis(1));
        // No stage limit, or a longer one: the budget's remaining time applies.
        for stage_time in [None, Some(Duration::from_secs(7200))] {
            let left = cx.stop(stage_time, None).remaining().unwrap();
            assert!(left <= Duration::from_secs(3600) && left > Duration::from_secs(3000));
        }
        // The tighter of the two move caps.
        assert_eq!(cx.stop(None, None).moves_left(), 5);
        assert_eq!(cx.stop(None, Some(3)).moves_left(), 3);
        assert_eq!(cx.stop(None, Some(9)).moves_left(), 5);
        assert_eq!(Stop::new(None, None).moves_left(), usize::MAX);
    }

    #[test]
    fn stop_polls_on_a_stride_and_stays_fired() {
        let token = CancelToken::new();
        let (dag, machine) = tiny();
        let req = SolveRequest::new(&dag, &machine)
            .with_budget(Budget::unlimited().with_cancel(token.clone()));
        let mut stop = SolveCx::new("t", &req).stop(None, Some(1));
        assert!(!stop.poll(), "the first poll reads the token");
        token.cancel();
        // The next 63 polls do not look; the 65th call does.
        assert!((0..63).all(|_| !stop.poll()));
        assert!(stop.poll());
        assert!(stop.poll() && stop.expired(), "fired stays fired");
        // A refinement climb's stop shares the token, not the allowance.
        stop.spend_move();
        stop.spend_move();
        assert_eq!(stop.moves_left(), 0);
        let mut climb = stop.with_moves(7);
        assert_eq!(climb.moves_left(), 7);
        assert!(climb.poll());
    }

    #[test]
    fn expired_budget_is_expired_immediately() {
        let (dag, machine) = tiny();
        let req = SolveRequest::new(&dag, &machine).with_budget(Budget::expired());
        let mut cx = SolveCx::new("t", &req);
        assert!(cx.check_expired());
        assert_eq!(cx.stop(None, None).remaining(), Some(Duration::ZERO));
        assert!(cx.stop(Some(Duration::from_secs(1)), None).poll());
    }

    #[test]
    fn unrepresentable_deadline_is_no_deadline() {
        // `start + Duration::MAX` used to panic ("overflow when adding
        // duration to instant").
        let (dag, machine) = tiny();
        let req = SolveRequest::new(&dag, &machine).with_budget(Budget::deadline(Duration::MAX));
        let mut cx = SolveCx::new("t", &req);
        assert!(!cx.check_expired());
        assert_eq!(cx.stop(None, None).remaining(), None);
        assert_eq!(cx.stop(Some(Duration::MAX), None).remaining(), None);
        let left = cx.stop(Some(Duration::from_secs(2)), None).remaining();
        assert!(left.unwrap() <= Duration::from_secs(2));
    }

    #[test]
    fn cancellation_counts_as_expired() {
        let (dag, machine) = tiny();
        let token = CancelToken::new();
        let req = SolveRequest::new(&dag, &machine)
            .with_budget(Budget::unlimited().with_cancel(token.clone()));
        assert!(
            !req.budget.is_unlimited(),
            "a cancellable budget is a constraint"
        );
        let mut cx = SolveCx::new("t", &req);
        assert!(!cx.check_expired());
        let stop = cx.stop(None, None);
        assert_eq!(stop.remaining(), None);
        token.cancel();
        assert!(cx.expired());
        assert!(cx.check_expired());
        // Cancelled ⇒ zero remaining, also for a stop handed out before,
        // and for a nested solve's.
        assert_eq!(stop.remaining(), Some(Duration::ZERO));
        assert_eq!(cx.stop(None, None).remaining(), Some(Duration::ZERO));
        assert!(cx.nested("inner").expired());
    }

    #[test]
    fn stage_reports_cost_and_truncation() {
        let (dag, machine) = tiny();
        let token = CancelToken::new();
        let req = SolveRequest::new(&dag, &machine)
            .with_budget(Budget::unlimited().with_cancel(token.clone()));
        let mut cx = SolveCx::new("t", &req);
        assert_eq!(cx.stage("init", |_| (9, "found")), "found");
        cx.stage("hc", |_| {
            token.cancel();
            (7, ())
        });
        let out = cx.finish(ScheduleResult::from_lazy(
            &dag,
            &machine,
            crate::BspSchedule::from_parts(vec![0, 0], vec![0, 0]),
        ));
        let seen: Vec<_> = out
            .stages
            .iter()
            .map(|r| (r.stage.as_str(), r.cost_after, r.truncated))
            .collect();
        assert_eq!(seen, vec![("init", 9, false), ("hc", 7, true)]);
        assert!(out.budget_exhausted);
    }

    #[test]
    fn with_threads_is_inert() {
        let (dag, machine) = tiny();
        let solve = |req: SolveRequest<'_>| {
            let sched = crate::BspSchedule::from_parts(vec![0, 1], vec![0, 1]);
            let out = solve_single_stage("t", &req, || {
                ScheduleResult::from_lazy(&dag, &machine, sched)
            });
            (out.total(), out.result.sched)
        };
        let plain = solve(SolveRequest::new(&dag, &machine));
        let threaded = solve(SolveRequest::new(&dag, &machine).with_threads(8));
        assert_eq!(plain, threaded, "cost and (π, τ)");
    }

    #[test]
    fn single_stage_outcome_has_one_report() {
        let (dag, machine) = tiny();
        let req = SolveRequest::new(&dag, &machine);
        let sched = crate::BspSchedule::from_parts(vec![0, 0], vec![0, 0]);
        let out = solve_single_stage("t", &req, || {
            ScheduleResult::from_lazy(&dag, &machine, sched)
        });
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.stages[0].stage, "run");
        assert_eq!(out.stages[0].cost_after, out.total());
        assert!(!out.stages[0].truncated);
        assert!(!out.budget_exhausted);
    }

    #[test]
    fn observer_sees_stage_and_improvement_events() {
        struct Recorder(Mutex<Vec<String>>);
        impl Observer for Recorder {
            fn on_stage_start(&self, s: &str, stage: &str) {
                self.0.lock().unwrap().push(format!("start {s}/{stage}"));
            }
            fn on_improvement(&self, s: &str, ev: &ImprovementEvent<'_>) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("improve {s}/{} -> {}", ev.stage, ev.cost));
            }
            fn on_stage_end(&self, s: &str, r: &StageReport) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("end {s}/{} @ {}", r.stage, r.cost_after));
            }
        }
        let (dag, machine) = tiny();
        let rec = Recorder(Mutex::new(Vec::new()));
        let req = SolveRequest::new(&dag, &machine).with_observer(&rec);
        let mut cx = SolveCx::new("s", &req);
        cx.begin("init");
        cx.improved(10);
        cx.end(10, false);
        let out = cx.finish(ScheduleResult::from_lazy(
            &dag,
            &machine,
            crate::BspSchedule::from_parts(vec![0, 0], vec![0, 0]),
        ));
        assert_eq!(out.stages.len(), 1);
        let log = rec.0.lock().unwrap();
        assert_eq!(
            *log,
            vec![
                "start s/init".to_string(),
                "improve s/init -> 10".to_string(),
                "end s/init @ 10".to_string(),
            ]
        );
    }

    #[test]
    fn auto_style_discard_keeps_the_winner_trajectory() {
        let (dag, machine) = tiny();
        let req = SolveRequest::new(&dag, &machine);
        let mut cx = SolveCx::new("auto", &req);
        let m0 = cx.mark();
        cx.begin("init");
        cx.end(20, false);
        let m1 = cx.mark();
        cx.begin("multilevel");
        cx.end(15, false);
        // Multilevel won: drop the base trajectory.
        cx.discard_stages(m0, m1);
        let out = cx.finish(ScheduleResult::from_lazy(
            &dag,
            &machine,
            crate::BspSchedule::from_parts(vec![0, 0], vec![0, 0]),
        ));
        assert_eq!(out.stages.len(), 1);
        assert_eq!(out.stages[0].stage, "multilevel");
    }
}
