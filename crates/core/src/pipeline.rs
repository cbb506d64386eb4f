//! The combined scheduling framework (paper §6, Figures 3 and 4).
//!
//! Figure 3 pipeline: run the initialization heuristics (`BSPg`, `Source`,
//! optionally `ILPinit`), improve each with `HC` + `HCcs`, select the best,
//! then apply the ILP stages (`ILPfull` when small enough, otherwise
//! `ILPpart`, then `ILPcs`). Every stage is monotone: the reported cost
//! never increases along the pipeline.
//!
//! Figure 4 pipeline: coarsen, run the Figure-3 pipeline (without `ILPcs`)
//! on the coarse DAG, uncoarsen with refinement, then run `HCcs` + `ILPcs`
//! on the original DAG.
//!
//! Both pipelines are *anytime*: [`solve_base_pipeline`] and
//! [`solve_multilevel_pipeline`] thread a [`SolveCx`] through the stages.
//! Each stage runs under [`SolveCx::stage`] (observer events, trace span,
//! stage report), the request's deadline is checked at every stage
//! boundary, and every search inside a stage gets its own
//! [`Stop`](bsp_schedule::solve::Stop) from [`SolveCx::stop`] — the tighter
//! of the solve's deadline and the stage's own limits, plus the request's
//! cancel token — which it polls inside its loop. The ILP solves get what
//! is left of the deadline as their time limit (not the token: `bsp-ilp`
//! has no dependencies). Because every stage holds the monotone contract —
//! the one `Incumbent` is only ever replaced by something strictly
//! cheaper — early exit always returns the valid best-so-far schedule.

use crate::hc::{hill_climb, HillClimbConfig};
use crate::hccs::{optimize_comm_schedule, CommHillClimbConfig};
use crate::ilp::comm::ilp_comm;
use crate::ilp::init::ilp_init;
use crate::ilp::{ilp_full, ilp_part, IlpConfig};
use crate::init::bspg::bspg_schedule;
use crate::init::source::source_schedule;
use crate::multilevel::{multilevel_schedule, MultilevelConfig};
use crate::state::ScheduleState;
use crate::tabu::{tabu_search, TabuConfig};
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::solve::SolveCx;
use bsp_schedule::{BspSchedule, CommSchedule};
use std::time::Duration;

/// Wall-clock limit of the escape stage, folded into the
/// [`Stop`](bsp_schedule::solve::Stop) it hands its search.
const ESCAPE_TIME_LIMIT: Duration = Duration::from_secs(5);

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Budgets for the schedule hill climbing.
    pub hc: HillClimbConfig,
    /// Budgets for the communication-schedule hill climbing.
    pub hccs: CommHillClimbConfig,
    /// ILP stage configuration.
    pub ilp: IlpConfig,
    /// Master switch for all ILP stages (`false` for the huge dataset runs).
    pub enable_ilp: bool,
    /// Run `ILPinit` as a third initializer; `None` = auto (only for P ≤ 4,
    /// following the paper's tuning experiments in Appendix C.1).
    pub use_ilp_init: Option<bool>,
    /// Optional escape-local-minima stage (the paper's §8 future-work
    /// replacement for plain HC): tabu search on the winning candidate
    /// after HC, folded into the reported `hc_cost` stage and never worse
    /// than its input. `None` reproduces the paper's evaluated
    /// configuration.
    pub escape: Option<TabuConfig>,
    /// Inert: read by nothing. Kept only because the repo benchmark
    /// (`benchmark/`) sets it; goes with ROADMAP item 1(b).
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            hc: HillClimbConfig::default(),
            hccs: CommHillClimbConfig::default(),
            ilp: IlpConfig::default(),
            enable_ilp: true,
            use_ilp_init: None,
            escape: None,
            threads: 1,
        }
    }
}

/// Full pipeline result with per-stage costs (the `Init` / `HCcs` / `ILP`
/// columns of the paper's figures).
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Final assignment.
    pub sched: BspSchedule,
    /// Final (optimized) communication schedule.
    pub comm: CommSchedule,
    /// Final total cost.
    pub cost: u64,
    /// Cost of the starting point (lazy Γ) before local search: the best
    /// initialization, the uncoarsened schedule, or the repaired warm start.
    pub init_cost: u64,
    /// Cost after HC + HCcs on the best candidate.
    pub hc_cost: u64,
    /// Cost after the assignment ILP stages (`ILPfull`/`ILPpart`, with Γ
    /// re-optimized by HCcs) but before `ILPcs`.
    pub part_cost: u64,
}

/// The best schedule a pipeline has found so far. Stages never assign to
/// it: they [`offer`](Incumbent::offer), and only something strictly
/// cheaper gets in.
pub(crate) struct Incumbent {
    pub sched: BspSchedule,
    pub comm: CommSchedule,
    pub cost: u64,
}

impl Incumbent {
    /// The first one: `sched` under its lazy `Γ`, whose cost the caller
    /// has computed. Tells the observer.
    pub fn lazy(cx: &SolveCx<'_>, dag: &Dag, sched: BspSchedule, cost: u64) -> Self {
        cx.improved(cost);
        Incumbent {
            comm: CommSchedule::lazy(dag, &sched),
            sched,
            cost,
        }
    }

    /// Seals it into a pipeline's result, beside the costs the pipeline's
    /// earlier stages had reached.
    pub fn into_result(self, init_cost: u64, hc_cost: u64, part_cost: u64) -> PipelineResult {
        PipelineResult {
            sched: self.sched,
            comm: self.comm,
            cost: self.cost,
            init_cost,
            hc_cost,
            part_cost,
        }
    }

    /// Keeps `comm` for the assignment it holds if that is strictly
    /// cheaper, and tells the observer. Returns whether it did.
    pub fn offer_comm(&mut self, cx: &SolveCx<'_>, comm: CommSchedule, cost: u64) -> bool {
        let cheaper = cost < self.cost;
        if cheaper {
            self.comm = comm;
            self.cost = cost;
            cx.improved(cost);
        }
        cheaper
    }

    /// Keeps `(sched, comm)` if it is strictly cheaper.
    pub fn offer(&mut self, cx: &SolveCx<'_>, sched: BspSchedule, comm: CommSchedule, cost: u64) {
        if self.offer_comm(cx, comm, cost) {
            self.sched = sched;
        }
    }

    /// Compacts `assignment`, optimizes its `Γ` with HCcs, and offers the
    /// pair.
    pub fn offer_assignment(
        &mut self,
        dag: &Dag,
        machine: &BspParams,
        assignment: &BspSchedule,
        cfg: &PipelineConfig,
        cx: &SolveCx<'_>,
    ) {
        let cand = compact_lazy(dag, assignment);
        let mut stop = cx.stop(cfg.hccs.time_limit, cfg.hccs.max_moves);
        let (comm, cost) = optimize_comm_schedule(dag, machine, &cand, &mut stop);
        self.offer(cx, cand, comm, cost);
    }

    /// One local-search candidate: hill-climbs `start` and offers where it
    /// ends ([`offer_assignment`](Self::offer_assignment)).
    pub fn climb_from(
        &mut self,
        mut start: ScheduleState<'_>,
        cfg: &PipelineConfig,
        cx: &SolveCx<'_>,
    ) {
        hill_climb(
            &mut start,
            &mut cx.stop(cfg.hc.time_limit, cfg.hc.max_moves),
        );
        let (dag, machine) = (start.dag(), start.machine());
        self.offer_assignment(dag, machine, &start.snapshot(), cfg, cx);
    }
}

/// `Γ` for a fixed assignment: HCcs, then — with the ILP on and budget left —
/// `ILPcs` warm-started from it, which hands its start back unless it
/// found something strictly cheaper. Returns `Γ`, its cost, and the cost
/// HCcs alone had reached.
fn optimized_comm(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    cfg: &PipelineConfig,
    cx: &SolveCx<'_>,
) -> (CommSchedule, u64, u64) {
    let mut stop = cx.stop(cfg.hccs.time_limit, cfg.hccs.max_moves);
    let (comm, hccs_cost) = optimize_comm_schedule(dag, machine, sched, &mut stop);
    if cfg.enable_ilp && !cx.expired() {
        let limits = &cfg.ilp.limits;
        let (comm, cost) = ilp_comm(dag, machine, sched, &comm, limits, &cx.stop(None, None));
        (comm, cost, hccs_cost)
    } else {
        (comm, hccs_cost, hccs_cost)
    }
}

/// Runs the Figure-3 pipeline under `cx`'s budget clock: stages `init`,
/// `hc` (HC + HCcs + optional tabu escape) and `ilp`, with the deadline
/// checked at every stage boundary and inside every search. Always returns
/// a valid schedule — under an already-expired deadline, the best
/// initialization with its lazy `Γ`.
pub fn solve_base_pipeline(
    dag: &Dag,
    machine: &BspParams,
    cfg: &PipelineConfig,
    cx: &mut SolveCx<'_>,
) -> PipelineResult {
    let _pipeline_span = bsp_obs::trace::global().span("pipeline/base", "pipeline");
    let enable_ilp = cfg.enable_ilp;
    let use_ilp_init = cfg.use_ilp_init.unwrap_or(machine.p() <= 4 && enable_ilp) && enable_ilp;

    // Stage 1 — initialization. Runs even under an expired deadline: some
    // valid schedule must exist before anything can be truncated. The
    // best-so-far is the cheapest initialization under its lazy Γ.
    let (inits, mut best) = cx.stage("init", |cx| {
        let mut inits = vec![bspg_schedule(dag, machine), source_schedule(dag, machine)];
        if use_ilp_init && !cx.expired() {
            inits.push(ilp_init(dag, machine, &cfg.ilp, &cx.stop(None, None)));
        }
        let (cost, init) = (inits.iter())
            .map(|init| (lazy_cost(dag, machine, init), init))
            .min_by_key(|&(cost, _)| cost)
            .expect("at least two initializers ran");
        let best = Incumbent::lazy(cx, dag, init.clone(), cost);
        (cost, (inits, best))
    });
    let init_cost = best.cost;

    // Stage 2 — HC, then HCcs, per candidate; keep the cheapest.
    let hc_cost = cx.stage("hc", |cx| {
        for init in &inits {
            if cx.check_expired() {
                break;
            }
            best.climb_from(ScheduleState::new(dag, machine, init), cfg, cx);
        }
        // Optional escape-local-minima stage on the winning candidate;
        // folded into the local-search stage cost because it refines the
        // same move space (never worse than its input by construction).
        if let Some(tabu) = &cfg.escape {
            if !cx.check_expired() {
                let _escape_span = bsp_obs::trace::global().span("escape/tabu", "pipeline");
                let mut stop = cx.stop(Some(ESCAPE_TIME_LIMIT), None);
                let refined = tabu_search(dag, machine, &best.sched, tabu, &mut stop).0;
                best.offer_assignment(dag, machine, &refined, cfg, cx);
            }
        }
        (best.cost, best.cost)
    });

    let mut part_cost = hc_cost;
    if enable_ilp && dag.n() > 0 && !cx.check_expired() {
        cx.stage("ilp", |cx| {
            // ILPfull when small; always followed by ILPpart unless
            // optimality was proven (paper §6). Each solve gets what is
            // left of the deadline when it starts.
            let stop = cx.stop(None, None);
            let (mut assignment, proven) = ilp_full(dag, machine, &best.sched, &cfg.ilp, &stop);
            if !proven && !cx.expired() {
                assignment = ilp_part(dag, machine, &assignment, &cfg.ilp, &stop);
            }
            // Re-optimize Γ on the (possibly) new assignment: HCcs then ILPcs.
            let (comm, cost, hccs_cost) = optimized_comm(dag, machine, &assignment, cfg, cx);
            part_cost = part_cost.min(hccs_cost);
            best.offer(cx, assignment, comm, cost);
            (best.cost, ())
        });
    }

    best.into_result(init_cost, hc_cost, part_cost)
}

/// Runs the Figure-4 multilevel pipeline under `cx`'s budget clock: coarsen,
/// schedule the coarse DAG with the Figure-3 pipeline (without `ILPcs`),
/// uncoarsen and refine (stage `multilevel`), then optimize the
/// communication schedule on the original DAG (stage `polish`).
pub fn solve_multilevel_pipeline(
    dag: &Dag,
    machine: &BspParams,
    cfg: &PipelineConfig,
    ml: &MultilevelConfig,
    cx: &mut SolveCx<'_>,
) -> PipelineResult {
    let _pipeline_span = bsp_obs::trace::global().span("pipeline/multilevel", "pipeline");
    let mut best = cx.stage("multilevel", |cx| {
        // Each inner base run is a nested solve on the outer clock, so its
        // own stages and searches see the same deadline and token. The
        // inner runs skip ILPcs (Γ is re-optimized after uncoarsening);
        // solve_base_pipeline applies ILPcs internally but its result is
        // only used through the assignment, so this is naturally satisfied.
        let mut base = |d: &Dag, m: &BspParams| -> BspSchedule {
            let mut inner = cx.nested("pipeline/multilevel/base");
            solve_base_pipeline(d, m, cfg, &mut inner).sched
        };
        // The walk asks the same clock between chunks and inside every
        // refinement climb: past the deadline (or a cancelled token) it
        // only projects the rest of the way down.
        let sched = multilevel_schedule(dag, machine, ml, &mut base, &mut cx.stop(None, None));
        let cost = lazy_cost(dag, machine, &sched);
        (cost, Incumbent::lazy(cx, dag, sched, cost))
    });
    let init_cost = best.cost;

    // Final polish on the original DAG: HCcs, then ILPcs. Skipped past
    // the deadline: the uncoarsened schedule under its lazy Γ is then the
    // valid best-so-far.
    let mut hc_cost = init_cost;
    if !cx.check_expired() {
        hc_cost = cx.stage("polish", |cx| {
            let (comm, cost, hccs_cost) = optimized_comm(dag, machine, &best.sched, cfg, cx);
            best.offer_comm(cx, comm, cost);
            (best.cost, hccs_cost)
        });
    }
    best.into_result(init_cost, hc_cost, hc_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_model::NumaTopology;
    use bsp_schedule::cost::total_cost;
    use bsp_schedule::solve::SolveRequest;
    use bsp_schedule::validity::validate;

    /// The Figure-3 pipeline with an unlimited budget and no observer.
    fn schedule_dag(dag: &Dag, machine: &BspParams, cfg: &PipelineConfig) -> PipelineResult {
        let req = SolveRequest::new(dag, machine);
        solve_base_pipeline(dag, machine, cfg, &mut SolveCx::new("pipeline/base", &req))
    }

    fn check_result(dag: &Dag, machine: &BspParams, r: &PipelineResult) {
        assert!(validate(dag, machine.p(), &r.sched, &r.comm).is_ok());
        assert_eq!(r.cost, total_cost(dag, machine, &r.sched, &r.comm));
        assert!(r.hc_cost <= r.init_cost, "HC must not worsen the best init");
        assert!(r.cost <= r.hc_cost, "ILP stages must not worsen");
    }

    /// Debug-build-friendly budgets: the defaults allow seconds per ILP.
    fn fast_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        cfg.ilp.limits.max_nodes = 30;
        cfg.ilp.limits.time_limit = std::time::Duration::from_millis(250);
        cfg.ilp.full_max_vars = 400;
        cfg.ilp.part_target_vars = 200;
        cfg
    }

    #[test]
    fn pipeline_monotone_and_valid() {
        for seed in 0..3 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 4,
                    width: 5,
                    edge_prob: 0.35,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 3, 5);
            let r = schedule_dag(&dag, &machine, &fast_cfg());
            check_result(&dag, &machine, &r);
        }
    }

    #[test]
    fn cancelled_pipeline_returns_its_best_initialization() {
        let dag = random_layered_dag(7, LayeredConfig::default());
        let machine = BspParams::new(4, 3, 5);
        let token = bsp_schedule::solve::CancelToken::new();
        token.cancel();
        let budget = bsp_schedule::solve::Budget::unlimited().with_cancel(token);
        let req = SolveRequest::new(&dag, &machine).with_budget(budget);
        let out = crate::schedulers::solve_pipeline("pipeline/base", &req, |cx| {
            let r = solve_base_pipeline(&dag, &machine, &fast_cfg(), cx);
            check_result(&dag, &machine, &r);
            let inits = [
                bspg_schedule(&dag, &machine),
                source_schedule(&dag, &machine),
            ];
            let best = inits.iter().min_by_key(|s| lazy_cost(&dag, &machine, s));
            assert_eq!(Some(&r.sched), best);
            assert_eq!((r.cost, r.hc_cost), (r.init_cost, r.init_cost));
            r
        });
        let stages: Vec<_> = out.stages.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, ["init", "hc"], "no ILP stage past the budget");
        assert!(out.stages[1].truncated && out.budget_exhausted);
    }

    #[test]
    fn pipeline_without_ilp() {
        let dag = random_layered_dag(7, LayeredConfig::default());
        let machine = BspParams::new(8, 1, 5);
        let cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let r = schedule_dag(&dag, &machine, &cfg);
        check_result(&dag, &machine, &r);
    }

    #[test]
    fn pipeline_with_numa() {
        let dag = random_layered_dag(
            11,
            LayeredConfig {
                layers: 5,
                width: 4,
                ..Default::default()
            },
        );
        let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 3));
        let cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let r = schedule_dag(&dag, &machine, &cfg);
        check_result(&dag, &machine, &r);
    }

    #[test]
    fn ilp_pipeline_repeats_on_a_numa_instance() {
        // Node caps, not clocks, bound the ILP, so repeated calls in one
        // process must hand back one schedule.
        let dag = random_layered_dag(
            5,
            LayeredConfig {
                layers: 4,
                width: 4,
                edge_prob: 0.4,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 2, 5).with_numa(NumaTopology::binary_tree(4, 3));
        let mut cfg = fast_cfg();
        cfg.ilp.limits.max_nodes = 2;
        cfg.ilp.limits.time_limit = std::time::Duration::from_secs(60);
        let solve = || {
            let r = schedule_dag(&dag, &machine, &cfg);
            (r.cost, r.sched.procs().to_vec(), r.sched.steps().to_vec())
        };
        let first = solve();
        for _ in 0..2 {
            assert_eq!(solve(), first);
        }
    }

    #[test]
    fn pipeline_with_escape_stages_monotone() {
        let dag = random_layered_dag(
            21,
            LayeredConfig {
                layers: 5,
                width: 5,
                edge_prob: 0.35,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 3, 5);
        let mut cfg = fast_cfg();
        cfg.escape = Some(TabuConfig {
            max_iters: 120,
            ..TabuConfig::default()
        });
        let r = schedule_dag(&dag, &machine, &cfg);
        check_result(&dag, &machine, &r);
    }

    #[test]
    fn escape_stage_beats_plain_hc_on_plateau() {
        // Independent heavy nodes: greedy HC is plateau-stuck (see the tabu
        // module tests); the escape stage must get the pipeline through.
        let mut b = bsp_dag::DagBuilder::new();
        for _ in 0..4 {
            b.add_node(10, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 1, 2);
        let mut cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let plain = schedule_dag(&dag, &machine, &cfg);
        cfg.escape = Some(TabuConfig {
            max_iters: 300,
            ..TabuConfig::default()
        });
        let escaped = schedule_dag(&dag, &machine, &cfg);
        assert!(escaped.cost <= plain.cost);
        assert_eq!(escaped.cost, 12, "tabu escape should reach the optimum");
    }

    #[test]
    fn multilevel_pipeline_valid() {
        let dag = random_layered_dag(
            13,
            LayeredConfig {
                layers: 6,
                width: 5,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 10, 5).with_numa(NumaTopology::binary_tree(4, 4));
        let cfg = PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        };
        let req = SolveRequest::new(&dag, &machine);
        let mut cx = SolveCx::new("pipeline/multilevel", &req);
        let r =
            solve_multilevel_pipeline(&dag, &machine, &cfg, &MultilevelConfig::default(), &mut cx);
        assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok());
        assert_eq!(r.cost, total_cost(&dag, &machine, &r.sched, &r.comm));
    }
}
