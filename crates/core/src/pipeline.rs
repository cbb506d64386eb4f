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
//! [`solve_multilevel_pipeline`] thread a
//! [`SolveCx`] through the stages, checking
//! the request's deadline at every stage boundary, clamping each stage's
//! internal wall-clock/move budgets to what remains, and emitting stage and
//! improvement events to the request's observer. Because every stage holds
//! the monotone contract, early exit always returns the valid best-so-far
//! schedule. [`schedule_dag`] / [`schedule_dag_multilevel`] are the
//! unbudgeted wrappers.

use crate::anneal::{simulated_annealing, AnnealConfig};
use crate::hc::{hill_climb, HillClimbConfig};
use crate::hccs::{optimize_comm_schedule_threaded, CommHillClimbConfig};
use crate::ilp::comm::ilp_comm;
use crate::ilp::init::ilp_init;
use crate::ilp::{ilp_full, ilp_part, IlpConfig};
use crate::init::bspg::bspg_schedule;
use crate::init::source::source_schedule;
use crate::multilevel::{multilevel_schedule, MultilevelConfig};
use crate::state::ScheduleState;
use crate::tabu::{tabu_search_threaded, TabuConfig};
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::solve::{Budget, SolveCx, SolveRequest};
use bsp_schedule::{BspSchedule, CommSchedule};
use std::time::{Duration, Instant};

/// Which initializer produced a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initializer {
    /// The BSP-tailored greedy of Algorithm 1.
    BspG,
    /// The wavefront heuristic of Algorithm 2.
    Source,
    /// The ILP-based initializer.
    IlpInit,
}

/// An optional escape-local-minima stage run on the best candidate after
/// hill climbing (the paper's §8 future-work replacement for plain HC).
/// Both methods hold the monotone contract: they never return a schedule
/// worse than their input.
#[derive(Debug, Clone)]
pub enum EscapeSearch {
    /// Simulated annealing over the HC move space.
    Anneal(AnnealConfig),
    /// Tabu search over the HC move space.
    Tabu(TabuConfig),
}

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
    /// Optional escape-local-minima search applied to the winning candidate
    /// after HC (folded into the reported `hc_cost` stage). `None`
    /// reproduces the paper's evaluated configuration.
    pub escape: Option<EscapeSearch>,
    /// Worker threads for the parallel neighbourhood scans (HCcs and the
    /// tabu escape stage): `0` = auto-detect, `1` = sequential. A
    /// [`SolveRequest::with_threads`] override wins over this default.
    /// Never changes the schedule — parallel scans are bit-identical to
    /// sequential ones — only wall-clock time.
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
            threads: bsp_par::default_threads(),
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
    /// Cost of the best initialization (lazy Γ), before local search.
    pub init_cost: u64,
    /// Initializer that won the selection.
    pub best_init: Initializer,
    /// Cost after HC + HCcs on the best candidate.
    pub hc_cost: u64,
    /// Cost after the assignment ILP stages (`ILPfull`/`ILPpart`, with Γ
    /// re-optimized by HCcs) but before `ILPcs`.
    pub part_cost: u64,
    /// Cost after the ILP stages (equals `cost`).
    pub ilp_cost: u64,
    /// Wall-clock time the pipeline spent end to end.
    pub elapsed: Duration,
}

/// Runs the Figure-3 pipeline with an unlimited budget and no observer.
pub fn schedule_dag(dag: &Dag, machine: &BspParams, cfg: &PipelineConfig) -> PipelineResult {
    let req = SolveRequest::new(dag, machine);
    let mut cx = SolveCx::new("pipeline/base", &req);
    solve_base_pipeline(dag, machine, cfg, &mut cx)
}

/// `cfg` with the remaining solve budget folded into every stage's own
/// wall-clock/move limits and the ILP master switch. Re-evaluated before
/// each stage, so earlier stages shrink the budgets of later ones.
pub(crate) fn clamped(cfg: &PipelineConfig, cx: &SolveCx<'_>) -> PipelineConfig {
    let mut c = cfg.clone();
    c.hc.max_moves = cx.clamp_moves(cfg.hc.max_moves);
    c.hc.time_limit = cx.clamp_time(cfg.hc.time_limit);
    c.hccs.max_moves = cx.clamp_moves(cfg.hccs.max_moves);
    c.hccs.time_limit = cx.clamp_time(cfg.hccs.time_limit);
    if let Some(t) = cx.clamp_time(Some(cfg.ilp.limits.time_limit)) {
        c.ilp.limits.time_limit = t;
    }
    c.enable_ilp = cx.ilp_enabled(cfg.enable_ilp);
    c
}

/// Runs the Figure-3 pipeline under `cx`'s budget clock: stages `init`,
/// `hc` (HC + HCcs + optional escape search) and `ilp`, with the deadline
/// checked at every stage boundary. Always returns a valid schedule — under
/// an already-expired deadline, the best initialization with its lazy `Γ`.
pub fn solve_base_pipeline(
    dag: &Dag,
    machine: &BspParams,
    cfg: &PipelineConfig,
    cx: &mut SolveCx<'_>,
) -> PipelineResult {
    let began = Instant::now();
    let _pipeline_span = bsp_obs::trace::global().span("pipeline/base", "pipeline");
    let enable_ilp = cx.ilp_enabled(cfg.enable_ilp);
    let use_ilp_init = cfg.use_ilp_init.unwrap_or(machine.p() <= 4 && enable_ilp) && enable_ilp;
    let threads = cx.threads(cfg.threads);

    // Stage 1 — initialization. Runs even under an expired deadline: some
    // valid schedule must exist before anything can be truncated.
    cx.begin("init");
    let init_span = bsp_obs::trace::global().span("init", "pipeline");
    let mut candidates: Vec<(Initializer, BspSchedule)> = vec![
        (Initializer::BspG, bspg_schedule(dag, machine)),
        (Initializer::Source, source_schedule(dag, machine)),
    ];
    if use_ilp_init && !cx.expired() {
        let icfg = clamped(cfg, cx).ilp;
        candidates.push((Initializer::IlpInit, ilp_init(dag, machine, &icfg)));
    }
    let costed: Vec<(u64, Initializer, BspSchedule)> = candidates
        .into_iter()
        .map(|(which, init)| (lazy_cost(dag, machine, &init), which, init))
        .collect();
    let (init_cost, mut best_init) = costed
        .iter()
        .map(|&(c, which, _)| (c, which))
        .min_by_key(|&(c, _)| c)
        .expect("at least two initializers ran");
    cx.improved(init_cost);
    init_span.finish();
    cx.end(init_cost, false);

    // Best-so-far: the cheapest initialization under its lazy Γ. Every
    // later stage only replaces it with something strictly cheaper.
    let mut sched = costed
        .iter()
        .min_by_key(|&&(c, ..)| c)
        .map(|(_, _, s)| s.clone())
        .unwrap();
    let mut comm = CommSchedule::lazy(dag, &sched);
    let mut hc_cost = init_cost;

    // Stage 2 — HC, then HCcs, per candidate; keep the cheapest.
    cx.begin("hc");
    let hc_span = bsp_obs::trace::global().span("hc", "pipeline");
    for (_, which, init) in &costed {
        if cx.check_expired() {
            break;
        }
        let c = clamped(cfg, cx);
        let mut st = ScheduleState::new(dag, machine, init);
        hill_climb(&mut st, &c.hc);
        let cand = compact_lazy(dag, &st.snapshot());
        let (cand_comm, cand_cost) =
            optimize_comm_schedule_threaded(dag, machine, &cand, &c.hccs, threads);
        if cand_cost < hc_cost {
            hc_cost = cand_cost;
            best_init = *which;
            sched = cand;
            comm = cand_comm;
            cx.improved(cand_cost);
        }
    }

    // Optional escape-local-minima stage on the winning candidate; folded
    // into the local-search stage cost because it refines the same move
    // space (never worse than its input by construction).
    if let Some(escape) = &cfg.escape {
        if !cx.check_expired() {
            let _escape_span = bsp_obs::trace::global().span(
                match escape {
                    EscapeSearch::Anneal(_) => "escape/anneal",
                    EscapeSearch::Tabu(_) => "escape/tabu",
                },
                "pipeline",
            );
            let c = clamped(cfg, cx);
            let refined = match escape {
                EscapeSearch::Anneal(a) => {
                    let mut a = a.clone();
                    a.seed = a.seed.wrapping_add(cx.seed());
                    a.time_limit = cx.clamp_time(a.time_limit);
                    simulated_annealing(dag, machine, &sched, &a).0
                }
                EscapeSearch::Tabu(t) => {
                    let mut t = t.clone();
                    t.time_limit = cx.clamp_time(t.time_limit);
                    tabu_search_threaded(dag, machine, &sched, &t, threads).0
                }
            };
            let refined = compact_lazy(dag, &refined);
            let (r_comm, r_cost) =
                optimize_comm_schedule_threaded(dag, machine, &refined, &c.hccs, threads);
            if r_cost < hc_cost {
                hc_cost = r_cost;
                sched = refined;
                comm = r_comm;
                cx.improved(r_cost);
            }
        }
    }
    hc_span.finish();
    let hc_truncated = cx.expired();
    cx.end(hc_cost, hc_truncated);

    let mut cost = hc_cost;
    let mut part_cost = hc_cost;

    if enable_ilp && dag.n() > 0 && !cx.check_expired() {
        cx.begin("ilp");
        let _ilp_span = bsp_obs::trace::global().span("ilp", "pipeline");
        // ILPfull when small; always followed by ILPpart unless optimality
        // was proven (paper §6). Budgets re-clamp between solver calls.
        let (after_full, proven) = ilp_full(dag, machine, &sched, &clamped(cfg, cx).ilp);
        let mut assignment = after_full;
        if !proven && !cx.expired() {
            assignment = ilp_part(dag, machine, &assignment, &clamped(cfg, cx).ilp);
        }
        // Re-optimize Γ on the (possibly) new assignment: HCcs then ILPcs.
        let c = clamped(cfg, cx);
        let (hccs_comm, hccs_cost) =
            optimize_comm_schedule_threaded(dag, machine, &assignment, &c.hccs, threads);
        part_cost = part_cost.min(hccs_cost);
        let (ilpcs_comm, ilpcs_cost) =
            ilp_comm(dag, machine, &assignment, &hccs_comm, &c.ilp.limits);
        let (new_comm, new_cost) = if ilpcs_cost <= hccs_cost {
            (ilpcs_comm, ilpcs_cost)
        } else {
            (hccs_comm, hccs_cost)
        };
        if new_cost < cost {
            sched = assignment;
            comm = new_comm;
            cost = new_cost;
            cx.improved(cost);
        }
        let ilp_truncated = cx.expired();
        cx.end(cost, ilp_truncated);
    }

    PipelineResult {
        sched,
        comm,
        cost,
        init_cost,
        best_init,
        hc_cost,
        part_cost,
        ilp_cost: cost,
        elapsed: began.elapsed(),
    }
}

/// Runs the Figure-4 multilevel pipeline with an unlimited budget.
pub fn schedule_dag_multilevel(
    dag: &Dag,
    machine: &BspParams,
    cfg: &PipelineConfig,
    ml: &MultilevelConfig,
) -> PipelineResult {
    let req = SolveRequest::new(dag, machine);
    let mut cx = SolveCx::new("pipeline/multilevel", &req);
    solve_multilevel_pipeline(dag, machine, cfg, ml, &mut cx)
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
    let began = Instant::now();
    let _pipeline_span = bsp_obs::trace::global().span("pipeline/multilevel", "pipeline");
    cx.begin("multilevel");
    let ml_span = bsp_obs::trace::global().span("multilevel", "pipeline");
    // Each inner base run gets a real deadline — the outer budget's
    // remaining time at the moment it starts — so its own stages re-check
    // and re-clamp instead of all snapshotting the same allowance. The
    // inner runs skip ILPcs (Γ is re-optimized after uncoarsening);
    // solve_base_pipeline applies ILPcs internally but its result is only
    // used through the assignment, so this is naturally satisfied.
    let ilp_override = Some(cx.ilp_enabled(cfg.enable_ilp));
    let inner_budget = |cx: &SolveCx<'_>| Budget {
        deadline: cx.remaining(),
        max_stage_moves: cx.clamp_moves(None),
        ilp: ilp_override,
        cancel: cx.cancel_token(),
    };
    let mut base = |d: &Dag, m: &BspParams| -> BspSchedule {
        let req = SolveRequest::new(d, m).with_budget(inner_budget(cx));
        let mut inner = SolveCx::new("pipeline/multilevel/base", &req);
        solve_base_pipeline(d, m, cfg, &mut inner).sched
    };
    // The walk polls the same clock between chunks: past the deadline (or
    // a cancelled token) it only projects the rest of the way down.
    let sched = multilevel_schedule(dag, machine, ml, &mut base, &mut || cx.expired());
    let init_cost = lazy_cost(dag, machine, &sched);
    cx.improved(init_cost);
    ml_span.finish();
    let ml_truncated = cx.expired();
    cx.end(init_cost, ml_truncated);

    if cx.check_expired() {
        // Deadline hit: the uncoarsened schedule under its lazy Γ is the
        // valid best-so-far.
        let comm = CommSchedule::lazy(dag, &sched);
        return PipelineResult {
            sched,
            comm,
            cost: init_cost,
            init_cost,
            best_init: Initializer::BspG,
            hc_cost: init_cost,
            part_cost: init_cost,
            ilp_cost: init_cost,
            elapsed: began.elapsed(),
        };
    }

    // Final polish on the original DAG: HCcs, then ILPcs.
    cx.begin("polish");
    let _polish_span = bsp_obs::trace::global().span("polish", "pipeline");
    let c = clamped(cfg, cx);
    let (hccs_comm, hccs_cost) =
        optimize_comm_schedule_threaded(dag, machine, &sched, &c.hccs, cx.threads(cfg.threads));
    let (comm, cost) = if c.enable_ilp && !cx.expired() {
        let (c2, k2) = ilp_comm(dag, machine, &sched, &hccs_comm, &c.ilp.limits);
        if k2 <= hccs_cost {
            (c2, k2)
        } else {
            (hccs_comm, hccs_cost)
        }
    } else {
        (hccs_comm, hccs_cost)
    };
    if cost < init_cost {
        cx.improved(cost);
    }
    let polish_truncated = cx.expired();
    cx.end(cost, polish_truncated);
    PipelineResult {
        sched,
        comm,
        cost,
        init_cost,
        best_init: Initializer::BspG,
        hc_cost: hccs_cost,
        part_cost: hccs_cost,
        ilp_cost: cost,
        elapsed: began.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_model::NumaTopology;
    use bsp_schedule::cost::total_cost;
    use bsp_schedule::validity::validate;

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
        use crate::anneal::AnnealConfig;
        use crate::tabu::TabuConfig;
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
        for escape in [
            EscapeSearch::Anneal(AnnealConfig {
                max_steps: 5_000,
                time_limit: None,
                ..AnnealConfig::default()
            }),
            EscapeSearch::Tabu(TabuConfig {
                max_iters: 120,
                time_limit: None,
                ..TabuConfig::default()
            }),
        ] {
            let mut cfg = fast_cfg();
            cfg.escape = Some(escape);
            let r = schedule_dag(&dag, &machine, &cfg);
            check_result(&dag, &machine, &r);
        }
    }

    #[test]
    fn escape_stage_beats_plain_hc_on_plateau() {
        use crate::tabu::TabuConfig;
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
        cfg.escape = Some(EscapeSearch::Tabu(TabuConfig {
            max_iters: 300,
            time_limit: None,
            ..TabuConfig::default()
        }));
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
        let r = schedule_dag_multilevel(&dag, &machine, &cfg, &MultilevelConfig::default());
        assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok());
        assert_eq!(r.cost, total_cost(&dag, &machine, &r.sched, &r.comm));
    }
}
