//! [`Scheduler`] implementations for the paper's own algorithms: the two
//! stand-alone initialization heuristics, the Figure-3 base pipeline, the
//! Figure-4 multilevel pipeline, and the CCR-driven auto-selector.
//!
//! The initializers are costed under the lazy `Γ` (they produce only an
//! assignment); the pipelines return their own optimized communication
//! schedule.

use crate::auto::{solve_auto, AutoConfig};
use crate::init::bspg::bspg_schedule;
use crate::init::source::source_schedule;
use crate::multilevel::MultilevelConfig;
use crate::pipeline::{
    solve_base_pipeline, solve_multilevel_pipeline, PipelineConfig, PipelineResult,
};
use bsp_schedule::scheduler::{ScheduleResult, Scheduler, SchedulerKind};
use bsp_schedule::solve::{solve_single_stage, SolveCx, SolveOutcome, SolveRequest};

/// Runs one pipeline as the scheduler `name` under `req`'s clock and seals
/// what it found into an outcome.
pub fn solve_pipeline(
    name: &str,
    req: &SolveRequest<'_>,
    pipeline: impl FnOnce(&mut SolveCx<'_>) -> PipelineResult,
) -> SolveOutcome {
    let mut cx = SolveCx::new(name, req);
    let r = pipeline(&mut cx);
    cx.finish(ScheduleResult::from_parts(
        req.dag,
        req.machine,
        r.sched,
        r.comm,
    ))
}

/// The BSP-tailored greedy initializer (Algorithm 1), run stand-alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct BspgInit;

impl Scheduler for BspgInit {
    fn name(&self) -> &str {
        "init/bspg"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Initializer
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_single_stage(self.name(), req, || {
            ScheduleResult::from_lazy(req.dag, req.machine, bspg_schedule(req.dag, req.machine))
        })
    }
}

/// The wavefront initializer (Algorithm 2), run stand-alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceInit;

impl Scheduler for SourceInit {
    fn name(&self) -> &str {
        "init/source"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Initializer
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_single_stage(self.name(), req, || {
            ScheduleResult::from_lazy(req.dag, req.machine, source_schedule(req.dag, req.machine))
        })
    }
}

/// The Figure-3 base pipeline (init → HC/HCcs → ILP stages).
#[derive(Debug, Clone, Default)]
pub struct BasePipeline {
    /// Stage budgets and switches.
    pub cfg: PipelineConfig,
}

impl Scheduler for BasePipeline {
    fn name(&self) -> &str {
        "pipeline/base"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Pipeline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_pipeline(self.name(), req, |cx| {
            solve_base_pipeline(req.dag, req.machine, &self.cfg, cx)
        })
    }
}

/// The Figure-4 multilevel pipeline (coarsen → solve → uncoarsen-refine).
#[derive(Debug, Clone, Default)]
pub struct MultilevelPipeline {
    /// Stage budgets and switches forwarded to the inner base pipeline.
    pub cfg: PipelineConfig,
    /// Coarsening and refinement tuning.
    pub ml: MultilevelConfig,
}

impl Scheduler for MultilevelPipeline {
    fn name(&self) -> &str {
        "pipeline/multilevel"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Pipeline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_pipeline(self.name(), req, |cx| {
            solve_multilevel_pipeline(req.dag, req.machine, &self.cfg, &self.ml, cx)
        })
    }
}

/// The communication-dominance-driven selector between the base and
/// multilevel pipelines (§7.3 / Appendix C.6 future work).
#[derive(Debug, Clone, Default)]
pub struct AutoScheduler {
    /// Stage budgets and switches for whichever pipeline runs.
    pub cfg: PipelineConfig,
    /// Selection thresholds and multilevel tuning.
    pub auto: AutoConfig,
}

impl Scheduler for AutoScheduler {
    fn name(&self) -> &str {
        "auto"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Pipeline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_pipeline(self.name(), req, |cx| {
            solve_auto(req.dag, req.machine, &self.cfg, &self.auto, cx).0
        })
    }
}
