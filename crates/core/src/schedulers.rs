//! The bridge from a pipeline function to a
//! [`Scheduler`](bsp_schedule::Scheduler)'s outcome: the registry's
//! pipeline entries, the daemon's warm re-solves and the tests all seal a
//! [`PipelineResult`] into a [`SolveOutcome`] here.

use crate::pipeline::PipelineResult;
use bsp_schedule::scheduler::ScheduleResult;
use bsp_schedule::solve::{SolveCx, SolveOutcome, SolveRequest};

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
