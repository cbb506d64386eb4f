//! [`Scheduler`] implementations for the baseline algorithms.
//!
//! Each struct is a ready-to-run, configuration-carrying instance of one
//! baseline; the `bsp_sched::Registry` catalogues them next to the paper's
//! own pipelines so every harness compares against the same field.
//! Baselines are costed under the lazy communication schedule, exactly as
//! the paper evaluates them.

use crate::blest::{blest_bsp, blest_bsp_numa_aware};
use crate::cilk::cilk_bsp;
use crate::cluster::dsc_bsp;
use crate::etf::{etf_bsp, etf_bsp_numa_aware};
use crate::hdagg::{hdagg_schedule, HDaggConfig};
use bsp_schedule::scheduler::{ScheduleResult, Scheduler, SchedulerKind};
use bsp_schedule::solve::{solve_single_stage, SolveOutcome, SolveRequest};

/// The Cilk work-stealing baseline. Stealing victims are drawn from a
/// deterministic stream, so a given `seed` always reproduces the same
/// schedule.
#[derive(Debug, Clone, Copy)]
pub struct CilkScheduler {
    /// Seed of the steal-victim stream.
    pub seed: u64,
}

impl Default for CilkScheduler {
    fn default() -> Self {
        // The seed the experiment harness has always used for its tables.
        CilkScheduler { seed: 42 }
    }
}

impl Scheduler for CilkScheduler {
    fn name(&self) -> &str {
        "cilk"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        // The request seed shifts (not replaces) the configured stream, so
        // seed 0 — the default — reproduces the harness's historical tables.
        let seed = self.seed.wrapping_add(req.seed);
        solve_single_stage(self.name(), req, || {
            ScheduleResult::from_lazy(req.dag, req.machine, cilk_bsp(req.dag, req.machine, seed))
        })
    }
}

/// The BL-EST list-scheduling baseline, optionally with the NUMA-aware EST
/// extension of Appendix A.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlestScheduler {
    /// Use per-pair λ coefficients in the EST communication delays.
    pub numa_aware: bool,
}

impl Scheduler for BlestScheduler {
    fn name(&self) -> &str {
        if self.numa_aware {
            "bl-est?numa=on"
        } else {
            "bl-est"
        }
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_single_stage(self.name(), req, || {
            let sched = if self.numa_aware {
                blest_bsp_numa_aware(req.dag, req.machine)
            } else {
                blest_bsp(req.dag, req.machine)
            };
            ScheduleResult::from_lazy(req.dag, req.machine, sched)
        })
    }
}

/// The ETF list-scheduling baseline, optionally with the NUMA-aware EST
/// extension of Appendix A.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct EtfScheduler {
    /// Use per-pair λ coefficients in the EST communication delays.
    pub numa_aware: bool,
}

impl Scheduler for EtfScheduler {
    fn name(&self) -> &str {
        if self.numa_aware {
            "etf?numa=on"
        } else {
            "etf"
        }
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_single_stage(self.name(), req, || {
            let sched = if self.numa_aware {
                etf_bsp_numa_aware(req.dag, req.machine)
            } else {
                etf_bsp(req.dag, req.machine)
            };
            ScheduleResult::from_lazy(req.dag, req.machine, sched)
        })
    }
}

/// The HDagg wavefront-aggregation baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct HDaggScheduler {
    /// Aggregation tuning.
    pub cfg: HDaggConfig,
}

impl Scheduler for HDaggScheduler {
    fn name(&self) -> &str {
        "hdagg"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_single_stage(self.name(), req, || {
            ScheduleResult::from_lazy(
                req.dag,
                req.machine,
                hdagg_schedule(req.dag, req.machine, self.cfg),
            )
        })
    }
}

/// The Dominant Sequence Clustering baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct DscScheduler;

impl Scheduler for DscScheduler {
    fn name(&self) -> &str {
        "dsc"
    }
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Baseline
    }
    fn solve(&self, req: &SolveRequest<'_>) -> SolveOutcome {
        solve_single_stage(self.name(), req, || {
            ScheduleResult::from_lazy(req.dag, req.machine, dsc_bsp(req.dag, req.machine))
        })
    }
}
