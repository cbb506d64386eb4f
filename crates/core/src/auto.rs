//! Communication-dominance–driven scheduler selection.
//!
//! The paper observes that the multilevel scheduler is a *specialist*: it
//! clearly wins when communication costs dominate (large Δ and/or P) and
//! clearly loses otherwise (§7.3, Appendix C.6), and names "deciding if
//! coarsification is even necessary" as future work. This module implements
//! that decision using the generalized communication-to-computation ratio
//! of Appendix A.5: `CCR_λ = g · λ̄ · Σc(v) / Σw(v)` with `λ̄` the mean
//! off-diagonal NUMA coefficient. (As the paper notes, folding the latency
//! ℓ into this formula is not straightforward; like the paper, we leave ℓ
//! out of the metric.)
//!
//! Selection uses a hysteresis band calibrated on the paper's reported
//! crossover (ML loses at Δ=2, wins from Δ=3 with P=16 upward):
//!
//! * `CCR_λ < lo` → base pipeline only (Figure 3),
//! * `CCR_λ ≥ hi` → multilevel pipeline only (Figure 4),
//! * in between → run both and keep the cheaper schedule.

use crate::multilevel::MultilevelConfig;
use crate::pipeline::{
    solve_base_pipeline, solve_multilevel_pipeline, PipelineConfig, PipelineResult,
};
use bsp_dag::analysis::numa_ccr;
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::solve::SolveCx;

/// Which strategy the auto-scheduler committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Figure-3 base pipeline only.
    Base,
    /// Figure-4 multilevel pipeline only.
    Multilevel,
    /// Both were run; the cheaper result was kept.
    Both,
}

/// Tuning for [`solve_auto`].
#[derive(Debug, Clone)]
pub struct AutoConfig {
    /// Below this generalized CCR the base pipeline runs alone.
    pub ccr_lo: f64,
    /// From this generalized CCR upward the multilevel pipeline runs alone.
    pub ccr_hi: f64,
    /// Smallest DAG worth coarsening (the paper excludes `tiny` from ML
    /// because coarsening it yields degenerate graphs).
    pub min_nodes_for_ml: usize,
    /// Multilevel tuning forwarded to the Figure-4 pipeline.
    pub ml: MultilevelConfig,
}

impl Default for AutoConfig {
    fn default() -> Self {
        AutoConfig {
            ccr_lo: 4.0,
            ccr_hi: 8.0,
            min_nodes_for_ml: 40,
            ml: MultilevelConfig::default(),
        }
    }
}

/// The generalized communication-to-computation ratio used for the
/// decision: `g · λ̄ · Σc / Σw` (0 when the DAG has no work).
pub fn comm_dominance(dag: &Dag, machine: &BspParams) -> f64 {
    numa_ccr(dag, machine.g(), machine.numa().mean_lambda_offdiag())
}

/// Schedules `dag` with the strategy selected by [`comm_dominance`] under
/// `cx`'s budget clock, and reports which strategy was used. The CCR
/// decision is instantaneous; the selected pipeline's stages report
/// through `cx`. In the hysteresis band both pipelines run (budget
/// permitting), the cheaper result is kept — so auto-selection never loses
/// to the chosen single strategy — and only the winner's stage trajectory
/// stays, so reports stay monotone.
///
/// ```
/// use bsp_core::auto::{solve_auto, AutoConfig, Strategy};
/// use bsp_core::pipeline::PipelineConfig;
/// use bsp_dag::random::{random_layered_dag, LayeredConfig};
/// use bsp_model::BspParams;
/// use bsp_schedule::solve::{SolveCx, SolveRequest};
///
/// let dag = random_layered_dag(5, LayeredConfig::default());
/// let machine = BspParams::new(4, 1, 5); // uniform, low dominance
/// let cfg = PipelineConfig { enable_ilp: false, ..Default::default() };
/// let mut cx = SolveCx::new("auto", &SolveRequest::new(&dag, &machine));
/// let (result, strategy) = solve_auto(&dag, &machine, &cfg, &AutoConfig::default(), &mut cx);
/// assert_eq!(strategy, Strategy::Base);
/// assert!(result.cost > 0);
/// ```
pub fn solve_auto(
    dag: &Dag,
    machine: &BspParams,
    cfg: &PipelineConfig,
    auto: &AutoConfig,
    cx: &mut SolveCx<'_>,
) -> (PipelineResult, Strategy) {
    let dominance = comm_dominance(dag, machine);
    let ml_viable = dag.n() >= auto.min_nodes_for_ml;
    if !ml_viable || dominance < auto.ccr_lo {
        return (solve_base_pipeline(dag, machine, cfg, cx), Strategy::Base);
    }
    if dominance >= auto.ccr_hi {
        return (
            solve_multilevel_pipeline(dag, machine, cfg, &auto.ml, cx),
            Strategy::Multilevel,
        );
    }
    let base_from = cx.mark();
    let base = solve_base_pipeline(dag, machine, cfg, cx);
    if cx.check_expired() {
        // No budget left for the multilevel run: the base result stands.
        return (base, Strategy::Both);
    }
    let ml_from = cx.mark();
    let ml = solve_multilevel_pipeline(dag, machine, cfg, &auto.ml, cx);
    if ml.cost < base.cost {
        cx.discard_stages(base_from, ml_from);
        (ml, Strategy::Both)
    } else {
        let end = cx.mark();
        cx.discard_stages(ml_from, end);
        (base, Strategy::Both)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_model::NumaTopology;
    use bsp_schedule::cost::total_cost;
    use bsp_schedule::validity::validate;

    /// [`solve_auto`] with an unlimited budget and no observer.
    fn schedule_dag_auto(
        dag: &Dag,
        machine: &BspParams,
        cfg: &PipelineConfig,
        auto: &AutoConfig,
    ) -> (PipelineResult, Strategy) {
        let req = bsp_schedule::solve::SolveRequest::new(dag, machine);
        solve_auto(dag, machine, cfg, auto, &mut SolveCx::new("auto", &req))
    }

    fn fast_cfg() -> PipelineConfig {
        PipelineConfig {
            enable_ilp: false,
            ..Default::default()
        }
    }

    fn sample(n_layers: usize) -> Dag {
        random_layered_dag(
            17,
            LayeredConfig {
                layers: n_layers,
                width: 8,
                edge_prob: 0.3,
                ..Default::default()
            },
        )
    }

    #[test]
    fn low_dominance_selects_base() {
        let dag = sample(8);
        let machine = BspParams::new(4, 1, 5); // g=1, uniform λ: dominance ≈ Σc/Σw
        let auto = AutoConfig::default();
        assert!(comm_dominance(&dag, &machine) < auto.ccr_lo);
        let (r, strat) = schedule_dag_auto(&dag, &machine, &fast_cfg(), &auto);
        assert_eq!(strat, Strategy::Base);
        assert!(validate(&dag, 4, &r.sched, &r.comm).is_ok());
    }

    #[test]
    fn high_dominance_selects_multilevel() {
        let dag = sample(8);
        // P=16, Δ=4: λ̄ well above 8 even at g=1.
        let machine = BspParams::new(16, 1, 5).with_numa(NumaTopology::binary_tree(16, 4));
        let auto = AutoConfig::default();
        assert!(comm_dominance(&dag, &machine) >= auto.ccr_hi);
        let (r, strat) = schedule_dag_auto(&dag, &machine, &fast_cfg(), &auto);
        assert_eq!(strat, Strategy::Multilevel);
        assert!(validate(&dag, 16, &r.sched, &r.comm).is_ok());
        assert_eq!(r.cost, total_cost(&dag, &machine, &r.sched, &r.comm));
    }

    #[test]
    fn band_runs_both_and_keeps_cheaper() {
        let dag = sample(8);
        let machine = BspParams::new(4, 1, 5);
        let auto = AutoConfig {
            ccr_lo: 0.0,
            ccr_hi: f64::INFINITY,
            min_nodes_for_ml: 1,
            ..AutoConfig::default()
        };
        let (r, strat) = schedule_dag_auto(&dag, &machine, &fast_cfg(), &auto);
        assert_eq!(strat, Strategy::Both);
        let req = bsp_schedule::solve::SolveRequest::new(&dag, &machine);
        let cx = || SolveCx::new("t", &req);
        let base = solve_base_pipeline(&dag, &machine, &fast_cfg(), &mut cx());
        let ml = solve_multilevel_pipeline(&dag, &machine, &fast_cfg(), &auto.ml, &mut cx());
        assert_eq!(r.cost, base.cost.min(ml.cost));
    }

    #[test]
    fn small_dags_never_use_ml() {
        let dag = sample(2); // well under min_nodes_for_ml with width 8
        let machine = BspParams::new(16, 5, 5).with_numa(NumaTopology::binary_tree(16, 4));
        let auto = AutoConfig {
            min_nodes_for_ml: 1_000,
            ..AutoConfig::default()
        };
        let (_, strat) = schedule_dag_auto(&dag, &machine, &fast_cfg(), &auto);
        assert_eq!(strat, Strategy::Base);
    }

    #[test]
    fn dominance_scales_with_g_and_lambda() {
        let dag = sample(4);
        let base = comm_dominance(&dag, &BspParams::new(8, 1, 5));
        let with_g = comm_dominance(&dag, &BspParams::new(8, 3, 5));
        assert!((with_g - 3.0 * base).abs() < 1e-9);
        let with_numa = comm_dominance(
            &dag,
            &BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 3)),
        );
        assert!(with_numa > base);
    }
}
