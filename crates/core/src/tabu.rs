//! Tabu search over the hill-climbing move space.
//!
//! The "escape local minima" strategy from the paper's future-work list
//! (§8), and the pipeline's escape stage: the search always applies the
//! best available move — *even when it worsens the cost* — but forbids
//! returning a node to a placement it recently left (the *tabu list*),
//! which forces the walk out of local minima instead of oscillating. A tabu move is
//! still allowed when it would beat the best schedule seen so far (the
//! standard *aspiration* criterion).
//!
//! The best schedule encountered is returned, so the result is never worse
//! than the input. Every iteration is one full-neighbourhood scan —
//! steepest descent's [`best_admissible`], admitting what is not tabu or
//! aspirates — which probes every candidate read-only; only the chosen
//! move is applied. Each scan counts in `bsp_ls_scans_total` and
//! `bsp_ls_probes_total`.

use crate::hc::best_admissible;
use crate::state::{with_scratch, ScheduleState};
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;
use std::collections::HashMap;

/// Tabu-search parameters.
#[derive(Debug, Clone)]
pub struct TabuConfig {
    /// Iterations for which a reversed placement stays forbidden.
    pub tenure: usize,
    /// Stop after this many consecutive iterations without a new best.
    pub stall_limit: usize,
    /// Hard cap on iterations.
    pub max_iters: usize,
}

impl Default for TabuConfig {
    fn default() -> Self {
        TabuConfig {
            tenure: 12,
            stall_limit: 60,
            max_iters: 5_000,
        }
    }
}

/// Outcome counters of a tabu run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TabuStats {
    /// Iterations executed (one move each, unless the neighbourhood was empty).
    pub iterations: usize,
    /// Applied moves that increased the cost.
    pub uphill: usize,
    /// Moves admitted through the aspiration criterion.
    pub aspirated: usize,
    /// Times a new global best was recorded.
    pub improved_best: usize,
}

/// Runs tabu search from `sched` until `cfg`'s iteration limits or `stop`
/// (asked once per iteration); returns the best schedule found, its lazy
/// cost, and statistics. The returned cost is never above the input's.
///
/// ```
/// use bsp_core::tabu::{tabu_search, TabuConfig};
/// use bsp_core::init::bspg_schedule;
/// use bsp_dag::random::{random_layered_dag, LayeredConfig};
/// use bsp_model::BspParams;
/// use bsp_schedule::cost::lazy_cost;
/// use bsp_schedule::solve::Stop;
///
/// let dag = random_layered_dag(3, LayeredConfig::default());
/// let machine = BspParams::new(4, 2, 5);
/// let start = bspg_schedule(&dag, &machine);
/// let cfg = TabuConfig { max_iters: 50, ..Default::default() };
/// let mut stop = Stop::new(None, None);
/// let (best, cost, _stats) = tabu_search(&dag, &machine, &start, &cfg, &mut stop);
/// assert!(cost <= lazy_cost(&dag, &machine, &start));
/// assert_eq!(cost, lazy_cost(&dag, &machine, &best));
/// ```
pub fn tabu_search(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    cfg: &TabuConfig,
    stop: &mut Stop,
) -> (BspSchedule, u64, TabuStats) {
    let mut state = ScheduleState::new(dag, machine, sched);
    let mut stats = TabuStats::default();
    let mut best = sched.clone();
    let mut best_cost = state.cost();
    if dag.n() == 0 {
        return (best, best_cost, stats);
    }

    // (node, proc, step) → iteration index until which the placement is tabu.
    let mut tabu: HashMap<(NodeId, u32, u32), usize> = HashMap::new();
    let mut stall = 0usize;
    with_scratch(|sc| {
        for iter in 0..cfg.max_iters {
            if stall >= cfg.stall_limit || stop.expired() {
                break;
            }
            let before = state.cost();
            let is_tabu = |v, q, s| tabu.get(&(v, q, s)).is_some_and(|&until| until > iter);
            // A tabu move qualifies only if it beats the best cost (aspiration).
            let admit = |v, q, s, d| !is_tabu(v, q, s) || before as i64 + d < best_cost as i64;
            let Some((v, q, s, _)) = best_admissible(&state, sc, admit) else {
                break; // no valid move anywhere (degenerate neighbourhood)
            };
            // A tabu winner got in by aspiration.
            stats.aspirated += is_tabu(v, q, s) as usize;
            let (old_p, old_s) = (state.proc(v), state.step(v));
            let after = state.apply_move(v, q, s);
            // Forbid undoing this move for `tenure` iterations.
            tabu.insert((v, old_p, old_s), iter + cfg.tenure);
            stats.iterations += 1;
            if after > before {
                stats.uphill += 1;
            }
            if after < best_cost {
                best_cost = after;
                best = state.snapshot();
                stats.improved_best += 1;
                stall = 0;
            } else {
                stall += 1;
            }
            // Keep the tabu map from growing without bound on long runs.
            if tabu.len() > 4 * dag.n() + 64 {
                tabu.retain(|_, &mut until| until > iter);
            }
        }
    });
    (best, best_cost, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hc::hill_climb;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_schedule::cost::lazy_cost;
    use bsp_schedule::validity::validate_lazy;

    /// [`tabu_search`] under no limit but `cfg`'s own.
    fn tabu(
        dag: &Dag,
        machine: &BspParams,
        sched: &BspSchedule,
        cfg: &TabuConfig,
    ) -> (BspSchedule, u64, TabuStats) {
        tabu_search(dag, machine, sched, cfg, &mut Stop::new(None, None))
    }

    fn quick_cfg() -> TabuConfig {
        TabuConfig {
            max_iters: 400,
            stall_limit: 40,
            ..TabuConfig::default()
        }
    }

    #[test]
    fn never_worse_than_input_and_valid() {
        for seed in 0..5 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 5,
                    width: 5,
                    edge_prob: 0.4,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 3, 5);
            let sched = BspSchedule::zeroed(dag.n());
            let input = lazy_cost(&dag, &machine, &sched);
            let (out, cost, _) = tabu(&dag, &machine, &sched, &quick_cfg());
            assert!(cost <= input, "seed {seed}");
            assert_eq!(cost, lazy_cost(&dag, &machine, &out), "seed {seed}");
            assert!(validate_lazy(&dag, 4, &out).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn crosses_the_plateau_greedy_cannot() {
        // Four independent heavy tasks started as two pairs: greedy HC is
        // stuck at 22; tabu's forced best-admissible move walks across the
        // plateau deterministically.
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_node(10, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 1, 2);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0; 4]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        hill_climb(&mut st, &mut Stop::new(None, None));
        assert_eq!(st.cost(), 22, "premise: greedy is plateau-stuck");

        let (_, cost, stats) = tabu(&dag, &machine, &sched, &quick_cfg());
        assert_eq!(cost, 12, "tabu should reach the 1-per-processor optimum");
        assert!(stats.improved_best >= 1);
    }

    #[test]
    fn tabu_is_deterministic() {
        let dag = random_layered_dag(9, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let sched = BspSchedule::zeroed(dag.n());
        let (a, ca, sa) = tabu(&dag, &machine, &sched, &quick_cfg());
        let (b, cb, sb) = tabu(&dag, &machine, &sched, &quick_cfg());
        assert_eq!(ca, cb);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn every_iteration_counts_a_scan() {
        // The counter is process-global: other tests may add to it too.
        let scans = &crate::obs::ls_metrics().scans;
        let before = scans.get();
        let dag = random_layered_dag(9, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let (_, _, stats) = tabu(&dag, &machine, &BspSchedule::zeroed(dag.n()), &quick_cfg());
        assert!(stats.iterations > 0);
        assert!(scans.get() - before >= stats.iterations as u64);
    }

    #[test]
    fn stall_limit_bounds_iterations() {
        let dag = random_layered_dag(2, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let sched = BspSchedule::zeroed(dag.n());
        let cfg = TabuConfig {
            stall_limit: 5,
            max_iters: 10_000,
            tenure: 3,
        };
        let (_, _, stats) = tabu(&dag, &machine, &sched, &cfg);
        // Each improvement resets the stall counter, but iterations are
        // bounded by improvements · stall_limit + stall_limit.
        assert!(stats.iterations <= (stats.improved_best + 1) * 5 + 5);
    }

    #[test]
    fn empty_and_single_node() {
        let machine = BspParams::new(2, 1, 1);
        let empty = DagBuilder::new().build().unwrap();
        let (_, c, stats) = tabu(&empty, &machine, &BspSchedule::zeroed(0), &quick_cfg());
        assert_eq!((c, stats.iterations), (0, 0));

        let mut b = DagBuilder::new();
        b.add_node(3, 1);
        let one = b.build().unwrap();
        let (out, c, _) = tabu(&one, &machine, &BspSchedule::zeroed(1), &quick_cfg());
        assert_eq!(c, lazy_cost(&one, &machine, &out));
    }
}
