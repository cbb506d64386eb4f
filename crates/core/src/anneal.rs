//! Simulated annealing over the hill-climbing move space.
//!
//! The paper's conclusion names "more complex local search techniques that
//! also attempt to escape local minima" as a natural replacement for plain
//! hill climbing (§8). This module implements that extension: the same
//! single-node neighbourhood as [`crate::hc`] (any processor, superstep
//! within ±1), but with Metropolis acceptance — a cost-increasing move is
//! accepted with probability `exp(−Δ/T)` under a geometrically cooling
//! temperature `T`.
//!
//! The run keeps the best schedule encountered, so the result is never
//! worse than the input even though the walk itself may climb. Every
//! proposal is evaluated through the read-only
//! [`ScheduleState::probe_move`] gain kernel; the state is mutated only on
//! acceptance, so rejected proposals cost no apply/revert pair.

use crate::state::ScheduleState;
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing parameters.
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Starting temperature; `None` calibrates it from sampled move deltas
    /// so that an average uphill move starts ~60% likely to be accepted.
    pub initial_temp: Option<f64>,
    /// Geometric cooling factor applied after every temperature plateau.
    pub cooling: f64,
    /// Proposals per temperature plateau.
    pub steps_per_temp: usize,
    /// Stop once the temperature falls below this value.
    pub min_temp: f64,
    /// Hard cap on total proposals.
    pub max_steps: usize,
    /// RNG seed (runs are deterministic for a fixed seed and input).
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            initial_temp: None,
            cooling: 0.95,
            steps_per_temp: 64,
            min_temp: 0.05,
            max_steps: 200_000,
            seed: 0xB5B5_5EED,
        }
    }
}

/// Outcome counters of an annealing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnealStats {
    /// Total proposals drawn.
    pub proposed: usize,
    /// Accepted moves (downhill or Metropolis-accepted uphill).
    pub accepted: usize,
    /// Accepted moves that increased the cost (escapes).
    pub uphill: usize,
    /// Times a new global best was recorded.
    pub improved_best: usize,
}

/// Runs simulated annealing starting from `sched` until `cfg`'s step and
/// temperature limits or `stop` (polled once per proposal), and returns
/// the best schedule found together with its lazy cost and run statistics.
/// The returned cost is never above the lazy cost of the input.
///
/// ```
/// use bsp_core::anneal::{simulated_annealing, AnnealConfig};
/// use bsp_core::init::bspg_schedule;
/// use bsp_dag::random::{random_layered_dag, LayeredConfig};
/// use bsp_model::BspParams;
/// use bsp_schedule::cost::lazy_cost;
/// use bsp_schedule::solve::Stop;
///
/// let dag = random_layered_dag(7, LayeredConfig::default());
/// let machine = BspParams::new(4, 3, 5);
/// let start = bspg_schedule(&dag, &machine);
/// let cfg = AnnealConfig { max_steps: 2_000, ..Default::default() };
/// let mut stop = Stop::new(None, None);
/// let (best, cost, _stats) = simulated_annealing(&dag, &machine, &start, &cfg, &mut stop);
/// assert!(cost <= lazy_cost(&dag, &machine, &start));
/// assert_eq!(cost, lazy_cost(&dag, &machine, &best));
/// ```
pub fn simulated_annealing(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    cfg: &AnnealConfig,
    stop: &mut Stop,
) -> (BspSchedule, u64, AnnealStats) {
    let mut state = ScheduleState::new(dag, machine, sched);
    let mut stats = AnnealStats::default();
    let mut best = sched.clone();
    let mut best_cost = state.cost();
    if dag.n() == 0 {
        return (best, best_cost, stats);
    }

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut temp = cfg
        .initial_temp
        .unwrap_or_else(|| calibrate_temperature(&state, &mut rng));

    'outer: while temp >= cfg.min_temp && stats.proposed < cfg.max_steps {
        for _ in 0..cfg.steps_per_temp {
            if stats.proposed >= cfg.max_steps || stop.poll() {
                break 'outer;
            }
            stats.proposed += 1;
            let Some((v, q, s)) = propose(&state, &mut rng) else {
                continue;
            };
            // Probe first: rejected proposals (the vast majority at low
            // temperatures) cost one read-only gain evaluation and zero
            // mutation instead of an apply/revert pair.
            let delta = state.probe_move(v, q, s);
            let accept = delta <= 0 || rng.gen::<f64>() < (-(delta as f64) / temp).exp();
            if accept {
                let before = state.cost();
                let after = state.apply_move(v, q, s);
                debug_assert_eq!(after as i64 - before as i64, delta);
                stats.accepted += 1;
                if delta > 0 {
                    stats.uphill += 1;
                }
                if after < best_cost {
                    best_cost = after;
                    best = state.snapshot();
                    stats.improved_best += 1;
                }
            }
        }
        temp *= cfg.cooling;
    }
    (best, best_cost, stats)
}

/// Draws one uniformly random valid move from the hill-climbing
/// neighbourhood, or `None` if the sampled node has no valid alternative.
fn propose(state: &ScheduleState<'_>, rng: &mut SmallRng) -> Option<(bsp_dag::NodeId, u32, u32)> {
    let (n, p) = (state.n() as u32, state.p());
    let v = rng.gen_range(0..n);
    let (cur_p, cur_s) = (state.proc(v), state.step(v));
    let q = rng.gen_range(0..p);
    let s = match rng.gen_range(0..3u32) {
        0 => cur_s.checked_sub(1)?,
        1 => cur_s,
        _ => cur_s + 1,
    };
    if (q, s) == (cur_p, cur_s) || !state.is_move_valid(v, q, s) {
        return None;
    }
    Some((v, q, s))
}

/// Samples random valid moves and returns a temperature at which the mean
/// uphill delta is accepted with probability ≈ 0.6 (T = Δ̄ / ln(1/0.6)).
/// Probes only — the walk has not started yet and the state must not move.
fn calibrate_temperature(state: &ScheduleState<'_>, rng: &mut SmallRng) -> f64 {
    let mut total_uphill = 0u64;
    let mut count = 0u32;
    for _ in 0..256 {
        let Some((v, q, s)) = propose(state, rng) else {
            continue;
        };
        let delta = state.probe_move(v, q, s);
        if delta > 0 {
            total_uphill += delta as u64;
            count += 1;
        }
    }
    if count == 0 {
        return 1.0;
    }
    let mean = total_uphill as f64 / count as f64;
    (mean / (1.0f64 / 0.6).ln()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hc::hill_climb;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_schedule::cost::lazy_cost;
    use bsp_schedule::validity::validate_lazy;

    /// [`simulated_annealing`] under no limit but `cfg`'s own.
    fn anneal(
        dag: &Dag,
        machine: &BspParams,
        sched: &BspSchedule,
        cfg: &AnnealConfig,
    ) -> (BspSchedule, u64, AnnealStats) {
        simulated_annealing(dag, machine, sched, cfg, &mut Stop::new(None, None))
    }

    fn quick_cfg(seed: u64) -> AnnealConfig {
        AnnealConfig {
            steps_per_temp: 48,
            max_steps: 20_000,
            seed,
            ..AnnealConfig::default()
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
            let (best, cost, _) = anneal(&dag, &machine, &sched, &quick_cfg(seed));
            assert!(cost <= input, "seed {seed}: {cost} > {input}");
            assert_eq!(cost, lazy_cost(&dag, &machine, &best), "seed {seed}");
            assert!(validate_lazy(&dag, 4, &best).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dag = random_layered_dag(3, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let sched = BspSchedule::zeroed(dag.n());
        let (a, ca, sa) = anneal(&dag, &machine, &sched, &quick_cfg(7));
        let (b, cb, sb) = anneal(&dag, &machine, &sched, &quick_cfg(7));
        assert_eq!(ca, cb);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn escapes_record_uphill_moves() {
        // On a non-trivial instance at sensible temperatures, some uphill
        // moves must be accepted (that is the entire point of annealing).
        let dag = random_layered_dag(
            11,
            LayeredConfig {
                layers: 6,
                width: 5,
                edge_prob: 0.35,
                ..Default::default()
            },
        );
        let machine = BspParams::new(4, 4, 5);
        let sched = BspSchedule::zeroed(dag.n());
        let (_, _, stats) = anneal(&dag, &machine, &sched, &quick_cfg(5));
        assert!(stats.uphill > 0, "no uphill moves accepted: {stats:?}");
        assert!(stats.accepted >= stats.uphill);
        assert!(stats.proposed >= stats.accepted);
    }

    #[test]
    fn can_escape_a_plateau_greedy_cannot_cross() {
        // Four independent weight-10 nodes, 4 processors, started as two
        // pairs. Every single move keeps max-load at 20 (a plateau), so
        // greedy HC is stuck at cost 22; annealing can cross and find the
        // 1-per-processor optimum of 12 (cost 10 work + 2 latency).
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            b.add_node(10, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 1, 2);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1], vec![0; 4]);
        let mut st = ScheduleState::new(&dag, &machine, &sched);
        hill_climb(&mut st, &mut Stop::new(None, None));
        let greedy = st.cost();
        assert_eq!(greedy, 22, "premise: greedy is plateau-stuck");

        let mut found_optimum = false;
        for seed in 0..8 {
            let (_, cost, _) = anneal(&dag, &machine, &sched, &quick_cfg(seed));
            if cost <= 12 {
                found_optimum = true;
                break;
            }
        }
        assert!(found_optimum, "annealing never crossed the plateau");
    }

    #[test]
    fn empty_dag() {
        let dag = DagBuilder::new().build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::zeroed(0);
        let (best, cost, stats) = anneal(&dag, &machine, &sched, &AnnealConfig::default());
        assert_eq!(best.n(), 0);
        assert_eq!(cost, 0);
        assert_eq!(stats.proposed, 0);
    }

    #[test]
    fn respects_step_budget() {
        let dag = random_layered_dag(1, LayeredConfig::default());
        let machine = BspParams::new(4, 2, 3);
        let sched = BspSchedule::zeroed(dag.n());
        let cfg = AnnealConfig {
            max_steps: 100,
            ..AnnealConfig::default()
        };
        let (_, _, stats) = anneal(&dag, &machine, &sched, &cfg);
        assert!(stats.proposed <= 100);
    }
}
