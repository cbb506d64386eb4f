//! ILP-based refinement stages (paper §4.4, Appendix A.4).
//!
//! * [`ilp_full`] — the whole scheduling problem as one ILP (`ILPfull`),
//!   attempted only when the estimated variable count is small;
//! * [`ilp_part`] — superstep-window reoptimization (`ILPpart`): supersteps
//!   are split into intervals from back to front, each interval's nodes are
//!   reassigned by a windowed ILP;
//! * [`comm::ilp_comm`] — communication-schedule optimization (`ILPcs`);
//! * [`init::ilp_init`] — the ILP-based initializer (`ILPinit`).
//!
//! Every stage is warm-started from the incumbent and *accepts the result
//! only if the true lazy-model cost improves*, so the pipeline is monotone
//! regardless of solver limits.
//!
//! Every stage takes the caller's [`Stop`] and every ILP solve goes through
//! one function, `solve_model`, which gives the solver the tighter of its
//! configured time limit and [`Stop::remaining`]. `bsp-ilp` has no
//! dependencies, so that `Duration` is all it sees of the budget: a cancel
//! token is honoured before and after a solve, not inside one.

pub mod comm;
pub mod init;
pub mod window;

use bsp_dag::Dag;
use bsp_ilp::SolveLimits;
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::cost::lazy_cost;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;
use window::{WindowIlp, WindowOptions};

/// Configuration of the ILP stages.
#[derive(Debug, Clone)]
pub struct IlpConfig {
    /// `ILPfull` is attempted when `n · S · P² ≤ full_max_vars` (the paper
    /// used 20 000 with CBC; the built-in solver defaults lower).
    pub full_max_vars: usize,
    /// Target window size for `ILPpart` (paper: 4 000 with CBC).
    pub part_target_vars: usize,
    /// Solver budgets per ILP invocation. Every invocation runs the
    /// presolver (bound tightening, redundancy elimination) before branch
    /// and bound — the analogue of CBC's preprocessing.
    pub limits: SolveLimits,
}

impl Default for IlpConfig {
    fn default() -> Self {
        IlpConfig {
            full_max_vars: 1200,
            part_target_vars: 600,
            limits: SolveLimits {
                max_nodes: 300,
                time_limit: std::time::Duration::from_secs(3),
                gap: 1e-6,
            },
        }
    }
}

/// Presolves and solves `model` for at most `limits.time_limit` and no
/// longer than `stop` has left.
pub(crate) fn solve_model(
    model: &bsp_ilp::Model,
    warm: Option<&[f64]>,
    limits: &SolveLimits,
    stop: &Stop,
) -> bsp_ilp::MipSolution {
    let limits = SolveLimits {
        time_limit: stop
            .remaining()
            .map_or(limits.time_limit, |left| left.min(limits.time_limit)),
        ..limits.clone()
    };
    bsp_ilp::solve_with_presolve(model, warm, &limits)
}

/// Attempts `ILPfull` on the whole (compacted) schedule. Returns an
/// improved schedule or the input if no improvement was found / the problem
/// is too large. The second component is `true` when the solver proved
/// optimality of its incumbent within the model.
pub fn ilp_full(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    cfg: &IlpConfig,
    stop: &Stop,
) -> (BspSchedule, bool) {
    let base = compact_lazy(dag, sched);
    let s_max = base.n_supersteps();
    if s_max == 0 {
        return (base, true);
    }
    let est = WindowIlp::estimate_vars(dag.n(), s_max as usize, machine.p());
    if est > cfg.full_max_vars {
        return (base, false);
    }
    let w = WindowIlp::build(dag, machine, &base, 0, s_max - 1, WindowOptions::default());
    let warm = w.warm_start(dag, machine, &base);
    debug_assert!(
        w.model.is_feasible(&warm, 1e-5),
        "warm start must satisfy the window model"
    );
    let sol = solve_model(&w.model, Some(&warm), &cfg.limits, stop);
    let proven = sol.status == bsp_ilp::MipStatus::Optimal;
    if sol.x.is_empty() {
        return (base, false);
    }
    let cand = w.extract(&sol.x, &base);
    accept_if_better(dag, machine, base, cand, proven)
}

/// Runs `ILPpart`: one back-to-front pass that splits the supersteps into
/// intervals sized by the variable estimate and reoptimizes each window.
/// Monotone in true cost.
pub fn ilp_part(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    cfg: &IlpConfig,
    stop: &Stop,
) -> BspSchedule {
    let mut current = compact_lazy(dag, sched);
    let s_total = current.n_supersteps();
    if s_total <= 1 {
        return current;
    }
    // Build disjoint intervals from back to front, growing each until
    // the variable estimate exceeds the target (paper §6).
    let mut intervals: Vec<(u32, u32)> = Vec::new();
    let mut hi = s_total as i64 - 1;
    while hi >= 0 {
        let mut lo = hi;
        loop {
            let nodes = count_nodes_in(&current, lo as u32, hi as u32);
            let est = WindowIlp::estimate_vars(nodes, (hi - lo + 1) as usize, machine.p());
            if est > cfg.part_target_vars && lo < hi {
                lo += 1; // revert the last extension
                break;
            }
            if lo == 0 || est > cfg.part_target_vars {
                break;
            }
            lo -= 1;
        }
        intervals.push((lo as u32, hi as u32));
        hi = lo - 1;
    }
    for &(s1, s2) in &intervals {
        if count_nodes_in(&current, s1, s2) == 0 {
            continue;
        }
        let w = WindowIlp::build(dag, machine, &current, s1, s2, WindowOptions::default());
        let warm = w.warm_start(dag, machine, &current);
        debug_assert!(
            w.model.is_feasible(&warm, 1e-5),
            "warm start must satisfy the window model"
        );
        let sol = solve_model(&w.model, Some(&warm), &cfg.limits, stop);
        if sol.x.is_empty() {
            continue;
        }
        let cand = w.extract(&sol.x, &current);
        let (next, _) = accept_if_better(dag, machine, current, cand, false);
        current = next;
    }
    compact_lazy(dag, &current)
}

fn count_nodes_in(sched: &BspSchedule, s1: u32, s2: u32) -> usize {
    sched
        .steps()
        .iter()
        .filter(|&&s| s >= s1 && s <= s2)
        .count()
}

fn accept_if_better(
    dag: &Dag,
    machine: &BspParams,
    base: BspSchedule,
    cand: BspSchedule,
    proven: bool,
) -> (BspSchedule, bool) {
    if !cand.respects_precedence_lazy(dag) {
        return (base, false);
    }
    let base_cost = lazy_cost(dag, machine, &base);
    let cand_cost = lazy_cost(dag, machine, &compact_lazy(dag, &cand));
    if cand_cost < base_cost {
        (compact_lazy(dag, &cand), proven)
    } else {
        (base, proven && cand_cost == base_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_schedule::validity::validate_lazy;

    fn tiny_dag() -> Dag {
        // Two independent chains of 2 plus one join node.
        let mut b = DagBuilder::new();
        let a1 = b.add_node(2, 1);
        let a2 = b.add_node(2, 1);
        let b1 = b.add_node(2, 1);
        let b2 = b.add_node(2, 1);
        let j = b.add_node(1, 1);
        b.add_edge(a1, a2).unwrap();
        b.add_edge(b1, b2).unwrap();
        b.add_edge(a2, j).unwrap();
        b.add_edge(b2, j).unwrap();
        b.build().unwrap()
    }

    /// A stop that never fires: the solver's own limits rule.
    fn never() -> Stop {
        Stop::new(None, None)
    }

    #[test]
    fn ilp_full_improves_bad_schedule() {
        let dag = tiny_dag();
        let machine = BspParams::new(2, 1, 2);
        // Deliberately bad: everything serialized on one processor across
        // many supersteps.
        let bad = BspSchedule::from_parts(vec![0, 0, 0, 0, 0], vec![0, 1, 2, 3, 4]);
        let before = lazy_cost(&dag, &machine, &bad);
        let (better, _) = ilp_full(&dag, &machine, &bad, &IlpConfig::default(), &never());
        let after = lazy_cost(&dag, &machine, &better);
        assert!(validate_lazy(&dag, 2, &better).is_ok());
        assert!(after <= before);
        assert!(
            after < before,
            "expected strict improvement: {before} -> {after}"
        );
    }

    #[test]
    fn ilp_full_skips_oversized_problems() {
        let dag = tiny_dag();
        let machine = BspParams::new(2, 1, 2);
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 0, 0], vec![0, 1, 2, 3, 4]);
        let cfg = IlpConfig {
            full_max_vars: 1,
            ..Default::default()
        };
        let (out, proven) = ilp_full(&dag, &machine, &sched, &cfg, &never());
        assert!(!proven);
        assert_eq!(
            lazy_cost(&dag, &machine, &out),
            lazy_cost(&dag, &machine, &sched)
        );
    }

    #[test]
    fn ilp_part_never_worsens() {
        let dag = tiny_dag();
        let machine = BspParams::new(2, 2, 3);
        let sched = BspSchedule::from_parts(vec![0, 1, 1, 0, 1], vec![0, 1, 0, 1, 2]);
        assert!(validate_lazy(&dag, 2, &sched).is_ok());
        let before = lazy_cost(&dag, &machine, &sched);
        let cfg = IlpConfig {
            part_target_vars: 200,
            ..Default::default()
        };
        let out = ilp_part(&dag, &machine, &sched, &cfg, &never());
        assert!(validate_lazy(&dag, 2, &out).is_ok());
        assert!(lazy_cost(&dag, &machine, &out) <= before);
    }

    #[test]
    fn window_model_is_the_same_on_every_build() {
        // Two builds of one window in one process must agree row by row and
        // term by term: the simplex pivots in row order, so a model laid out
        // in per-map hash order sends branch-and-bound down a different
        // path on every build.
        let dag = tiny_dag();
        let machine = BspParams::new(3, 1, 2);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1, 2], vec![0, 1, 0, 1, 2]);
        assert!(validate_lazy(&dag, 3, &sched).is_ok());
        let build = |s1, s2| {
            window::WindowIlp::build(&dag, &machine, &sched, s1, s2, Default::default()).model
        };
        for (s1, s2) in [(0, 2), (1, 2)] {
            let (a, b) = (build(s1, s2), build(s1, s2));
            assert_eq!(a.bounds(), b.bounds(), "window [{s1},{s2}]");
            assert_eq!(a.n_constraints(), b.n_constraints());
            for (i, (ca, cb)) in a.constraints().iter().zip(b.constraints()).enumerate() {
                assert_eq!(
                    (&ca.terms, ca.sense, ca.rhs),
                    (&cb.terms, cb.sense, cb.rhs),
                    "window [{s1},{s2}], row {i}"
                );
            }
        }
    }

    #[test]
    fn warm_start_is_always_model_feasible() {
        // The strongest formulation test: the incumbent schedule must map to
        // a feasible point of the window model, for full and partial windows.
        let dag = tiny_dag();
        let machine = BspParams::new(2, 1, 2);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 1, 0], vec![0, 1, 0, 1, 2]);
        assert!(validate_lazy(&dag, 2, &sched).is_ok());
        let s_max = sched.n_supersteps();
        for s1 in 0..s_max {
            for s2 in s1..s_max {
                let w = window::WindowIlp::build(
                    &dag,
                    &machine,
                    &sched,
                    s1,
                    s2,
                    window::WindowOptions::default(),
                );
                let warm = w.warm_start(&dag, &machine, &sched);
                assert!(
                    w.model.is_feasible(&warm, 1e-5),
                    "warm start infeasible for window [{s1},{s2}]"
                );
            }
        }
    }
}
