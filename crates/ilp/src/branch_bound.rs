//! Depth-first branch-and-bound over integer variables.
//!
//! The solver is warm-startable and anytime: it maintains an incumbent
//! (initialized from the caller's feasible point when given) and only ever
//! replaces it with strictly better solutions, so the result is never worse
//! than the warm start — the contract the scheduling pipeline needs when it
//! uses ILP stages as bounded-effort refinement (paper §4.4, §6).
//!
//! **One tableau per search.** A node differs from the node solved before
//! it — its parent, or after a backtrack some cousin — in variable bounds
//! only, so the search keeps a single [`LpWorkspace`], whatever its depth,
//! and clones nothing per level. The root is solved cold. Every later node
//! *rebases* that tableau to its own bounds — a nonbasic column whose
//! bounds moved takes the side the sign of its reduced cost allows (lower
//! if `d ≥ 0`, else upper), so un-fixing on the way back up is as legal as
//! fixing on the way down, and the tableau stays dual feasible — and
//! re-solves it by dual simplex: a child of the node just solved typically
//! takes a handful of pivots where a cold solve takes hundreds.
//!
//! **When it falls back.** The workspace throws the tableau away and solves
//! the node cold — counted in [`MipSolution::cold_fallbacks`] — when a
//! re-solve ends in anything but optimal or infeasible, when its point
//! misses a row by more than 10⁻⁶, when there is no tableau to start from
//! (the previous cold solve did not end optimal), and when the re-solve has
//! already done the arithmetic of the cold solve that built the tableau: a
//! jump across the tree can need hundreds of pivots on a tableau that has
//! filled in, and the fresh tableau a cold solve leaves is sparse again.
//! The rounding heuristic fixes every integer and solves that much easier
//! LP cold, on a tableau of its own.

use crate::model::{Model, VarId};
use crate::simplex::{LpCounts, LpStatus, LpWorkspace};
use std::time::{Duration, Instant};

/// Node/time/gap limits for the search.
#[derive(Debug, Clone)]
pub struct SolveLimits {
    /// Maximum number of branch-and-bound nodes to expand.
    pub max_nodes: usize,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Prune when the LP bound is within `gap` of the incumbent.
    pub gap: f64,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            max_nodes: 20_000,
            time_limit: Duration::from_secs(10),
            gap: 1e-6,
        }
    }
}

/// Final status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Search space exhausted; the incumbent is optimal.
    Optimal,
    /// A feasible solution is known but optimality was not proven
    /// (limits hit).
    Feasible,
    /// Search exhausted without finding any feasible solution.
    Infeasible,
    /// Limits hit before any feasible solution was found.
    Unknown,
}

/// Result of a MIP solve. `x` is empty unless a feasible solution is known.
#[derive(Debug, Clone)]
pub struct MipSolution {
    /// Solve status.
    pub status: MipStatus,
    /// Best known feasible point (original variable space).
    pub x: Vec<f64>,
    /// Objective at `x` (`f64::INFINITY` if none).
    pub objective: f64,
    /// Number of nodes expanded.
    pub nodes: usize,
    /// LP relaxations solved: one per node with a bound to compute, plus
    /// the rounding heuristic's.
    pub lp_solves: usize,
    /// Simplex pivots over all of them.
    pub pivots: usize,
    /// Node LPs re-solved from the search's one tableau.
    pub warm_resolves: usize,
    /// Node LPs past the root that were solved cold instead.
    pub cold_fallbacks: usize,
}

impl MipSolution {
    /// The answer of a model proven infeasible without any search.
    pub(crate) fn infeasible() -> Self {
        MipSolution {
            status: MipStatus::Infeasible,
            x: Vec::new(),
            objective: f64::INFINITY,
            nodes: 0,
            lp_solves: 0,
            pivots: 0,
            warm_resolves: 0,
            cold_fallbacks: 0,
        }
    }
}

const INT_TOL: f64 = 1e-6;

struct SearchState {
    best_x: Option<Vec<f64>>,
    best_obj: f64,
    nodes: usize,
    limits: SolveLimits,
    deadline: Option<Instant>,
    exhausted: bool,
    /// The search's one tableau.
    lp: LpWorkspace,
    /// Cold solves of the rounding heuristic, and their pivots.
    rounding: LpCounts,
}

impl Model {
    /// Solves the model by branch and bound, optionally warm-started with a
    /// feasible point. See [`SolveLimits`] for budgets.
    pub fn solve(&self, warm_start: Option<&[f64]>, limits: &SolveLimits) -> MipSolution {
        solve_mip(self, warm_start, limits)
    }
}

/// Solves `model` (minimization) by LP-based branch and bound.
pub fn solve_mip(model: &Model, warm_start: Option<&[f64]>, limits: &SolveLimits) -> MipSolution {
    let mut state = SearchState {
        best_x: None,
        best_obj: f64::INFINITY,
        nodes: 0,
        limits: limits.clone(),
        // A limit too large to be a representable instant is no limit.
        deadline: Instant::now().checked_add(limits.time_limit),
        exhausted: true,
        lp: LpWorkspace::default(),
        rounding: LpCounts::default(),
    };
    if let Some(w) = warm_start {
        if model.is_feasible(w, 1e-6) {
            state.best_obj = model.eval_objective(w);
            state.best_x = Some(w.to_vec());
        }
    }
    let mut work = model.clone();
    dfs(&mut work, &mut state, 0);

    let status = match (&state.best_x, state.exhausted) {
        (Some(_), true) => MipStatus::Optimal,
        (Some(_), false) => MipStatus::Feasible,
        (None, true) => MipStatus::Infeasible,
        (None, false) => MipStatus::Unknown,
    };
    let lp = state.lp.counts();
    MipSolution {
        status,
        objective: state.best_obj,
        x: state.best_x.unwrap_or_default(),
        nodes: state.nodes,
        lp_solves: lp.lp_solves + state.rounding.lp_solves,
        pivots: lp.pivots + state.rounding.pivots,
        warm_resolves: lp.warm_resolves,
        cold_fallbacks: lp.cold_fallbacks,
    }
}

fn dfs(work: &mut Model, state: &mut SearchState, depth: usize) {
    let out_of_time = state.deadline.is_some_and(|d| Instant::now() >= d);
    if state.nodes >= state.limits.max_nodes || out_of_time {
        state.exhausted = false;
        return;
    }
    state.nodes += 1;

    let lp = if state.nodes == 1 {
        state.lp.solve(work, state.deadline)
    } else {
        state.lp.resolve(work, state.deadline)
    };
    let (frac, x) = match lp.status {
        LpStatus::Infeasible => return,
        LpStatus::IterationLimit if state.lp.refused() => {
            // Too large to tableau at all, and a child is no smaller:
            // the search stops with what it has.
            state.exhausted = false;
            return;
        }
        LpStatus::Unbounded | LpStatus::IterationLimit => {
            // No usable bound: branch blindly on the first non-fixed integer.
            match first_unfixed_integer(work) {
                None => {
                    state.exhausted = false; // cannot certify anything here
                    return;
                }
                Some(v) => {
                    branch_on(work, state, v, work.lower(v), depth);
                    return;
                }
            }
        }
        LpStatus::Optimal => {
            if lp.objective >= state.best_obj - state.limits.gap {
                return; // pruned by bound
            }
            (work.fractional_vars(&lp.x, INT_TOL), lp.x)
        }
    };

    if frac.is_empty() {
        // Integral LP optimum: new incumbent (bound check above ensures improvement).
        let mut xi = x;
        round_integers(work, &mut xi);
        if work.is_feasible(&xi, 1e-5) {
            let obj = work.eval_objective(&xi);
            if obj < state.best_obj {
                state.best_obj = obj;
                state.best_x = Some(xi);
            }
        }
        return;
    }

    // Rounding heuristic: fix integers at rounded LP values, re-solve for
    // the continuous part. Cheap relative to the subtree it may prune.
    if depth.is_multiple_of(4) {
        try_rounding(work, &x, state);
    }

    // Branch on the most fractional integer variable.
    let v = *frac
        .iter()
        .max_by(|&&a, &&b| {
            let fa = (x[a.index()] - x[a.index()].round()).abs();
            let fb = (x[b.index()] - x[b.index()].round()).abs();
            fa.partial_cmp(&fb).unwrap()
        })
        .unwrap();
    branch_on(work, state, v, x[v.index()], depth);
}

/// Explores the two children `v <= floor(val)` and `v >= ceil(val)`,
/// LP-guided child first.
fn branch_on(work: &mut Model, state: &mut SearchState, v: VarId, val: f64, depth: usize) {
    let (lo, hi) = (work.lower(v), work.upper(v));
    let floor = val.floor().clamp(lo, hi);
    let ceil = val.ceil().clamp(lo, hi);
    let down_first = val - floor <= ceil - val;

    let explore = |work: &mut Model, state: &mut SearchState, new_lo: f64, new_hi: f64| {
        if new_lo > new_hi {
            return;
        }
        work.set_bounds(v, new_lo, new_hi);
        dfs(work, state, depth + 1);
        work.set_bounds(v, lo, hi);
    };

    if down_first {
        explore(work, state, lo, floor);
        explore(work, state, (floor + 1.0).max(ceil), hi);
    } else {
        explore(work, state, ceil.max(lo), hi);
        explore(work, state, lo, (ceil - 1.0).min(floor));
    }
}

fn first_unfixed_integer(m: &Model) -> Option<VarId> {
    (0..m.n_vars())
        .map(VarId)
        .find(|&v| m.is_integer(v) && m.upper(v) - m.lower(v) > INT_TOL)
}

fn round_integers(m: &Model, x: &mut [f64]) {
    for i in 0..m.n_vars() {
        let v = VarId(i);
        if m.is_integer(v) {
            x[i] = x[i].round().clamp(m.lower(v), m.upper(v));
        }
    }
}

/// Fixes every integer at its rounded LP value, re-solves the continuous LP
/// and records the incumbent if feasible and improving.
fn try_rounding(work: &mut Model, x: &[f64], state: &mut SearchState) {
    let ints: Vec<(VarId, f64, f64)> = (0..work.n_vars())
        .map(VarId)
        .filter(|&v| work.is_integer(v))
        .map(|v| (v, work.lower(v), work.upper(v)))
        .collect();
    for &(v, lo, hi) in &ints {
        let r = x[v.index()].round().clamp(lo, hi);
        work.set_bounds(v, r, r);
    }
    let mut cold = LpWorkspace::default();
    let lp = cold.solve(work, state.deadline);
    state.rounding.lp_solves += 1;
    state.rounding.pivots += cold.counts().pivots;
    if lp.status == LpStatus::Optimal && lp.objective < state.best_obj {
        let mut xi = lp.x;
        round_integers(work, &mut xi);
        if work.is_feasible(&xi, 1e-5) {
            state.best_obj = work.eval_objective(&xi);
            state.best_x = Some(xi);
        }
    }
    for &(v, lo, hi) in &ints {
        work.set_bounds(v, lo, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn limits() -> SolveLimits {
        SolveLimits {
            max_nodes: 10_000,
            time_limit: Duration::from_secs(20),
            gap: 1e-6,
        }
    }

    /// A model past `MAX_TABLEAU_ENTRIES` gets no tableau, at the root or
    /// below it: the search stops at once and keeps the warm start.
    #[test]
    fn a_model_too_large_to_tableau_keeps_its_warm_start() {
        let n = 3000;
        let mut m = Model::new();
        let x: Vec<VarId> = (0..n).map(|_| m.add_binary(-1.0)).collect();
        for i in 0..n {
            m.add_constraint(vec![(x[i], 1.0), (x[(i + 1) % n], 1.0)], Sense::Le, 1.0);
        }
        // n rows, n structurals and n slacks.
        assert!(n * 2 * n > crate::simplex::MAX_TABLEAU_ENTRIES);
        assert_eq!(
            crate::simplex::solve_lp(&m).status,
            LpStatus::IterationLimit
        );
        let warm = vec![0.0; n];
        let sol = m.solve(Some(&warm), &limits());
        assert_eq!(sol.status, MipStatus::Feasible);
        assert_eq!(sol.x, warm);
        assert_eq!(sol.nodes, 1);
    }

    /// Brute force over all binary assignments for cross-checking.
    fn brute_force_binary(m: &Model) -> Option<f64> {
        let n = m.n_vars();
        assert!(n <= 20);
        let mut best = None;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            if m.is_feasible(&x, 1e-9) {
                let obj = m.eval_objective(&x);
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
        best
    }

    #[test]
    fn knapsack_matches_brute_force() {
        // max Σ v_i x_i st Σ w_i x_i <= W.
        let values = [10.0, 13.0, 7.0, 11.0, 3.0, 8.0];
        let weights = [5.0, 6.0, 3.0, 5.0, 1.0, 4.0];
        let mut m = Model::new();
        let xs: Vec<_> = values.iter().map(|&v| m.add_binary(-v)).collect();
        m.add_constraint(
            xs.iter().zip(weights).map(|(&x, w)| (x, w)).collect(),
            Sense::Le,
            12.0,
        );
        let sol = m.solve(None, &limits());
        assert_eq!(sol.status, MipStatus::Optimal);
        let bf = brute_force_binary(&m).unwrap();
        assert!(
            (sol.objective - bf).abs() < 1e-6,
            "{} vs {}",
            sol.objective,
            bf
        );
    }

    #[test]
    fn assignment_problem_integral() {
        // 3x3 assignment: costs c[i][j]; exact cover constraints.
        let c = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new();
        let mut xs = [[VarId(0); 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                xs[i][j] = m.add_binary(c[i][j]);
            }
        }
        for i in 0..3 {
            m.add_constraint((0..3).map(|j| (xs[i][j], 1.0)).collect(), Sense::Eq, 1.0);
            m.add_constraint((0..3).map(|j| (xs[j][i], 1.0)).collect(), Sense::Eq, 1.0);
        }
        let sol = m.solve(None, &limits());
        assert_eq!(sol.status, MipStatus::Optimal);
        // Optimal: (0,0)->4? enumerate: best is 4+3+1? check brute: rows to cols
        // perms: 4+3+6=13, 4+7+1=12, 2+4+6=12, 2+7+3=12, 8+4+1=13, 8+3+3=14 -> 12.
        assert!((sol.objective - 12.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let sol = m.solve(None, &limits());
        assert_eq!(sol.status, MipStatus::Infeasible);
    }

    #[test]
    fn warm_start_never_worsened() {
        // Feasible warm start; tiny node budget so search can't finish.
        let mut m = Model::new();
        let xs: Vec<_> = (0..8).map(|_| m.add_binary(-1.0)).collect();
        m.add_constraint(xs.iter().map(|&x| (x, 1.0)).collect(), Sense::Le, 4.0);
        let warm = vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let tight = SolveLimits {
            max_nodes: 1,
            time_limit: Duration::from_secs(5),
            gap: 1e-6,
        };
        let sol = m.solve(Some(&warm), &tight);
        assert!(sol.objective <= -2.0 + 1e-9);
        assert!(!sol.x.is_empty());
        assert!(m.is_feasible(&sol.x, 1e-6));
    }

    #[test]
    fn unrepresentable_time_limit_is_no_limit() {
        // `Instant::now() + Duration::MAX` used to panic.
        let mut m = Model::new();
        let xs: Vec<_> = (0..6).map(|i| m.add_binary(-(i as f64) - 1.0)).collect();
        m.add_constraint(xs.iter().map(|&x| (x, 2.0)).collect(), Sense::Le, 7.0);
        let with = |time_limit| {
            m.solve(
                None,
                &SolveLimits {
                    time_limit,
                    ..limits()
                },
            )
        };
        let (unlimited, bounded) = (with(Duration::MAX), with(Duration::from_secs(20)));
        assert_eq!(unlimited.status, MipStatus::Optimal);
        assert_eq!(unlimited.x, bounded.x);
        assert_eq!(unlimited.nodes, bounded.nodes);
    }

    /// A knapsack with a side constraint: fractional at the root and at
    /// most nodes, so the search dives, backtracks and un-fixes.
    fn branching_model() -> Model {
        let values = [15.0, 14.0, 13.0, 9.0, 8.0, 7.0, 5.0, 4.0];
        let weights = [7.0, 6.0, 6.0, 5.0, 4.0, 3.0, 3.0, 2.0];
        let mut m = Model::new();
        let xs: Vec<_> = values.iter().map(|&v| m.add_binary(-v)).collect();
        let weighted = |w: &[f64]| xs.iter().zip(w).map(|(&x, &w)| (x, w)).collect();
        m.add_constraint(weighted(&weights), Sense::Le, 17.0);
        m.add_constraint(weighted(&[1.0; 8]), Sense::Le, 4.0);
        m
    }

    #[test]
    fn every_node_past_the_root_re_solves_the_one_tableau() {
        let sol = branching_model().solve(None, &limits());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!(sol.nodes > 4, "the model must branch: {} nodes", sol.nodes);
        assert_eq!(sol.cold_fallbacks, 0);
        assert_eq!(sol.warm_resolves, sol.nodes - 1);
        // One LP per node plus the rounding heuristic's.
        assert!(sol.lp_solves > sol.nodes);
        assert!(sol.pivots > 0);
    }

    #[test]
    fn counts_and_point_repeat_exactly() {
        let m = branching_model();
        let (a, b) = (m.solve(None, &limits()), m.solve(None, &limits()));
        let counts = |s: &MipSolution| {
            (
                s.nodes,
                s.lp_solves,
                s.pivots,
                s.warm_resolves,
                s.cold_fallbacks,
            )
        };
        assert_eq!(counts(&a), counts(&b));
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.x), bits(&b.x));
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y st y >= 1.5 x, x binary, y <= 10, maximize x via -x term.
        let mut m = Model::new();
        let x = m.add_binary(-10.0);
        let y = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(vec![(y, 1.0), (x, -1.5)], Sense::Ge, 0.0);
        let sol = m.solve(None, &limits());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!((sol.x[0] - 1.0).abs() < 1e-6);
        assert!((sol.x[1] - 1.5).abs() < 1e-5);
        assert!((sol.objective - (-10.0 + 1.5)).abs() < 1e-5);
    }

    #[test]
    fn general_integer_branching() {
        // max 7a + 2b st 3a + b <= 11, a <= 3, b <= 5, integer: a=3, b=2.
        let mut m = Model::new();
        let a = m.add_integer(0.0, 3.0, -7.0);
        let b = m.add_integer(0.0, 5.0, -2.0);
        m.add_constraint(vec![(a, 3.0), (b, 1.0)], Sense::Le, 11.0);
        let sol = m.solve(None, &limits());
        assert_eq!(sol.status, MipStatus::Optimal);
        assert!((sol.objective - (-25.0)).abs() < 1e-6);
    }

    #[test]
    fn random_binary_models_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..9);
            let mut m = Model::new();
            let xs: Vec<_> = (0..n)
                .map(|_| m.add_binary(rng.gen_range(-9.0..9.0_f64).round()))
                .collect();
            for _ in 0..rng.gen_range(1..5) {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &x in &xs {
                    if rng.gen_bool(0.7) {
                        terms.push((x, rng.gen_range(-4.0..5.0_f64).round()));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let sense = match rng.gen_range(0..3) {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Eq,
                };
                let rhs = rng.gen_range(-3.0..6.0_f64).round();
                m.add_constraint(terms, sense, rhs);
            }
            let sol = m.solve(None, &limits());
            let bf = brute_force_binary(&m);
            match bf {
                None => assert_eq!(sol.status, MipStatus::Infeasible, "seed {seed}"),
                Some(opt) => {
                    assert_eq!(sol.status, MipStatus::Optimal, "seed {seed}");
                    assert!(
                        (sol.objective - opt).abs() < 1e-5,
                        "seed {seed}: {} vs {opt}",
                        sol.objective
                    );
                }
            }
        }
    }
}
