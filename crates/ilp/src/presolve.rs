//! Presolve: feasibility-preserving model reduction before branch and bound.
//!
//! Mirrors (a small core of) what CBC's preprocessing does for the paper's
//! ILP stages: iterated *activity-based bound tightening*, rounding of
//! integer bounds, detection of trivially redundant constraints, and early
//! infeasibility detection. Every transformation preserves the feasible
//! region exactly (over the original variable space), so any solution of
//! the presolved model is a solution of the original and vice versa —
//! the warm-start contract of [`crate::branch_bound`] is unaffected.

use crate::branch_bound::{solve_mip, MipSolution, SolveLimits};
use crate::model::{Constraint, Model, Sense, VarId};

const TOL: f64 = 1e-9;

/// Outcome of a presolve pass.
#[derive(Debug, Clone)]
pub struct PresolveResult {
    /// The reduced model, over the *same* variable space as the input.
    pub model: Model,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Number of bound tightenings applied.
    pub tightened: usize,
    /// Variables whose domain collapsed to a single value.
    pub fixed: usize,
    /// Constraints dropped as redundant.
    pub dropped: usize,
    /// Whether the model was proven infeasible.
    pub infeasible: bool,
}

/// Runs presolve to a fixpoint (bounded at `max_rounds = 16`).
pub fn presolve(model: &Model) -> PresolveResult {
    let n = model.n_vars();
    let mut lower: Vec<f64> = (0..n).map(|i| model.lower(VarId(i))).collect();
    let mut upper: Vec<f64> = (0..n).map(|i| model.upper(VarId(i))).collect();
    let integer: Vec<bool> = (0..n).map(|i| model.is_integer(VarId(i))).collect();
    let mut alive: Vec<bool> = vec![true; model.n_constraints()];
    let mut tightened = 0usize;
    let mut dropped = 0usize;
    let mut rounds = 0usize;
    let mut infeasible = false;

    // Initial integer rounding.
    for i in 0..n {
        if integer[i] {
            let (l, u) = (lower[i].ceil() - TOL, upper[i].floor() + TOL);
            let (l, u) = (lower[i].max(l.round()), upper[i].min(u.round()));
            if l > lower[i] + TOL || u < upper[i] - TOL {
                tightened += 1;
            }
            lower[i] = lower[i].max(l);
            upper[i] = upper[i].min(u);
        }
        if lower[i] > upper[i] + TOL {
            infeasible = true;
        }
    }

    'fixpoint: while !infeasible && rounds < 16 {
        rounds += 1;
        let mut changed = false;
        for (ci, c) in model.constraints().iter().enumerate() {
            if !alive[ci] {
                continue;
            }
            // Decompose into ≤-rows: Le→(terms ≤ rhs); Ge→(−terms ≤ −rhs);
            // Eq→both.
            let as_le: &[(f64, f64)] = match c.sense {
                Sense::Le => &[(1.0, c.rhs)],
                Sense::Ge => &[(-1.0, -c.rhs)],
                Sense::Eq => &[(1.0, c.rhs), (-1.0, -c.rhs)],
            };
            let mut redundant = true;
            for &(sign, rhs) in as_le {
                match tighten_le_row(c, sign, rhs, &mut lower, &mut upper, &integer) {
                    RowOutcome::Infeasible => {
                        infeasible = true;
                        break 'fixpoint;
                    }
                    RowOutcome::Tightened(k) => {
                        tightened += k;
                        changed = true;
                        redundant = false;
                    }
                    RowOutcome::Redundant => {}
                    RowOutcome::Unchanged => redundant = false,
                }
            }
            if redundant {
                alive[ci] = false;
                dropped += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Rebuild the model over the same variable space.
    let mut out = Model::new();
    let mut fixed = 0usize;
    for i in 0..n {
        let (l, u) = (lower[i], upper[i]);
        let obj = model.objective_coeff(VarId(i));
        let v = if integer[i] {
            out.add_integer(l.min(u), u.max(l), obj)
        } else {
            out.add_continuous(l.min(u), u.max(l), obj)
        };
        debug_assert_eq!(v.index(), i);
        if (u - l).abs() <= TOL {
            fixed += 1;
        }
    }
    for (ci, c) in model.constraints().iter().enumerate() {
        if alive[ci] {
            out.add_constraint(c.terms.clone(), c.sense, c.rhs);
        }
    }
    PresolveResult {
        model: out,
        rounds,
        tightened,
        fixed,
        dropped,
        infeasible,
    }
}

enum RowOutcome {
    Infeasible,
    Redundant,
    Tightened(usize),
    Unchanged,
}

/// Processes one `sign·terms ≤ rhs` row: detects infeasibility/redundancy
/// from activity bounds and tightens variable bounds from residuals.
fn tighten_le_row(
    c: &Constraint,
    sign: f64,
    rhs: f64,
    lower: &mut [f64],
    upper: &mut [f64],
    integer: &[bool],
) -> RowOutcome {
    // min/max activity of the row.
    let mut min_act = 0.0f64;
    let mut max_act = 0.0f64;
    for &(v, coef) in &c.terms {
        let a = sign * coef;
        let (l, u) = (lower[v.index()], upper[v.index()]);
        if a >= 0.0 {
            min_act += a * l;
            max_act += a * u;
        } else {
            min_act += a * u;
            max_act += a * l;
        }
    }
    if min_act > rhs + 1e-6 {
        return RowOutcome::Infeasible;
    }
    if max_act <= rhs + TOL {
        return RowOutcome::Redundant;
    }

    let mut k = 0usize;
    for &(v, coef) in &c.terms {
        let a = sign * coef;
        if a.abs() < TOL {
            continue;
        }
        let i = v.index();
        let (l, u) = (lower[i], upper[i]);
        // Activity of the row excluding variable v's own contribution.
        let own_min = if a >= 0.0 { a * l } else { a * u };
        let resid = rhs - (min_act - own_min);
        if a > 0.0 {
            let mut new_u = resid / a;
            if integer[i] {
                new_u = (new_u + TOL).floor();
            }
            if new_u < u - 1e-7 {
                upper[i] = new_u.max(l);
                if new_u < l - 1e-6 {
                    return RowOutcome::Infeasible;
                }
                k += 1;
            }
        } else {
            let mut new_l = resid / a;
            if integer[i] {
                new_l = (new_l - TOL).ceil();
            }
            if new_l > l + 1e-7 {
                lower[i] = new_l.min(u);
                if new_l > u + 1e-6 {
                    return RowOutcome::Infeasible;
                }
                k += 1;
            }
        }
    }
    if k > 0 {
        RowOutcome::Tightened(k)
    } else {
        RowOutcome::Unchanged
    }
}

/// Convenience: presolve, then branch and bound on the reduced model. The
/// warm start (a feasible point of the *original* model) remains valid
/// because presolve preserves the feasible region.
pub fn solve_with_presolve(
    model: &Model,
    warm_start: Option<&[f64]>,
    limits: &SolveLimits,
) -> MipSolution {
    let pre = presolve(model);
    if pre.infeasible {
        // A caller-supplied warm start contradicts proven infeasibility only
        // if it was infeasible to begin with; report infeasible.
        return MipSolution::infeasible();
    }
    solve_mip(&pre.model, warm_start, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::MipStatus;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tightens_binary_sum_bound() {
        // x + y + z <= 1 with binaries: no single bound can tighten, but
        // 2x + 2y <= 1 forces x = y = 0.
        let mut m = Model::new();
        let x = m.add_binary(0.0);
        let y = m.add_binary(0.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Sense::Le, 1.0);
        let pre = presolve(&m);
        assert!(!pre.infeasible);
        assert_eq!(pre.model.upper(x), 0.0);
        assert_eq!(pre.model.upper(y), 0.0);
        assert_eq!(pre.fixed, 2);
    }

    #[test]
    fn integer_bounds_rounded() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Sense::Le, 7.0); // x ≤ 3.5 → 3
        let pre = presolve(&m);
        assert_eq!(pre.model.upper(x), 3.0);
    }

    #[test]
    fn ge_rows_tighten_lower_bounds() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Sense::Ge, 5.0); // x ≥ 2.5 → 3
        let pre = presolve(&m);
        assert_eq!(pre.model.lower(x), 3.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new();
        let x = m.add_binary(0.0);
        let y = m.add_binary(0.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let pre = presolve(&m);
        assert!(pre.infeasible);
        let sol = solve_with_presolve(&m, None, &SolveLimits::default());
        assert_eq!(sol.status, MipStatus::Infeasible);
    }

    #[test]
    fn drops_redundant_constraints() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 5.0); // always true
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 0.5); // real: x = 0
        let pre = presolve(&m);
        assert!(pre.dropped >= 1);
        assert!(pre.model.n_constraints() < m.n_constraints());
        assert_eq!(pre.model.upper(x), 0.0);
    }

    #[test]
    fn equality_rows_tighten_both_sides() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 9.0, 1.0);
        let y = m.add_integer(0.0, 9.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 3.0);
        let pre = presolve(&m);
        // x = 3 - y ∈ [3-9, 3-0] ∩ [0,9] = [0, 3].
        assert_eq!(pre.model.upper(x), 3.0);
        assert_eq!(pre.model.upper(y), 3.0);
    }

    #[test]
    fn chained_propagation_reaches_fixpoint() {
        // x ≤ y, y ≤ z, z ≤ 0 over [0, 5]: all must collapse to 0.
        let mut m = Model::new();
        let x = m.add_integer(0.0, 5.0, 1.0);
        let y = m.add_integer(0.0, 5.0, 1.0);
        let z = m.add_integer(0.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 0.0);
        m.add_constraint(vec![(y, 1.0), (z, -1.0)], Sense::Le, 0.0);
        m.add_constraint(vec![(z, 1.0)], Sense::Le, 0.0);
        let pre = presolve(&m);
        assert_eq!(pre.fixed, 3);
        for v in [x, y, z] {
            assert_eq!(pre.model.upper(v), 0.0);
        }
        assert!(pre.rounds >= 2, "chain needs at least two rounds");
    }

    #[test]
    fn presolve_preserves_optimum_on_random_binary_models() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..9);
            let mut m = Model::new();
            let xs: Vec<_> = (0..n)
                .map(|_| m.add_binary(rng.gen_range(-9.0..9.0_f64).round()))
                .collect();
            for _ in 0..rng.gen_range(1..6) {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &x in &xs {
                    if rng.gen_bool(0.6) {
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
                m.add_constraint(terms, sense, rng.gen_range(-3.0..6.0_f64).round());
            }
            let limits = SolveLimits::default();
            let direct = solve_mip(&m, None, &limits);
            let pre = solve_with_presolve(&m, None, &limits);
            assert_eq!(direct.status, pre.status, "seed {seed}");
            if direct.status == MipStatus::Optimal {
                assert!(
                    (direct.objective - pre.objective).abs() < 1e-6,
                    "seed {seed}: {} vs {}",
                    direct.objective,
                    pre.objective
                );
                // The presolved solution must be feasible in the original.
                assert!(m.is_feasible(&pre.x, 1e-6), "seed {seed}");
            }
        }
    }

    #[test]
    fn feasible_region_identical_on_random_points() {
        for seed in 100..110u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..7);
            let mut m = Model::new();
            let xs: Vec<_> = (0..n).map(|_| m.add_binary(0.0)).collect();
            for _ in 0..rng.gen_range(1..4) {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &x in &xs {
                    if rng.gen_bool(0.7) {
                        terms.push((x, rng.gen_range(-3.0..4.0_f64).round()));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                m.add_constraint(terms, Sense::Le, rng.gen_range(0.0..5.0_f64).round());
            }
            let pre = presolve(&m);
            for mask in 0..(1u32 << n) {
                let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
                let orig = m.is_feasible(&x, 1e-9);
                let red = !pre.infeasible && pre.model.is_feasible(&x, 1e-9);
                assert_eq!(orig, red, "seed {seed} mask {mask:b}");
            }
        }
    }
}
