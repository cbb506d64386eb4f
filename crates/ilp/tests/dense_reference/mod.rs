//! The dense two-phase primal simplex that was `bsp_ilp::simplex` until the
//! bounded-variable tableau replaced it, kept verbatim as the test-only
//! reference for the differential proptests: fixed variables substituted
//! away, the rest shifted to `x' = x − lower ≥ 0`, every finite upper bound
//! an explicit row with its own slack column, and a cold solve every time.
//!
//! The only edit is how an objective coefficient is read: `VarId`'s
//! constructor is private to the crate, so `objective_coeff` evaluates the
//! objective on a unit vector instead.

#![allow(dead_code)]

use bsp_ilp::simplex::{LpSolution, LpStatus};
use bsp_ilp::{Model, Sense};
use std::time::Instant;

const EPS: f64 = 1e-7;
const PIVOT_EPS: f64 = 1e-9;

/// Objective coefficient of model variable `v`.
fn objective_coeff(model: &Model, v: usize) -> f64 {
    let mut e = vec![0.0f64; model.n_vars()];
    e[v] = 1.0;
    model.eval_objective(&e)
}

/// Solves the LP relaxation of `model` (integrality dropped, bounds kept).
pub fn solve_lp(model: &Model) -> LpSolution {
    solve_lp_with_deadline(model, None)
}

/// Like [`solve_lp`] but aborts with [`LpStatus::IterationLimit`] once the
/// deadline passes (checked every few dozen pivots). Branch-and-bound
/// passes its remaining budget here so that one oversized LP cannot blow
/// the whole solve's wall clock.
pub fn solve_lp_with_deadline(model: &Model, deadline: Option<Instant>) -> LpSolution {
    let n = model.n_vars();
    let (lower, upper) = model.bounds();

    // Preprocess: substitute fixed variables, shift the rest to >= 0.
    let mut col_of = vec![usize::MAX; n]; // model var -> tableau structural column
    let mut var_of = Vec::new(); // tableau structural column -> model var
    for v in 0..n {
        if upper[v] - lower[v] > EPS {
            col_of[v] = var_of.len();
            var_of.push(v);
        } else if upper[v] < lower[v] - EPS {
            return LpSolution {
                status: LpStatus::Infeasible,
                x: vec![],
                objective: f64::INFINITY,
            };
        }
    }
    let ns = var_of.len(); // structural columns

    // Row data: (sparse terms over structural cols, sense, rhs).
    struct Row {
        terms: Vec<(usize, f64)>,
        sense: Sense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.n_constraints() + ns);
    for c in model.constraints() {
        let mut rhs = c.rhs;
        let mut terms = Vec::with_capacity(c.terms.len());
        for &(v, coef) in &c.terms {
            let vi = v.index();
            if col_of[vi] == usize::MAX {
                rhs -= coef * lower[vi]; // fixed variable
            } else {
                rhs -= coef * lower[vi]; // shift x = lower + x'
                terms.push((col_of[vi], coef));
            }
        }
        rows.push(Row {
            terms,
            sense: c.sense,
            rhs,
        });
    }
    // Bound rows x' <= upper - lower for finite upper bounds.
    for (col, &v) in var_of.iter().enumerate() {
        if upper[v].is_finite() {
            rows.push(Row {
                terms: vec![(col, 1.0)],
                sense: Sense::Le,
                rhs: upper[v] - lower[v],
            });
        }
    }

    // Normalize rhs >= 0.
    for r in &mut rows {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for t in &mut r.terms {
                t.1 = -t.1;
            }
            r.sense = match r.sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
    }

    let m = rows.len();
    // Columns: structural | slacks/surplus | artificials | rhs.
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for r in &rows {
        match r.sense {
            Sense::Le => n_slack += 1,
            Sense::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Sense::Eq => n_art += 1,
        }
    }
    let total = ns + n_slack + n_art;
    let width = total + 1; // + rhs
    let mut t = vec![0.0f64; (m + 1) * width]; // row 0 is the objective row
    let mut basis = vec![usize::MAX; m];
    let art_start = ns + n_slack;

    {
        let mut slack_i = 0usize;
        let mut art_i = 0usize;
        for (i, r) in rows.iter().enumerate() {
            let row = (i + 1) * width;
            for &(c, coef) in &r.terms {
                t[row + c] += coef;
            }
            t[row + total] = r.rhs;
            match r.sense {
                Sense::Le => {
                    t[row + ns + slack_i] = 1.0;
                    basis[i] = ns + slack_i;
                    slack_i += 1;
                }
                Sense::Ge => {
                    t[row + ns + slack_i] = -1.0;
                    slack_i += 1;
                    t[row + art_start + art_i] = 1.0;
                    basis[i] = art_start + art_i;
                    art_i += 1;
                }
                Sense::Eq => {
                    t[row + art_start + art_i] = 1.0;
                    basis[i] = art_start + art_i;
                    art_i += 1;
                }
            }
        }
    }

    let max_iters = 50 * (m + total) + 2000;
    let bland_after = 10 * (m + total) + 500;

    // --- Phase 1: minimize the sum of artificials.
    if n_art > 0 {
        // Objective row: sum of artificial rows (negated costs already folded
        // in by subtracting basic rows from the cost row).
        for j in 0..width {
            t[j] = 0.0;
        }
        for j in art_start..total {
            t[j] = 1.0;
        }
        for (i, &b) in basis.iter().enumerate() {
            if b >= art_start {
                let row = (i + 1) * width;
                for j in 0..width {
                    t[j] -= t[row + j];
                }
            }
        }
        match run_simplex(
            &mut t,
            &mut basis,
            m,
            total,
            width,
            max_iters,
            bland_after,
            None,
            deadline,
        ) {
            SimplexOutcome::Optimal => {}
            SimplexOutcome::Unbounded => {
                // Phase 1 objective is bounded below by 0; numerical trouble.
                return LpSolution {
                    status: LpStatus::IterationLimit,
                    x: vec![],
                    objective: 0.0,
                };
            }
            SimplexOutcome::IterationLimit => {
                return LpSolution {
                    status: LpStatus::IterationLimit,
                    x: vec![],
                    objective: 0.0,
                };
            }
        }
        // Phase-1 objective value is -t[total] (row 0 holds -obj).
        if -t[total] > 1e-6 {
            return LpSolution {
                status: LpStatus::Infeasible,
                x: vec![],
                objective: f64::INFINITY,
            };
        }
        // Pivot remaining artificials out of the basis where possible.
        for i in 0..m {
            if basis[i] >= art_start {
                let row = (i + 1) * width;
                if let Some(j) = (0..art_start).find(|&j| t[row + j].abs() > 1e-6) {
                    pivot(&mut t, m, width, i, j);
                    basis[i] = j;
                }
                // Otherwise the row is redundant (all-zero over real columns);
                // the artificial stays basic at value 0, which is harmless as
                // long as it can never re-enter (enforced below).
            }
        }
    }

    // --- Phase 2: original objective. Rebuild the cost row.
    for j in 0..width {
        t[j] = 0.0;
    }
    for (c, &v) in var_of.iter().enumerate() {
        t[c] = objective_coeff(model, v);
    }
    for (i, &b) in basis.iter().enumerate() {
        if b < ns {
            let cost = objective_coeff(model, var_of[b]);
            if cost != 0.0 {
                let row = (i + 1) * width;
                for j in 0..width {
                    t[j] -= cost * t[row + j];
                }
            }
        }
    }
    let outcome = run_simplex(
        &mut t,
        &mut basis,
        m,
        total,
        width,
        max_iters,
        bland_after,
        Some(art_start),
        deadline,
    );
    let status = match outcome {
        SimplexOutcome::Optimal => LpStatus::Optimal,
        SimplexOutcome::Unbounded => {
            return LpSolution {
                status: LpStatus::Unbounded,
                x: vec![],
                objective: f64::NEG_INFINITY,
            }
        }
        SimplexOutcome::IterationLimit => LpStatus::IterationLimit,
    };

    // Extract the primal point in original space.
    let mut x = vec![0.0f64; n];
    for v in 0..n {
        x[v] = lower[v];
    }
    for (i, &b) in basis.iter().enumerate() {
        if b < ns {
            x[var_of[b]] += t[(i + 1) * width + total];
        }
    }
    let objective = model.eval_objective(&x);
    LpSolution {
        status,
        x,
        objective,
    }
}

enum SimplexOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Runs primal simplex iterations on the tableau until optimality. Columns
/// `>= forbidden_from` (artificials in phase 2) may never enter the basis.
#[allow(clippy::too_many_arguments)]
fn run_simplex(
    t: &mut [f64],
    basis: &mut [usize],
    m: usize,
    total: usize,
    width: usize,
    max_iters: usize,
    bland_after: usize,
    forbidden_from: Option<usize>,
    deadline: Option<Instant>,
) -> SimplexOutcome {
    let limit = forbidden_from.unwrap_or(total);
    for iter in 0..max_iters {
        if iter % 64 == 0 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return SimplexOutcome::IterationLimit;
                }
            }
        }
        let bland = iter >= bland_after;
        // Entering column: most negative reduced cost (or Bland: first).
        let mut enter = usize::MAX;
        let mut best = -EPS;
        for j in 0..limit {
            let rc = t[j];
            if rc < best {
                enter = j;
                best = rc;
                if bland {
                    break;
                }
            }
        }
        if enter == usize::MAX {
            return SimplexOutcome::Optimal;
        }
        // Ratio test.
        let mut leave = usize::MAX;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = t[(i + 1) * width + enter];
            if a > PIVOT_EPS {
                let ratio = t[(i + 1) * width + total] / a;
                if ratio < best_ratio - 1e-12
                    || (bland
                        && (ratio - best_ratio).abs() <= 1e-12
                        && leave != usize::MAX
                        && basis[i] < basis[leave])
                {
                    best_ratio = ratio;
                    leave = i;
                }
            }
        }
        if leave == usize::MAX {
            return SimplexOutcome::Unbounded;
        }
        pivot(t, m, width, leave, enter);
        basis[leave] = enter;
    }
    SimplexOutcome::IterationLimit
}

/// Gauss-Jordan pivot on constraint row `row` (0-based) and column `col`.
fn pivot(t: &mut [f64], m: usize, width: usize, row: usize, col: usize) {
    let r = (row + 1) * width;
    let pv = t[r + col];
    debug_assert!(pv.abs() > PIVOT_EPS);
    let inv = 1.0 / pv;
    for j in 0..width {
        t[r + j] *= inv;
    }
    for i in 0..=m {
        if i == row + 1 {
            continue;
        }
        let base = i * width;
        let factor = t[base + col];
        if factor.abs() > 1e-12 {
            // Split borrows: copy the pivot row once per target row chunk.
            for j in 0..width {
                let pr = t[r + j];
                t[base + j] -= factor * pr;
            }
            t[base + col] = 0.0; // kill residual round-off
        }
    }
}
