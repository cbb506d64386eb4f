//! Bounded-variable tableau simplex for LP relaxations.
//!
//! **Bounded variables.** The rows of the tableau are the model's
//! constraints and nothing else: every column — structural, slack or
//! artificial — carries its own `[lo, hi]`, and a nonbasic column sits at
//! one of the two. A finite upper bound therefore costs neither a row nor a
//! slack column (the dense solver this replaced, kept as the test-only
//! reference in `tests/dense_reference`, paid both and ran a 443-variable
//! scheduling window as a 951 × 1 416 tableau; here it is 509 × 974).
//!
//! **The three ratio cases.** When a nonbasic column enters (moving up from
//! its lower bound or down from its upper one), the step ends at whichever
//! comes first: a basic variable reaches its *lower* bound, a basic variable
//! reaches its *upper* bound, or the entering variable reaches its own
//! opposite bound — in which case it *flips* sides and no pivot happens.
//! Among the basic variables the test is Harris's: near-ties go to the
//! largest pivot element, because at the degenerate vertices these models
//! are made of the first tie is as often as not an element of 10⁻⁶.
//!
//! **Basic values sit apart.** The value of each row's basic variable lives
//! in one contiguous vector (`beta`) beside the matrix instead of in a
//! right-hand-side column: ratio tests and violation scans read `m`
//! adjacent numbers instead of striding through the matrix, a bound flip or
//! a re-based bound updates `beta` alone, and a pivot walks only the
//! non-zeros of the pivot row (an index list reused across pivots) without
//! a special last column. Entries that cancel to round-off are snapped to
//! zero as they arise, so the tableau stays as sparse as its basis makes it.
//!
//! A cold solve is two-phase: rows are oriented so that the all-slack
//! basis is feasible where it can be, the remaining rows get an artificial
//! column, phase 1 drives the artificials to zero (each is fixed at `[0, 0]`
//! the moment it leaves the basis; after phase 1 their columns are no
//! longer touched), phase 2 optimises the real objective. Bland's rule is
//! engaged after a degeneracy threshold to guarantee termination.
//!
//! [`LpWorkspace`] keeps the optimal tableau and re-solves it after a change
//! of variable bounds — what branch and bound does at every node — by
//! *rebasing* (see [`LpWorkspace::resolve`]) and a bounded dual simplex.

use crate::model::{Model, Sense, VarId};
use std::time::Instant;

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration cap hit before convergence (rare; callers must treat the
    /// result as "no usable bound").
    IterationLimit,
}

/// LP relaxation result. `x` is in the variable space of the model; it is
/// only meaningful (and only non-empty) for [`LpStatus::Optimal`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Primal point (original variable space).
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
}

impl LpSolution {
    fn without_point(status: LpStatus) -> Self {
        let objective = match status {
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
            LpStatus::Optimal | LpStatus::IterationLimit => 0.0,
        };
        LpSolution {
            status,
            x: Vec::new(),
            objective,
        }
    }
}

/// Reduced-cost and bound-violation tolerance; bounds closer than this
/// make a column fixed.
const EPS: f64 = 1e-7;
/// Smallest pivot element: well above the round-off a true zero gathers over
/// the thousands of pivots one kept tableau lives through.
const PIVOT_EPS: f64 = 1e-7;
/// Slack the dual ratio test grants each reduced cost, so that near-ties
/// are decided by the size of the pivot element and not by round-off.
const DUAL_TIE: f64 = 1e-9;
/// The same for the primal ratio test, on each basic variable's distance
/// to its bound.
const PRIMAL_TIE: f64 = 1e-9;
/// A re-solved point that misses a row or a bound by more than this is not
/// trusted.
const RESIDUAL_TOL: f64 = 1e-6;
/// Tableau entries smaller than this are round-off and are snapped to zero
/// as they arise. The window models mix coefficients of 10⁻¹ and 10³; an
/// entry that cancels is left at 10⁻¹³ or so, later pivots multiply it up,
/// and every such entry is walked by every pivot after: the root LP of the
/// 443-variable window takes 45 ms without this line and 13 ms with it.
const DROP_EPS: f64 = 1e-12;
const NONE: usize = usize::MAX;

/// The largest tableau [`LpWorkspace::solve`] builds, in `m × width`
/// entries: 2²⁴, 128 MiB of `f64`. The tableau is dense, and a window
/// model of a 2 000-node superstep would need gigabytes; an allocation
/// that fails aborts the process. A model past the cap is answered
/// [`LpStatus::IterationLimit`] before anything is allocated. The largest
/// tableau the tests build is 1 102 × 2 371 (2.6 M entries), the
/// benchmark's ILP rows 509 × 1 001 (0.5 M).
pub const MAX_TABLEAU_ENTRIES: usize = 1 << 24;

/// Solves the LP relaxation of `model` (integrality dropped, bounds kept).
/// Lower bounds must be finite.
pub fn solve_lp(model: &Model) -> LpSolution {
    solve_lp_with_deadline(model, None)
}

/// Like [`solve_lp`] but aborts with [`LpStatus::IterationLimit`] once the
/// deadline passes (checked every few dozen pivots). Branch-and-bound
/// passes its remaining budget here so that one oversized LP cannot blow
/// the whole solve's wall clock.
pub fn solve_lp_with_deadline(model: &Model, deadline: Option<Instant>) -> LpSolution {
    LpWorkspace::default().solve(model, deadline)
}

/// What an [`LpWorkspace`] has done so far. Every count is a function of
/// the models solved, never of the clock (short of a deadline firing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpCounts {
    /// LP solves of either kind.
    pub lp_solves: usize,
    /// Simplex pivots, primal and dual (bound flips are not pivots).
    pub pivots: usize,
    /// Re-solves answered from the kept tableau.
    pub warm_resolves: usize,
    /// Re-solves that had to throw the tableau away and start cold.
    pub cold_fallbacks: usize,
}

/// One tableau, solved cold once and re-solved after every change of
/// bounds: the LP engine of a branch-and-bound search, whatever its depth.
#[derive(Debug, Default)]
pub struct LpWorkspace {
    /// The tableau left by the last solve, if it is still dual feasible
    /// (the solve ended optimal, or a re-solve proved its node infeasible);
    /// `None` when there is nothing to re-solve from.
    tab: Option<Tableau>,
    counts: LpCounts,
    /// Whether the last cold solve was refused by [`MAX_TABLEAU_ENTRIES`].
    refused: bool,
}

impl LpWorkspace {
    /// Work done so far.
    pub fn counts(&self) -> LpCounts {
        self.counts
    }

    /// Whether the last cold solve was refused by [`MAX_TABLEAU_ENTRIES`]
    /// (and answered [`LpStatus::IterationLimit`]).
    pub(crate) fn refused(&self) -> bool {
        self.refused
    }

    /// Solves `model` cold (phase 1 + phase 2) and keeps the tableau if the
    /// solve ends optimal. A model whose dense tableau would exceed
    /// [`MAX_TABLEAU_ENTRIES`] is not built: it answers
    /// [`LpStatus::IterationLimit`], "no usable bound".
    pub fn solve(&mut self, model: &Model, deadline: Option<Instant>) -> LpSolution {
        self.counts.lp_solves += 1;
        self.tab = None;
        let built = Tableau::build(model);
        self.refused = matches!(built, Err(LpStatus::IterationLimit));
        let mut t = match built {
            Ok(t) => t,
            Err(status) => return LpSolution::without_point(status),
        };
        let status = t.solve_cold(model, deadline);
        self.counts.pivots += t.pivots;
        if status != LpStatus::Optimal {
            return LpSolution::without_point(status);
        }
        let x = t.point();
        self.tab = Some(t);
        LpSolution {
            status,
            objective: model.eval_objective(&x),
            x,
        }
    }

    /// Re-solves after a change of variable bounds: `model` must be the
    /// model of the last [`solve`](Self::solve) with nothing but bounds
    /// moved (tightened, fixed, un-fixed or relaxed, in any order).
    ///
    /// The kept tableau is *rebased* to the new bounds — a basic column
    /// just takes them; a nonbasic one takes the side the sign of its
    /// reduced cost allows (lower if `d ≥ 0`, else upper, which is what
    /// makes un-fixing after a backtrack legal), and the change of its
    /// value is folded into the basic values — which keeps it dual
    /// feasible. A bounded dual simplex then restores primal feasibility
    /// and a primal clean-up, which normally does zero iterations, removes
    /// what the tolerances left.
    ///
    /// There is one second path, counted in [`LpCounts::cold_fallbacks`]:
    /// the tableau is thrown away and the model solved cold when there is
    /// no tableau to start from, when a column cannot be placed (negative
    /// reduced cost, no finite upper bound), when the re-solve ends in
    /// anything but optimal or infeasible or its point misses a row by more
    /// than 10⁻⁶, and when it has done as much arithmetic as the cold solve
    /// that built the tableau did — pivots on a tableau that has filled in
    /// cost many times a fresh one's, and a dual simplex can need thousands
    /// to prove a node infeasible that phase 1 refutes in ten.
    pub fn resolve(&mut self, model: &Model, deadline: Option<Instant>) -> LpSolution {
        if let Some(t) = self.tab.as_mut() {
            let before = t.pivots;
            let warm = t.resolve(model, deadline);
            self.counts.pivots += t.pivots - before;
            if let Some(sol) = warm {
                self.counts.lp_solves += 1;
                self.counts.warm_resolves += 1;
                return sol;
            }
        }
        self.counts.cold_fallbacks += 1;
        self.solve(model, deadline)
    }
}

/// The dense tableau `B⁻¹A` of a basis, its basic values and reduced
/// costs. Columns are the model's variables, then one slack per inequality
/// row, then one artificial per row whose slack could not start basic.
#[derive(Debug)]
struct Tableau {
    m: usize,
    /// Structural columns (= model variables).
    n: usize,
    /// Row stride: structurals, slacks and artificials.
    width: usize,
    art_start: usize,
    /// Columns that can still enter or be re-based: `width` during phase 1,
    /// `art_start` ever after (a fixed-at-zero artificial that never
    /// re-enters contributes nothing, so its column is left to rot).
    active: usize,
    /// `m × width`, row-major.
    a: Vec<f64>,
    /// Value of each row's basic variable.
    beta: Vec<f64>,
    /// Reduced costs.
    d: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    /// Row in which a column is basic, `NONE` for a nonbasic one.
    row_of: Vec<usize>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Side a nonbasic column sits at (stale while it is basic).
    at_upper: Vec<bool>,
    /// Non-zero columns of the current pivot row and their scaled values.
    nz: Vec<usize>,
    nzv: Vec<f64>,
    pivots: usize,
    /// Arithmetic done by pivots so far, in multiply-adds and scanned
    /// entries: what a pivot costs depends on how far the tableau has
    /// filled in, so re-solves are budgeted in this and not in pivots.
    work: u64,
    /// `work` of the cold solve that built this tableau.
    cold_work: u64,
    /// `work` past which the running solve gives up.
    work_limit: u64,
}

impl Tableau {
    /// The all-slack/artificial starting tableau with every structural at
    /// its lower bound; `Infeasible` if some variable's bounds cross,
    /// `IterationLimit` if it would exceed [`MAX_TABLEAU_ENTRIES`].
    fn build(model: &Model) -> Result<Tableau, LpStatus> {
        let n = model.n_vars();
        let m = model.n_constraints();
        let (lower, upper) = model.bounds();
        debug_assert!(lower.iter().all(|l| l.is_finite()), "lower bounds finite");
        if (0..n).any(|v| upper[v] < lower[v] - EPS) {
            return Err(LpStatus::Infeasible);
        }

        // Orient each row so that, with the structurals at their lower
        // bounds, its right-hand side is non-negative: a `≤` row's slack
        // can then start basic, the others need an artificial.
        let oriented: Vec<(f64, Sense, f64)> = model
            .constraints()
            .iter()
            .map(|c| {
                let r = c.rhs
                    - c.terms
                        .iter()
                        .map(|&(v, coef)| coef * lower[v.index()])
                        .sum::<f64>();
                let flip = match c.sense {
                    Sense::Le | Sense::Eq => r < 0.0,
                    Sense::Ge => r <= 0.0,
                };
                match (flip, c.sense) {
                    (false, s) => (1.0, s, r),
                    (true, Sense::Le) => (-1.0, Sense::Ge, -r),
                    (true, Sense::Ge) => (-1.0, Sense::Le, -r),
                    (true, Sense::Eq) => (-1.0, Sense::Eq, -r),
                }
            })
            .collect();
        let n_slack = oriented.iter().filter(|r| r.1 != Sense::Eq).count();
        let n_art = oriented.iter().filter(|r| r.1 != Sense::Le).count();
        let art_start = n + n_slack;
        let width = art_start + n_art;
        if m.saturating_mul(width) > MAX_TABLEAU_ENTRIES {
            return Err(LpStatus::IterationLimit);
        }

        let mut a = vec![0.0f64; m * width];
        let mut beta = vec![0.0f64; m];
        let mut basis = vec![NONE; m];
        let mut row_of = vec![NONE; width];
        let (mut slack, mut art) = (n, art_start);
        for (i, (c, &(sign, sense, rhs))) in model.constraints().iter().zip(&oriented).enumerate() {
            let row = &mut a[i * width..(i + 1) * width];
            for &(v, coef) in &c.terms {
                row[v.index()] += sign * coef;
            }
            beta[i] = rhs;
            if sense != Sense::Eq {
                row[slack] = if sense == Sense::Le { 1.0 } else { -1.0 };
                slack += 1;
            }
            basis[i] = if sense == Sense::Le {
                slack - 1
            } else {
                row[art] = 1.0;
                art += 1;
                art - 1
            };
            row_of[basis[i]] = i;
        }

        let mut lo = vec![0.0f64; width];
        let mut hi = vec![f64::INFINITY; width];
        lo[..n].copy_from_slice(lower);
        hi[..n].copy_from_slice(upper);
        Ok(Tableau {
            m,
            n,
            width,
            art_start,
            active: width,
            a,
            beta,
            d: vec![0.0; width],
            basis,
            row_of,
            lo,
            hi,
            at_upper: vec![false; width],
            nz: Vec::new(),
            nzv: Vec::new(),
            pivots: 0,
            work: 0,
            cold_work: 0,
            work_limit: u64::MAX,
        })
    }

    /// Iteration cap of one simplex run, and the iteration from which the
    /// primal switches to Bland's rule.
    fn iteration_caps(&self) -> (usize, usize) {
        let size = self.m + self.width;
        (50 * size + 2000, 10 * size + 500)
    }

    fn solve_cold(&mut self, model: &Model, deadline: Option<Instant>) -> LpStatus {
        let (w, art_start) = (self.width, self.art_start);

        // --- Phase 1: minimize the sum of artificials.
        if art_start < w {
            self.d[art_start..].fill(1.0);
            for (i, &b) in self.basis.iter().enumerate() {
                if b >= art_start {
                    for (dj, aj) in self.d.iter_mut().zip(&self.a[i * w..(i + 1) * w]) {
                        *dj -= aj;
                    }
                }
            }
            if self.primal(deadline) != LpStatus::Optimal {
                // Phase 1 is bounded below by 0: anything else is
                // numerical trouble or the clock.
                return LpStatus::IterationLimit;
            }
            let left: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= art_start)
                .map(|i| self.beta[i])
                .sum();
            if left > 1e-6 {
                return LpStatus::Infeasible;
            }
            // An artificial still basic (a redundant row) is now fixed at
            // zero like the ones that left: the ratio tests hold it there
            // and the first step that would move it pivots it out.
            self.hi[art_start..].fill(0.0);
            self.active = art_start;
        }

        // --- Phase 2: the model's objective, priced out over the basis.
        self.d.fill(0.0);
        for v in 0..self.n {
            self.d[v] = model.objective_coeff(VarId(v));
        }
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n {
                let cost = model.objective_coeff(VarId(b));
                let row = &self.a[i * w..i * w + art_start];
                for (dj, aj) in self.d.iter_mut().zip(row) {
                    *dj -= cost * aj;
                }
            }
        }
        let status = self.primal(deadline);
        self.cold_work = self.work;
        status
    }

    /// Rebase, dual simplex, primal clean-up. `None` means the tableau can
    /// no longer be trusted and the caller must solve cold.
    fn resolve(&mut self, model: &Model, deadline: Option<Instant>) -> Option<LpSolution> {
        let (lower, upper) = model.bounds();
        debug_assert_eq!((self.n, self.m), (model.n_vars(), model.n_constraints()));
        if (0..self.n).any(|v| upper[v] < lower[v] - EPS) {
            // Crossed bounds need no simplex; the tableau stays as it is.
            return Some(LpSolution::without_point(LpStatus::Infeasible));
        }
        self.rebase(lower, upper)?;
        // Dual pivots on a tableau that has filled in cost many times a
        // cold solve's, and proving a node infeasible can take thousands
        // of them: a re-solve that has already cost what the cold solve
        // did is abandoned for one.
        self.work_limit = self.work + self.cold_work;
        debug_assert!(
            self.dual_feasible(),
            "rebase keeps the tableau dual feasible"
        );
        match self.dual(deadline) {
            LpStatus::Optimal => {}
            LpStatus::Infeasible => {
                return Some(LpSolution::without_point(LpStatus::Infeasible));
            }
            LpStatus::Unbounded | LpStatus::IterationLimit => return None,
        }
        if self.primal(deadline) != LpStatus::Optimal {
            return None;
        }
        let x = self.point();
        (residual(model, &x) <= RESIDUAL_TOL).then(|| LpSolution {
            status: LpStatus::Optimal,
            objective: model.eval_objective(&x),
            x,
        })
    }

    /// Moves every structural column to the given bounds. `None` if a
    /// column cannot be placed dual-feasibly (negative reduced cost and no
    /// finite upper bound to sit at).
    fn rebase(&mut self, lower: &[f64], upper: &[f64]) -> Option<()> {
        for j in 0..self.n {
            let (l, u) = (lower[j], upper[j]);
            if l == self.lo[j] && u == self.hi[j] {
                continue;
            }
            if self.row_of[j] != NONE {
                // A basic column keeps its value; the dual simplex deals
                // with it if the new bounds exclude that value.
                (self.lo[j], self.hi[j]) = (l, u);
                continue;
            }
            let old = self.nonbasic_value(j);
            (self.lo[j], self.hi[j]) = (l, u);
            self.at_upper[j] = if u - l <= EPS || self.d[j] >= -EPS {
                false
            } else if u.is_finite() {
                true
            } else {
                return None;
            };
            let delta = self.nonbasic_value(j) - old;
            self.shift(j, delta);
        }
        Some(())
    }

    /// Whether every movable nonbasic column sits on the side its reduced
    /// cost allows (the dual simplex's precondition).
    fn dual_feasible(&self) -> bool {
        (0..self.active).all(|j| {
            self.row_of[j] != NONE
                || self.hi[j] - self.lo[j] <= EPS
                || if self.at_upper[j] {
                    self.d[j] <= 100.0 * EPS
                } else {
                    self.d[j] >= -100.0 * EPS
                }
        })
    }

    fn nonbasic_value(&self, j: usize) -> f64 {
        if self.at_upper[j] {
            self.hi[j]
        } else {
            self.lo[j]
        }
    }

    /// The current point over the model's variables.
    fn point(&self) -> Vec<f64> {
        (0..self.n)
            .map(|j| match self.row_of[j] {
                NONE => self.nonbasic_value(j),
                r => self.beta[r],
            })
            .collect()
    }

    /// Folds a change `delta` of nonbasic column `j`'s value into the basic
    /// values.
    fn shift(&mut self, j: usize, delta: f64) {
        if delta != 0.0 {
            for (b, row) in self.beta.iter_mut().zip(self.a.chunks_exact(self.width)) {
                *b -= row[j] * delta;
            }
        }
    }

    /// Whether the running solve must stop: out of work budget, or (polled
    /// every 64 iterations) out of time.
    fn must_stop(&self, iter: usize, deadline: Option<Instant>) -> bool {
        self.work > self.work_limit
            || iter.is_multiple_of(64) && deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Bounded primal simplex on the current reduced costs, from a primal
    /// feasible tableau.
    fn primal(&mut self, deadline: Option<Instant>) -> LpStatus {
        let (max_iters, bland_after) = self.iteration_caps();
        let w = self.width;
        for iter in 0..max_iters {
            if self.must_stop(iter, deadline) {
                return LpStatus::IterationLimit;
            }
            let bland = iter >= bland_after;
            // Entering column: a movable nonbasic whose reduced cost has
            // the improving sign for the side it sits at — the largest
            // (Dantzig), or the first (Bland). A basic column has `d = 0`.
            let mut enter = NONE;
            let mut best = EPS;
            for j in 0..self.active {
                let gain = if self.at_upper[j] {
                    self.d[j]
                } else {
                    -self.d[j]
                };
                if gain > best && self.hi[j] - self.lo[j] > EPS {
                    enter = j;
                    best = gain;
                    if bland {
                        break;
                    }
                }
            }
            if enter == NONE {
                return LpStatus::Optimal;
            }
            // Ratio test over a step `t ≥ 0` in direction `dir`. A basic
            // variable gives way down to its lower bound or up to its upper
            // one — `room(i)` is that distance, the rate `|α|` it is used
            // up at, and which bound it is. In two passes (Harris): the
            // smallest ratio with every distance granted a little slack,
            // then among the rows within it the **largest pivot element**
            // (under Bland's rule: no slack, smallest basic index). At a
            // degenerate vertex most ratios tie at zero, and taking the
            // first of them pivots on elements of 10⁻⁶ that are round-off.
            let dir = if self.at_upper[enter] { -1.0 } else { 1.0 };
            let room = |i: usize| -> Option<(f64, f64, bool)> {
                let alpha = dir * self.a[i * w + enter];
                let b = self.basis[i];
                if alpha > PIVOT_EPS {
                    Some(((self.beta[i] - self.lo[b]).max(0.0), alpha, false))
                } else if alpha < -PIVOT_EPS && self.hi[b].is_finite() {
                    Some(((self.hi[b] - self.beta[i]).max(0.0), -alpha, true))
                } else {
                    None
                }
            };
            let tie = if bland { 0.0 } else { PRIMAL_TIE };
            let theta = (0..self.m)
                .filter_map(room)
                .map(|(dist, alpha, _)| (dist + tie) / alpha)
                .fold(f64::INFINITY, f64::min);
            let mut leave = NONE;
            let mut leave_to_upper = false;
            let mut pivot_size = 0.0;
            for i in 0..self.m {
                if let Some((dist, alpha, to_upper)) = room(i) {
                    let better = if bland {
                        leave == NONE || self.basis[i] < self.basis[leave]
                    } else {
                        alpha > pivot_size
                    };
                    if dist <= theta * alpha + 1e-12 && better {
                        (leave, leave_to_upper, pivot_size) = (i, to_upper, alpha);
                    }
                }
            }
            // The entering variable's own range ends the step first if it
            // is the shorter: a bound flip, no pivot (it wins ties).
            let mut step = self.hi[enter] - self.lo[enter];
            if leave != NONE {
                let (dist, alpha, _) = room(leave).expect("chosen among rows with room");
                if dist / alpha < step - 1e-12 {
                    step = dist / alpha;
                } else {
                    leave = NONE;
                }
            }
            if step.is_infinite() {
                return LpStatus::Unbounded;
            }
            let delta = dir * step;
            self.shift(enter, delta);
            if leave == NONE {
                self.at_upper[enter] = !self.at_upper[enter];
                continue;
            }
            self.beta[leave] = self.nonbasic_value(enter) + delta;
            self.at_upper[self.basis[leave]] = leave_to_upper;
            self.pivot(leave, enter);
        }
        LpStatus::IterationLimit
    }

    /// Bounded dual simplex from a dual feasible tableau: until no basic
    /// variable is outside its bounds, the worst offender leaves for the
    /// bound it violates and the dual ratio test picks what enters.
    fn dual(&mut self, deadline: Option<Instant>) -> LpStatus {
        let (max_iters, _) = self.iteration_caps();
        let w = self.width;
        for iter in 0..max_iters {
            if self.must_stop(iter, deadline) {
                return LpStatus::IterationLimit;
            }
            let mut r = NONE;
            let mut worst = EPS;
            let mut below = false;
            for (i, &b) in self.basis.iter().enumerate() {
                let (under, over) = (self.lo[b] - self.beta[i], self.beta[i] - self.hi[b]);
                if under > worst {
                    (r, worst, below) = (i, under, true);
                }
                if over > worst {
                    (r, worst, below) = (i, over, false);
                }
            }
            if r == NONE {
                return LpStatus::Optimal;
            }
            let leaving = self.basis[r];
            // The basic value moves by `−α·Δ` when column j moves by `Δ`:
            // to raise it, a column at its lower bound (which can only go
            // up) helps iff `α < 0`, one at its upper bound iff `α > 0`;
            // to lower it, the other way round. `|α|` of a helper:
            let row = &self.a[r * w..r * w + self.active];
            let sign = if below { 1.0 } else { -1.0 };
            let helper = |j: usize| -> Option<f64> {
                let alpha = sign * row[j];
                let helps = if self.at_upper[j] {
                    alpha > PIVOT_EPS
                } else {
                    alpha < -PIVOT_EPS
                };
                (helps && j != leaving && self.hi[j] - self.lo[j] > EPS).then_some(alpha.abs())
            };
            // Dual ratio test in two passes (Harris): the smallest ratio
            // `|d|/|α|` with every `|d|` granted a little slack, then among
            // the columns within it the **largest pivot element** — the
            // many near-ties of a degenerate vertex must not be decided by
            // round-off in `d`, or the pivot lands on round-off in `α`.
            let mut theta = f64::INFINITY;
            let mut enter = NONE;
            let mut pivot_size = 0.0;
            for j in 0..self.active {
                if let Some(alpha) = helper(j) {
                    let ratio = (self.d[j].abs() + DUAL_TIE) / alpha;
                    if ratio < theta {
                        (theta, enter, pivot_size) = (ratio, j, alpha);
                    }
                }
            }
            if enter == NONE {
                // No movable column can bring the row back inside its
                // bounds: a proof of primal infeasibility.
                return LpStatus::Infeasible;
            }
            for j in 0..self.active {
                if let Some(alpha) = helper(j) {
                    if alpha > pivot_size && self.d[j].abs() <= theta * alpha {
                        (enter, pivot_size) = (j, alpha);
                    }
                }
            }
            let bound = if below {
                self.lo[leaving]
            } else {
                self.hi[leaving]
            };
            let delta = (self.beta[r] - bound) / self.a[r * w + enter];
            self.shift(enter, delta);
            self.beta[r] = self.nonbasic_value(enter) + delta;
            self.at_upper[leaving] = !below;
            self.pivot(r, enter);
        }
        LpStatus::IterationLimit
    }

    /// Gauss-Jordan pivot on row `r`, column `c`: `c` becomes basic in `r`
    /// (the caller has already moved `beta`). Only the non-zeros of the
    /// pivot row are walked.
    fn pivot(&mut self, r: usize, c: usize) {
        let w = self.width;
        let leaving = self.basis[r];
        self.row_of[leaving] = NONE;
        if leaving >= self.art_start {
            self.hi[leaving] = 0.0; // an artificial that left never returns
        }
        self.basis[r] = c;
        self.row_of[c] = r;
        self.pivots += 1;

        let pv = self.a[r * w + c];
        debug_assert!(pv.abs() > PIVOT_EPS);
        let inv = 1.0 / pv;
        self.nz.clear();
        self.nzv.clear();
        for (k, v) in self.a[r * w..r * w + self.active].iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                self.nz.push(k);
                self.nzv.push(*v);
            }
        }
        self.a[r * w + c] = 1.0;
        // One pricing pass, one ratio test and this row's scan, whatever
        // the fill; then the eliminations, which depend on it.
        self.work += (2 * self.active + self.m) as u64;
        for (i, row) in self.a.chunks_exact_mut(w).enumerate() {
            let factor = row[c];
            if i == r || factor == 0.0 {
                continue;
            }
            if factor.abs() > DROP_EPS {
                for (&k, &v) in self.nz.iter().zip(&self.nzv) {
                    let x = row[k] - factor * v;
                    row[k] = if x.abs() < DROP_EPS { 0.0 } else { x };
                }
                self.work += self.nz.len() as u64;
            }
            row[c] = 0.0;
        }
        let factor = self.d[c];
        if factor.abs() > DROP_EPS {
            for (&k, &v) in self.nz.iter().zip(&self.nzv) {
                self.d[k] -= factor * v;
            }
        }
        self.d[c] = 0.0;
    }
}

/// Largest amount by which `x` misses a bound or a row of `model`.
fn residual(model: &Model, x: &[f64]) -> f64 {
    let (lower, upper) = model.bounds();
    let mut worst = 0.0f64;
    for (v, &xv) in x.iter().enumerate() {
        worst = worst.max(lower[v] - xv).max(xv - upper[v]);
    }
    for c in model.constraints() {
        let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v.index()]).sum();
        worst = worst.max(match c.sense {
            Sense::Le => lhs - c.rhs,
            Sense::Ge => c.rhs - lhs,
            Sense::Eq => (lhs - c.rhs).abs(),
        });
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y st x<=4, 2y<=12, 3x+2y<=18 (classic): opt (2,6)=36.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -3.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -5.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y st x + y >= 2, x - y = 0 -> x = y = 1.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Eq, 0.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 2.0);
        assert_close(s.x[0], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 0.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve_lp(&m).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, 0.0);
        assert_eq!(solve_lp(&m).status, LpStatus::Unbounded);
    }

    #[test]
    fn bounds_respected() {
        // min -x with x in [0, 7].
        let mut m = Model::new();
        let _x = m.add_continuous(0.0, 7.0, -1.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 7.0);
    }

    #[test]
    fn nonzero_lower_bounds_shifted() {
        // min x + y with x in [2, 10], y in [3, 10], x + y >= 8.
        let mut m = Model::new();
        let x = m.add_continuous(2.0, 10.0, 1.0);
        let y = m.add_continuous(3.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 8.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, 8.0);
    }

    #[test]
    fn fixed_variables_substituted() {
        // x fixed to 3; min y st y >= x -> y = 3.
        let mut m = Model::new();
        let x = m.add_continuous(3.0, 3.0, 0.0);
        let y = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(y, 1.0), (x, -1.0)], Sense::Ge, 0.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 3.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x st -x <= -2 (i.e. x >= 2).
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, -2.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the origin.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, -1.0);
        let y = m.add_continuous(0.0, 1.0, -1.0);
        for k in 1..20 {
            m.add_constraint(vec![(x, k as f64), (y, 1.0)], Sense::Le, k as f64 + 1.0);
        }
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -2.0);
    }

    #[test]
    fn fractional_lp_relaxation_of_knapsack() {
        // max 10x1 + 6x2 st 5x1 + 4x2 <= 7, x in [0,1]: LP opt x1=1, x2=0.5.
        let mut m = Model::new();
        let x1 = m.add_binary(-10.0);
        let x2 = m.add_binary(-6.0);
        m.add_constraint(vec![(x1, 5.0), (x2, 4.0)], Sense::Le, 7.0);
        let s = solve_lp(&m);
        assert_eq!(s.status, LpStatus::Optimal);
        assert_close(s.objective, -13.0);
        assert_close(s.x[1], 0.5);
    }
}
