//! Property tests: the MILP solver against exhaustive search on random
//! small binary programs, LP relaxation sanity, and the bounded-variable
//! simplex — cold and re-solved from one rebased tableau — against the
//! dense solver it replaced (`dense_reference`).

mod dense_reference;

use bsp_ilp::simplex::{solve_lp, LpSolution, LpStatus};
use bsp_ilp::MipStatus;
use bsp_ilp::{LpWorkspace, Model, Sense, SolveLimits, VarId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
struct RandomBinaryProgram {
    objective: Vec<i8>,
    rows: Vec<(Vec<(usize, i8)>, u8, i8)>, // (terms, sense 0/1/2, rhs)
}

fn arb_program() -> impl Strategy<Value = RandomBinaryProgram> {
    let n = 3usize..8;
    n.prop_flat_map(|n| {
        let obj = proptest::collection::vec(-9i8..10, n);
        let row = (
            proptest::collection::vec((0..n, -4i8..5), 1..=n),
            0u8..3,
            -3i8..7,
        );
        let rows = proptest::collection::vec(row, 1..5);
        (obj, rows).prop_map(|(objective, rows)| RandomBinaryProgram { objective, rows })
    })
}

fn build(p: &RandomBinaryProgram) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = p
        .objective
        .iter()
        .map(|&c| m.add_binary(c as f64))
        .collect();
    for (terms, sense, rhs) in &p.rows {
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        let t: Vec<_> = terms.iter().map(|&(i, c)| (vars[i], c as f64)).collect();
        m.add_constraint(t, sense, *rhs as f64);
    }
    m
}

fn brute_force(m: &Model) -> Option<f64> {
    let n = m.n_vars();
    let mut best: Option<f64> = None;
    for mask in 0..(1u32 << n) {
        let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
        if m.is_feasible(&x, 1e-9) {
            let obj = m.eval_objective(&x);
            best = Some(best.map_or(obj, |b| b.min(obj)));
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solver_matches_brute_force(p in arb_program()) {
        let m = build(&p);
        let limits = SolveLimits {
            max_nodes: 50_000,
            time_limit: std::time::Duration::from_secs(30),
            gap: 1e-9,
        };
        let sol = m.solve(None, &limits);
        match brute_force(&m) {
            None => prop_assert_eq!(sol.status, MipStatus::Infeasible),
            Some(opt) => {
                prop_assert_eq!(sol.status, MipStatus::Optimal);
                prop_assert!((sol.objective - opt).abs() < 1e-5,
                    "solver {} vs brute force {opt}", sol.objective);
                prop_assert!(m.is_feasible(&sol.x, 1e-6));
            }
        }
    }

    #[test]
    fn lp_relaxation_bounds_the_mip(p in arb_program()) {
        let m = build(&p);
        let lp = solve_lp(&m);
        if lp.status != LpStatus::Optimal {
            return Ok(());
        }
        if let Some(opt) = brute_force(&m) {
            prop_assert!(lp.objective <= opt + 1e-6,
                "LP bound {} above integer optimum {opt}", lp.objective);
        }
    }

    #[test]
    fn warm_start_respected(p in arb_program()) {
        let m = build(&p);
        let Some(opt) = brute_force(&m) else { return Ok(()) };
        // Find any feasible point to use as a warm start.
        let n = m.n_vars();
        let warm = (0..(1u32 << n)).find_map(|mask| {
            let x: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            m.is_feasible(&x, 1e-9).then_some(x)
        }).unwrap();
        let warm_obj = m.eval_objective(&warm);
        // Zero budget: solver must return at least the warm start.
        let tight = SolveLimits {
            max_nodes: 1,
            time_limit: std::time::Duration::from_millis(50),
            gap: 1e-9,
        };
        let sol = m.solve(Some(&warm), &tight);
        prop_assert!(sol.objective <= warm_obj + 1e-9);
        prop_assert!(sol.objective >= opt - 1e-6);
    }
}

/// A random LP with everything the scheduling windows have and the binary
/// programs above lack: `≤`/`≥`/`=` rows, negative right-hand sides,
/// non-zero lower bounds, fixed variables, infinite upper bounds, and
/// redundant rows (scaled copies of earlier ones, so vertices are
/// degenerate and an equality's artificial can stay basic). Right-hand
/// sides are set from a hidden point inside the bounds, so most models are
/// feasible, many rows are tight there, and one row in six is then pushed
/// past the point to make infeasible models too.
#[derive(Debug, Clone)]
struct RandomLp {
    /// `(lower, span, hidden point's offset, objective)`: span 0 fixes the
    /// variable, 8 leaves it unbounded above, else it is `upper − lower`.
    vars: Vec<(i8, u8, u8, i8)>,
    /// `(terms, sense, slack at the hidden point, pushed past it)`.
    rows: Vec<(Vec<(usize, i8)>, u8, u8, bool)>,
    /// `(row to copy, scale)`.
    copies: Vec<(usize, i8)>,
}

fn arb_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..8).prop_flat_map(|n| {
        let vars = proptest::collection::vec((-3i8..4, 0u8..9, 0u8..8, -9i8..10), n);
        let row = (
            proptest::collection::vec((0..n, -4i8..5), 1..=n),
            0u8..3,
            0u8..4,
            (0u8..6).prop_map(|k| k == 0),
        );
        let rows = proptest::collection::vec(row, 1..6);
        let copies = proptest::collection::vec((0usize..6, 1i8..4), 0..3);
        (vars, rows, copies).prop_map(|(vars, rows, copies)| RandomLp { vars, rows, copies })
    })
}

fn build_lp(p: &RandomLp) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let mut hidden = Vec::new();
    let vars: Vec<_> = p
        .vars
        .iter()
        .map(|&(lo, span, at, obj)| {
            let (hi, reach) = if span == 8 {
                (f64::INFINITY, 4)
            } else {
                ((lo + span as i8) as f64, span + 1)
            };
            hidden.push((lo + (at % reach) as i8) as f64);
            m.add_continuous(lo as f64, hi, obj as f64)
        })
        .collect();
    let mut rows: Vec<(Vec<(VarId, f64)>, Sense, f64)> = Vec::new();
    for (terms, sense, slack, pushed) in &p.rows {
        let at_hidden: f64 = terms.iter().map(|&(i, c)| c as f64 * hidden[i]).sum();
        let slack = if *pushed { -2.0 } else { *slack as f64 };
        let (sense, rhs) = match sense {
            0 => (Sense::Le, at_hidden + slack),
            1 => (Sense::Ge, at_hidden - slack),
            _ => (Sense::Eq, at_hidden + slack.min(0.0)),
        };
        let terms = terms.iter().map(|&(i, c)| (vars[i], c as f64)).collect();
        rows.push((terms, sense, rhs));
    }
    for &(of, scale) in &p.copies {
        let (terms, sense, rhs) = &rows[of % p.rows.len()];
        let scale = scale as f64;
        let terms = terms.iter().map(|&(v, c)| (v, scale * c)).collect();
        rows.push((terms, *sense, scale * rhs));
    }
    for (terms, sense, rhs) in rows {
        m.add_constraint(terms, sense, rhs);
    }
    (m, vars)
}

/// Same status, same objective (10⁻⁶ relative) and a point inside bounds
/// and rows.
fn check_against_reference(
    m: &Model,
    got: &LpSolution,
    want: &LpSolution,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.status, want.status);
    if want.status == LpStatus::Optimal {
        prop_assert!(
            (got.objective - want.objective).abs() <= 1e-6 * want.objective.abs().max(1.0),
            "objective {} vs reference {}",
            got.objective,
            want.objective
        );
        prop_assert!(m.is_feasible(&got.x, 1e-6), "point {:?} infeasible", got.x);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bounded_simplex_matches_dense_reference(p in arb_lp()) {
        let (m, _) = build_lp(&p);
        check_against_reference(&m, &solve_lp(&m), &dense_reference::solve_lp(&m))?;
    }

    /// One tableau rebased through tighten / fix / un-fix / relax steps —
    /// several variables at once, so a step can un-fix one variable while
    /// fixing its sibling, as a backtrack does — equals a cold reference
    /// solve of the same bounds at every step, infeasible steps included.
    #[test]
    fn rebased_tableau_matches_cold_reference_at_every_step(
        p in arb_lp(),
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..8, 0u8..4, 0i8..4, 0i8..4), 1..4),
            1..12,
        ),
    ) {
        let (mut m, vars) = build_lp(&p);
        let original: Vec<(f64, f64)> = vars.iter().map(|&v| (m.lower(v), m.upper(v))).collect();
        let mut ws = LpWorkspace::default();
        check_against_reference(&m, &ws.solve(&m, None), &dense_reference::solve_lp(&m))?;
        for step in &steps {
            for &(i, op, a, b) in step {
                let i = i % vars.len();
                let v = vars[i];
                let (lo, hi) = (m.lower(v), m.upper(v));
                let (a, b) = (a as f64, b as f64);
                let (new_lo, new_hi) = match op {
                    // tighten from either side
                    0 => ((lo + a.min(1.0)).min(hi), (hi - b.min(1.0)).max(lo + a.min(1.0)).min(hi)),
                    // fix somewhere in the original range
                    1 => {
                        let at = (original[i].0 + a).min(original[i].1);
                        (at, at)
                    }
                    // un-fix
                    2 => original[i],
                    // relax past the current bounds, sometimes to infinity
                    _ => (lo - a, if b == 0.0 { f64::INFINITY } else { hi + b }),
                };
                m.set_bounds(v, new_lo, new_hi);
            }
            check_against_reference(&m, &ws.resolve(&m, None), &dense_reference::solve_lp(&m))?;
        }
        let counts = ws.counts();
        prop_assert_eq!(counts.lp_solves, steps.len() + 1);
        prop_assert_eq!(counts.warm_resolves + counts.cold_fallbacks, steps.len());
    }
}
