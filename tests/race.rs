//! Portfolio racing through the registry (`race/<spec>,<spec>,…`).
//!
//! What must hold: race specs resolve recursively through the ordinary
//! registry (so every registered spec can race and every diagnostic stays
//! intact), the racers share one budget extended with a common cancel
//! token, the winner is deterministic — lowest cost, ties broken by spec
//! order — and an outer cancellation reaches every racer.

use bsp_sched::prelude::*;
use bsp_sched::schedule::validity::validate;
use bsp_sched::RaceScheduler;
use std::time::Duration;

fn dag() -> Dag {
    bsp_sched::dag::random::random_layered_dag(
        7,
        bsp_sched::dag::random::LayeredConfig {
            layers: 5,
            width: 5,
            edge_prob: 0.35,
            ..Default::default()
        },
    )
}

fn fast_cfg() -> PipelineConfig {
    PipelineConfig {
        enable_ilp: false,
        ..Default::default()
    }
}

/// The winning spec recorded in the outcome's final `race:` stage report.
fn winner_of(out: &SolveOutcome) -> String {
    let last = out.stages.last().expect("race reports stages");
    let spec = last
        .stage
        .strip_prefix("race:")
        .expect("last stage names the winner");
    assert_eq!(last.cost_after, out.total());
    spec.to_string()
}

#[test]
fn race_resolves_and_produces_a_valid_schedule() {
    let dag = dag();
    let machine = BspParams::new(4, 2, 5);
    let racer = Registry::standard()
        .get_with("race/etf,bl-est,cilk,hdagg", &fast_cfg())
        .expect("race spec resolves");
    assert_eq!(racer.name(), "race/etf,bl-est,cilk,hdagg");
    let out = racer.solve(&SolveRequest::new(&dag, &machine));
    assert!(validate(&dag, machine.p(), &out.result.sched, &out.result.comm).is_ok());
    assert!(out.total() > 0);
    winner_of(&out);
}

/// Racing deterministic run-to-completion schedulers (the baselines ignore
/// budgets) is fully reproducible: same winner, same cost, every repeat —
/// and the winner's cost equals the best solo cost.
#[test]
fn race_winner_is_deterministic() {
    let dag = dag();
    let machine = BspParams::new(4, 2, 5);
    let registry = Registry::standard();
    let specs = ["etf", "bl-est", "cilk", "hdagg"];
    let solo_best = specs
        .iter()
        .map(|s| {
            registry
                .get_with(s, &fast_cfg())
                .unwrap()
                .solve(&SolveRequest::new(&dag, &machine))
                .total()
        })
        .min()
        .unwrap();

    let racer = registry
        .get_with("race/etf,bl-est,cilk,hdagg", &fast_cfg())
        .unwrap();
    let first = racer.solve(&SolveRequest::new(&dag, &machine));
    assert_eq!(
        first.total(),
        solo_best,
        "winner must match the best solo cost"
    );
    for _ in 0..4 {
        let again = racer.solve(&SolveRequest::new(&dag, &machine));
        assert_eq!(again.total(), first.total());
        assert_eq!(winner_of(&again), winner_of(&first));
        assert_eq!(again.result.sched, first.result.sched);
    }
}

/// Equal-cost racers: the tie must break to the *earlier* spec, not to
/// whichever thread happened to finish first. `bl-est?numa=on` and
/// `bl-est?numa=true` are two spellings of one parameter value and build
/// the identical scheduler, so their costs always tie.
#[test]
fn race_ties_break_by_spec_order() {
    let dag = dag();
    let machine = BspParams::new(4, 2, 5);
    let racer = Registry::standard()
        .get_with("race/bl-est?numa=on,bl-est?numa=true", &fast_cfg())
        .unwrap();
    for _ in 0..5 {
        let out = racer.solve(&SolveRequest::new(&dag, &machine));
        assert_eq!(winner_of(&out), "bl-est?numa=on");
    }
}

/// An outer cancellation propagates into every racer: with the parent
/// token already cancelled, the anytime racers degrade to their best
/// initialization but still return valid schedules.
#[test]
fn outer_cancellation_reaches_the_racers() {
    let dag = dag();
    let machine = BspParams::new(4, 2, 5);
    let token = CancelToken::new();
    token.cancel();
    let racer = Registry::standard()
        .get_with("race/pipeline/base,pipeline/multilevel", &fast_cfg())
        .unwrap();
    let req = SolveRequest::new(&dag, &machine).with_budget(Budget::unlimited().with_cancel(token));
    let out = racer.solve(&req);
    assert!(validate(&dag, machine.p(), &out.result.sched, &out.result.comm).is_ok());
    assert!(
        out.budget_exhausted,
        "cancelled racers must report exhaustion"
    );
}

/// The racers share the request budget: a race under a deadline finishes
/// (all racers wind down) and still yields a valid schedule at least as
/// good as the fastest racer's.
#[test]
fn race_shares_the_request_budget() {
    let dag = dag();
    let machine = BspParams::new(4, 2, 5);
    let registry = Registry::standard();
    let etf_total = registry
        .get_with("etf", &fast_cfg())
        .unwrap()
        .solve(&SolveRequest::new(&dag, &machine))
        .total();
    let racer = registry
        .get_with("race/etf,pipeline/base,pipeline/multilevel", &fast_cfg())
        .unwrap();
    let req =
        SolveRequest::new(&dag, &machine).with_budget(Budget::deadline(Duration::from_millis(300)));
    let out = racer.solve(&req);
    assert!(validate(&dag, machine.p(), &out.result.sched, &out.result.comm).is_ok());
    assert!(
        out.total() <= etf_total,
        "the race can never lose to a completed racer"
    );
}

/// The first finisher lands inside the other racer's hill climb, which
/// stops there and not at its next candidate boundary: a short racer
/// (50 moves) against the same pipeline uncapped, on an instance whose
/// uncapped climb outlasts the short racer's whole solve many times over.
#[test]
fn first_finisher_cuts_the_other_racers_climb_short() {
    let dag = bsp_sched::dag::random::random_layered_dag(
        7,
        bsp_sched::dag::random::LayeredConfig {
            layers: 60,
            width: 50,
            ..Default::default()
        },
    );
    let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 2));
    let (short, long) = ("pipeline/base?hc_iters=50&hccs_iters=5", "pipeline/base");
    let registry = Registry::standard();
    let racer = registry
        .get_with(&format!("race/{short},{long}"), &fast_cfg())
        .unwrap();
    let out = racer.solve(&SolveRequest::new(&dag, &machine));
    assert!(validate(&dag, machine.p(), &out.result.sched, &out.result.comm).is_ok());
    if winner_of(&out) == long {
        // The cut racer won: its climb must say it was cut.
        let hc = out.stages.iter().find(|r| r.stage == "hc").unwrap();
        assert!(hc.truncated, "the uncapped racer ran its climb to the end");
        assert!(out.budget_exhausted);
    } else {
        // One-sided on time: cut at a candidate boundary, the race would
        // have waited for one of the two climbs the solo run makes.
        let solo = registry.get_with(long, &fast_cfg()).unwrap();
        let solo = solo.solve(&SolveRequest::new(&dag, &machine));
        assert!(
            out.elapsed * 3 < solo.elapsed,
            "race {:?} against {:?} uncancelled",
            out.elapsed,
            solo.elapsed
        );
    }
}

#[test]
fn race_specs_accept_parameters() {
    let dag = dag();
    let machine = BspParams::new(4, 2, 5);
    let racer = Registry::standard()
        .get_with("race/pipeline/base?ilp=off,etf?numa=on", &fast_cfg())
        .unwrap();
    let out = racer.solve(&SolveRequest::new(&dag, &machine));
    assert!(validate(&dag, machine.p(), &out.result.sched, &out.result.comm).is_ok());
}

#[test]
fn bad_race_specs_are_rejected_with_the_ordinary_diagnostics() {
    let registry = Registry::standard();
    let cfg = fast_cfg();
    // Nested races.
    let err = match registry.get_with("race/etf,race/cilk,hdagg", &cfg) {
        Err(e) => e,
        Ok(_) => panic!("nested race must be rejected"),
    };
    assert!(err.to_string().contains("races cannot nest"), "{err}");
    // Unknown racer: same error as addressing it directly.
    assert!(matches!(
        registry.get_with("race/etf,nope", &cfg),
        Err(SpecError::UnknownScheduler { .. })
    ));
    // Empty elements.
    assert!(matches!(
        registry.get_with("race/", &cfg),
        Err(SpecError::EmptyName)
    ));
    assert!(matches!(
        registry.get_with("race/etf,,cilk", &cfg),
        Err(SpecError::EmptyName)
    ));
    // Bad parameter inside a racer: the sub-spec's diagnostics surface.
    assert!(matches!(
        registry.get_with("race/etf?bogus=1,cilk", &cfg),
        Err(SpecError::UnknownParam { .. })
    ));
}

/// The direct constructor enforces its invariants.
#[test]
#[should_panic(expected = "at least one racer")]
fn empty_race_panics() {
    let _ = RaceScheduler::new("race/".into(), vec![], vec![]);
}
