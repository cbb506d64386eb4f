//! Property tests for the spec-addressable registry and the anytime solve
//! contract:
//!
//! * every registry entry's `descriptor.spec()` round-trips through the
//!   parser and `Registry::get` back to the same entry (name, kind, and
//!   canonical form);
//! * `solve` under an already-expired deadline — and under random tiny
//!   deadlines — still returns a *valid* schedule (π respects precedence,
//!   τ is consistent, Γ covers every cross-processor edge) whose reported
//!   cost re-evaluates exactly.

use bsp_sched::prelude::*;
use bsp_sched::schedule::validity::validate;
use proptest::prelude::*;
use std::time::Duration;

fn entry_count() -> usize {
    Registry::standard().entries().len()
}

fn fast_cfg() -> PipelineConfig {
    PipelineConfig {
        enable_ilp: false,
        ..Default::default()
    }
}

fn test_dag(seed: u64, layers: usize, width: usize) -> Dag {
    bsp_sched::dag::random::random_layered_dag(
        seed,
        bsp_sched::dag::random::LayeredConfig {
            layers,
            width,
            edge_prob: 0.35,
            ..Default::default()
        },
    )
}

fn test_machine(numa: bool) -> BspParams {
    let m = BspParams::new(8, 1, 5);
    if numa {
        m.with_numa(NumaTopology::binary_tree(8, 3))
    } else {
        m
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn descriptor_spec_round_trips_through_the_registry(idx in 0usize..12) {
        let registry = Registry::standard();
        let idx = idx % entry_count();
        let descriptor = *registry.entries()[idx].descriptor();

        // spec string → parser → lookup lands on the same entry.
        let spec = descriptor.spec();
        let parsed = SchedulerSpec::parse(&spec).expect("descriptor specs parse");
        prop_assert_eq!(parsed.name(), descriptor.name);
        prop_assert_eq!(parsed.canonical(), spec.clone());

        let entry = registry.entry(parsed.name()).expect("entry findable by name");
        prop_assert_eq!(entry.descriptor().name, descriptor.name);

        // …and `get` builds a scheduler reporting the descriptor's identity.
        let built = registry.get_with(&spec, &fast_cfg()).expect("spec builds");
        prop_assert_eq!(built.name(), descriptor.name);
        // The built scheduler's name is itself a spec addressing the entry.
        let name_spec = SchedulerSpec::parse(built.name()).expect("names are specs");
        prop_assert_eq!(name_spec.name(), descriptor.name);
    }

    #[test]
    fn expired_deadline_still_yields_a_valid_schedule(
        idx in 0usize..12,
        dag_seed in 0u64..1000,
        layers in 2usize..5,
        width in 2usize..5,
        numa in proptest::bool::ANY,
        seed in 0u64..100,
    ) {
        let registry = Registry::standard();
        let idx = idx % entry_count();
        let dag = test_dag(dag_seed, layers, width);
        let machine = test_machine(numa);
        let s = registry.entries()[idx].build_default(&fast_cfg());
        let out = s.solve(
            &SolveRequest::new(&dag, &machine)
                .with_budget(Budget::expired())
                .with_seed(seed),
        );
        let r = &out.result;
        prop_assert!(
            validate(&dag, machine.p(), &r.sched, &r.comm).is_ok(),
            "{} invalid under expired budget", s.name()
        );
        prop_assert_eq!(out.total(), total_cost(&dag, &machine, &r.sched, &r.comm));
        prop_assert!(!out.stages.is_empty());
        prop_assert_eq!(out.stages.last().unwrap().cost_after, out.total());
    }
}

proptest! {
    // Wall-clock-bound cases: fewer iterations, tiny random deadlines.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_tiny_deadlines_never_break_validity(
        idx in 0usize..12,
        budget_us in 0u64..5000,
        dag_seed in 0u64..1000,
    ) {
        let registry = Registry::standard();
        let idx = idx % entry_count();
        let dag = test_dag(dag_seed, 4, 4);
        let machine = test_machine(true);
        let s = registry.entries()[idx].build_default(&fast_cfg());
        let out = s.solve(
            &SolveRequest::new(&dag, &machine)
                .with_budget(Budget::deadline(Duration::from_micros(budget_us))),
        );
        let r = &out.result;
        prop_assert!(validate(&dag, machine.p(), &r.sched, &r.comm).is_ok());
        for w in out.stages.windows(2) {
            prop_assert!(w[1].cost_after <= w[0].cost_after);
        }
        prop_assert_eq!(out.stages.last().unwrap().cost_after, out.total());
    }
}
