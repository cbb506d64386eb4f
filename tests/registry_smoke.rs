//! Registry smoke test: every registered scheduler must solve a small
//! layered DAG through the `SolveRequest` API — under both a uniform and a
//! NUMA machine, under unlimited *and* already-expired budgets — producing
//! a valid, positive-cost schedule with a monotone stage-report trajectory.
//! Registry names must be unique and stable, and spec-string lookup must
//! build single entries.
//!
//! The instance registry gets the same treatment: every built-in
//! `InstanceSource` descriptor must parse as a spec, generate
//! deterministically for a fixed seed, and yield DAGs every registered
//! scheduler accepts.

use bsp_sched::prelude::*;
use bsp_sched::schedule::validity::validate;

fn small_dag() -> Dag {
    bsp_sched::dag::random::random_layered_dag(
        7,
        bsp_sched::dag::random::LayeredConfig {
            layers: 4,
            width: 4,
            edge_prob: 0.4,
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

/// Checks the outcome invariants every solve must satisfy: validity, cost
/// consistency, and a monotone non-increasing stage trajectory that ends at
/// the final cost.
fn check_outcome(name: &str, dag: &Dag, machine: &BspParams, out: &SolveOutcome) {
    let r = &out.result;
    assert!(
        validate(dag, machine.p(), &r.sched, &r.comm).is_ok(),
        "{name} produced an invalid schedule"
    );
    assert!(out.total() > 0, "{name} reported zero cost");
    assert_eq!(
        out.total(),
        total_cost(dag, machine, &r.sched, &r.comm),
        "{name}'s reported cost disagrees with re-evaluation"
    );
    assert!(!out.stages.is_empty(), "{name} reported no stages");
    for w in out.stages.windows(2) {
        assert!(
            w[1].cost_after <= w[0].cost_after,
            "{name}: stage trajectory not monotone: {:?}",
            out.stages
        );
    }
    assert_eq!(
        out.stages.last().unwrap().cost_after,
        out.total(),
        "{name}: last stage report disagrees with the final cost"
    );
}

#[test]
fn every_registered_scheduler_solves_uniform_and_numa() {
    let dag = small_dag();
    let registry = Registry::standard();
    for machine in [
        BspParams::new(4, 2, 5),
        BspParams::new(4, 2, 5).with_numa(NumaTopology::binary_tree(4, 3)),
    ] {
        for entry in registry.entries() {
            let s = entry.build_default(&fast_cfg());
            let out = s.solve(&SolveRequest::new(&dag, &machine));
            check_outcome(s.name(), &dag, &machine, &out);
        }
    }
}

#[test]
fn every_registered_scheduler_survives_an_expired_budget() {
    let dag = small_dag();
    let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 3));
    for entry in Registry::standard().entries() {
        let s = entry.build_default(&fast_cfg());
        let out = s.solve(
            &SolveRequest::new(&dag, &machine)
                .with_budget(Budget::expired())
                .with_seed(11),
        );
        check_outcome(s.name(), &dag, &machine, &out);
        if entry.descriptor().supports_budget {
            assert!(
                out.budget_exhausted,
                "{} ignored the expired deadline",
                s.name()
            );
        }
    }
}

use bsp_sched::schedule::memory::min_repairable_capacity;

#[test]
fn every_scheduler_is_feasible_or_repairable_on_memory_bounded_machines() {
    use bsp_sched::schedule::validity::validate_memory;

    let dag = small_dag();
    let machine =
        BspParams::new(4, 2, 5).with_memory(MemorySpec::new(min_repairable_capacity(&dag)));
    for entry in Registry::standard().entries() {
        let s = entry.build_default(&fast_cfg());
        let out = s.solve(&SolveRequest::new(&dag, &machine).with_seed(3));
        let r = &out.result;
        assert!(
            validate(&dag, machine.p(), &r.sched, &r.comm).is_ok(),
            "{}: structurally invalid on a memory-bounded machine",
            s.name()
        );
        // Either the schedule is memory-feasible as returned, or one
        // deterministic repair pass makes it so.
        let (fixed, report) = repair_memory(&dag, &machine, &r.sched);
        assert!(
            validate_memory(&dag, &machine, &fixed).is_ok(),
            "{}: repair left {} violations",
            s.name(),
            report.violations_after
        );
        let (fixed_again, report_again) = repair_memory(&dag, &machine, &r.sched);
        assert_eq!(fixed, fixed_again, "{}: repair not deterministic", s.name());
        assert_eq!(report, report_again, "{}", s.name());
    }

    // `mem=on` turns a list baseline memory-aware: it comes back feasible
    // without outside help, and is reproducible end to end.
    let registry = Registry::standard();
    for spec in ["bl-est?mem=on", "etf?mem=on", "bl-est?numa=on&mem=on"] {
        let s = registry.get(spec).unwrap();
        let a = s.solve(&SolveRequest::new(&dag, &machine));
        assert!(
            validate_memory(&dag, &machine, &a.result.sched).is_ok(),
            "{spec}: memory-aware spec returned an infeasible schedule"
        );
        assert_eq!(
            a.stages.last().map(|st| st.stage.as_str()),
            Some("mem-repair"),
            "{spec}: missing the repair stage"
        );
        let b = registry
            .get(spec)
            .unwrap()
            .solve(&SolveRequest::new(&dag, &machine));
        assert_eq!(a.result.sched, b.result.sched, "{spec} not deterministic");
        assert_eq!(a.total(), b.total(), "{spec} not deterministic");
    }

    // `mem=on` reconfigures the pipelines to repair their own output.
    let s = registry
        .get("pipeline/base?ilp=off&mem=on")
        .expect("mem=on is a pipeline parameter");
    let out = s.solve(&SolveRequest::new(&dag, &machine));
    assert!(validate_memory(&dag, &machine, &out.result.sched).is_ok());
    assert!(out.stages.iter().any(|st| st.stage == "mem-repair"));
    // On an unbounded machine mem=on is invisible — no repair stage.
    let unbounded = BspParams::new(4, 2, 5);
    let out = s.solve(&SolveRequest::new(&dag, &unbounded));
    assert!(out.stages.iter().all(|st| st.stage != "mem-repair"));
}

#[test]
fn registry_has_the_full_suite_with_unique_names() {
    let registry = Registry::standard();
    let names: Vec<&str> = registry.descriptors().map(|d| d.name).collect();
    // Stable names harnesses key on: one address per scheduler, variants
    // are parameters (`numa=on`, `mem=on`).
    assert_eq!(
        names,
        [
            "cilk",
            "bl-est",
            "etf",
            "hdagg",
            "dsc",
            "init/bspg",
            "init/source",
            "pipeline/base",
            "pipeline/multilevel",
            "auto",
        ]
    );
    // The second spellings retired in their favour are typed errors that
    // list what is registered.
    for retired in ["bl-est-numa", "etf-numa", "bl-est/mem", "etf/mem"] {
        match registry.get(retired) {
            Err(SpecError::UnknownScheduler { name, known }) => {
                assert_eq!(name, retired);
                assert_eq!(known, names);
            }
            other => panic!(
                "{retired:?} resolved: {:?}",
                other.map(|s| s.name().to_string())
            ),
        }
    }
    // Every family is represented, and built names match descriptors.
    for kind in [
        SchedulerKind::Baseline,
        SchedulerKind::Initializer,
        SchedulerKind::Pipeline,
    ] {
        assert!(
            registry.descriptors().any(|d| d.kind == kind),
            "no {kind:?} registered"
        );
    }
    for entry in registry.entries() {
        let s = entry.build_default(&fast_cfg());
        assert_eq!(s.name(), entry.descriptor().name);
    }
}

#[test]
fn spec_lookup_builds_configured_single_entries() {
    let registry = Registry::standard();
    let dag = small_dag();
    let machine = BspParams::new(4, 2, 5);

    let base = registry
        .get("pipeline/base?ilp=off&hc_iters=200")
        .expect("base pipeline spec");
    let out = base.solve(&SolveRequest::new(&dag, &machine));
    check_outcome("pipeline/base", &dag, &machine, &out);

    // `?numa=on` reconfigures the plain list baselines into their
    // NUMA-aware variants.
    let etf = registry.get("etf?numa=on").expect("etf spec");
    assert_eq!(etf.name(), "etf?numa=on");
    let blest = registry.get("bl-est?numa=on").expect("bl-est spec");
    assert_eq!(blest.name(), "bl-est?numa=on");
    // A name the system prints is a name it accepts.
    for s in [etf, blest].iter().chain(&registry.build_all(&fast_cfg())) {
        assert_eq!(
            registry
                .get(s.name())
                .expect("printed name resolves")
                .name(),
            s.name()
        );
    }

    // Errors carry enough context to act on.
    assert!(matches!(
        registry.get("no-such-scheduler"),
        Err(SpecError::UnknownScheduler { .. })
    ));
    assert!(matches!(
        registry.get("etf?nuna=on"),
        Err(SpecError::UnknownParam { .. })
    ));
    assert!(matches!(
        registry.get("pipeline/base?hc_iters=lots"),
        Err(SpecError::BadValue { .. })
    ));
    // Tabu search is the one escape stage; annealing is gone.
    assert_eq!(
        registry.get("pipeline/base?escape=anneal").err(),
        Some(SpecError::BadValue {
            key: "escape".into(),
            value: "anneal".into(),
            expected: "none|tabu",
        })
    );
    // The in-solve thread knob is gone, not silently accepted.
    match registry.get("pipeline/base?threads=2") {
        Err(SpecError::UnknownParam { key, allowed, .. }) => {
            assert_eq!(key, "threads");
            assert!(!allowed.iter().any(|k| k == "threads"), "{allowed:?}");
        }
        other => panic!(
            "threads=2 must be an unknown parameter, got {:?}",
            other.err()
        ),
    }
}

/// The spec each instance source is smoked under: datasets are shrunk
/// hard and every size-like parameter the source accepts is pinned small,
/// so the full catalogue × scheduler product stays test-sized.
fn smoke_spec(d: &InstanceDescriptor) -> String {
    if d.batch {
        return format!("{}?scale=0.02", d.name);
    }
    let small = [
        ("n", "24"),
        ("k", "3"),
        ("width", "8"),
        ("steps", "4"),
        ("depth", "3"),
        ("layers", "3"),
        ("chains", "3"),
        ("stages", "2"),
    ];
    let params: Vec<String> = small
        .iter()
        .filter(|(key, _)| d.params.contains(key))
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    if params.is_empty() {
        d.spec()
    } else {
        format!("{}?{}", d.name, params.join("&"))
    }
}

#[test]
fn every_instance_source_parses_and_generates_deterministically() {
    let registry = bsp_sched::instances();
    assert!(
        registry.sources().len() >= 8,
        "instance registry shrank to {} sources",
        registry.sources().len()
    );
    for d in registry.descriptors() {
        // The descriptor's name is a valid spec address.
        let parsed = SchedulerSpec::parse(&d.spec())
            .unwrap_or_else(|e| panic!("descriptor spec {:?} must parse: {e}", d.spec()));
        assert_eq!(parsed.name(), d.name);

        let spec = smoke_spec(d);
        let a = registry.generate(&spec, 1234).unwrap_or_else(|e| {
            panic!("source {:?} failed to generate from {spec:?}: {e}", d.name)
        });
        let b = registry.generate(&spec, 1234).unwrap();
        assert_eq!(a, b, "source {:?} is not deterministic", d.name);
        assert!(!a.is_empty(), "source {:?} generated nothing", d.name);
        assert_eq!(
            a.len() > 1,
            d.batch,
            "source {:?}: batch flag disagrees with output size {}",
            d.name,
            a.len()
        );
        for inst in &a {
            assert!(inst.dag.n() > 0, "{}: empty DAG", inst.name);
        }
    }
}

#[test]
fn every_scheduler_accepts_every_instance_family() {
    let instance_registry = bsp_sched::instances();
    let scheduler_registry = Registry::standard();
    // Cheap caps: this is an acceptance test, not a quality sweep.
    let cfg = PipelineConfig {
        enable_ilp: false,
        hc: bsp_sched::core::hc::HillClimbConfig {
            max_moves: Some(200),
            time_limit: Some(std::time::Duration::from_millis(200)),
        },
        hccs: bsp_sched::core::hccs::CommHillClimbConfig {
            max_moves: Some(200),
            time_limit: Some(std::time::Duration::from_millis(200)),
        },
        ..Default::default()
    };
    let machine_clause = "bsp?p=4&numa=tree&delta=2";
    for d in instance_registry.descriptors() {
        let spec = format!("{} @ {machine_clause}", smoke_spec(d));
        let inst = instance_registry
            .generate_one(&spec, 7)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        for entry in scheduler_registry.entries() {
            let s = entry.build_default(&cfg);
            let out = s.solve(&SolveRequest::new(&inst.dag, &inst.machine));
            assert!(
                validate(
                    &inst.dag,
                    inst.machine.p(),
                    &out.result.sched,
                    &out.result.comm
                )
                .is_ok(),
                "{} rejected instance {} (family {:?})",
                s.name(),
                inst.name,
                d.name
            );
            assert!(out.total() > 0, "{} zero cost on {}", s.name(), inst.name);
        }
    }
}

#[test]
fn memory_repair_covers_every_instance_family() {
    use bsp_sched::schedule::validity::validate_memory;

    let instance_registry = bsp_sched::instances();
    let scheduler_registry = Registry::standard();
    for d in instance_registry.descriptors() {
        // Two-step: measure the family's smallest repairable capacity,
        // then regenerate on a machine bounded by exactly that.
        let probe = instance_registry
            .generate_one(&format!("{} @ bsp?p=4&g=2", smoke_spec(d)), 7)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let m_min = min_repairable_capacity(&probe.dag);
        let spec = format!("{} @ bsp?p=4&g=2&mem={m_min}", smoke_spec(d));
        let inst = instance_registry
            .generate_one(&spec, 7)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert!(inst.machine.is_memory_bounded());

        // The memory-aware specs return feasible schedules directly.
        for sched_spec in ["bl-est?mem=on", "etf?mem=on", "bl-est?numa=on&mem=on"] {
            let s = scheduler_registry.get(sched_spec).unwrap();
            let out = s.solve(&SolveRequest::new(&inst.dag, &inst.machine));
            assert!(
                validate(
                    &inst.dag,
                    inst.machine.p(),
                    &out.result.sched,
                    &out.result.comm
                )
                .is_ok(),
                "{sched_spec} invalid on {}",
                inst.name
            );
            assert!(
                validate_memory(&inst.dag, &inst.machine, &out.result.sched).is_ok(),
                "{sched_spec} memory-infeasible on {}",
                inst.name
            );
        }
        // And the repair pass fixes the memory-oblivious baseline.
        let plain = scheduler_registry.get("bl-est").unwrap();
        let out = plain.solve(&SolveRequest::new(&inst.dag, &inst.machine));
        let (fixed, report) = repair_memory(&inst.dag, &inst.machine, &out.result.sched);
        assert_eq!(
            report.violations_after, 0,
            "repair left violations on {} (family {:?})",
            inst.name, d.name
        );
        assert!(validate_memory(&inst.dag, &inst.machine, &fixed).is_ok());
    }
}

#[test]
fn budget_deadline_reaches_the_pipeline_stages() {
    // With an expired deadline the pipeline must stop after `init`; the
    // stage reports say so explicitly.
    let dag = small_dag();
    let machine = BspParams::new(4, 2, 5);
    let s = Registry::standard()
        .get("pipeline/base?ilp=off")
        .expect("base spec");
    let out = s.solve(&SolveRequest::new(&dag, &machine).with_budget(Budget::expired()));
    assert!(out.budget_exhausted);
    assert!(out.stages.iter().any(|st| st.stage == "init"));
    // The ILP stage can never run with an expired budget.
    assert!(out.stages.iter().all(|st| st.stage != "ilp"));
}

/// FNV-1a over the little-endian bytes of `π ‖ τ`.
fn fnv_assignment(sched: &BspSchedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in sched.procs().iter().chain(sched.steps()) {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(cost, fnv(π ‖ τ))` of every list-baseline spelling, captured with the
/// Θ(n²) scan loops (PR 15's parent) that the event-driven ETF and BL-EST
/// replaced: the heap-driven loops must reproduce every schedule bit for
/// bit. `bl-est?mem=on` runs on the same machine bounded at the instance's
/// smallest repairable capacity.
#[test]
fn pinned_list_baseline_schedules_are_bit_identical() {
    let instances = [
        "spmv?n=60&q=0.2&seed=5 @ bsp?p=8&g=2&l=5",
        "sptrsv?n=60&q=0.15&seed=5 @ bsp?p=4&g=3&l=5&numa=tree&delta=3",
        "layered?layers=8&width=12&q=0.3&seed=7 @ bsp?p=4&g=2&l=5&numa=tree&delta=3",
    ];
    let registry = Registry::standard();
    let mut got = Vec::new();
    for spec in instances {
        let inst = bsp_sched::instances().generate_one(spec, 0).unwrap();
        let bounded = inst
            .machine
            .clone()
            .with_memory(MemorySpec::new(min_repairable_capacity(&inst.dag)));
        for sched_spec in [
            "bl-est",
            "etf",
            "bl-est?numa=on",
            "etf?numa=on",
            "bl-est?mem=on",
        ] {
            let machine = if sched_spec.ends_with("mem=on") {
                &bounded
            } else {
                &inst.machine
            };
            let out = registry
                .get(sched_spec)
                .unwrap()
                .solve(&SolveRequest::new(&inst.dag, machine));
            let r = &out.result;
            assert!(
                validate(&inst.dag, machine.p(), &r.sched, &r.comm).is_ok(),
                "{sched_spec} invalid on {spec}"
            );
            got.push((out.total(), fnv_assignment(&out.result.sched)));
        }
    }
    assert_eq!(
        got,
        vec![
            // spmv, uniform P = 8: per-pair λ degenerates to the mean.
            (1131, 0x58f7d044e26ef5d2),
            (1026, 0x2071f61f7f3f0aee),
            (1131, 0x58f7d044e26ef5d2),
            (1026, 0x2071f61f7f3f0aee),
            (1259, 0xaf1c763e2377ddf7),
            // sptrsv, binary-tree NUMA P = 4.
            (1893, 0x836d7676b88f5e9f),
            (1605, 0x8d4ba25003f56731),
            (1790, 0xbe846ee4961cc131),
            (1775, 0x88c15363e591c69f),
            (2287, 0xf3ee8a403f72d00b),
            // layered, binary-tree NUMA P = 4.
            (1053, 0x1179edf88125c916),
            (979, 0x14a4cfffd266f57d),
            (829, 0xfade92a9e8d107a7),
            (834, 0x5844abcd483ac9d6),
            (1729, 0x948f3ca7919a671a),
        ]
    );
}

/// `(name(), stage names, cost, fnv(π ‖ τ))` of every registry entry and
/// of the parameter spellings that reconfigure one (NUMA, seed, memory
/// repair, multilevel ratio, a race), on one uniform-cost NUMA instance and
/// one memory-bounded instance. The base configuration turns the ILP off,
/// so every solve here runs to its local optimum well inside its stage
/// time limits and is deterministic.
#[test]
fn pinned_registry_solves_are_bit_identical() {
    let registry = Registry::standard();
    let specs: Vec<String> = registry
        .descriptors()
        .map(|d| d.name.to_string())
        .chain(
            [
                "etf?numa=on",
                "bl-est?numa=on&mem=on",
                "cilk?seed=7",
                "pipeline/base?ilp=off&mem=on",
                "pipeline/multilevel?ilp=off&ratio=0.3",
                "auto?ilp=off",
                "race/etf,bl-est",
            ]
            .map(String::from),
        )
        .collect();
    let numa = bsp_sched::instances()
        .generate_one(
            "layered?layers=5&width=6&q=0.3&seed=3 @ bsp?p=4&g=2&l=5&numa=tree&delta=3",
            0,
        )
        .unwrap();
    let stencil = bsp_sched::instances()
        .generate_one("stencil?width=8&steps=4 @ bsp?p=4&g=2&l=3", 0)
        .unwrap();
    let bounded = stencil
        .machine
        .clone()
        .with_memory(MemorySpec::new(min_repairable_capacity(&stencil.dag)));
    let mut got = Vec::new();
    for (dag, machine) in [(&numa.dag, &numa.machine), (&stencil.dag, &bounded)] {
        for spec in &specs {
            let s = registry.get_with(spec, &fast_cfg()).unwrap();
            let out = s.solve(&SolveRequest::new(dag, machine));
            let stages: Vec<&str> = out.stages.iter().map(|st| st.stage.as_str()).collect();
            got.push(format!(
                "{} {} {} {:#018x}",
                s.name(),
                stages.join(","),
                out.total(),
                fnv_assignment(&out.result.sched)
            ));
        }
    }
    assert_eq!(
        got,
        [
            // layered, binary-tree NUMA P = 4.
            "cilk run 267 0xcee004953b4db1c0",
            "bl-est run 233 0xc6db1edf8b264593",
            "etf run 272 0x18aac0049b78fbf4",
            "hdagg run 261 0x32d60631208d8cc6",
            "dsc run 237 0x4cc956712c553855",
            "init/bspg run 270 0xfc44962c6e8d5041",
            "init/source run 260 0x2ffa964e94c77884",
            "pipeline/base init,hc 158 0xe63d49ac538a0e67",
            "pipeline/multilevel multilevel,polish 125 0xe7f6c4b09523c5e5",
            "auto init,hc 158 0xe63d49ac538a0e67",
            "etf?numa=on run 260 0x8381d55586834d36",
            "bl-est run 253 0x2079c21b42d35024",
            "cilk run 261 0xeea6b0544dfef610",
            "pipeline/base init,hc 158 0xe63d49ac538a0e67",
            "pipeline/multilevel multilevel,polish 130 0x2c1f4663e592ec44",
            "auto init,hc 158 0xe63d49ac538a0e67",
            "race/etf,bl-est run,race:bl-est 233 0xc6db1edf8b264593",
            // stencil, bounded at its smallest repairable capacity.
            "cilk run 86 0x47e24d92d8e957b4",
            "bl-est run 75 0x0d26f417f8a7fc44",
            "etf run 77 0xc516357286133a07",
            "hdagg run 67 0x2216ca739b9e01e5",
            "dsc run 77 0x5cbd6f2cb3048460",
            "init/bspg run 65 0xe3383c63f23aacd0",
            "init/source run 94 0x5b46ad1037a225d5",
            "pipeline/base init,hc 65 0xe3383c63f23aacd0",
            "pipeline/multilevel multilevel,polish 67 0xf05e74aa1eda9c25",
            "auto init,hc 65 0xe3383c63f23aacd0",
            "etf?numa=on run 77 0xc516357286133a07",
            "bl-est run,mem-repair 183 0xe8a1ff1482aef36c",
            "cilk run 89 0x5aa32777db434784",
            "pipeline/base init,hc,mem-repair 167 0x0586a49f457fb9ba",
            "pipeline/multilevel multilevel,polish 73 0xe3e195f9d3d61c37",
            "auto init,hc 65 0xe3383c63f23aacd0",
            "race/etf,bl-est run,race:bl-est 75 0x0d26f417f8a7fc44",
        ]
    );
}
