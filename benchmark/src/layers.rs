//! Direct micro-timings of single layers through their public functions.
//!
//! Run only in a traced run, after the timed window, each in the traced
//! run of the workload whose end-to-end metric the layer is predicted to
//! move (see the README's prediction table).

use crate::common::{self, micro_ns, seeded_edits, Rng};
use crate::Opts;
use bsp_sched::core::ilp::window::{WindowIlp, WindowOptions};
use bsp_sched::core::multilevel::{coarsen, MultilevelConfig};
use bsp_sched::dag::{DagBuilder, TopoInfo};
use bsp_sched::instance::{apply_edits, DagEdit, Instance, MachineSpec};
use bsp_sched::prelude::*;
use bsp_sched::schedule::cost::schedule_cost;
use bsp_sched::schedule::memory::memory_cost;
use bsp_sched::schedule::trivial::trivial_cost;
use bsp_sched::schedule::validity::validate;
use bsp_serve::protocol::{parse_line, to_line};
use bsp_serve::{CachedResult, Frame, JobQueue, Request, ResultKey, ResultStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Layers = BTreeMap<&'static str, f64>;

/// Median wall-clock of `reps` calls, in milliseconds.
fn median_call_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    common::median_ms(&samples)
}

/// `dagdb`/`instance`, `dag` and `schedule` on the spmv ladder
/// (home: `offline-scale`).
pub fn library_micro(
    i1e3: &Instance,
    i1e4: &Instance,
    i3e4: &Instance,
    l: &mut Layers,
) -> Result<(), String> {
    let instances = bsp_sched::instances();
    for (inst, name) in [
        (i1e3, "instance.generate_ms.n1e3"),
        (i1e4, "instance.generate_ms.n1e4"),
        (i3e4, "instance.generate_ms.n3e4"),
    ] {
        // A resolved name replays to exactly the instance it labels.
        let again = instances
            .generate_one(&inst.name, 0)
            .map_err(|e| e.to_string())?;
        if again != *inst {
            return Err(format!("{} does not replay to itself", inst.name));
        }
        l.insert(
            name,
            median_call_ms(5, || {
                black_box(instances.generate_one(black_box(&inst.name), 0).ok());
            }),
        );
    }
    let (dag_part, machine_part) = i1e4.name.split_once(" @ ").ok_or("no machine part")?;
    l.insert(
        "instance.spec_parse_us",
        micro_ns(2000, || {
            black_box(SchedulerSpec::parse(black_box(dag_part)).ok());
            black_box(MachineSpec::parse(black_box(machine_part)).ok());
        }) / 1e3,
    );

    let dag = &i1e4.dag;
    let machine = &i1e4.machine;
    let edges: Vec<(u32, u32)> = dag.edges().collect();
    l.insert(
        "dag.build_ms",
        median_call_ms(7, || {
            let mut b = DagBuilder::with_capacity(dag.n(), edges.len());
            for v in dag.nodes() {
                b.add_node(dag.work(v), dag.comm(v));
            }
            for &(u, v) in &edges {
                b.add_edge(u, v).expect("edge of a valid DAG");
            }
            black_box(b.build().ok());
        }),
    );
    l.insert(
        "dag.topo_ms",
        median_call_ms(9, || {
            black_box(TopoInfo::new(black_box(dag)).depth());
        }),
    );
    l.insert(
        "dag.coarsen_ms",
        median_call_ms(3, || {
            black_box(
                coarsen(
                    black_box(dag),
                    dag.n() * 3 / 10,
                    &MultilevelConfig::default(),
                )
                .len(),
            );
        }),
    );

    let hdagg = Registry::standard()
        .get("hdagg")
        .map_err(|e| e.to_string())?;
    let out = hdagg.solve(&SolveRequest::new(dag, machine));
    let (sched, comm) = (&out.result.sched, &out.result.comm);
    l.insert(
        "schedule.cost_ms",
        median_call_ms(9, || {
            black_box(schedule_cost(dag, machine, black_box(sched), comm).total);
        }),
    );
    l.insert(
        "schedule.lazy_cost_ms",
        median_call_ms(9, || {
            black_box(lazy_cost(dag, machine, black_box(sched)));
        }),
    );
    l.insert(
        "schedule.validate_ms",
        median_call_ms(9, || {
            black_box(validate(dag, machine.p(), black_box(sched), comm).is_ok());
        }),
    );
    l.insert(
        "schedule.trivial_ms",
        median_call_ms(9, || {
            black_box(trivial_cost(black_box(dag), machine));
        }),
    );
    let spec = "pipeline/base?ilp=off&hc_iters=200&hccs_iters=100&threads=1";
    l.insert(
        "schedule.sched_spec_parse_us",
        micro_ns(5000, || {
            black_box(
                SchedulerSpec::parse(black_box(spec))
                    .map(|s| s.canonical())
                    .ok(),
            );
        }) / 1e3,
    );
    Ok(())
}

/// `schedule.memory_cost_ms`, `ilp.*` and `par.*` (home:
/// `offline-refine`).
pub fn refine_micro(
    mem_inst: &Instance,
    mem_out: &SolveOutcome,
    opts: &Opts,
    l: &mut Layers,
) -> Result<(), String> {
    l.insert(
        "schedule.memory_cost_ms",
        median_call_ms(15, || {
            black_box(
                memory_cost(
                    &mem_inst.dag,
                    &mem_inst.machine,
                    black_box(&mem_out.result.sched),
                    &mem_out.result.comm,
                )
                .total,
            );
        }),
    );

    // One windowed ILP over the tail of a refined schedule, straight into
    // the branch-and-bound solver, so its node count is visible.
    let registry = Registry::standard();
    let base = common::base_pipeline();
    let instances = bsp_sched::instances();
    let tiny = instances
        .generate_one(
            "dataset/tiny?scale=1#coarse/cg/conv/8 @ bsp?p=4&g=2&numa=tree&delta=3",
            0,
        )
        .map_err(|e| e.to_string())?;
    let refined = registry
        .get_with("pipeline/base?ilp=off", &base)
        .map_err(|e| e.to_string())?
        .solve(&SolveRequest::new(&tiny.dag, &tiny.machine));
    let sched = bsp_sched::schedule::compact::compact_lazy(&tiny.dag, &refined.result.sched);
    let last = sched.n_supersteps().saturating_sub(1);
    let mut lo = last;
    while lo > 0 {
        let nodes = tiny
            .dag
            .nodes()
            .filter(|&v| sched.step(v) >= lo - 1)
            .count();
        if WindowIlp::estimate_vars(nodes, (last - lo + 2) as usize, tiny.machine.p()) > 400 {
            break;
        }
        lo -= 1;
    }
    let window = WindowIlp::build(
        &tiny.dag,
        &tiny.machine,
        &sched,
        lo,
        last,
        WindowOptions::default(),
    );
    let warm = window.warm_start(&tiny.dag, &tiny.machine, &sched);
    let mut limits = base.ilp.limits.clone();
    limits.max_nodes = 8;
    let t = Instant::now();
    let sol = bsp_sched::ilp::solve_with_presolve(&window.model, Some(&warm), &limits);
    let ilp_ms = t.elapsed().as_nanos() as f64 / 1e6;
    l.insert("ilp.solve_ms", ilp_ms);
    l.insert("ilp.nodes", sol.nodes as f64);
    l.insert("ilp.nodes_per_ms", sol.nodes as f64 / ilp_ms.max(1e-9));

    // The same p=32 solve on one and on two threads: bit-identical cost,
    // and whatever the host's cores make of the second thread.
    let wide = instances
        .generate_one(
            &format!(
                "erdos?n=400&q=0.03&seed={} @ bsp?p=32&g=2",
                Rng::new(opts.seed, 0x9a7).below(1 << 31)
            ),
            0,
        )
        .map_err(|e| e.to_string())?;
    let sched = registry
        .get_with("pipeline/base?ilp=off", &base)
        .map_err(|e| e.to_string())?;
    let chunks0 = common::obs_counter("bsp_par_chunks_total");
    let busy0 = common::obs_counter("bsp_par_worker_busy_us");
    let timed = |threads: usize| {
        let mut cost = 0;
        let ms = median_call_ms(3, || {
            let req = SolveRequest::new(&wide.dag, &wide.machine).with_threads(threads);
            cost = black_box(sched.solve(&req)).total();
        });
        (ms, cost)
    };
    let (t1, c1) = timed(1);
    let (t2, c2) = timed(2);
    if c1 != c2 {
        return Err(format!("threads=1 cost {c1} != threads=2 cost {c2}"));
    }
    l.insert("par.hc_t1_ms", t1);
    l.insert("par.hc_t2_ms", t2);
    l.insert("par.speedup_x", t1 / t2.max(1e-9));
    l.insert(
        "par.chunks",
        (common::obs_counter("bsp_par_chunks_total") - chunks0) as f64,
    );
    l.insert(
        "par.worker_busy_us",
        (common::obs_counter("bsp_par_worker_busy_us") - busy0) as f64,
    );
    l.insert("par.host_threads", bsp_par::detect_threads() as f64);
    Ok(())
}

/// Protocol, store, queue, `obs`, `faults` and registry micro-timings
/// (home: `serve-hot`, the only workload where 100 ns is visible).
pub fn serve_micro(scratch: &std::path::Path, l: &mut Layers) -> Result<(), String> {
    let mut req = Request::new("solve");
    req.id = Some(123_456);
    req.instance = Some("layered?layers=5&width=8&seed=4242 @ bsp?p=8&g=2".to_string());
    req.sched = Some("pipeline/base?ilp=off&hc_iters=200".to_string());
    req.budget_ms = Some(common::SLACK_MS);
    let mut delta = Request::new("delta");
    delta.id = Some(123_457);
    delta.base = req.instance.clone();
    delta.edits = Some(vec![
        DagEdit::SetWeights {
            node: 3,
            work: Some(9),
            comm: None,
        },
        DagEdit::AddNode {
            work: 4,
            comm: 2,
            preds: vec![1, 2],
            succs: vec![],
        },
    ]);
    let result = Frame {
        kind: "result".to_string(),
        id: Some(123_456),
        instance: Some(
            "layered?comm=4&layers=5&q=0.3&seed=4242&width=8&work=8 @ bsp?p=8&g=2".into(),
        ),
        sched: req.sched.clone(),
        cost: Some(1234),
        supersteps: Some(7),
        cache_hit: Some(true),
        elapsed_us: Some(17),
        ..Frame::default()
    };
    let lines = [to_line(&req), to_line(&delta)];
    let result_line = to_line(&result);
    l.insert(
        "serve.protocol_parse_us",
        micro_ns(6000, || {
            black_box(parse_line::<Request>(black_box(&lines[0])).ok());
            black_box(parse_line::<Request>(black_box(&lines[1])).ok());
            black_box(parse_line::<Frame>(black_box(&result_line)).ok());
        }) / 3e3,
    );
    l.insert(
        "serve.protocol_to_line_us",
        micro_ns(6000, || {
            black_box(to_line(black_box(&req)));
            black_box(to_line(black_box(&delta)));
            black_box(to_line(black_box(&result)));
        }) / 3e3,
    );

    // A 4k-entry store of 40-node schedules: get, insert, save, load.
    let entry = |i: usize| CachedResult {
        instance: format!("layered?comm=4&layers=5&q=0.3&seed={i}&width=8&work=8"),
        machine: "bsp?p=8&g=2".to_string(),
        sched: "pipeline/base?hc_iters=200&ilp=off".to_string(),
        cost: 1000 + i as u64,
        procs: (0..40).map(|v| (v + i as u32) % 8).collect(),
        steps: (0..40).map(|v| v / 8).collect(),
    };
    let mut store = ResultStore::new();
    for i in 0..4096 {
        store.insert(entry(i));
    }
    let keys: Vec<ResultKey> = (0..4096).map(|i| entry(i).key()).collect();
    let mut k = 0usize;
    l.insert(
        "serve.store_get_us",
        micro_ns(20_000, || {
            k = (k + 1013) % keys.len();
            black_box(store.get(black_box(&keys[k])).map(|c| c.cost));
        }) / 1e3,
    );
    let mut next = 4096usize;
    l.insert(
        "serve.store_insert_us",
        micro_ns(4000, || {
            store.insert(entry(next));
            next += 1;
        }) / 1e3,
    );
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let path = scratch.join("store-v2.jsonl");
    let mut save_err = None;
    l.insert(
        "serve.store_save_ms",
        median_call_ms(3, || {
            // Saving clears the dirty flag; touch the store so every
            // repetition writes the whole file.
            store.insert(entry(0));
            if let Err(e) = store.save(&path) {
                save_err = Some(e);
            }
        }),
    );
    if let Some(e) = save_err {
        return Err(format!("store save: {e}"));
    }
    let mut loaded = 0u64;
    l.insert(
        "serve.store_load_ms",
        median_call_ms(3, || {
            loaded = ResultStore::load(&path).map_or(0, |s| s.stats().len);
        }),
    );
    if loaded != store.stats().len {
        return Err(format!(
            "store reloaded {loaded} of {} entries",
            store.stats().len
        ));
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("jsonl.corrupt"));

    let queue: JobQueue<u64> = JobQueue::new(64);
    l.insert(
        "serve.queue_push_pop_ns",
        micro_ns(200_000, || {
            let _ = queue.try_push(black_box(7));
            black_box(queue.pop());
        }),
    );

    let buffer = bsp_obs::trace::TraceBuffer::new(1024);
    l.insert(
        "obs.span_ns",
        micro_ns(50_000, || {
            black_box(buffer.span("bench", "bench")).finish();
        }),
    );
    let reg = bsp_obs::MetricRegistry::new();
    let counter = reg.counter("bench_counter_total", &[]);
    l.insert(
        "obs.counter_inc_ns",
        micro_ns(2_000_000, || black_box(&counter).inc()),
    );
    let hist = reg.histogram("bench_hist_us", &[]);
    let mut x = 1u64;
    l.insert(
        "obs.hist_observe_ns",
        micro_ns(2_000_000, || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            black_box(&hist).observe(x >> 44);
        }),
    );
    l.insert(
        "faults.disabled_hook_ns",
        micro_ns(2_000_000, || {
            black_box(bsp_faults::current().is_some());
        }),
    );
    let registry = Registry::standard();
    let base = common::base_pipeline();
    l.insert(
        "registry.get_us",
        micro_ns(3000, || {
            black_box(
                registry
                    .get_with(
                        black_box("pipeline/base?ilp=off&hc_iters=200&hccs_iters=100"),
                        &base,
                    )
                    .is_ok(),
            );
        }) / 1e3,
    );
    Ok(())
}

/// `instance.apply_edits_us.*` and `core.warm_ms`: the library half of a
/// `delta` request (home: `serve-solve`).
pub fn delta_micro(base: &Instance, seed: u64, l: &mut Layers) -> Result<(), String> {
    let mut rng = Rng::new(seed, 0xde17a);
    let edits = seeded_edits(base, &mut rng);
    l.insert(
        "instance.apply_edits_us.n200",
        micro_ns(600, || {
            black_box(apply_edits(black_box(&base.dag), &edits).is_ok());
        }) / 1e3,
    );
    let big = bsp_sched::instances()
        .generate_one(
            &format!(
                "spmv?n=120&q=0.25&seed={} @ bsp?p=4&g=2",
                rng.below(1 << 31)
            ),
            0,
        )
        .map_err(|e| e.to_string())?;
    let big_edits = seeded_edits(&big, &mut rng);
    l.insert(
        "instance.apply_edits_us.n4k",
        micro_ns(60, || {
            black_box(apply_edits(black_box(&big.dag), &big_edits).is_ok());
        }) / 1e3,
    );

    let cfg = {
        let mut c = common::base_pipeline();
        c.enable_ilp = false;
        c
    };
    let registry = Registry::standard();
    let cold = registry
        .get_with("pipeline/base?ilp=off", &cfg)
        .map_err(|e| e.to_string())?
        .solve(&SolveRequest::new(&base.dag, &base.machine));
    let edited = apply_edits(&base.dag, &edits).map_err(|e| e.to_string())?;
    l.insert(
        "core.warm_ms",
        median_call_ms(9, || {
            black_box(
                common::warm_resolve(
                    &edited.dag,
                    &edited.node_map,
                    &base.machine,
                    &cold.result.sched,
                    &cfg,
                )
                .1,
            );
        }),
    );
    Ok(())
}
