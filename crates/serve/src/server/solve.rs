//! `solve` and `delta`: resolve the instance's name, look the answer up,
//! and on a miss fetch the instance (resident, or rebuilt from its
//! recipe), run one solve (cold through the registry, or warm from the
//! base's stored schedule) and store what it found.

use super::conn::{hit_frame, result_frame, send, supersteps_of};
use super::worker::Job;
use super::{lock, Shared};
use crate::cache::{CachedResult, InstanceCache, Lookup, Recipe, ResultKey};
use crate::protocol::{codes, Frame};
use bsp_core::schedulers::solve_pipeline;
use bsp_core::{solve_warm_pipeline, warm_start_from_map};
use bsp_instance::source::{InstanceRegistry, DEFAULT_SEED};
use bsp_instance::{apply_edits, Instance};
use bsp_sched::registry::Registry;
use bsp_schedule::events::{EventObserver, StageReportWire};
use bsp_schedule::solve::{Budget, SolveOutcome, SolveRequest};
use bsp_schedule::BspSchedule;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn make_budget(shared: &Shared, job: &Job) -> Budget {
    let mut budget = Budget::default();
    budget.deadline = job
        .req
        .budget_ms
        .map(Duration::from_millis)
        .or_else(|| shared.cfg.default_budget_ms.map(Duration::from_millis));
    // A per-request deadline caps the solve budget at whatever is left of
    // it — an answer after the deadline is worthless to the client.
    if let Some(deadline) = job.deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        budget.deadline = Some(budget.deadline.map_or(remaining, |b| b.min(remaining)));
    }
    budget.cancel = Some(job.conn.token.child());
    budget
}

/// Runs `f` on the instance cache and forwards the evictions it caused.
fn with_icache<T>(shared: &Shared, f: impl FnOnce(&mut InstanceCache) -> T) -> T {
    let mut cache = lock(&shared.icache);
    let before = cache.evictions();
    let out = f(&mut cache);
    shared
        .metrics
        .instance_evictions
        .add(cache.evictions() - before);
    out
}

/// The instance a resolved canonical name names: resident, or rebuilt
/// from its recipe outside the cache's lock.
fn fetch_instance(
    shared: &Shared,
    instances: &InstanceRegistry,
    name: &str,
) -> Result<Arc<Instance>, String> {
    let plan = match with_icache(shared, |c| c.get(name)) {
        Lookup::Resident(inst) => return Ok(inst),
        Lookup::Rebuild(plan) => plan,
        Lookup::Unknown => return Err(format!("no recipe for instance {name:?}")),
    };
    let inst = plan.run(instances)?;
    shared.metrics.instance_rebuilds.add(plan.builds() as u64);
    with_icache(shared, |c| c.insert(inst.clone(), None));
    Ok(inst)
}

/// The one miss path: the job's budget and (if it asked for events) its
/// observer go into a [`SolveRequest`], `solve` turns that into an
/// outcome, the outcome is stored under `key` — forwarding whatever the
/// insert evicted — and becomes the result frame.
fn solve_and_store(
    shared: &Shared,
    job: &Job,
    inst: &Instance,
    key: &ResultKey,
    start: Instant,
    solve: impl FnOnce(&SolveRequest<'_>) -> SolveOutcome,
) -> Frame {
    let id = job.req.id;
    let observer = EventObserver::new(|ev| send(&job.conn.out, &Frame::event(id, ev)));
    let mut solve_req =
        SolveRequest::new(&inst.dag, &inst.machine).with_budget(make_budget(shared, job));
    if job.req.stream.unwrap_or(false) {
        solve_req = solve_req.with_observer(&observer);
    }
    let outcome = solve(&solve_req);

    let mut store = lock(&shared.store);
    let evicted_before = store.stats().evictions;
    store.insert(CachedResult {
        instance: key.instance.clone(),
        machine: key.machine.clone(),
        sched: key.sched.clone(),
        cost: outcome.total(),
        procs: outcome.result.sched.procs().to_vec(),
        steps: outcome.result.sched.steps().to_vec(),
    });
    let evicted = store.stats().evictions - evicted_before;
    shared.metrics.cache_evictions.add(evicted);
    drop(store);

    let mut frame = result_frame(id, key, start);
    frame.cost = Some(outcome.total());
    frame.supersteps = Some(supersteps_of(outcome.result.sched.steps()));
    frame.cache_hit = Some(false);
    frame.budget_exhausted = Some(outcome.budget_exhausted);
    frame.stages = Some(outcome.stages.iter().map(StageReportWire::from).collect());
    frame
}

/// Whether an instance spec carries a `path=` parameter, on either side
/// of its ` @ `. The `mmio` source reads that file on the daemon's host
/// for whoever asks (and echoes a bad header line back, or reads a device
/// until memory runs out), so the daemon refuses such a spec before
/// anything is opened. Every key the spec grammar accepts is found here,
/// and a few it rejects besides.
fn names_a_file(spec: &str) -> bool {
    spec.split(['?', '&']).any(|param| {
        param
            .split('=')
            .next()
            .is_some_and(|key| key.trim() == "path")
    })
}

pub(super) fn handle_solve(
    shared: &Shared,
    registry: &Registry,
    instances: &InstanceRegistry,
    job: &Job,
) -> Frame {
    let start = Instant::now();
    let req = &job.req;
    let id = req.id;
    let Some(spec) = req.instance.as_deref() else {
        return Frame::error(id, codes::MISSING_FIELD, "solve requires \"instance\"");
    };
    if names_a_file(spec) {
        return Frame::error(
            id,
            codes::BAD_SPEC,
            "instance specs with a path= parameter are not served: the daemon reads no files for clients",
        );
    }
    let sched_raw = req.sched.as_deref().unwrap_or(&shared.cfg.default_sched);
    let sched_key = match shared.sched_key(req.sched.as_deref()) {
        Ok(k) => k,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e),
    };
    // A known spec names its instance without materialising it; a
    // never-seen one costs one generation, which also tells its name.
    let seed = req.seed.unwrap_or(DEFAULT_SEED);
    let known = lock(&shared.icache).resolve(spec, seed).map(str::to_owned);
    let (name, fresh) = match known {
        Some(name) => (name, None),
        None => {
            let inst = match instances.generate_one(spec, seed) {
                Ok(i) => Arc::new(i),
                Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
            };
            with_icache(shared, |c| {
                c.insert(inst.clone(), Some(Recipe::Generated));
                c.alias(spec, seed, &inst.name);
            });
            (inst.name.clone(), Some(inst))
        }
    };
    let Some(key) = ResultKey::from_name(&name, &sched_key) else {
        return Frame::error(
            id,
            codes::BAD_SPEC,
            format!("instance name {name:?} has no \" @ \" machine part"),
        );
    };

    // Stored between admission and now (a pipelined duplicate, another
    // connection's solve), or reached under a spelling admission had not
    // seen yet.
    let hit = lock(&shared.store)
        .get(&key)
        .map(|hit| hit_frame(shared, id, &key, start, hit));
    if let Some(frame) = hit {
        return frame;
    }
    shared.metrics.cache_misses.inc();
    shared.metrics.cold_solves.inc();

    let scheduler = match registry.get_with(sched_raw, &shared.cfg.pipeline) {
        Ok(s) => s,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
    };
    let inst = match fresh {
        Some(inst) => inst,
        None => match fetch_instance(shared, instances, &name) {
            Ok(inst) => inst,
            Err(e) => return Frame::error(id, codes::INTERNAL_ERROR, e),
        },
    };
    solve_and_store(shared, job, &inst, &key, start, |r| scheduler.solve(r))
}

/// FNV-1a of the canonical JSON of the edit list — the suffix that names
/// an edited instance.
fn edits_fingerprint(edits: &[bsp_instance::DagEdit]) -> u64 {
    let text = serde::json::to_string(&edits.to_vec());
    crate::cache::fnv64(text.as_bytes())
}

pub(super) fn handle_delta(
    shared: &Shared,
    registry: &Registry,
    instances: &InstanceRegistry,
    job: &Job,
) -> Frame {
    let start = Instant::now();
    let req = &job.req;
    let id = req.id;
    let Some(base) = req.base.as_deref() else {
        return Frame::error(id, codes::MISSING_FIELD, "delta requires \"base\"");
    };
    let edits = match req.edits.as_ref() {
        Some(e) if !e.is_empty() => e,
        _ => {
            return Frame::error(
                id,
                codes::MISSING_FIELD,
                "delta requires a non-empty \"edits\" array",
            )
        }
    };
    let seed = req.seed.unwrap_or(DEFAULT_SEED);
    let Some(base_name) = lock(&shared.icache).resolve(base, seed).map(str::to_owned) else {
        return Frame::error(
            id,
            codes::UNKNOWN_BASE,
            format!("no cached instance {base:?}; solve it first"),
        );
    };
    let sched_raw = req.sched.as_deref().unwrap_or(&shared.cfg.default_sched);
    let sched_key = match shared.sched_key(req.sched.as_deref()) {
        Ok(k) => k,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e),
    };

    let Some((base_dag_spec, machine_spec)) = base_name.split_once(" @ ") else {
        return Frame::error(
            id,
            codes::BAD_SPEC,
            format!("base name {base_name:?} has no \" @ \" machine part"),
        );
    };
    let name = format!(
        "{base_dag_spec}+edit{:08x} @ {machine_spec}",
        edits_fingerprint(edits)
    );
    let key = ResultKey::from_name(&name, &sched_key).expect("derived name has machine part");

    // The same edit on the same base under the same scheduler is the same
    // problem, so the derived key can itself hit the store. Its name
    // carries only a hash of the edits: the stored answer is this
    // request's only if the name's recipe is these very edits.
    if lock(&shared.icache).derived_from(&name, &base_name, edits) {
        let hit = lock(&shared.store)
            .get_if_present(&key)
            .map(|hit| hit_frame(shared, id, &key, start, hit));
        if let Some(frame) = hit {
            if let Some(label) = req.label.as_deref() {
                lock(&shared.icache).label(label, &name);
            }
            return frame;
        }
    }

    let base_inst = match fetch_instance(shared, instances, &base_name) {
        Ok(inst) => inst,
        Err(e) => return Frame::error(id, codes::INTERNAL_ERROR, e),
    };
    let edited = match apply_edits(&base_inst.dag, edits) {
        Ok(o) => o,
        Err(e) => return Frame::error(id, codes::BAD_EDIT, e.to_string()),
    };
    let inst = Arc::new(Instance {
        name,
        dag: edited.dag,
        machine: base_inst.machine.clone(),
    });
    lock(&shared.store).count_miss();
    shared.metrics.cache_misses.inc();

    // Warm start requires a cached schedule of the *base* under the same
    // scheduler (internal probe: no client-visible hit/miss counting).
    let base_sched = ResultKey::from_name(&base_inst.name, &sched_key).and_then(|k| {
        let store = lock(&shared.store);
        let cached = store.peek(&k)?;
        if cached.procs.len() == base_inst.dag.n() {
            Some(BspSchedule::from_parts(
                cached.procs.clone(),
                cached.steps.clone(),
            ))
        } else {
            None
        }
    });

    let mut warm_init_cost = None;
    let mut frame = match base_sched {
        Some(base_sched) => {
            shared.metrics.warm_solves.inc();
            let initial =
                warm_start_from_map(&inst.dag, &inst.machine, &base_sched, &edited.node_map);
            solve_and_store(shared, job, &inst, &key, start, |solve_req| {
                solve_pipeline("warm", solve_req, |cx| {
                    let (dag, machine) = (&inst.dag, &inst.machine);
                    let r = solve_warm_pipeline(dag, machine, &initial, &shared.cfg.pipeline, cx);
                    warm_init_cost = Some(r.init_cost);
                    r
                })
            })
        }
        None => {
            // No cached base schedule: fall back to a cold solve of the
            // edited instance.
            shared.metrics.cold_solves.inc();
            let scheduler = match registry.get_with(sched_raw, &shared.cfg.pipeline) {
                Ok(s) => s,
                Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
            };
            solve_and_store(shared, job, &inst, &key, start, |r| scheduler.solve(r))
        }
    };
    frame.warm = Some(warm_init_cost.is_some());
    frame.warm_init_cost = warm_init_cost;
    with_icache(shared, |c| {
        if let Some(label) = req.label.as_deref() {
            c.label(label, &inst.name);
        }
        let edits = edits.clone();
        c.insert(
            inst,
            Some(Recipe::Derived {
                base: base_name,
                edits,
            }),
        );
    });
    frame
}
