//! `online-stream`: arrival traces pushed event by event through
//! `OnlineScheduler::push`, one thread, closed loop, op = one `push`.
//!
//! Seven of eight pushes only buffer an arrival; the eighth re-plans the
//! tentative suffix (`apply_edits`, CSR rebuild, a fresh `ScheduleState`,
//! a capped hill climb). That per-event incremental work is nearly all of
//! the run; the cold solve of the same DAG is timed beside it as the
//! reference a replay is compared with.
//!
//! The latency of an arrival runs until the re-plan that placed it
//! returns: in the closed loop from the start of its own `push`, in the
//! open loop from when it was due. (The latency of a bare `push` would be
//! 200 ns seven times out of eight and say nothing.)
//!
//! As in the offline workloads, the streams come in a reference part that
//! is the same on every seed — the latency metrics, the cost ratios and
//! the cold/warm comparison are taken there — and a part drawn from
//! `--seed` that shares in `ops_per_s` and is verified like the rest.

use crate::common::{self, Calibrator, Digest, Rng, RunResult, SLACK};
use crate::trace::Tracer;
use crate::{oracle, stats, Opts};
use bsp_online::{BatchReport, OnlineConfig, OnlineScheduler};
use bsp_sched::instance::trace::{
    arrival_trace, ArrivalEvent, ArrivalOrder, ArrivalTrace, TraceConfig,
};
use bsp_sched::instance::Instance;
use bsp_sched::prelude::*;
use bsp_sched::schedule::scheduler::SharedScheduler;
use std::time::{Duration, Instant};

/// Event rate of the virtual-time open loop, events/s per stream: about a
/// quarter of what one thread sustains on the big trace on the seed
/// commit, low enough that no backlog builds (at half of capacity the
/// tail is queueing delay, which multiplies any change in service time
/// several times over, the host's noise included). An arrival's latency
/// is then the wait for its batch to fill plus its re-plan. A constant,
/// never derived at run time.
pub const EVENT_RATE: f64 = 1000.0;

const COLD_SCHED: &str = "pipeline/base?ilp=off";

/// Generator and trace seed of the reference streams.
const REFERENCE_SEED: u64 = 20_240_527;

struct Stream {
    /// Index into [`Plan::dags`].
    dag: usize,
    trace: ArrivalTrace,
    label: u32,
}

/// One traced DAG and its cold answers.
struct Source {
    inst: Instance,
    /// Same on every seed.
    reference: bool,
    /// The DAG `big_solve_ms` and `online.cold_ms` report.
    big: bool,
    cold_cost: u64,
    hdagg: u64,
}

struct Plan {
    dags: Vec<Source>,
    /// Two per DAG: topological, then shuffled order.
    streams: Vec<Stream>,
    cold: SharedScheduler,
    cfg: OnlineConfig,
}

/// The online configuration: defaults, except that the per-arrival budget
/// is the 64-move cap alone — the 2 ms wall-clock default would make the
/// final cost depend on machine speed.
fn online_config() -> OnlineConfig {
    let mut pipeline = common::base_pipeline();
    pipeline.enable_ilp = false;
    OnlineConfig {
        budget_per_arrival: SLACK,
        moves_per_arrival: Some(64),
        pipeline,
        ..OnlineConfig::default()
    }
}

/// `(instance spec, reference, big)` of the traced DAGs: the reference
/// ones, then those made from the seed.
fn instance_specs(seed: u64, quick: bool) -> Vec<(String, bool, bool)> {
    let mut rng = Rng::new(seed, 0x0a11);
    let uniform = "bsp?p=8&g=2&l=5";
    let numa = "bsp?p=4&g=2&numa=tree&delta=3";
    let r = REFERENCE_SEED;
    // spmv?n=120 is the ROADMAP's row: n = 3861, 484 re-plans.
    let big = if quick { "spmv?n=40" } else { "spmv?n=120" };
    let mut s = || rng.below(1 << 31);
    vec![
        (format!("{big}&seed={r} @ {uniform}"), true, true),
        (format!("stencil?width=16&steps=12 @ {numa}"), true, false),
        (format!("erdos?n=300&q=0.03&seed={r} @ {numa}"), true, false),
        (format!("spmv?n=50&seed={r} @ {numa}"), true, false),
        (
            format!("erdos?n=300&q=0.03&seed={} @ {numa}", s()),
            false,
            false,
        ),
        (format!("spmv?n=50&seed={} @ {uniform}", s()), false, false),
    ]
}

/// Set-up: generate the DAGs and their arrival traces (topological and
/// shuffled order), solve each DAG cold and with HDagg, and check both
/// answers.
fn setup(opts: &Opts, cal: &mut Calibrator, tracer: &mut Tracer) -> Result<Plan, String> {
    let registry = Registry::standard();
    let cfg = online_config();
    let cold = registry
        .get_with(COLD_SCHED, &cfg.pipeline)
        .map_err(|e| e.to_string())?;
    let hdagg = registry.get("hdagg").map_err(|e| e.to_string())?;
    let mut dags = Vec::new();
    let mut streams = Vec::new();
    for (spec, reference, big) in instance_specs(opts.seed, opts.quick) {
        cal.tick();
        let inst = bsp_sched::instances()
            .generate_one(&spec, 0)
            .map_err(|e| format!("{spec}: {e}"))?;
        oracle::check_input(&inst.dag).map_err(|e| format!("{spec}: {e}"))?;
        let mut costs = [0u64; 2];
        for (slot, sched) in costs.iter_mut().zip([&cold, &hdagg]) {
            let out = sched.solve(&SolveRequest::new(&inst.dag, &inst.machine));
            oracle::check_outcome(&inst, &out, false).map_err(|e| format!("{spec}: {e}"))?;
            *slot = out.total();
        }
        for order in [ArrivalOrder::Topological, ArrivalOrder::ShuffledReady] {
            let trace = arrival_trace(
                &inst.dag,
                &inst.name,
                &TraceConfig {
                    order,
                    seed: if reference { REFERENCE_SEED } else { opts.seed },
                    ..TraceConfig::default()
                },
            );
            if trace.arrivals() != inst.dag.n() {
                return Err(format!("{spec}: trace has {} arrivals", trace.arrivals()));
            }
            let label = tracer.label(&format!("{}/{order} n={}", inst.name, inst.dag.n()));
            streams.push(Stream {
                dag: dags.len(),
                trace,
                label,
            });
        }
        dags.push(Source {
            inst,
            reference,
            big,
            cold_cost: costs[0],
            hdagg: costs[1],
        });
    }
    Ok(Plan {
        dags,
        streams,
        cold,
        cfg,
    })
}

/// What one replay of one stream measured.
struct Replay {
    /// Per-push service time, ns, in event order.
    push_ns: Vec<u64>,
    /// For each event, the index of the push whose re-plan placed it.
    placed_by: Vec<u32>,
    reports: Vec<BatchReport>,
    /// Latency of the `Finalize` push, ns.
    finalize_ns: u64,
    /// Σ `push_ns`.
    wall_ns: u64,
    /// When the replay began and ended.
    span: (Instant, Instant),
    cost: u64,
    digest: u64,
    /// The finished scheduler, kept for the oracle on the first pass.
    sch: Option<OnlineScheduler>,
}

impl Replay {
    /// Closed-loop latency of each arrival: its own push and every push
    /// after it up to the re-plan that placed it.
    fn closed_latencies(&self) -> Vec<u64> {
        // done[i]: Σ push_ns[..=i].
        let done: Vec<u64> = self
            .push_ns
            .iter()
            .scan(0u64, |acc, &ns| {
                *acc += ns;
                Some(*acc)
            })
            .collect();
        (0..self.push_ns.len())
            .map(|i| done[self.placed_by[i] as usize] - (done[i] - self.push_ns[i]))
            .collect()
    }

    /// Open-loop latency of each arrival at `rate` events per second, in
    /// virtual time over the measured service times: event `i` is due at
    /// `i / rate`, pushed when due and the scheduler is free, and done
    /// when the re-plan that placed it returns.
    fn open_latencies(&self, rate: f64) -> Vec<u64> {
        common::virtual_open_loop_until(&self.push_ns, rate, |i| self.placed_by[i] as usize)
    }

    fn scale(&mut self, by: f64) {
        let scale = |ns: &mut u64| *ns = (*ns as f64 / by) as u64;
        self.push_ns.iter_mut().for_each(scale);
        self.reports
            .iter_mut()
            .for_each(|b| scale(&mut b.elapsed_us));
        scale(&mut self.finalize_ns);
        self.wall_ns = self.push_ns.iter().sum();
    }
}

fn replay(
    st: &Stream,
    plan: &Plan,
    tracer: &mut Tracer,
    cal: &mut Calibrator,
    keep: bool,
    res: &mut RunResult,
) -> Replay {
    let machine = &plan.dags[st.dag].inst.machine;
    let mut sch =
        OnlineScheduler::new(machine, plan.cfg.clone()).expect("unbounded-memory machine");
    let n = st.trace.events.len();
    let mut r = Replay {
        push_ns: Vec::with_capacity(n),
        placed_by: vec![n as u32 - 1; n],
        reports: Vec::new(),
        finalize_ns: 0,
        wall_ns: 0,
        span: (Instant::now(), Instant::now()),
        cost: 0,
        digest: 0,
        sch: None,
    };
    let mut unplaced_from = 0usize;
    for (i, ev) in st.trace.events.iter().enumerate() {
        let t0 = Instant::now();
        let pushed = sch.push(std::hint::black_box(ev));
        let t1 = Instant::now();
        let dur = (t1 - t0).as_nanos() as u64;
        r.push_ns.push(dur);
        let report = match pushed {
            Ok(report) => report,
            Err(e) => {
                res.fail(|| format!("{}: push rejected: {e}", st.trace.name));
                break;
            }
        };
        if matches!(ev, ArrivalEvent::Finalize) {
            r.finalize_ns = dur;
        }
        if tracer.on {
            let start = tracer.ns(t0);
            let op = tracer.push("op", "bench", 0, start, dur, st.label);
            if let Some(b) = &report {
                let d = (b.elapsed_us * 1000).min(dur);
                tracer.push("replan", "online", op, start + (dur - d), d, st.label);
            }
        }
        if let Some(b) = report {
            if b.truncated {
                res.fail(|| {
                    format!(
                        "{}: re-plan {} ended on a wall-clock limit",
                        st.trace.name, b.batch
                    )
                });
            }
            r.reports.push(b);
            r.placed_by[unplaced_from..=i].fill(i as u32);
            unplaced_from = i + 1;
            cal.tick_at(t1);
        }
    }
    r.wall_ns = r.push_ns.iter().sum();
    r.span.1 = Instant::now();
    match sch.outcome() {
        Some(out) => {
            let mut d = Digest::default();
            d.word(out.cost);
            d.words(out.sched.procs());
            d.words(out.sched.steps());
            r.cost = out.cost;
            r.digest = d.0;
        }
        None => res.fail(|| format!("{}: stream did not finalize", st.trace.name)),
    }
    r.sch = keep.then_some(sch);
    r
}

/// One pass: every stream replayed once, then every DAG solved cold once
/// (the reference the replays are compared with).
struct Pass {
    replays: Vec<Replay>,
    /// Cold solve time per DAG, ns, and when each began.
    cold_ns: Vec<u64>,
    cold_from: Vec<Instant>,
}

impl Pass {
    /// Divides every replay's and every cold solve's times by the host's
    /// slowdown while it ran.
    fn at_quiet_speed(&mut self, cal: &Calibrator) {
        for r in self.replays.iter_mut() {
            r.scale(cal.slowdown(r.span.0, r.span.1));
        }
        for (ns, &from) in self.cold_ns.iter_mut().zip(&self.cold_from) {
            *ns = cal.at_quiet_speed(*ns, from, from + Duration::from_nanos(*ns));
        }
    }
}

fn run_pass(
    plan: &Plan,
    tracer: &mut Tracer,
    cal: &mut Calibrator,
    keep: bool,
    res: &mut RunResult,
) -> Pass {
    let replays = plan
        .streams
        .iter()
        .map(|st| replay(st, plan, tracer, cal, keep, res))
        .collect();
    let mut cold_ns = Vec::with_capacity(plan.dags.len());
    let mut cold_from = Vec::with_capacity(plan.dags.len());
    for src in &plan.dags {
        cal.tick();
        let t = Instant::now();
        cold_from.push(t);
        let out = plan
            .cold
            .solve(&SolveRequest::new(&src.inst.dag, &src.inst.machine));
        cold_ns.push(t.elapsed().as_nanos() as u64);
        if out.total() != src.cold_cost || out.budget_exhausted {
            res.fail(|| {
                format!(
                    "{}: cold solve cost {} differs from set-up's {}",
                    src.inst.name,
                    out.total(),
                    src.cold_cost
                )
            });
        }
    }
    Pass {
        replays,
        cold_ns,
        cold_from,
    }
}

/// Fewest passes of the steady window: each metric is the quiet quartile
/// over the passes, which needs a few of them.
const MIN_PASSES: usize = 3;

/// Runs the workload.
pub fn run(opts: &Opts, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut cal = Calibrator::new();
    let (plan, setups) =
        common::repeat_setup(&mut cal, opts.quick, |cal| setup(opts, cal, tracer), drop)?;

    // The first pass: untraced, outside the steady window, kept whole for
    // the oracle.
    let first = run_pass(
        &plan,
        &mut Tracer::new(Instant::now(), 0, false),
        &mut cal,
        true,
        &mut res,
    );
    let peak_rss_mb = common::peak_rss_mb();

    // The steady window: whole passes until the time box is used up; a
    // traced run records spans on every other pass.
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let window = Instant::now();
    loop {
        let traced = opts.trace && passes.len().is_multiple_of(2);
        tracer.on = traced;
        passes.push((traced, run_pass(&plan, tracer, &mut cal, false, &mut res)));
        let elapsed = window.elapsed().as_secs_f64();
        let mean_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + mean_pass / 2.0 >= opts.seconds {
            break;
        }
    }
    tracer.on = false;
    let replay_wall = |p: &Pass| p.replays.iter().map(|r| r.wall_ns).sum::<u64>() as f64;
    let raw_wall: f64 = passes.iter().map(|(_, p)| replay_wall(p)).sum();
    let raw_best_pass_ns = passes
        .iter()
        .map(|(_, p)| replay_wall(p))
        .fold(f64::MAX, f64::min);
    for (_, p) in passes.iter_mut() {
        p.at_quiet_speed(&cal);
    }
    let quiet_wall: f64 = passes.iter().map(|(_, p)| replay_wall(p)).sum();

    // Verification, outside the timed region: every first-pass outcome
    // through the oracle, every later pass bit-identical to the first.
    for (st, r) in plan.streams.iter().zip(&first.replays) {
        let Some(out) = r.sch.as_ref().and_then(|s| s.outcome()) else {
            continue;
        };
        let inst = &plan.dags[st.dag].inst;
        let checked = out
            .for_source()
            .ok_or_else(|| "trace ids are not dense".to_string())
            .and_then(|(sched, comm)| {
                oracle::check(&inst.dag, &inst.machine, &sched, &comm, out.cost, false)
            });
        if let Err(e) = checked {
            res.fail(|| format!("{}: {e}", st.trace.name));
        }
    }
    let events_per_pass: usize = plan.streams.iter().map(|s| s.trace.events.len()).sum();
    res.attempted = (events_per_pass * (passes.len() + 1)) as u64;
    let mut cost_vector = Digest::default();
    for r in &first.replays {
        cost_vector.word(r.cost);
    }
    res.pass_digest = cost_vector.0;
    for (_, pass) in &passes {
        for ((st, a), b) in plan.streams.iter().zip(&pass.replays).zip(&first.replays) {
            if a.digest != b.digest {
                res.fail(|| {
                    format!(
                        "{}: cost {} differs from the first pass's {}",
                        st.trace.name, a.cost, b.cost
                    )
                });
            }
        }
    }

    // End-to-end metrics: each one is computed per pass and reported as
    // the quiet quartile over the passes.
    let is_reference = |s: usize| plan.dags[plan.streams[s].dag].reference;
    let reference_streams: Vec<usize> = (0..plan.streams.len())
        .filter(|&s| is_reference(s))
        .collect();
    let over_passes = |f: &dyn Fn(&Pass) -> f64, higher: bool| -> f64 {
        stats::quiet(
            &passes.iter().map(|(_, p)| f(p)).collect::<Vec<_>>(),
            higher,
        )
    };
    let pooled = |p: &Pass, f: &dyn Fn(&Replay) -> Vec<u64>| -> Vec<u64> {
        let mut v: Vec<u64> = reference_streams
            .iter()
            .flat_map(|&s| f(&p.replays[s]))
            .collect();
        v.sort_unstable();
        v
    };
    let arrivals_per_pass: usize = reference_streams
        .iter()
        .map(|&s| plan.streams[s].trace.events.len())
        .sum();
    let tail_pct = stats::tail_percentile(arrivals_per_pass).min(95);
    let pct_of = |f: fn(&Replay) -> Vec<u64>, pct: f64| {
        over_passes(
            &|p| stats::percentile_sorted(&pooled(p, &f), pct) as f64,
            false,
        )
    };
    let closed: fn(&Replay) -> Vec<u64> = Replay::closed_latencies;
    let open: fn(&Replay) -> Vec<u64> = |r| r.open_latencies(EVENT_RATE);
    let replans: fn(&Replay) -> Vec<u64> =
        |r| r.reports.iter().map(|b| b.elapsed_us * 1000).collect();
    let big_dag = plan.dags.iter().position(|d| d.big).expect("one big DAG");
    let reference_dags: Vec<usize> = (0..plan.dags.len())
        .filter(|&d| plan.dags[d].reference)
        .collect();
    let cold_typical: Vec<f64> = (0..plan.dags.len())
        .map(|d| over_passes(&|p| p.cold_ns[d] as f64, false))
        .collect();
    let replay_typical: Vec<f64> = (0..plan.streams.len())
        .map(|s| over_passes(&|p| p.replays[s].wall_ns as f64, false))
        .collect();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let cost_ratios = |reference: bool, hdagg: bool| -> f64 {
        let v: Vec<f64> = plan
            .streams
            .iter()
            .zip(&first.replays)
            .filter(|(s, _)| plan.dags[s.dag].reference == reference)
            .map(|(s, r)| {
                let d = &plan.dags[s.dag];
                ratio(r.cost, if hdagg { d.hdagg } else { d.cold_cost })
            })
            .collect();
        stats::geomean(&v)
    };
    let replay_vs_cold: Vec<f64> = reference_streams
        .iter()
        .map(|&s| replay_typical[s] / cold_typical[plan.streams[s].dag].max(1.0))
        .collect();
    let cold_reference: Vec<f64> = reference_dags.iter().map(|&d| cold_typical[d]).collect();
    let ok_share = res.ok_share();
    let e = &mut res.end_to_end;
    e.insert("setup_s", common::setup_seconds(&cal, &setups));
    e.insert(
        "ops_per_s",
        over_passes(&|p| events_per_pass as f64 / (replay_wall(p) / 1e9), true),
    );
    e.insert("op_p50_ms", pct_of(closed, 50.0) / 1e6);
    e.insert("op_p95_ms", pct_of(closed, tail_pct as f64) / 1e6);
    e.insert("big_solve_ms", cold_typical[big_dag] / 1e6);
    e.insert("vs_hdagg_ratio", cost_ratios(true, true));
    e.insert("cost_ratio", cost_ratios(true, false));
    e.insert("open_p50_ms", pct_of(open, 50.0) / 1e6);
    e.insert("open_p95_ms", pct_of(open, tail_pct as f64) / 1e6);
    e.insert("cold_p50_ms", stats::median(&cold_reference) / 1e6);
    e.insert("warm_p50_ms", pct_of(replans, 50.0) / 1e6);
    e.insert("replay_vs_cold_x", stats::geomean(&replay_vs_cold));
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert("ok_share", ok_share);
    res.notes.insert("passes", (passes.len() + 1).to_string());
    res.notes
        .insert("events_per_pass", events_per_pass.to_string());
    res.notes.insert("setups", setups.len().to_string());
    res.notes.insert("open_rate_per_s", EVENT_RATE.to_string());
    res.notes.insert("tail_pct", format!("p{tail_pct}"));
    res.notes.insert(
        "seeded_ratios",
        format!(
            "vs_hdagg {:.6} cost {:.6} over the seeded streams",
            cost_ratios(false, true),
            cost_ratios(false, false)
        ),
    );
    res.notes.insert(
        "raw_ops_per_s",
        format!(
            "{:.3} in the best pass, before the host correction",
            events_per_pass as f64 / (raw_best_pass_ns / 1e9)
        ),
    );
    cal.report(raw_wall, quiet_wall, opts.trace, &mut res);

    if opts.trace {
        let l = &mut res.per_layer;
        let rate_of = |traced: bool| {
            let ps: Vec<&Pass> = passes
                .iter()
                .filter(|p| p.0 == traced)
                .map(|p| &p.1)
                .collect();
            ps.len() as f64 * events_per_pass as f64
                / ps.iter().map(|p| replay_wall(p)).sum::<f64>().max(1.0)
        };
        l.insert(
            "bench.trace_overhead_share",
            (rate_of(false) - rate_of(true)) / rate_of(false),
        );
        l.insert("bench.span_coverage_share", tracer.coverage().0);
        let all = |f: &dyn Fn(&Replay) -> Vec<u64>| -> Vec<u64> {
            let mut v: Vec<u64> = passes
                .iter()
                .flat_map(|(_, p)| p.replays.iter().flat_map(f))
                .collect();
            v.sort_unstable();
            v
        };
        let push_ns = all(&|r| r.push_ns.clone());
        l.insert(
            "online.push_p50_us",
            stats::percentile_sorted(&push_ns, 50.0) as f64 / 1e3,
        );
        l.insert(
            "online.push_p95_us",
            stats::percentile_sorted(&push_ns, 95.0) as f64 / 1e3,
        );
        let replan_ns = all(&replans);
        l.insert("online.replan_ms", common::median_ms(&replan_ns));
        let one: Vec<BatchReport> = first
            .replays
            .iter()
            .flat_map(|r| r.reports.iter().copied())
            .collect();
        l.insert("online.replans", one.len() as f64);
        let arrivals: u64 = one.iter().map(|b| b.arrivals).sum();
        l.insert(
            "online.replan_us_per_arrival",
            replan_ns.iter().sum::<u64>() as f64
                / 1e3
                / (arrivals * passes.len() as u64).max(1) as f64,
        );
        l.insert(
            "online.hc_moves",
            one.iter().map(|b| b.hc_moves).sum::<u64>() as f64,
        );
        l.insert(
            "online.frontier_lag",
            one.iter()
                .map(|b| (b.supersteps - b.frontier) as f64)
                .sum::<f64>()
                / one.len().max(1) as f64,
        );
        let big_stream = plan
            .streams
            .iter()
            .position(|s| s.dag == big_dag)
            .expect("the big DAG has streams");
        let finalize: Vec<u64> = passes
            .iter()
            .map(|(_, p)| p.replays[big_stream].finalize_ns)
            .collect();
        l.insert("online.finalize_ms", common::median_ms(&finalize));
        l.insert("online.cold_ms", cold_typical[big_dag] / 1e6);
        l.insert(
            "online.replan_share",
            replan_ns.iter().sum::<u64>() as f64 / quiet_wall.max(1.0),
        );
        let big = &plan.dags[big_dag].inst;
        let cfg = TraceConfig {
            order: ArrivalOrder::ShuffledReady,
            seed: REFERENCE_SEED,
            ..TraceConfig::default()
        };
        let samples: Vec<u64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(arrival_trace(&big.dag, "probe", &cfg));
                t.elapsed().as_nanos() as u64
            })
            .collect();
        l.insert("instance.arrival_trace_ms", common::median_ms(&samples));
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_seeded_streams_and_only_those() {
        let a = instance_specs(5, false);
        assert_eq!(a, instance_specs(5, false));
        let b = instance_specs(6, false);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.1, x.0 == y.0, "{} / {}", x.0, y.0);
        }
        assert_eq!(a.iter().filter(|s| s.2).count(), 1);
    }

    #[test]
    fn no_budget_of_the_online_config_is_a_clock() {
        let cfg = online_config();
        assert_eq!(cfg.budget_per_arrival, SLACK);
        assert_eq!(cfg.moves_per_arrival, Some(64));
        assert!(!cfg.pipeline.enable_ilp);
    }

    #[test]
    fn an_arrival_waits_for_the_replan_that_places_it() {
        // Four pushes of 10 ns; the second and the fourth re-plan.
        let r = Replay {
            push_ns: vec![10, 10, 10, 10],
            placed_by: vec![1, 1, 3, 3],
            reports: Vec::new(),
            finalize_ns: 0,
            wall_ns: 40,
            span: (Instant::now(), Instant::now()),
            cost: 0,
            digest: 0,
            sch: None,
        };
        assert_eq!(r.closed_latencies(), vec![20, 10, 20, 10]);
        // One event per 100 ns: nothing queues; the first of a pair waits
        // a gap for the second.
        assert_eq!(r.open_latencies(1e7), vec![110, 10, 110, 10]);
        // One event per 5 ns: the scheduler is the bottleneck.
        assert_eq!(r.open_latencies(2e8), vec![20, 15, 30, 25]);
    }

    /// A small replay end to end: every push accepted, the outcome valid
    /// under the oracle, and a second replay bit-identical.
    #[test]
    fn a_replay_is_valid_and_repeats_bit_for_bit() {
        let opts = Opts {
            workload: "online-stream".to_string(),
            seed: 3,
            seconds: 0.1,
            trace: true,
            quick: true,
        };
        let mut tracer = Tracer::new(Instant::now(), 1, true);
        let mut cal = Calibrator::new();
        let plan = setup(&opts, &mut cal, &mut tracer).unwrap();
        let st = &plan.streams[3];
        let mut res = RunResult::default();
        let a = replay(st, &plan, &mut tracer, &mut cal, true, &mut res);
        let b = replay(st, &plan, &mut tracer, &mut cal, false, &mut res);
        assert_eq!(res.failures, Vec::<String>::new());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.push_ns.len(), st.trace.events.len());
        assert!(a
            .placed_by
            .iter()
            .enumerate()
            .all(|(i, &p)| p as usize >= i));
        let sch = a.sch.unwrap();
        let out = sch.outcome().unwrap();
        let (sched, comm) = out.for_source().unwrap();
        let inst = &plan.dags[st.dag].inst;
        oracle::check(&inst.dag, &inst.machine, &sched, &comm, out.cost, false).unwrap();
        assert!(tracer.spans.iter().any(|s| s.name == "replan"));
    }
}
