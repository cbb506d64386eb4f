//! `offline-scale` and `offline-refine`: the solver library driven
//! directly, one thread, closed loop, op = one `Scheduler::solve` (or one
//! warm re-solve).
//!
//! Both run a fixed list of (instance, scheduler) rows in whole passes.
//! `offline-scale` is a size ladder where list scheduling and the BSPg
//! initialiser do nearly all the work; `offline-refine` is mid-size NUMA
//! instances where local search, ILP and multilevel refinement do. Same
//! entry point, opposite halves of `bsp-core`.
//!
//! Each workload's instances come in two parts. The *reference* part is
//! the same on every seed (fixed generator seeds, structured families,
//! dataset members): the metrics that single out one row or a handful of
//! rows — `big_solve_ms`, `cold_p50_ms`, `warm_p50_ms`,
//! `replay_vs_cold_x` — are taken there, because the time of one solve
//! varies by 20–60 % from one random instance of a family to the next.
//! So are the latency percentiles (which row sits at a rank changes with
//! the instances) and the cost ratios (bounded at 1 %, less than they move
//! from one random instance to the next). The *seeded* part is drawn
//! afresh from `--seed`: it carries its share of `ops_per_s`, every one
//! of its answers goes through the oracle and counts in `ok_share`, and
//! its cost ratios are printed beside the reference ones — so a change
//! that only helps the reference instances shows as one.

use crate::common::{self, Calibrator, Digest, Rng, RunResult, SLACK_MS};
use crate::trace::{self, Tracer};
use crate::{oracle, stats, Opts};
use bsp_sched::core::pipeline::PipelineConfig;
use bsp_sched::instance::{apply_edits, Instance};
use bsp_sched::prelude::*;
use bsp_sched::schedule::scheduler::SharedScheduler;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which of the two offline workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scale,
    Refine,
}

/// Arrival rate of the virtual-time open loop, ops/s: low enough that an
/// op rarely waits for the one before it (the longest `offline-scale` op
/// takes 0.4 s). At a quarter of capacity the tail was made of ops queued
/// behind a long one — a long time minus a constant, which doubles the
/// long op's relative noise. A constant, never derived at run time.
pub const OPEN_RATE: f64 = 2.0;

const SCALE_MACHINE: &str = "bsp?p=8&g=2&l=5";

/// Generator seed of the reference instances.
const REFERENCE_SEED: u64 = 20_240_527;

/// One instance spec of a workload.
#[derive(Debug, Clone, PartialEq)]
struct InstSpec {
    spec: String,
    family: &'static str,
    /// Size rung on `offline-scale` (names node counts, not generator
    /// parameters), scheduler set on `offline-refine`.
    rung: &'static str,
    /// Same on every seed.
    reference: bool,
}

struct Inst {
    inst: Instance,
    family: &'static str,
    rung: &'static str,
    reference: bool,
    trivial: u64,
    hdagg: u64,
}

/// What a row runs.
enum Work {
    Solve(SharedScheduler),
    /// Warm re-solve of `insts[row.inst]` (an edited copy of a reference
    /// instance) from the cold pipeline schedule of the unedited one.
    Warm {
        base: BspSchedule,
        node_map: Vec<Option<u32>>,
        /// The cold row on the unedited instance.
        cold_row: usize,
    },
}

struct Row {
    inst: usize,
    /// Short scheduler key used in labels and per-layer names.
    key: &'static str,
    spec: String,
    work: Work,
    /// The answer claims the memory-bounded cost (`mem=on`).
    memory_model: bool,
    /// Counts towards `vs_hdagg_ratio` (cold pipelines on machines whose
    /// cost model HDagg shares).
    vs_hdagg: bool,
    /// The row `big_solve_ms` reports.
    big: bool,
    /// A cold pipeline solve of a reference instance that has a warm twin:
    /// the class `cold_p50_ms` reports.
    cold_class: bool,
    label: u32,
}

struct Answer {
    cost: u64,
    digest: u64,
    outcome: Option<SolveOutcome>,
}

/// Move caps of the `offline-scale` pipeline rows: low enough that the
/// initialiser keeps four fifths of the pipeline's time over the ladder
/// (under 200 and 100 moves local search took 30 % of it, most of that on
/// the rungs below n = 3·10³).
const SCALE_HC_ITERS: usize = 50;
const SCALE_HCCS_ITERS: usize = 25;

fn pipeline_scale() -> String {
    format!(
        "pipeline/base?ilp=off&hc_iters={SCALE_HC_ITERS}&hccs_iters={SCALE_HCCS_ITERS}&hc_ms={SLACK_MS}&hccs_ms={SLACK_MS}"
    )
}

fn converge() -> String {
    format!("hc_ms={SLACK_MS}&hccs_ms={SLACK_MS}")
}

/// The instance specs of a workload: the reference part, then the part
/// made from the seed.
fn instance_specs(kind: Kind, seed: u64, quick: bool) -> Vec<InstSpec> {
    let mut rng = Rng::new(seed, 0x1257);
    let mut out = Vec::new();
    let mut push = |spec: String, family: &'static str, rung: &'static str, reference: bool| {
        out.push(InstSpec {
            spec,
            family,
            rung,
            reference,
        });
    };
    match kind {
        Kind::Scale => {
            let m = SCALE_MACHINE;
            // Node counts ≈ 3·10², 10³, 3·10³, 10⁴, 3·10⁴ per family.
            let ladder: [(&'static str, [&str; 5]); 3] = [
                (
                    "spmv",
                    [
                        "spmv?n=30&q=0.3",
                        "spmv?n=55&q=0.3",
                        "spmv?n=100&q=0.3",
                        "spmv?n=180&q=0.3",
                        "spmv?n=315&q=0.3",
                    ],
                ),
                (
                    "sptrsv",
                    [
                        "sptrsv?n=31&q=0.3",
                        "sptrsv?n=57&q=0.3",
                        "sptrsv?n=98&q=0.3",
                        "sptrsv?n=180&q=0.3",
                        "sptrsv?n=311&q=0.3",
                    ],
                ),
                (
                    "layered",
                    [
                        "layered?layers=12&width=25&q=0.15",
                        "layered?layers=20&width=50&q=0.08",
                        "layered?layers=30&width=100&q=0.04",
                        "layered?layers=50&width=200&q=0.02",
                        "layered?layers=100&width=300&q=0.012",
                    ],
                ),
            ];
            let rungs = ["n3e2", "n1e3", "n3e3", "n1e4", "n3e4"];
            let top = if quick { 3 } else { 5 };
            for (family, specs) in ladder {
                for (spec, rung) in specs.iter().zip(rungs).take(top) {
                    push(
                        format!("{spec}&seed={REFERENCE_SEED} @ {m}"),
                        family,
                        rung,
                        true,
                    );
                }
            }
            // The seeded part climbs the three lower rungs: a solve there
            // costs milliseconds, so fresh instances are cheap to add.
            let seeded_rungs = ["s3e2", "s1e3", "s3e3"];
            let seeded_top = if quick { 2 } else { 3 };
            for (family, specs) in ladder {
                for (spec, rung) in specs.iter().zip(seeded_rungs).take(seeded_top) {
                    let s = rng.below(1 << 31);
                    push(format!("{spec}&seed={s} @ {m}"), family, rung, false);
                }
            }
        }
        Kind::Refine => {
            let tree = "bsp?p=8&numa=tree&delta=3";
            let sockets = "bsp?p=16&numa=sockets&sockets=2&delta=4";
            let ring = "bsp?p=8&numa=ring";
            let mem = "bsp?p=8&g=2&mem=80";
            let tiny = "bsp?p=4&g=2&numa=tree&delta=3";
            let r = REFERENCE_SEED;
            push(
                format!("erdos?n=300&q=0.03&seed={r} @ {sockets}"),
                "erdos",
                "numa",
                true,
            );
            push(
                format!("erdos?n=800&q=0.01&seed={r} @ {ring}"),
                "erdos",
                "big",
                true,
            );
            push(
                format!("stencil?width=20&steps=10 @ {sockets}"),
                "stencil",
                "numa",
                true,
            );
            push(
                format!("stencil?width=40&steps=20 @ {tree}"),
                "stencil",
                "numa",
                true,
            );
            push(format!("butterfly?k=5 @ {ring}"), "butterfly", "numa", true);
            push(format!("butterfly?k=6 @ {tree}"), "butterfly", "numa", true);
            push(format!("cg?n=20&k=3&seed={r} @ {tree}"), "cg", "numa", true);
            push(
                format!("dataset/small?scale=0.5#fine/spmv/mid @ {tree}"),
                "dataset",
                "numa",
                true,
            );
            push(
                format!("dataset/small?scale=0.5#fine/exp/wide/end @ {sockets}"),
                "dataset",
                "numa",
                true,
            );
            push(
                format!("erdos?n=200&q=0.04&seed={r} @ {mem}"),
                "erdos",
                "mem",
                true,
            );
            push(
                format!("stencil?width=30&steps=12 @ {mem}"),
                "stencil",
                "mem",
                true,
            );
            if !quick {
                for member in [
                    "coarse/bicgstab/it3/8",
                    "coarse/cg/conv/8",
                    "coarse/pagerank/conv/8",
                    "fine/cg/wide/begin",
                ] {
                    push(
                        format!("dataset/tiny?scale=1#{member} @ {tiny}"),
                        "dataset",
                        "ilp",
                        true,
                    );
                }
            }
            let mut s = || rng.below(1 << 31);
            push(
                format!("erdos?n=80&q=0.08&seed={} @ {tree}", s()),
                "erdos",
                "numa",
                false,
            );
            push(
                format!("erdos?n=300&q=0.03&seed={} @ {sockets}", s()),
                "erdos",
                "base-only",
                false,
            );
            push(
                format!("erdos?n=800&q=0.01&seed={} @ {ring}", s()),
                "erdos",
                "base-only",
                false,
            );
            push(
                format!("cg?n=20&k=3&seed={} @ {tree}", s()),
                "cg",
                "numa",
                false,
            );
            push(
                format!("cg?n=30&k=3&seed={} @ {sockets}", s()),
                "cg",
                "base-only",
                false,
            );
            push(
                format!("knn?n=48&k=3&seed={} @ {ring}", s()),
                "knn",
                "base-only",
                false,
            );
            push(
                format!("erdos?n=200&q=0.04&seed={} @ {mem}", s()),
                "erdos",
                "mem",
                false,
            );
            push(
                format!("cg?n=20&k=3&seed={} @ {mem}", s()),
                "cg",
                "mem",
                false,
            );
        }
    }
    out
}

/// The scheduler specs run on an instance of the given family and rung:
/// `(key, spec)`.
fn scheduler_specs(kind: Kind, family: &str, rung: &str) -> Vec<(&'static str, String)> {
    match kind {
        Kind::Scale => {
            let mut v: Vec<(&'static str, String)> = Vec::new();
            // Near-linear schedulers climb the whole ladder; the quadratic
            // ones stop where a pass would stop fitting the run, keeping
            // at least three rungs over a 10× range each. Stand-alone
            // BSPg stops at n3e3: at n1e4 it is the `init` stage of the
            // pipeline row, reported from there.
            let small = matches!(rung, "n3e2" | "s3e2");
            let low = matches!(rung, "n3e2" | "n1e3" | "n3e3" | "s3e2" | "s1e3");
            if !small {
                v.push(("cilk", "cilk".into()));
                v.push(("hdagg", "hdagg".into()));
                v.push(("source", "init/source".into()));
            }
            if low || (rung == "n1e4" && family == "layered") {
                v.push(("blest", "bl-est".into()));
            }
            if low {
                v.push(("etf", "etf".into()));
            }
            if low || rung == "s3e3" {
                v.push(("bspg", "init/bspg".into()));
            }
            if rung != "n3e4" {
                v.push(("pipeline", pipeline_scale()));
            }
            v
        }
        Kind::Refine => match rung {
            "mem" => vec![(
                "mem",
                format!("pipeline/base?ilp=off&mem=on&{}", converge()),
            )],
            "ilp" => vec![(
                "ilp",
                format!(
                    "pipeline/base?ilp=on&ilp_init=off&ilp_ms={SLACK_MS}&{}",
                    converge()
                ),
            )],
            "numa" => vec![
                ("pipeline", format!("pipeline/base?ilp=off&{}", converge())),
                (
                    "multilevel",
                    format!("pipeline/multilevel?ilp=off&ratio=0.3&{}", converge()),
                ),
            ],
            _ => vec![("pipeline", format!("pipeline/base?ilp=off&{}", converge()))],
        },
    }
}

/// The pipeline configuration the `pipeline` rows' spec strings resolve
/// to: what a warm re-solve of the same row runs under.
fn warm_config(kind: Kind) -> PipelineConfig {
    let mut cfg = common::base_pipeline();
    cfg.enable_ilp = false;
    if kind == Kind::Scale {
        cfg.hc.max_moves = Some(SCALE_HC_ITERS);
        cfg.hccs.max_moves = Some(SCALE_HCCS_ITERS);
    }
    cfg
}

/// Whether a cold `pipeline` row on this instance gets a warm twin: the
/// reference instances of the middle rung (`offline-scale`) or of the
/// NUMA set (`offline-refine`).
fn has_warm_twin(kind: Kind, spec: &InstSpec) -> bool {
    spec.reference
        && match kind {
            Kind::Scale => spec.rung == "n3e3",
            Kind::Refine => spec.rung == "numa",
        }
}

struct Plan {
    insts: Vec<Inst>,
    rows: Vec<Row>,
    /// What every warm row re-solves under.
    warm_cfg: PipelineConfig,
}

/// Set-up: generate every instance from its spec, check the inputs, solve
/// and check the HDagg reference of each, build every scheduler, and for
/// each warm row solve its base cold (checked) and apply its edits.
fn setup(
    kind: Kind,
    opts: &Opts,
    cal: &mut Calibrator,
    tracer: &mut Tracer,
) -> Result<Plan, String> {
    let registry = Registry::standard();
    let instances = bsp_sched::instances();
    let base = common::base_pipeline();
    let hdagg = registry.get("hdagg").map_err(|e| e.to_string())?;
    // Warm rows sit on reference instances; so do their edits.
    let mut edit_rng = Rng::new(REFERENCE_SEED, 0xed17);
    let mut insts: Vec<Inst> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    let add_inst =
        |inst: Instance, spec: &InstSpec, insts: &mut Vec<Inst>| -> Result<usize, String> {
            oracle::check_input(&inst.dag).map_err(|e| format!("{}: {e}", spec.spec))?;
            let reference = hdagg.solve(&SolveRequest::new(&inst.dag, &inst.machine));
            oracle::check_outcome(&inst, &reference, false)
                .map_err(|e| format!("{} hdagg: {e}", spec.spec))?;
            insts.push(Inst {
                trivial: oracle::trivial_cost(&inst.dag, &inst.machine),
                hdagg: reference.total(),
                inst,
                family: spec.family,
                rung: spec.rung,
                reference: spec.reference,
            });
            Ok(insts.len() - 1)
        };
    let specs = instance_specs(kind, opts.seed, opts.quick);
    let top_rung = if opts.quick { "n3e3" } else { "n1e4" };
    for spec in &specs {
        cal.tick();
        let inst = instances
            .generate_one(&spec.spec, 0)
            .map_err(|e| format!("{}: {e}", spec.spec))?;
        let idx = add_inst(inst, spec, &mut insts)?;
        for (key, sched_spec) in scheduler_specs(kind, spec.family, spec.rung) {
            let sched = registry
                .get_with(&sched_spec, &base)
                .map_err(|e| format!("{sched_spec}: {e}"))?;
            let big = match kind {
                Kind::Scale => spec.family == "spmv" && key == "pipeline" && spec.rung == top_rung,
                Kind::Refine => spec.rung == "big",
            };
            let n = insts[idx].inst.dag.n();
            let label = tracer.label(&format!("{}/{}/{key} n={n}", spec.family, spec.rung));
            let twin = key == "pipeline" && has_warm_twin(kind, spec);
            let cold_row = rows.len();
            rows.push(Row {
                inst: idx,
                key,
                spec: sched_spec,
                work: Work::Solve(sched),
                memory_model: key == "mem",
                vs_hdagg: matches!(key, "pipeline" | "multilevel" | "ilp"),
                big,
                cold_class: twin,
                label,
            });
            if twin {
                // The warm twin: the same pipeline from the cold answer,
                // after one to three edits.
                let Work::Solve(sched) = &rows[cold_row].work else {
                    unreachable!()
                };
                let base_inst = &insts[idx].inst;
                let cold = sched.solve(&SolveRequest::new(&base_inst.dag, &base_inst.machine));
                oracle::check_outcome(base_inst, &cold, false)
                    .map_err(|e| format!("{}: {e}", spec.spec))?;
                let edits = common::seeded_edits(base_inst, &mut edit_rng);
                let edited = apply_edits(&base_inst.dag, &edits)
                    .map_err(|e| format!("{} edits: {e}", spec.spec))?;
                let warm_inst = Instance {
                    name: format!("{} + {} edits", base_inst.name, edits.len()),
                    dag: edited.dag,
                    machine: base_inst.machine.clone(),
                };
                let warm_idx = add_inst(warm_inst, spec, &mut insts)?;
                let label = tracer.label(&format!("{}/{}/warm n={n}", spec.family, spec.rung));
                rows.push(Row {
                    inst: warm_idx,
                    key: "warm",
                    spec: "warm re-solve".to_string(),
                    work: Work::Warm {
                        base: cold.result.sched,
                        node_map: edited.node_map,
                        cold_row,
                    },
                    memory_model: false,
                    vs_hdagg: false,
                    big: false,
                    cold_class: false,
                    label,
                });
            }
        }
    }
    Ok(Plan {
        insts,
        rows,
        warm_cfg: warm_config(kind),
    })
}

fn schedule_digest(out: &SolveOutcome) -> u64 {
    let mut d = Digest::default();
    d.word(out.total());
    d.words(out.result.sched.procs());
    d.words(out.result.sched.steps());
    for e in out.result.comm.entries() {
        d.words(&[e.node, e.from, e.to, e.step]);
    }
    d.0
}

struct PassStats {
    /// Σ `op_ns`.
    wall_ns: u64,
    /// When the pass began and ended.
    span: (Instant, Instant),
    /// Per-row service time.
    op_ns: Vec<u64>,
    /// When each row's op began.
    op_from: Vec<Instant>,
    answers: Vec<Answer>,
    /// Σ stage elapsed by stage name over the cold pipeline rows, ns.
    stage_ns: BTreeMap<String, u64>,
    /// Σ cost drop by stage name over the cold pipeline rows.
    stage_gain: BTreeMap<String, u64>,
    /// `init` stage time of each row (0 where there is none), ns.
    init_ns: Vec<u64>,
}

/// Runs every row once, in order. `keep` retains the outcomes for the
/// oracle; otherwise only their digests survive the pass.
fn run_pass(
    plan: &Plan,
    tracer: &mut Tracer,
    cal: &mut Calibrator,
    keep: bool,
    res: &mut RunResult,
) -> PassStats {
    let mut st = PassStats {
        wall_ns: 0,
        span: (Instant::now(), Instant::now()),
        op_ns: Vec::with_capacity(plan.rows.len()),
        op_from: Vec::with_capacity(plan.rows.len()),
        answers: Vec::with_capacity(plan.rows.len()),
        stage_ns: BTreeMap::new(),
        stage_gain: BTreeMap::new(),
        init_ns: Vec::with_capacity(plan.rows.len()),
    };
    for row in &plan.rows {
        cal.tick();
        let inst = &plan.insts[row.inst].inst;
        let t0 = Instant::now();
        let out = match &row.work {
            Work::Solve(sched) => {
                let req = SolveRequest::new(&inst.dag, &inst.machine);
                std::hint::black_box(sched.solve(std::hint::black_box(&req)))
            }
            Work::Warm { base, node_map, .. } => {
                std::hint::black_box(common::warm_resolve(
                    &inst.dag,
                    node_map,
                    &inst.machine,
                    base,
                    &plan.warm_cfg,
                ))
                .0
            }
        };
        let dur = t0.elapsed().as_nanos() as u64;
        st.op_ns.push(dur);
        st.op_from.push(t0);
        if tracer.on {
            let start = tracer.ns(t0);
            let op = tracer.push("op", "bench", 0, start, dur, row.label);
            let mut at = start;
            for s in &out.stages {
                let d = s.elapsed.as_nanos() as u64;
                tracer.push(trace::stage_name(&s.stage), "core", op, at, d, row.label);
                at += d;
            }
        }
        if out.budget_exhausted || out.stages.iter().any(|s| s.truncated) {
            res.fail(|| format!("{} on {}: ended on a wall-clock limit", row.spec, inst.name));
        }
        st.init_ns.push(
            out.stages
                .iter()
                .filter(|s| s.stage == "init")
                .map(|s| s.elapsed.as_nanos() as u64)
                .sum(),
        );
        if row.vs_hdagg || row.key == "mem" {
            let mut before = None;
            for s in &out.stages {
                *st.stage_ns.entry(s.stage.clone()).or_default() += s.elapsed.as_nanos() as u64;
                if let Some(b) = before {
                    let gain = u64::saturating_sub(b, s.cost_after);
                    *st.stage_gain.entry(s.stage.clone()).or_default() += gain;
                }
                // mem-repair re-costs under another model; its "gain" is
                // not comparable, so the chain restarts after it.
                before = (s.stage != "mem-repair").then_some(s.cost_after);
            }
        }
        st.answers.push(Answer {
            cost: out.total(),
            digest: schedule_digest(&out),
            outcome: keep.then_some(out),
        });
    }
    st.wall_ns = st.op_ns.iter().sum();
    st.span.1 = Instant::now();
    st
}

impl PassStats {
    /// Divides every op's time by the host's slowdown while it ran, and
    /// the pass's stage totals by the slowdown over the pass.
    fn at_quiet_speed(&mut self, cal: &Calibrator) {
        for ((ns, init), &from) in self
            .op_ns
            .iter_mut()
            .zip(self.init_ns.iter_mut())
            .zip(&self.op_from)
        {
            let f = cal.slowdown(from, from + Duration::from_nanos(*ns));
            *ns = (*ns as f64 / f) as u64;
            *init = (*init as f64 / f) as u64;
        }
        let f = cal.slowdown(self.span.0, self.span.1);
        self.stage_ns
            .values_mut()
            .for_each(|ns| *ns = (*ns as f64 / f) as u64);
        self.wall_ns = self.op_ns.iter().sum();
    }
}

/// Fewest passes of the steady window: a row's time is the quiet quartile
/// over the passes, which needs a few of them.
const MIN_PASSES: usize = 3;

/// Runs the workload.
pub fn run(kind: Kind, opts: &Opts, tracer: &mut Tracer) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut cal = Calibrator::new();
    let (plan, setups) = common::repeat_setup(
        &mut cal,
        opts.quick,
        |cal| setup(kind, opts, cal, tracer),
        drop,
    )?;

    // The first pass: first solve of every row. Untraced, outside the
    // steady window, kept whole for the oracle.
    let moves_before = common::obs_counter("bsp_ls_moves_total");
    let first = run_pass(
        &plan,
        &mut Tracer::new(Instant::now(), 0, false),
        &mut cal,
        true,
        &mut res,
    );
    let peak_rss_mb = common::peak_rss_mb();

    // The steady window: whole passes until the time box is used up.
    // A traced run records spans on every other pass, so the tracing
    // overhead is measured inside the one process.
    let mut passes: Vec<(bool, PassStats)> = Vec::new();
    let window = Instant::now();
    loop {
        let traced = opts.trace && passes.len().is_multiple_of(2);
        tracer.on = traced;
        let st = run_pass(&plan, tracer, &mut cal, false, &mut res);
        passes.push((traced, st));
        let elapsed = window.elapsed().as_secs_f64();
        let mean_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + mean_pass / 2.0 >= opts.seconds {
            break;
        }
    }
    tracer.on = false;
    let moves = common::obs_counter("bsp_ls_moves_total") - moves_before;
    let raw_wall: u64 = passes.iter().map(|(_, s)| s.wall_ns).sum();
    let raw_best_pass_ns = passes.iter().map(|(_, s)| s.wall_ns).min().unwrap_or(0);
    for (_, st) in passes.iter_mut() {
        st.at_quiet_speed(&cal);
    }
    let quiet_wall: u64 = passes.iter().map(|(_, s)| s.wall_ns).sum();

    // Verification, outside the timed region: the first pass's answers go
    // through the oracle; every later pass must repeat them bit for bit.
    let mut cost_vector = Digest::default();
    for (row, ans) in plan.rows.iter().zip(&first.answers) {
        let inst = &plan.insts[row.inst].inst;
        let out = ans.outcome.as_ref().expect("first pass keeps outcomes");
        cost_vector.word(ans.cost);
        if let Err(e) = oracle::check_outcome(inst, out, row.memory_model) {
            res.fail(|| format!("{} on {}: {e}", row.spec, inst.name));
        }
    }
    res.attempted = (plan.rows.len() * (passes.len() + 1)) as u64;
    for (_, st) in &passes {
        for ((row, a), c) in plan.rows.iter().zip(&st.answers).zip(&first.answers) {
            if a.digest != c.digest {
                res.fail(|| {
                    format!(
                        "{} on {}: cost {} differs from the first pass's {}",
                        row.spec, plan.insts[row.inst].inst.name, a.cost, c.cost
                    )
                });
            }
        }
    }
    res.pass_digest = cost_vector.0;

    // End-to-end metrics, from the typical pass: each row's time is the
    // quiet quartile of its times over the steady passes.
    let typical: Vec<f64> = (0..plan.rows.len())
        .map(|i| stats::quiet_ns(&passes.iter().map(|(_, s)| s.op_ns[i]).collect::<Vec<_>>()))
        .collect();
    let typical_ns: Vec<u64> = typical.iter().map(|&t| t as u64).collect();
    let is_reference = |r: &Row| plan.insts[r.inst].reference;
    // The latency percentiles are order statistics of real samples: every
    // reference op of every steady pass, in the order they ran. The tail
    // reported is the one that many samples support.
    let reference_ns: Vec<u64> = passes
        .iter()
        .flat_map(|(_, st)| {
            plan.rows
                .iter()
                .zip(&st.op_ns)
                .filter(|(r, _)| is_reference(r))
                .map(|(_, &t)| t)
        })
        .collect();
    let tail_pct = stats::tail_percentile(reference_ns.len()).min(95);
    let percentiles = |ns: &[u64]| {
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        (
            stats::percentile_sorted(&sorted, 50.0),
            stats::percentile_sorted(&sorted, tail_pct as f64),
        )
    };
    let (p50_ns, tail_ns) = percentiles(&reference_ns);
    let big_idx = plan.rows.iter().position(|r| r.big).expect("one big row");
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    // Cost ratios of the reference rows and of the seeded ones.
    let ratios = |reference: bool, hdagg: bool| -> f64 {
        let v: Vec<f64> = plan
            .rows
            .iter()
            .zip(&first.answers)
            .filter(|(r, _)| is_reference(r) == reference && (!hdagg || r.vs_hdagg))
            .map(|(r, a)| {
                let inst = &plan.insts[r.inst];
                ratio(a.cost, if hdagg { inst.hdagg } else { inst.trivial })
            })
            .collect();
        stats::geomean(&v)
    };
    // The same samples through the virtual open loop, pass after pass.
    let (open_p50_ns, open_tail_ns) =
        percentiles(&common::virtual_open_loop(&reference_ns, OPEN_RATE));
    let cold_class: Vec<u64> = plan
        .rows
        .iter()
        .zip(&typical_ns)
        .filter(|(r, _)| r.cold_class)
        .map(|(_, &t)| t)
        .collect();
    let warm_pairs: Vec<(u64, u64)> = plan
        .rows
        .iter()
        .zip(&typical_ns)
        .filter_map(|(r, &t)| match &r.work {
            Work::Warm { cold_row, .. } => Some((t, typical_ns[*cold_row])),
            Work::Solve(_) => None,
        })
        .collect();
    let warm_class: Vec<u64> = warm_pairs.iter().map(|p| p.0).collect();
    let warm_vs_cold: Vec<f64> = warm_pairs.iter().map(|&(w, c)| ratio(w, c)).collect();
    let ok_share = res.ok_share();
    let e = &mut res.end_to_end;
    e.insert("setup_s", common::setup_seconds(&cal, &setups));
    e.insert(
        "ops_per_s",
        typical.len() as f64 / (typical.iter().sum::<f64>() / 1e9),
    );
    e.insert("op_p50_ms", common::ms(p50_ns));
    e.insert("op_p95_ms", common::ms(tail_ns));
    e.insert("big_solve_ms", typical[big_idx] / 1e6);
    e.insert("vs_hdagg_ratio", ratios(true, true));
    e.insert("cost_ratio", ratios(true, false));
    e.insert("open_p50_ms", common::ms(open_p50_ns));
    e.insert("open_p95_ms", common::ms(open_tail_ns));
    e.insert("cold_p50_ms", common::median_ms(&cold_class));
    e.insert("warm_p50_ms", common::median_ms(&warm_class));
    e.insert("replay_vs_cold_x", stats::geomean(&warm_vs_cold));
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert("ok_share", ok_share);
    res.notes.insert("passes", (passes.len() + 1).to_string());
    res.notes
        .insert("rows_per_pass", plan.rows.len().to_string());
    res.notes.insert("setups", setups.len().to_string());
    res.notes.insert(
        "raw_ops_per_s",
        format!(
            "{:.3} in the best pass, before the host correction",
            plan.rows.len() as f64 / (raw_best_pass_ns as f64 / 1e9)
        ),
    );
    cal.report(raw_wall as f64, quiet_wall as f64, opts.trace, &mut res);
    res.notes.insert("open_rate_per_s", OPEN_RATE.to_string());
    res.notes.insert("tail_pct", format!("p{tail_pct}"));
    res.notes.insert(
        "seeded_ratios",
        format!(
            "vs_hdagg {:.6} cost {:.6} over the seeded rows",
            ratios(false, true),
            ratios(false, false)
        ),
    );

    if opts.trace {
        per_layer(kind, opts, &plan, &first, &passes, moves, tracer, &mut res)?;
    }
    Ok(res)
}

/// Median service time, in ms, of the rows selected by `pick`, over the
/// given passes.
fn rows_ms(plan: &Plan, passes: &[&PassStats], pick: impl Fn(&Row, &Inst) -> bool) -> Option<f64> {
    let samples: Vec<u64> = plan
        .rows
        .iter()
        .enumerate()
        .filter(|(_, r)| pick(r, &plan.insts[r.inst]))
        .flat_map(|(i, _)| passes.iter().map(move |s| s.op_ns[i]))
        .collect();
    (!samples.is_empty()).then(|| common::median_ms(&samples))
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    kind: Kind,
    opts: &Opts,
    plan: &Plan,
    first: &PassStats,
    passes: &[(bool, PassStats)],
    moves: i64,
    tracer: &Tracer,
    res: &mut RunResult,
) -> Result<(), String> {
    let traced: Vec<&PassStats> = passes.iter().filter(|p| p.0).map(|p| &p.1).collect();
    let untraced: Vec<&PassStats> = passes.iter().filter(|p| !p.0).map(|p| &p.1).collect();
    let all: Vec<&PassStats> = passes.iter().map(|p| &p.1).collect();
    let rate = |ps: &[&PassStats]| {
        ps.iter().map(|s| s.op_ns.len()).sum::<usize>() as f64
            / ps.iter().map(|s| s.wall_ns).sum::<u64>().max(1) as f64
    };
    let l = &mut res.per_layer;
    l.insert(
        "bench.trace_overhead_share",
        (rate(&untraced) - rate(&traced)) / rate(&untraced),
    );
    l.insert("bench.span_coverage_share", tracer.coverage().0);

    // Stage shares and gains, time-weighted over every cold pipeline
    // solve of the steady window.
    let mut stage_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut stage_gain: BTreeMap<&str, u64> = BTreeMap::new();
    for st in &all {
        for (k, v) in &st.stage_ns {
            *stage_ns.entry(k.as_str()).or_default() += v;
        }
        for (k, v) in &st.stage_gain {
            *stage_gain.entry(k.as_str()).or_default() += v;
        }
    }
    let total_ns: u64 = stage_ns.values().sum();
    let share = |stage: &str| *stage_ns.get(stage).unwrap_or(&0) as f64 / total_ns.max(1) as f64;
    for (stage, name) in [
        ("init", "core.init_share"),
        ("hc", "core.hc_share"),
        ("ilp", "core.ilp_share"),
        ("multilevel", "core.multilevel_share"),
        ("polish", "core.polish_share"),
        ("mem-repair", "core.mem-repair_share"),
    ] {
        l.insert(name, share(stage));
    }
    for (stage, name) in [
        ("hc", "core.stage_gain_per_ms.hc"),
        ("polish", "core.stage_gain_per_ms.polish"),
        ("ilp", "core.stage_gain_per_ms.ilp"),
    ] {
        let ms = *stage_ns.get(stage).unwrap_or(&0) as f64 / 1e6;
        l.insert(
            name,
            *stage_gain.get(stage).unwrap_or(&0) as f64 / ms.max(1e-9),
        );
    }
    // Accepted moves per pass (the counter ran over the first pass and
    // every steady one), and per millisecond of the `hc` stage.
    let per_pass = moves as f64 / (all.len() + 1) as f64;
    let hc_ms_per_pass = *stage_ns.get("hc").unwrap_or(&0) as f64 / 1e6 / all.len() as f64;
    l.insert("core.hc_moves", per_pass);
    l.insert("core.hc_moves_per_ms", per_pass / hc_ms_per_pass.max(1e-9));
    l.insert(
        "core.warm_ms",
        rows_ms(plan, &all, |r, _| r.key == "warm").unwrap_or(0.0),
    );
    let worse = plan
        .rows
        .iter()
        .zip(&first.answers)
        .filter(|(r, a)| a.cost > plan.insts[r.inst].trivial)
        .count();
    l.insert("core.worse_than_trivial", worse as f64);

    match kind {
        Kind::Scale => {
            for (key, name_1e3, name_1e4, name_exp) in [
                (
                    "cilk",
                    "baselines.cilk_ms.n1e3",
                    "baselines.cilk_ms.n1e4",
                    "baselines.cilk.exp",
                ),
                (
                    "hdagg",
                    "baselines.hdagg_ms.n1e3",
                    "baselines.hdagg_ms.n1e4",
                    "baselines.hdagg.exp",
                ),
                (
                    "blest",
                    "baselines.blest_ms.n1e3",
                    "baselines.blest_ms.n1e4",
                    "baselines.blest.exp",
                ),
                (
                    "etf",
                    "baselines.etf_ms.n1e3",
                    "baselines.etf_ms.n1e4",
                    "baselines.etf.exp",
                ),
            ] {
                // The reference layered ladder carries the two named
                // rungs; the exponent is fitted over every rung of every
                // family, seeded instances included.
                for (rung, name) in [("n1e3", name_1e3), ("n1e4", name_1e4)] {
                    let v = rows_ms(plan, &all, |r, i| {
                        r.key == key && i.family == "layered" && i.rung == rung
                    });
                    if let Some(v) = v {
                        l.insert(name, v);
                    }
                }
                l.insert(name_exp, exponent(plan, &all, key));
            }
            if !opts.quick {
                // ETF stops at n3e3 inside the passes (2 s per solve at
                // 10⁴ on spmv); its n1e4 point is one extra solve here.
                let etf = Registry::standard().get("etf").map_err(|e| e.to_string())?;
                let top = reference_instance(plan, "layered", "n1e4");
                let t = Instant::now();
                std::hint::black_box(etf.solve(&SolveRequest::new(&top.dag, &top.machine)));
                l.insert("baselines.etf_ms.n1e4", t.elapsed().as_nanos() as f64 / 1e6);
            }
            for (rung, name) in [
                ("n1e3", "core.init_bspg_ms.n1e3"),
                ("n3e3", "core.init_bspg_ms.n3e3"),
            ] {
                if let Some(v) = rows_ms(plan, &all, |r, i| {
                    r.key == "bspg" && i.family == "spmv" && i.rung == rung
                }) {
                    l.insert(name, v);
                }
            }
            // At n1e4 BSPg runs as the pipeline's `init` stage only.
            if let Some(i) = plan.rows.iter().position(|r| {
                r.key == "pipeline"
                    && plan.insts[r.inst].family == "spmv"
                    && plan.insts[r.inst].rung == "n1e4"
            }) {
                let init: Vec<u64> = all.iter().map(|s| s.init_ns[i]).collect();
                l.insert("core.init_bspg_ms.n1e4", common::median_ms(&init));
            }
            l.insert("core.init_bspg.exp", exponent(plan, &all, "bspg"));
            l.insert("core.pipeline.exp", exponent(plan, &all, "pipeline"));
            let top = if opts.quick { "n3e3" } else { "n1e4" };
            if let Some(v) = rows_ms(plan, &all, |r, i| {
                r.key == "source" && i.family == "spmv" && i.rung == top
            }) {
                l.insert("core.init_source_ms.n1e4", v);
            }
            crate::layers::library_micro(
                reference_instance(plan, "spmv", "n1e3"),
                reference_instance(plan, "spmv", top),
                reference_instance(plan, "spmv", if opts.quick { "n3e3" } else { "n3e4" }),
                l,
            )?;
        }
        Kind::Refine => {
            let mem_row = plan
                .rows
                .iter()
                .position(|r| r.key == "mem")
                .expect("a mem=on row");
            let mem_out = first.answers[mem_row].outcome.as_ref().expect("kept");
            crate::layers::refine_micro(
                &plan.insts[plan.rows[mem_row].inst].inst,
                mem_out,
                opts,
                l,
            )?;
        }
    }
    Ok(())
}

fn reference_instance<'a>(plan: &'a Plan, family: &str, rung: &str) -> &'a Instance {
    &plan
        .insts
        .iter()
        .find(|i| i.reference && i.family == family && i.rung == rung)
        .expect("ladder instance")
        .inst
}

/// Log-log exponent of service time against node count over every rung
/// of every family the scheduler `key` runs on.
fn exponent(plan: &Plan, passes: &[&PassStats], key: &str) -> f64 {
    let points: Vec<(f64, f64)> = plan
        .rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.key == key)
        .map(|(i, r)| {
            let samples: Vec<u64> = passes.iter().map(|s| s.op_ns[i]).collect();
            (
                plan.insts[r.inst].inst.dag.n() as f64,
                stats::median_u64(&samples),
            )
        })
        .collect();
    stats::loglog_exponent(&points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_changes_the_seeded_part_and_only_that() {
        for kind in [Kind::Scale, Kind::Refine] {
            let a = instance_specs(kind, 42, false);
            assert_eq!(a, instance_specs(kind, 42, false));
            let b = instance_specs(kind, 43, false);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.reference, y.reference);
                assert_eq!(x.reference, x.spec == y.spec, "{} / {}", x.spec, y.spec);
            }
            assert!(a.iter().filter(|s| !s.reference).count() >= 8);
        }
    }

    #[test]
    fn every_scheduler_keeps_three_rungs_over_a_tenfold_range() {
        let rungs = ["n3e2", "n1e3", "n3e3", "n1e4", "n3e4"];
        for key in [
            "cilk", "hdagg", "source", "blest", "etf", "bspg", "pipeline",
        ] {
            for family in ["spmv", "sptrsv", "layered"] {
                let on: Vec<usize> = rungs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| {
                        scheduler_specs(Kind::Scale, family, r)
                            .iter()
                            .any(|(k, _)| *k == key)
                    })
                    .map(|(i, _)| i)
                    .collect();
                assert!(on.len() >= 3, "{key} on {family}: rungs {on:?}");
                // Rungs are half-decades: two apart is 10×.
                assert!(on.last().unwrap() - on[0] >= 2, "{key} on {family}");
            }
        }
    }

    #[test]
    fn every_spec_the_workloads_use_resolves() {
        let registry = Registry::standard();
        let base = common::base_pipeline();
        for kind in [Kind::Scale, Kind::Refine] {
            for s in instance_specs(kind, 1, false) {
                for (_, spec) in scheduler_specs(kind, s.family, s.rung) {
                    assert!(registry.get_with(&spec, &base).is_ok(), "{spec}");
                }
            }
        }
    }

    /// The warm rows' configuration is the one their cold twins' spec
    /// strings resolve to: same caps, no clock.
    #[test]
    fn warm_rows_run_under_their_cold_twins_budgets() {
        let scale = warm_config(Kind::Scale);
        assert_eq!(
            (scale.hc.max_moves, scale.hccs.max_moves),
            (Some(SCALE_HC_ITERS), Some(SCALE_HCCS_ITERS))
        );
        let refine = warm_config(Kind::Refine);
        assert_eq!((refine.hc.max_moves, refine.hccs.max_moves), (None, None));
        for cfg in [scale, refine] {
            assert!(!cfg.enable_ilp);
            assert_eq!(cfg.hc.time_limit, Some(common::SLACK));
        }
    }
}
