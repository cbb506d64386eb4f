//! `serve-hot` and `serve-solve`: the daemon started in-process with one
//! worker and driven over loopback TCP, closed loop on one connection in
//! turns with an open loop at a fixed rate.
//!
//! `serve-hot` asks only for results the store already holds, so protocol,
//! connection handling and the store are the whole cost. `serve-solve` is
//! the write side: cold solves of never-seen instances, warm `delta`
//! re-solves and a few repeats. The client here is the harness's own
//! (`Conn`): it speaks the public line protocol through
//! `protocol::{to_line, parse_line}` and times write, wait and parse
//! separately, which `client::Client` cannot show.

use crate::common::{self, seeded_edits, warm_resolve, Calibrator, Rng, RunResult, SLACK_MS};
use crate::layers;
use crate::trace::{self, Tracer};
use crate::{oracle, stats, Opts};
use bsp_sched::instance::{apply_edits, Instance};
use bsp_sched::prelude::*;
use bsp_sched::schedule::scheduler::SharedScheduler;
use bsp_serve::client::Client;
use bsp_serve::protocol::{codes, parse_line, to_line};
use bsp_serve::server::{start, ServeConfig, ServerHandle};
use bsp_serve::{Frame, Request, ServerStats};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// Which of the two server workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Solve,
}

/// Open-loop arrival rate of `serve-hot`, requests/s on one connection.
/// A constant, never derived at run time.
pub const HOT_RATE: f64 = 5000.0;
/// The open-loop tail `serve-hot` reports as `open_p95_ms`. A cached
/// request takes 22 µs, and beyond the third quartile its open-loop
/// latency is how the kernel's scheduler interleaves the harness's
/// yielding sender with the server's threads on their one CPU: per
/// segment the p95 sits near 35 µs or near 50 µs, and which of the two a
/// segment gets changes from one to the next. Over ten seeds the
/// interquartile spread of the p90, p95 and p99 was 14–22 % of the median
/// (at 2 000 and at 10 000 requests/s it was worse, and a sender that
/// spins instead of yielding waits for the tick: p95 2 ms); that of the
/// p75, 9 %; that of the median, 4 %. The noisy percentile was lowered,
/// not its bound widened.
pub const HOT_OPEN_TAIL: u32 = 75;
/// Open-loop arrival rate of `serve-solve`, requests/s over two
/// connections: about 35 % of the 340 requests/s one worker sustains on
/// this mix in the closed loop on the seed commit.
pub const SOLVE_RATE: f64 = 120.0;
/// The traced run's rate ladders (`serve.rate_1` … `serve.rate_4`).
pub const HOT_LADDER: [f64; 4] = [5_000.0, 10_000.0, 20_000.0, 40_000.0];
/// See [`HOT_LADDER`].
pub const SOLVE_LADDER: [f64; 4] = [60.0, 120.0, 180.0, 240.0];
/// Latency limit on the ladder's p95, ms.
pub const SLO_P95_MS: f64 = 25.0;

const MACHINES: [&str; 2] = ["bsp?p=8&g=2&l=5", "bsp?p=4&g=2&numa=tree&delta=3"];
/// Generator seed of the reference inputs: the even-numbered prefilled
/// specs and the op stream of the first [`QUALITY_PASSES`] closed passes
/// are the same on every `--seed`; the cost ratios are taken there.
const REFERENCE_SEED: u64 = 20_240_527;
const SCHED: &str = "pipeline/base?ilp=off";
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The configuration every benchmark server runs with: one worker, the
/// default queue, every wall-clock limit slack.
pub fn serve_config() -> ServeConfig {
    let mut pipeline = common::base_pipeline();
    pipeline.enable_ilp = false;
    ServeConfig {
        threads: 1,
        default_budget_ms: Some(SLACK_MS),
        default_sched: SCHED.to_string(),
        pipeline,
        ..ServeConfig::default()
    }
}

/// One protocol connection with the client-side boundaries timed.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    next_id: u64,
}

/// When the three client-side steps of one request ended.
#[derive(Debug, Clone, Copy)]
struct Timing {
    start: Instant,
    write_ns: u64,
    wait_ns: u64,
    parse_ns: u64,
}

impl Timing {
    fn total_ns(&self) -> u64 {
        self.write_ns + self.wait_ns + self.parse_ns
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(s)
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
            next_id: 1,
        })
    }

    /// Sends `req` under a fresh id and reads frames until its terminal
    /// one. An `error` frame is an `Ok` answer here: the caller decides
    /// what it means for the op.
    fn call(&mut self, req: &mut Request) -> Result<(Frame, Timing), String> {
        let id = self.next_id;
        self.next_id += 1;
        req.id = Some(id);
        let t0 = Instant::now();
        let mut out = to_line(req);
        out.push('\n');
        self.writer
            .write_all(out.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let t1 = Instant::now();
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".to_string());
            }
            let t2 = Instant::now();
            let frame: Frame = parse_line(&self.line).map_err(|e| format!("parse: {e}"))?;
            let t3 = Instant::now();
            if (frame.id.is_some() && frame.id != Some(id)) || frame.kind == "event" {
                continue;
            }
            return Ok((
                frame,
                Timing {
                    start: t0,
                    write_ns: (t1 - t0).as_nanos() as u64,
                    wait_ns: (t2 - t1).as_nanos() as u64,
                    parse_ns: (t3 - t2).as_nanos() as u64,
                },
            ));
        }
    }
}

/// What kind of answer an op expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// A repeat of a prefilled spec: answered from the result store.
    Hit,
    /// A never-seen spec: miss, full pipeline, store insert.
    Cold,
    /// Edits on a prefilled base: miss, warm re-solve.
    Delta,
    /// A never-seen spec of the workload's largest shape, outside the mix:
    /// a fixed block of them opens each closed pass (`big_solve_ms`).
    Big,
}

/// One request of the op sequence.
#[derive(Debug, Clone)]
struct Op {
    class: Class,
    /// The prefilled base a `Hit` repeats or a `Delta` edits.
    base: usize,
    req: Request,
    /// Re-solved in-process after the run (the seeded 5 % sample).
    verify: bool,
}

/// A prefilled instance: what the server answered and what the library
/// says about the same spec.
struct Base {
    /// Canonical name from the first answer (what a `delta` names).
    name: String,
    inst: Instance,
    /// The in-process schedule; the server's cached one is the same,
    /// since the costs agree and the solver is deterministic.
    sched: BspSchedule,
    cost: u64,
    trivial: u64,
    hdagg: u64,
    req: Request,
    /// Same on every seed.
    reference: bool,
}

fn solve_request(spec: &str) -> Request {
    let mut req = Request::new("solve");
    req.instance = Some(spec.to_string());
    req
}

/// The specs `setup` prefills, `(spec, reference)`: even-numbered ones
/// are the same on every seed, odd-numbered ones are made from it.
fn base_specs(kind: Kind, opts: &Opts) -> Vec<(String, bool)> {
    let mut seeded = Rng::new(opts.seed, 0x5e7);
    let mut fixed = Rng::new(REFERENCE_SEED, 0x5e7);
    let count = match (kind, opts.quick) {
        (Kind::Hot, false) => 256,
        (Kind::Hot, true) => 32,
        (Kind::Solve, false) => 96,
        (Kind::Solve, true) => 12,
    };
    (0..count)
        .map(|i| {
            let shape = match kind {
                // Key 0 is the big one (n = 1000): a hit copies the stored
                // schedule, so its latency is the size-dependent end.
                Kind::Hot if i == 0 => "layers=20&width=50&q=0.06",
                Kind::Hot => HOT_SHAPE,
                Kind::Solve => "layers=10&width=20&q=0.15",
            };
            let reference = i % 2 == 0;
            let rng = if reference { &mut fixed } else { &mut seeded };
            (
                format!(
                    "layered?{shape}&seed={} @ {}",
                    rng.below(1 << 31),
                    MACHINES[(i / 2) % MACHINES.len()]
                ),
                reference,
            )
        })
        .collect()
}

struct Setup {
    handle: ServerHandle,
    bases: Vec<Base>,
    stats0: ServerStats,
}

/// Prefills the server at `addr` and checks every answer against an
/// in-process solve of the same spec and against the oracle.
fn prefill(
    kind: Kind,
    opts: &Opts,
    cfg: &ServeConfig,
    addr: SocketAddr,
    cal: &mut Calibrator,
) -> Result<Vec<Base>, String> {
    let mut conn = Conn::open(addr)?;
    let instances = bsp_sched::instances();
    let Library { sched, hdagg } = Library::new(cfg)?;
    // First every prefill request back to back, then the in-process
    // checks.
    let mut answered = Vec::new();
    for (spec, reference) in base_specs(kind, opts) {
        cal.tick();
        let mut req = solve_request(&spec);
        let (frame, _) = conn.call(&mut req)?;
        if frame.kind != "result" || frame.cache_hit != Some(false) {
            return Err(format!("prefill {spec}: unexpected answer {frame:?}"));
        }
        answered.push((spec, reference, req, frame));
    }
    let mut bases = Vec::new();
    for (spec, reference, req, frame) in answered {
        cal.tick();
        let inst = instances
            .generate_one(&spec, 0)
            .map_err(|e| format!("{spec}: {e}"))?;
        oracle::check_input(&inst.dag).map_err(|e| format!("{spec}: {e}"))?;
        let out = sched.solve(&SolveRequest::new(&inst.dag, &inst.machine));
        oracle::check_outcome(&inst, &out, false).map_err(|e| format!("{spec}: {e}"))?;
        if frame.cost != Some(out.total()) {
            return Err(format!(
                "prefill {spec}: server cost {:?}, library cost {}",
                frame.cost,
                out.total()
            ));
        }
        let by_hdagg = hdagg.solve(&SolveRequest::new(&inst.dag, &inst.machine));
        bases.push(Base {
            name: frame.instance.ok_or("result frame without instance")?,
            trivial: oracle::trivial_cost(&inst.dag, &inst.machine),
            hdagg: by_hdagg.total(),
            cost: out.total(),
            sched: out.result.sched,
            inst,
            req,
            reference,
        });
    }
    Ok(bases)
}

/// Set-up: start the server and prefill it.
fn setup(
    kind: Kind,
    opts: &Opts,
    cfg: &ServeConfig,
    cal: &mut Calibrator,
) -> Result<Setup, String> {
    let handle = start(cfg.clone()).map_err(|e| format!("server start: {e}"))?;
    match prefill(kind, opts, cfg, handle.addr(), cal) {
        Ok(bases) => Ok(Setup {
            stats0: handle.stats(),
            handle,
            bases,
        }),
        Err(e) => {
            handle.shutdown();
            Err(e)
        }
    }
}

/// One op stream. Each use has its own stream, so its ops do not depend
/// on how many ops another one got through. A reference stream (the first
/// closed passes, whose answers make up the cost ratios, and the open
/// loop, whose percentiles would otherwise mostly report the mix the seed
/// drew) is the same on every seed and draws reference bases only; the
/// others are made from `--seed`.
struct OpGen<'a> {
    kind: Kind,
    bases: &'a [Base],
    reference: bool,
    rng: Rng,
    /// Instance seeds never used before: `(salt, stream, counter)` packed.
    next_fresh: u64,
}

/// `(base, edits)` pairs already sent: a repeat would be a hit.
type Seen = BTreeSet<(usize, String)>;

impl<'a> OpGen<'a> {
    fn new(kind: Kind, bases: &'a [Base], seed: u64, stream: u64, reference: bool) -> Self {
        let seed = if reference { REFERENCE_SEED } else { seed };
        let salt = Rng::new(seed, 0xf5e5).below(1 << 30);
        OpGen {
            kind,
            bases,
            reference,
            rng: Rng::new(seed, 0x0b5 + stream),
            next_fresh: (salt << 32) | (stream << 28),
        }
    }

    fn fresh_spec(&mut self, shape: &str) -> String {
        self.next_fresh += 1;
        format!(
            "layered?{shape}&seed={} @ {}",
            self.next_fresh,
            MACHINES[(self.next_fresh % 2) as usize]
        )
    }

    fn op(&mut self, seen: &mut Seen) -> Op {
        let mut base = if self.reference {
            2 * self.rng.below(self.bases.len() as u64 / 2) as usize
        } else {
            self.rng.below(self.bases.len() as u64) as usize
        };
        if self.kind == Kind::Hot && self.rng.below(16) == 0 {
            // One request in sixteen goes to the big key, so that its
            // latency (`big_solve_ms`) rests on thousands of samples.
            base = 0;
        }
        let draw = match self.kind {
            Kind::Hot => 99,
            Kind::Solve => self.rng.below(100),
        };
        let verify = self.rng.below(20) == 0;
        match draw {
            0..=59 => Op {
                class: Class::Cold,
                base,
                req: solve_request(&self.fresh_spec("layers=10&width=20&q=0.15")),
                verify,
            },
            60..=89 => {
                let edits = loop {
                    let edits = seeded_edits(&self.bases[base].inst, &mut self.rng);
                    if seen.insert((base, serde::json::to_string(&edits))) {
                        break edits;
                    }
                };
                let mut req = Request::new("delta");
                req.base = Some(self.bases[base].name.clone());
                req.edits = Some(edits);
                Op {
                    class: Class::Delta,
                    base,
                    req,
                    verify,
                }
            }
            _ => Op {
                class: Class::Hit,
                base,
                req: self.bases[base].req.clone(),
                verify: false,
            },
        }
    }

    fn ops(&mut self, n: usize, seen: &mut Seen) -> Vec<Op> {
        (0..n).map(|_| self.op(seen)).collect()
    }

    /// `n` solves of never-seen specs of `shape`, outside the mix.
    fn fresh_ops(&mut self, class: Class, shape: &str, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| Op {
                class,
                base: 0,
                req: solve_request(&self.fresh_spec(shape)),
                verify: self.rng.below(20) == 0,
            })
            .collect()
    }
}

/// The cheap checks every answer gets as it arrives.
fn check_answer(op: &Op, frame: &Frame, bases: &[Base]) -> Result<(), String> {
    if frame.kind != "result" {
        return Err(format!(
            "{:?}: {} frame {} {}",
            op.class,
            frame.kind,
            frame.error.as_deref().unwrap_or(""),
            frame.message.as_deref().unwrap_or("")
        ));
    }
    if frame.budget_exhausted == Some(true) {
        return Err(format!("{:?}: ended on a wall-clock limit", op.class));
    }
    let cost = frame.cost.ok_or("result frame without cost")?;
    match op.class {
        Class::Hit => {
            if frame.cache_hit != Some(true) {
                return Err("repeat was not a cache hit".to_string());
            }
            if cost != bases[op.base].cost {
                return Err(format!(
                    "hit cost {cost} differs from the first answer's {}",
                    bases[op.base].cost
                ));
            }
        }
        Class::Cold | Class::Big => {
            if frame.cache_hit != Some(false) {
                return Err("never-seen spec was a cache hit".to_string());
            }
        }
        Class::Delta => {
            if frame.cache_hit != Some(false) || frame.warm != Some(true) {
                return Err(format!(
                    "delta was not a warm miss (cache_hit {:?}, warm {:?})",
                    frame.cache_hit, frame.warm
                ));
            }
            if frame.warm_init_cost.is_none_or(|w| cost > w) {
                return Err(format!(
                    "delta cost {cost} above its repaired start {:?}",
                    frame.warm_init_cost
                ));
            }
        }
    }
    Ok(())
}

/// The library's view of one answered op: the instance it was for and
/// the in-process answer to the same question.
struct Replayed {
    trivial: u64,
    hdagg: u64,
    /// `None` for hits: the base was re-solved and checked at prefill.
    cost: Option<u64>,
}

/// The in-process schedulers the server's answers are checked against:
/// the server's own default and HDagg.
struct Library {
    sched: SharedScheduler,
    hdagg: SharedScheduler,
}

impl Library {
    fn new(cfg: &ServeConfig) -> Result<Library, String> {
        let registry = Registry::standard();
        Ok(Library {
            sched: registry
                .get_with(SCHED, &cfg.pipeline)
                .map_err(|e| e.to_string())?,
            hdagg: registry.get("hdagg").map_err(|e| e.to_string())?,
        })
    }
}

/// Rebuilds the op's instance in-process; with `solve`, also re-solves it
/// the way the server does and passes the answer through the oracle.
fn replay(
    op: &Op,
    bases: &[Base],
    cfg: &ServeConfig,
    lib: &Library,
    solve: bool,
) -> Result<Replayed, String> {
    let hdagg = &lib.hdagg;
    let base = &bases[op.base];
    match op.class {
        Class::Hit => Ok(Replayed {
            trivial: base.trivial,
            hdagg: base.hdagg,
            cost: None,
        }),
        Class::Cold | Class::Big => {
            let spec = op.req.instance.as_deref().ok_or("solve without instance")?;
            let inst = bsp_sched::instances()
                .generate_one(spec, 0)
                .map_err(|e| format!("{spec}: {e}"))?;
            let cost = if solve {
                let out = lib
                    .sched
                    .solve(&SolveRequest::new(&inst.dag, &inst.machine));
                oracle::check_outcome(&inst, &out, false).map_err(|e| format!("{spec}: {e}"))?;
                Some(out.total())
            } else {
                None
            };
            Ok(Replayed {
                trivial: oracle::trivial_cost(&inst.dag, &inst.machine),
                hdagg: hdagg
                    .solve(&SolveRequest::new(&inst.dag, &inst.machine))
                    .total(),
                cost,
            })
        }
        Class::Delta => {
            let edits = op.req.edits.as_deref().ok_or("delta without edits")?;
            let edited = apply_edits(&base.inst.dag, edits).map_err(|e| e.to_string())?;
            let inst = Instance {
                name: String::new(),
                dag: edited.dag,
                machine: base.inst.machine.clone(),
            };
            let cost = if solve {
                let (out, _) = warm_resolve(
                    &inst.dag,
                    &edited.node_map,
                    &inst.machine,
                    &base.sched,
                    &cfg.pipeline,
                );
                oracle::check_outcome(&inst, &out, false)
                    .map_err(|e| format!("delta on {}: {e}", base.name))?;
                Some(out.total())
            } else {
                None
            };
            Ok(Replayed {
                trivial: oracle::trivial_cost(&inst.dag, &inst.machine),
                hdagg: hdagg
                    .solve(&SolveRequest::new(&inst.dag, &inst.machine))
                    .total(),
                cost,
            })
        }
    }
}

/// Per-class latencies of one closed pass and where its time went.
struct PassStats {
    /// Σ latency of the pass's ops.
    wall_ns: u64,
    /// When the pass began and ended.
    span: (Instant, Instant),
    /// `(class, client-side latency)` in op order, [`Class::Big`] ones
    /// aside.
    lat: Vec<(Class, u64)>,
    /// Latencies of the big solves that open the pass (`serve-solve`).
    big_ns: Vec<u64>,
    /// Latencies of hits on base 0, the big one (`serve-hot`).
    big_hit_ns: Vec<u64>,
    /// Σ server-side stage time by stage name over the pass's misses, µs.
    stage_us: Vec<(String, u64)>,
    server_us: Vec<u64>,
    transport_ns: Vec<u64>,
}

/// An answer that gets a second look after the run.
struct Kept {
    op: Op,
    frame: Frame,
    /// From the first passes: counts towards the quality ratios.
    quality: bool,
}

/// Cost of the first passes' answers against the trivial and the HDagg
/// schedule of the same instance.
#[derive(Default)]
struct Quality {
    vs_trivial: Vec<f64>,
    vs_hdagg: Vec<f64>,
    worse_than_trivial: u64,
}

impl Quality {
    fn add(&mut self, cost: u64, trivial: u64, hdagg: u64) {
        self.vs_trivial.push(cost as f64 / trivial.max(1) as f64);
        self.vs_hdagg.push(cost as f64 / hdagg.max(1) as f64);
        self.worse_than_trivial += u64::from(cost > trivial);
    }
}

/// What the phases of one run share.
struct Session<'a> {
    kind: Kind,
    opts: &'a Opts,
    cfg: &'a ServeConfig,
    addr: SocketAddr,
    bases: &'a [Base],
    /// Span labels by `Class as usize`.
    labels: [u32; 4],
    kept: Vec<Kept>,
    quality: Quality,
    res: RunResult,
}

impl Session<'_> {
    /// Cheap checks now; the answer is kept if it needs more than that.
    /// With `quality`, a hit goes into the quality ratios right away (its
    /// instance was checked at prefill) and any other answer is kept.
    fn account(&mut self, op: Op, frame: Frame, quality: bool) {
        if let Err(e) = check_answer(&op, &frame, self.bases) {
            self.res.fail(|| e);
        }
        let base = &self.bases[op.base];
        match (quality, op.class, frame.cost) {
            (true, Class::Hit, Some(cost)) => self.quality.add(cost, base.trivial, base.hdagg),
            (true, _, _) => self.kept.push(Kept {
                op,
                frame,
                quality: true,
            }),
            (false, _, _) if op.verify => self.kept.push(Kept {
                op,
                frame,
                quality: false,
            }),
            _ => {}
        }
    }

    /// One closed-loop pass over `ops` on one connection.
    fn closed_pass(
        &mut self,
        conn: &mut Conn,
        ops: Vec<Op>,
        cal: &mut Calibrator,
        tracer: &mut Tracer,
        quality: bool,
    ) -> Result<PassStats, String> {
        let mut st = PassStats {
            wall_ns: 0,
            span: (Instant::now(), Instant::now()),
            lat: Vec::with_capacity(ops.len()),
            big_ns: Vec::new(),
            big_hit_ns: Vec::new(),
            stage_us: Vec::new(),
            server_us: Vec::new(),
            transport_ns: Vec::new(),
        };
        for mut op in ops {
            // Between requests the server is idle: the kernel takes
            // nothing from it.
            cal.tick();
            let (frame, t) = conn.call(&mut op.req)?;
            let total = t.total_ns();
            if op.class == Class::Big {
                st.big_ns.push(total);
                self.account(op, frame, false);
                continue;
            }
            st.lat.push((op.class, total));
            if op.class == Class::Hit && op.base == 0 {
                st.big_hit_ns.push(total);
            }
            let server_us = frame.elapsed_us.unwrap_or(0);
            st.server_us.push(server_us);
            st.transport_ns
                .push(t.wait_ns.saturating_sub(server_us * 1000));
            for s in frame.stages.iter().flatten() {
                match st.stage_us.iter_mut().find(|(k, _)| *k == s.stage) {
                    Some((_, v)) => *v += s.elapsed_us,
                    None => st.stage_us.push((s.stage.clone(), s.elapsed_us)),
                }
            }
            if tracer.on {
                trace_op(tracer, self.labels[op.class as usize], &t, &frame);
            }
            self.account(op, frame, quality);
        }
        st.wall_ns = st.lat.iter().map(|l| l.1).sum();
        st.span.1 = Instant::now();
        Ok(st)
    }
}

impl PassStats {
    /// Divides every time of the pass by the host's slowdown over it.
    fn at_quiet_speed(&mut self, cal: &Calibrator) {
        let f = cal.slowdown(self.span.0, self.span.1);
        let scale = |ns: &mut u64| *ns = (*ns as f64 / f) as u64;
        self.lat.iter_mut().for_each(|l| scale(&mut l.1));
        self.big_ns.iter_mut().for_each(scale);
        self.big_hit_ns.iter_mut().for_each(scale);
        self.transport_ns.iter_mut().for_each(scale);
        self.wall_ns = self.lat.iter().map(|l| l.1).sum();
    }

    /// Median latency of one class, ns (0 if the pass has none).
    fn class_p50(&self, class: Class) -> f64 {
        let v: Vec<u64> = self
            .lat
            .iter()
            .filter(|l| l.0 == class)
            .map(|l| l.1)
            .collect();
        stats::median_u64(&v)
    }
}

/// The spans of one closed-loop request: `op` over client write, wait and
/// parse; inside the wait, the server's own elapsed time and its stages.
fn trace_op(tracer: &mut Tracer, label: u32, t: &Timing, frame: &Frame) {
    let start = tracer.ns(t.start);
    let op = tracer.push("op", "bench", 0, start, t.total_ns(), label);
    tracer.push("client_write", "serve", op, start, t.write_ns, label);
    let wait_at = start + t.write_ns;
    let wait = tracer.push("client_wait", "serve", op, wait_at, t.wait_ns, label);
    tracer.push(
        "client_parse",
        "serve",
        op,
        wait_at + t.wait_ns,
        t.parse_ns,
        label,
    );
    // The server's clock says how long, not when: centre its span in the
    // wait, stages laid end to end from its start.
    let server_ns = (frame.elapsed_us.unwrap_or(0) * 1000).min(t.wait_ns);
    let mut at = wait_at + (t.wait_ns - server_ns) / 2;
    let server = tracer.push("server", "serve", wait, at, server_ns, label);
    for s in frame.stages.iter().flatten() {
        let d = (s.elapsed_us * 1000).min(server_ns);
        tracer.push(trace::stage_name(&s.stage), "core", server, at, d, label);
        at += d;
    }
}

/// What an open-loop phase measured, indexed by op.
struct OpenOutcome {
    /// Latency from the intended send time, ns; `None` if never answered.
    lat_ns: Vec<Option<u64>>,
    /// How late each op was first sent, ns.
    late_ns: Vec<u64>,
    frames: Vec<Option<Frame>>,
    /// `queue_full` refusals seen (each one re-sent).
    queue_full: u64,
    /// Requests sent but not yet answered when the schedule ended.
    backlog_at_end: usize,
}

/// Closed passes every run completes whatever the time box: their ops
/// come from the reference stream and their answers make up the cost
/// ratios, which therefore repeat to the last digit on every seed and
/// however fast the run was. (1000 answers on `serve-solve`.) Peak
/// memory is read when they are done, after a fixed amount of work.
const QUALITY_PASSES: usize = 5;

/// Big solves that open each closed pass of `serve-solve`, and their
/// shape (n = 800).
const BIG_PER_PASS: usize = 2;
const BIG_SHAPE: &str = "layers=20&width=40&q=0.08";

/// `serve-hot` has no miss in its op stream, so its `cold_p50_ms` comes
/// from probes between the rounds of the window: this many solves of
/// never-seen specs of the prefilled shape (n = 72), the same on every
/// seed. They are sampled over the whole window like everything else (the
/// prefill's own misses all fall into the first seconds of a run, which a
/// disturbed stretch of the host can cover whole), and are left out of
/// `serve.misses` and `serve.hit_share`.
const COLD_PROBES: usize = 32;
const HOT_SHAPE: &str = "layers=6&width=12&q=0.3";

/// How far either side of an open segment its calibration samples are
/// taken from: short against the host's disturbed stretches, long enough
/// to hold a few dozen samples of the closed passes.
const AROUND_SEGMENT: Duration = Duration::from_secs(1);

/// Fewest segments of the open loop.
const MIN_SEGMENTS: usize = 3;

/// How often one request is sent before a `queue_full` is final.
const MAX_ATTEMPTS: u32 = 20;

/// Most requests the open loop keeps in flight over all connections:
/// under the server's default `queue_cap` of 64, so that a generator
/// catching up after a stall queues the overdue requests at the client,
/// their clocks running, instead of having them refused.
const MAX_IN_FLIGHT: usize = 48;

/// Waits for `due`: asleep until 250 µs before it, then yielding. A
/// timer wake-up on an idle virtual CPU arrives tens of microseconds
/// late, which a cached request (22 µs) would show as latency it never
/// had; yielding instead of spinning leaves the CPU to the server's
/// threads whenever they have work. (At `serve-hot`'s rate the gap is
/// shorter than the sleep threshold, so the sender never sleeps and the
/// CPU never idles: sleeping through most of the gap instead made every
/// request pay the virtual CPU's wake-up, 36 µs at the median for 24.)
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(250));
        } else {
            std::thread::yield_now();
        }
    }
}

/// A final answer of the open loop: `(op, frame, latency from due, ns)`.
type Answered = (usize, Frame, u64);

/// What the two threads of one open-loop connection share.
struct OpenConn<'a> {
    ops: &'a [Op],
    /// Indices of the ops this connection carries, in due order.
    mine: Vec<usize>,
    epoch: Instant,
    rate: f64,
    /// In-flight cap of this connection.
    window: usize,
    answered: AtomicUsize,
    done: AtomicBool,
}

impl OpenConn<'_> {
    fn due(&self, i: usize) -> Instant {
        self.epoch + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// Sends each op when it is due and re-sends refused ones when the
    /// reader asks. Returns `(op, lateness ns)` pairs and the backlog at
    /// the end of the schedule.
    fn sender(
        &self,
        mut writer: TcpStream,
        retries: Receiver<(usize, Instant)>,
    ) -> Result<(Vec<(usize, u64)>, usize), String> {
        let mut send = |i: usize| -> Result<(), String> {
            let mut line = to_line(&self.ops[i].req);
            line.push('\n');
            writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("write: {e}"))
        };
        let mut pending: Vec<(usize, Instant)> = Vec::new();
        let mut resend_due = |send: &mut dyn FnMut(usize) -> Result<(), String>| {
            pending.extend(retries.try_iter());
            let now = Instant::now();
            let mut k = 0;
            while k < pending.len() {
                if pending[k].1 <= now {
                    send(pending.swap_remove(k).0)?;
                } else {
                    k += 1;
                }
            }
            Ok::<(), String>(())
        };
        let mut late = Vec::with_capacity(self.mine.len());
        for (k, &i) in self.mine.iter().enumerate() {
            resend_due(&mut send)?;
            wait_until(self.due(i));
            while k - self.answered.load(Ordering::Relaxed) >= self.window {
                if self.done.load(Ordering::Acquire) {
                    return Err("reader stopped early".to_string());
                }
                std::thread::yield_now();
            }
            let at = Instant::now();
            send(i)?;
            late.push((
                i,
                at.saturating_duration_since(self.due(i)).as_nanos() as u64,
            ));
        }
        let backlog = self.mine.len() - self.answered.load(Ordering::Relaxed);
        while !self.done.load(Ordering::Acquire) {
            resend_due(&mut send)?;
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((late, backlog))
    }

    /// Reads until every op of this connection has its final answer.
    /// Returns what it got and the refusals seen.
    fn reader(
        &self,
        read_half: TcpStream,
        retries: Sender<(usize, Instant)>,
    ) -> Result<(Vec<Answered>, u64), String> {
        let mut reader = BufReader::new(read_half);
        let mut got = Vec::with_capacity(self.mine.len());
        let mut attempts = vec![1u32; self.ops.len()];
        let mut refused = 0u64;
        let mut line = String::new();
        while got.len() < self.mine.len() {
            line.clear();
            let read = reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if read == 0 {
                return Err("connection closed mid-phase".to_string());
            }
            let at = Instant::now();
            let frame: Frame = parse_line(&line).map_err(|e| format!("parse: {e}"))?;
            let i = match frame.id {
                Some(id) if id >= 1 && id as usize <= self.ops.len() => id as usize - 1,
                _ => return Err(format!("frame without a usable id: {frame:?}")),
            };
            if frame.error.as_deref() == Some(codes::QUEUE_FULL) {
                refused += 1;
                if attempts[i] < MAX_ATTEMPTS {
                    attempts[i] += 1;
                    let wait = frame.retry_after_ms.unwrap_or(1).clamp(1, 50);
                    let _ = retries.send((i, at + Duration::from_millis(wait)));
                    continue;
                }
            }
            self.answered.fetch_add(1, Ordering::Relaxed);
            let lat = at.saturating_duration_since(self.due(i)).as_nanos() as u64;
            got.push((i, frame, lat));
        }
        Ok((got, refused))
    }
}

/// Sends `ops` on a fixed schedule of `rate` per second, op `i` due at
/// `i / rate`, round-robin over `conns` connections, each with a sender
/// and a reader thread. Latency runs from the due time. A `queue_full`
/// refusal is re-sent after the server's hint, as a well-behaved client
/// does; the op's clock keeps running.
fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    ops: &mut [Op],
) -> Result<OpenOutcome, String> {
    for (i, op) in ops.iter_mut().enumerate() {
        op.req.id = Some(i as u64 + 1);
    }
    let ops = &*ops;
    let n = ops.len();
    let epoch = Instant::now() + Duration::from_millis(20);
    let shared: Vec<OpenConn> = (0..conns)
        .map(|c| OpenConn {
            ops,
            mine: (c..n).step_by(conns).collect(),
            epoch,
            rate,
            window: MAX_IN_FLIGHT / conns,
            answered: AtomicUsize::new(0),
            done: AtomicBool::new(false),
        })
        .collect();
    let mut streams = Vec::new();
    for _ in 0..conns {
        let writer = connect(addr)?;
        let read_half = writer.try_clone().map_err(|e| e.to_string())?;
        streams.push((writer, read_half));
    }
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = shared
            .iter()
            .zip(streams)
            .map(|(conn, (writer, read_half))| {
                let (tx, rx) = channel();
                let closer = writer.try_clone();
                let sender = scope.spawn(move || {
                    let sent = conn.sender(writer, rx);
                    if sent.is_err() {
                        // Unblock the reader: nothing more will arrive.
                        if let Ok(c) = &closer {
                            let _ = c.shutdown(std::net::Shutdown::Both);
                        }
                    }
                    sent
                });
                let reader = scope.spawn(move || {
                    let got = conn.reader(read_half, tx);
                    conn.done.store(true, Ordering::Release);
                    got
                });
                (sender, reader)
            })
            .collect();
        handles
            .into_iter()
            .map(|(s, r)| {
                (
                    s.join()
                        .unwrap_or_else(|_| Err("sender panicked".to_string())),
                    r.join()
                        .unwrap_or_else(|_| Err("reader panicked".to_string())),
                )
            })
            .collect()
    });
    let mut out = OpenOutcome {
        lat_ns: vec![None; n],
        late_ns: vec![0; n],
        frames: vec![None; n],
        queue_full: 0,
        backlog_at_end: 0,
    };
    for (sender, reader) in results {
        let (late, backlog) = sender?;
        let (got, refused) = reader?;
        out.queue_full += refused;
        out.backlog_at_end += backlog;
        for (i, ns) in late {
            out.late_ns[i] = ns;
        }
        for (i, frame, lat) in got {
            out.lat_ns[i] = Some(lat);
            out.frames[i] = Some(frame);
        }
    }
    Ok(out)
}

/// Runs the workload: set-up, the timed window of both loops, then — in
/// a traced run — the rate ladder and the layer probes.
pub fn run(kind: Kind, opts: &Opts, tracer: &mut Tracer) -> Result<RunResult, String> {
    let cfg = serve_config();
    let mut cal = Calibrator::new();
    let (last, setups) = common::repeat_setup(
        &mut cal,
        opts.quick,
        |cal| setup(kind, opts, &cfg, cal),
        |prev: Setup| {
            prev.handle.shutdown();
        },
    )?;
    let Setup {
        handle,
        bases,
        stats0,
    } = last;
    let session = Session {
        kind,
        opts,
        cfg: &cfg,
        addr: handle.addr(),
        bases: &bases,
        labels: ["hit", "cold", "delta", "big"].map(|c| tracer.label(c)),
        kept: Vec::new(),
        quality: Quality::default(),
        res: RunResult::default(),
    };
    let result = phases(session, &handle, &stats0, cal, &setups, tracer);
    handle.shutdown();
    result
}

/// One segment of the open loop.
struct Segment {
    /// `(class, latency from due, ns)` per answered op.
    lat: Vec<(Class, u64)>,
    span: (Instant, Instant),
}

/// Exact percentile of the latencies of a pass or a segment, ns.
fn lat_percentile(lat: &[(Class, u64)], pct: f64) -> f64 {
    stats::percentile(lat.iter().map(|l| l.1).collect(), pct) as f64
}

/// The open loop's answers.
struct OpenPhase {
    rate: f64,
    conns: usize,
    segments: Vec<Segment>,
    late_ns: Vec<u64>,
    queue_full: u64,
}

/// The closed loop's passes, `(traced, stats)` each, the peak resident
/// set when the first [`QUALITY_PASSES`] were done, and the cold probes of
/// `serve-hot`, one per round.
struct ClosedPhase {
    passes: Vec<(bool, PassStats)>,
    peak_rss_mb: f64,
    probes: Vec<PassStats>,
}

impl Session<'_> {
    fn pass_ops(&self) -> usize {
        match (self.kind, self.opts.quick) {
            (Kind::Hot, false) => 5_000,
            (Kind::Hot, true) => 1_000,
            (Kind::Solve, false) => 200,
            (Kind::Solve, true) => 60,
        }
    }

    /// The timed window: rounds of a few closed-loop passes on one
    /// connection and one open-loop segment, until `secs` are used up.
    /// The two loops alternate instead of taking half the window each
    /// because the host's disturbed stretches last up to tens of seconds:
    /// either loop then samples the whole window and its quiet quartile
    /// finds the undisturbed part of it.
    ///
    /// The first [`QUALITY_PASSES`] closed passes come from the reference
    /// stream; each pass of `serve-solve` opens with its big solves. A
    /// traced run records spans on every other closed pass, so the tracing
    /// overhead is measured inside the one process. An open segment is a
    /// fixed arrival schedule on fresh connections, latency from the due
    /// time, with no calibration sample inside (the kernel would take the
    /// CPU from the server): it is corrected by those of the closed passes
    /// around it.
    fn window(
        &mut self,
        secs: f64,
        seen: &mut Seen,
        cal: &mut Calibrator,
        tracer: &mut Tracer,
    ) -> Result<(ClosedPhase, OpenPhase), String> {
        let (rate, conns, passes_per_round) = match self.kind {
            Kind::Hot => (HOT_RATE, 1, 4),
            Kind::Solve => (SOLVE_RATE, 2, 2),
        };
        // A segment is the fewest ops a p95 rests on, or half a second.
        let seg_ops = ((rate / 2.0) as usize).max(if self.opts.quick { 60 } else { 200 });
        let mut reference = OpGen::new(self.kind, self.bases, self.opts.seed, 0, true);
        let mut seeded = OpGen::new(self.kind, self.bases, self.opts.seed, 1, false);
        let mut open_gen = OpGen::new(self.kind, self.bases, self.opts.seed, 2, true);
        let mut conn = Conn::open(self.addr)?;
        let mut probe_gen = OpGen::new(self.kind, self.bases, self.opts.seed, 4, true);
        let mut closed = ClosedPhase {
            passes: Vec::new(),
            peak_rss_mb: 0.0,
            probes: Vec::new(),
        };
        let mut open = OpenPhase {
            rate,
            conns,
            segments: Vec::new(),
            late_ns: Vec::new(),
            queue_full: 0,
        };
        let window = Instant::now();
        loop {
            for _ in 0..passes_per_round {
                cal.sample_n(2);
                let quality = closed.passes.len() < QUALITY_PASSES;
                let mut ops = Vec::new();
                if self.kind == Kind::Solve {
                    ops = reference.fresh_ops(Class::Big, BIG_SHAPE, BIG_PER_PASS);
                }
                let gen = if quality { &mut reference } else { &mut seeded };
                ops.extend(gen.ops(self.pass_ops(), seen));
                let traced = self.opts.trace && closed.passes.len().is_multiple_of(2);
                tracer.on = traced;
                // On `serve-hot` the ratios come straight from the bases.
                let quality = quality && self.kind == Kind::Solve;
                let st = self.closed_pass(&mut conn, ops, cal, tracer, quality)?;
                tracer.on = false;
                closed.passes.push((traced, st));
                if closed.passes.len() == QUALITY_PASSES {
                    closed.peak_rss_mb = common::peak_rss_mb();
                }
            }
            if self.kind == Kind::Hot {
                let n = if self.opts.quick { 8 } else { COLD_PROBES };
                let ops = probe_gen.fresh_ops(Class::Cold, HOT_SHAPE, n);
                let untraced = &mut Tracer::new(Instant::now(), 0, false);
                let probe = self.closed_pass(&mut conn, ops, cal, untraced, false)?;
                closed.probes.push(probe);
            }
            let from = Instant::now();
            let mut ops = open_gen.ops(seg_ops, seen);
            let mut answers = open_loop(self.addr, conns, rate, &mut ops)?;
            open.queue_full += answers.queue_full;
            open.late_ns.append(&mut answers.late_ns);
            let mut lat = Vec::with_capacity(seg_ops);
            for (i, op) in ops.into_iter().enumerate() {
                match (answers.frames[i].take(), answers.lat_ns[i]) {
                    (Some(frame), Some(ns)) => {
                        lat.push((op.class, ns));
                        self.account(op, frame, false);
                    }
                    _ => self
                        .res
                        .fail(|| "open loop: request never answered".to_string()),
                }
            }
            open.segments.push(Segment {
                lat,
                span: (from, Instant::now()),
            });
            let elapsed = window.elapsed().as_secs_f64();
            let mean_round = elapsed / open.segments.len() as f64;
            if closed.passes.len() >= QUALITY_PASSES
                && open.segments.len() >= MIN_SEGMENTS
                && elapsed + mean_round / 2.0 >= secs
            {
                break;
            }
        }
        Ok((closed, open))
    }

    /// Verification, outside the timed region: the reference passes'
    /// misses give the rest of the quality ratios; the seeded sample is
    /// re-solved in-process and must cost what the server said.
    fn verify(&mut self) {
        let lib = match Library::new(self.cfg) {
            Ok(lib) => lib,
            Err(e) => return self.res.fail(|| e),
        };
        for Kept { op, frame, quality } in std::mem::take(&mut self.kept) {
            let replayed = match replay(&op, self.bases, self.cfg, &lib, op.verify) {
                Ok(r) => r,
                Err(e) => {
                    self.res.fail(|| format!("{:?}: {e}", op.class));
                    continue;
                }
            };
            let Some(cost) = frame.cost else { continue };
            if replayed.cost.is_some_and(|c| c != cost) {
                self.res.fail(|| {
                    format!(
                        "{:?} {}: server cost {cost}, library cost {:?}",
                        op.class,
                        op.req
                            .instance
                            .as_deref()
                            .or(op.req.base.as_deref())
                            .unwrap_or(""),
                        replayed.cost
                    )
                });
            }
            if quality {
                self.quality.add(cost, replayed.trivial, replayed.hdagg);
            }
        }
    }
}

fn phases(
    mut s: Session,
    handle: &ServerHandle,
    stats0: &ServerStats,
    mut cal: Calibrator,
    setups: &[common::SetupSpan],
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let mut seen = Seen::new();
    let moves0 = common::obs_counter("bsp_ls_moves_total");
    let (
        ClosedPhase {
            mut passes,
            peak_rss_mb,
            mut probes,
        },
        mut open,
    ) = s.window(s.opts.seconds, &mut seen, &mut cal, tracer)?;
    let probe_ops: usize = probes.iter().map(|p| p.lat.len()).sum();
    let closed_ops: usize = probe_ops
        + passes
            .iter()
            .map(|(_, p)| p.lat.len() + p.big_ns.len())
            .sum::<usize>();
    let open_ops: usize = open.segments.iter().map(|seg| seg.lat.len()).sum();
    s.res.attempted = (closed_ops + open_ops) as u64;
    let moves = common::obs_counter("bsp_ls_moves_total") - moves0;
    let stats1 = handle.stats();
    let verified = s.kept.iter().filter(|k| k.op.verify).count();
    s.verify();

    // Everything below is at quiet-host speed.
    let raw_wall: u64 = passes.iter().map(|(_, p)| p.wall_ns).sum();
    let raw_rates: Vec<f64> = passes
        .iter()
        .map(|(_, p)| p.lat.len() as f64 / (p.wall_ns as f64 / 1e9))
        .collect();
    for p in passes.iter_mut().map(|(_, p)| p).chain(probes.iter_mut()) {
        p.at_quiet_speed(&cal);
    }
    let quiet_wall: u64 = passes.iter().map(|(_, p)| p.wall_ns).sum();
    for seg in open.segments.iter_mut() {
        // A segment holds no calibration sample of its own: its slowdown
        // is read off the closed passes on either side of it.
        let f = cal.slowdown(
            seg.span.0.checked_sub(AROUND_SEGMENT).unwrap_or(seg.span.0),
            seg.span.1 + AROUND_SEGMENT,
        );
        seg.lat
            .iter_mut()
            .for_each(|l| l.1 = (l.1 as f64 / f) as u64);
    }

    // End-to-end metrics. Each is taken per pass (per open segment) and
    // reported as the quiet quartile over them: a disturbed stretch then
    // moves some passes, not the metric.
    let over_passes = |f: &dyn Fn(&PassStats) -> f64, higher: bool| -> f64 {
        stats::quiet(
            &passes.iter().map(|(_, p)| f(p)).collect::<Vec<_>>(),
            higher,
        )
    };
    let over_segments = |f: &dyn Fn(&Segment) -> f64| -> f64 {
        stats::quiet(&open.segments.iter().map(f).collect::<Vec<_>>(), false)
    };
    let closed_tail = stats::tail_percentile(s.pass_ops()).min(95);
    let open_tail = stats::tail_percentile(open.segments[0].lat.len()).min(match s.kind {
        Kind::Hot => HOT_OPEN_TAIL,
        Kind::Solve => 95,
    });
    let (cold_ns, warm_ns, big_ns) = match s.kind {
        Kind::Hot => (
            stats::quiet(
                &probes
                    .iter()
                    .map(|p| p.class_p50(Class::Cold))
                    .collect::<Vec<_>>(),
                false,
            ),
            over_passes(&|p| p.class_p50(Class::Hit), false),
            over_passes(&|p| stats::median_u64(&p.big_hit_ns), false),
        ),
        Kind::Solve => {
            let big: Vec<u64> = passes
                .iter()
                .flat_map(|(_, p)| p.big_ns.iter().copied())
                .collect();
            (
                over_passes(&|p| p.class_p50(Class::Cold), false),
                over_passes(&|p| p.class_p50(Class::Delta), false),
                stats::median_u64(&big),
            )
        }
    };
    if s.kind == Kind::Hot {
        // Every hit repeats the checked answer of its base: the ratios of
        // the reference bases are the ratios of the workload's answers.
        for b in s.bases.iter().filter(|b| b.reference) {
            s.quality.add(b.cost, b.trivial, b.hdagg);
        }
    }
    let Session {
        kind,
        opts,
        cfg,
        addr,
        bases,
        quality,
        mut res,
        ..
    } = s;
    let ok_share = res.ok_share();
    let e = &mut res.end_to_end;
    e.insert("setup_s", common::setup_seconds(&cal, setups));
    e.insert(
        "ops_per_s",
        over_passes(&|p| p.lat.len() as f64 / (p.wall_ns as f64 / 1e9), true),
    );
    e.insert(
        "op_p50_ms",
        over_passes(&|p| lat_percentile(&p.lat, 50.0), false) / 1e6,
    );
    e.insert(
        "op_p95_ms",
        over_passes(&|p| lat_percentile(&p.lat, closed_tail as f64), false) / 1e6,
    );
    e.insert("big_solve_ms", big_ns / 1e6);
    e.insert("vs_hdagg_ratio", stats::geomean(&quality.vs_hdagg));
    e.insert("cost_ratio", stats::geomean(&quality.vs_trivial));
    e.insert(
        "open_p50_ms",
        over_segments(&|g| lat_percentile(&g.lat, 50.0)) / 1e6,
    );
    e.insert(
        "open_p95_ms",
        over_segments(&|g| lat_percentile(&g.lat, open_tail as f64)) / 1e6,
    );
    e.insert("cold_p50_ms", cold_ns / 1e6);
    e.insert("warm_p50_ms", warm_ns / 1e6);
    e.insert("replay_vs_cold_x", warm_ns / cold_ns.max(1e-9));
    e.insert("peak_rss_mb", peak_rss_mb);
    e.insert("ok_share", ok_share);
    let n = &mut res.notes;
    n.insert("closed_passes", passes.len().to_string());
    n.insert("ops_per_pass", passes[0].1.lat.len().to_string());
    n.insert("cold_probes", probe_ops.to_string());
    n.insert("open_segments", open.segments.len().to_string());
    n.insert("open_ops", open_ops.to_string());
    n.insert("open_rate_per_s", open.rate.to_string());
    n.insert("open_conns", open.conns.to_string());
    n.insert("open_queue_full", open.queue_full.to_string());
    n.insert(
        "tail_pct",
        format!("closed p{closed_tail} open p{open_tail}"),
    );
    n.insert("quality_answers", quality.vs_trivial.len().to_string());
    n.insert("verified_in_process", verified.to_string());
    n.insert("setups", setups.len().to_string());
    n.insert(
        "raw_ops_per_s",
        format!(
            "{:.3} before the host correction",
            stats::quiet(&raw_rates, true)
        ),
    );
    n.insert(
        "serve_config",
        format!(
            "threads={} queue_cap={} default_budget_ms={:?} default_sched={}",
            cfg.threads, cfg.queue_cap, cfg.default_budget_ms, cfg.default_sched
        ),
    );
    // Unpinned, a cached request reads up to five times slower (see
    // `rerun_pinned`): the suite wants every run of a workload the same
    // way, and `compare` refuses a pinned file against an unpinned one.
    let pinned = std::env::var("BENCHMARK_PINNED").ok();
    n.insert(
        "cpu_affinity",
        pinned.as_ref().map_or("unpinned", |_| "pinned").to_string(),
    );
    if let Some(cpu) = pinned {
        n.insert("pinned_cpu", cpu);
    }
    cal.report(raw_wall as f64, quiet_wall as f64, opts.trace, &mut res);

    if opts.trace {
        let mut seen = seen;
        let l = &mut res.per_layer;
        let rate_of = |traced: bool| {
            let ps: Vec<&PassStats> = passes
                .iter()
                .filter(|p| p.0 == traced)
                .map(|p| &p.1)
                .collect();
            ps.iter().map(|p| p.lat.len()).sum::<usize>() as f64
                / ps.iter().map(|p| p.wall_ns).sum::<u64>().max(1) as f64
        };
        l.insert(
            "bench.trace_overhead_share",
            (rate_of(false) - rate_of(true)) / rate_of(false),
        );
        l.insert("bench.span_coverage_share", tracer.coverage().0);
        for (span, name) in [
            ("client_write", "serve.client_write_us"),
            ("client_wait", "serve.client_wait_us"),
            ("client_parse", "serve.client_parse_us"),
        ] {
            l.insert(name, common::median_us(&tracer.durations(span, None)));
        }
        let server_us: Vec<u64> = passes
            .iter()
            .flat_map(|(_, p)| p.server_us.iter().copied())
            .collect();
        let transport: Vec<u64> = passes
            .iter()
            .flat_map(|(_, p)| p.transport_ns.iter().copied())
            .collect();
        l.insert("serve.server_elapsed_us", stats::median_u64(&server_us));
        l.insert("serve.transport_us", common::median_us(&transport));
        let hits = stats1.hits - stats0.hits;
        // The timed op stream's misses: `serve-hot`'s cold probes aside.
        let misses = stats1.misses - stats0.misses - probe_ops as u64;
        l.insert("serve.hits", hits as f64);
        l.insert("serve.misses", misses as f64);
        l.insert(
            "serve.hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        l.insert(
            "serve.jobs_done",
            (stats1.jobs_done - stats0.jobs_done) as f64,
        );
        l.insert(
            "serve.evictions",
            (stats1.evictions - stats0.evictions) as f64,
        );
        l.insert("serve.cached_instances", stats1.cached_instances as f64);
        l.insert(
            "loadgen.late_p95_us",
            stats::percentile(std::mem::take(&mut open.late_ns), 95.0) as f64 / 1e3,
        );
        // Queue wait: what the open loop adds to the closed loop's latency
        // for the workload's own class.
        let own = if kind == Kind::Hot {
            Class::Hit
        } else {
            Class::Cold
        };
        let open_own: Vec<u64> = open
            .segments
            .iter()
            .flat_map(|g| g.lat.iter())
            .filter(|(c, _)| *c == own)
            .map(|&(_, ns)| ns)
            .collect();
        let closed_own: Vec<u64> = passes
            .iter()
            .flat_map(|(_, p)| p.lat.iter())
            .filter(|(c, _)| *c == own)
            .map(|&(_, ns)| ns)
            .collect();
        l.insert(
            "serve.queue_wait_us",
            (stats::median_u64(&open_own) - stats::median_u64(&closed_own)) / 1e3,
        );
        let stage_us = |stage: &str| -> u64 {
            passes
                .iter()
                .flat_map(|(_, p)| p.stage_us.iter())
                .filter(|(k, _)| stage.is_empty() || k == stage)
                .map(|(_, v)| v)
                .sum()
        };
        for (stage, name) in [("init", "core.init_share"), ("hc", "core.hc_share")] {
            l.insert(name, stage_us(stage) as f64 / stage_us("").max(1) as f64);
        }
        l.insert("core.hc_moves", moves as f64);
        l.insert("core.worse_than_trivial", quality.worse_than_trivial as f64);

        // The rate ladder: p95 from the due time at four fixed rates, and
        // the highest one that keeps the limit with a flat backlog.
        let ladder = if kind == Kind::Hot {
            HOT_LADDER
        } else {
            SOLVE_LADDER
        };
        let rung_secs = if opts.quick { 0.4 } else { 1.5 };
        let mut queue_full = open.queue_full;
        let mut slo_rate = 0.0;
        let mut gen = OpGen::new(kind, bases, opts.seed, 3, false);
        for (rate, name) in ladder.into_iter().zip([
            "serve.rate_1.p95_ms",
            "serve.rate_2.p95_ms",
            "serve.rate_3.p95_ms",
            "serve.rate_4.p95_ms",
        ]) {
            let mut ops = gen.ops((rate * rung_secs) as usize, &mut seen);
            let rung = open_loop(addr, open.conns, rate, &mut ops)?;
            queue_full += rung.queue_full;
            let refused = rung
                .frames
                .iter()
                .any(|f| f.as_ref().is_none_or(|f| f.kind != "result"));
            let lat: Vec<u64> = rung.lat_ns.iter().flatten().copied().collect();
            let p95 = common::ms(stats::percentile(lat, 95.0));
            l.insert(name, p95);
            let flat = rung.backlog_at_end as f64 <= (rate * SLO_P95_MS / 1e3).max(2.0);
            if !refused && flat && p95 <= SLO_P95_MS {
                slo_rate = rate;
            }
        }
        l.insert("serve.slo_rate_per_s", slo_rate);
        l.insert("serve.queue_full", queue_full as f64);
        l.insert("serve.stream_push_us", stream_probe(addr, opts)?);
        match kind {
            Kind::Hot => layers::serve_micro(&crate::out_dir().join("tmp"), l)?,
            Kind::Solve => layers::delta_micro(&bases[0].inst, opts.seed, l)?,
        }
    }
    Ok(res)
}

/// A short `stream_open`/`stream_push`/`stream_close` session through the
/// daemon with `client::Client`: median wall-clock of one push of eight
/// events, µs. The final assignment is checked against the oracle.
fn stream_probe(addr: SocketAddr, opts: &Opts) -> Result<f64, String> {
    use bsp_sched::instance::trace::{arrival_trace, ArrivalEvent, TraceConfig};
    let machine_spec = "bsp?p=4&g=2&l=5";
    let inst = bsp_sched::instances()
        .generate_one(&format!("stencil?width=12&steps=10 @ {machine_spec}"), 0)
        .map_err(|e| e.to_string())?;
    let trace = arrival_trace(
        &inst.dag,
        "stream-probe",
        &TraceConfig {
            seed: opts.seed,
            ..TraceConfig::default()
        },
    );
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client
        .stream_open("bench", machine_spec, Some(SLACK_MS))
        .map_err(|e| e.to_string())?;
    let events: Vec<&ArrivalEvent> = trace
        .events
        .iter()
        .filter(|e| !matches!(e, ArrivalEvent::Finalize))
        .collect();
    let mut push_ns = Vec::new();
    for batch in events.chunks(8) {
        let batch: Vec<ArrivalEvent> = batch.iter().map(|&e| e.clone()).collect();
        let t = Instant::now();
        client
            .stream_push("bench", &batch)
            .map_err(|e| e.to_string())?;
        push_ns.push(t.elapsed().as_nanos() as u64);
    }
    let done = client.stream_close("bench").map_err(|e| e.to_string())?;
    let (nodes, procs, steps) = match (&done.suffix_nodes, &done.suffix_procs, &done.suffix_steps) {
        (Some(n), Some(p), Some(s)) => (n, p, s),
        _ => return Err("stream_close without an assignment".to_string()),
    };
    let n = inst.dag.n();
    let (mut proc, mut step) = (vec![u32::MAX; n], vec![0u32; n]);
    for ((&v, &p), &s) in nodes.iter().zip(procs).zip(steps) {
        *proc
            .get_mut(v as usize)
            .ok_or("stream_close: node out of range")? = p;
        step[v as usize] = s;
    }
    let sched = BspSchedule::from_parts(proc, step);
    let sends = oracle::lazy_comm(&inst.dag, &sched);
    oracle::validate(&inst.dag, inst.machine.p(), &sched, &sends)
        .map_err(|e| format!("stream session: {e}"))?;
    let lazy = oracle::cost(&inst.dag, &inst.machine, &sched, &sends, false)?;
    if done.cost.is_none_or(|c| c > lazy) {
        return Err(format!(
            "stream session: reported cost {:?} above the lazy-Γ cost {lazy} of its own assignment",
            done.cost
        ));
    }
    Ok(common::median_us(&push_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64) -> Opts {
        Opts {
            workload: "serve-solve".to_string(),
            seed,
            seconds: 1.0,
            trace: false,
            quick: true,
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_specs_and_another_seed_other_ones() {
        for kind in [Kind::Hot, Kind::Solve] {
            assert_eq!(base_specs(kind, &opts(7)), base_specs(kind, &opts(7)));
            assert_ne!(base_specs(kind, &opts(7)), base_specs(kind, &opts(8)));
        }
    }

    /// The whole stack once, small: prefill, a closed pass of the mix, an
    /// open burst on two connections, and the in-process re-solve of every
    /// answer agreeing with the server.
    #[test]
    fn a_small_mix_is_answered_and_verified_end_to_end() {
        let o = opts(11);
        let cfg = serve_config();
        let mut cal = Calibrator::new();
        let Setup { handle, bases, .. } = setup(Kind::Solve, &o, &cfg, &mut cal).unwrap();
        let mut tracer = Tracer::new(Instant::now(), 1, true);
        let mut s = Session {
            kind: Kind::Solve,
            opts: &o,
            cfg: &cfg,
            addr: handle.addr(),
            bases: &bases,
            labels: [0; 4],
            kept: Vec::new(),
            quality: Quality::default(),
            res: RunResult::default(),
        };
        let mut seen = Seen::new();
        let mut ops = OpGen::new(Kind::Solve, &bases, 11, 1, false).ops(80, &mut seen);
        for op in &mut ops {
            op.verify = true;
        }
        assert!(ops.iter().any(|o| o.class == Class::Delta));
        assert!(ops.iter().any(|o| o.class == Class::Hit));
        let mut conn = Conn::open(handle.addr()).unwrap();
        let st = s
            .closed_pass(&mut conn, ops, &mut cal, &mut tracer, true)
            .unwrap();
        assert_eq!(st.lat.len(), 80);
        let (covered, within) = tracer.coverage();
        assert!(covered > 0.95 && within > 0.95, "{covered} {within}");

        let mut burst = OpGen::new(Kind::Solve, &bases, 11, 2, true).ops(40, &mut seen);
        let open = open_loop(handle.addr(), 2, 400.0, &mut burst).unwrap();
        for (op, frame) in burst.iter().zip(&open.frames) {
            check_answer(op, frame.as_ref().unwrap(), &bases).unwrap();
        }
        assert!(open.lat_ns.iter().all(|l| l.is_some()));

        s.verify();
        assert_eq!(s.res.failures, Vec::<String>::new());
        assert_eq!(s.quality.vs_trivial.len(), 80);
        drop(conn);
        handle.shutdown();
    }
}
