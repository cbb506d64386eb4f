//! Pieces every workload shares: the seeded generator, the fixed solver
//! budgets, the result of one run, the virtual-time open loop and a few
//! host probes.

use crate::stats;
use bsp_sched::core::pipeline::PipelineConfig;
use bsp_sched::core::{solve_warm_pipeline, warm_start_from_map};
use bsp_sched::dag::Dag;
use bsp_sched::instance::{DagEdit, Instance};
use bsp_sched::model::BspParams;
use bsp_sched::prelude::*;
use bsp_sched::schedule::solve::SolveCx;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock limits are slack on purpose: every budget that shapes a
/// schedule is a move or node cap, so costs do not depend on the clock.
pub const SLACK: Duration = Duration::from_secs(60);
/// The same slack, as the `hc_ms`/`hccs_ms`/`budget_ms` spec parameters.
pub const SLACK_MS: u64 = 60_000;

/// The base pipeline configuration handed to `Registry::get_with`, the
/// server and the online scheduler: defaults, except that every
/// wall-clock limit is [`SLACK`] and the ILP stages run under small node
/// and size caps (the defaults — `hc` 5 s, `hccs` 2 s, ILP 3 s — make a
/// schedule's cost a function of machine speed).
pub fn base_pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.hc.time_limit = Some(SLACK);
    cfg.hccs.time_limit = Some(SLACK);
    cfg.ilp.limits.time_limit = SLACK;
    cfg.ilp.limits.max_nodes = 2;
    cfg.ilp.full_max_vars = 200;
    cfg.ilp.part_target_vars = 100;
    cfg.threads = 1;
    cfg
}

/// The library half of a warm re-solve: transplant `base` through an
/// edit's node map and re-optimise, exactly as the server's `delta` does.
/// Returns the costed outcome and the cost of the repaired start.
pub fn warm_resolve(
    dag: &Dag,
    node_map: &[Option<u32>],
    machine: &BspParams,
    base: &BspSchedule,
    cfg: &PipelineConfig,
) -> (SolveOutcome, u64) {
    let initial = warm_start_from_map(dag, machine, base, node_map);
    let req = SolveRequest::new(dag, machine);
    let mut cx = SolveCx::new("warm", &req);
    let r = solve_warm_pipeline(dag, machine, &initial, cfg, &mut cx);
    let init_cost = r.init_cost;
    let out = cx.finish(ScheduleResult::from_parts(dag, machine, r.sched, r.comm));
    (out, init_cost)
}

/// One to three seeded, always-valid edits on `inst`: a re-weight, then
/// node additions and edge removals.
pub fn seeded_edits(inst: &Instance, rng: &mut Rng) -> Vec<DagEdit> {
    let n = inst.dag.n() as u64;
    let mut edits = vec![DagEdit::SetWeights {
        node: rng.below(n) as u32,
        work: Some(1 + rng.below(16)),
        comm: None,
    }];
    for _ in 0..rng.below(3) {
        if rng.below(2) == 0 || inst.dag.m() == 0 {
            let mut preds = vec![rng.below(n) as u32, rng.below(n) as u32];
            preds.sort_unstable();
            preds.dedup();
            edits.push(DagEdit::AddNode {
                work: 1 + rng.below(8),
                comm: 1 + rng.below(4),
                preds,
                succs: Vec::new(),
            });
        } else {
            // Removing an edge of the *base*; an earlier edit of this
            // list never removes one, so it is still there.
            let (from, to) = inst
                .dag
                .edges()
                .nth(rng.below(inst.dag.m() as u64) as usize)
                .expect("m > 0");
            if !edits.iter().any(
                |e| matches!(e, DagEdit::RemoveEdge { from: f, to: t } if (*f, *t) == (from, to)),
            ) {
                edits.push(DagEdit::RemoveEdge { from, to });
            }
        }
    }
    edits
}

/// One set-up: how long it took, ns, and when it began and ended.
pub type SetupSpan = (u64, Instant, Instant);

/// Runs `setup` several times — until a second and a half has gone into
/// it, at least three times and at most nine; three times in a `quick`
/// run — handing each result but the last to `discard`. `setup` gets the calibrator to tick between its
/// steps. Returns the last result and the span of every set-up; `setup_s` is the median of the times, each divided by the
/// host's slowdown over its span (see [`setup_seconds`]).
pub fn repeat_setup<T>(
    cal: &mut Calibrator,
    quick: bool,
    mut setup: impl FnMut(&mut Calibrator) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<SetupSpan>), String> {
    let began = Instant::now();
    let mut spans = Vec::new();
    let mut last: Option<T> = None;
    let budget = Duration::from_millis(if quick { 0 } else { 1500 });
    while spans.len() < 3 || (spans.len() < 9 && began.elapsed() < budget) {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        cal.sample_n(3);
        let from = Instant::now();
        last = Some(setup(cal)?);
        let to = Instant::now();
        cal.sample_n(3);
        spans.push(((to - from).as_nanos() as u64, from, to));
    }
    Ok((last.expect("at least three set-ups"), spans))
}

/// `setup_s`: the median set-up time at quiet-host speed, seconds.
pub fn setup_seconds(cal: &Calibrator, spans: &[SetupSpan]) -> f64 {
    let secs: Vec<f64> = spans
        .iter()
        .map(|&(ns, from, to)| ns as f64 / cal.slowdown(from, to) / 1e9)
        .collect();
    stats::median(&secs)
}

/// A control variate for the host's speed.
///
/// The development box is a two-vCPU slice of a shared host. With nothing
/// else running in the guest, the same single-threaded solve takes 15–60 %
/// longer for stretches of one second to a few minutes, and the
/// undisturbed speed itself drifts by a few per cent. A latency-bound loop
/// (a dependent shift-xor chain, a pointer chase) does not see those
/// stretches; code that keeps the core's ports and caches busy does, as
/// the solvers and the protocol code do. That is what a busy sibling
/// hyperthread looks like from inside a guest, and nothing a run does
/// avoids it: such a stretch can outlast a run.
///
/// So the harness times a small kernel of its own throughout a run — after
/// any op once [`Calibrator::EVERY`] has passed since the last sample —
/// and divides every measured time by the kernel's slowdown over the same
/// span: its median time there (over the seven nearest samples if the span
/// holds fewer) over [`Calibrator::NOMINAL_NS`], what the kernel takes on
/// the development box with the host quiet. The kernel is an integer sort
/// plus formatting and parsing numbers as text, the instruction mix of the
/// solvers and of the protocol code.
///
/// `benchmark noise` is the study behind this: it records the kernel
/// beside four real ops and replays the estimators over the recording,
/// and `noise/dev-box-*.csv` are two such recordings of the development
/// box (`noise::tests` pins what they show). The reference has to be a
/// constant: against the run's own quietest kernel time a disturbed
/// stretch that covers a whole run goes uncorrected, and on the disturbed
/// recording that reads no steadier than the raw times. The price is the
/// unit. A
/// reported millisecond is the time in which this host runs
/// 1 / [`Calibrator::NOMINAL_NS`] ms⁻¹ kernels — a wall-clock millisecond
/// on the development box when undisturbed, a fixed multiple of one on
/// another host (run `benchmark noise` there for its factor). Parent and
/// change are measured on one host with one harness, so the factor
/// cancels in every comparison the bounds are about. Every run says what
/// it did: the `host_slowdown` and `kernel` notes, the raw `raw_ops_per_s`
/// note, and in a traced run `bench.host_slowdown_x` and `bench.kernel_us`.
///
/// The kernel is the harness's, not the program's: a change to the
/// program moves the op and not the kernel. What the correction cannot
/// see is CPU time the program itself takes from the kernel — a background
/// thread spinning on the same CPU would slow both.
pub struct Calibrator {
    /// `(when, how long)` of each sample, in time order.
    samples: Vec<(Instant, u64)>,
    last: Instant,
    source: Vec<u64>,
    keys: Vec<u64>,
    text: String,
}

impl Calibrator {
    /// Time between samples: the kernel costs about 2 % of a run.
    pub const EVERY: Duration = Duration::from_millis(40);
    /// Keys sorted per sample, about 0.4 ms.
    const KEYS: usize = 25_000;
    /// Number pairs written and read back per sample, about 0.4 ms.
    const PAIRS: u64 = 4_000;
    /// One sample on the development box with the host quiet, ns: the
    /// kernel's quiet-quartile time in `noise/dev-box-quiet.csv`, rounded.
    pub const NOMINAL_NS: f64 = 800_000.0;

    pub fn new() -> Self {
        let mut rng = Rng::new(0x5eed, 0xca1);
        let source: Vec<u64> = (0..Self::KEYS).map(|_| rng.next()).collect();
        let mut c = Calibrator {
            samples: Vec::new(),
            last: Instant::now(),
            keys: source.clone(),
            source,
            text: String::with_capacity(64),
        };
        c.sample();
        c
    }

    /// Times the kernel once and returns what it took, ns.
    pub fn sample(&mut self) -> u64 {
        use std::fmt::Write;
        let t = Instant::now();
        self.keys.copy_from_slice(&self.source);
        self.keys.sort_unstable();
        let mut sum = self.keys[Self::KEYS / 2];
        for i in 0..Self::PAIRS {
            self.text.clear();
            write!(self.text, "{{\"id\":{},\"cost\":{}}}", i * 7919, i ^ 0x5555)
                .expect("writing to a String");
            for number in self
                .text
                .split(|c: char| !c.is_ascii_digit())
                .filter(|part| !part.is_empty())
            {
                sum = sum.wrapping_add(number.parse::<u64>().expect("digits"));
            }
        }
        std::hint::black_box(sum);
        self.last = Instant::now();
        let ns = (self.last - t).as_nanos() as u64;
        self.samples.push((t, ns));
        ns
    }

    /// Times the kernel `n` times in a row.
    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Samples if [`Calibrator::EVERY`] has passed since the last sample.
    pub fn tick(&mut self) {
        self.tick_at(Instant::now());
    }

    /// [`Calibrator::tick`] for a caller that has just read the clock.
    pub fn tick_at(&mut self, now: Instant) {
        if now.saturating_duration_since(self.last) >= Self::EVERY {
            self.sample();
        }
    }

    /// Median time of the run's samples, ns.
    pub fn median_ns(&self) -> f64 {
        stats::median_u64(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// The kernel's time with the host at its quietest in this run (the
    /// quiet quartile of the samples), ns: over [`Calibrator::NOMINAL_NS`],
    /// the factor between a reported and a wall-clock millisecond on this
    /// host.
    pub fn quiet_ns(&self) -> f64 {
        stats::quiet_ns(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// How much slower than nominal the kernel ran between `from` and
    /// `to`: median over the samples started then — widened to the seven
    /// nearest ones if there are fewer, one sample being as noisy as what
    /// it is meant to correct.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let mut lo = self.samples.partition_point(|s| s.0 < from);
        let mut hi = self.samples.partition_point(|s| s.0 <= to);
        while hi - lo < 7 && (lo > 0 || hi < self.samples.len()) {
            let before = (lo > 0).then(|| from.saturating_duration_since(self.samples[lo - 1].0));
            let after = self
                .samples
                .get(hi)
                .map(|s| s.0.saturating_duration_since(to));
            match (before, after) {
                (Some(b), Some(a)) if b <= a => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let picked: Vec<u64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        stats::median_u64(&picked) / Self::NOMINAL_NS
    }

    /// Divides a time measured between `from` and `to` by the host's
    /// slowdown then.
    pub fn at_quiet_speed(&self, ns: u64, from: Instant, to: Instant) -> u64 {
        (ns as f64 / self.slowdown(from, to)) as u64
    }

    /// What a run says about the correction: the `host_slowdown` and
    /// `kernel` notes and, in a traced run, `bench.host_slowdown_x` and
    /// `bench.kernel_us`. `raw_ns` and `quiet_ns` are the timed ops'
    /// measured and corrected time.
    pub fn report(&self, raw_ns: f64, quiet_ns: f64, trace: bool, res: &mut RunResult) {
        let slowdown = raw_ns / quiet_ns.max(1.0);
        res.notes.insert(
            "host_slowdown",
            format!("{slowdown:.3} measured over reported time of the timed ops"),
        );
        res.notes.insert(
            "kernel",
            format!(
                "{} samples, median {:.0} ns, quiet {:.0} ns, nominal {:.0} ns",
                self.samples.len(),
                self.median_ns(),
                self.quiet_ns(),
                Self::NOMINAL_NS
            ),
        );
        if trace {
            res.per_layer.insert("bench.host_slowdown_x", slowdown);
            res.per_layer
                .insert("bench.kernel_us", self.median_ns() / 1e3);
        }
    }
}

/// SplitMix64: the harness's only source of randomness, seeded from
/// `--seed`. The program under test never sees it — only the spec strings,
/// edits and key draws made from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each use
    /// (instance seeds, key draws, edits) has its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a over 32-bit words: the digest of a cost vector or a schedule,
/// compared across passes and runs by the determinism self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a slice of 32-bit words in.
    pub fn words(&mut self, ws: &[u32]) {
        for &w in ws {
            self.0 = (self.0 ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Ops attempted in the timed phases.
    pub attempted: u64,
    /// Ops that were refused, answered with an error, failed the oracle or
    /// disagreed with an earlier answer.
    pub failed: u64,
    /// First few failure descriptions, for the operator.
    pub failures: Vec<String>,
    /// End-to-end metrics by name (`--trace 0`).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (`--trace 1`); names absent here are
    /// reported as 0 — the layer is not exercised by this workload.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Digest of every answer's cost in op order: equal across runs of one
    /// seed when op counts are equal, and folded per pass so unequal pass
    /// counts still compare (see `pass_digest`).
    pub pass_digest: u64,
    /// Free-form facts for the provenance block (op counts per class, …).
    pub notes: BTreeMap<&'static str, String>,
}

impl RunResult {
    /// `ok_share`: ops answered and verified over ops attempted.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts one failed op and keeps its description if it is among the
    /// first few.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// Latency of ops released on a fixed schedule to one worker, replayed in
/// virtual time over measured service times: op `i` is due at `i / rate`,
/// starts when it is due and the worker is free, and its latency runs from
/// when it was due. This is what a library caller submitting at `rate`
/// would see; the server workloads measure the same thing for real over
/// TCP. Returns per-op latencies in nanoseconds.
pub fn virtual_open_loop(service_ns: &[u64], rate_per_s: f64) -> Vec<u64> {
    virtual_open_loop_until(service_ns, rate_per_s, |i| i)
}

/// [`virtual_open_loop`] where op `i` counts as answered only when op
/// `answered_by(i) >= i` is done (an arrival waits for the re-plan that
/// places it).
pub fn virtual_open_loop_until(
    service_ns: &[u64],
    rate_per_s: f64,
    answered_by: impl Fn(usize) -> usize,
) -> Vec<u64> {
    let gap = 1e9 / rate_per_s;
    let mut free_at = 0.0f64;
    let done: Vec<f64> = service_ns
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            free_at = free_at.max(i as f64 * gap) + s as f64;
            free_at
        })
        .collect();
    (0..done.len())
        .map(|i| (done[answered_by(i)] - i as f64 * gap) as u64)
        .collect()
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median of nanosecond samples, in milliseconds.
pub fn median_ms(samples: &[u64]) -> f64 {
    stats::median_u64(samples) / 1e6
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples: &[u64]) -> f64 {
    stats::median_u64(samples) / 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Value of a named counter or gauge in the process-wide `bsp-obs`
/// registry (summed over label sets), read after a run.
pub fn obs_counter(name: &str) -> i64 {
    bsp_obs::global()
        .snapshot()
        .iter()
        .filter(|s| s.full_name().split('{').next() == Some(name))
        .filter_map(|s| s.scalar())
        .sum()
}

/// Times `f` over `iters` calls after `iters / 10` warm-up calls and
/// returns the median per-call nanoseconds over eleven equal batches.
pub fn micro_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let per_batch = (iters / 11).max(1);
    let batches: Vec<f64> = (0..11)
        .map(|_| {
            let t = std::time::Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42, 1);
            (0..4).map(|_| r.next()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(42, 2);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(Rng::new(7, 0).below(10) < 10);
    }

    #[test]
    fn virtual_open_loop_queues_behind_a_long_op() {
        // 1 op/µs schedule; the 5 µs op delays the two after it.
        let lat = virtual_open_loop(&[100, 5000, 100, 100, 100], 1e6);
        assert_eq!(lat, vec![100, 5000, 4100, 3200, 2300]);
        // Slack schedule: latency is service time.
        assert_eq!(virtual_open_loop(&[100, 200], 1e3), vec![100, 200]);
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }

    #[test]
    fn base_pipeline_has_no_clock_dependent_budget() {
        let cfg = base_pipeline();
        assert_eq!(cfg.hc.time_limit, Some(SLACK));
        assert_eq!(cfg.hccs.time_limit, Some(SLACK));
        assert_eq!(cfg.ilp.limits.time_limit, SLACK);
        assert!(peak_rss_mb() > 0.0);
    }
}
