//! The repo benchmark: five workloads driven from outside, through public
//! functions only, with an independent oracle checking every answer.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! benchmark suite [--quick] [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]
//! benchmark compare <A.json> <B.json>
//! benchmark noise [--seconds <s> | --replay <file>]
//! ```
//!
//! The first form is one run: its last line on standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1` (which also writes `benchmark/out/<workload>.trace.json`).
//! See `benchmark/README.md` for what each name means.

mod catalog;
mod common;
mod compare;
mod layers;
mod noise;
mod offline;
mod online;
mod oracle;
mod serve;
mod stats;
mod suite;
mod trace;

use common::RunResult;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// One of [`catalog::WORKLOADS`].
    pub workload: String,
    /// Seeds the harness's generator; the program under test sees only the
    /// spec strings, edits and events made from it.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrink every op sequence about tenfold (smoke runs).
    pub quick: bool,
}

/// Where traces, result files and scratch files go: `benchmark/out/` of
/// the checkout this binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]\n       \
         benchmark suite [--quick] [--seed <n>] [--seconds <s>] [--runs <k>] [--out <file>]\n       \
         benchmark compare <A.json> <B.json>\n       \
         benchmark noise [--seconds <s> | --replay <file>]",
        catalog::WORKLOADS.join("|")
    )
}

/// `--key value` pairs and bare `--flags` of a command line.
pub struct Args {
    pairs: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `args` into options; `flags` names the options that take no
    /// value.
    pub fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if flags.contains(&key) {
                pairs.push((key.to_string(), None));
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_string(), Some(v.clone())));
            }
        }
        Ok(Args { pairs })
    }

    /// Whether the bare flag `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, v)| k == key && v.is_none())
    }

    /// The value of `--key`, parsed, or `default` when absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, Some(v))) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
            Some((_, None)) => Err(format!("--{key} takes no value")),
        }
    }

    /// Rejects options outside `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn parse_run(args: &[String]) -> Result<Opts, String> {
    let a = Args::parse(args, &["quick"])?;
    a.only(&["workload", "seed", "seconds", "trace", "quick"])?;
    let workload: String = a.get("workload", String::new())?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload: unknown workload {workload:?}"));
    }
    let seconds: f64 = a.get("seconds", catalog::RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace: u8 = a.get("trace", 0)?;
    if trace > 1 {
        return Err("--trace is 0 or 1".to_string());
    }
    Ok(Opts {
        workload,
        seed: a.get("seed", 42)?,
        seconds,
        trace: trace == 1,
        quick: a.flag("quick"),
    })
}

/// Top-level spans written to a trace file (see `Tracer::export_chrome`).
const MAX_TRACED_OPS: usize = 20_000;

/// Runs one workload and, for a traced run, writes its trace file.
fn run_workload(opts: &Opts) -> Result<RunResult, String> {
    let mut tracer = trace::Tracer::new(Instant::now(), 1, false);
    let res = match opts.workload.as_str() {
        "offline-scale" => offline::run(offline::Kind::Scale, opts, &mut tracer),
        "offline-refine" => offline::run(offline::Kind::Refine, opts, &mut tracer),
        "serve-hot" => serve::run(serve::Kind::Hot, opts, &mut tracer),
        "serve-solve" => serve::run(serve::Kind::Solve, opts, &mut tracer),
        "online-stream" => online::run(opts, &mut tracer),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if opts.trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", opts.workload));
        std::fs::write(&path, tracer.export_chrome(MAX_TRACED_OPS))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("trace: {} spans -> {}", tracer.spans.len(), path.display());
    }
    Ok(res)
}

/// The result line of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every metric of the run's kind.
fn result_line(opts: &Opts, res: &RunResult) -> Result<String, String> {
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    };
    if opts.trace {
        for m in &catalog::PER_LAYER {
            // A layer this workload does not exercise reads 0.
            put(
                m.name,
                m.unit,
                res.per_layer.get(m.name).copied().unwrap_or(0.0),
            );
        }
    } else {
        for m in &catalog::END_TO_END {
            let v = res
                .end_to_end
                .get(m.name)
                .copied()
                .ok_or_else(|| format!("{} did not report {}", opts.workload, m.name))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!(
                    "{}: {} = {v} is not a positive number",
                    opts.workload, m.name
                ));
            }
            put(m.name, m.unit, v);
        }
    }
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(res.failed == 0)),
        ("attempted".to_string(), Value::U64(res.attempted)),
        ("failed".to_string(), Value::U64(res.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    Ok(serde::json::to_string(&line))
}

/// The server workloads run with the whole process on one CPU. The
/// client, the connection thread and the worker hand each request to one
/// another; across two virtual CPUs every hand-over is an inter-processor
/// interrupt into a possibly halted CPU, which on the development VM makes
/// a cached request read anything from 22 µs to 114 µs depending on where
/// the threads happen to sit. On one CPU every hand-over is a local
/// context switch and the same request reads 22 µs ± 2 %. Re-runs this
/// program under `taskset` and returns its exit code, or `None` when
/// already pinned or when `taskset` is not there (the run then goes on
/// unpinned; its `cpu_affinity` note says which it was, and neither the
/// suite nor `compare` mixes the two).
fn rerun_pinned(args: &[String]) -> Option<ExitCode> {
    const MARK: &str = "BENCHMARK_PINNED";
    if std::env::var_os(MARK).is_some() {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    // The last allowed CPU: the first one takes most interrupts.
    let cpu = allowed.rsplit([',', '-']).next()?.to_string();
    let exe = std::env::current_exe().ok()?;
    match std::process::Command::new("taskset")
        .arg("-c")
        .arg(&cpu)
        .arg(exe)
        .args(args)
        .env(MARK, &cpu)
        .status()
    {
        Ok(status) => Some(ExitCode::from(
            status.code().unwrap_or(1).clamp(0, 255) as u8
        )),
        Err(e) => {
            eprintln!("benchmark: taskset: {e}; running unpinned, expect noisier timings");
            None
        }
    }
}

fn run_once(args: &[String]) -> Result<(), String> {
    let opts = parse_run(args)?;
    let res = run_workload(&opts)?;
    for f in &res.failures {
        eprintln!("FAILED: {f}");
    }
    let shown = if opts.trace {
        &res.per_layer
    } else {
        &res.end_to_end
    };
    for (name, value) in shown {
        eprintln!(
            "{:<16} {name:<32} {value:>16.6} {}",
            opts.workload,
            catalog::unit_of(name)
        );
    }
    for (k, v) in &res.notes {
        eprintln!("{:<16} note {k} = {v}", opts.workload);
    }
    if res.pass_digest != 0 {
        eprintln!(
            "{:<16} note pass_digest = {:016x}",
            opts.workload, res.pass_digest
        );
    }
    if res.attempted == 0 {
        return Err("no op was attempted".to_string());
    }
    println!("{}", result_line(&opts, &res)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite::run(&args[1..]),
        Some("compare") => match compare::run(&args[1..]) {
            Ok(true) => Ok(()),
            Ok(false) => return ExitCode::from(1),
            Err(e) => Err(e),
        },
        Some("noise") => noise::run(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
        Some(_) => {
            let serve = args
                .windows(2)
                .any(|w| w[0] == "--workload" && w[1].starts_with("serve-"));
            if let Some(code) = serve.then(|| rerun_pinned(&args)).flatten() {
                return code;
            }
            run_once(&args)
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e} (--help prints the usage)");
            ExitCode::from(2)
        }
    }
}
