//! `benchmark suite`: every workload, several untraced runs and one traced
//! run each, one process per run, summarised into one result file.
//!
//! Each run is this program started again with `--workload …`, so peak
//! memory is per run and a crash in one run cannot take the others with
//! it. The summary keeps every run's value next to the median, and
//! enough about the host and the settings that two result files can be
//! refused comparison when they were not produced the same way.

use crate::{catalog, stats, Args};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// Version of the result-file layout; `compare` refuses any other.
pub const SCHEMA: &str = "bsp-benchmark/results-v1";

/// What one run printed: the result line and the `note` lines.
struct RunOutput {
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    notes: BTreeMap<String, String>,
}

/// Starts one run and parses what it printed.
fn run_once(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "{workload}: run exited with {}\n{stderr}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = serde::json::value_from_str(line).map_err(|e| format!("{workload}: {e}"))?;
    let int = |key: &str| match doc.get(key) {
        Some(Value::U64(v)) => Ok(*v),
        other => Err(format!("{workload}: {key} = {other:?}")),
    };
    let mut metrics = BTreeMap::new();
    if let Some(Value::Object(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            let value = match m.get("value") {
                Some(Value::F64(v)) => *v,
                Some(Value::U64(v)) => *v as f64,
                other => return Err(format!("{workload}: {name} = {other:?}")),
            };
            metrics.insert(name.clone(), value);
        }
    }
    // `<workload> note <key> = <value>` lines on standard error.
    let prefix = format!("{workload:<16} note ");
    let notes = stderr
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|l| l.split_once(" = "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(RunOutput {
        attempted: int("attempted")?,
        failed: int("failed")?,
        correct: doc.get("correct") == Some(&Value::Bool(true)),
        metrics,
        notes,
    })
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Where and how the numbers were made. `settings` holds, per workload,
/// the [`SETTINGS_NOTES`] of its runs.
fn provenance(seed: u64, seconds: f64, runs: usize, quick: bool, settings: Value) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    object(vec![
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", text(&cpu)),
        ("rustc", text(&command_line("rustc", &["-V"]))),
        ("commit", text(&commit)),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("runs", Value::U64(runs as u64)),
        ("quick", Value::Bool(quick)),
        ("settings", settings),
    ])
}

/// Median, spread and the values of one metric over the runs.
fn summary(unit: &str, values: &[f64]) -> Value {
    object(vec![
        ("unit", text(unit)),
        ("median", Value::F64(stats::median(values))),
        ("spread", Value::F64(stats::range_share(values))),
        ("n", Value::U64(values.len() as u64)),
        (
            "values",
            Value::Array(values.iter().map(|&v| Value::F64(v)).collect()),
        ),
    ])
}

/// Notes that say what a run was made of: op counts, the open-loop rate,
/// the server's configuration and whether it ran pinned to one CPU. They
/// go into the provenance block, and `compare` refuses two files that
/// differ in one.
const SETTINGS_NOTES: [&str; 6] = [
    "rows_per_pass",
    "events_per_pass",
    "ops_per_pass",
    "open_rate_per_s",
    "serve_config",
    "cpu_affinity",
];

/// What a workload's table row claims about where its time goes, checked
/// on the traced run: `(workload, per-layer metric, at least, at most)`.
/// If one fails, the workload is what needs fixing, not the threshold.
const DOMINANCE: [(&str, &str, f64, f64); 5] = [
    ("offline-scale", "core.init_share", 0.8, 1.0),
    ("offline-refine", "core.init_share", 0.0, 0.1),
    ("serve-hot", "serve.hit_share", 1.0, 1.0),
    ("serve-solve", "serve.hit_share", 0.0, 0.15),
    ("online-stream", "online.replan_share", 0.8, 1.0),
];

/// What the runs of one workload and seed must agree on, traced run
/// included: the digest of the cost vector and every [`SETTINGS_NOTES`]
/// entry. A run is a time box, so `attempted` differs between runs by
/// whole passes; where a run is nothing but passes, `attempted` must be
/// exactly passes × ops per pass.
fn determinism_problems(w: &str, runs: &[&RunOutput]) -> Vec<String> {
    let mut problems = Vec::new();
    for key in ["pass_digest"].iter().chain(&SETTINGS_NOTES) {
        let seen: Vec<&String> = runs.iter().filter_map(|r| r.notes.get(*key)).collect();
        if !seen.is_empty() && seen.len() != runs.len() {
            problems.push(format!("{w}: `{key}` is missing from some runs"));
        }
        if seen.windows(2).any(|p| p[0] != p[1]) {
            problems.push(format!("{w}: `{key}` differs between runs: {seen:?}"));
        }
    }
    for r in runs {
        let count = |key: &str| r.notes.get(key).and_then(|v| v.parse::<u64>().ok());
        let per_pass = count("rows_per_pass").or(count("events_per_pass"));
        if let (Some(passes), Some(per_pass)) = (count("passes"), per_pass) {
            if r.attempted != passes * per_pass {
                problems.push(format!(
                    "{w}: attempted {} is not {passes} passes of {per_pass} ops",
                    r.attempted
                ));
            }
        }
    }
    problems
}

/// The [`DOMINANCE`] claims of workload `w` that its traced run breaks.
fn dominance_problems(w: &str, traced: &BTreeMap<String, f64>) -> Vec<String> {
    DOMINANCE
        .iter()
        .filter(|d| d.0 == w)
        .filter_map(|&(_, name, at_least, at_most)| {
            let v = traced.get(name).copied().unwrap_or(f64::NAN);
            (!(at_least..=at_most).contains(&v))
                .then(|| format!("{w}: {name} = {v} is outside [{at_least}, {at_most}]"))
        })
        .collect()
}

/// Runs the suite. `Err` on a failed op, an incorrect run or a run that
/// disagrees with another about a deterministic fact.
pub fn run(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &["quick"])?;
    a.only(&["quick", "seed", "seconds", "runs", "out"])?;
    let quick = a.flag("quick");
    let seed: u64 = a.get("seed", 42)?;
    let seconds: f64 = a.get(
        "seconds",
        if quick {
            1.0
        } else {
            catalog::RUN_SECONDS as f64
        },
    )?;
    let runs: usize = a.get("runs", if quick { 2 } else { 5 })?;
    if runs == 0 {
        return Err("--runs must be at least 1".to_string());
    }
    let out_path: PathBuf = a.get("out", crate::out_dir().join("results.json"))?;

    let mut workloads = Vec::new();
    let mut settings = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for w in catalog::WORKLOADS {
        let mut untraced = Vec::new();
        for i in 0..runs {
            eprintln!("suite: {w} run {}/{runs}", i + 1);
            untraced.push(run_once(w, seed, seconds, false, quick)?);
        }
        eprintln!("suite: {w} traced run");
        let traced = run_once(w, seed, seconds, true, quick)?;

        for r in untraced.iter().chain([&traced]) {
            if !r.correct || r.failed != 0 {
                problems.push(format!("{w}: {} of {} ops failed", r.failed, r.attempted));
            }
        }
        let all: Vec<&RunOutput> = untraced.iter().chain([&traced]).collect();
        problems.extend(determinism_problems(w, &all));
        // The claims are about the full-size op sequences: a tenfold
        // smaller ladder leaves the capped local search more than a sliver.
        if !quick {
            problems.extend(dominance_problems(w, &traced.metrics));
        }
        for name in ["vs_hdagg_ratio", "cost_ratio", "ok_share"] {
            let vals: Vec<f64> = untraced
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if vals.windows(2).any(|p| p[0].to_bits() != p[1].to_bits()) {
                problems.push(format!("{w}: {name} differs between runs: {vals:?}"));
            }
        }

        let mut e2e = Vec::new();
        for m in &catalog::END_TO_END {
            let vals: Vec<f64> = untraced
                .iter()
                .map(|r| r.metrics.get(m.name).copied().unwrap_or(f64::NAN))
                .collect();
            println!(
                "{w:<16} {:<32} {:>16.6} {:<8} spread {:.3} iqr {:.3} n={}",
                m.name,
                stats::median(&vals),
                m.unit,
                stats::range_share(&vals),
                stats::iqr_share(&vals),
                vals.len()
            );
            e2e.push((m.name, summary(m.unit, &vals)));
        }
        let mut layers = Vec::new();
        for m in &catalog::PER_LAYER {
            let v = traced.metrics.get(m.name).copied().unwrap_or(0.0);
            println!(
                "{w:<16} {:<32} {v:>16.6} {:<8} traced, {} is better",
                m.name, m.unit, m.better
            );
            layers.push((
                m.name,
                object(vec![("unit", text(m.unit)), ("value", Value::F64(v))]),
            ));
        }
        let untraced_rate = stats::median(
            &untraced
                .iter()
                .filter_map(|r| r.metrics.get("ops_per_s").copied())
                .collect::<Vec<_>>(),
        );
        let notes = untraced[0]
            .notes
            .iter()
            .map(|(k, v)| (k.as_str(), text(v)))
            .collect();
        settings.push((
            w,
            object(
                SETTINGS_NOTES
                    .iter()
                    .filter_map(|&k| Some((k, text(untraced[0].notes.get(k)?))))
                    .collect(),
            ),
        ));
        workloads.push((
            w,
            object(vec![
                (
                    "attempted",
                    Value::Array(untraced.iter().map(|r| Value::U64(r.attempted)).collect()),
                ),
                (
                    "failed",
                    Value::Array(untraced.iter().map(|r| Value::U64(r.failed)).collect()),
                ),
                ("untraced_ops_per_s", Value::F64(untraced_rate)),
                ("end_to_end", object(e2e)),
                ("per_layer", object(layers)),
                ("notes", object(notes)),
                ("trace_file", text(&format!("benchmark/out/{w}.trace.json"))),
            ]),
        ));
    }

    let doc = object(vec![
        ("schema", text(SCHEMA)),
        (
            "provenance",
            provenance(seed, seconds, runs, quick, object(settings)),
        ),
        ("workloads", object(workloads)),
        (
            "problems",
            Value::Array(problems.iter().map(|p| text(p)).collect()),
        ),
        ("claim", Value::Null),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, serde::json::to_string_pretty(&doc) + "\n")
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    eprintln!("suite: wrote {}", out_path.display());
    println!("{{\"claim\": null}}");
    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the suite found problems:\n  {}",
            problems.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(attempted: u64, notes: &[(&str, &str)]) -> RunOutput {
        RunOutput {
            attempted,
            failed: 0,
            correct: true,
            metrics: BTreeMap::new(),
            notes: notes
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn runs_must_agree_on_what_they_were_made_of() {
        let notes = [("pass_digest", "ab"), ("rows_per_pass", "70"), ("passes", "6")];
        let (a, b) = (run(420, &notes), run(490, &[notes[0], notes[1], ("passes", "7")]));
        assert_eq!(determinism_problems("w", &[&a, &b]), Vec::<String>::new());
        // A run that stopped inside a pass.
        let partial = run(431, &notes);
        assert!(determinism_problems("w", &[&a, &partial])[0].contains("attempted 431"));
        // Another cost vector, another op count, a server that ran unpinned.
        for (key, other) in [
            ("pass_digest", "cd"),
            ("rows_per_pass", "71"),
            ("cpu_affinity", "unpinned"),
        ] {
            let base = run(6, &[("cpu_affinity", "pinned to 1"), notes[0], notes[1]]);
            let mut changed = run(6, &[("cpu_affinity", "pinned to 1"), notes[0], notes[1]]);
            changed.notes.insert(key.to_string(), other.to_string());
            let found = determinism_problems("w", &[&base, &changed]);
            assert!(found.iter().any(|p| p.contains(key)), "{key}: {found:?}");
        }
    }

    #[test]
    fn a_workload_must_spend_its_time_where_its_row_says() {
        let traced = |name: &str, v: f64| BTreeMap::from([(name.to_string(), v)]);
        let ok = [
            ("offline-scale", "core.init_share", 0.85),
            ("offline-refine", "core.init_share", 0.03),
            ("serve-hot", "serve.hit_share", 1.0),
            ("serve-solve", "serve.hit_share", 0.1),
            ("online-stream", "online.replan_share", 0.97),
        ];
        for (w, name, v) in ok {
            assert_eq!(dominance_problems(w, &traced(name, v)), Vec::<String>::new());
        }
        let broken = [
            ("offline-scale", "core.init_share", 0.7),
            ("offline-refine", "core.init_share", 0.2),
            ("serve-hot", "serve.hit_share", 0.999),
            ("serve-solve", "serve.hit_share", 0.3),
            ("online-stream", "online.replan_share", 0.5),
        ];
        for (w, name, v) in broken {
            assert_eq!(dominance_problems(w, &traced(name, v)).len(), 1, "{w}");
        }
        // A traced run that did not report the metric at all.
        assert_eq!(dominance_problems("serve-hot", &BTreeMap::new()).len(), 1);
    }

    /// The committed numbers: a full-size suite of the seed commit that
    /// found no problem, claims nothing, compares with itself row for row,
    /// and in which every workload spends its time where its row says.
    #[test]
    fn the_committed_baseline_holds_the_dominance_claims() {
        let doc = serde::json::value_from_str(include_str!("../baseline/dev-box.json")).unwrap();
        assert_eq!(doc.get("schema"), Some(&Value::Str(SCHEMA.to_string())));
        assert_eq!(doc.get("problems"), Some(&Value::Array(Vec::new())));
        assert_eq!(doc.get("claim"), Some(&Value::Null));
        let provenance = doc.get("provenance").unwrap();
        assert_eq!(provenance.get("quick"), Some(&Value::Bool(false)));
        assert_eq!(provenance.get("runs"), Some(&Value::U64(5)));
        let rows = crate::compare::rows(&doc, &doc).unwrap();
        assert_eq!(rows.len(), catalog::WORKLOADS.len() * catalog::END_TO_END.len());
        for w in catalog::WORKLOADS {
            let per_layer = doc.get("workloads").unwrap().get(w).unwrap().get("per_layer");
            let traced: BTreeMap<String, f64> = catalog::PER_LAYER
                .iter()
                .filter_map(|m| match per_layer?.get(m.name)?.get("value")? {
                    Value::F64(v) => Some((m.name.to_string(), *v)),
                    Value::U64(v) => Some((m.name.to_string(), *v as f64)),
                    _ => None,
                })
                .collect();
            assert_eq!(traced.len(), catalog::PER_LAYER.len(), "{w}");
            assert_eq!(dominance_problems(w, &traced), Vec::<String>::new());
        }
    }
}
