//! `benchmark compare A.json B.json`: the agreement gate between two
//! result files of `benchmark suite`.
//!
//! For every (workload, end-to-end metric) it prints both medians, both
//! spreads and a verdict under the metric's bound from the catalogue:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — it is not, or it is, but a spread is wider than the
//!   bound and the two sets of runs interleave, so the medians settle
//!   nothing (unless every run of B reads better than every run of A);
//! * `ok` — otherwise.
//!
//! Files made with different settings or on different hosts are refused.

use crate::catalog::{self, EndToEnd};
use crate::stats;
use crate::suite::SCHEMA;
use serde::Value;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's under `m`'s direction and bound.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let higher = m.better == "higher";
    // How much worse B's median is than A's, as a share of A's.
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if higher { ma - mb } else { mb - ma } / ma.abs().max(f64::MIN_POSITIVE);
    let better = |x: f64, y: f64| if higher { x > y } else { x < y };
    let b_all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let a_all_better = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
    let wide = stats::range_share(a) > m.bound || stats::range_share(b) > m.bound;
    if b_all_better {
        Verdict::Ok
    } else if wide && !a_all_better {
        // The runs interleave under a spread wider than the bound.
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde::json::value_from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema") {
        Some(Value::Str(s)) if s == SCHEMA => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

/// The provenance fields two files must share to be comparable: the host,
/// the toolchain (the timings scale with the code `rustc` emits), how the
/// suite was run, and per workload what a run was made of — op counts,
/// open-loop rates, the server's configuration and whether it ran pinned
/// to one CPU (`settings`). The commit is what a comparison is about.
const MUST_MATCH: [&str; 8] = [
    "nproc", "cpu", "rustc", "seed", "seconds", "runs", "quick", "settings",
];

/// Why two result files cannot be compared, if they cannot.
pub fn refusal(a: &Value, b: &Value) -> Option<String> {
    let field = |doc: &Value, key: &str| doc.get("provenance").and_then(|p| p.get(key)).cloned();
    let differing: Vec<String> = MUST_MATCH
        .iter()
        .filter(|&&k| field(a, k) != field(b, k))
        .map(|&k| match (field(a, k), field(b, k)) {
            (Some(x), Some(y)) => format!(
                "{k}: {} vs {}",
                serde::json::to_string(&x),
                serde::json::to_string(&y)
            ),
            (x, y) => format!("{k}: {x:?} vs {y:?}"),
        })
        .collect();
    (!differing.is_empty()).then(|| format!("not produced the same way — {}", differing.join("; ")))
}

fn values(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    match m.get("values")? {
        Value::Array(items) => items
            .iter()
            .map(|v| match v {
                Value::F64(x) => Some(*x),
                Value::U64(x) => Some(*x as f64),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// One (workload, metric) row of A against B.
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static EndToEnd,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub verdict: Verdict,
}

/// Every row of A against B.
pub fn rows(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for workload in catalog::WORKLOADS {
        for metric in &catalog::END_TO_END {
            let name = metric.name;
            let va =
                values(a, workload, name).ok_or_else(|| format!("A has no {workload} {name}"))?;
            let vb =
                values(b, workload, name).ok_or_else(|| format!("B has no {workload} {name}"))?;
            out.push(Row {
                workload,
                metric,
                verdict: judge(metric, &va, &vb),
                a: va,
                b: vb,
            });
        }
    }
    Ok(out)
}

/// Compares two result files; `Ok(true)` when no row is `worse`.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [pa, pb] = args else {
        return Err("compare takes two result files".to_string());
    };
    let (a, b) = (load(pa)?, load(pb)?);
    if let Some(why) = refusal(&a, &b) {
        return Err(format!("refusing to compare: {why}"));
    }
    let rows = rows(&a, &b)?;
    println!(
        "{:<16} {:<18} {:>14} {:>8} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "spread", "B median", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<18} {:>14.6} {:>8.3} {:>14.6} {:>8.3} {:>7.3}  {}",
            r.workload,
            r.metric.name,
            stats::median(&r.a),
            stats::range_share(&r.a),
            stats::median(&r.b),
            stats::range_share(&r.b),
            r.metric.bound,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} unresolved, {} worse",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Worse)
    );
    Ok(count(Verdict::Worse) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        catalog::END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn identical_runs_are_ok() {
        let v = [10.0, 10.1, 9.9, 10.05, 10.0];
        assert_eq!(judge(metric("op_p50_ms"), &v, &v), Verdict::Ok);
        assert_eq!(judge(metric("ops_per_s"), &v, &v), Verdict::Ok);
    }

    #[test]
    fn a_twenty_per_cent_slowdown_is_worse() {
        let a = [10.0, 10.1, 9.9, 10.05, 10.0];
        // Throughput is better when higher: a fifth fewer ops per second.
        let slower = a.map(|x| x * 0.8);
        assert_eq!(judge(metric("ops_per_s"), &a, &slower), Verdict::Worse);
        // And a speed-up is ok, however large.
        assert_eq!(judge(metric("ops_per_s"), &slower, &a), Verdict::Ok);
        // The latencies carry wider bounds: 20 % is inside them, 30 % is
        // outside every one.
        for name in ["op_p50_ms", "big_solve_ms", "open_p95_ms"] {
            let m = metric(name);
            assert_eq!(judge(m, &a, &a.map(|x| x * 1.2)), Verdict::Ok, "{name}");
            assert_eq!(judge(m, &a, &a.map(|x| x * 1.3)), Verdict::Worse);
        }
    }

    #[test]
    fn a_small_drift_inside_a_wide_spread_is_unresolved() {
        // Spread (max − min) / median wider than the bound, runs
        // interleaving, medians 3 % apart.
        let m = metric("op_p50_ms");
        let wide = m.bound * 1.2;
        let a = [1.0 - wide / 2.0, 0.98, 1.0, 1.02, 1.0 + wide / 2.0].map(|x| x * 10.0);
        let b = a.map(|x| x * 1.03);
        assert!(stats::range_share(&a) > m.bound);
        assert_eq!(judge(m, &a, &b), Verdict::Unresolved);
        // The same drift with tight runs is within the bound: ok.
        let tight = [9.99, 10.0, 10.01];
        assert_eq!(judge(m, &tight, &tight.map(|x| x * 1.03)), Verdict::Ok);
    }

    #[test]
    fn cost_ratio_and_ok_share_have_tight_bounds() {
        let a = [0.70; 5];
        assert_eq!(judge(metric("cost_ratio"), &a, &[0.72; 5]), Verdict::Worse);
        assert_eq!(
            judge(metric("vs_hdagg_ratio"), &a, &[0.705; 5]),
            Verdict::Ok
        );
        assert_eq!(
            judge(metric("ok_share"), &[1.0; 5], &[0.999; 5]),
            Verdict::Worse
        );
        assert_eq!(judge(metric("ok_share"), &[1.0; 5], &[1.0; 5]), Verdict::Ok);
    }

    #[test]
    fn files_made_differently_are_refused() {
        // One provenance field at a time differs from the base file.
        let file = |change: &str, to: &str| {
            let mut fields = vec![
                ("nproc", "2"),
                ("cpu", "\"a\""),
                ("rustc", "\"rustc 1.80.0\""),
                ("commit", "\"x\""),
                ("seed", "42"),
                ("seconds", "15.0"),
                ("runs", "5"),
                ("quick", "false"),
                (
                    "settings",
                    "{\"serve-hot\":{\"cpu_affinity\":\"pinned\",\"open_rate_per_s\":\"5000\",\
                     \"serve_config\":\"threads=1\"}}",
                ),
            ];
            if let Some(f) = fields.iter_mut().find(|f| f.0 == change) {
                f.1 = to;
            }
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            serde::json::value_from_str(&format!(
                "{{\"schema\":\"{SCHEMA}\",\"provenance\":{{{}}}}}",
                body.join(",")
            ))
            .unwrap()
        };
        let base = file("", "");
        assert_eq!(refusal(&base, &file("", "")), None);
        // Another commit is what a comparison is for.
        assert_eq!(refusal(&base, &file("commit", "\"y\"")), None);
        for (key, other) in [
            ("seed", "43"),
            ("cpu", "\"b\""),
            ("rustc", "\"rustc 1.81.0\""),
            ("seconds", "5.0"),
            (
                "settings",
                "{\"serve-hot\":{\"cpu_affinity\":\"unpinned\",\"open_rate_per_s\":\"5000\",\
                 \"serve_config\":\"threads=1\"}}",
            ),
            (
                "settings",
                "{\"serve-hot\":{\"cpu_affinity\":\"pinned\",\"open_rate_per_s\":\"4000\",\
                 \"serve_config\":\"threads=1\"}}",
            ),
            (
                "settings",
                "{\"serve-hot\":{\"cpu_affinity\":\"pinned\",\"open_rate_per_s\":\"5000\",\
                 \"serve_config\":\"threads=2\"}}",
            ),
        ] {
            let why = refusal(&base, &file(key, other)).unwrap_or_default();
            assert!(why.contains(key), "{key} -> {other}: {why:?}");
        }
    }
}
