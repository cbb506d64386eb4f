//! The names, units and directions of every metric and workload — the
//! Rust side of `BENCHMARK.json` (a test keeps the two identical).

/// Workload names, in run order.
pub const WORKLOADS: [&str; 5] = [
    "offline-scale",
    "offline-refine",
    "serve-hot",
    "serve-solve",
    "online-stream",
];

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The 14 end-to-end metrics. Every workload reports every one (see the
/// README for what each means on each workload).
pub const END_TO_END: [EndToEnd; 14] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.15),
    e2e("op_p50_ms", "ms", "lower", 0.20),
    e2e("op_p95_ms", "ms", "lower", 0.25),
    e2e("big_solve_ms", "ms", "lower", 0.25),
    e2e("vs_hdagg_ratio", "ratio", "lower", 0.01),
    e2e("cost_ratio", "ratio", "lower", 0.01),
    e2e("open_p50_ms", "ms", "lower", 0.25),
    e2e("open_p95_ms", "ms", "lower", 0.25),
    e2e("cold_p50_ms", "ms", "lower", 0.20),
    e2e("warm_p50_ms", "ms", "lower", 0.20),
    e2e("replay_vs_cold_x", "ratio", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
    e2e("ok_share", "share", "higher", 0.000001),
];

/// A per-layer metric, measured in the traced run. A workload that does
/// not exercise the layer reports 0 for it; direct micro-timings run in
/// the traced run of their home workload only (see the README).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics (cap 128), grouped by crate.
pub const PER_LAYER: [PerLayer; 102] = [
    // dagdb / instance — home: offline-scale (generate, parse),
    // serve-solve (apply_edits), online-stream (arrival_trace).
    pl("instance.generate_ms.n1e3", "ms", "lower"),
    pl("instance.generate_ms.n1e4", "ms", "lower"),
    pl("instance.generate_ms.n3e4", "ms", "lower"),
    pl("instance.spec_parse_us", "us", "lower"),
    pl("instance.apply_edits_us.n200", "us", "lower"),
    pl("instance.apply_edits_us.n4k", "us", "lower"),
    pl("instance.arrival_trace_ms", "ms", "lower"),
    // dag — home: offline-scale.
    pl("dag.build_ms", "ms", "lower"),
    pl("dag.topo_ms", "ms", "lower"),
    pl("dag.coarsen_ms", "ms", "lower"),
    // schedule — home: offline-scale; memory_cost: offline-refine.
    pl("schedule.cost_ms", "ms", "lower"),
    pl("schedule.lazy_cost_ms", "ms", "lower"),
    pl("schedule.validate_ms", "ms", "lower"),
    pl("schedule.memory_cost_ms", "ms", "lower"),
    pl("schedule.sched_spec_parse_us", "us", "lower"),
    pl("schedule.trivial_ms", "ms", "lower"),
    // baselines — offline-scale, from its own op spans.
    pl("baselines.cilk_ms.n1e3", "ms", "lower"),
    pl("baselines.cilk_ms.n1e4", "ms", "lower"),
    pl("baselines.cilk.exp", "exponent", "lower"),
    pl("baselines.hdagg_ms.n1e3", "ms", "lower"),
    pl("baselines.hdagg_ms.n1e4", "ms", "lower"),
    pl("baselines.hdagg.exp", "exponent", "lower"),
    pl("baselines.blest_ms.n1e3", "ms", "lower"),
    pl("baselines.blest_ms.n1e4", "ms", "lower"),
    pl("baselines.blest.exp", "exponent", "lower"),
    pl("baselines.etf_ms.n1e3", "ms", "lower"),
    pl("baselines.etf_ms.n1e4", "ms", "lower"),
    pl("baselines.etf.exp", "exponent", "lower"),
    // core — stage shares of the workload's own pipeline solves (both
    // offline workloads and serve-solve), stand-alone initialisers,
    // local-search and quality counters.
    pl("core.init_share", "share", "lower"),
    pl("core.hc_share", "share", "lower"),
    pl("core.ilp_share", "share", "lower"),
    pl("core.multilevel_share", "share", "lower"),
    pl("core.polish_share", "share", "lower"),
    pl("core.mem-repair_share", "share", "lower"),
    pl("core.init_bspg_ms.n1e3", "ms", "lower"),
    pl("core.init_bspg_ms.n3e3", "ms", "lower"),
    pl("core.init_bspg_ms.n1e4", "ms", "lower"),
    pl("core.init_bspg.exp", "exponent", "lower"),
    pl("core.init_source_ms.n1e4", "ms", "lower"),
    pl("core.pipeline.exp", "exponent", "lower"),
    pl("core.hc_moves", "count", "higher"),
    pl("core.hc_moves_per_ms", "1/ms", "higher"),
    pl("core.stage_gain_per_ms.hc", "cost/ms", "higher"),
    pl("core.stage_gain_per_ms.polish", "cost/ms", "higher"),
    pl("core.stage_gain_per_ms.ilp", "cost/ms", "higher"),
    pl("core.warm_ms", "ms", "lower"),
    pl("core.worse_than_trivial", "count", "lower"),
    // ilp — home: offline-refine.
    pl("ilp.solve_ms", "ms", "lower"),
    pl("ilp.nodes", "count", "higher"),
    pl("ilp.nodes_per_ms", "1/ms", "higher"),
    // par — home: offline-refine.
    pl("par.hc_t1_ms", "ms", "lower"),
    pl("par.hc_t2_ms", "ms", "lower"),
    pl("par.speedup_x", "ratio", "higher"),
    pl("par.chunks", "count", "lower"),
    pl("par.worker_busy_us", "us", "lower"),
    pl("par.host_threads", "count", "higher"),
    // serve — client spans and server counters on both server workloads;
    // micro-timings home: serve-hot.
    pl("serve.client_write_us", "us", "lower"),
    pl("serve.client_wait_us", "us", "lower"),
    pl("serve.client_parse_us", "us", "lower"),
    pl("serve.server_elapsed_us", "us", "lower"),
    pl("serve.transport_us", "us", "lower"),
    pl("serve.protocol_parse_us", "us", "lower"),
    pl("serve.protocol_to_line_us", "us", "lower"),
    pl("serve.store_get_us", "us", "lower"),
    pl("serve.store_insert_us", "us", "lower"),
    pl("serve.store_save_ms", "ms", "lower"),
    pl("serve.store_load_ms", "ms", "lower"),
    pl("serve.queue_push_pop_ns", "ns", "lower"),
    pl("serve.hits", "count", "higher"),
    pl("serve.misses", "count", "lower"),
    pl("serve.hit_share", "share", "higher"),
    pl("serve.jobs_done", "count", "higher"),
    pl("serve.evictions", "count", "lower"),
    pl("serve.cached_instances", "count", "lower"),
    pl("serve.queue_full", "count", "lower"),
    pl("serve.queue_wait_us", "us", "lower"),
    pl("loadgen.late_p95_us", "us", "lower"),
    pl("serve.rate_1.p95_ms", "ms", "lower"),
    pl("serve.rate_2.p95_ms", "ms", "lower"),
    pl("serve.rate_3.p95_ms", "ms", "lower"),
    pl("serve.rate_4.p95_ms", "ms", "lower"),
    pl("serve.slo_rate_per_s", "1/s", "higher"),
    pl("serve.stream_push_us", "us", "lower"),
    // online — online-stream.
    pl("online.push_p50_us", "us", "lower"),
    pl("online.push_p95_us", "us", "lower"),
    pl("online.replan_ms", "ms", "lower"),
    pl("online.replans", "count", "lower"),
    pl("online.replan_us_per_arrival", "us", "lower"),
    pl("online.replan_share", "share", "lower"),
    pl("online.hc_moves", "count", "higher"),
    pl("online.finalize_ms", "ms", "lower"),
    pl("online.cold_ms", "ms", "lower"),
    pl("online.frontier_lag", "steps", "lower"),
    // obs / faults / registry — home: serve-hot.
    pl("obs.span_ns", "ns", "lower"),
    pl("obs.counter_inc_ns", "ns", "lower"),
    pl("obs.hist_observe_ns", "ns", "lower"),
    pl("faults.disabled_hook_ns", "ns", "lower"),
    pl("registry.get_us", "us", "lower"),
    // harness — every workload.
    pl("bench.trace_overhead_share", "share", "lower"),
    pl("bench.span_coverage_share", "share", "higher"),
    pl("bench.host_slowdown_x", "ratio", "lower"),
    pl("bench.kernel_us", "us", "lower"),
];

/// The unit of a metric, by name (empty for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn manifest_dir() -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(unit, 16, "_/%.-"), "{unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repo root lists exactly this catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).unwrap();
        let doc = serde::json::value_from_str(&text).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        };
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), m.better);
            let bound = match j.get("bound") {
                Some(Value::F64(b)) => *b,
                Some(Value::U64(b)) => *b as f64,
                other => panic!("bound: {other:?}"),
            };
            assert_eq!(bound, m.bound, "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(text_of(j, "name"), m.name);
            assert_eq!(text_of(j, "unit"), m.unit);
            assert_eq!(text_of(j, "better"), m.better);
        }
        assert_eq!(list("paths"), vec![Value::Str("benchmark".to_string())]);
    }

    /// The README documents every metric and workload by name.
    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = std::fs::read_to_string(manifest_dir().join("README.md")).unwrap();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS)
        {
            assert!(readme.contains(name), "README.md does not mention {name}");
        }
    }
}
