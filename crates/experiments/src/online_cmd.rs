//! The `online` command: replay streaming-arrival traces through the
//! `bsp-online` incremental runtime and compare the final committed
//! schedule against an offline cold solve of the same instance.
//!
//! Each default instance family is turned into an
//! [`ArrivalTrace`](bsp_instance::trace::ArrivalTrace) under
//! every arrival-order generator (`topo`, `layered`, `shuffle`; filter
//! with `--order <name>`), replayed with the default per-arrival work
//! budget (override with `--budget-ms`), and reported as one
//! [`OnlineRun`] row: final online cost, cold-solve cost, their ratio
//! (×1000, integer), the replay's hill-climbing node visits per re-plan
//! (only awake nodes are visited), how many of those visits sweep pruning
//! skipped (`bsp_ls_pruned_total` / `bsp_ls_visits_total` over the
//! replay), and how many candidates of the remaining visits the
//! move floor skipped (`bsp_ls_bound_skips_total` / that plus
//! `bsp_ls_hc_probes_total`), with the share the work-only rise test
//! would have probed in parentheses (`bsp_ls_floor_skips_total` / the
//! same candidates). With `--check` the command
//! fails if any ratio exceeds the acceptance threshold, or if no row was
//! replayed at all — the regression gate the CI `online-smoke` job runs.
//! Re-planning time is measured by the repo benchmark's `online-stream`
//! workload (`benchmark/README.md`), not here.

use crate::runner::{pipeline_config, resolve_instance_groups, EvalOptions, RunConfig};
use bsp_instance::trace::{arrival_trace, ArrivalOrder, TraceConfig};
use bsp_online::{replay, OnlineConfig};
use bsp_schedule::solve::{SolveCx, SolveRequest};
use std::time::Duration;

/// Largest accepted `online_cost / cold_cost` ratio, ×1000: the replayed
/// final schedule must stay within 15% of the offline cold solve.
pub const ACCEPT_RATIO_X1000: u64 = 1150;

/// One replayed (instance, arrival-order) measurement.
#[derive(Debug, Clone)]
pub struct OnlineRun {
    /// Resolved instance name (re-generatable spec).
    pub instance: String,
    /// Arrival-order generator (`topo`, `layered`, `shuffle`).
    pub order: String,
    /// Instance node count.
    pub n: usize,
    /// Late-edge `Reveal` events replayed.
    pub reveals: u64,
    /// Suffix re-plans the batching triggered.
    pub replans: u64,
    /// Final committed schedule cost after `Finalize`.
    pub online_cost: u64,
    /// Offline cold-solve cost of the full instance (same pipeline, ILP
    /// off) — the baseline the ratio compares against.
    pub cold_cost: u64,
    /// `online_cost * 1000 / cold_cost`, rounded down (1000 = parity;
    /// the `--check` gate enforces [`ACCEPT_RATIO_X1000`]).
    pub cost_ratio_x1000: u64,
    /// Hill-climbing visits of awake nodes over the replay
    /// (`bsp_ls_visits_total`).
    pub hc_visits: u64,
    /// Visits `ScheduleState::may_improve` skipped without a probe
    /// (`bsp_ls_pruned_total`).
    pub hc_pruned: u64,
    /// Probes the hill climbs ran (`bsp_ls_hc_probes_total`).
    pub hc_probes: u64,
    /// Candidates the move floor skipped without a probe
    /// (`bsp_ls_bound_skips_total`).
    pub hc_bound_skips: u64,
    /// Of those, the ones the work-only rise test would have probed
    /// (`bsp_ls_floor_skips_total`).
    pub hc_floor_skips: u64,
}

/// Default instance specs: one per catalogue corner that the online
/// runtime supports (memory-bounded machines are rejected at open, so
/// no `mem=` row is replayed here).
///
/// The butterfly family is deliberately absent: its cold solve exploits
/// the global block-recursive structure, which no arrival-incremental
/// placement can discover (measured ~1.4–1.9x across orders, budget
/// insensitive) — replay it explicitly with `--instances` to see the
/// online-vs-offline gap on globally-structured DAGs.
fn default_instance_specs(quick: bool) -> Vec<String> {
    let mut v = vec!["spmv?n=120&q=0.25 @ bsp?p=4&g=2".to_string()];
    if !quick {
        v.extend([
            "erdos?n=80&q=0.08 @ bsp?p=8&numa=ring".to_string(),
            "stencil?width=20&steps=10 @ bsp?p=8&numa=sockets&sockets=2&delta=4".to_string(),
            "forkjoin?chains=4&depth=3&stages=3 @ bsp?p=8".to_string(),
        ]);
    }
    v
}

/// The arrival orders a run sweeps: all three generators, or the one
/// `--order` names.
fn selected_orders(cfg: &RunConfig) -> Vec<ArrivalOrder> {
    match &cfg.order {
        None => ArrivalOrder::ALL.to_vec(),
        Some(name) => vec![ArrivalOrder::parse(name)
            .unwrap_or_else(|| panic!("--order {name:?}: expected topo, layered or shuffle"))],
    }
}

/// Replays every (instance, order) pair and returns one [`OnlineRun`]
/// per pair.
fn online_runs(cfg: &RunConfig) -> Vec<OnlineRun> {
    let inst_specs = if cfg.instances.is_empty() {
        default_instance_specs(cfg.quick)
    } else {
        cfg.instances.clone()
    };
    let orders = selected_orders(cfg);

    let mut ocfg = OnlineConfig::default();
    if let Some(ms) = cfg.budget_ms {
        ocfg.budget_per_arrival = Duration::from_millis(ms);
    }

    let counter = |name: &str| bsp_obs::global().counter(name, &[]);
    let visits = counter("bsp_ls_visits_total");
    let pruned = counter("bsp_ls_pruned_total");
    let probes = counter("bsp_ls_hc_probes_total");
    let skips = counter("bsp_ls_bound_skips_total");
    let floor_skips = counter("bsp_ls_floor_skips_total");
    let mut out = Vec::new();
    for (spec, insts) in resolve_instance_groups(&inst_specs) {
        for inst in insts {
            if inst.machine.memory().is_some() {
                eprintln!("[online] skipping {spec:?}: memory-bounded machines unsupported");
                continue;
            }
            // Offline baseline: the same base pipeline the cold service
            // path runs (ILP off), solved once with the whole DAG known.
            let pc = pipeline_config(inst.dag.n(), &EvalOptions::default());
            let req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(cfg.budget());
            let mut cx = SolveCx::new("online-cold", &req);
            let cold =
                bsp_core::pipeline::solve_base_pipeline(&inst.dag, &inst.machine, &pc, &mut cx);

            for order in &orders {
                let tcfg = TraceConfig {
                    order: *order,
                    reveal_frac: 0.2,
                    reveal_delay: 4,
                    seed: 7,
                };
                let trace = arrival_trace(&inst.dag, &inst.name, &tcfg);
                let before = [&visits, &pruned, &probes, &skips, &floor_skips].map(|c| c.get());
                let outcome = replay(&trace, &inst.machine, &ocfg)
                    .unwrap_or_else(|e| panic!("online replay of {}: {e}", inst.name));
                out.push(OnlineRun {
                    instance: inst.name.clone(),
                    order: order.name().to_string(),
                    n: inst.dag.n(),
                    reveals: outcome.stats.reveals,
                    replans: outcome.stats.replans,
                    online_cost: outcome.cost,
                    cold_cost: cold.cost,
                    cost_ratio_x1000: outcome.cost * 1000 / cold.cost.max(1),
                    hc_visits: visits.get() - before[0],
                    hc_pruned: pruned.get() - before[1],
                    hc_probes: probes.get() - before[2],
                    hc_bound_skips: skips.get() - before[3],
                    hc_floor_skips: floor_skips.get() - before[4],
                });
            }
        }
    }
    out
}

/// The `--check` gate: the worst `online / cold` ratio (×1000) over the
/// replayed rows, which must stay within [`ACCEPT_RATIO_X1000`]. A gate
/// over no rows has checked nothing, so it fails too.
fn check_ratios(runs: &[OnlineRun]) -> u64 {
    let worst = runs
        .iter()
        .map(|r| r.cost_ratio_x1000)
        .max()
        .expect("--check: no rows were replayed (every instance skipped), nothing to gate");
    assert!(
        worst <= ACCEPT_RATIO_X1000,
        "online replay cost ratio {}.{:03}x exceeds the {}.{:03}x acceptance bound",
        worst / 1000,
        worst % 1000,
        ACCEPT_RATIO_X1000 / 1000,
        ACCEPT_RATIO_X1000 % 1000,
    );
    worst
}

/// The `online` command: print the replay table; with `--check`, fail
/// when any cost ratio exceeds the acceptance threshold.
pub fn online(cfg: &RunConfig) {
    eprintln!("[online] replaying arrival traces against the incremental prefix scheduler");
    let runs = online_runs(cfg);
    print_online_runs(&runs);
    if cfg.check {
        let worst = check_ratios(&runs);
        println!(
            "\ncheck passed: worst online/cold ratio {}.{:03}x (bound {}.{:03}x)",
            worst / 1000,
            worst % 1000,
            ACCEPT_RATIO_X1000 / 1000,
            ACCEPT_RATIO_X1000 % 1000,
        );
    }
}

fn print_online_runs(runs: &[OnlineRun]) {
    println!(
        "\n{:<44} {:<8} {:>6} {:>8} {:>8} {:>9} {:>9} {:>7} {:>14} {:>20} {:>29}",
        "instance",
        "order",
        "n",
        "reveals",
        "replans",
        "online",
        "cold",
        "ratio",
        "visits/replan",
        "pruned/visits",
        "skipped/candidates (floor)"
    );
    for r in runs {
        let candidates = r.hc_probes + r.hc_bound_skips;
        println!(
            "{:<44} {:<8} {:>6} {:>8} {:>8} {:>9} {:>9} {:>4}.{:03} {:>14} {:>20} {:>29}",
            truncated(&r.instance, 44),
            r.order,
            r.n,
            r.reveals,
            r.replans,
            r.online_cost,
            r.cold_cost,
            r.cost_ratio_x1000 / 1000,
            r.cost_ratio_x1000 % 1000,
            r.hc_visits / r.replans.max(1),
            format!(
                "{}/{} {:>3}%",
                r.hc_pruned,
                r.hc_visits,
                r.hc_pruned * 100 / r.hc_visits.max(1)
            ),
            format!(
                "{}/{} {:>3}% ({:>2}%)",
                r.hc_bound_skips,
                candidates,
                r.hc_bound_skips * 100 / candidates.max(1),
                r.hc_floor_skips * 100 / candidates.max(1)
            ),
        );
    }
}

fn truncated(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let head: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no rows were replayed")]
    fn check_over_no_rows_fails() {
        check_ratios(&[]);
    }

    #[test]
    fn order_filter_parses_all_registry_names() {
        for o in ArrivalOrder::ALL {
            let mut cfg = RunConfig::default();
            cfg.order = Some(o.name().to_string());
            assert_eq!(selected_orders(&cfg), vec![o]);
        }
        assert_eq!(selected_orders(&RunConfig::default()).len(), 3);
    }

    #[test]
    #[should_panic(expected = "--order")]
    fn unknown_order_aborts_with_context() {
        let mut cfg = RunConfig::default();
        cfg.order = Some("random".to_string());
        selected_orders(&cfg);
    }
}
