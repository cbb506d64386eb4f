//! Shared fixtures for the Criterion benchmark targets.
//!
//! Every target here asserts an equivalence (against a reference
//! implementation, a sequential scan, or a no-op observer) before it times
//! anything, so CI can run it once under `-- --test` as a release-build
//! smoke. How fast the stack runs is the repo benchmark's question
//! (`benchmark/README.md`); the paper's tables come from `bsp-experiments`.

use bsp_core::hc::HillClimbConfig;
use bsp_core::hccs::CommHillClimbConfig;
use bsp_core::ilp::IlpConfig;
use bsp_core::pipeline::PipelineConfig;
use bsp_dag::{Dag, TopoInfo};
use bsp_dagdb::fine::{exp_dag, spmv_dag};
use bsp_dagdb::SparsePattern;
use bsp_model::{BspParams, NumaTopology};
use bsp_schedule::BspSchedule;
use std::time::Duration;

/// A single mid-size instance for the heavier paths.
pub fn medium_instance() -> Dag {
    exp_dag(&SparsePattern::random(24, 0.18, 9), 5)
}

/// A deliberately scattered but valid starting schedule: topological level
/// as superstep, round-robin processors. Used by the local-search benches
/// because it leaves the kernels a rich neighbourhood to evaluate.
pub fn spread_schedule(dag: &Dag, p: u32) -> BspSchedule {
    let topo = TopoInfo::new(dag);
    let mut s = BspSchedule::zeroed(dag.n());
    for v in dag.nodes() {
        s.set(v, v % p, topo.level[v as usize]);
    }
    s
}

/// The local-search kernel-scan configurations: one representative per DAG
/// family (`layered` / `erdos` / `spmv`), each on a small and — unless
/// `quick` — a large machine, for the `local_search` criterion groups;
/// the probe kernel's advantage grows with `P` because the historical
/// kernel refreshes every touched superstep in `O(P)` twice per candidate.
pub fn kernel_scan_configs(quick: bool) -> Vec<(&'static str, Dag, u32)> {
    let layered = || {
        bsp_dag::random::random_layered_dag(
            5,
            bsp_dag::random::LayeredConfig {
                layers: 24,
                width: 32,
                edge_prob: 0.08,
                max_work: 9,
                max_comm: 5,
            },
        )
    };
    let erdos = || bsp_dag::random::random_order_dag(11, 500, 0.012, 9, 5);
    let spmv = || spmv_dag(&SparsePattern::random(48, 0.25, 3));
    let mut v = vec![
        ("layered/p8", layered(), 8),
        ("erdos/p8", erdos(), 8),
        ("spmv/p4", spmv(), 4),
    ];
    if !quick {
        v.extend([
            ("layered/p32", layered(), 32),
            ("erdos/p32", erdos(), 32),
            ("spmv/p32", spmv(), 32),
        ]);
    }
    v
}

/// Uniform machine used across benches.
pub fn machine(p: usize, g: u64) -> BspParams {
    BspParams::new(p, g, 5)
}

/// NUMA machine with a binary-tree hierarchy.
pub fn numa_machine(p: usize, delta: u64) -> BspParams {
    BspParams::new(p, 1, 5).with_numa(NumaTopology::binary_tree(p, delta))
}

/// Bench-sized pipeline budgets.
pub fn bench_pipeline_cfg(ilp: bool) -> PipelineConfig {
    PipelineConfig {
        hc: HillClimbConfig {
            max_moves: Some(300),
            time_limit: Some(Duration::from_millis(300)),
        },
        hccs: CommHillClimbConfig {
            max_moves: Some(300),
            time_limit: Some(Duration::from_millis(150)),
        },
        ilp: IlpConfig {
            full_max_vars: 500,
            part_target_vars: 250,
            limits: bsp_ilp::SolveLimits {
                max_nodes: 40,
                time_limit: Duration::from_millis(150),
                gap: 1e-6,
            },
        },
        enable_ilp: ilp,
        use_ilp_init: Some(false),
        escape: None,
        ..PipelineConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_configs_cover_all_three_families_at_two_machine_sizes() {
        let full = kernel_scan_configs(false);
        for fam in ["layered", "erdos", "spmv"] {
            let sizes: Vec<u32> = full
                .iter()
                .filter(|(b, ..)| b.starts_with(fam))
                .map(|&(_, _, p)| p)
                .collect();
            assert_eq!(sizes.len(), 2, "{fam} must be scanned at two sizes");
            assert!(sizes.iter().any(|&p| p >= 32), "{fam} needs a large-P row");
        }
        assert_eq!(
            kernel_scan_configs(true).len(),
            3,
            "quick trims to one per family"
        );
    }
}
