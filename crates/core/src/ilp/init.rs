//! `ILPinit`: ILP-based initialization (paper §4.2, Appendix A.4).
//!
//! Nodes are taken in topological order in batches; each batch is scheduled
//! into the next few supersteps by a window ILP, with previously scheduled
//! batches fixed (their availability folded into the window model as
//! boundary constants) and later nodes ignored. Batches are cut both by the
//! variable-count estimate and by the intra-batch depth (which must fit the
//! superstep window so that a feasible schedule always exists).

use super::window::{WindowIlp, WindowOptions};
use super::IlpConfig;
use bsp_dag::{Dag, NodeId, TopoInfo};
use bsp_model::BspParams;
use bsp_schedule::compact::compact_lazy;
use bsp_schedule::solve::Stop;
use bsp_schedule::BspSchedule;

/// Supersteps per batch window (the paper uses 3).
const BATCH_STEPS: u32 = 3;

/// Runs `ILPinit` and returns a complete assignment.
pub fn ilp_init(dag: &Dag, machine: &BspParams, cfg: &IlpConfig, stop: &Stop) -> BspSchedule {
    let n = dag.n();
    let mut sched = BspSchedule::zeroed(n);
    if n == 0 {
        return sched;
    }
    let topo = TopoInfo::new(dag);
    let p = machine.p();

    let mut pos = 0usize;
    let mut next_step = 0u32;
    let mut batch_of = vec![u32::MAX; n]; // batch index per node, MAX = future
    let mut batch_idx = 0u32;
    while pos < topo.order.len() {
        // Grow the batch: bounded by variable estimate and depth <= BATCH_STEPS.
        let mut batch: Vec<NodeId> = Vec::new();
        let mut level_in_batch = vec![0u32; n];
        while pos < topo.order.len() {
            let v = topo.order[pos];
            let lvl = dag
                .predecessors(v)
                .iter()
                .filter(|&&u| batch_of[u as usize] == batch_idx)
                .map(|&u| level_in_batch[u as usize] + 1)
                .max()
                .unwrap_or(0);
            if lvl >= BATCH_STEPS {
                break;
            }
            let est = WindowIlp::estimate_vars(batch.len() + 1, BATCH_STEPS as usize, p);
            if est > cfg.part_target_vars && !batch.is_empty() {
                break;
            }
            level_in_batch[v as usize] = lvl;
            batch_of[v as usize] = batch_idx;
            batch.push(v);
            pos += 1;
        }
        debug_assert!(!batch.is_empty());

        let s1 = next_step;
        let s2 = s1 + BATCH_STEPS - 1;
        // Feasible default: batch levels on processor 0.
        for &v in &batch {
            sched.set(v, 0, s1 + level_in_batch[v as usize]);
        }
        // Temporarily park all future nodes far beyond the window so that
        // the window model treats only the batch as free and sees no
        // external successors (ILPinit ignores unscheduled successors).
        let park = s2 + 1_000_000;
        for &v in &topo.order[pos..] {
            sched.set(v, 0, park);
        }
        let w = WindowIlp::build(
            dag,
            machine,
            &sched,
            s1,
            s2,
            WindowOptions {
                require_external_delivery: false,
            },
        );
        let warm = w.warm_start(dag, machine, &sched);
        debug_assert!(
            w.model.is_feasible(&warm, 1e-5),
            "ILPinit warm start must be feasible"
        );
        let sol = super::solve_model(&w.model, Some(&warm), &cfg.limits, stop);
        if !sol.x.is_empty() {
            let cand = w.extract(&sol.x, &sched);
            // Keep only if still valid for the scheduled prefix.
            let mut ok = true;
            'check: for &v in &batch {
                for &u in dag.predecessors(v) {
                    let valid = if cand.proc(u) == cand.proc(v) {
                        cand.step(u) <= cand.step(v)
                    } else {
                        cand.step(u) < cand.step(v)
                    };
                    if !valid {
                        ok = false;
                        break 'check;
                    }
                }
            }
            if ok {
                for &v in &batch {
                    sched.set(v, cand.proc(v), cand.step(v));
                }
            }
        }
        next_step = s2 + 1;
        batch_idx += 1;
    }
    compact_lazy(dag, &sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_schedule::cost::lazy_cost;
    use bsp_schedule::validity::validate_lazy;

    /// A stop that never fires: the solver's own limits rule.
    fn never() -> Stop {
        Stop::new(None, None)
    }

    #[test]
    fn produces_valid_schedules_on_random_dags() {
        for seed in 0..4 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 4,
                    width: 4,
                    edge_prob: 0.4,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(2, 1, 3);
            let s = ilp_init(&dag, &machine, &IlpConfig::default(), &never());
            assert!(validate_lazy(&dag, 2, &s).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn parallelizes_independent_work() {
        let mut b = DagBuilder::new();
        for _ in 0..6 {
            b.add_node(4, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let s = ilp_init(&dag, &machine, &IlpConfig::default(), &never());
        assert!(validate_lazy(&dag, 2, &s).is_ok());
        // The trivial one-processor cost is 24 + l; the ILP should split.
        assert!(lazy_cost(&dag, &machine, &s) < 24);
    }

    #[test]
    fn deep_chain_fits_via_multiple_batches() {
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..10).map(|_| b.add_node(1, 1)).collect();
        for i in 0..9 {
            b.add_edge(v[i], v[i + 1]).unwrap();
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let s = ilp_init(&dag, &machine, &IlpConfig::default(), &never());
        assert!(validate_lazy(&dag, 2, &s).is_ok());
    }
}
