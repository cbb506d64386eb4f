//! BL-EST list scheduler (paper §4.1): select the ready node with the
//! largest *bottom level* (longest outgoing work path), assign it to the
//! processor offering the earliest start time. The ready nodes sit in a
//! max-heap that [`ListState::place`] feeds (see [`crate::list`]).

use crate::list::{CommModel, ListState};
use bsp_dag::topo::{bottom_level, TopoInfo};
use bsp_dag::Dag;
use bsp_model::BspParams;
use bsp_schedule::{BspSchedule, ClassicalSchedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Runs BL-EST and returns the classical schedule (mean-λ delays, the
/// paper's baseline configuration).
pub fn blest_schedule(dag: &Dag, machine: &BspParams) -> ClassicalSchedule {
    blest_schedule_with(dag, machine, CommModel::MeanLambda)
}

/// Runs BL-EST under an explicit EST communication model. With
/// [`CommModel::PerPairLambda`] this is the NUMA-aware extension that
/// Appendix A.1 leaves to future work.
pub fn blest_schedule_with(dag: &Dag, machine: &BspParams, model: CommModel) -> ClassicalSchedule {
    let topo = TopoInfo::new(dag);
    let bl = bottom_level(dag, &topo);
    let mut st = ListState::with_model(dag, machine, model);
    // Highest bottom level first; ties to the smaller id.
    let mut ready = BinaryHeap::new();
    for _ in 0..dag.n() {
        while let Some(v) = st.pop_ready() {
            ready.push((bl[v as usize], Reverse(v)));
        }
        let (_, Reverse(v)) = ready
            .pop()
            .expect("ready set cannot be empty while nodes remain");
        let (q, t) = st.best_proc(v);
        st.place(v, q, t);
    }
    st.finish()
}

/// [`blest_schedule`] converted to BSP supersteps.
pub fn blest_bsp(dag: &Dag, machine: &BspParams) -> BspSchedule {
    blest_schedule(dag, machine).to_bsp(dag)
}

/// NUMA-aware BL-EST (per-pair λ in the EST), converted to BSP supersteps.
pub fn blest_bsp_numa_aware(dag: &Dag, machine: &BspParams) -> BspSchedule {
    blest_schedule_with(dag, machine, CommModel::PerPairLambda).to_bsp(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_schedule::validity::validate_lazy;

    #[test]
    fn critical_path_prioritized() {
        // Two chains: long (3 nodes of work 3) and short (1 node of work 1).
        // BL-EST must start the long chain first.
        let mut b = DagBuilder::new();
        let a1 = b.add_node(3, 1);
        let a2 = b.add_node(3, 1);
        let a3 = b.add_node(3, 1);
        let s = b.add_node(1, 1);
        b.add_edge(a1, a2).unwrap();
        b.add_edge(a2, a3).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(1, 1, 0);
        let sch = blest_schedule(&dag, &machine);
        assert!(sch.is_valid(&dag));
        assert!(sch.start[a1 as usize] < sch.start[s as usize]);
    }

    #[test]
    fn parallel_work_distributed() {
        let mut b = DagBuilder::new();
        for _ in 0..6 {
            b.add_node(2, 1);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(3, 1, 0);
        let sch = blest_schedule(&dag, &machine);
        assert_eq!(sch.makespan(&dag), 4); // 6 tasks of 2 on 3 procs
    }

    #[test]
    fn keeps_heavy_communication_local() {
        // u -> v with huge c(u): putting v elsewhere delays it by g*c.
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 100);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        let sch = blest_schedule(&dag, &machine);
        assert_eq!(sch.proc[u as usize], sch.proc[v as usize]);
    }

    #[test]
    fn valid_bsp_conversion_on_random_dags() {
        for seed in 0..6 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 5,
                    width: 6,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 3, 5);
            let bsp = blest_bsp(&dag, &machine);
            assert!(validate_lazy(&dag, 4, &bsp).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn numa_aware_variant_valid_on_random_dags() {
        use bsp_model::NumaTopology;
        for seed in 0..4 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 5,
                    width: 6,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 4));
            let bsp = blest_bsp_numa_aware(&dag, &machine);
            assert!(validate_lazy(&dag, 8, &bsp).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn numa_aware_matches_plain_on_uniform_machines() {
        for seed in 0..3 {
            let dag = random_layered_dag(
                seed,
                LayeredConfig {
                    layers: 4,
                    width: 5,
                    ..Default::default()
                },
            );
            let machine = BspParams::new(4, 2, 5);
            let a = blest_schedule(&dag, &machine);
            let b = blest_schedule_with(&dag, &machine, CommModel::PerPairLambda);
            assert_eq!(a.proc, b.proc, "seed {seed}");
            assert_eq!(a.start, b.start, "seed {seed}");
        }
    }
}
