//! ETF (Earliest Task First) list scheduler (paper §4.1): among all ready
//! (node, processor) pairs pick the one with the earliest start time; ties
//! broken by the larger bottom level, then the smaller processor, then the
//! smaller node id. Heap-driven: see the event-loop section of
//! [`crate::list`] for the two queues per processor and why their tops
//! hold the same pick a scan of every ready pair would make.

use crate::list::{CommModel, ListState};
use bsp_dag::topo::{bottom_level, TopoInfo};
use bsp_dag::{Dag, NodeId};
use bsp_model::BspParams;
use bsp_schedule::{BspSchedule, ClassicalSchedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Runs ETF and returns the classical schedule (mean-λ delays, the paper's
/// baseline configuration).
pub fn etf_schedule(dag: &Dag, machine: &BspParams) -> ClassicalSchedule {
    etf_schedule_with(dag, machine, CommModel::MeanLambda)
}

/// The ready nodes as one processor sees them, split by what their start
/// there waits for. Entries of nodes placed elsewhere stay until they
/// surface.
#[derive(Default, Clone)]
struct ProcQueues {
    /// `(data_ready, ¬bl, v)`: data arrives after the processor is free.
    future: BinaryHeap<Reverse<(u64, u64, NodeId)>>,
    /// `(¬bl, v)`: data is there, the node starts when the processor is free.
    waiting: BinaryHeap<Reverse<(u64, NodeId)>>,
}

/// Runs ETF under an explicit EST communication model. With
/// [`CommModel::PerPairLambda`] this is the NUMA-aware extension that
/// Appendix A.1 leaves to future work.
pub fn etf_schedule_with(dag: &Dag, machine: &BspParams, model: CommModel) -> ClassicalSchedule {
    let topo = TopoInfo::new(dag);
    let bl = bottom_level(dag, &topo);
    let mut st = ListState::with_model(dag, machine, model);
    let mut queues = vec![ProcQueues::default(); machine.p()];
    for _ in 0..dag.n() {
        while let Some(v) = st.pop_ready() {
            let neg_bl = u64::MAX - bl[v as usize];
            for (q, on_q) in queues.iter_mut().enumerate() {
                let arrives = st.data_ready(v, q as u32);
                if arrives > st.proc_free(q as u32) {
                    on_q.future.push(Reverse((arrives, neg_bl, v)));
                } else {
                    on_q.waiting.push(Reverse((neg_bl, v)));
                }
            }
        }
        let mut best: Option<(u64, u64, u32, NodeId)> = None; // (est, -bl, proc, node)
        for (q, on_q) in queues.iter_mut().enumerate() {
            let q = q as u32;
            while on_q.future.peek().is_some_and(|e| st.is_placed(e.0 .2)) {
                on_q.future.pop();
            }
            while on_q.waiting.peek().is_some_and(|e| st.is_placed(e.0 .1)) {
                on_q.waiting.pop();
            }
            let tops = [
                on_q.future.peek().map(|&Reverse((t, b, v))| (t, b, q, v)),
                on_q.waiting
                    .peek()
                    .map(|&Reverse((b, v))| (st.proc_free(q), b, q, v)),
            ];
            best = tops.into_iter().flatten().chain(best).min();
        }
        let (t, _, q, v) = best.expect("ready set cannot be empty while nodes remain");
        st.place(v, q, t);
        // `q` is busy for longer now: what its new free time has overtaken
        // waits for the processor, no longer for data.
        let on_q = &mut queues[q as usize];
        while let Some(&Reverse((arrives, neg_bl, w))) = on_q.future.peek() {
            if arrives > st.proc_free(q) {
                break;
            }
            on_q.future.pop();
            if !st.is_placed(w) {
                on_q.waiting.push(Reverse((neg_bl, w)));
            }
        }
    }
    st.finish()
}

/// [`etf_schedule`] converted to BSP supersteps.
pub fn etf_bsp(dag: &Dag, machine: &BspParams) -> BspSchedule {
    etf_schedule(dag, machine).to_bsp(dag)
}

/// NUMA-aware ETF (per-pair λ in the EST), converted to BSP supersteps.
pub fn etf_bsp_numa_aware(dag: &Dag, machine: &BspParams) -> BspSchedule {
    etf_schedule_with(dag, machine, CommModel::PerPairLambda).to_bsp(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::random::{random_layered_dag, LayeredConfig};
    use bsp_dag::DagBuilder;
    use bsp_schedule::validity::validate_lazy;

    #[test]
    fn picks_earliest_starting_pair() {
        // One source, then two tasks; ETF should start both children
        // immediately after the source on the two processors... unless
        // communication delay makes a local serial order cheaper.
        let mut b = DagBuilder::new();
        let s = b.add_node(1, 10); // large output: expensive to ship
        let x = b.add_node(1, 1);
        let y = b.add_node(1, 1);
        b.add_edge(s, x).unwrap();
        b.add_edge(s, y).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        let sch = etf_schedule(&dag, &machine);
        assert!(sch.is_valid(&dag));
        // g*c = 10: shipping to the other processor starts at 11, running
        // serially locally starts at 2 -> both children local.
        assert_eq!(sch.proc[x as usize], sch.proc[s as usize]);
        assert_eq!(sch.proc[y as usize], sch.proc[s as usize]);
    }

    #[test]
    fn cheap_outputs_spread_across_processors() {
        let mut b = DagBuilder::new();
        let s = b.add_node(1, 0); // free to communicate
        let x = b.add_node(5, 1);
        let y = b.add_node(5, 1);
        b.add_edge(s, x).unwrap();
        b.add_edge(s, y).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        let sch = etf_schedule(&dag, &machine);
        assert_ne!(sch.proc[x as usize], sch.proc[y as usize]);
        assert_eq!(sch.makespan(&dag), 6);
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
            let bsp = etf_bsp(&dag, &machine);
            assert!(validate_lazy(&dag, 4, &bsp).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn single_processor_is_sequential() {
        let dag = random_layered_dag(9, LayeredConfig::default());
        let machine = BspParams::new(1, 1, 0);
        let sch = etf_schedule(&dag, &machine);
        assert!(sch.is_valid(&dag));
        assert_eq!(sch.makespan(&dag), dag.total_work());
    }

    #[test]
    fn numa_aware_variant_valid_and_prefers_near_processors() {
        use bsp_model::NumaTopology;
        // A fan-out from one source: the NUMA-aware EST should place remote
        // children on the *sibling* processor (λ=1) before a far one (λ=Δ²).
        let mut b = DagBuilder::new();
        let s = b.add_node(1, 2);
        let kids: Vec<_> = (0..3).map(|_| b.add_node(4, 1)).collect();
        for &k in &kids {
            b.add_edge(s, k).unwrap();
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(8, 1, 0).with_numa(NumaTopology::binary_tree(8, 4));
        let sch = etf_schedule_with(&dag, &machine, CommModel::PerPairLambda);
        assert!(sch.is_valid(&dag));
        let ps = sch.proc[s as usize];
        for &k in &kids {
            let pk = sch.proc[k as usize];
            // Every remote child lands within the λ ≤ Δ half of the tree
            // (never across the top level, where λ = Δ² = 16).
            assert!(
                machine.lambda(ps as usize, pk as usize) <= 4,
                "child crossed the top of the hierarchy: λ({ps},{pk}) = {}",
                machine.lambda(ps as usize, pk as usize)
            );
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
            let a = etf_schedule(&dag, &machine);
            let b = etf_schedule_with(&dag, &machine, CommModel::PerPairLambda);
            assert_eq!(a.proc, b.proc, "seed {seed}");
            assert_eq!(a.start, b.start, "seed {seed}");
        }
    }

    #[test]
    fn numa_aware_bsp_conversion_valid() {
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
            let machine = BspParams::new(8, 1, 5).with_numa(NumaTopology::binary_tree(8, 3));
            let bsp = etf_bsp_numa_aware(&dag, &machine);
            assert!(validate_lazy(&dag, 8, &bsp).is_ok(), "seed {seed}");
        }
    }
}
