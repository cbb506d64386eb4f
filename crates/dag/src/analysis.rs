//! Structural statistics over computational DAGs.

use crate::graph::Dag;
use crate::topo::TopoInfo;

/// Summary statistics of a DAG, used for dataset reporting and for the
/// communication-to-computation ratio (CCR) discussion of Appendix A.5.
#[derive(Debug, Clone, PartialEq)]
pub struct DagStats {
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Number of source nodes.
    pub sources: usize,
    /// Number of sink nodes.
    pub sinks: usize,
    /// Depth in levels (longest path, in nodes).
    pub depth: usize,
    /// Maximum level-set size ("width").
    pub max_width: usize,
    /// Total work weight.
    pub total_work: u64,
    /// Total communication weight.
    pub total_comm: u64,
    /// Communication-to-computation ratio `Σc(v) / Σw(v)` as defined in \[27\]
    /// and discussed at the end of Appendix A.5.
    pub ccr: f64,
}

impl DagStats {
    /// Computes statistics for `dag`.
    pub fn compute(dag: &Dag) -> Self {
        let topo = TopoInfo::new(dag);
        let level_sets = topo.level_sets();
        let total_work = dag.total_work();
        let total_comm = dag.total_comm();
        DagStats {
            n: dag.n(),
            m: dag.m(),
            sources: dag.sources().len(),
            sinks: dag.sinks().len(),
            depth: topo.depth(),
            max_width: level_sets.iter().map(Vec::len).max().unwrap_or(0),
            total_work,
            total_comm,
            ccr: if total_work == 0 {
                0.0
            } else {
                total_comm as f64 / total_work as f64
            },
        }
    }
}

/// The generalized CCR of Appendix A.5 for a NUMA machine: multiplies the
/// plain ratio by `g` and the mean off-diagonal λ coefficient.
pub fn numa_ccr(dag: &Dag, g: u64, mean_lambda: f64) -> f64 {
    let w = dag.total_work();
    if w == 0 {
        return 0.0;
    }
    dag.total_comm() as f64 * g as f64 * mean_lambda / w as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 2);
        let x = b.add_node(4, 1);
        let y = b.add_node(2, 1);
        let z = b.add_node(3, 2);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stats_are_correct() {
        let s = DagStats::compute(&sample());
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 4);
        assert_eq!(s.sources, 1);
        assert_eq!(s.sinks, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.max_width, 2);
        assert_eq!(s.total_work, 10);
        assert_eq!(s.total_comm, 6);
        assert!((s.ccr - 0.6).abs() < 1e-12);
    }

    #[test]
    fn degree_and_numa_ccr() {
        let d = sample();
        // g=3, mean λ = 2 -> ccr = 6*3*2/10 = 3.6
        assert!((numa_ccr(&d, 3, 2.0) - 3.6).abs() < 1e-12);
    }

    #[test]
    fn empty_dag_stats() {
        let d = DagBuilder::new().build().unwrap();
        let s = DagStats::compute(&d);
        assert_eq!(s.n, 0);
        assert_eq!(s.ccr, 0.0);
    }
}
