//! Superstep compaction: removing empty supersteps.
//!
//! Local search can empty a superstep without renumbering the rest; before
//! reporting (or feeding a schedule to the ILP stages, which index supersteps
//! densely) the empty steps are squeezed out.

use crate::comm::{CommSchedule, CommStep};
use crate::schedule::BspSchedule;
use bsp_dag::Dag;

/// Renumbers supersteps so that only non-empty ones remain, preserving
/// relative order. A superstep is non-empty if it computes a node or carries
/// a communication entry. Returns the compacted pair.
pub fn compact(dag: &Dag, sched: &BspSchedule, comm: &CommSchedule) -> (BspSchedule, CommSchedule) {
    let comp_steps = sched.n_supersteps();
    let comm_steps = comm.max_step().map_or(0, |s| s + 1);
    let n_steps = comp_steps.max(comm_steps) as usize;
    let mut used = vec![false; n_steps];
    for v in dag.nodes() {
        used[sched.step(v) as usize] = true;
    }
    for e in comm.entries() {
        used[e.step as usize] = true;
    }
    let mut remap = vec![0u32; n_steps];
    let mut next = 0u32;
    for (s, &u) in used.iter().enumerate() {
        remap[s] = next;
        if u {
            next += 1;
        }
    }
    let new_sched = BspSchedule::from_parts(
        sched.procs().to_vec(),
        sched.steps().iter().map(|&s| remap[s as usize]).collect(),
    );
    let new_comm = CommSchedule::from_entries(
        comm.entries()
            .iter()
            .map(|e| CommStep {
                step: remap[e.step as usize],
                ..*e
            })
            .collect(),
    );
    (new_sched, new_comm)
}

/// Compacts an assignment under the lazy communication model, returning the
/// compacted assignment only (the lazy Γ can be re-derived).
pub fn compact_lazy(dag: &Dag, sched: &BspSchedule) -> BspSchedule {
    let comm = CommSchedule::lazy(dag, sched);
    compact(dag, sched, &comm).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::total_cost;
    use crate::validity::validate;
    use bsp_dag::DagBuilder;
    use bsp_model::BspParams;

    #[test]
    fn compaction_removes_gaps_and_preserves_cost() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 5);
        let sched = BspSchedule::from_parts(vec![0, 1], vec![2, 7]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let before = total_cost(&dag, &machine, &sched, &comm);
        let (cs, cc) = compact(&dag, &sched, &comm);
        assert!(validate(&dag, 2, &cs, &cc).is_ok());
        let after = total_cost(&dag, &machine, &cs, &cc);
        assert_eq!(before, after);
        // steps used: 2 (compute u), 6 (comm), 7 (compute v) -> 0, 1, 2.
        assert_eq!(cs.step(0), 0);
        assert_eq!(cs.step(1), 2);
        assert_eq!(cc.entries()[0].step, 1);
        assert_eq!(cs.n_supersteps(), 3);
    }

    #[test]
    fn already_compact_is_identity() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 0], vec![0, 1]);
        let comm = CommSchedule::empty();
        let (cs, cc) = compact(&dag, &sched, &comm);
        assert_eq!(cs, sched);
        assert_eq!(cc, comm);
    }

    #[test]
    fn compact_lazy_shrinks_step_count() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let sched = BspSchedule::from_parts(vec![0, 0], vec![3, 9]);
        let c = compact_lazy(&dag, &sched);
        assert_eq!(c.steps(), &[0, 1]);
    }
}
