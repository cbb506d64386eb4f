//! The communication schedule `Γ` and its lazy derivation.

use crate::schedule::BspSchedule;
use bsp_dag::{Dag, NodeId};
use serde::{Deserialize, Serialize};

/// One entry `(v, p1, p2, s)` of `Γ`: the output of node `v` is sent from
/// processor `from` to processor `to` in the communication phase of
/// superstep `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CommStep {
    /// The node whose output value is transferred.
    pub node: NodeId,
    /// Sending processor `p1`.
    pub from: u32,
    /// Receiving processor `p2`.
    pub to: u32,
    /// Superstep whose communication phase carries the transfer.
    pub step: u32,
}

/// A full communication schedule: a set of [`CommStep`] entries kept sorted
/// for deterministic iteration and O(log) membership tests.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommSchedule {
    entries: Vec<CommStep>,
}

impl CommSchedule {
    /// Empty schedule (valid when every edge stays processor-local).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds from arbitrary entries; sorts and deduplicates.
    pub fn from_entries(mut entries: Vec<CommStep>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        CommSchedule { entries }
    }

    /// The *lazy* communication schedule defined by an assignment
    /// (Appendix A): whenever node `u` has a successor on a different
    /// processor `q`, its value is sent directly from `π(u)` to `q` in the
    /// last possible communication phase, i.e. superstep
    /// `min{τ(w) : w ∈ succ(u), π(w) = q} − 1`.
    ///
    /// Requires [`BspSchedule::respects_precedence_lazy`]; entries for
    /// which the sender would not yet have computed the value cannot occur
    /// then.
    pub fn lazy(dag: &Dag, sched: &BspSchedule) -> Self {
        let mut entries = Vec::new();
        // first_need[(q)] per node handled with a small map keyed by target proc.
        let mut first_need: Vec<(u32, u32)> = Vec::new(); // (proc, min step) scratch
        for u in dag.nodes() {
            first_need.clear();
            let pu = sched.proc(u);
            for &w in dag.successors(u) {
                let q = sched.proc(w);
                if q == pu {
                    continue;
                }
                match first_need.iter_mut().find(|e| e.0 == q) {
                    Some(e) => e.1 = e.1.min(sched.step(w)),
                    None => first_need.push((q, sched.step(w))),
                }
            }
            for &(q, s) in &first_need {
                debug_assert!(
                    s > 0,
                    "lazy schedule needs strict step increase across processors"
                );
                entries.push(CommStep {
                    node: u,
                    from: pu,
                    to: q,
                    step: s - 1,
                });
            }
        }
        Self::from_entries(entries)
    }

    /// All entries, sorted.
    #[inline]
    pub fn entries(&self) -> &[CommStep] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no transfer is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Latest communication-phase index used, if any.
    pub fn max_step(&self) -> Option<u32> {
        self.entries.iter().map(|e| e.step).max()
    }
}

/// A *required transfer* under the direct-from-source model used by HCcs and
/// ILPcs (Appendix A.3–A.4): node `node` must move from `from = π(node)` to
/// `to` in some communication phase `s ∈ [earliest, latest]`, where
/// `earliest = τ(node)` and `latest = s0 − 1` for the first superstep `s0`
/// that computes a successor of `node` on `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The node whose value must be transferred.
    pub node: NodeId,
    /// Sending processor (always `π(node)` in the direct model).
    pub from: u32,
    /// Receiving processor.
    pub to: u32,
    /// Earliest feasible communication phase (`τ(node)`).
    pub earliest: u32,
    /// Latest feasible communication phase (first need minus one).
    pub latest: u32,
}

/// Enumerates the required transfers of an assignment (direct-from-source
/// model). Sorted by `(node, to)`.
pub fn required_transfers(dag: &Dag, sched: &BspSchedule) -> Vec<Transfer> {
    let mut out = Vec::new();
    let mut first_need: Vec<(u32, u32)> = Vec::new();
    for u in dag.nodes() {
        first_need.clear();
        let pu = sched.proc(u);
        for &w in dag.successors(u) {
            let q = sched.proc(w);
            if q == pu {
                continue;
            }
            match first_need.iter_mut().find(|e| e.0 == q) {
                Some(e) => e.1 = e.1.min(sched.step(w)),
                None => first_need.push((q, sched.step(w))),
            }
        }
        first_need.sort_unstable();
        for &(q, s0) in &first_need {
            debug_assert!(s0 > sched.step(u));
            out.push(Transfer {
                node: u,
                from: pu,
                to: q,
                earliest: sched.step(u),
                latest: s0 - 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;

    fn fan() -> Dag {
        // 0 -> 1, 0 -> 2, 0 -> 3
        let mut b = DagBuilder::new();
        let s = b.add_node(1, 7);
        for _ in 0..3 {
            let t = b.add_node(1, 1);
            b.add_edge(s, t).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn lazy_sends_once_per_target_processor() {
        let dag = fan();
        // successors on procs 1, 1, 2 at steps 2, 3, 1.
        let sched = BspSchedule::from_parts(vec![0, 1, 1, 2], vec![0, 2, 3, 1]);
        let comm = CommSchedule::lazy(&dag, &sched);
        assert_eq!(
            comm.entries(),
            &[
                CommStep {
                    node: 0,
                    from: 0,
                    to: 1,
                    step: 1
                }, // min(2,3) - 1
                CommStep {
                    node: 0,
                    from: 0,
                    to: 2,
                    step: 0
                }, // 1 - 1
            ]
        );
    }

    #[test]
    fn lazy_empty_when_local() {
        let dag = fan();
        let sched = BspSchedule::from_parts(vec![0; 4], vec![0; 4]);
        assert!(CommSchedule::lazy(&dag, &sched).is_empty());
    }

    #[test]
    fn required_transfers_windows() {
        let dag = fan();
        let sched = BspSchedule::from_parts(vec![0, 1, 1, 2], vec![1, 3, 4, 2]);
        let t = required_transfers(&dag, &sched);
        assert_eq!(
            t,
            vec![
                Transfer {
                    node: 0,
                    from: 0,
                    to: 1,
                    earliest: 1,
                    latest: 2
                },
                Transfer {
                    node: 0,
                    from: 0,
                    to: 2,
                    earliest: 1,
                    latest: 1
                },
            ]
        );
    }

    #[test]
    fn from_entries_sorts_and_dedups() {
        let a = CommStep {
            node: 1,
            from: 0,
            to: 1,
            step: 0,
        };
        let b = CommStep {
            node: 0,
            from: 0,
            to: 1,
            step: 0,
        };
        let c = CommSchedule::from_entries(vec![a, b, a]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.entries()[0], b);
    }
}
