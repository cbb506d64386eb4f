//! DAG edits: the delta half of the delta-instance API.
//!
//! A [`DagEdit`] describes one incremental change to a computational DAG —
//! add or remove a node, add or remove an edge, change a node's weights.
//! [`apply_edits`] validates a sequence of edits against a base DAG and
//! produces the edited DAG **plus the node-id mapping** from the base to
//! the result, which is exactly what a warm-started re-solve needs to
//! transplant a cached schedule onto the edited instance
//! (`bsp_core::warm`).
//!
//! Edits serialize to JSON (manual impls — the offline serde stand-in
//! derives only named-field structs) as one tagged object per edit, the
//! shape the `bsp-serve` wire protocol carries:
//!
//! ```text
//! {"op":"add_node","work":3,"comm":1,"preds":[0,2],"succs":[5]}
//! {"op":"remove_node","node":4}
//! {"op":"add_edge","from":1,"to":3}
//! {"op":"remove_edge","from":1,"to":3}
//! {"op":"set_weights","node":2,"work":7,"comm":null}
//! ```
//!
//! ```
//! use bsp_instance::edit::{apply_edits, DagEdit};
//! use bsp_dag::DagBuilder;
//!
//! let mut b = DagBuilder::new();
//! let u = b.add_node(1, 1);
//! let v = b.add_node(2, 1);
//! b.add_edge(u, v).unwrap();
//! let dag = b.build().unwrap();
//!
//! // Append a consumer of v.
//! let out = apply_edits(
//!     &dag,
//!     &[DagEdit::AddNode { work: 3, comm: 1, preds: vec![v], succs: vec![] }],
//! )
//! .unwrap();
//! assert_eq!(out.dag.n(), 3);
//! assert_eq!(out.added, vec![2]);
//! // Surviving base nodes keep their identity through `node_map`.
//! assert_eq!(out.node_map, vec![Some(0), Some(1)]);
//! ```

use bsp_dag::{Dag, DagBuilder, NodeId};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::fmt;

/// One incremental change to a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagEdit {
    /// Append a node with the given weights, wired to existing
    /// predecessors and successors. The new node receives the next free
    /// id (`dag.n()` at application time).
    AddNode {
        /// Work weight `w(v)` of the new node.
        work: u64,
        /// Communication weight `c(v)` of the new node.
        comm: u64,
        /// Existing nodes the new node consumes from.
        preds: Vec<NodeId>,
        /// Existing nodes that consume the new node.
        succs: Vec<NodeId>,
    },
    /// Remove a node and every edge touching it. Later node ids shift
    /// down by one (the returned [`EditOutcome::node_map`] records this).
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
    /// Add the edge `(from, to)`. Rejected if it already exists or would
    /// create a cycle.
    AddEdge {
        /// Producer endpoint.
        from: NodeId,
        /// Consumer endpoint.
        to: NodeId,
    },
    /// Remove the edge `(from, to)`. Rejected if absent.
    RemoveEdge {
        /// Producer endpoint.
        from: NodeId,
        /// Consumer endpoint.
        to: NodeId,
    },
    /// Change a node's work and/or communication weight (`None` keeps the
    /// current value).
    SetWeights {
        /// The node to re-weight.
        node: NodeId,
        /// New work weight, if any.
        work: Option<u64>,
        /// New communication weight, if any.
        comm: Option<u64>,
    },
}

/// Why an edit sequence was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// An edit referenced a node id outside the (current) DAG.
    UnknownNode {
        /// Index of the offending edit in the submitted sequence.
        edit: usize,
        /// The id as written.
        node: NodeId,
        /// Node count of the DAG the edit was applied to.
        n: usize,
    },
    /// `add_edge` named an edge that already exists.
    DuplicateEdge {
        /// Index of the offending edit.
        edit: usize,
        /// The edge as written.
        from: NodeId,
        /// The edge as written.
        to: NodeId,
    },
    /// `remove_edge` named an edge that does not exist.
    MissingEdge {
        /// Index of the offending edit.
        edit: usize,
        /// The edge as written.
        from: NodeId,
        /// The edge as written.
        to: NodeId,
    },
    /// An edit would produce a self-loop or a directed cycle.
    WouldCycle {
        /// Index of the offending edit.
        edit: usize,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownNode { edit, node, n } => {
                write!(
                    f,
                    "edit {edit}: node {node} out of range (DAG has {n} nodes)"
                )
            }
            EditError::DuplicateEdge { edit, from, to } => {
                write!(f, "edit {edit}: edge ({from},{to}) already exists")
            }
            EditError::MissingEdge { edit, from, to } => {
                write!(f, "edit {edit}: edge ({from},{to}) does not exist")
            }
            EditError::WouldCycle { edit } => {
                write!(f, "edit {edit}: would create a cycle")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// The result of applying an edit sequence: the edited DAG plus the
/// id bookkeeping a warm start needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditOutcome {
    /// The edited DAG.
    pub dag: Dag,
    /// For each node of the *base* DAG: its id in the edited DAG, or
    /// `None` if a `remove_node` dropped it.
    pub node_map: Vec<Option<NodeId>>,
    /// Ids (in the edited DAG) of nodes introduced by `add_node` edits,
    /// in application order — the nodes a warm start must place fresh.
    pub added: Vec<NodeId>,
}

/// Mutable working copy the edits are applied to, rebuilt into a [`Dag`]
/// once at the end (edits are cheap list operations; the cycle check runs
/// per structural edit on the edge list).
struct Working {
    work: Vec<u64>,
    comm: Vec<u64>,
    edges: Vec<(NodeId, NodeId)>,
}

impl Working {
    fn n(&self) -> usize {
        self.work.len()
    }

    fn check_node(&self, edit: usize, v: NodeId) -> Result<(), EditError> {
        if (v as usize) < self.n() {
            Ok(())
        } else {
            Err(EditError::UnknownNode {
                edit,
                node: v,
                n: self.n(),
            })
        }
    }

    /// Whether `to` can reach `from` over the current edge list (adding
    /// `(from, to)` would then close a cycle). Plain DFS over an adjacency
    /// index built per call — structural edits are rare relative to their
    /// n, and the DagBuilder at the end re-verifies acyclicity anyway.
    fn reaches(&self, start: NodeId, target: NodeId) -> bool {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); self.n()];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v);
        }
        let mut seen = vec![false; self.n()];
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            if u == target {
                return true;
            }
            if std::mem::replace(&mut seen[u as usize], true) {
                continue;
            }
            stack.extend(adj[u as usize].iter().copied());
        }
        false
    }
}

/// Applies `edits` to `dag` in order, validating each against the DAG as
/// edited so far. Fails atomically: any rejected edit leaves no partial
/// result. The returned [`EditOutcome::node_map`] composes all
/// `remove_node` id shifts, and [`EditOutcome::added`] lists the surviving
/// `add_node` nodes.
pub fn apply_edits(dag: &Dag, edits: &[DagEdit]) -> Result<EditOutcome, EditError> {
    bsp_dag::calls::note("apply_edits");
    let mut w = Working {
        work: dag.work_weights().to_vec(),
        comm: dag.comm_weights().to_vec(),
        edges: dag.edges().collect(),
    };
    // Identity tracking: ids[k] = Some(original base id) for base nodes,
    // None for added ones; `added_at` marks which working ids are fresh.
    let mut ids: Vec<Option<NodeId>> = (0..dag.n() as NodeId).map(Some).collect();
    let mut fresh: Vec<bool> = vec![false; dag.n()];

    for (i, edit) in edits.iter().enumerate() {
        match edit {
            DagEdit::AddNode {
                work,
                comm,
                preds,
                succs,
            } => {
                for &u in preds.iter().chain(succs.iter()) {
                    w.check_node(i, u)?;
                }
                let v = w.n() as NodeId;
                // A pred that is also a succ would make the new node part
                // of a cycle.
                if preds.iter().any(|p| succs.contains(p)) {
                    return Err(EditError::WouldCycle { edit: i });
                }
                // pred -> v -> succ closes a cycle iff some succ reaches
                // some pred already.
                for &s in succs {
                    for &p in preds {
                        if w.reaches(s, p) {
                            return Err(EditError::WouldCycle { edit: i });
                        }
                    }
                }
                w.work.push(*work);
                w.comm.push(*comm);
                for &p in preds {
                    w.edges.push((p, v));
                }
                for &s in succs {
                    w.edges.push((v, s));
                }
                ids.push(None);
                fresh.push(true);
            }
            DagEdit::RemoveNode { node } => {
                w.check_node(i, *node)?;
                let r = *node;
                w.work.remove(r as usize);
                w.comm.remove(r as usize);
                ids.remove(r as usize);
                fresh.remove(r as usize);
                w.edges.retain(|&(u, v)| u != r && v != r);
                for e in &mut w.edges {
                    if e.0 > r {
                        e.0 -= 1;
                    }
                    if e.1 > r {
                        e.1 -= 1;
                    }
                }
            }
            DagEdit::AddEdge { from, to } => {
                w.check_node(i, *from)?;
                w.check_node(i, *to)?;
                if w.edges.contains(&(*from, *to)) {
                    return Err(EditError::DuplicateEdge {
                        edit: i,
                        from: *from,
                        to: *to,
                    });
                }
                if from == to || w.reaches(*to, *from) {
                    return Err(EditError::WouldCycle { edit: i });
                }
                w.edges.push((*from, *to));
            }
            DagEdit::RemoveEdge { from, to } => {
                w.check_node(i, *from)?;
                w.check_node(i, *to)?;
                let before = w.edges.len();
                w.edges.retain(|&e| e != (*from, *to));
                if w.edges.len() == before {
                    return Err(EditError::MissingEdge {
                        edit: i,
                        from: *from,
                        to: *to,
                    });
                }
            }
            DagEdit::SetWeights { node, work, comm } => {
                w.check_node(i, *node)?;
                if let Some(wk) = work {
                    w.work[*node as usize] = *wk;
                }
                if let Some(c) = comm {
                    w.comm[*node as usize] = *c;
                }
            }
        }
    }

    // Rebuild through DagBuilder: sorts/dedups adjacency and re-verifies
    // acyclicity (a second line of defence behind the per-edit checks).
    let mut b = DagBuilder::with_capacity(w.n(), w.edges.len());
    for k in 0..w.n() {
        b.add_node(w.work[k], w.comm[k]);
    }
    for &(u, v) in &w.edges {
        b.add_edge(u, v).expect("endpoints validated per edit");
    }
    let edited = b.build().map_err(|_| EditError::WouldCycle {
        edit: edits.len().saturating_sub(1),
    })?;

    let mut node_map = vec![None; dag.n()];
    let mut added = Vec::new();
    for (new_id, base) in ids.iter().enumerate() {
        match base {
            Some(old) => node_map[*old as usize] = Some(new_id as NodeId),
            None => added.push(new_id as NodeId),
        }
    }
    Ok(EditOutcome {
        dag: edited,
        node_map,
        added,
    })
}

// ---------------------------------------------------------------------
// Wire format (manual serde: the stand-in derive does not do enums).

impl Serialize for DagEdit {
    fn to_value(&self) -> Value {
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        match self {
            DagEdit::AddNode {
                work,
                comm,
                preds,
                succs,
            } => obj(vec![
                ("op", Value::Str("add_node".into())),
                ("work", work.to_value()),
                ("comm", comm.to_value()),
                ("preds", preds.to_value()),
                ("succs", succs.to_value()),
            ]),
            DagEdit::RemoveNode { node } => obj(vec![
                ("op", Value::Str("remove_node".into())),
                ("node", node.to_value()),
            ]),
            DagEdit::AddEdge { from, to } => obj(vec![
                ("op", Value::Str("add_edge".into())),
                ("from", from.to_value()),
                ("to", to.to_value()),
            ]),
            DagEdit::RemoveEdge { from, to } => obj(vec![
                ("op", Value::Str("remove_edge".into())),
                ("from", from.to_value()),
                ("to", to.to_value()),
            ]),
            DagEdit::SetWeights { node, work, comm } => obj(vec![
                ("op", Value::Str("set_weights".into())),
                ("node", node.to_value()),
                ("work", work.to_value()),
                ("comm", comm.to_value()),
            ]),
        }
    }
}

impl<'de> Deserialize<'de> for DagEdit {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let op: String = field(value, "op")?;
        match op.as_str() {
            "add_node" => Ok(DagEdit::AddNode {
                work: field(value, "work")?,
                comm: field(value, "comm")?,
                preds: field(value, "preds")?,
                succs: field(value, "succs")?,
            }),
            "remove_node" => Ok(DagEdit::RemoveNode {
                node: field(value, "node")?,
            }),
            "add_edge" => Ok(DagEdit::AddEdge {
                from: field(value, "from")?,
                to: field(value, "to")?,
            }),
            "remove_edge" => Ok(DagEdit::RemoveEdge {
                from: field(value, "from")?,
                to: field(value, "to")?,
            }),
            "set_weights" => Ok(DagEdit::SetWeights {
                node: field(value, "node")?,
                work: opt_field(value, "work")?,
                comm: opt_field(value, "comm")?,
            }),
            other => Err(SerdeError::new(format!(
                "unknown edit op {other:?} (expected add_node, remove_node, \
                 add_edge, remove_edge or set_weights)"
            ))),
        }
    }
}

fn field<'de, T: Deserialize<'de>>(value: &Value, key: &str) -> Result<T, SerdeError> {
    match value.get(key) {
        Some(v) => {
            T::from_value(v).map_err(|e| SerdeError::new(format!("edit field {key:?}: {e}")))
        }
        None => Err(SerdeError::new(format!("edit is missing field {key:?}"))),
    }
}

/// Like [`field`], but an absent key reads as `None` (for the optional
/// `set_weights` halves).
fn opt_field<'de, T: Deserialize<'de>>(value: &Value, key: &str) -> Result<Option<T>, SerdeError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => Option::<T>::from_value(v)
            .map_err(|e| SerdeError::new(format!("edit field {key:?}: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 2);
        let x = b.add_node(2, 3);
        let y = b.add_node(3, 4);
        let d = b.add_node(4, 5);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, d).unwrap();
        b.add_edge(y, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn add_node_wires_both_sides() {
        let dag = diamond();
        let out = apply_edits(
            &dag,
            &[DagEdit::AddNode {
                work: 9,
                comm: 1,
                preds: vec![0],
                succs: vec![3],
            }],
        )
        .unwrap();
        assert_eq!(out.dag.n(), 5);
        assert_eq!(out.added, vec![4]);
        assert!(out.dag.has_edge(0, 4));
        assert!(out.dag.has_edge(4, 3));
        assert_eq!(out.dag.work(4), 9);
        assert_eq!(out.node_map, (0..4).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn remove_node_shifts_ids_and_drops_edges() {
        let dag = diamond();
        let out = apply_edits(&dag, &[DagEdit::RemoveNode { node: 1 }]).unwrap();
        assert_eq!(out.dag.n(), 3);
        assert_eq!(out.node_map, vec![Some(0), None, Some(1), Some(2)]);
        // Edges 0->2 and 2->3 survive as 0->1 and 1->2.
        assert!(out.dag.has_edge(0, 1));
        assert!(out.dag.has_edge(1, 2));
        assert_eq!(out.dag.m(), 2);
        assert_eq!(out.dag.work(1), 3, "old node 2's weight follows it");
    }

    #[test]
    fn edge_edits_validate() {
        let dag = diamond();
        assert!(apply_edits(&dag, &[DagEdit::AddEdge { from: 1, to: 2 }]).is_ok());
        assert_eq!(
            apply_edits(&dag, &[DagEdit::AddEdge { from: 0, to: 1 }]),
            Err(EditError::DuplicateEdge {
                edit: 0,
                from: 0,
                to: 1
            })
        );
        assert_eq!(
            apply_edits(&dag, &[DagEdit::AddEdge { from: 3, to: 0 }]),
            Err(EditError::WouldCycle { edit: 0 })
        );
        assert_eq!(
            apply_edits(&dag, &[DagEdit::AddEdge { from: 2, to: 2 }]),
            Err(EditError::WouldCycle { edit: 0 })
        );
        assert_eq!(
            apply_edits(&dag, &[DagEdit::RemoveEdge { from: 1, to: 2 }]),
            Err(EditError::MissingEdge {
                edit: 0,
                from: 1,
                to: 2
            })
        );
        assert_eq!(
            apply_edits(&dag, &[DagEdit::RemoveNode { node: 9 }]),
            Err(EditError::UnknownNode {
                edit: 0,
                node: 9,
                n: 4
            })
        );
    }

    #[test]
    fn add_node_cycle_through_existing_path_rejected() {
        // succ 0 reaches pred 3 (0 -> … -> 3? No: 0 reaches 3). Wire the
        // new node from 3 (pred) to 0 (succ): 0 already reaches 3, so
        // 3 -> new -> 0 closes a cycle.
        let dag = diamond();
        assert_eq!(
            apply_edits(
                &dag,
                &[DagEdit::AddNode {
                    work: 1,
                    comm: 1,
                    preds: vec![3],
                    succs: vec![0],
                }]
            ),
            Err(EditError::WouldCycle { edit: 0 })
        );
    }

    #[test]
    fn later_edits_see_what_earlier_ones_of_the_batch_did() {
        // The duplicate and cycle checks of an edit see the graph as the
        // earlier edits of the same batch left it.
        let dag = diamond();
        let add = |from, to| DagEdit::AddEdge { from, to };
        let cases: [(&[DagEdit], Result<(), EditError>); 6] = [
            // An edge added by the batch is a duplicate the second time …
            (
                &[add(1, 2), add(1, 2)],
                Err(EditError::DuplicateEdge {
                    edit: 1,
                    from: 1,
                    to: 2,
                }),
            ),
            // … and closes cycles: 1 → 2 then 2 → 1.
            (
                &[add(1, 2), add(2, 1)],
                Err(EditError::WouldCycle { edit: 1 }),
            ),
            // So does an edge a new node brought: 3 → 4, then 4 → 0.
            (
                &[
                    add(1, 2),
                    DagEdit::AddNode {
                        work: 1,
                        comm: 1,
                        preds: vec![3],
                        succs: vec![],
                    },
                    add(4, 0),
                ],
                Err(EditError::WouldCycle { edit: 2 }),
            ),
            // A removed edge is gone: it can come back, and
            // no longer carries a path (with 1 → 3 cut, 3 → 1 is fine —
            // after which 1 → 2 would close 2 → 3 → 1).
            (
                &[
                    add(1, 2),
                    DagEdit::RemoveEdge { from: 1, to: 2 },
                    DagEdit::RemoveEdge { from: 1, to: 3 },
                    add(3, 1),
                    add(1, 2),
                ],
                Err(EditError::WouldCycle { edit: 4 }),
            ),
            (
                &[add(1, 2), DagEdit::RemoveEdge { from: 1, to: 2 }, add(1, 2)],
                Ok(()),
            ),
            // Removing a node renumbers: old 2 → 3 is 1 → 2 afterwards.
            (
                &[add(1, 2), DagEdit::RemoveNode { node: 1 }, add(1, 2)],
                Err(EditError::DuplicateEdge {
                    edit: 2,
                    from: 1,
                    to: 2,
                }),
            ),
        ];
        for (edits, want) in cases {
            assert_eq!(apply_edits(&dag, edits).map(|_| ()), want, "{edits:?}");
        }
    }

    #[test]
    fn sequential_edits_compose_id_maps() {
        let dag = diamond();
        let out = apply_edits(
            &dag,
            &[
                DagEdit::RemoveNode { node: 0 },
                DagEdit::AddNode {
                    work: 5,
                    comm: 5,
                    preds: vec![0, 1],
                    succs: vec![],
                },
                DagEdit::SetWeights {
                    node: 0,
                    work: Some(11),
                    comm: None,
                },
            ],
        )
        .unwrap();
        assert_eq!(out.dag.n(), 4);
        assert_eq!(out.node_map, vec![None, Some(0), Some(1), Some(2)]);
        assert_eq!(out.added, vec![3]);
        assert_eq!(out.dag.work(0), 11);
        assert_eq!(out.dag.comm(0), 3, "set_weights comm=None keeps value");
    }

    #[test]
    fn edits_round_trip_through_json() {
        let edits = vec![
            DagEdit::AddNode {
                work: 3,
                comm: 1,
                preds: vec![0, 2],
                succs: vec![5],
            },
            DagEdit::RemoveNode { node: 4 },
            DagEdit::AddEdge { from: 1, to: 3 },
            DagEdit::RemoveEdge { from: 1, to: 3 },
            DagEdit::SetWeights {
                node: 2,
                work: Some(7),
                comm: None,
            },
        ];
        let text = json::to_string(&edits);
        let back: Vec<DagEdit> = json::from_str(&text).unwrap();
        assert_eq!(back, edits);
        assert!(json::from_str::<DagEdit>("{\"op\":\"explode\"}").is_err());
        assert!(json::from_str::<DagEdit>("{\"work\":1}").is_err());
    }
}
