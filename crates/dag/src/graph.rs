//! CSR-backed DAG with node weights: immutable but for [`Dag::append`],
//! which grows it by nodes that only consume, and the row rewrites with
//! which [`crate::MutableDag::restage`] follows an un-coarsening walk.

use crate::builder::DagError;
use serde::{Deserialize, Serialize};

/// Node identifier. DAGs in this framework are bounded well below `u32::MAX`
/// nodes (the paper's largest dataset has 100 000), so a 32-bit id keeps the
/// CSR arrays compact and cache-friendly.
pub type NodeId = u32;

/// A weighted computational DAG in compressed sparse row form.
///
/// Both successor and predecessor adjacency are stored so that schedulers can
/// iterate either direction in O(degree). Edges within each adjacency list
/// are sorted and deduplicated. Node `v` carries a work weight `w(v)` and a
/// communication weight `c(v)` (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dag {
    succ_offsets: Vec<u32>,
    succ: Vec<NodeId>,
    pred_offsets: Vec<u32>,
    pred: Vec<NodeId>,
    work: Vec<u64>,
    comm: Vec<u64>,
}

impl Dag {
    /// Builds a `Dag` directly from parts. `edges` must describe an acyclic
    /// graph; this is checked by [`crate::DagBuilder`], which is the public
    /// construction path.
    pub(crate) fn from_parts(
        n: usize,
        mut edges: Vec<(NodeId, NodeId)>,
        work: Vec<u64>,
        comm: Vec<u64>,
    ) -> Self {
        debug_assert_eq!(work.len(), n);
        debug_assert_eq!(comm.len(), n);
        edges.sort_unstable();
        edges.dedup();

        let mut succ_offsets = vec![0u32; n + 1];
        for &(u, _) in &edges {
            succ_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let succ: Vec<NodeId> = edges.iter().map(|&(_, v)| v).collect();

        let mut pred_offsets = vec![0u32; n + 1];
        for &(_, v) in &edges {
            pred_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            pred_offsets[i + 1] += pred_offsets[i];
        }
        let mut cursor = pred_offsets.clone();
        let mut pred = vec![0 as NodeId; edges.len()];
        for &(u, v) in &edges {
            let slot = cursor[v as usize] as usize;
            pred[slot] = u;
            cursor[v as usize] += 1;
        }

        Dag {
            succ_offsets,
            succ,
            pred_offsets,
            pred,
            work,
            comm,
        }
    }

    /// Appends a batch of nodes in place: node `i` of `nodes` — a `(work,
    /// comm, predecessors)` triple — receives id `n() + i`, and each of its
    /// predecessors must be a smaller id (an existing node or an earlier
    /// node of the batch). The result is the `Dag` a [`crate::DagBuilder`]
    /// rebuild of the old edges plus the new ones would give, field for
    /// field: predecessor lists are sorted and deduplicated as the builder
    /// does. No edge list is sorted, no Kahn pass and no cycle search runs
    /// — an edge into a fresh largest id cannot close a cycle. The
    /// predecessor CSR is only pushed to; the successor CSR is shifted once
    /// for the whole batch, from the smallest producer that gained a
    /// consumer ([`append_to_csr`]). Allocates in proportion to the batch.
    ///
    /// Fails, leaving the graph untouched, if a predecessor is not a
    /// smaller id.
    pub fn append(&mut self, nodes: &[(u64, u64, &[NodeId])]) -> Result<(), DagError> {
        let n0 = self.n();
        for (i, &(_, _, preds)) in nodes.iter().enumerate() {
            let id = (n0 + i) as NodeId;
            if let Some(&u) = preds.iter().find(|&&u| u >= id) {
                return Err(if u == id {
                    DagError::SelfLoop(u)
                } else {
                    DagError::UnknownNode(u)
                });
            }
        }
        let mut gained: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, &(work, comm, preds)) in nodes.iter().enumerate() {
            let lo = self.pred.len();
            self.pred.extend_from_slice(preds);
            self.pred[lo..].sort_unstable();
            let mut keep = lo;
            for j in lo..self.pred.len() {
                if j == lo || self.pred[j] != self.pred[keep - 1] {
                    self.pred[keep] = self.pred[j];
                    keep += 1;
                }
            }
            self.pred.truncate(keep);
            self.pred_offsets.push(keep as u32);
            self.work.push(work);
            self.comm.push(comm);
            let id = (n0 + i) as NodeId;
            gained.extend(self.pred[lo..].iter().map(|&u| (u, id)));
        }
        gained.sort_unstable();
        append_to_csr(
            &mut self.succ_offsets,
            &mut self.succ,
            self.work.len(),
            &gained,
        );
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.work.len()
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.succ.len()
    }

    /// Work weight `w(v)`.
    #[inline]
    pub fn work(&self, v: NodeId) -> u64 {
        self.work[v as usize]
    }

    /// Communication weight `c(v)` — size of `v`'s output.
    #[inline]
    pub fn comm(&self, v: NodeId) -> u64 {
        self.comm[v as usize]
    }

    /// Direct successors (out-neighbours) of `v`, sorted ascending.
    #[inline]
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.succ[self.succ_offsets[v] as usize..self.succ_offsets[v + 1] as usize]
    }

    /// Direct predecessors (in-neighbours) of `v`, sorted ascending.
    #[inline]
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.pred[self.pred_offsets[v] as usize..self.pred_offsets[v + 1] as usize]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.successors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.predecessors(v).len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n() as NodeId
    }

    /// Iterator over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// Whether the edge `(u, v)` exists. O(log out-degree).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.successors(u).binary_search(&v).is_ok()
    }

    /// Source nodes (in-degree 0).
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Sink nodes (out-degree 0).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Sum of all work weights.
    pub fn total_work(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Sum of all communication weights.
    pub fn total_comm(&self) -> u64 {
        self.comm.iter().sum()
    }

    /// All work weights as a slice.
    #[inline]
    pub fn work_weights(&self) -> &[u64] {
        &self.work
    }

    /// All communication weights as a slice.
    #[inline]
    pub fn comm_weights(&self) -> &[u64] {
        &self.comm
    }

    /// Returns the sub-DAG induced by `keep` (a set of node ids) together
    /// with the mapping `old id -> new id`. Nodes not in `keep` and edges
    /// touching them are dropped; relative order of ids is preserved.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Dag, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.n()];
        let mut sorted = keep.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (new, &old) in sorted.iter().enumerate() {
            map[old as usize] = Some(new as NodeId);
        }
        let work: Vec<u64> = sorted.iter().map(|&v| self.work(v)).collect();
        let comm: Vec<u64> = sorted.iter().map(|&v| self.comm(v)).collect();
        let mut edges = Vec::new();
        for &u in &sorted {
            for &v in self.successors(u) {
                if let (Some(nu), Some(nv)) = (map[u as usize], map[v as usize]) {
                    edges.push((nu, nv));
                }
            }
        }
        (Dag::from_parts(sorted.len(), edges, work, comm), map)
    }

    /// Replaces the weights and both adjacency rows of every node in
    /// `rows` (ascending, distinct): `weights(v)` is `(w(v), c(v))`, and
    /// `succ` / `pred` push `v`'s new successors / predecessors, sorted and
    /// deduplicated. The caller keeps the graph acyclic and the two
    /// directions in agreement ([`crate::MutableDag::restage`] is the one
    /// caller). One pass of [`rewrite_csr_rows`] per direction.
    pub(crate) fn rewrite_nodes(
        &mut self,
        rows: &[NodeId],
        weights: impl Fn(NodeId) -> (u64, u64),
        succ: impl FnMut(NodeId, &mut Vec<NodeId>),
        pred: impl FnMut(NodeId, &mut Vec<NodeId>),
    ) {
        for &v in rows {
            (self.work[v as usize], self.comm[v as usize]) = weights(v);
        }
        rewrite_csr_rows(&mut self.succ_offsets, &mut self.succ, rows, succ);
        rewrite_csr_rows(&mut self.pred_offsets, &mut self.pred, rows, pred);
    }
}

/// Rewrites the rows `rows` (ascending, distinct) of a CSR array: row `r`
/// gets the entries `fill(r, out)` pushes onto `out`, and every other row
/// keeps its own, copied over as one block per run of untouched rows.
/// `O(n + entries)`: one copy into a fresh data array and one pass over the
/// offsets from the first rewritten row. Like [`append_to_csr`], it is
/// public for the structures that mirror a successor CSR row for row.
pub fn rewrite_csr_rows<T: Copy>(
    offsets: &mut [u32],
    data: &mut Vec<T>,
    rows: &[NodeId],
    mut fill: impl FnMut(NodeId, &mut Vec<T>),
) {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
    let Some(&first) = rows.first() else {
        return;
    };
    let mut out = Vec::with_capacity(data.len());
    // `data[..copied]` is in `out`; `offsets[..=fixed]` are new offsets,
    // the rest still old ones.
    let (mut copied, mut fixed) = (0, first as usize);
    for &r in rows {
        let r = r as usize;
        let (lo, hi) = (offsets[r] as usize, offsets[r + 1] as usize);
        out.extend_from_slice(&data[copied..lo]);
        let start = out.len() as u32;
        for o in &mut offsets[fixed + 1..=r] {
            *o = *o + start - lo as u32;
        }
        offsets[r] = start;
        fill(r as NodeId, &mut out);
        (copied, fixed) = (hi, r);
    }
    out.extend_from_slice(&data[copied..]);
    let end = out.len() as u32;
    for o in &mut offsets[fixed + 1..] {
        *o = *o + end - data.len() as u32;
    }
    *data = out;
}

/// Grows a CSR adjacency in place to `n` rows, appending the entries of
/// `gained` — `(row, value)` pairs sorted by row — to the *end* of their
/// rows, in the order given. Rows may be existing ones or new ones (which
/// start empty). One backward pass moves each block of untouched rows with
/// a single `memmove`, and nothing below the smallest row that gained an
/// entry is touched, so a batch that extends recent rows costs its own
/// size, not the array's.
///
/// This is the successor-side step of [`Dag::append`]; it is public
/// because a structure that mirrors the successor CSR row for row (the
/// consumer arena of `bsp_core`'s `ScheduleState`) has to grow the same way.
pub fn append_to_csr<T: Copy>(
    offsets: &mut Vec<u32>,
    data: &mut Vec<T>,
    n: usize,
    gained: &[(NodeId, T)],
) {
    debug_assert!(gained.windows(2).all(|w| w[0].0 <= w[1].0));
    debug_assert!(gained.last().is_none_or(|&(u, _)| (u as usize) < n));
    let Some(&(_, fill)) = gained.first() else {
        let end = data.len() as u32;
        offsets.resize(n + 1, end);
        return;
    };
    // New rows start out empty at the old end; the pass below shifts them.
    let mut end = data.len();
    offsets.resize(n + 1, end as u32);
    data.resize(end + gained.len(), fill);
    // `e`: entries of `gained` still to place, all in rows ≤ the current
    // one; `top`: `offsets[..=top]` are still in old coordinates; `end`:
    // old end of the rows that have not moved yet.
    let (mut e, mut top) = (gained.len(), n);
    while e > 0 {
        let u = gained[e - 1].0 as usize;
        let j = gained[..e].partition_point(|&(r, _)| (r as usize) < u);
        // Rows u+1..=top start after all `e` remaining entries; row `u`
        // keeps its old entries where the `j` entries of lower rows put
        // them and takes `gained[j..e]` right behind.
        let start = offsets[u + 1] as usize;
        data.copy_within(start..end, start + e);
        for (slot, &(_, x)) in data[start + j..start + e].iter_mut().zip(&gained[j..e]) {
            *slot = x;
        }
        for o in &mut offsets[u + 1..=top] {
            *o += e as u32;
        }
        (top, end, e) = (u, start, j);
    }
}

#[cfg(test)]
mod tests {
    use crate::DagBuilder;

    fn diamond() -> crate::Dag {
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
    fn adjacency_is_consistent() {
        let d = diamond();
        assert_eq!(d.n(), 4);
        assert_eq!(d.m(), 4);
        assert_eq!(d.successors(0), &[1, 2]);
        assert_eq!(d.predecessors(3), &[1, 2]);
        assert_eq!(d.in_degree(0), 0);
        assert_eq!(d.out_degree(3), 0);
        assert!(d.has_edge(0, 1));
        assert!(!d.has_edge(1, 0));
    }

    #[test]
    fn weights_and_totals() {
        let d = diamond();
        assert_eq!(d.work(2), 3);
        assert_eq!(d.comm(2), 4);
        assert_eq!(d.total_work(), 10);
        assert_eq!(d.total_comm(), 14);
    }

    #[test]
    fn sources_and_sinks() {
        let d = diamond();
        assert_eq!(d.sources(), vec![0]);
        assert_eq!(d.sinks(), vec![3]);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 1);
        let c = b.add_node(1, 1);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.m(), 1);
    }

    #[test]
    fn induced_subgraph_remaps_edges() {
        let d = diamond();
        let (sub, map) = d.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sub.n(), 3);
        // surviving edges: 0->1 and 1->3 (old ids) => (0,1), (1,2) new.
        assert_eq!(sub.m(), 2);
        assert_eq!(map[0], Some(0));
        assert_eq!(map[2], None);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
    }

    #[test]
    fn append_equals_a_rebuild_and_rejects_forward_references() {
        let mut d = diamond();
        // Node 4 consumes 0 and (twice) 3; node 5 consumes 4 of the batch.
        d.append(&[(7, 1, &[3, 0, 3]), (8, 2, &[4]), (9, 3, &[])])
            .unwrap();
        let mut b = DagBuilder::new();
        for (w, c) in [(1, 2), (2, 3), (3, 4), (4, 5), (7, 1), (8, 2), (9, 3)] {
            b.add_node(w, c);
        }
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (3, 4), (4, 5)] {
            b.add_edge(u, v).unwrap();
        }
        assert_eq!(d, b.build().unwrap());
        assert_eq!(d.successors(0), &[1, 2, 4]);
        assert_eq!(d.predecessors(4), &[0, 3]);

        let before = d.clone();
        assert_eq!(
            d.append(&[(1, 1, &[]), (1, 1, &[9])]),
            Err(crate::DagError::UnknownNode(9))
        );
        assert_eq!(d.append(&[(1, 1, &[7])]), Err(crate::DagError::SelfLoop(7)));
        assert_eq!(d, before, "a rejected batch leaves the graph untouched");
    }

    #[test]
    fn edges_iterator_matches_m() {
        let d = diamond();
        assert_eq!(d.edges().count(), d.m());
    }
}
