//! Mutable DAG supporting the edge contractions of the multilevel scheduler.
//!
//! The multilevel coarsening phase (paper §4.5, Appendix A.5) repeatedly
//! contracts a *contractable* edge `(u, v)` — one with no alternative
//! directed path from `u` to `v` — merging `v` into `u` and summing both the
//! work and the communication weights. Contracting only contractable edges
//! guarantees the graph stays acyclic at every step, so each intermediate
//! graph admits a valid BSP schedule.
//!
//! # The journal and its inverse
//!
//! Un-coarsening walks the contractions back one at a time, so
//! [`MutableDag::contract_edge`] journals exactly what it destroys and
//! [`MutableDag::uncontract`] undoes the latest entry. Merging `v` into `u`
//! loses three things: `v`'s adjacency sets; for every neighbour `x` of
//! `v`, whether the redirected edge between `x` and `u` is *new* or was
//! already there (both `x → v` and `x → u` existed and collapsed into
//! one); and the positions of the nodes the topological order had to move
//! (below). An entry holds `v`'s predecessors and successors, each with
//! that one bit, and the moved nodes with their old positions. Weights need
//! no entry: `v`'s own weights stay in place while it is dead, so the
//! inverse subtracts them from `u` again.
//!
//! The inverse is exact because entries are undone strictly last-in
//! first-out: when an entry is popped, every later contraction has been
//! undone already, so the graph is the one `contract_edge` left behind and
//! the entry describes its whole difference to the graph before.
//! Redirected edges that were new are removed, the ones that pre-existed
//! stay, `v` gets its sets back, `u → v` returns and every moved node
//! returns to its position. Memory is one entry per contraction — never a
//! snapshot of the graph.
//!
//! # The order, and why it cannot be reused across a contraction
//!
//! A contractability search looks for `v` among the descendants of `u`'s
//! other successors. A topological numbering strictly increases along
//! every edge, so a node numbered at or above `v` cannot reach `v`, and
//! the search never expands one: it stays between `u` and `v` instead of
//! running to the sinks. But a numbering is only valid for the graph it
//! was computed on. Merging `v` into `u` hands the merged node `v`'s
//! ancestors *and* `u`'s descendants; ancestors of `v` numbered above `u`
//! and descendants of `u` numbered below `v` sit on the wrong side of
//! whichever number it keeps, and a search bounded by the old numbering
//! would miss paths through it — calling an edge contractable that closes
//! a cycle.
//!
//! So `MutableDag` owns one numbering, `ord`, and `contract_edge` repairs
//! it (Pearce & Kelly's dynamic topological order, applied to a merge):
//! with `F` = `u` and its descendants numbered below `v`, and `B` = `v`
//! and its ancestors numbered above `u` — disjoint exactly when the edge is
//! contractable — the numbers these nodes hold are redistributed among
//! them, all of `B` first, then all of `F`, each in its old relative
//! order. Nothing outside `F ∪ B` moves, so the repair costs what the
//! region between `u` and `v` costs, not the graph. Every search, at any
//! point of a coarsening, is bounded by a numbering valid for the graph it
//! runs on.

use crate::graph::{Dag, NodeId};
use crate::topo::TopoInfo;
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Adjacency-set DAG representation with node removal by merging.
///
/// Node ids are stable: contracting `(u, v)` keeps `u` alive (with merged
/// weights and adjacency) and kills `v`. [`MutableDag::compact`] converts
/// back to a dense [`Dag`] plus the id mapping.
#[derive(Debug, Clone)]
pub struct MutableDag {
    succ: Vec<BTreeSet<NodeId>>,
    pred: Vec<BTreeSet<NodeId>>,
    work: Vec<u64>,
    comm: Vec<u64>,
    alive: Vec<bool>,
    n_alive: usize,
    /// Topological position of every live node in the current graph:
    /// distinct, and `ord[x] < ord[y]` for every edge `x → y`.
    ord: Vec<u32>,
    journal: Vec<Undo>,
    scratch: RefCell<Search>,
}

/// What one contraction destroyed (see the module docs).
#[derive(Debug, Clone)]
struct Undo {
    kept: NodeId,
    merged: NodeId,
    /// `merged`'s predecessors other than `kept`, each with whether the
    /// redirected edge `p → kept` was new.
    preds: Vec<(NodeId, bool)>,
    /// `merged`'s successors, each with whether `kept → s` was new.
    succs: Vec<(NodeId, bool)>,
    /// The nodes whose position changed, each with its old one.
    moved: Vec<(NodeId, u32)>,
}

/// Visit marks of the contractability searches: a node is visited in the
/// current search iff its stamp equals `epoch`, so starting a search is one
/// increment instead of a cleared (or freshly allocated) array.
#[derive(Debug, Clone, Default)]
struct Search {
    stamp: Vec<u32>,
    /// Same stamping, for "seen as the successor of an expanded node".
    reached: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl Search {
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.reached.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Marks `v`; `true` if this search had not seen it yet.
    fn visit(&mut self, v: NodeId) -> bool {
        let fresh = self.stamp[v as usize] != self.epoch;
        self.stamp[v as usize] = self.epoch;
        fresh
    }
}

impl MutableDag {
    /// Builds a mutable copy of `dag`.
    pub fn from_dag(dag: &Dag) -> Self {
        let n = dag.n();
        // Level-major, ids ascending within a level: the searches between
        // two nodes then stay within the levels between them.
        let mut ord = vec![0u32; n];
        let by_level = TopoInfo::new(dag).level_sets().into_iter().flatten();
        for (i, v) in by_level.enumerate() {
            ord[v as usize] = i as u32;
        }
        MutableDag {
            succ: dag
                .nodes()
                .map(|v| dag.successors(v).iter().copied().collect())
                .collect(),
            pred: dag
                .nodes()
                .map(|v| dag.predecessors(v).iter().copied().collect())
                .collect(),
            work: dag.work_weights().to_vec(),
            comm: dag.comm_weights().to_vec(),
            alive: vec![true; n],
            n_alive: n,
            ord,
            journal: Vec::new(),
            scratch: RefCell::new(Search {
                stamp: vec![0; n],
                reached: vec![0; n],
                ..Search::default()
            }),
        }
    }

    /// Number of live nodes.
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// Whether node `v` is still alive (not merged away).
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v as usize]
    }

    /// Current work weight of a live node.
    pub fn work(&self, v: NodeId) -> u64 {
        self.work[v as usize]
    }

    /// Current communication weight of a live node.
    pub fn comm(&self, v: NodeId) -> u64 {
        self.comm[v as usize]
    }

    /// Successor set of a live node.
    pub fn successors(&self, v: NodeId) -> &BTreeSet<NodeId> {
        &self.succ[v as usize]
    }

    /// Predecessor set of a live node.
    pub fn predecessors(&self, v: NodeId) -> &BTreeSet<NodeId> {
        &self.pred[v as usize]
    }

    /// Iterator over live node ids in ascending order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.alive.len() as NodeId).filter(move |&v| self.alive[v as usize])
    }

    /// All current edges `(u, v)` between live nodes.
    pub fn live_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in self.live_nodes() {
            for &v in &self.succ[u as usize] {
                out.push((u, v));
            }
        }
        out
    }

    /// Whether edge `(u, v)` is contractable: `v` must not be reachable from
    /// `u` through any path other than the direct edge. Implemented as a DFS
    /// from the other successors of `u` that expands only nodes ordered
    /// before `v` — later ones cannot reach it — so it costs the region of
    /// the graph between `u` and `v` rather than the paper's worst case O(E)
    /// (Appendix A.5), and allocates nothing.
    pub fn is_contractable(&self, u: NodeId, v: NodeId) -> bool {
        self.alive[u as usize]
            && self.alive[v as usize]
            && self.succ[u as usize].contains(&v)
            && self.no_other_path(u, v, &mut self.scratch.borrow_mut())
    }

    /// Every contractable edge in deterministic (ascending) order: the
    /// edges [`MutableDag::is_contractable`] accepts, found with one search
    /// per node instead of one per edge. From all successors of `u` at
    /// once, an edge `(u, v)` has a second path exactly if `v` turns up as
    /// the successor of an expanded node; only nodes ordered before the
    /// last head still in doubt are expanded.
    pub fn contractable_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut search = self.scratch.borrow_mut();
        let search = &mut *search;
        let at = |y: NodeId| self.ord[y as usize];
        let mut out = Vec::new();
        // Heads still in doubt, last in order at the back. One with a
        // single predecessor has no second path and never enters.
        let mut open: Vec<NodeId> = Vec::new();
        for u in self.live_nodes() {
            let succs = &self.succ[u as usize];
            search.begin();
            open.clear();
            open.extend(succs.iter().filter(|&&v| self.pred[v as usize].len() > 1));
            open.sort_unstable_by_key(|&v| at(v));
            if let Some(&last) = open.last() {
                let mut bound = at(last);
                for &w in succs {
                    if at(w) < bound && search.visit(w) {
                        search.stack.push(w);
                    }
                }
                while let Some(x) = search.stack.pop() {
                    if at(x) >= bound {
                        continue;
                    }
                    for &y in &self.succ[x as usize] {
                        search.reached[y as usize] = search.epoch;
                        if at(y) < bound && search.visit(y) {
                            search.stack.push(y);
                        }
                    }
                    while open
                        .last()
                        .is_some_and(|&h| search.reached[h as usize] == search.epoch)
                    {
                        open.pop();
                    }
                    match open.last() {
                        Some(&h) => bound = at(h),
                        None => break,
                    }
                }
            }
            let reached = |v: NodeId| search.reached[v as usize] == search.epoch;
            out.extend(succs.iter().filter(|&&v| !reached(v)).map(|&v| (u, v)));
        }
        out
    }

    /// Whether the existing edge `(u, v)` is the only path from `u` to `v`.
    fn no_other_path(&self, u: NodeId, v: NodeId, search: &mut Search) -> bool {
        // Fast path: if v's only predecessor is u there can be no other path.
        if self.pred[v as usize].len() == 1 {
            return true;
        }
        let before_v = |y: NodeId| self.ord[y as usize] < self.ord[v as usize];
        search.begin();
        for &w in &self.succ[u as usize] {
            if before_v(w) && search.visit(w) {
                search.stack.push(w);
            }
        }
        while let Some(x) = search.stack.pop() {
            for &y in &self.succ[x as usize] {
                if y == v {
                    return false;
                }
                if before_v(y) && search.visit(y) {
                    search.stack.push(y);
                }
            }
        }
        true
    }

    /// Makes `ord` valid for the graph with the contractable edge `(u, v)`
    /// merged (see the module docs) and returns the nodes it moved with
    /// their old positions.
    fn reorder_for_merge(&mut self, u: NodeId, v: NodeId) -> Vec<(NodeId, u32)> {
        let (lo, hi) = (self.ord[u as usize], self.ord[v as usize]);
        let after_v = |s: &NodeId| *s == v || self.ord[*s as usize] > hi;
        if self.succ[u as usize].iter().all(after_v) {
            // Every other successor of u already follows v: the merged node
            // can take v's place.
            self.ord[u as usize] = hi;
            return vec![(u, lo)];
        }
        let search = self.scratch.get_mut();
        search.begin();
        // B: v and its ancestors ordered after u …
        let mut region = Vec::new();
        search.stack.push(v);
        while let Some(x) = search.stack.pop() {
            region.push(x);
            for &y in &self.pred[x as usize] {
                if self.ord[y as usize] > lo && search.visit(y) {
                    search.stack.push(y);
                }
            }
        }
        let n_b = region.len();
        // … then F: u and its descendants ordered before v.
        search.stack.push(u);
        while let Some(x) = search.stack.pop() {
            region.push(x);
            for &y in &self.succ[x as usize] {
                if self.ord[y as usize] < hi && search.visit(y) {
                    search.stack.push(y);
                }
            }
        }
        region[..n_b].sort_unstable_by_key(|&x| self.ord[x as usize]);
        region[n_b..].sort_unstable_by_key(|&x| self.ord[x as usize]);
        let mut slots: Vec<u32> = region.iter().map(|&x| self.ord[x as usize]).collect();
        slots.sort_unstable();
        let mut moved = Vec::new();
        for (&x, &slot) in region.iter().zip(&slots) {
            let old = std::mem::replace(&mut self.ord[x as usize], slot);
            if old != slot {
                moved.push((x, old));
            }
        }
        moved
    }

    /// Contracts the edge `(u, v)`: merges `v` into `u`, summing work and
    /// communication weights and unioning adjacency (paper A.5: both weight
    /// kinds are summed; the summed `c` is an upper bound on real traffic).
    /// The change is journaled for [`MutableDag::uncontract`].
    ///
    /// # Panics
    /// Panics if the edge does not exist between live nodes. Contractability
    /// is the caller's responsibility (checked in debug builds); contracting
    /// a non-contractable edge would create a cycle.
    pub fn contract_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            self.alive[u as usize] && self.alive[v as usize],
            "endpoints must be alive"
        );
        assert!(self.succ[u as usize].contains(&v), "edge must exist");
        debug_assert!(
            self.is_contractable(u, v),
            "contracting ({u},{v}) would create a cycle"
        );
        let moved = self.reorder_for_merge(u, v);
        let (ui, vi) = (u as usize, v as usize);
        self.succ[ui].remove(&v);
        self.pred[vi].remove(&u);
        // Redirect v's predecessors to u.
        let mut preds = Vec::with_capacity(self.pred[vi].len());
        for p in std::mem::take(&mut self.pred[vi]) {
            self.succ[p as usize].remove(&v);
            let new = self.succ[p as usize].insert(u);
            if new {
                self.pred[ui].insert(p);
            }
            preds.push((p, new));
        }
        // Redirect v's successors to come from u.
        let mut succs = Vec::with_capacity(self.succ[vi].len());
        for s in std::mem::take(&mut self.succ[vi]) {
            self.pred[s as usize].remove(&v);
            let new = self.pred[s as usize].insert(u);
            if new {
                self.succ[ui].insert(s);
            }
            succs.push((s, new));
        }
        self.work[ui] += self.work[vi];
        self.comm[ui] += self.comm[vi];
        self.alive[vi] = false;
        self.n_alive -= 1;
        debug_assert!(
            self.ordered_around(u) && moved.iter().all(|&(x, _)| self.ordered_around(x)),
            "merging ({u},{v}) left the order invalid"
        );
        self.journal.push(Undo {
            kept: u,
            merged: v,
            preds,
            succs,
            moved,
        });
    }

    /// Whether `x` sits after its predecessors and before its successors
    /// (trivially so while it is dead and has neither).
    fn ordered_around(&self, x: NodeId) -> bool {
        let at = self.ord[x as usize];
        self.pred[x as usize]
            .iter()
            .all(|&p| self.ord[p as usize] < at)
            && self.succ[x as usize]
                .iter()
                .all(|&s| at < self.ord[s as usize])
    }

    /// Undoes the most recent contraction not yet undone and returns its
    /// `(kept, merged)` pair, or `None` once the graph is back to the one
    /// it was built from. The exact inverse of
    /// [`MutableDag::contract_edge`]: adjacency, weights and liveness are
    /// restored to the state before that call (and so is the order the
    /// searches rely on).
    pub fn uncontract(&mut self) -> Option<(NodeId, NodeId)> {
        let Undo {
            kept: u,
            merged: v,
            preds,
            succs,
            moved,
        } = self.journal.pop()?;
        let (ui, vi) = (u as usize, v as usize);
        for &(p, new) in &preds {
            if new {
                self.succ[p as usize].remove(&u);
                self.pred[ui].remove(&p);
            }
            self.succ[p as usize].insert(v);
        }
        for &(s, new) in &succs {
            if new {
                self.pred[s as usize].remove(&u);
                self.succ[ui].remove(&s);
            }
            self.pred[s as usize].insert(v);
        }
        self.pred[vi] = preds.into_iter().map(|(p, _)| p).collect();
        self.pred[vi].insert(u);
        self.succ[vi] = succs.into_iter().map(|(s, _)| s).collect();
        self.succ[ui].insert(v);
        self.work[ui] -= self.work[vi];
        self.comm[ui] -= self.comm[vi];
        self.alive[vi] = true;
        self.n_alive += 1;
        for (x, old) in moved {
            self.ord[x as usize] = old;
        }
        debug_assert!(
            self.ordered_around(u) && self.ordered_around(v),
            "undoing ({u},{v}) left the order invalid"
        );
        Some((u, v))
    }

    /// Extracts a dense [`Dag`] of the live nodes together with the mapping
    /// `old id -> Some(new id)` (dead nodes map to `None`). Live nodes keep
    /// their relative id order.
    pub fn compact(&self) -> (Dag, Vec<Option<NodeId>>) {
        crate::calls::note("MutableDag::compact");
        let mut map = vec![None; self.alive.len()];
        let mut work = Vec::with_capacity(self.n_alive);
        let mut comm = Vec::with_capacity(self.n_alive);
        for (new, old) in self.live_nodes().enumerate() {
            map[old as usize] = Some(new as NodeId);
            work.push(self.work[old as usize]);
            comm.push(self.comm[old as usize]);
        }
        let mut edges = Vec::new();
        for u in self.live_nodes() {
            for &v in &self.succ[u as usize] {
                edges.push((map[u as usize].unwrap(), map[v as usize].unwrap()));
            }
        }
        (Dag::from_parts(self.n_alive, edges, work, comm), map)
    }

    /// The current graph over the original ids: a live node has its merged
    /// weights and edges, a dead one stays as an isolated node of weight 0.
    /// Live nodes in ascending id, with their edges, are
    /// [`MutableDag::compact`]'s graph. A walk that undoes contractions
    /// keeps this graph up to date with [`MutableDag::restage`] instead of
    /// extracting a new one per stage.
    pub fn stage_by_id(&self) -> Dag {
        crate::calls::note("MutableDag::stage_by_id");
        let n = self.alive.len();
        let edges = self
            .live_nodes()
            .flat_map(|u| self.succ[u as usize].iter().map(move |&v| (u, v)))
            .collect();
        let (work, comm) = (0..n as NodeId).map(|v| self.stage_weights(v)).unzip();
        Dag::from_parts(n, edges, work, comm)
    }

    /// `(w(v), c(v))` in [`MutableDag::stage_by_id`]: 0 for a dead node.
    fn stage_weights(&self, v: NodeId) -> (u64, u64) {
        match self.alive[v as usize] {
            true => (self.work[v as usize], self.comm[v as usize]),
            false => (0, 0),
        }
    }

    /// Brings `stage`, a [`MutableDag::stage_by_id`] of this graph, up to
    /// date after [`MutableDag::uncontract`] calls. `rows` must hold every
    /// node whose weights or edges changed since: both nodes of each undone
    /// contraction and every neighbour of the revived one. It is sorted and
    /// deduplicated here. Costs the rewritten rows plus one copy of the
    /// adjacency arrays ([`crate::graph::rewrite_csr_rows`]).
    pub fn restage(&self, stage: &mut Dag, rows: &mut Vec<NodeId>) {
        debug_assert_eq!(stage.n(), self.alive.len());
        rows.sort_unstable();
        rows.dedup();
        stage.rewrite_nodes(
            rows,
            |v| self.stage_weights(v),
            |v, out| out.extend(&self.succ[v as usize]),
            |v, out| out.extend(&self.pred[v as usize]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 10);
        let x = b.add_node(2, 20);
        let y = b.add_node(3, 30);
        let d = b.add_node(4, 40);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, d).unwrap();
        b.add_edge(y, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_contractability() {
        let m = MutableDag::from_dag(&diamond());
        // Every edge of the plain diamond is contractable (no alternative paths).
        assert_eq!(m.contractable_edges().len(), 4);
    }

    #[test]
    fn direct_edge_with_alternative_path_is_not_contractable() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2: contracting (0,2) would create a cycle.
        let mut b = DagBuilder::new();
        for _ in 0..3 {
            b.add_node(1, 1);
        }
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(0, 2).unwrap();
        let m = MutableDag::from_dag(&b.build().unwrap());
        assert!(!m.is_contractable(0, 2));
        assert!(m.is_contractable(0, 1));
        assert!(m.is_contractable(1, 2));
    }

    #[test]
    fn contraction_merges_weights_and_adjacency() {
        let dag = diamond();
        let mut m = MutableDag::from_dag(&dag);
        m.contract_edge(0, 1); // merge x into a
        assert_eq!(m.n_alive(), 3);
        assert!(!m.is_alive(1));
        assert_eq!(m.work(0), 3);
        assert_eq!(m.comm(0), 30);
        // a now points at both y(2) and d(3).
        assert!(m.successors(0).contains(&2));
        assert!(m.successors(0).contains(&3));
        let (c, map) = m.compact();
        assert_eq!(c.n(), 3);
        assert_eq!(map[1], None);
        assert_eq!(c.m(), 3); // a->y, a->d, y->d
    }

    #[test]
    fn contraction_to_single_node() {
        let dag = diamond();
        let mut m = MutableDag::from_dag(&dag);
        while m.n_alive() > 1 {
            let (u, v) = m.contractable_edges()[0];
            m.contract_edge(u, v);
        }
        let (c, _) = m.compact();
        assert_eq!(c.n(), 1);
        assert_eq!(c.m(), 0);
        assert_eq!(c.work(0), dag.total_work());
        assert_eq!(c.comm(0), dag.total_comm());
    }

    #[test]
    fn contraction_never_creates_cycle() {
        // Grid-ish DAG; contract greedily and ensure compact() stays buildable
        // (from_parts debug asserts rely on builder, so rebuild via builder).
        let mut b = DagBuilder::new();
        let v: Vec<_> = (0..9).map(|_| b.add_node(1, 1)).collect();
        for r in 0..2 {
            for c in 0..2 {
                let i = r * 3 + c;
                b.add_edge(v[i], v[i + 1]).unwrap();
                b.add_edge(v[i], v[i + 3]).unwrap();
            }
        }
        let dag = b.build().unwrap();
        let mut m = MutableDag::from_dag(&dag);
        for _ in 0..5 {
            let edges = m.contractable_edges();
            if edges.is_empty() {
                break;
            }
            let (u, v) = edges[0];
            m.contract_edge(u, v);
            let (c, _) = m.compact();
            // Rebuild through the cycle-checking builder.
            let mut rb = DagBuilder::new();
            for i in 0..c.n() {
                rb.add_node(c.work(i as NodeId), c.comm(i as NodeId));
            }
            for (x, y) in c.edges() {
                rb.add_edge(x, y).unwrap();
            }
            assert!(rb.build().is_ok());
        }
    }

    #[test]
    fn uncontract_keeps_edges_that_predate_the_redirect() {
        // 0 -> 1 -> 2 -> 3 with 0 -> 2 and 1 -> 3: contracting (1, 2)
        // collapses 0 -> 2 onto the existing 0 -> 1, and 2 -> 3 onto 1 -> 3.
        let mut b = DagBuilder::new();
        for w in 1..=4 {
            b.add_node(w, 10 * w);
        }
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)] {
            b.add_edge(u, v).unwrap();
        }
        let dag = b.build().unwrap();
        let mut m = MutableDag::from_dag(&dag);
        m.contract_edge(1, 2);
        assert_eq!(m.live_edges(), [(0, 1), (1, 3)]);
        assert_eq!(m.uncontract(), Some((1, 2)));
        assert_eq!(m.uncontract(), None);
        assert_eq!((m.work(1), m.comm(1)), (2, 20));
        assert_eq!(m.compact().0, dag);
    }

    #[test]
    fn uncontract_walks_a_merge_chain_back() {
        // Chain 0 -> 1 -> 2 -> 3 folded into its head: node 1 is merged
        // away after it has itself absorbed node 2.
        let mut b = DagBuilder::new();
        for w in 1..=4 {
            b.add_node(w, w);
        }
        for v in 0..3 {
            b.add_edge(v, v + 1).unwrap();
        }
        let dag = b.build().unwrap();
        let mut m = MutableDag::from_dag(&dag);
        for (u, v) in [(1, 2), (0, 1), (0, 3)] {
            m.contract_edge(u, v);
        }
        assert_eq!((m.n_alive(), m.work(0)), (1, 10));
        assert_eq!(m.uncontract(), Some((0, 3)));
        assert_eq!(m.uncontract(), Some((0, 1)));
        assert_eq!((m.work(0), m.work(1)), (1, 5));
        assert_eq!(m.live_edges(), [(0, 1), (1, 3)]);
        assert_eq!(m.uncontract(), Some((1, 2)));
        assert_eq!(m.compact().0, dag);
    }

    /// Restaging after every undo keeps the stage by id equal to a fresh
    /// one, and its live part equal to the compacted graph.
    #[test]
    fn restage_follows_every_undo() {
        let dag = crate::random::random_order_dag(5, 40, 0.15, 7, 5);
        let mut m = MutableDag::from_dag(&dag);
        while let Some(&(u, v)) = m.contractable_edges().first() {
            m.contract_edge(u, v);
        }
        let mut stage = m.stage_by_id();
        let live: Vec<NodeId> = m.live_nodes().collect();
        assert_eq!(stage.induced_subgraph(&live).0, m.compact().0);
        let mut rows = Vec::new();
        for batch in [1, 3, 2, usize::MAX] {
            for _ in 0..batch {
                let Some((u, v)) = m.uncontract() else { break };
                rows.extend([u, v]);
                rows.extend(&m.pred[v as usize]);
                rows.extend(&m.succ[v as usize]);
            }
            m.restage(&mut stage, &mut rows);
            rows.clear();
            assert_eq!(stage, m.stage_by_id());
        }
        assert_eq!(stage, dag);
    }

    #[test]
    fn single_pred_fast_path() {
        // chain 0 -> 1 -> 2: (0,1) contractable via fast path.
        let mut b = DagBuilder::new();
        for _ in 0..3 {
            b.add_node(1, 1);
        }
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let m = MutableDag::from_dag(&b.build().unwrap());
        assert!(m.is_contractable(0, 1));
    }
}
