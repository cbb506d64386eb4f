//! Coarse-grained DAG extraction via a recording GraphBLAS-like algebra
//! (paper §5, Appendix B.1).
//!
//! [`Ctx`] owns a trace; every container ([`Matrix`], [`Vector`],
//! [`Scalar`]) remembers the trace node that produced it, and every
//! primitive operation appends one node with edges from its operands —
//! while also *actually computing* the result, so iterative algorithms run
//! their real control flow (including convergence tests). This is the same
//! extraction mechanism as the paper's hyperDAG GraphBLAS backend, at
//! miniature scale.
//!
//! [`algorithms`] provides the paper's algorithm families: conjugate
//! gradient, BiCGStab, PageRank, label propagation, and k-hop reachability,
//! each runnable for a fixed iteration count or until convergence.

use crate::weights::build_with_db_weights;
use bsp_dag::traversal::largest_component;
use bsp_dag::{Dag, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct Trace {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

/// Recording context. Containers created from the same context share one
/// trace.
#[derive(Debug, Clone, Default)]
pub struct Ctx {
    trace: Rc<RefCell<Trace>>,
}

impl Ctx {
    /// Fresh context with an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    fn record(&self, inputs: &[NodeId]) -> NodeId {
        let mut t = self.trace.borrow_mut();
        let id = t.n as NodeId;
        t.n += 1;
        // Dedupe: an op may read the same container twice (e.g. r·r), but
        // the DAG carries a single precedence edge per (producer, consumer).
        let mut seen: Vec<NodeId> = Vec::with_capacity(inputs.len());
        for &i in inputs {
            if !seen.contains(&i) {
                seen.push(i);
                t.edges.push((i, id));
            }
        }
        id
    }

    /// Number of trace nodes recorded so far.
    pub fn len(&self) -> usize {
        self.trace.borrow().n
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Creates a sparse matrix container (one source node).
    pub fn matrix(&self, n: usize, rows: Vec<Vec<(u32, f64)>>) -> Matrix {
        assert_eq!(rows.len(), n);
        Matrix {
            ctx: self.clone(),
            id: self.record(&[]),
            n,
            rows,
        }
    }

    /// Creates a dense vector container (one source node).
    pub fn vector(&self, data: Vec<f64>) -> Vector {
        Vector {
            ctx: self.clone(),
            id: self.record(&[]),
            data,
        }
    }

    /// Creates a scalar container (one source node).
    pub fn scalar(&self, value: f64) -> Scalar {
        Scalar {
            ctx: self.clone(),
            id: self.record(&[]),
            value,
        }
    }

    /// Extracts the coarse-grained DAG recorded so far: database weights
    /// applied, restricted to the largest weakly connected component
    /// (Appendix B.1's cleanup of incompletely tracked traces).
    pub fn extract_dag(&self) -> Dag {
        let t = self.trace.borrow();
        let full = build_with_db_weights(t.n, &t.edges);
        largest_component(&full).0
    }
}

/// Sparse matrix container (value-carrying, trace-recorded).
#[derive(Debug, Clone)]
pub struct Matrix {
    ctx: Ctx,
    id: NodeId,
    n: usize,
    rows: Vec<Vec<(u32, f64)>>,
}

/// Dense vector container.
#[derive(Debug, Clone)]
pub struct Vector {
    ctx: Ctx,
    id: NodeId,
    data: Vec<f64>,
}

/// Scalar container.
#[derive(Debug, Clone)]
pub struct Scalar {
    ctx: Ctx,
    id: NodeId,
    value: f64,
}

impl Matrix {
    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Plus-times sparse matrix × dense vector.
    pub fn mxv(&self, v: &Vector) -> Vector {
        assert_eq!(self.n, v.data.len());
        let data = self
            .rows
            .iter()
            .map(|r| r.iter().map(|&(j, a)| a * v.data[j as usize]).sum())
            .collect();
        Vector {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, v.id]),
            data,
        }
    }

    /// Max-times semiring product — the propagation step of label
    /// propagation / k-hop reachability.
    pub fn mxv_max(&self, v: &Vector) -> Vector {
        let data = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|&(j, a)| a * v.data[j as usize])
                    .fold(0.0f64, f64::max)
            })
            .collect();
        Vector {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, v.id]),
            data,
        }
    }
}

impl Vector {
    /// Length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Current values (for assertions; reading does not record).
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Dot product.
    pub fn dot(&self, other: &Vector) -> Scalar {
        let value = self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum();
        Scalar {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, other.id]),
            value,
        }
    }

    /// `self + alpha · other`.
    pub fn plus_scaled(&self, alpha: &Scalar, other: &Vector) -> Vector {
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + alpha.value * b)
            .collect();
        Vector {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, alpha.id, other.id]),
            data,
        }
    }

    /// Element-wise maximum with `other`.
    pub fn ewise_max(&self, other: &Vector) -> Vector {
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a.max(*b))
            .collect();
        Vector {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, other.id]),
            data,
        }
    }

    /// `diff = Σ |self - other|` as a recorded scalar (convergence checks).
    pub fn abs_diff(&self, other: &Vector) -> Scalar {
        let value = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .sum();
        Scalar {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, other.id]),
            value,
        }
    }
}

impl Scalar {
    /// Current value (reading does not record).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Ratio `self / other`.
    pub fn div(&self, other: &Scalar) -> Scalar {
        Scalar {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id, other.id]),
            value: self.value / other.value,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Scalar {
        Scalar {
            ctx: self.ctx.clone(),
            id: self.ctx.record(&[self.id]),
            value: -self.value,
        }
    }
}

/// The paper's coarse-grained algorithm families, run on the recording
/// algebra.
pub mod algorithms {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// How long to iterate: a fixed count (the paper extracts 3-iteration
    /// variants) or until the algorithm's own convergence test passes.
    #[derive(Debug, Clone, Copy)]
    pub enum Iterations {
        /// Exactly this many iterations.
        Fixed(usize),
        /// Until convergence with the given tolerance, capped by the count.
        Converge(f64, usize),
    }

    /// Symmetric positive-definite matrix with random sparsity `q`
    /// (diagonally dominant), for CG.
    pub fn spd_matrix(ctx: &Ctx, n: usize, q: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(q) {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    rows[i].push((j as u32, v));
                    rows[j].push((i as u32, v));
                }
            }
        }
        for (i, row) in rows.iter_mut().enumerate() {
            let dom: f64 = row.iter().map(|&(_, v)| v.abs()).sum::<f64>() + 1.0;
            row.push((i as u32, dom));
            row.sort_by_key(|&(j, _)| j);
        }
        ctx.matrix(n, rows)
    }

    /// Column-stochastic link matrix for PageRank / label propagation:
    /// entry `A[i][j] = 1/outdeg(j)` for each link `j -> i` (the classic
    /// PageRank transition matrix — note a *row*-stochastic matrix would
    /// make the uniform vector an instant fixed point).
    pub fn link_matrix(ctx: &Ctx, n: usize, q: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out_links: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (j, links) in out_links.iter_mut().enumerate() {
            for i in 0..n {
                if i != j && rng.gen_bool(q) {
                    links.push(i as u32);
                }
            }
            if links.is_empty() {
                links.push(((j + 1) % n) as u32);
            }
        }
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for (j, links) in out_links.iter().enumerate() {
            let w = 1.0 / links.len() as f64;
            for &i in links {
                rows[i as usize].push((j as u32, w));
            }
        }
        for r in &mut rows {
            r.sort_by_key(|&(j, _)| j);
        }
        ctx.matrix(n, rows)
    }

    /// Conjugate gradient for `A x = b`.
    pub fn cg(ctx: &Ctx, a: &Matrix, b: &Vector, iters: Iterations) -> Vector {
        let n = a.n();
        let mut x = ctx.vector(vec![0.0; n]);
        let mut r = b.clone();
        let mut p = r.clone();
        let mut rr = r.dot(&r);
        let (max, tol) = budget(iters);
        for _ in 0..max {
            if rr.value() <= tol {
                break;
            }
            let q = a.mxv(&p);
            let pq = p.dot(&q);
            let alpha = rr.div(&pq);
            x = x.plus_scaled(&alpha, &p);
            let neg_alpha = alpha.neg();
            r = r.plus_scaled(&neg_alpha, &q);
            let rr2 = r.dot(&r);
            let beta = rr2.div(&rr);
            p = r.plus_scaled(&beta, &p);
            rr = rr2;
        }
        x
    }

    /// BiCGStab for general square systems.
    pub fn bicgstab(ctx: &Ctx, a: &Matrix, b: &Vector, iters: Iterations) -> Vector {
        let n = a.n();
        let mut x = ctx.vector(vec![0.0; n]);
        let r0 = b.clone();
        let mut r = b.clone();
        let mut p = r.clone();
        let (max, tol) = budget(iters);
        for _ in 0..max {
            let rnorm = r.dot(&r);
            if rnorm.value() <= tol {
                break;
            }
            let ap = a.mxv(&p);
            let r0r = r0.dot(&r);
            let r0ap = r0.dot(&ap);
            let alpha = r0r.div(&r0ap);
            let neg_alpha = alpha.neg();
            let s = r.plus_scaled(&neg_alpha, &ap);
            let as_ = a.mxv(&s);
            let ass = as_.dot(&s);
            let asas = as_.dot(&as_);
            let omega = ass.div(&asas);
            x = x.plus_scaled(&alpha, &p).plus_scaled(&omega, &s);
            let neg_omega = omega.neg();
            r = s.plus_scaled(&neg_omega, &as_);
            let r0r_new = r0.dot(&r);
            let frac = r0r_new.div(&r0r);
            let beta = frac.div(&omega); // (r0·r')/(r0·r) · α/ω folded
            let pw = p.plus_scaled(&neg_omega, &ap);
            p = r.plus_scaled(&beta, &pw);
        }
        x
    }

    /// PageRank power iteration with damping 0.85.
    pub fn pagerank(ctx: &Ctx, links: &Matrix, iters: Iterations) -> Vector {
        let n = links.n();
        let mut rank = ctx.vector(vec![1.0 / n as f64; n]);
        let teleport = ctx.vector(vec![0.15 / n as f64; n]);
        let damping = ctx.scalar(0.85);
        let (max, tol) = budget(iters);
        for _ in 0..max {
            let spread = links.mxv(&rank);
            let next = teleport.plus_scaled(&damping, &spread);
            let diff = next.abs_diff(&rank);
            rank = next;
            if diff.value() <= tol {
                break;
            }
        }
        rank
    }

    /// Label propagation over the max-times semiring.
    pub fn label_propagation(ctx: &Ctx, links: &Matrix, iters: Iterations) -> Vector {
        let n = links.n();
        let init: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let mut labels = ctx.vector(init);
        let (max, tol) = budget(iters);
        for _ in 0..max {
            let spread = links.mxv_max(&labels);
            let next = labels.ewise_max(&spread);
            let diff = next.abs_diff(&labels);
            labels = next;
            if diff.value() <= tol {
                break;
            }
        }
        labels
    }

    /// k-hop reachability from node 0 (boolean pattern as 0/1 values).
    pub fn k_hop(ctx: &Ctx, links: &Matrix, k: usize) -> Vector {
        let n = links.n();
        let mut ind = vec![0.0; n];
        ind[0] = 1.0;
        let mut reach = ctx.vector(ind);
        for _ in 0..k {
            let next = links.mxv_max(&reach);
            reach = reach.ewise_max(&next);
        }
        reach
    }

    fn budget(iters: Iterations) -> (usize, f64) {
        match iters {
            Iterations::Fixed(k) => (k, -1.0),
            Iterations::Converge(tol, cap) => (cap, tol),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::algorithms::*;
    use super::*;

    #[test]
    fn recording_tracks_every_op() {
        let ctx = Ctx::new();
        let a = ctx.matrix(2, vec![vec![(0, 2.0)], vec![(1, 3.0)]]);
        let v = ctx.vector(vec![1.0, 1.0]);
        let w = a.mxv(&v);
        assert_eq!(w.values(), &[2.0, 3.0]);
        assert_eq!(ctx.len(), 3);
        let d = ctx.extract_dag();
        assert_eq!(d.n(), 3);
        assert_eq!(d.m(), 2);
    }

    #[test]
    fn cg_converges_and_records_iteration_structure() {
        let ctx = Ctx::new();
        let a = spd_matrix(&ctx, 8, 0.3, 1);
        let b = ctx.vector(vec![1.0; 8]);
        let x = cg(&ctx, &a, &b, Iterations::Converge(1e-10, 100));
        // Verify the numeric solve: A x ≈ b.
        let ax = a.mxv(&x);
        for (got, want) in ax.values().iter().zip([1.0f64; 8]) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
        let d = ctx.extract_dag();
        assert!(d.n() > 20, "CG trace too small: {}", d.n());
    }

    #[test]
    fn fixed_vs_convergence_trace_sizes() {
        let ctx3 = Ctx::new();
        let a3 = spd_matrix(&ctx3, 10, 0.3, 2);
        let b3 = ctx3.vector(vec![1.0; 10]);
        cg(&ctx3, &a3, &b3, Iterations::Fixed(3));
        let d3 = ctx3.extract_dag();

        let ctxc = Ctx::new();
        let ac = spd_matrix(&ctxc, 10, 0.3, 2);
        let bc = ctxc.vector(vec![1.0; 10]);
        cg(&ctxc, &ac, &bc, Iterations::Converge(1e-12, 50));
        let dc = ctxc.extract_dag();
        assert!(dc.n() >= d3.n());
    }

    #[test]
    fn pagerank_ranks_sum_to_one() {
        let ctx = Ctx::new();
        let m = link_matrix(&ctx, 12, 0.25, 5);
        // Column-stochasticity is not enforced by this toy matrix, so just
        // check the trace and rough magnitude.
        let r = pagerank(&ctx, &m, Iterations::Fixed(3));
        assert_eq!(r.len(), 12);
        assert!(ctx.len() > 10);
    }

    #[test]
    fn label_propagation_reaches_fixpoint() {
        let ctx = Ctx::new();
        let m = link_matrix(&ctx, 10, 0.3, 7);
        let labels = label_propagation(&ctx, &m, Iterations::Converge(0.0, 50));
        // At the fixpoint another round changes nothing.
        let spread = m.mxv_max(&labels);
        let next = labels.ewise_max(&spread);
        assert_eq!(labels.values(), next.values());
    }

    #[test]
    fn k_hop_monotone() {
        let ctx = Ctx::new();
        let m = link_matrix(&ctx, 10, 0.2, 9);
        let r1 = k_hop(&ctx, &m, 1);
        let r3 = k_hop(&ctx, &m, 3);
        let c1 = r1.values().iter().filter(|&&x| x > 0.0).count();
        let c3 = r3.values().iter().filter(|&&x| x > 0.0).count();
        assert!(c3 >= c1);
    }

    #[test]
    fn bicgstab_runs_and_records() {
        let ctx = Ctx::new();
        let a = spd_matrix(&ctx, 8, 0.3, 11);
        let b = ctx.vector(vec![1.0; 8]);
        let _x = bicgstab(&ctx, &a, &b, Iterations::Fixed(3));
        let d = ctx.extract_dag();
        assert!(d.n() > 20);
    }

    #[test]
    fn extracted_dags_use_db_weights() {
        let ctx = Ctx::new();
        let a = spd_matrix(&ctx, 6, 0.4, 13);
        let b = ctx.vector(vec![1.0; 6]);
        cg(&ctx, &a, &b, Iterations::Fixed(2));
        let d = ctx.extract_dag();
        for v in d.nodes() {
            if d.in_degree(v) == 0 {
                assert_eq!(d.work(v), 1);
            } else {
                assert_eq!(d.work(v), d.in_degree(v) as u64 - 1);
            }
        }
    }
}
