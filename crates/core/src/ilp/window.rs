//! Window ILP formulation shared by `ILPfull` and `ILPpart`
//! (paper §4.4, Appendix A.4).
//!
//! The formulation follows the FS model of \[28\] with the paper's variable
//! reductions: binary `comp[v,p,s]` and `comm[v,p1,p2,s]` variables,
//! continuous presence variables `pres[v,p,s]` (inductively bounded by the
//! recursion, so they need no integrality), continuous `workMax[s]` /
//! `commMax[s]` h-relation aggregates, and binary `used[s]` latency
//! indicators with aggregated big-M rows.
//!
//! For a *partial* window `[s1, s2]` (ILPpart) the boundary is handled as in
//! Appendix A.4:
//!
//! * external predecessors are only allowed to send *directly from their
//!   fixed processor* (`π(u)`), starting at the last phase before the window;
//! * presence that the current schedule already establishes outside the
//!   window is folded in as constants, as is communication traffic crossing
//!   the window that the reassignment cannot affect;
//! * a node with an external consumer on processor `q` must be delivered to
//!   `q` by the end of the window (potential gains from removing
//!   post-window transfers are ignored).
//!
//! The model is an *approximation at the boundary*; the driver therefore
//! re-evaluates every extracted schedule under the true lazy cost and keeps
//! it only when it improves the incumbent — the same monotone-improvement
//! contract the paper's pipeline has.

use bsp_dag::{Dag, NodeId};
use bsp_ilp::{Model, Sense, VarId};
use bsp_model::BspParams;
use bsp_schedule::{BspSchedule, CommSchedule};
use std::collections::{BTreeMap, HashMap};

/// Options controlling boundary handling.
#[derive(Debug, Clone, Copy)]
pub struct WindowOptions {
    /// Require in-window delivery to processors hosting external consumers
    /// (`true` for ILPpart; `false` for ILPinit, which has no successors
    /// scheduled yet).
    pub require_external_delivery: bool,
}

impl Default for WindowOptions {
    fn default() -> Self {
        WindowOptions {
            require_external_delivery: true,
        }
    }
}

/// Reference to a presence value: a known constant or a model variable.
#[derive(Debug, Clone, Copy)]
enum Pres {
    Zero,
    One,
    Var(VarId),
}

/// A built window ILP with the maps needed for warm starts and extraction.
pub struct WindowIlp {
    /// The underlying MILP (minimization).
    pub model: Model,
    s1: u32,
    s2: u32,
    phase_lo: u32,
    p: usize,
    v0: Vec<NodeId>,
    in_v0: Vec<bool>,
    comp: HashMap<(NodeId, u32, u32), VarId>,
    /// Ordered: the rows and terms over `comm` must be added in a fixed
    /// order, or every build of one window is a different model.
    comm: BTreeMap<(NodeId, u32, u32, u32), VarId>,
    pres: HashMap<(NodeId, u32, u32), VarId>,
    /// `avail_const[v] -> (proc -> first constantly-present step)`.
    avail: HashMap<(NodeId, u32), u32>,
    work_max: HashMap<u32, VarId>,
    comm_max: HashMap<u32, VarId>,
    used: HashMap<u32, VarId>,
}

impl WindowIlp {
    /// Paper-style size estimate `|V0| · |S0| · P²` used to pick window
    /// extents before building (§6).
    pub fn estimate_vars(n_window_nodes: usize, n_steps: usize, p: usize) -> usize {
        n_window_nodes * n_steps * p * p
    }

    /// Builds the window ILP over supersteps `[s1, s2]` of `sched` (which
    /// must be a valid lazy assignment). Nodes currently scheduled in the
    /// window become free; everything else is fixed boundary data.
    pub fn build(
        dag: &Dag,
        machine: &BspParams,
        sched: &BspSchedule,
        s1: u32,
        s2: u32,
        opts: WindowOptions,
    ) -> WindowIlp {
        let p = machine.p();
        let phase_lo = s1.saturating_sub(1);
        let mut w = WindowIlp {
            model: Model::new(),
            s1,
            s2,
            phase_lo,
            p,
            v0: Vec::new(),
            in_v0: vec![false; dag.n()],
            comp: HashMap::new(),
            comm: BTreeMap::new(),
            pres: HashMap::new(),
            avail: HashMap::new(),
            work_max: HashMap::new(),
            comm_max: HashMap::new(),
            used: HashMap::new(),
        };
        for v in dag.nodes() {
            if sched.step(v) >= s1 && sched.step(v) <= s2 {
                w.v0.push(v);
                w.in_v0[v as usize] = true;
            }
        }
        // Boundary predecessors.
        let mut boundary: Vec<NodeId> = Vec::new();
        let mut is_boundary = vec![false; dag.n()];
        for &v in &w.v0 {
            for &u in dag.predecessors(v) {
                if !w.in_v0[u as usize] && !is_boundary[u as usize] {
                    is_boundary[u as usize] = true;
                    boundary.push(u);
                }
            }
        }
        boundary.sort_unstable();

        // Constant availability for boundary nodes and constant cross-window
        // traffic: derive the "external lazy" schedule (window consumers
        // removed).
        let mut const_send = HashMap::<(u32, u32), u64>::new(); // (phase, proc)
        let mut const_recv = HashMap::<(u32, u32), u64>::new();
        for u in dag.nodes() {
            if w.in_v0[u as usize] {
                continue; // producers inside the window are fully modeled
            }
            let pu = sched.proc(u);
            w.avail.insert((u, pu), 0); // present on its own processor always
                                        // first external need per processor
            let mut fne: BTreeMap<u32, u32> = BTreeMap::new();
            for &c in dag.successors(u) {
                if w.in_v0[c as usize] {
                    continue;
                }
                let q = sched.proc(c);
                if q == pu {
                    continue;
                }
                let e = fne.entry(q).or_insert(u32::MAX);
                *e = (*e).min(sched.step(c));
            }
            for (q, f) in fne {
                w.avail.insert((u, q), f);
                let phase = f - 1;
                if phase >= phase_lo && phase <= s2 {
                    let weight = dag.comm(u) * machine.lambda(pu as usize, q as usize);
                    *const_send.entry((phase, pu)).or_insert(0) += weight;
                    *const_recv.entry((phase, q)).or_insert(0) += weight;
                }
            }
        }

        // --- Variables.
        for &v in &w.v0 {
            for q in 0..p as u32 {
                for s in s1..=s2 {
                    let id = w.model.add_binary(0.0);
                    w.comp.insert((v, q, s), id);
                }
            }
        }
        // comm vars: V0 producers (any source pair, phases s1..=s2) and
        // boundary producers (direct from π(u), phases phase_lo..s2-1, only
        // when some window node consumes u).
        for &v in &w.v0 {
            if dag.out_degree(v) == 0 {
                continue;
            }
            for p1 in 0..p as u32 {
                for p2 in 0..p as u32 {
                    if p1 == p2 {
                        continue;
                    }
                    for s in s1..=s2 {
                        let id = w.model.add_binary(0.0);
                        w.comm.insert((v, p1, p2, s), id);
                    }
                }
            }
        }
        for &u in &boundary {
            let pu = sched.proc(u);
            for q in 0..p as u32 {
                if q == pu {
                    continue;
                }
                for s in phase_lo..s2 {
                    let id = w.model.add_binary(0.0);
                    w.comm.insert((u, pu, q, s), id);
                }
            }
        }
        // pres vars where presence is not constant.
        let all_pres_nodes: Vec<NodeId> = w.v0.iter().chain(boundary.iter()).copied().collect();
        for &v in &all_pres_nodes {
            for q in 0..p as u32 {
                for s in s1..=s2 {
                    if w.const_pres(v, q, s).is_none() {
                        let id = w.model.add_continuous(0.0, 1.0, 0.0);
                        w.pres.insert((v, q, s), id);
                    }
                }
            }
        }
        for s in s1..=s2 {
            let id = w.model.add_continuous(0.0, f64::INFINITY, 1.0);
            w.work_max.insert(s, id);
        }
        for s in phase_lo..=s2 {
            let id = w
                .model
                .add_continuous(0.0, f64::INFINITY, machine.g() as f64);
            w.comm_max.insert(s, id);
        }
        for s in phase_lo..=s2 {
            let has_const = (0..p as u32)
                .any(|q| const_send.contains_key(&(s, q)) || const_recv.contains_key(&(s, q)));
            if !has_const {
                let id = w.model.add_binary(machine.l() as f64);
                w.used.insert(s, id);
            }
            // Constant-traffic steps are always non-empty: the ℓ charge is a
            // constant, identical for every solution, so it is omitted.
        }

        // --- Constraints.
        // 1. Each window node computed exactly once.
        for &v in &w.v0 {
            let terms: Vec<(VarId, f64)> = (0..p as u32)
                .flat_map(|q| (s1..=s2).map(move |s| (q, s)))
                .map(|(q, s)| (w.comp[&(v, q, s)], 1.0))
                .collect();
            w.model.add_constraint(terms, Sense::Eq, 1.0);
        }
        // 2. Presence recursion for pres variables.
        for &v in &all_pres_nodes {
            for q in 0..p as u32 {
                for s in s1..=s2 {
                    let Some(&pv) = w.pres.get(&(v, q, s)) else {
                        continue;
                    };
                    // pres <= prev + comp(v,q,s) + sum comm into q at s-1.
                    let mut terms: Vec<(VarId, f64)> = vec![(pv, 1.0)];
                    let mut rhs = 0.0;
                    let prev = if s == s1 {
                        w.pres_base(v, q)
                    } else {
                        w.pres_ref(v, q, s - 1)
                    };
                    match prev {
                        Pres::One => rhs += 1.0,
                        Pres::Zero => {}
                        Pres::Var(prev) => terms.push((prev, -1.0)),
                    }
                    if let Some(&c) = w.comp.get(&(v, q, s)) {
                        terms.push((c, -1.0));
                    }
                    if s >= 1 {
                        let phase = s - 1;
                        for p1 in 0..p as u32 {
                            if let Some(&cm) = w.comm.get(&(v, p1, q, phase)) {
                                terms.push((cm, -1.0));
                            }
                        }
                    }
                    w.model.add_constraint(terms, Sense::Le, rhs);
                }
            }
        }
        // 3. Computation requires predecessors present.
        for &v in &w.v0 {
            for &u in dag.predecessors(v) {
                for q in 0..p as u32 {
                    for s in s1..=s2 {
                        let c = w.comp[&(v, q, s)];
                        match w.pres_ref(u, q, s) {
                            Pres::One => {}
                            Pres::Zero => {
                                w.model.set_bounds(c, 0.0, 0.0);
                            }
                            Pres::Var(pu) => {
                                w.model
                                    .add_constraint(vec![(c, 1.0), (pu, -1.0)], Sense::Le, 0.0);
                            }
                        }
                    }
                }
            }
        }
        // 4. Sending requires presence at the source. At the pre-window
        // phase (s1 - 1) only boundary producers exist, sending from their
        // own fixed processor, where they are present by definition.
        for (&(v, p1, _p2, s), &cm) in &w.comm {
            let pres = if s < s1 {
                w.pres_base(v, p1)
            } else {
                w.pres_ref(v, p1, s)
            };
            match pres {
                Pres::One => {}
                Pres::Zero => {
                    w.model.set_bounds(cm, 0.0, 0.0);
                }
                Pres::Var(pv) => {
                    w.model
                        .add_constraint(vec![(cm, 1.0), (pv, -1.0)], Sense::Le, 0.0);
                }
            }
        }
        // 5. External delivery requirements.
        if opts.require_external_delivery {
            for &v in &w.v0 {
                let mut ext_procs: Vec<u32> = dag
                    .successors(v)
                    .iter()
                    .filter(|&&c| !w.in_v0[c as usize])
                    .map(|&c| sched.proc(c))
                    .collect();
                ext_procs.sort_unstable();
                ext_procs.dedup();
                for q in ext_procs {
                    let mut terms: Vec<(VarId, f64)> =
                        (s1..=s2).map(|s| (w.comp[&(v, q, s)], 1.0)).collect();
                    for p1 in 0..p as u32 {
                        for s in s1..=s2 {
                            if let Some(&cm) = w.comm.get(&(v, p1, q, s)) {
                                terms.push((cm, 1.0));
                            }
                        }
                    }
                    w.model.add_constraint(terms, Sense::Ge, 1.0);
                }
            }
        }
        // 6. Work aggregation rows.
        for s in s1..=s2 {
            for q in 0..p as u32 {
                let mut terms: Vec<(VarId, f64)> =
                    w.v0.iter()
                        .map(|&v| (w.comp[&(v, q, s)], dag.work(v) as f64))
                        .collect();
                terms.push((w.work_max[&s], -1.0));
                w.model.add_constraint(terms, Sense::Le, 0.0);
            }
        }
        // 7. Communication aggregation rows (send and receive).
        for s in phase_lo..=s2 {
            for q in 0..p as u32 {
                let mut send_terms: Vec<(VarId, f64)> = Vec::new();
                let mut recv_terms: Vec<(VarId, f64)> = Vec::new();
                for (&(v, p1, p2, sp), &cm) in &w.comm {
                    if sp != s {
                        continue;
                    }
                    let weight = (dag.comm(v) * machine.lambda(p1 as usize, p2 as usize)) as f64;
                    if p1 == q {
                        send_terms.push((cm, weight));
                    }
                    if p2 == q {
                        recv_terms.push((cm, weight));
                    }
                }
                let cs = *const_send.get(&(s, q)).unwrap_or(&0) as f64;
                let cr = *const_recv.get(&(s, q)).unwrap_or(&0) as f64;
                send_terms.push((w.comm_max[&s], -1.0));
                recv_terms.push((w.comm_max[&s], -1.0));
                w.model.add_constraint(send_terms, Sense::Le, -cs);
                w.model.add_constraint(recv_terms, Sense::Le, -cr);
            }
        }
        // 8. Latency indicators (aggregated big-M).
        for s in phase_lo..=s2 {
            let Some(&us) = w.used.get(&s) else { continue };
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            if s >= s1 {
                for &v in &w.v0 {
                    for q in 0..p as u32 {
                        terms.push((w.comp[&(v, q, s)], 1.0));
                    }
                }
            }
            for (&(_, _, _, sp), &cm) in &w.comm {
                if sp == s {
                    terms.push((cm, 1.0));
                }
            }
            if terms.is_empty() {
                w.model.set_bounds(us, 0.0, 0.0);
                continue;
            }
            let m = terms.len() as f64;
            terms.push((us, -m));
            w.model.add_constraint(terms, Sense::Le, 0.0);
        }
        w
    }

    fn const_pres(&self, v: NodeId, q: u32, s: u32) -> Option<bool> {
        if self.in_v0[v as usize] {
            return None; // window nodes are never constantly present
        }
        match self.avail.get(&(v, q)) {
            Some(&f) if f <= s => Some(true),
            _ => None, // boundary node not yet constantly present: variable
        }
    }

    /// Presence "before the window" (by end of step `s1 - 1`): a constant.
    fn pres_base(&self, v: NodeId, q: u32) -> Pres {
        if self.in_v0[v as usize] || self.s1 == 0 {
            return Pres::Zero;
        }
        match self.avail.get(&(v, q)) {
            Some(&f) if f < self.s1 => Pres::One,
            _ => Pres::Zero,
        }
    }

    /// Presence of `v` on `q` at an in-window step `s ∈ [s1, s2]`.
    fn pres_ref(&self, v: NodeId, q: u32, s: u32) -> Pres {
        debug_assert!(s >= self.s1 && s <= self.s2);
        if let Some(true) = self.const_pres(v, q, s) {
            return Pres::One;
        }
        match self.pres.get(&(v, q, s)) {
            Some(&id) => Pres::Var(id),
            None => Pres::Zero,
        }
    }

    /// Builds a feasible warm-start vector from the current schedule.
    pub fn warm_start(&self, dag: &Dag, machine: &BspParams, sched: &BspSchedule) -> Vec<f64> {
        let mut x = vec![0.0; self.model.n_vars()];
        // comp
        for &v in &self.v0 {
            x[self.comp[&(v, sched.proc(v), sched.step(v))].index()] = 1.0;
        }
        // comm: lazy transfers clipped into the window; late ones pulled to s2.
        let lazy = CommSchedule::lazy(dag, sched);
        for e in lazy.entries() {
            let producer_in_window = self.in_v0[e.node as usize];
            let key_phase = if producer_in_window {
                // consumers may lie beyond the window: clamp to s2
                e.step.min(self.s2).max(self.s1)
            } else {
                e.step
            };
            if let Some(&cm) = self.comm.get(&(e.node, e.from, e.to, key_phase)) {
                x[cm.index()] = 1.0;
            }
        }
        // pres: forward simulation of presence.
        for (&(v, q, s), &id) in &self.pres {
            let present = self.present_in_warm(&x, v, q, s, sched);
            x[id.index()] = if present { 1.0 } else { 0.0 };
        }
        // aggregates
        let p = self.p;
        for (&s, &wid) in &self.work_max {
            let mut per_proc = vec![0u64; p];
            for &v in &self.v0 {
                if sched.step(v) == s {
                    per_proc[sched.proc(v) as usize] += dag.work(v);
                }
            }
            x[wid.index()] = per_proc.iter().copied().max().unwrap_or(0) as f64;
        }
        for (&s, &cid) in &self.comm_max {
            let mut send = vec![0.0f64; p];
            let mut recv = vec![0.0f64; p];
            for (&(v, p1, p2, sp), &cm) in &self.comm {
                if sp == s && x[cm.index()] > 0.5 {
                    let wgt = (dag.comm(v) * machine.lambda(p1 as usize, p2 as usize)) as f64;
                    send[p1 as usize] += wgt;
                    recv[p2 as usize] += wgt;
                }
            }
            // constants are on the rhs of the rows; commMax must cover
            // var-traffic + constants: recompute from the rows directly is
            // complex, so over-cover by adding the largest constant.
            let mut base = 0.0f64;
            for c in self.model.constraints() {
                // rows are  Σ terms - commMax <= -const; find rows with this commMax
                if c.terms
                    .iter()
                    .any(|&(vid, coef)| vid == cid && coef == -1.0)
                {
                    let mut lhs = 0.0;
                    for &(vid, coef) in &c.terms {
                        if vid != cid {
                            lhs += coef * x[vid.index()];
                        }
                    }
                    base = base.max(lhs - c.rhs);
                }
            }
            let max_var = (0..p).map(|i| send[i].max(recv[i])).fold(0.0f64, f64::max);
            x[cid.index()] = max_var.max(base).max(0.0);
        }
        for (&s, &uid) in &self.used {
            if self.model.upper(uid) < 0.5 {
                continue; // fixed to 0
            }
            let used = (s >= self.s1 && self.v0.iter().any(|&v| sched.step(v) == s))
                || self
                    .comm
                    .iter()
                    .any(|(&(_, _, _, sp), &cm)| sp == s && x[cm.index()] > 0.5);
            x[uid.index()] = if used { 1.0 } else { 0.0 };
        }
        x
    }

    /// Presence of `v` on `q` by end of computation phase `s`, simulated
    /// over a warm-start vector.
    fn present_in_warm(&self, x: &[f64], v: NodeId, q: u32, s: u32, sched: &BspSchedule) -> bool {
        if let Some(&f) = self.avail.get(&(v, q)) {
            if f <= s {
                return true;
            }
        }
        if self.in_v0[v as usize] && sched.proc(v) == q && sched.step(v) <= s {
            return true;
        }
        // arrival via any comm var at phase < s
        for p1 in 0..self.p as u32 {
            for phase in self.phase_lo..s {
                if let Some(&cm) = self.comm.get(&(v, p1, q, phase)) {
                    if x[cm.index()] > 0.5 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Reads the `comp` variables of a solution back into a full assignment
    /// (non-window nodes keep their schedule).
    pub fn extract(&self, x: &[f64], base: &BspSchedule) -> BspSchedule {
        let mut out = base.clone();
        for &v in &self.v0 {
            'search: for q in 0..self.p as u32 {
                for s in self.s1..=self.s2 {
                    if x[self.comp[&(v, q, s)].index()] > 0.5 {
                        out.set(v, q, s);
                        break 'search;
                    }
                }
            }
        }
        out
    }
}
