//! `ILPcs`: ILP optimization of the communication schedule
//! (paper §4.4, Appendix A.4).
//!
//! With `(π, τ)` fixed, each required transfer `(v, π(v) → q)` gets binary
//! variables over its feasible phase window `[τ(v), s0 − 1]`; continuous
//! `commMax[s]` variables aggregate the λ-weighted h-relation, and binary
//! `used[s]` variables charge latency for otherwise-empty supersteps that
//! only exist to carry communication. This subproblem has far fewer degrees
//! of freedom than full scheduling, so it scales to whole DAGs.

use bsp_dag::Dag;
use bsp_ilp::{Model, Sense, SolveLimits, VarId};
use bsp_model::BspParams;
use bsp_schedule::comm::required_transfers;
use bsp_schedule::cost::total_cost;
use bsp_schedule::solve::Stop;
use bsp_schedule::{BspSchedule, CommSchedule, CommStep};

/// Runs `ILPcs` on the assignment, warm-started from `initial`
/// (typically the HCcs output or the lazy schedule). Returns the better of
/// the ILP result and `initial` by true cost, with that cost.
pub fn ilp_comm(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    initial: &CommSchedule,
    limits: &SolveLimits,
    stop: &Stop,
) -> (CommSchedule, u64) {
    let p = machine.p();
    let transfers = required_transfers(dag, sched);
    let init_cost = total_cost(dag, machine, sched, initial);
    if transfers.is_empty() {
        return (initial.clone(), init_cost);
    }
    let n_steps = sched
        .n_supersteps()
        .max(transfers.iter().map(|t| t.latest + 1).max().unwrap_or(0)) as usize;

    // Fixed facts per superstep.
    let mut work_max = vec![0u64; n_steps];
    let mut has_work = vec![false; n_steps];
    {
        let mut per = vec![0u64; n_steps * p];
        for v in dag.nodes() {
            let (q, s) = (sched.proc(v) as usize, sched.step(v) as usize);
            per[s * p + q] += dag.work(v);
            has_work[s] = true;
        }
        for s in 0..n_steps {
            work_max[s] = per[s * p..(s + 1) * p].iter().copied().max().unwrap_or(0);
        }
    }

    let mut model = Model::new();
    // x[i][s] per transfer i over its window.
    let mut x: Vec<Vec<(u32, VarId)>> = Vec::with_capacity(transfers.len());
    for t in &transfers {
        let mut vars = Vec::with_capacity((t.latest - t.earliest + 1) as usize);
        for s in t.earliest..=t.latest {
            vars.push((s, model.add_binary(0.0)));
        }
        model.add_constraint(
            vars.iter().map(|&(_, v)| (v, 1.0)).collect(),
            Sense::Eq,
            1.0,
        );
        x.push(vars);
    }
    // commMax per step (objective g) and used for workless steps (objective ℓ).
    let comm_max: Vec<VarId> = (0..n_steps)
        .map(|_| model.add_continuous(0.0, f64::INFINITY, machine.g() as f64))
        .collect();
    let used: Vec<Option<VarId>> = (0..n_steps)
        .map(|s| {
            if has_work[s] {
                None
            } else {
                Some(model.add_binary(machine.l() as f64))
            }
        })
        .collect();

    // h-relation rows.
    for s in 0..n_steps as u32 {
        for q in 0..p as u32 {
            let mut send_terms: Vec<(VarId, f64)> = Vec::new();
            let mut recv_terms: Vec<(VarId, f64)> = Vec::new();
            for (i, t) in transfers.iter().enumerate() {
                if s < t.earliest || s > t.latest {
                    continue;
                }
                let var = x[i].iter().find(|&&(sp, _)| sp == s).unwrap().1;
                let w = (dag.comm(t.node) * machine.lambda(t.from as usize, t.to as usize)) as f64;
                if t.from == q {
                    send_terms.push((var, w));
                }
                if t.to == q {
                    recv_terms.push((var, w));
                }
            }
            if !send_terms.is_empty() {
                send_terms.push((comm_max[s as usize], -1.0));
                model.add_constraint(send_terms, Sense::Le, 0.0);
            }
            if !recv_terms.is_empty() {
                recv_terms.push((comm_max[s as usize], -1.0));
                model.add_constraint(recv_terms, Sense::Le, 0.0);
            }
        }
    }
    // Latency rows for workless steps.
    for s in 0..n_steps as u32 {
        let Some(us) = used[s as usize] else { continue };
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for (i, t) in transfers.iter().enumerate() {
            if s >= t.earliest && s <= t.latest {
                terms.push((x[i].iter().find(|&&(sp, _)| sp == s).unwrap().1, 1.0));
            }
        }
        if terms.is_empty() {
            model.set_bounds(us, 0.0, 0.0);
            continue;
        }
        let m = terms.len() as f64;
        terms.push((us, -m));
        model.add_constraint(terms, Sense::Le, 0.0);
    }

    // Warm start from `initial` (fall back to lazy for unmatched transfers).
    let mut warm = vec![0.0; model.n_vars()];
    for (i, t) in transfers.iter().enumerate() {
        let phase = initial
            .entries()
            .iter()
            .find(|e| e.node == t.node && e.from == t.from && e.to == t.to)
            .map(|e| e.step.clamp(t.earliest, t.latest))
            .unwrap_or(t.latest);
        let var = x[i].iter().find(|&&(sp, _)| sp == phase).unwrap().1;
        warm[var.index()] = 1.0;
    }
    // Aggregates for the warm start.
    let mut send = vec![0u64; n_steps * p];
    let mut recv = vec![0u64; n_steps * p];
    let mut carries = vec![false; n_steps];
    for (i, t) in transfers.iter().enumerate() {
        let phase = x[i]
            .iter()
            .find(|&&(_, v)| warm[v.index()] > 0.5)
            .unwrap()
            .0 as usize;
        let wgt = dag.comm(t.node) * machine.lambda(t.from as usize, t.to as usize);
        send[phase * p + t.from as usize] += wgt;
        recv[phase * p + t.to as usize] += wgt;
        carries[phase] = true;
    }
    for s in 0..n_steps {
        let m = (0..p)
            .map(|q| send[s * p + q].max(recv[s * p + q]))
            .max()
            .unwrap_or(0);
        warm[comm_max[s].index()] = m as f64;
        if let Some(us) = used[s] {
            if model.upper(us) > 0.5 {
                warm[us.index()] = if carries[s] { 1.0 } else { 0.0 };
            }
        }
    }
    debug_assert!(
        model.is_feasible(&warm, 1e-5),
        "ILPcs warm start must be feasible"
    );

    // ILPcs models are pure-binary with tight LP relaxations; the presolve
    // pass (region-preserving, see `bsp_ilp::presolve`) only shrinks them.
    let sol = super::solve_model(&model, Some(&warm), limits, stop);
    if sol.x.is_empty() {
        return (initial.clone(), init_cost);
    }
    let entries: Vec<CommStep> = transfers
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let phase = x[i]
                .iter()
                .find(|&&(_, v)| sol.x[v.index()] > 0.5)
                .map(|&(sp, _)| sp)
                .unwrap_or(t.latest);
            CommStep {
                node: t.node,
                from: t.from,
                to: t.to,
                step: phase,
            }
        })
        .collect();
    let cand = CommSchedule::from_entries(entries);
    let cand_cost = total_cost(dag, machine, sched, &cand);
    if cand_cost < init_cost {
        (cand, cand_cost)
    } else {
        (initial.clone(), init_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_schedule::validity::validate;

    /// A stop that never fires: the solver's own limits rule.
    fn never() -> Stop {
        Stop::new(None, None)
    }

    #[test]
    fn finds_the_overlap_that_reduces_the_h_relation() {
        // Same scenario as the HCcs spread test: transfer b (c=7, p2->p3,
        // window [0,1]) should overlap with a (c=8, p0->p1, fixed phase 0)
        // instead of sharing phase 1 with e (c=3, p0->p1): 15 -> 11.
        let mut bld = DagBuilder::new();
        let a = bld.add_node(1, 8);
        let e = bld.add_node(1, 3);
        let b = bld.add_node(1, 7);
        let wa = bld.add_node(1, 1);
        let we = bld.add_node(1, 1);
        let wb = bld.add_node(1, 1);
        bld.add_edge(a, wa).unwrap();
        bld.add_edge(e, we).unwrap();
        bld.add_edge(b, wb).unwrap();
        let dag = bld.build().unwrap();
        let machine = BspParams::new(4, 1, 0);
        let sched = BspSchedule::from_parts(vec![0, 0, 2, 1, 1, 3], vec![0, 1, 0, 1, 2, 2]);
        let lazy = CommSchedule::lazy(&dag, &sched);
        let lazy_cost_v = total_cost(&dag, &machine, &sched, &lazy);
        let (opt, cost) = ilp_comm(
            &dag,
            &machine,
            &sched,
            &lazy,
            &SolveLimits::default(),
            &never(),
        );
        assert_eq!(cost, lazy_cost_v - 4, "expected 15 -> 11 comm units");
        assert!(validate(&dag, 4, &sched, &opt).is_ok());
        assert_eq!(cost, total_cost(&dag, &machine, &sched, &opt));
    }

    #[test]
    fn no_transfers_short_circuits() {
        let mut b = DagBuilder::new();
        let u = b.add_node(1, 1);
        let v = b.add_node(1, 1);
        b.add_edge(u, v).unwrap();
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::from_parts(vec![0, 0], vec![0, 1]);
        let lazy = CommSchedule::lazy(&dag, &sched);
        let (out, _) = ilp_comm(
            &dag,
            &machine,
            &sched,
            &lazy,
            &SolveLimits::default(),
            &never(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn never_worse_than_initial() {
        let mut b = DagBuilder::new();
        let mut tops = Vec::new();
        for _ in 0..4 {
            tops.push(b.add_node(1, 2));
        }
        let mut bots = Vec::new();
        for i in 0..4 {
            let v = b.add_node(1, 1);
            b.add_edge(tops[i], v).unwrap();
            bots.push(v);
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(4, 2, 3);
        let sched =
            BspSchedule::from_parts(vec![0, 1, 2, 3, 1, 2, 3, 0], vec![0, 0, 0, 0, 2, 2, 3, 3]);
        let lazy = CommSchedule::lazy(&dag, &sched);
        let before = total_cost(&dag, &machine, &sched, &lazy);
        let (out, cost) = ilp_comm(
            &dag,
            &machine,
            &sched,
            &lazy,
            &SolveLimits::default(),
            &never(),
        );
        assert!(cost <= before);
        assert!(validate(&dag, 4, &sched, &out).is_ok());
    }
}
