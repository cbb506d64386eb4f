//! BSP cost evaluation with NUMA effects (paper §3.3–§3.4).
//!
//! The cost of superstep `s` is `Cwork(s) + g·Ccomm(s) + ℓ` with
//!
//! * `Cwork(s)  = max_p Σ_{π(v)=p, τ(v)=s} w(v)` and
//! * `Ccomm(s)  = max_p max(Csend(p,s), Crecv(p,s))` where the send/receive
//!   costs sum `c(v)·λ[p1][p2]` over the Γ entries of the phase (h-relation).
//!
//! The latency `ℓ` is charged for every *non-empty* superstep (one that
//! computes at least one node or carries at least one transfer). After
//! [`crate::compact`]ion this equals the paper's per-superstep charge, and it
//! lets local search claim the ℓ saving the moment it empties a superstep.
//!
//! [`SuperstepCost::total`] is the one place that formula is computed.
//! [`schedule_cost`] and the `bsp-core` crate's incremental states —
//! `ScheduleState` (lazy communication) and `CommState` (explicit phases,
//! tallied by [`step_tallies`] here) — all build a [`SuperstepCost`] per
//! row and ask it, so their rows compare one by one, and a disagreement
//! names its superstep rather than hiding in a total.
//!
//! The functions here re-evaluate a whole schedule from scratch in
//! `O(n + m + S·P)`; they are the ground truth the incremental machinery is
//! tested against. Local search never calls them per candidate move: the
//! `ScheduleState` maintains this exact cost incrementally and exposes an
//! allocation-free, read-only `probe_move(v, q, s)` that returns the delta
//! of a single-node move in `O(degree)` — bit-for-bit equal to applying the
//! move and subtracting.

use crate::comm::{CommSchedule, CommStep};
use crate::schedule::BspSchedule;
use bsp_dag::Dag;
use bsp_model::BspParams;

/// Per-superstep cost components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuperstepCost {
    /// `Cwork(s)`: maximum work on any processor.
    pub work: u64,
    /// `Ccomm(s)`: maximum λ-weighted h-relation entry (before multiplying
    /// by `g`).
    pub comm: u64,
    /// Extra λ-weighted h-relation units caused by fast-memory re-fetches
    /// on memory-bounded machines — the growth of `max_p max(send, recv)`
    /// once eviction/re-fetch traffic is folded in. Always 0 from
    /// [`schedule_cost`]; filled by
    /// [`memory_cost`](crate::memory::memory_cost). Folded into `Ccomm`:
    /// the superstep total charges `g · (comm + refetch)`.
    pub refetch: u64,
    /// Latency charged (`ℓ` if non-empty, else 0).
    pub latency: u64,
}

impl SuperstepCost {
    /// The row of a superstep whose busiest processor works `work` and
    /// whose h-relation maximum is `hrel`, charged `ℓ` if it computes or
    /// carries anything (`nonempty`); no re-fetch.
    #[inline]
    pub fn new(work: u64, hrel: u64, nonempty: bool, machine: &BspParams) -> Self {
        SuperstepCost {
            work,
            comm: hrel,
            refetch: 0,
            latency: if nonempty { machine.l() } else { 0 },
        }
    }

    /// `Cwork + g·(Ccomm + refetch) + latency` for the machine's `g`.
    #[inline]
    pub fn total(&self, g: u64) -> u64 {
        self.work + g * (self.comm + self.refetch) + self.latency
    }
}

/// Full cost breakdown of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostBreakdown {
    /// Total cost of the schedule.
    pub total: u64,
    /// Per-superstep components, indexed by superstep.
    pub per_step: Vec<SuperstepCost>,
    /// Σ Cwork over supersteps.
    pub work_total: u64,
    /// Σ g·Ccomm over supersteps.
    pub comm_total: u64,
    /// Σ g·refetch over supersteps (0 unless evaluated under a
    /// memory-bounded machine by [`memory_cost`](crate::memory::memory_cost)).
    pub refetch_total: u64,
    /// Σ latency over supersteps.
    pub latency_total: u64,
}

/// Per-(superstep, processor) tallies of a schedule — the intermediate
/// representation [`schedule_cost`] folds into a [`CostBreakdown`], shared
/// with the memory-bounded evaluation in [`crate::memory`] (which adds
/// re-fetch traffic on top before taking the h-relation maxima) and kept
/// up to date by the `bsp-core` crate's HCcs state as it moves transfers.
#[derive(Debug)]
pub struct StepTallies {
    /// Supersteps tallied: past the last computing one and the last phase
    /// carrying a transfer.
    pub n_steps: usize,
    /// `work[s*P + q]`: work of processor `q` in superstep `s`.
    pub work: Vec<u64>,
    /// λ-weighted units sent per `[step][proc]`.
    pub send: Vec<u64>,
    /// λ-weighted units received per `[step][proc]`.
    pub recv: Vec<u64>,
    /// Nodes computed per superstep.
    pub nodes_in_step: Vec<u32>,
    /// Transfers carried per communication phase.
    pub comms_in_step: Vec<u32>,
}

/// Tallies the assignment `sched` with the transfers `comm` (each in the
/// phase its `step` names) on `machine`, in `O(n + |comm| + S·P)`.
pub fn step_tallies(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    comm: impl Iterator<Item = CommStep> + Clone,
) -> StepTallies {
    let p = machine.p();
    let comp_steps = sched.n_supersteps();
    let comm_steps = comm.clone().map(|e| e.step + 1).max().unwrap_or(0);
    let n_steps = comp_steps.max(comm_steps) as usize;

    let mut work = vec![0u64; n_steps * p];
    let mut nodes_in_step = vec![0u32; n_steps];
    for v in dag.nodes() {
        work[sched.step(v) as usize * p + sched.proc(v) as usize] += dag.work(v);
        nodes_in_step[sched.step(v) as usize] += 1;
    }
    let mut send = vec![0u64; n_steps * p];
    let mut recv = vec![0u64; n_steps * p];
    let mut comms_in_step = vec![0u32; n_steps];
    for e in comm {
        let weighted = dag.comm(e.node) * machine.lambda(e.from as usize, e.to as usize);
        send[e.step as usize * p + e.from as usize] += weighted;
        recv[e.step as usize * p + e.to as usize] += weighted;
        comms_in_step[e.step as usize] += 1;
    }
    StepTallies {
        n_steps,
        work,
        send,
        recv,
        nodes_in_step,
        comms_in_step,
    }
}

/// Folds tallies into the final breakdown. `extra_send`/`extra_recv`, when
/// present, carry per-`[step][proc]` re-fetch traffic: the increase of the
/// h-relation maximum becomes each step's `refetch` component.
pub(crate) fn breakdown_from_tallies(
    machine: &BspParams,
    t: &StepTallies,
    extra: Option<(&[u64], &[u64])>,
) -> CostBreakdown {
    let p = machine.p();
    let mut per_step = Vec::with_capacity(t.n_steps);
    let (mut total, mut work_total, mut comm_total, mut refetch_total, mut latency_total) =
        (0, 0, 0, 0, 0);
    for s in 0..t.n_steps {
        let row = s * p;
        let w = t.work[row..row + p].iter().copied().max().unwrap_or(0);
        let c = (0..p)
            .map(|q| t.send[row + q].max(t.recv[row + q]))
            .max()
            .unwrap_or(0);
        let (refetch, has_refetch) = match extra {
            None => (0, false),
            Some((es, er)) => {
                let with = (0..p)
                    .map(|q| (t.send[row + q] + es[row + q]).max(t.recv[row + q] + er[row + q]))
                    .max()
                    .unwrap_or(0);
                (with - c, (0..p).any(|q| es[row + q] > 0 || er[row + q] > 0))
            }
        };
        let nonempty = t.nodes_in_step[s] > 0 || t.comms_in_step[s] > 0 || has_refetch;
        let sc = SuperstepCost {
            refetch,
            ..SuperstepCost::new(w, c, nonempty, machine)
        };
        total += sc.total(machine.g());
        work_total += w;
        comm_total += machine.g() * c;
        refetch_total += machine.g() * refetch;
        latency_total += sc.latency;
        per_step.push(sc);
    }
    CostBreakdown {
        total,
        per_step,
        work_total,
        comm_total,
        refetch_total,
        latency_total,
    }
}

/// Evaluates the cost of `(π, τ, Γ)` on `machine` under the *unbounded*
/// memory model (every `refetch` component is 0); for memory-bounded
/// machines, [`crate::memory::memory_cost`] adds the re-fetch traffic the
/// residency simulator observes. Does not check validity; see
/// [`crate::validate`].
pub fn schedule_cost(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    comm: &CommSchedule,
) -> CostBreakdown {
    let tallies = step_tallies(dag, machine, sched, comm.entries().iter().copied());
    breakdown_from_tallies(machine, &tallies, None)
}

/// Total cost only (convenience wrapper around [`schedule_cost`]).
pub fn total_cost(dag: &Dag, machine: &BspParams, sched: &BspSchedule, comm: &CommSchedule) -> u64 {
    schedule_cost(dag, machine, sched, comm).total
}

/// Cost of an assignment under its lazy communication schedule.
pub fn lazy_cost(dag: &Dag, machine: &BspParams, sched: &BspSchedule) -> u64 {
    total_cost(dag, machine, sched, &CommSchedule::lazy(dag, sched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;
    use bsp_model::NumaTopology;

    fn pair() -> Dag {
        let mut b = DagBuilder::new();
        let u = b.add_node(2, 3);
        let v = b.add_node(5, 1);
        b.add_edge(u, v).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure1_style_cost() {
        // u on p0 step 0, v on p1 step 1: work phases 2 then 5, one transfer
        // of c(u)=3 units, g=2, l=4.
        let dag = pair();
        let machine = BspParams::new(2, 2, 4);
        let sched = BspSchedule::from_parts(vec![0, 1], vec![0, 1]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let c = schedule_cost(&dag, &machine, &sched, &comm);
        assert_eq!(c.per_step.len(), 2);
        assert_eq!(
            c.per_step[0],
            SuperstepCost {
                work: 2,
                comm: 3,
                refetch: 0,
                latency: 4
            }
        );
        assert_eq!(
            c.per_step[1],
            SuperstepCost {
                work: 5,
                comm: 0,
                refetch: 0,
                latency: 4
            }
        );
        assert_eq!(c.total, (2 + 6 + 4) + (5 + 4));
        assert_eq!(c.work_total, 7);
        assert_eq!(c.comm_total, 6);
        assert_eq!(c.latency_total, 8);
    }

    #[test]
    fn h_relation_takes_max_of_send_and_recv() {
        // Three nodes on p0 all feeding one node on p1: p0 sends 3 values in
        // one phase, p1 receives 3; Ccomm = sum on the bottleneck processor.
        let mut b = DagBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_node(1, 2)).collect();
        let t = b.add_node(1, 1);
        for &x in &s {
            b.add_edge(x, t).unwrap();
        }
        let dag = b.build().unwrap();
        let machine = BspParams::new(2, 1, 0);
        let sched = BspSchedule::from_parts(vec![0, 0, 0, 1], vec![0, 0, 0, 1]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let c = schedule_cost(&dag, &machine, &sched, &comm);
        assert_eq!(c.per_step[0].comm, 6); // 3 transfers * c=2
    }

    #[test]
    fn numa_lambda_scales_both_sides() {
        let dag = pair();
        let machine = BspParams::new(4, 1, 0).with_numa(NumaTopology::binary_tree(4, 3));
        // u on p0, v on p3 => lambda = 3 (level 2 of a 4-leaf tree).
        let sched = BspSchedule::from_parts(vec![0, 3], vec![0, 1]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let c = schedule_cost(&dag, &machine, &sched, &comm);
        assert_eq!(c.per_step[0].comm, 3 * 3); // c(u)=3 times lambda 3
    }

    #[test]
    fn empty_supersteps_carry_no_latency() {
        let dag = pair();
        let machine = BspParams::new(2, 1, 10);
        // Nodes in supersteps 0 and 5; 1..4 are empty except the lazy comm at 4.
        let sched = BspSchedule::from_parts(vec![0, 1], vec![0, 5]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let c = schedule_cost(&dag, &machine, &sched, &comm);
        assert_eq!(c.per_step.len(), 6);
        // steps 0, 4 (comm), 5 are non-empty -> 3 latency charges.
        assert_eq!(c.latency_total, 30);
    }

    #[test]
    fn trivial_schedule_cost_is_work_plus_latency() {
        let dag = pair();
        let machine = BspParams::new(4, 3, 7);
        let sched = BspSchedule::zeroed(dag.n());
        assert_eq!(lazy_cost(&dag, &machine, &sched), dag.total_work() + 7);
    }
}
