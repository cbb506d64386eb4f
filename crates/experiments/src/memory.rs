//! The `memory` command: cost versus fast-memory capacity across the
//! instance catalogue.
//!
//! For every instance family the sweep generates one smoke-sized member,
//! derives two anchors from its DAG — `M_min`, the largest single-node
//! working set (the smallest capacity at which superstep splitting can
//! always reach feasibility), and `M_tot`, the total value footprint (a
//! capacity that can never evict anything it needs) — and solves the
//! instance with a memory-aware scheduler (default `bl-est?mem=on`) at
//! capacities ∞, `M_tot`, the midpoint, and `M_min`. The printed table is
//! the cost-vs-capacity trajectory: how much the realistic-models ladder's
//! memory rung costs each family, separated into re-fetch traffic and the
//! extra supersteps the feasibility repair inserted.

use crate::runner::RunConfig;
use bsp_instance::{Instance, InstanceDescriptor, InstanceRegistry};
use bsp_par::parallel_map;
use bsp_schedule::memory::min_repairable_capacity;
use bsp_schedule::solve::SolveRequest;

/// The spec each family is swept under: datasets shrunk hard, every
/// size-like parameter pinned small — the same shape the registry smoke
/// test uses, so the sweep covers the full catalogue at laptop size.
fn sweep_spec(d: &InstanceDescriptor) -> String {
    if d.batch {
        return format!("{}?scale=0.02", d.name);
    }
    let small = [
        ("n", "24"),
        ("k", "3"),
        ("width", "8"),
        ("steps", "4"),
        ("depth", "3"),
        ("layers", "3"),
        ("chains", "3"),
        ("stages", "2"),
    ];
    let params: Vec<String> = small
        .iter()
        .filter(|(key, _)| d.params.contains(key))
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    if params.is_empty() {
        d.spec()
    } else {
        format!("{}?{}", d.name, params.join("&"))
    }
}

struct Row {
    family: String,
    n: usize,
    /// (capacity label, cost, refetch cost share, supersteps).
    points: Vec<(String, u64, u64, u32)>,
}

/// Runs the sweep and prints the cost-vs-capacity table.
pub fn memory_sweep(cfg: &RunConfig) {
    let inst_registry = InstanceRegistry::standard();
    let sched_registry = bsp_sched::Registry::standard();
    let sched_spec = match cfg.scheds.as_slice() {
        [] => "bl-est?mem=on".to_string(),
        [one] => one.clone(),
        _ => panic!("the memory sweep takes at most one --sched"),
    };
    // Build once to fail fast on a bad spec; workers build their own copy.
    sched_registry
        .get(&sched_spec)
        .unwrap_or_else(|e| panic!("--sched {sched_spec:?}: {e}"));

    let families: Vec<&InstanceDescriptor> = inst_registry.descriptors().collect();
    eprintln!(
        "[memory] {} families x {} capacities, scheduler {sched_spec}",
        families.len(),
        if cfg.quick { 2 } else { 4 },
    );
    let jobs: Vec<String> = families.iter().map(|d| sweep_spec(d)).collect();
    let rows: Vec<Row> = parallel_map(cfg.threads, jobs, |spec| {
        let registry = InstanceRegistry::standard();
        let scheduler = bsp_sched::Registry::standard()
            .get(&sched_spec)
            .expect("validated above");
        let base: Instance = registry
            .generate_one(&format!("{spec} @ bsp?p=4&g=2"), 42)
            .unwrap_or_else(|e| panic!("sweep spec {spec:?}: {e}"));
        let m_min = min_repairable_capacity(&base.dag);
        let m_tot = base.dag.total_comm().max(m_min);
        let mid = m_min + (m_tot - m_min) / 2;
        let mut capacities: Vec<(String, Option<u64>)> = vec![("inf".to_string(), None)];
        if !cfg.quick {
            capacities.push((format!("{m_tot}"), Some(m_tot)));
            capacities.push((format!("{mid}"), Some(mid)));
        }
        capacities.push((format!("{m_min}"), Some(m_min)));

        let points = capacities
            .into_iter()
            .map(|(label, cap)| {
                let machine_spec = match cap {
                    None => "bsp?p=4&g=2".to_string(),
                    Some(m) => format!("bsp?p=4&g=2&mem={m}"),
                };
                let inst = registry
                    .generate_one(&format!("{spec} @ {machine_spec}"), 42)
                    .expect("same family, same grammar");
                let out = scheduler
                    .solve(&SolveRequest::new(&inst.dag, &inst.machine).with_budget(cfg.budget()));
                (
                    label,
                    out.total(),
                    out.result.cost.refetch_total,
                    out.result.sched.n_supersteps(),
                )
            })
            .collect();
        Row {
            family: spec.split('?').next().unwrap_or(spec).to_string(),
            n: base.dag.n(),
            points,
        }
    });

    println!(
        "{:<18} {:>6} | {:>10} {:>14} {:>14} {:>18}",
        "family", "n", "cost@inf", "cost@M_tot", "cost@mid", "cost@M_min(refetch)"
    );
    for row in &rows {
        let unbounded = row.points.first().map(|&(_, c, ..)| c).unwrap_or(0);
        let fmt = |i: usize| -> String {
            match row.points.get(i) {
                Some((_, cost, ..)) => format!("{cost}"),
                None => "-".to_string(),
            }
        };
        let last = row.points.last().unwrap();
        println!(
            "{:<18} {:>6} | {:>10} {:>14} {:>14} {:>11} ({:>4}) x{:.2}",
            row.family,
            row.n,
            unbounded,
            if cfg.quick { "-".to_string() } else { fmt(1) },
            if cfg.quick { "-".to_string() } else { fmt(2) },
            last.1,
            last.2,
            last.1 as f64 / unbounded.max(1) as f64,
        );
    }
    println!("\ncapacities are per family: M_min = largest single-node working set,");
    println!("M_tot = total value footprint; x = cost@M_min / cost@inf.");
}
