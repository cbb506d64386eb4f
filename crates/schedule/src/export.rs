//! Human-inspectable exports of DAGs and schedules.
//!
//! Two renderers are provided:
//!
//! * [`dag_to_dot`] / [`schedule_to_dot`] — Graphviz DOT output. The
//!   schedule variant groups nodes into one cluster per superstep
//!   (mirroring the paper's Figure 1 layout) and colors nodes by processor,
//!   with cross-processor edges drawn dashed.
//! * [`schedule_to_text`] — a compact per-superstep text table (processor
//!   loads and transfer counts) for terminal output, used by the examples.

use crate::comm::CommSchedule;
use crate::cost::{lazy_cost, total_cost};
use crate::BspSchedule;
use bsp_dag::Dag;
use bsp_model::BspParams;
use std::fmt::Write as _;

/// Fill colors assigned to processors, cycled when `P` exceeds the palette.
const PALETTE: [&str; 8] = [
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6", "#ffff99", "#1f78b4", "#33a02c",
];

/// Renders the bare DAG as a Graphviz digraph; node labels show
/// `id (w=…, c=…)`.
pub fn dag_to_dot(dag: &Dag) -> String {
    let mut s = String::from("digraph dag {\n  rankdir=TB;\n  node [shape=circle];\n");
    for v in dag.nodes() {
        let _ = writeln!(
            s,
            "  n{v} [label=\"{v}\\nw={} c={}\"];",
            dag.work(v),
            dag.comm(v)
        );
    }
    for (u, v) in dag.edges() {
        let _ = writeln!(s, "  n{u} -> n{v};");
    }
    s.push_str("}\n");
    s
}

/// Renders a scheduled DAG as DOT: one subgraph cluster per superstep,
/// processor shown by fill color, cross-processor edges dashed.
pub fn schedule_to_dot(dag: &Dag, sched: &BspSchedule) -> String {
    assert_eq!(sched.n(), dag.n());
    let mut s =
        String::from("digraph schedule {\n  rankdir=TB;\n  node [shape=box, style=filled];\n");
    let n_steps = sched.n_supersteps();
    for step in 0..n_steps {
        let nodes = sched.nodes_in_step(step);
        if nodes.is_empty() {
            continue;
        }
        let _ = writeln!(s, "  subgraph cluster_s{step} {{");
        let _ = writeln!(s, "    label=\"superstep {step}\";");
        for v in nodes {
            let p = sched.proc(v) as usize;
            let _ = writeln!(
                s,
                "    n{v} [label=\"{v}\\np{p}\", fillcolor=\"{}\"];",
                PALETTE[p % PALETTE.len()]
            );
        }
        s.push_str("  }\n");
    }
    for (u, v) in dag.edges() {
        if sched.proc(u) == sched.proc(v) {
            let _ = writeln!(s, "  n{u} -> n{v};");
        } else {
            let _ = writeln!(s, "  n{u} -> n{v} [style=dashed];");
        }
    }
    s.push_str("}\n");
    s
}

/// Renders a per-superstep summary table: node count, per-processor work,
/// transfers leaving in each communication phase, and the total cost line.
/// Uses the explicit `comm` if given, otherwise the lazy Γ.
pub fn schedule_to_text(
    dag: &Dag,
    machine: &BspParams,
    sched: &BspSchedule,
    comm: Option<&CommSchedule>,
) -> String {
    assert_eq!(sched.n(), dag.n());
    let p = machine.p();
    let n_steps = sched.n_supersteps();
    let mut out = String::new();
    let transfers: Vec<(u32, u32, u32)> = match comm {
        Some(c) => c.entries().iter().map(|e| (e.step, e.from, e.to)).collect(),
        None => {
            let lazy = CommSchedule::lazy(dag, sched);
            lazy.entries()
                .iter()
                .map(|e| (e.step, e.from, e.to))
                .collect()
        }
    };
    let _ = writeln!(
        out,
        "schedule: {} nodes, {} supersteps, {} processors",
        dag.n(),
        n_steps,
        p
    );
    for s in 0..n_steps {
        let loads: Vec<u64> = (0..p as u32).map(|q| sched.work_of(dag, q, s)).collect();
        let sent = transfers.iter().filter(|&&(st, ..)| st == s).count();
        let _ = writeln!(
            out,
            "  superstep {s:>3}: nodes={:<4} work/proc={loads:?} transfers={sent}",
            sched.nodes_in_step(s).len()
        );
    }
    let cost = match comm {
        Some(c) => total_cost(dag, machine, sched, c),
        None => lazy_cost(dag, machine, sched),
    };
    let _ = writeln!(
        out,
        "  total cost = {cost} (g={}, l={})",
        machine.g(),
        machine.l()
    );
    out
}

/// ASCII Gantt chart of a classical (time-indexed) schedule: one row per
/// processor, one column per time unit (compressed to at most `max_width`
/// columns), node ids shown at their start positions where space allows.
pub fn classical_to_gantt(dag: &Dag, sched: &crate::ClassicalSchedule, max_width: usize) -> String {
    let p = sched
        .proc
        .iter()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    let makespan = sched.makespan(dag).max(1);
    let width = max_width.clamp(10, 400).min(makespan as usize);
    let scale = makespan as f64 / width as f64;
    let col = |t: u64| (((t as f64) / scale) as usize).min(width - 1);

    let mut rows = vec![vec![b'.'; width]; p];
    for v in dag.nodes() {
        let q = sched.proc[v as usize] as usize;
        let (from, to) = (
            sched.start[v as usize],
            sched.start[v as usize] + dag.work(v),
        );
        for cell in rows[q]
            .iter_mut()
            .take(col(to.max(from + 1)) + 1)
            .skip(col(from))
        {
            if *cell == b'.' {
                *cell = b'#';
            }
        }
        // Label the start cell with the node id where it fits.
        let label = v.to_string();
        let at = col(from);
        if at + label.len() <= width {
            for (i, ch) in label.bytes().enumerate() {
                rows[q][at + i] = ch;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gantt: makespan {makespan}, 1 column ≈ {scale:.1} time units"
    );
    for (q, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "  p{q:<2} |{}|", String::from_utf8_lossy(row));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsp_dag::DagBuilder;

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_node(1, 2);
        let x = b.add_node(2, 3);
        let y = b.add_node(3, 1);
        let d = b.add_node(1, 1);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, d).unwrap();
        b.add_edge(y, d).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dag_dot_lists_all_nodes_and_edges() {
        let dag = diamond();
        let dot = dag_to_dot(&dag);
        assert!(dot.starts_with("digraph dag {"));
        assert!(dot.trim_end().ends_with('}'));
        for v in 0..4 {
            assert!(dot.contains(&format!("n{v} [label=")), "missing node {v}");
        }
        assert_eq!(dot.matches("->").count(), 4);
        assert!(dot.contains("w=1 c=2"));
    }

    #[test]
    fn schedule_dot_clusters_by_superstep_and_dashes_cross_edges() {
        let dag = diamond();
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 0], vec![0, 1, 1, 2]);
        let dot = schedule_to_dot(&dag, &sched);
        assert!(dot.contains("cluster_s0"));
        assert!(dot.contains("cluster_s1"));
        assert!(dot.contains("cluster_s2"));
        // a→y and y→d cross processors; a→x and x→d stay local.
        assert_eq!(dot.matches("[style=dashed]").count(), 2);
    }

    #[test]
    fn text_summary_has_one_line_per_superstep_and_cost() {
        let dag = diamond();
        let machine = BspParams::new(2, 3, 5);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 0], vec![0, 1, 1, 2]);
        let txt = schedule_to_text(&dag, &machine, &sched, None);
        assert_eq!(txt.matches("  superstep ").count(), 3);
        let expected = lazy_cost(&dag, &machine, &sched);
        assert!(txt.contains(&format!("total cost = {expected}")));
    }

    #[test]
    fn text_summary_with_explicit_comm_uses_total_cost() {
        let dag = diamond();
        let machine = BspParams::new(2, 3, 5);
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 0], vec![0, 1, 1, 2]);
        let comm = CommSchedule::lazy(&dag, &sched);
        let txt = schedule_to_text(&dag, &machine, &sched, Some(&comm));
        let expected = total_cost(&dag, &machine, &sched, &comm);
        assert!(txt.contains(&format!("total cost = {expected}")));
    }

    #[test]
    fn transfer_count_matches_required_transfers() {
        use crate::comm::required_transfers;
        let dag = diamond();
        let sched = BspSchedule::from_parts(vec![0, 0, 1, 0], vec![0, 1, 1, 2]);
        assert_eq!(required_transfers(&dag, &sched).len(), 2);
        let local = BspSchedule::from_parts(vec![0; 4], vec![0, 1, 1, 2]);
        assert_eq!(required_transfers(&dag, &local).len(), 0);
    }

    #[test]
    fn gantt_rows_and_busy_cells() {
        use crate::ClassicalSchedule;
        let dag = diamond();
        // p0: a at 0 (w1), x at 1 (w2); p1: y at 1 (w3); p0: d at 4 (w1).
        let sched = ClassicalSchedule {
            proc: vec![0, 0, 1, 0],
            start: vec![0, 1, 1, 4],
        };
        let g = classical_to_gantt(&dag, &sched, 40);
        assert!(g.contains("makespan 5"));
        assert_eq!(g.matches('|').count(), 4); // two rows, two bars each
        let rows: Vec<&str> = g.lines().skip(1).collect();
        assert!(rows[0].starts_with("  p0"));
        assert!(rows[1].starts_with("  p1"));
        // p1 is idle at time 0: its first cell is still '.'.
        let p1 = rows[1].split('|').nth(1).unwrap();
        assert!(p1.starts_with('.'));
    }

    #[test]
    fn gantt_compresses_long_schedules() {
        use crate::ClassicalSchedule;
        let mut b = DagBuilder::new();
        let u = b.add_node(1000, 1);
        let v = b.add_node(1000, 1);
        let dag = {
            b.add_edge(u, v).unwrap();
            b.build().unwrap()
        };
        let sched = ClassicalSchedule {
            proc: vec![0, 0],
            start: vec![0, 1000],
        };
        let g = classical_to_gantt(&dag, &sched, 50);
        let row = g.lines().nth(1).unwrap();
        let bar = row.split('|').nth(1).unwrap();
        assert!(bar.len() <= 50);
        assert!(
            !bar.contains('.'),
            "fully busy processor shows no idle cells"
        );
    }

    #[test]
    fn empty_dag_exports() {
        let dag = DagBuilder::new().build().unwrap();
        let machine = BspParams::new(2, 1, 1);
        let sched = BspSchedule::zeroed(0);
        assert!(dag_to_dot(&dag).contains("digraph"));
        assert!(schedule_to_dot(&dag, &sched).contains("digraph"));
        let txt = schedule_to_text(&dag, &machine, &sched, None);
        assert!(txt.contains("0 nodes"));
    }
}
