//! The daemon keeps a recipe for every instance it resolved and only a
//! bounded set of the instances themselves: first-use instances on a
//! probation FIFO of `queue_cap`, instances looked up again in a
//! byte-budgeted reuse tier. An evicted instance is rebuilt from its
//! recipe when it is needed again, and a stored answer needs none.
//!
//! The rebuild and eviction counters are process-wide, so the tests of
//! this binary run one at a time.

use bsp_instance::DagEdit;
use bsp_serve::client::{Client, DeltaParams, SolveParams};
use bsp_serve::server::{start, ServeConfig, ServerHandle};
use std::sync::Mutex;

const BASE: &str = "layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5";
static SERIAL: Mutex<()> = Mutex::new(());

fn server(queue_cap: usize) -> ServerHandle {
    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    cfg.queue_cap = queue_cap;
    cfg.default_budget_ms = Some(10_000);
    start(cfg).expect("server binds a loopback port")
}

fn solve_of(instance: &str) -> SolveParams {
    let mut p = SolveParams::default();
    p.instance = instance.to_string();
    p
}

/// `count` solves of never-seen specs, each instance used once.
fn one_shot_solves(client: &mut Client, salt: u64, count: u64) {
    for i in 0..count {
        let spec = format!("layered?layers=2&width=3&q=0.5&seed={} @ bsp?p=2", salt + i);
        let r = client.solve(&solve_of(&spec)).unwrap().result;
        assert_eq!(r.cache_hit, Some(false), "{spec}");
    }
}

fn delta_on(client: &mut Client, base: &str, edits: Vec<DagEdit>) -> bsp_serve::Frame {
    let mut d = DeltaParams::default();
    d.base = base.to_string();
    d.edits = edits;
    client.delta(&d).unwrap().result
}

fn add_node(pred: u32) -> Vec<DagEdit> {
    vec![DagEdit::AddNode {
        work: 5,
        comm: 2,
        preds: vec![pred],
        succs: vec![],
    }]
}

/// The value of a process-wide counter, from a `stats` frame.
fn counter(client: &mut Client, name: &str) -> i64 {
    let (_, metrics) = client.stats_with_metrics().unwrap();
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn one_shot_solves_leave_at_most_the_queue_and_the_reused_set_resident() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    const QUEUE_CAP: usize = 8;
    let handle = server(QUEUE_CAP);
    let mut client = Client::connect(handle.addr()).unwrap();
    // One reused instance: a base solved, then edited.
    let base = client.solve(&solve_of(BASE)).unwrap().result;
    let base_name = base.instance.unwrap();
    assert_eq!(
        delta_on(&mut client, &base_name, add_node(0)).warm,
        Some(true)
    );
    let evictions = counter(&mut client, "bsp_serve_instance_evictions_total");

    one_shot_solves(&mut client, 1_000, 500);
    let stats = client.stats().unwrap();
    assert!(
        stats.cached_instances <= QUEUE_CAP as u64 + 1,
        "{} resident",
        stats.cached_instances
    );
    assert!(counter(&mut client, "bsp_serve_instance_evictions_total") >= evictions + 490);
    // The reused base stayed resident: editing it again rebuilds nothing.
    let rebuilds = counter(&mut client, "bsp_serve_instance_rebuilds_total");
    assert_eq!(
        delta_on(&mut client, &base_name, add_node(1)).warm,
        Some(true)
    );
    assert_eq!(
        counter(&mut client, "bsp_serve_instance_rebuilds_total"),
        rebuilds
    );
    handle.shutdown();
}

/// Solve the base, edit it twice in a chain, edit the chain's end, then
/// edit the base again, with one-shot solves in between that evict
/// whatever is on probation when the queue is small. Returns the costs.
fn edit_chain_costs(queue_cap: usize) -> (Vec<u64>, i64) {
    let handle = server(queue_cap);
    let mut client = Client::connect(handle.addr()).unwrap();
    let rebuilds = counter(&mut client, "bsp_serve_instance_rebuilds_total");
    let mut costs = Vec::new();
    let base = client.solve(&solve_of(BASE)).unwrap().result;
    costs.push(base.cost.unwrap());
    let base_name = base.instance.unwrap();
    one_shot_solves(&mut client, 2_000, 12);
    // The base is evicted (first use only): it is regenerated.
    let d1 = delta_on(&mut client, &base_name, add_node(0));
    costs.push(d1.cost.unwrap());
    let d2 = delta_on(&mut client, d1.instance.as_deref().unwrap(), add_node(2));
    costs.push(d2.cost.unwrap());
    one_shot_solves(&mut client, 3_000, 12);
    // Two edits deep and evicted: replayed from its recipe chain.
    let d3 = delta_on(&mut client, d2.instance.as_deref().unwrap(), add_node(3));
    costs.push(d3.cost.unwrap());
    assert_eq!(d3.warm, Some(true), "the stored d2 schedule warm-starts it");
    let rebuilt = counter(&mut client, "bsp_serve_instance_rebuilds_total") - rebuilds;
    handle.shutdown();
    (costs, rebuilt)
}

#[test]
fn edits_on_evicted_bases_answer_as_an_unevicted_daemon_does() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (kept, kept_rebuilds) = edit_chain_costs(1024);
    let (evicted, rebuilds) = edit_chain_costs(4);
    assert_eq!(kept_rebuilds, 0, "nothing evicted at queue_cap 1024");
    assert!(rebuilds >= 2, "base and chain end rebuilt: {rebuilds}");
    assert_eq!(evicted, kept);
}

#[test]
fn a_stored_solve_of_an_evicted_spec_is_answered_at_admission() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let handle = server(4);
    let mut client = Client::connect(handle.addr()).unwrap();
    let cold = client.solve(&solve_of(BASE)).unwrap().result;
    one_shot_solves(&mut client, 4_000, 12);
    let before = client.stats().unwrap();
    let rebuilds = counter(&mut client, "bsp_serve_instance_rebuilds_total");
    let hit = client.solve(&solve_of(BASE)).unwrap().result;
    assert_eq!((hit.cache_hit, hit.cost), (Some(true), cold.cost));
    let after = client.stats().unwrap();
    assert_eq!(after.jobs_done, before.jobs_done, "answered at admission");
    assert_eq!(after.cached_instances, before.cached_instances);
    assert_eq!(
        counter(&mut client, "bsp_serve_instance_rebuilds_total"),
        rebuilds
    );
    handle.shutdown();
}
