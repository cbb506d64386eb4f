//! End-to-end tests of the `stream_open`/`stream_push`/`stream_close`
//! protocol: a client pushes arrival-event frames and the server streams
//! back updated suffix schedules with a monotone commit frontier; the
//! committed prefix is never reassigned between frames; the final result
//! is a valid schedule of the full DAG. Also covers the `--store-cap`
//! LRU behaviour through the `stats` method.

use bsp_instance::trace::{arrival_trace, ArrivalEvent, ArrivalOrder, TraceConfig};
use bsp_instance::InstanceRegistry;
use bsp_schedule::validity::validate_lazy;
use bsp_schedule::BspSchedule;
use bsp_serve::client::{Client, SolveParams};
use bsp_serve::protocol::codes;
use bsp_serve::server::{start, ServeConfig};
use std::collections::HashMap;

const MACHINE: &str = "bsp?p=4&g=2&l=5";

fn test_server() -> bsp_serve::ServerHandle {
    let mut cfg = ServeConfig::default();
    cfg.threads = 2;
    cfg.default_budget_ms = Some(1000);
    start(cfg).expect("server binds a loopback port")
}

#[test]
fn stream_session_commits_monotonically_and_ends_valid() {
    let inst = InstanceRegistry::standard()
        .generate_one(
            &format!("layered?layers=5&width=5&q=0.3&seed=3 @ {MACHINE}"),
            3,
        )
        .unwrap();
    let tcfg = TraceConfig {
        order: ArrivalOrder::ShuffledReady,
        reveal_frac: 0.25,
        reveal_delay: 4,
        seed: 11,
    };
    let trace = arrival_trace(&inst.dag, "stream-test", &tcfg);

    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let opened = client.stream_open("s1", MACHINE, Some(50)).unwrap();
    assert_eq!(opened.kind, "stream");
    assert_eq!(opened.frontier, Some(0));

    // Push everything but the trailing Finalize, in small frames, and
    // track what each frame claims about the committed prefix.
    let body = &trace.events[..trace.events.len() - 1];
    let mut frontier = 0u64;
    let mut committed: HashMap<u32, (u32, u32)> = HashMap::new();
    for chunk in body.chunks(7) {
        let frame = client.stream_push("s1", chunk).unwrap();
        assert_eq!(frame.kind, "stream");
        let f = frame.frontier.unwrap();
        assert!(f >= frontier, "frontier retreated: {f} < {frontier}");
        frontier = f;
        let nodes = frame.suffix_nodes.unwrap();
        let procs = frame.suffix_procs.unwrap();
        let steps = frame.suffix_steps.unwrap();
        assert_eq!(nodes.len(), procs.len());
        assert_eq!(nodes.len(), steps.len());
        for i in 0..nodes.len() {
            // Everything in a suffix frame is tentative…
            assert!(steps[i] as u64 >= f, "suffix node below the frontier");
            // …and must not have been committed by an earlier frame.
            assert!(!committed.contains_key(&nodes[i]));
        }
        // Nodes that vanished from the suffix are now committed: remember
        // their final assignment (no later frame may contradict it — they
        // simply never reappear, checked above).
        let in_suffix: HashMap<u32, (u32, u32)> = nodes
            .iter()
            .zip(procs.iter().zip(steps.iter()))
            .map(|(&n, (&p, &s))| (n, (p, s)))
            .collect();
        committed.retain(|n, _| !in_suffix.contains_key(n));
        for (n, a) in in_suffix {
            if (a.1 as u64) < f {
                committed.insert(n, a);
            }
        }
    }

    let done = client.stream_close("s1").unwrap();
    assert_eq!(done.kind, "result");
    assert_eq!(done.arrivals, Some(inst.dag.n() as u64));
    let cost = done.cost.expect("final cost");
    assert!(cost > 0);

    // Rebuild the full assignment (trace-level = source-DAG ids) and
    // check it is a valid schedule of the original instance.
    let nodes = done.suffix_nodes.unwrap();
    let procs = done.suffix_procs.unwrap();
    let steps = done.suffix_steps.unwrap();
    assert_eq!(nodes.len(), inst.dag.n());
    let mut sched = BspSchedule::zeroed(inst.dag.n());
    for i in 0..nodes.len() {
        sched.set(nodes[i], procs[i], steps[i]);
    }
    assert!(validate_lazy(&inst.dag, 4, &sched).is_ok());

    // The session is gone after close.
    let err = client.stream_push(
        "s1",
        &[ArrivalEvent::Arrive {
            node: 0,
            work: 1,
            comm: 1,
            deps: vec![],
        }],
    );
    assert!(err.unwrap_err().is_code(codes::UNKNOWN_SESSION));
    handle.shutdown();
}

#[test]
fn stream_protocol_error_paths_are_typed() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown session, missing fields, bad machine spec.
    assert!(client
        .stream_push("ghost", &[ArrivalEvent::Finalize])
        .unwrap_err()
        .is_code(codes::UNKNOWN_SESSION));
    assert!(client
        .stream_close("ghost")
        .unwrap_err()
        .is_code(codes::UNKNOWN_SESSION));
    assert!(client
        .stream_open("s", "bsp?p=not-a-number", None)
        .unwrap_err()
        .is_code(codes::BAD_SPEC));
    // Memory-bounded machines are rejected at open.
    assert!(client
        .stream_open("s", "bsp?p=2&mem=64", None)
        .unwrap_err()
        .is_code(codes::BAD_SPEC));

    client.stream_open("s", "bsp?p=2", None).unwrap();
    // Re-opening the same session is an error.
    assert!(client
        .stream_open("s", "bsp?p=2", None)
        .unwrap_err()
        .is_code(codes::BAD_SPEC));
    // A bad event (unknown dependency) is typed, not fatal to the socket.
    assert!(client
        .stream_push(
            "s",
            &[ArrivalEvent::Arrive {
                node: 1,
                work: 1,
                comm: 1,
                deps: vec![99],
            }]
        )
        .unwrap_err()
        .is_code(codes::BAD_EVENT));
    handle.shutdown();
}

#[test]
fn store_cap_evicts_and_reports_through_stats() {
    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    cfg.default_budget_ms = Some(500);
    cfg.store_cap = Some(2);
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for seed in [1u64, 2, 3] {
        let mut p = SolveParams::default();
        p.instance = format!("layered?layers=3&width=3&q=0.3&seed={seed} @ {MACHINE}");
        p.budget_ms = Some(200);
        let r = client.solve(&p).unwrap();
        assert_eq!(r.result.cache_hit, Some(false));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.cached_results, 2, "cap bounds the store");
    assert_eq!(stats.evictions, 1, "one entry was evicted");
    handle.shutdown();
}

/// Stream requests go through the same admission as `solve`/`delta`: a
/// spent deadline is shed without touching the session, and a draining
/// server refuses the push instead of running it.
#[test]
fn stream_push_is_shed_on_a_spent_deadline_and_refused_while_draining() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.stream_open("s", "bsp?p=2", Some(50)).unwrap();
    let arrive = |node: u32| ArrivalEvent::Arrive {
        node,
        work: 1,
        comm: 1,
        deps: vec![],
    };

    let mut req = bsp_serve::Request::new("stream_push");
    req.session = Some("s".to_string());
    req.events = Some(vec![arrive(0)]);
    req.deadline_ms = Some(0);
    let err = client.request(req).expect_err("must be shed");
    assert!(err.is_code(codes::DEADLINE_SHED), "got {err}");
    // The shed push never reached the session: node 0 is still new to it.
    let frame = client.stream_push("s", &[arrive(0)]).unwrap();
    assert_eq!(frame.arrivals, Some(1));

    handle.begin_shutdown();
    let err = client
        .stream_push("s", &[arrive(1)])
        .expect_err("a draining server admits no stream job");
    assert!(err.is_code(codes::SHUTTING_DOWN), "got {err}");
    handle.wait();
}
