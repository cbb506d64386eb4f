//! End-to-end smoke tests: one real server on loopback per test, driven
//! by the blocking client. Covers the cold → cached → delta lifecycle,
//! streamed progress events and every typed protocol-error path.

use bsp_instance::DagEdit;
use bsp_serve::client::{Client, DeltaParams, SolveParams};
use bsp_serve::protocol::codes;
use bsp_serve::server::{start, ServeConfig};

const INSTANCE: &str = "layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5";

fn test_server() -> bsp_serve::ServerHandle {
    let mut cfg = ServeConfig::default();
    cfg.threads = 2;
    cfg.default_budget_ms = Some(1000);
    start(cfg).expect("server binds a loopback port")
}

fn solve_params(budget_ms: u64) -> SolveParams {
    let mut p = SolveParams::default();
    p.instance = INSTANCE.to_string();
    p.budget_ms = Some(budget_ms);
    p
}

#[test]
fn cold_solve_then_cache_hit() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let cold = client.solve(&solve_params(500)).unwrap();
    assert_eq!(cold.result.kind, "result");
    assert_eq!(cold.result.cache_hit, Some(false));
    let cost = cold.result.cost.expect("cold solve reports a cost");
    assert!(cost > 0);
    assert!(cold.result.stages.as_ref().is_some_and(|s| !s.is_empty()));

    // The same request again — now a pure lookup, same cost, no stages.
    let hit = client.solve(&solve_params(500)).unwrap();
    assert_eq!(hit.result.cache_hit, Some(true));
    assert_eq!(hit.result.cost, Some(cost));
    assert!(hit.result.stages.is_none());

    // Parameter order must not matter: same canonical key.
    let mut reordered = solve_params(500);
    reordered.instance = "layered?width=6&layers=4&seed=7&q=0.3 @ bsp?g=2&l=5&p=4".to_string();
    let hit2 = client.solve(&reordered).unwrap();
    assert_eq!(hit2.result.cache_hit, Some(true));
    assert_eq!(hit2.result.cost, Some(cost));

    let stats = client.stats().unwrap();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.cached_results, 1);
    handle.shutdown();
}

#[test]
fn stats_carries_metrics_and_sidecar_serves_them() {
    use std::io::{Read, Write};

    let mut cfg = ServeConfig::default();
    cfg.threads = 2;
    cfg.default_budget_ms = Some(1000);
    cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    let handle = start(cfg).unwrap();
    let sidecar = handle.metrics_addr().expect("sidecar was configured");
    let mut client = Client::connect(handle.addr()).unwrap();

    // Cold solve then a guaranteed hit, so the counters have signal.
    let mut p = solve_params(300);
    p.instance = "forkjoin?chains=2&depth=2&stages=2 @ bsp?p=2".to_string();
    assert_eq!(client.solve(&p).unwrap().result.cache_hit, Some(false));
    assert_eq!(client.solve(&p).unwrap().result.cache_hit, Some(true));

    // The stats frame carries a flat metrics snapshot. Metrics are
    // process-wide (shared by every server in this test binary), so
    // assert lower bounds, not exact counts.
    let (_, metrics) = client.stats_with_metrics().unwrap();
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing from {metrics:?}"))
            .value
    };
    assert!(value("bsp_serve_cache_hits_total") >= 1);
    assert!(value("bsp_serve_cache_misses_total") >= 1);
    assert!(value("bsp_serve_cold_solves_total") >= 1);
    assert!(value("bsp_serve_requests_total{method=\"solve\"}") >= 2);
    assert!(value("bsp_serve_queue_depth") >= 0);

    // The sidecar serves the same registry as Prometheus text.
    let mut s = std::net::TcpStream::connect(sidecar).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"));
    assert!(body.contains("# TYPE bsp_serve_cache_hits_total counter"));
    assert!(body.contains("# TYPE bsp_serve_request_duration_us histogram"));
    assert!(body.contains("bsp_serve_request_duration_us_bucket"));

    // And the trace endpoint is Chrome trace-event JSON with the
    // pipeline spans the cold solve just recorded.
    let mut s = std::net::TcpStream::connect(sidecar).unwrap();
    s.write_all(b"GET /trace HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut trace = String::new();
    s.read_to_string(&mut trace).unwrap();
    assert!(trace.starts_with("HTTP/1.1 200 OK"));
    assert!(trace.contains("\"ph\":\"X\""));
    assert!(trace.contains("pipeline/base"));

    handle.shutdown();
}

#[test]
fn delta_resolve_warm_starts_from_cached_base() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let cold = client.solve(&solve_params(1000)).unwrap();
    let canonical = cold.result.instance.clone().unwrap();

    let mut delta = DeltaParams::default();
    delta.base = canonical.clone();
    delta.budget_ms = Some(1000);
    delta.edits = vec![DagEdit::AddNode {
        work: 5,
        comm: 2,
        preds: vec![0],
        succs: vec![],
    }];
    let warm = client.delta(&delta).unwrap();
    assert_eq!(warm.result.kind, "result");
    assert_eq!(warm.result.warm, Some(true), "base schedule was cached");
    assert_eq!(warm.result.cache_hit, Some(false));
    let warm_cost = warm.result.cost.unwrap();
    let warm_init = warm.result.warm_init_cost.unwrap();
    assert!(
        warm_cost <= warm_init,
        "monotone guarantee: {warm_cost} > repaired start {warm_init}"
    );

    // The edited instance is cached under its derived name and can chain.
    let derived = warm.result.instance.clone().unwrap();
    assert_ne!(derived, canonical);
    let mut chained = DeltaParams::default();
    chained.base = derived.clone();
    chained.budget_ms = Some(1000);
    chained.edits = vec![DagEdit::SetWeights {
        node: 0,
        work: Some(50),
        comm: None,
    }];
    let second = client.delta(&chained).unwrap();
    assert_eq!(second.result.warm, Some(true));

    // Re-sending the identical delta is itself a cache hit.
    let replay = client.delta(&delta).unwrap();
    assert_eq!(replay.result.cache_hit, Some(true));
    assert_eq!(replay.result.cost, Some(warm_cost));
    handle.shutdown();
}

#[test]
fn delta_without_cached_base_schedule_falls_back_cold() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Solve under scheduler A; delta under scheduler B has no cached
    // base schedule for B → valid result, warm = false.
    let mut p = solve_params(500);
    p.sched = Some("init/bspg".to_string());
    let cold = client.solve(&p).unwrap();
    let canonical = cold.result.instance.clone().unwrap();

    let mut delta = DeltaParams::default();
    delta.base = canonical;
    delta.budget_ms = Some(500);
    delta.sched = Some("etf".to_string());
    delta.edits = vec![DagEdit::RemoveNode { node: 0 }];
    let resp = client.delta(&delta).unwrap();
    assert_eq!(resp.result.warm, Some(false));
    assert!(resp.result.cost.unwrap() > 0);
    handle.shutdown();
}

#[test]
fn streamed_events_arrive_before_result() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut p = solve_params(1000);
    p.stream = true;
    let resp = client.solve(&p).unwrap();
    assert_eq!(resp.result.cache_hit, Some(false));
    assert!(
        !resp.events.is_empty(),
        "streaming solve produced no events"
    );
    assert!(resp.events.iter().any(|e| e.kind == "stage_start"));
    assert!(resp.events.iter().any(|e| e.kind == "stage_end"));
    handle.shutdown();
}

#[test]
fn a_deeply_nested_line_is_refused_and_the_connection_serves_on() {
    // 10 000 brackets in a 20 KB line: well inside the line cap, and
    // deep enough to overflow a connection thread's stack if the reader
    // recursed once per level.
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let line = format!(
        "{{\"method\":\"ping\",\"x\":{}{}}}",
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let frame = client.raw_roundtrip(&line).unwrap();
    assert_eq!(frame.kind, "error");
    assert_eq!(frame.error.as_deref(), Some(codes::BAD_JSON));
    let message = frame.message.unwrap_or_default();
    assert!(message.contains("nesting deeper than"), "{message}");
    client
        .ping()
        .expect("connection still usable after the deep line");
    handle.shutdown();
}

#[test]
fn typed_protocol_errors() {
    let handle = test_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown method.
    let err = client
        .request(bsp_serve::Request::new("frobnicate"))
        .unwrap_err();
    assert!(err.is_code(codes::UNKNOWN_METHOD), "{err}");

    // Bad JSON gets a typed error, and the connection survives it.
    let frame = client.raw_roundtrip("{not json at all").unwrap();
    assert_eq!(frame.error.as_deref(), Some(codes::BAD_JSON));
    client
        .ping()
        .expect("connection still usable after bad_json");

    // Bad instance spec.
    let mut p = SolveParams::default();
    p.instance = "no-such-family?x=1 @ bsp?p=2".to_string();
    let err = client.solve(&p).unwrap_err();
    assert!(err.is_code(codes::BAD_SPEC), "{err}");

    // Bad scheduler spec.
    let mut p = solve_params(200);
    p.sched = Some("no-such-scheduler".to_string());
    let err = client.solve(&p).unwrap_err();
    assert!(err.is_code(codes::BAD_SPEC), "{err}");

    // Missing required field.
    let err = client
        .request(bsp_serve::Request::new("solve"))
        .unwrap_err();
    assert!(err.is_code(codes::MISSING_FIELD), "{err}");

    // Delta against a base the server has never seen.
    let mut d = DeltaParams::default();
    d.base = "never-solved?n=1 @ bsp?p=2".to_string();
    d.edits = vec![DagEdit::RemoveNode { node: 0 }];
    let err = client.delta(&d).unwrap_err();
    assert!(err.is_code(codes::UNKNOWN_BASE), "{err}");

    // Delta with an empty edit list.
    let mut req = bsp_serve::Request::new("delta");
    req.base = Some("x @ y".to_string());
    req.edits = Some(vec![]);
    let err = client.request(req).unwrap_err();
    assert!(err.is_code(codes::MISSING_FIELD), "{err}");

    // An edit that cannot apply (cycle) after solving a real base.
    client.solve(&solve_params(300)).unwrap();
    let mut d = DeltaParams::default();
    d.base = INSTANCE.to_string();
    d.edits = vec![DagEdit::AddEdge { from: 0, to: 0 }];
    let err = client.delta(&d).unwrap_err();
    assert!(err.is_code(codes::BAD_EDIT), "{err}");

    handle.shutdown();
}

#[test]
fn oversize_line_is_rejected_with_typed_error() {
    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    cfg.max_line = 256;
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let huge = format!("{{\"method\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(512));
    let frame = client.raw_roundtrip(&huge).unwrap();
    assert_eq!(frame.error.as_deref(), Some(codes::OVERSIZE_LINE));
    handle.shutdown();
}

#[test]
fn queue_full_is_reported_not_dropped() {
    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    cfg.queue_cap = 1;
    let handle = start(cfg).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Saturate the single worker with a slow solve, then fill the
    // one-slot queue, then overflow it. Raw writes: the blocking client
    // API would wait for responses.
    let slow =
        format!("{{\"method\":\"solve\",\"id\":1,\"instance\":\"{INSTANCE}\",\"budget_ms\":600}}");
    let queued = format!(
        "{{\"method\":\"solve\",\"id\":2,\"instance\":\"{INSTANCE}\",\"budget_ms\":600,\"sched\":\"etf\"}}"
    );
    let overflow = format!(
        "{{\"method\":\"solve\",\"id\":3,\"instance\":\"{INSTANCE}\",\"budget_ms\":600,\"sched\":\"init/bspg\"}}"
    );
    // Burst all three lines; at least the last must be rejected as
    // queue_full (worker may or may not have grabbed the first yet).
    let burst = format!("{slow}\n{queued}\n{overflow}");
    let frame = client.raw_roundtrip(&burst).unwrap();
    let mut saw_queue_full = frame.error.as_deref() == Some(codes::QUEUE_FULL);
    // Drain remaining frames until every request is answered.
    for _ in 0..2 {
        if let Ok(f) = client.raw_roundtrip("") {
            saw_queue_full |= f.error.as_deref() == Some(codes::QUEUE_FULL);
        }
    }
    assert!(saw_queue_full, "no queue_full frame for the overflow burst");
    handle.shutdown();
}
