//! Fault-injection end-to-end tests: real servers on loopback with a
//! `ServeConfig::faults` plan installed, driven by the blocking client.
//! Covers the acceptance scenario of the robustness work — a panic
//! injected into a solve stage answers `internal_error` and the *same
//! connection* keeps working — plus queue_full backoff with the server's
//! `retry_after_ms` hint, zero-deadline shedding, and server-side
//! `rkey` deduplication of racing retries.

use bsp_serve::client::{Client, RetryPolicy, SolveParams};
use bsp_serve::protocol::{codes, parse_line, read_line_capped, to_line, Frame, LineRead, Request};
use bsp_serve::server::{start, ServeConfig};
use std::io::Write;
use std::time::Duration;

const INSTANCE: &str = "layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5";

fn faulty_server(threads: usize, queue_cap: usize, faults: &str) -> bsp_serve::ServerHandle {
    let mut cfg = ServeConfig::default();
    cfg.threads = threads;
    cfg.queue_cap = queue_cap;
    cfg.default_budget_ms = Some(1000);
    cfg.faults = Some(faults.to_string());
    start(cfg).expect("server binds a loopback port")
}

fn solve_params(instance: &str) -> SolveParams {
    let mut p = SolveParams::default();
    p.instance = instance.to_string();
    p.budget_ms = Some(500);
    p
}

/// The acceptance scenario: with `panic=1.0` scoped to exactly one job
/// execution, the worker pool catches the unwind, answers a typed
/// `internal_error`, and the next request on the very same connection is
/// served normally.
#[test]
fn injected_job_panic_answers_internal_error_and_connection_survives() {
    let handle = faulty_server(2, 64, "faults?seed=11&panic=1.0&only=job&max=1");
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client
        .solve(&solve_params(INSTANCE))
        .expect_err("the poisoned solve must fail");
    assert!(
        err.is_code(codes::INTERNAL_ERROR),
        "expected internal_error, got {err}"
    );

    // Same connection, same request: the fault budget is spent, the
    // worker that panicked was isolated, and the solve goes through.
    let ok = client.solve(&solve_params(INSTANCE)).unwrap();
    assert_eq!(ok.result.kind, "result");
    assert!(ok.result.cost.unwrap() > 0);

    // The failure was counted where operators look for it.
    let (_, metrics) = client.stats_with_metrics().unwrap();
    let failed = metrics
        .iter()
        .find(|m| m.name == "bsp_jobs_failed_total")
        .map_or(0, |m| m.value);
    assert!(failed >= 1, "bsp_jobs_failed_total missing or zero");
    handle.shutdown();
}

/// An injected I/O error in the job body is not a panic — it still
/// surfaces as a typed `internal_error` naming the injection.
#[test]
fn injected_job_io_error_is_a_typed_frame() {
    let handle = faulty_server(1, 64, "faults?seed=5&io_err=1.0&only=job&max=1");
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client.solve(&solve_params(INSTANCE)).expect_err("injected");
    assert!(err.is_code(codes::INTERNAL_ERROR), "got {err}");
    assert!(client.solve(&solve_params(INSTANCE)).is_ok());
    handle.shutdown();
}

/// Backpressure: with one worker wedged on an injected-slow job and a
/// one-slot queue, a third request answers `queue_full` carrying a
/// `retry_after_ms` hint, and the retrying client eventually lands it.
#[test]
fn queue_full_carries_retry_after_hint_and_retry_succeeds() {
    // The first two jobs sleep 400 ms each; later jobs run clean.
    let handle = faulty_server(1, 1, "faults?seed=2&slow=1.0&slow_ms=400&only=job&max=2");
    let addr = handle.addr();

    // Fill the worker and the queue from background connections. The
    // fillers are staggered: the first job must already be *popped* (and
    // wedged in its injected sleep) before the second is pushed, or the
    // second would transiently occupy the queue's only slot and drain.
    let mut fillers = Vec::new();
    for stagger_ms in [0u64, 150] {
        std::thread::sleep(Duration::from_millis(stagger_ms));
        fillers.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.solve(&solve_params(INSTANCE)).unwrap();
        }));
    }
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(addr).unwrap();
    let mut p = solve_params(INSTANCE);
    p.seed = Some(999);
    let err = client.solve(&p).expect_err("queue must be full");
    assert!(err.is_code(codes::QUEUE_FULL), "got {err}");
    let hint = match &err {
        bsp_serve::ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
        _ => None,
    };
    let hint = hint.expect("queue_full frame carries retry_after_ms");
    assert!((10..=5000).contains(&hint), "hint {hint} out of range");

    // The retry path honors the hint and keeps backing off until the
    // wedged jobs drain.
    let policy = RetryPolicy {
        max_retries: 12,
        base_ms: 50,
        cap_ms: 500,
        seed: 42,
    };
    let ok = client.solve_with_retry(&p, &policy).unwrap();
    assert!(ok.result.cost.unwrap() > 0);
    for f in fillers {
        f.join().unwrap();
    }
    handle.shutdown();
}

/// Deadline admission: a request whose deadline budget is already zero is
/// shed with the typed `deadline_shed` code instead of wasting a worker.
#[test]
fn zero_deadline_is_shed_at_admission() {
    let handle = faulty_server(1, 64, "faults?seed=1"); // no-op plan
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut req = Request::new("solve");
    req.instance = Some(INSTANCE.to_string());
    req.deadline_ms = Some(0);
    let err = client.request(req).expect_err("must be shed");
    assert!(err.is_code(codes::DEADLINE_SHED), "got {err}");

    // A generous deadline sails through.
    let mut req = Request::new("solve");
    req.instance = Some(INSTANCE.to_string());
    req.budget_ms = Some(500);
    req.deadline_ms = Some(60_000);
    assert!(client.request(req).unwrap().result.cost.unwrap() > 0);
    handle.shutdown();
}

/// Idempotent retries: two pipelined requests with the same `rkey` — the
/// second arriving while the first is still in flight — are answered
/// from ONE job execution, each under its own correlation id.
#[test]
fn duplicate_rkey_attaches_to_the_inflight_job() {
    // Slow the (single) solve down so the duplicate reliably arrives
    // while it is in flight.
    let handle = faulty_server(1, 64, "faults?seed=3&slow=1.0&slow_ms=300&only=job&max=1");

    // Hand-rolled pipelining: the blocking client cannot keep two
    // requests in flight, so write both lines before reading any frame.
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);

    let mut req = Request::new("solve");
    req.instance = Some(INSTANCE.to_string());
    req.budget_ms = Some(500);
    req.rkey = Some("rk-dup-test".to_string());
    let mut lines = String::new();
    for id in 1..=2u64 {
        req.id = Some(id);
        lines.push_str(&to_line(&req));
        lines.push('\n');
    }
    writer.write_all(lines.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut line = Vec::new();
    let mut read_frame = || -> Frame {
        match read_line_capped(&mut reader, 1 << 20, &mut line).unwrap() {
            LineRead::Line(l) => parse_line(&l).unwrap(),
            other => panic!("expected a frame line, got {other:?}"),
        }
    };
    let a = read_frame();
    let b = read_frame();
    assert_eq!(a.kind, "result");
    assert_eq!(b.kind, "result");
    let mut ids = [a.id.unwrap(), b.id.unwrap()];
    ids.sort_unstable();
    assert_eq!(ids, [1, 2], "each duplicate is answered under its own id");
    assert_eq!(a.cost, b.cost, "one execution, one cost");

    // Exactly one job ran: the duplicate attached instead of re-solving.
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_done, 1, "rkey dedupe must not double-execute");
    handle.shutdown();
}

/// Stream requests are jobs: with the single worker wedged on a slow
/// solve and the one-slot queue taken, a `stream_push` is refused with
/// `queue_full` and a `retry_after_ms` hint like any other job, the
/// refusal leaves the session as it was, and the retried push feeds each
/// event to the scheduler exactly once.
#[test]
fn stream_push_answers_queue_full_and_the_retry_counts_each_event_once() {
    use bsp_instance::trace::ArrivalEvent;
    // Every job sleeps 400 ms until three have: the open and two fillers.
    let handle = faulty_server(1, 1, "faults?seed=2&slow=1.0&slow_ms=400&only=job&max=3");
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .stream_open("s", "bsp?p=2&g=1&l=2", Some(50))
        .unwrap();

    // As in the solve test above: the first filler must be popped (and
    // asleep) before the second takes the queue's only slot.
    let mut fillers = Vec::new();
    for stagger_ms in [0u64, 150] {
        std::thread::sleep(Duration::from_millis(stagger_ms));
        fillers.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.solve(&solve_params(INSTANCE)).unwrap();
        }));
    }
    while client.stats().unwrap().queued < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let events: Vec<ArrivalEvent> = (0..3u32)
        .map(|node| ArrivalEvent::Arrive {
            node,
            work: 2,
            comm: 1,
            deps: (0..node).collect(),
        })
        .collect();
    let err = client
        .stream_push("s", &events)
        .expect_err("queue must be full");
    assert!(err.is_code(codes::QUEUE_FULL), "got {err}");
    let hint = match &err {
        bsp_serve::ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
        _ => None,
    };
    let mut wait_ms = hint.expect("queue_full frame carries retry_after_ms");
    assert!(
        (10..=5000).contains(&wait_ms),
        "hint {wait_ms} out of range"
    );

    let frame = loop {
        std::thread::sleep(Duration::from_millis(wait_ms));
        match client.stream_push("s", &events) {
            Ok(frame) => break frame,
            Err(e) if e.is_code(codes::QUEUE_FULL) => wait_ms = 50,
            Err(e) => panic!("retried push failed: {e}"),
        }
    };
    assert_eq!(
        frame.arrivals,
        Some(events.len() as u64),
        "a refused push must not have reached the session"
    );
    let done = client.stream_close("s").unwrap();
    assert_eq!(done.arrivals, Some(events.len() as u64));
    for f in fillers {
        f.join().unwrap();
    }
    handle.shutdown();
}
