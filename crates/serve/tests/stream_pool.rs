//! Stream requests run on the worker pool and nowhere else. These two
//! tests read process-global metrics exactly (`bsp_serve_inflight_jobs`
//! never above 1, `bsp_jobs_failed_total` up by exactly 1), so they live
//! in their own test binary — no other server shares the process — and
//! take turns on one lock.

use bsp_instance::trace::ArrivalEvent;
use bsp_serve::client::Client;
use bsp_serve::protocol::codes;
use bsp_serve::server::{start, ServeConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

static ONE_SERVER_AT_A_TIME: Mutex<()> = Mutex::new(());

const MACHINE: &str = "bsp?p=2&g=1&l=2";

fn faulty_server(threads: usize, faults: &str) -> bsp_serve::ServerHandle {
    let mut cfg = ServeConfig::default();
    cfg.threads = threads;
    cfg.default_budget_ms = Some(1000);
    cfg.faults = Some(faults.to_string());
    start(cfg).expect("server binds a loopback port")
}

fn arrive(node: u32) -> ArrivalEvent {
    ArrivalEvent::Arrive {
        node,
        work: 2,
        comm: 1,
        deps: vec![],
    }
}

fn metric(client: &mut Client, name: &str) -> i64 {
    let (_, metrics) = client.stats_with_metrics().unwrap();
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| m.value)
}

/// `threads = 1` bounds the solver threads of stream traffic too: four
/// connections pushing at once, each push slowed by 60 ms inside the
/// handler, are served one after the other by the one worker.
#[test]
fn one_worker_serves_concurrent_stream_pushes_one_at_a_time() {
    const SLOW_MS: u64 = 60;
    const CONNS: usize = 4;
    let _turn = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let handle = faulty_server(
        1,
        &format!("faults?seed=1&slow=1.0&slow_ms={SLOW_MS}&only=stream"),
    );
    let addr = handle.addr();

    let go = Arc::new(Barrier::new(CONNS + 1));
    let pushers: Vec<_> = (0..CONNS)
        .map(|i| {
            let go = go.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.stream_open("s", MACHINE, Some(50)).unwrap();
                go.wait();
                let frame = c.stream_push("s", &[arrive(i as u32)]).unwrap();
                assert_eq!(frame.arrivals, Some(1));
            })
        })
        .collect();

    // `stats` is answered by the reader, so it sees the pool from outside.
    let pushing = Arc::new(AtomicBool::new(true));
    let watcher = {
        let pushing = pushing.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut most = 0;
            while pushing.load(Ordering::Relaxed) {
                most = most.max(metric(&mut c, "bsp_serve_inflight_jobs"));
                std::thread::sleep(Duration::from_millis(2));
            }
            most
        })
    };

    go.wait();
    let began = Instant::now();
    for p in pushers {
        p.join().unwrap();
    }
    let wall = began.elapsed();
    pushing.store(false, Ordering::Relaxed);
    let most_inflight = watcher.join().unwrap();

    assert!(
        wall >= Duration::from_millis(CONNS as u64 * SLOW_MS),
        "{CONNS} pushes of {SLOW_MS} ms took {wall:?}: they did not share the one worker"
    );
    assert_eq!(
        most_inflight, 1,
        "every push is an in-flight job, and one worker runs one at a time"
    );
    handle.shutdown();
}

/// A panic inside a stream handler is caught by the pool's one isolation
/// boundary: typed `internal_error`, counted once, that session closed —
/// and the connection, with its other session, keeps serving.
#[test]
fn stream_handler_panic_closes_its_session_and_nothing_else() {
    let _turn = ONE_SERVER_AT_A_TIME
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    let handle = faulty_server(2, "faults?seed=4&panic=1.0&only=stream&max=1");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.stream_open("a", MACHINE, Some(50)).unwrap();
    client.stream_open("b", MACHINE, Some(50)).unwrap();
    let failed_before = metric(&mut client, "bsp_jobs_failed_total");

    let err = client
        .stream_push("a", &[arrive(0)])
        .expect_err("the poisoned push must fail");
    assert!(err.is_code(codes::INTERNAL_ERROR), "got {err}");
    let err = client
        .stream_push("a", &[arrive(0)])
        .expect_err("the session that panicked was closed");
    assert!(err.is_code(codes::UNKNOWN_SESSION), "got {err}");

    let frame = client.stream_push("b", &[arrive(0)]).unwrap();
    assert_eq!(frame.arrivals, Some(1));
    assert!(client.stream_close("b").unwrap().cost.is_some());
    assert_eq!(
        metric(&mut client, "bsp_jobs_failed_total") - failed_before,
        1
    );
    handle.shutdown();
}
