//! A stored result is answered by the connection thread at admission:
//! it does not queue behind a solve, it is not a job, and it counts in
//! the store and the metrics exactly as a worker's lookup did.
//!
//! Every server here runs ONE worker under a plan that slows every job
//! down (`only=job`), so "was this request a job?" is visible on the wire
//! as ordering and in `stats` as `jobs_done`, with no sleep in the test.

use bsp_instance::DagEdit;
use bsp_serve::client::{Client, DeltaParams, SolveParams};
use bsp_serve::protocol::{codes, parse_line, read_line_capped, to_line, Frame, LineRead, Request};
use bsp_serve::server::{start, ServeConfig};
use std::io::Write;
use std::time::Duration;

const A: &str = "layered?layers=4&width=6&q=0.3&seed=7 @ bsp?p=4&g=2&l=5";
const A_PERMUTED: &str = "layered?width=6&layers=4&seed=7&q=0.3 @ bsp?g=2&l=5&p=4";
const B: &str = "forkjoin?chains=3&depth=3&stages=2 @ bsp?p=2&g=1&l=3";

fn slow_job_server(slow_ms: u64) -> bsp_serve::ServerHandle {
    let mut cfg = ServeConfig::default();
    cfg.threads = 1;
    cfg.default_budget_ms = Some(1000);
    cfg.faults = Some(format!("faults?seed=5&slow=1.0&slow_ms={slow_ms}&only=job"));
    start(cfg).expect("server binds a loopback port")
}

fn solve_of(instance: &str) -> SolveParams {
    let mut p = SolveParams::default();
    p.instance = instance.to_string();
    p.budget_ms = Some(500);
    p
}

/// One raw connection on which several requests can be in flight: writes
/// `reqs` in a single segment, then reads that many frames in arrival
/// order.
fn pipeline(addr: std::net::SocketAddr, reqs: &[Request]) -> Vec<Frame> {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let lines: String = reqs.iter().map(|r| to_line(r) + "\n").collect();
    writer.write_all(lines.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut frames = Vec::new();
    for _ in reqs {
        match read_line_capped(&mut reader, 1 << 20, &mut buf).unwrap() {
            LineRead::Line(l) => frames.push(parse_line(&l).unwrap()),
            other => panic!("expected a frame line, got {other:?}"),
        }
    }
    frames
}

fn solve_request(id: u64, instance: &str) -> Request {
    let mut req = Request::new("solve");
    req.id = Some(id);
    req.instance = Some(instance.to_string());
    req.budget_ms = Some(500);
    req
}

#[test]
fn a_cached_answer_does_not_queue_behind_a_solve() {
    let handle = slow_job_server(300);
    let mut client = Client::connect(handle.addr()).unwrap();
    let prefill = client.solve(&solve_of(A)).unwrap().result;
    assert_eq!(prefill.cache_hit, Some(false));

    // Cold B first, cached A right behind it on the same connection: the
    // only worker is busy with B for at least the injected 300 ms.
    let frames = pipeline(handle.addr(), &[solve_request(1, B), solve_request(2, A)]);
    assert_eq!(
        frames[0].id,
        Some(2),
        "the cached answer must overtake the queued solve"
    );
    assert_eq!(frames[0].cache_hit, Some(true));
    assert_eq!(frames[0].cost, prefill.cost);
    assert_eq!(frames[1].id, Some(1));
    assert_eq!(frames[1].kind, "result");
    assert_eq!(frames[1].cache_hit, Some(false));
    // B is the answer a quiet server gives: the cached copy agrees with it.
    let again = client.solve(&solve_of(B)).unwrap().result;
    assert_eq!(again.cache_hit, Some(true));
    assert_eq!(again.cost, frames[1].cost);
    assert!(again.cost.unwrap() > 0);
    handle.shutdown();
}

#[test]
fn scripted_sequence_keeps_its_counts_and_only_misses_are_jobs() {
    let handle = slow_job_server(60);
    let mut client = Client::connect(handle.addr()).unwrap();

    // miss, hit.
    let cold = client.solve(&solve_of(A)).unwrap().result;
    assert_eq!(cold.cache_hit, Some(false));
    let hit = client.solve(&solve_of(A)).unwrap().result;
    assert_eq!((hit.cache_hit, hit.cost), (Some(true), cold.cost));
    assert_eq!(hit.instance, cold.instance);
    assert_eq!(hit.supersteps, cold.supersteps);
    assert!(hit.stages.is_none());

    // A spelling the alias table has not seen goes to a worker once (which
    // finds the stored result under the canonical name), then is known.
    for _ in 0..2 {
        let alias = client.solve(&solve_of(A_PERMUTED)).unwrap().result;
        assert_eq!((alias.cache_hit, alias.cost), (Some(true), cold.cost));
        assert_eq!(alias.instance, cold.instance);
    }

    // Two pipelined requests for one never-seen spec: one miss, one hit.
    // Both are admitted before the (slowed) worker starts the first.
    let pair = pipeline(handle.addr(), &[solve_request(1, B), solve_request(2, B)]);
    assert_eq!(
        (pair[0].id, pair[0].cache_hit),
        (Some(1), Some(false)),
        "{pair:?}"
    );
    assert_eq!((pair[1].id, pair[1].cache_hit), (Some(2), Some(true)));
    assert_eq!(pair[0].cost, pair[1].cost);

    // delta, repeated delta: a warm miss, then a hit on the derived key.
    let mut delta = DeltaParams::default();
    delta.base = cold.instance.clone().unwrap();
    delta.edits = vec![DagEdit::AddNode {
        work: 6,
        comm: 3,
        preds: vec![0, 1],
        succs: vec![],
    }];
    delta.budget_ms = Some(500);
    let warm = client.delta(&delta).unwrap().result;
    assert_eq!((warm.cache_hit, warm.warm), (Some(false), Some(true)));
    let repeat = client.delta(&delta).unwrap().result;
    assert_eq!((repeat.cache_hit, repeat.cost), (Some(true), warm.cost));

    let (stats, metrics) = client.stats_with_metrics().unwrap();
    assert_eq!((stats.hits, stats.misses), (5, 3));
    assert_eq!(stats.cached_results, 3);
    // Eight requests; the two answered at admission (second A, second
    // permuted A — the pair and the deltas all reached the worker) are
    // not jobs.
    assert_eq!(stats.jobs_done, 6);
    assert_eq!(stats.queued, 0);
    // Process-wide counters (other tests' servers add to them): bounds.
    let value = |name: &str| metrics.iter().find(|m| m.name == name).unwrap().value;
    assert!(value("bsp_serve_cache_hits_total") >= 5);
    assert!(value("bsp_serve_cache_misses_total") >= 3);
    assert!(value("bsp_serve_requests_total{method=\"solve\"}") >= 6);
    assert!(value("bsp_serve_requests_total{method=\"delta\"}") >= 2);
    handle.shutdown();
}

#[test]
fn shedding_and_draining_still_come_before_the_cached_answer() {
    let handle = slow_job_server(1);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        client.solve(&solve_of(A)).unwrap().result.cache_hit,
        Some(false)
    );

    let mut shed = solve_request(0, A);
    shed.deadline_ms = Some(0);
    let err = client.request(shed).unwrap_err();
    assert!(err.is_code(codes::DEADLINE_SHED), "got {err}");
    let mut generous = solve_request(0, A);
    generous.deadline_ms = Some(60_000);
    assert_eq!(
        client.request(generous).unwrap().result.cache_hit,
        Some(true)
    );

    handle.begin_shutdown();
    let err = client.solve(&solve_of(A)).unwrap_err();
    assert!(err.is_code(codes::SHUTTING_DOWN), "got {err}");
    handle.wait();
}

#[test]
fn a_request_seed_names_another_instance_of_one_raw_spec() {
    // No `seed=` in the spec: the request's `seed` picks the instance,
    // and the canonical name spells it out.
    const X: &str = "erdos?n=50&q=0.1 @ bsp?p=4";
    let handle = slow_job_server(1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let seeded = |seed| {
        let mut p = solve_of(X);
        p.seed = Some(seed);
        p
    };
    let one = client.solve(&seeded(1)).unwrap().result;
    let two = client.solve(&seeded(2)).unwrap().result;
    assert_eq!((one.cache_hit, two.cache_hit), (Some(false), Some(false)));
    let (name_one, name_two) = (one.instance.unwrap(), two.instance.unwrap());
    assert!(name_one.contains("&seed=1&"), "{name_one}");
    assert!(name_two.contains("&seed=2&"), "{name_two}");
    // Each seed's repeat is answered at admission with its own result.
    let again = client.solve(&seeded(1)).unwrap().result;
    assert_eq!(
        (again.cache_hit, again.instance),
        (Some(true), Some(name_one))
    );
    let again = client.solve(&seeded(2)).unwrap().result;
    assert_eq!(
        (again.cache_hit, again.instance),
        (Some(true), Some(name_two))
    );
    assert_eq!(client.stats().unwrap().jobs_done, 2);
    handle.shutdown();
}

#[test]
fn an_instance_spec_that_names_a_file_is_refused_unread() {
    // A file whose first line is not a MatrixMarket header: reading it
    // for a client used to echo that line back in the `bad_spec` message.
    const MARKER: &str = "SECRET-FIRST-LINE-4711";
    let path = std::env::temp_dir().join(format!("bsp-serve-admission-{}.mtx", std::process::id()));
    std::fs::write(&path, format!("{MARKER}\n1 1 1\n1 1\n")).unwrap();
    let handle = slow_job_server(1);

    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let mut buf = Vec::new();
    let mut exchange = |req: &Request| {
        writer.write_all((to_line(req) + "\n").as_bytes()).unwrap();
        match read_line_capped(&mut reader, 1 << 20, &mut buf).unwrap() {
            LineRead::Line(l) => l.into_owned(),
            other => panic!("expected a frame line, got {other:?}"),
        }
    };

    let spec = format!("mmio?path={} @ bsp?p=4", path.display());
    let line = exchange(&solve_request(1, &spec));
    std::fs::remove_file(&path).unwrap();
    assert!(!line.contains(MARKER), "the file leaked: {line}");
    let frame: Frame = parse_line(&line).unwrap();
    assert_eq!(frame.error.as_deref(), Some(codes::BAD_SPEC), "{line}");

    // The embedded sample still builds, and the daemon is still up.
    let frame: Frame = parse_line(&exchange(&solve_request(2, "mmio @ bsp?p=4"))).unwrap();
    assert_eq!((frame.kind.as_str(), frame.error), ("result", None));
    let frame: Frame = parse_line(&exchange(&Request::new("ping"))).unwrap();
    assert_eq!(frame.kind, "pong");
    handle.shutdown();
}
