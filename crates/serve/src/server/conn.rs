//! Accept loop, connection reader and admission — and, with them, every
//! function on the path of a stored `solve` (`conn_loop`, `admit`,
//! `stored_solve`, `hit_frame`, `send`): that path is the daemon's
//! measured hot loop and stays in one module, hence one codegen unit.

use super::stream::Sessions;
use super::worker::{Job, Method};
use super::{lock, Shared};
use crate::cache::{CachedResult, ResultKey};
use crate::protocol::{
    codes, metric_wires, parse_line, read_line_capped, to_line, Frame, LineRead, Request,
};
use crate::queue::PushError;
use bsp_faults::{Fault, Site};
use bsp_instance::source::DEFAULT_SEED;
use bsp_sched::race::RACE_PREFIX;
use bsp_schedule::solve::CancelToken;
use bsp_schedule::spec::SchedulerSpec;
use std::borrow::Cow;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// What a connection's jobs share with its reader. Dropped with the
/// connection: the reader holds one handle, each of its jobs another.
pub(super) struct Conn {
    /// Every frame to this client goes through here, one write each.
    pub(super) out: Mutex<TcpStream>,
    /// Stream sessions are connection-scoped: a vanished client takes
    /// its sessions with it. Locked by the worker running a stream job.
    pub(super) sessions: Mutex<Sessions>,
    /// Child of the server's stop token and parent of every job token of
    /// this connection; cancelled when the client goes away.
    pub(super) token: CancelToken,
}

pub(super) fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("bsp-serve-conn".to_string())
                    .spawn(move || conn_loop(stream, shared));
            }
            // Nobody waiting (the listener is non-blocking) or a transient
            // accept error: look again shortly, and at the stop token.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Writes one frame (plus newline) to the shared connection writer in a
/// single `write`, swallowing errors — a vanished client only means
/// nobody is reading. The `write` fault site drops the frame entirely
/// (any injected kind reads as a lost write here: this is the one site
/// where panicking would kill a pool thread outside the isolation
/// boundary).
pub(super) fn send<W: Write>(out: &Mutex<W>, frame: &Frame) {
    if let Some(plan) = bsp_faults::current() {
        match plan.fault_at(Site::Write) {
            Some(Fault::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(_) => return,
            None => {}
        }
    }
    // Frame and newline leave in one write: on a `TCP_NODELAY` socket
    // every write is a segment and a wake-up of the peer.
    let mut line = to_line(frame);
    line.push('\n');
    let mut stream = lock(out);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.flush();
}

fn conn_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _faults = shared.faults.clone().map(bsp_faults::install);
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let conn = Arc::new(Conn {
        out: Mutex::new(stream),
        sessions: Mutex::default(),
        token: shared.stop.child(),
    });
    let out = &conn.out;
    let mut line_buf = Vec::new();

    loop {
        let line = match read_line_capped(&mut reader, shared.cfg.max_line, &mut line_buf) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Oversize) => {
                send(
                    out,
                    &Frame::error(
                        None,
                        codes::OVERSIZE_LINE,
                        format!("line exceeds {} bytes; closing", shared.cfg.max_line),
                    ),
                );
                break;
            }
        };
        if let Some(plan) = bsp_faults::current() {
            match plan.fault_at(Site::Read) {
                Some(Fault::Slow(ms)) => std::thread::sleep(Duration::from_millis(ms)),
                // Any other injected kind reads as the connection dying
                // mid-read; the client reconnects and retries.
                Some(_) => break,
                None => {}
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let req: Request = match parse_line(&line) {
            Ok(r) => r,
            Err(e) => {
                send(out, &Frame::error(None, codes::BAD_JSON, e.to_string()));
                continue;
            }
        };
        let id = req.id;
        let plain = |kind: &str| Frame {
            kind: kind.to_string(),
            id,
            ..Frame::default()
        };
        match req.method.as_str() {
            "ping" => send(out, &plain("pong")),
            "stats" => send(
                out,
                &Frame {
                    stats: Some(shared.stats()),
                    metrics: Some(metric_wires(&bsp_obs::global().snapshot())),
                    ..plain("stats")
                },
            ),
            "shutdown" => {
                send(out, &plain("bye"));
                shared.begin_shutdown();
            }
            m => match Method::queued(m) {
                Some(method) => admit(&shared, &conn, method, req),
                None => send(
                    out,
                    &Frame::error(id, codes::UNKNOWN_METHOD, format!("unknown method {m:?}")),
                ),
            },
        }
    }
    // Client gone: wind down anything still running for this connection.
    conn.token.cancel();
}

/// Admission, the same for every queued method: refuse while draining,
/// shed a spent deadline, answer a stored `solve` on the spot — the only
/// answer to a queued method that is not a worker's — and otherwise
/// enqueue the one [`Job`] or say why not.
fn admit(shared: &Shared, conn: &Arc<Conn>, method: Method, mut req: Request) {
    let out = &conn.out;
    let id = req.id;
    if shared.stop.is_cancelled() {
        send(
            out,
            &Frame::error(id, codes::SHUTTING_DOWN, "server is draining"),
        );
        return;
    }
    if req.deadline_ms == Some(0) {
        shared.metrics.deadline_shed.inc();
        send(
            out,
            &Frame::error(id, codes::DEADLINE_SHED, "deadline expired at admission"),
        );
        return;
    }
    let began = Instant::now();
    if method == Method::Solve {
        if let Some(frame) = stored_solve(shared, &req, began) {
            // Not a job: no queue slot, no worker, no waiter list
            // (an `rkey` retry of a finished solve lands here too).
            send(out, &frame);
            shared.metrics.record(method, began);
            return;
        }
    }
    let deadline = req.deadline_ms.map(|ms| began + Duration::from_millis(ms));
    // Retries attach to `solve`/`delta` only: a stream request is not
    // idempotent, it moves its session.
    let idempotent = matches!(method, Method::Solve | Method::Delta);
    let rkey = req.rkey.take().filter(|_| idempotent);
    // A stream job holds `answered` until it has been answered; its
    // reader waits for that below, so the events of one session reach
    // its scheduler in the order they were sent.
    let (answered, wait) = (!idempotent).then(mpsc::channel::<()>).unzip();
    let job = Job {
        method,
        req,
        conn: conn.clone(),
        deadline,
        rkey: rkey.clone(),
        _answered: answered,
    };
    // The in-flight map is held across admission so two concurrent
    // retries of one key cannot both enqueue.
    let mut inflight = lock(&shared.inflight_keys);
    if let Some(key) = &rkey {
        if let Some(waiters) = inflight.get_mut(key) {
            // Idempotent retry of a job still in flight: attach to it
            // instead of solving twice.
            waiters.push((conn.clone(), id));
            return;
        }
    }
    // Counted before the push, uncounted on refusal: a worker may pop
    // (and count down) before this thread runs again, and the gauge must
    // never read negative.
    shared.metrics.queue_depth.inc();
    let refusal = match shared.queue.try_push(job) {
        Ok(()) => {
            if let Some(key) = rkey {
                inflight.insert(key, Vec::new());
            }
            drop(inflight);
            if let Some(wait) = wait {
                // Errs when the worker drops the job: that is the signal.
                let _ = wait.recv();
            }
            return;
        }
        Err(PushError::Full) => {
            let mut frame = Frame::error(id, codes::QUEUE_FULL, "job queue at capacity; retry");
            frame.retry_after_ms = Some(shared.retry_after_hint());
            frame
        }
        Err(PushError::Closed) => Frame::error(id, codes::SHUTTING_DOWN, "server is draining"),
    };
    shared.metrics.queue_depth.dec();
    drop(inflight);
    send(out, &refusal);
}

/// Canonicalizes a scheduler spec so differently-ordered parameters hit
/// the same cache entry. `race/` portfolios pass through verbatim.
pub(super) fn canonical_sched(raw: &str) -> Result<String, String> {
    if raw.starts_with(RACE_PREFIX) {
        return Ok(raw.to_string());
    }
    SchedulerSpec::parse(raw)
        .map(|s| s.canonical())
        .map_err(|e| e.to_string())
}

impl Shared {
    /// The store spelling of a request's scheduler spec: its own
    /// [`canonical_sched`], or the default's, computed once at startup.
    pub(super) fn sched_key(&self, sched: Option<&str>) -> Result<Cow<'_, str>, String> {
        match sched {
            Some(raw) => canonical_sched(raw).map(Cow::Owned),
            None => match &self.default_sched_key {
                Ok(key) => Ok(Cow::Borrowed(key)),
                Err(e) => Err(e.clone()),
            },
        }
    }
}

pub(super) fn supersteps_of(steps: &[u32]) -> u64 {
    steps.iter().max().map(|&m| m as u64 + 1).unwrap_or(0)
}

pub(super) fn result_frame(id: Option<u64>, key: &ResultKey, start: Instant) -> Frame {
    Frame {
        kind: "result".to_string(),
        id,
        instance: Some(format!("{} @ {}", key.instance, key.machine)),
        sched: Some(key.sched.clone()),
        elapsed_us: Some(start.elapsed().as_micros().min(u64::MAX as u128) as u64),
        ..Frame::default()
    }
}

/// The one place a stored result becomes a frame: at admission, in a
/// worker's `solve`, and for a `delta`'s derived key. `hit` is the entry
/// the store lent, so the caller holds the store's lock.
pub(super) fn hit_frame(
    shared: &Shared,
    id: Option<u64>,
    key: &ResultKey,
    start: Instant,
    hit: &CachedResult,
) -> Frame {
    shared.metrics.cache_hits.inc();
    let mut frame = result_frame(id, key, start);
    frame.cost = Some(hit.cost);
    frame.supersteps = Some(supersteps_of(&hit.steps));
    frame.cache_hit = Some(true);
    frame
}

/// Admission's lookup: the hit frame of a `solve` whose spec the instance
/// cache already resolves (by name, label, or raw spec under the request's
/// seed) and whose result is stored. No instance is materialised: the
/// name alone addresses the store. Everything else — a never-seen spec, a
/// missing field, a bad scheduler spec — is `None` and goes to a worker,
/// which answers it as before.
fn stored_solve(shared: &Shared, req: &Request, start: Instant) -> Option<Frame> {
    let spec = req.instance.as_deref()?;
    let sched = shared.sched_key(req.sched.as_deref()).ok()?;
    let seed = req.seed.unwrap_or(DEFAULT_SEED);
    let key = ResultKey::from_name(lock(&shared.icache).resolve(spec, seed)?, &sched)?;
    // An absent key counts nothing here: the request goes on to a worker,
    // whose `get` counts it once.
    let frame = lock(&shared.store)
        .get_if_present(&key)
        .map(|hit| hit_frame(shared, req.id, &key, start, hit));
    frame
}
