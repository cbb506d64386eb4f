//! The scheduling daemon: accept loop, connection readers, worker pool,
//! request handlers, graceful shutdown.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!  accept loop ──spawns──▶ connection reader ──try_push──▶ JobQueue
//!       │                      │ (typed protocol errors,       │
//!       │                      │  pong/stats and stored        │
//!       │                      │  results inline)              ▼
//!       │                      ▼                         worker pool
//!       │                 CancelToken chain          (Registry per worker)
//!       │            server ⊃ connection ⊃ job            │
//!       ▼                                                 ▼
//!   stop token ◀──────── shutdown request          result/event frames
//! ```
//!
//! Cancellation is hierarchical: the server's stop token is the parent of
//! every connection token, which parents every job token. A client
//! disconnect cancels its connection token, so in-flight solves for that
//! client wind down to their best-so-far and the (still valid) results
//! land in the cache for the next request. A shutdown cancels the server
//! token: every in-flight solve returns its best-so-far, queued jobs are
//! drained under the already-cancelled budget (valid results, fast), and
//! the result store is flushed to disk.
//!
//! A `solve` whose answer is already in the result store never becomes a
//! job: the connection reader answers it at admission (`stored_solve`),
//! through the same `hit_frame` a worker uses when the result lands
//! between admission and dequeue.

use crate::cache::{CachedResult, InstanceCache, ResultKey, ResultStore};
use crate::protocol::{
    codes, parse_line, read_line_capped, to_line, Frame, LineRead, Request, ServerStats, MAX_LINE,
};
use crate::queue::{JobQueue, PushError};
use bsp_core::pipeline::PipelineConfig;
use bsp_core::{solve_warm_pipeline, warm_start_from_map};
use bsp_faults::{Fault, FaultPlan, Site};
use bsp_instance::source::{InstanceRegistry, DEFAULT_SEED};
use bsp_instance::{apply_edits, Instance, MachineSpec};
use bsp_obs::{Counter, Gauge, Histogram};
use bsp_online::{OnlineConfig, OnlineScheduler};
use bsp_par::CancelToken;
use bsp_sched::race::RACE_PREFIX;
use bsp_sched::registry::Registry;
use bsp_schedule::events::{EventObserver, StageReportWire};
use bsp_schedule::scheduler::ScheduleResult;
use bsp_schedule::solve::{Budget, SolveCx, SolveOutcome, SolveRequest};
use bsp_schedule::spec::SchedulerSpec;
use bsp_schedule::BspSchedule;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning: a handler panic is already
/// isolated (counted and answered as `internal_error`), so the shared
/// state it may have been holding must keep serving — the store and the
/// instance cache are always internally consistent between operations.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A human-readable rendering of a caught panic payload.
fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (tests).
    pub addr: String,
    /// Worker threads draining the job queue. `0` resolves through
    /// `BSP_THREADS` ([`bsp_par::default_threads`]); an explicit `n` is
    /// passed through [`bsp_par::resolve_threads`].
    pub threads: usize,
    /// Job-queue capacity; pushes beyond it answer `queue_full`.
    pub queue_cap: usize,
    /// Persist the result store here (loaded at startup, flushed on
    /// shutdown). `None` = in-memory only.
    pub store_path: Option<PathBuf>,
    /// LRU entry cap of the result store (`--store-cap`); `None` =
    /// unbounded (the default). Evictions are counted in `stats`.
    pub store_cap: Option<usize>,
    /// Default per-request wall-clock budget when a request names none.
    /// `None` = unlimited (not recommended for a shared server).
    pub default_budget_ms: Option<u64>,
    /// Scheduler spec used when a request names none.
    pub default_sched: String,
    /// Base pipeline configuration; request spec parameters override it.
    pub pipeline: PipelineConfig,
    /// Per-line byte cap of the protocol reader.
    pub max_line: usize,
    /// Bind address of the observability sidecar (`GET /metrics`
    /// Prometheus exposition, `GET /trace` Chrome trace JSON). `None`
    /// (the default) disables the sidecar; port `0` picks a free port.
    pub metrics_addr: Option<String>,
    /// Per-connection read timeout of the sidecar's HTTP handler, so a
    /// slow scraper cannot hold a handler thread forever.
    pub sidecar_read_timeout: Duration,
    /// Fault-injection spec (e.g. `"faults?seed=7&io_err=0.01"`); `None`
    /// (the default) disables injection entirely — the hooks are a single
    /// relaxed atomic load. Parsed at startup; a malformed spec fails
    /// [`start`].
    pub faults: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let mut pipeline = PipelineConfig::default();
        // ILP refinement is off by default server-side: interactive
        // budgets are milliseconds, not the seconds ILP wants. A request
        // can turn it back on via its scheduler spec (`?ilp=on`).
        pipeline.enable_ilp = false;
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_cap: 64,
            store_path: None,
            store_cap: None,
            default_budget_ms: Some(2000),
            default_sched: "pipeline/base?ilp=off".to_string(),
            pipeline,
            max_line: MAX_LINE,
            metrics_addr: None,
            sidecar_read_timeout: Duration::from_secs(2),
            faults: None,
        }
    }
}

impl ServeConfig {
    /// The resolved worker-pool size: `0` → `BSP_THREADS` or 1, explicit
    /// `n` → [`bsp_par::resolve_threads`] (so `--threads 0` means
    /// auto-detect only when the env says so).
    pub fn worker_threads(&self) -> usize {
        if self.threads == 0 {
            bsp_par::default_threads()
        } else {
            bsp_par::resolve_threads(self.threads)
        }
        .max(1)
    }
}

/// One queued unit of work: a `solve`/`delta` request plus where to write
/// its frames and the token that cancels it.
struct Job {
    req: Request,
    out: Arc<Mutex<TcpStream>>,
    cancel: CancelToken,
    /// Absolute deadline computed at admission from `req.deadline_ms`;
    /// a job still queued past it is shed instead of solved.
    deadline: Option<Instant>,
}

/// Per-method request metrics (one set each for `solve` and `delta`).
struct MethodMetrics {
    requests: Counter,
    latency: Histogram,
}

impl MethodMetrics {
    /// Counts one answered request that began at `began`.
    fn record(&self, began: Instant) {
        self.requests.inc();
        self.latency.observe_duration(began.elapsed());
    }
}

/// The server's handles into the process-wide [`bsp_obs`] registry,
/// registered once at startup so the hot paths are single atomic ops.
/// Counters are process-global and monotone; a test running several
/// servers in one process should assert with `>=`, not `==`.
struct ServeMetrics {
    queue_depth: Gauge,
    inflight: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    warm_solves: Counter,
    cold_solves: Counter,
    /// Jobs whose handler panicked (isolated, answered `internal_error`).
    jobs_failed: Counter,
    /// Jobs shed because their deadline expired before a worker started.
    deadline_shed: Counter,
    solve: MethodMetrics,
    delta: MethodMetrics,
    /// Store evictions already forwarded to `cache_evictions` — the
    /// store's own counter is monotone, so the delta since the last sync
    /// is exactly what is new.
    evictions_seen: AtomicU64,
}

impl ServeMetrics {
    fn new() -> Self {
        let reg = bsp_obs::global();
        let method = |m: &str| MethodMetrics {
            requests: reg.counter("bsp_serve_requests_total", &[("method", m)]),
            latency: reg.histogram("bsp_serve_request_duration_us", &[("method", m)]),
        };
        ServeMetrics {
            queue_depth: reg.gauge("bsp_serve_queue_depth", &[]),
            inflight: reg.gauge("bsp_serve_inflight_jobs", &[]),
            cache_hits: reg.counter("bsp_serve_cache_hits_total", &[]),
            cache_misses: reg.counter("bsp_serve_cache_misses_total", &[]),
            cache_evictions: reg.counter("bsp_serve_cache_evictions_total", &[]),
            warm_solves: reg.counter("bsp_serve_warm_solves_total", &[]),
            cold_solves: reg.counter("bsp_serve_cold_solves_total", &[]),
            jobs_failed: reg.counter("bsp_jobs_failed_total", &[]),
            deadline_shed: reg.counter("bsp_deadline_shed_total", &[]),
            solve: method("solve"),
            delta: method("delta"),
            evictions_seen: AtomicU64::new(0),
        }
    }

    fn method(&self, name: &str) -> &MethodMetrics {
        match name {
            "delta" => &self.delta,
            _ => &self.solve,
        }
    }

    /// Forwards store evictions accrued since the last sync. `fetch_max`
    /// makes concurrent syncs race-free: each eviction is counted by
    /// exactly one caller, whichever observed it first.
    fn sync_evictions(&self, evictions_now: u64) {
        let seen = self
            .evictions_seen
            .fetch_max(evictions_now, Ordering::Relaxed);
        self.cache_evictions.add(evictions_now.saturating_sub(seen));
    }
}

/// Retries of an in-flight idempotent request attach here instead of
/// enqueuing a duplicate job: key → the extra `(writer, id)` pairs to
/// answer when the original job completes.
type InflightWaiters = HashMap<String, Vec<(Arc<Mutex<TcpStream>>, Option<u64>)>>;

struct Shared {
    cfg: ServeConfig,
    queue: JobQueue<Job>,
    store: Mutex<ResultStore>,
    icache: Mutex<InstanceCache>,
    stop: CancelToken,
    jobs_done: AtomicU64,
    workers: usize,
    metrics: ServeMetrics,
    /// The parsed fault plan (`cfg.faults`), installed on every worker
    /// and connection thread; `None` = injection disabled.
    faults: Option<Arc<FaultPlan>>,
    inflight_keys: Mutex<InflightWaiters>,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.stop.cancel();
        self.queue.close();
    }

    /// The `retry_after_ms` hint for a `queue_full` answer: roughly how
    /// long the backlog needs to half-drain, assuming each queued job
    /// burns its default budget, clamped to a sane interactive range.
    fn retry_after_hint(&self) -> u64 {
        let depth = self.queue.len() as u64;
        let per_job = self.cfg.default_budget_ms.unwrap_or(100).max(1);
        (depth * per_job / (2 * self.workers.max(1) as u64)).clamp(10, 5_000)
    }

    fn stats(&self) -> ServerStats {
        let s = lock(&self.store).stats();
        ServerStats {
            cached_results: s.len,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            corrupt: s.corrupt,
            cached_instances: lock(&self.icache).len() as u64,
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            queued: self.queue.len() as u64,
            workers: self.workers as u64,
        }
    }
}

/// A running server: bound address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    sidecar: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The observability sidecar's bound address, if one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Signals shutdown without waiting: stops accepting, closes the
    /// queue (remaining jobs drain), cancels in-flight budgets.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Whether a shutdown (request, signal or [`Self::begin_shutdown`])
    /// is in progress.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.stop.is_cancelled()
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Blocks until the server has fully stopped (accept loop exited,
    /// workers drained), then flushes the result store. Returns the final
    /// counters.
    pub fn wait(self) -> ServerStats {
        let _ = self.accept.join();
        if let Some(sidecar) = self.sidecar {
            let _ = sidecar.join();
        }
        for w in self.workers {
            let _ = w.join();
        }
        let stats = self.shared.stats();
        let mut store = lock(&self.shared.store);
        if let Some(path) = &self.shared.cfg.store_path {
            if store.is_dirty() {
                let _guard = self.shared.faults.clone().map(bsp_faults::install);
                if let Err(e) = store.save(path) {
                    eprintln!("bsp-serve: store flush failed: {e}");
                }
            }
        }
        stats
    }

    /// [`Self::begin_shutdown`] + [`Self::wait`].
    pub fn shutdown(self) -> ServerStats {
        self.begin_shutdown();
        self.wait()
    }
}

/// Starts the daemon: binds `cfg.addr`, loads the persisted store (if
/// any), spawns the worker pool and the accept loop, and returns.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let faults = match &cfg.faults {
        Some(spec) => Some(Arc::new(FaultPlan::parse(spec).map_err(|e| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
        })?)),
        None => None,
    };
    let mut store = match &cfg.store_path {
        Some(path) => {
            // The plan covers the startup load too (`store.load` site).
            let _guard = faults.clone().map(bsp_faults::install);
            ResultStore::load(path)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
        }
        None => ResultStore::new(),
    };
    store.set_cap(cfg.store_cap);
    let metrics = ServeMetrics::new();
    // Evictions are forwarded wherever the store can evict: here (the cap
    // may cut a loaded store down) and after every insert.
    metrics.sync_evictions(store.stats().evictions);
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = cfg.worker_threads();

    let shared = Arc::new(Shared {
        queue: JobQueue::new(cfg.queue_cap),
        store: Mutex::new(store),
        icache: Mutex::new(InstanceCache::new()),
        stop: CancelToken::new(),
        jobs_done: AtomicU64::new(0),
        workers,
        metrics,
        faults,
        inflight_keys: Mutex::new(HashMap::new()),
        cfg,
    });

    let (metrics_addr, sidecar) = match &shared.cfg.metrics_addr {
        Some(addr) => {
            let (addr, handle) =
                crate::sidecar::start(addr, shared.stop.clone(), shared.cfg.sidecar_read_timeout)?;
            (Some(addr), Some(handle))
        }
        None => (None, None),
    };

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("bsp-serve-worker-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("bsp-serve-accept".to_string())
            .spawn(move || accept_loop(listener, shared))
            .expect("spawn accept loop")
    };

    Ok(ServerHandle {
        addr,
        metrics_addr,
        shared,
        accept,
        sidecar,
        workers: worker_handles,
    })
}

/// Installs a SIGINT handler that triggers the same graceful shutdown as
/// a `shutdown` request would on `handle`'s server. Call at most once per
/// process; non-Unix platforms get a no-op.
pub fn shutdown_on_sigint(handle: &ServerHandle) {
    sigint::install(handle.shared.clone());
}

#[cfg(unix)]
mod sigint {
    use super::Shared;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    static TARGET: OnceLock<Mutex<Option<Arc<Shared>>>> = OnceLock::new();
    static FIRED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_sig: i32) {
        // Async-signal-safe: set a flag; the watcher thread does the work.
        FIRED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // `signal(2)` from the C runtime std already links against —
        // enough for a graceful-shutdown hook without a libc crate.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install(shared: Arc<Shared>) {
        let slot = TARGET.get_or_init(|| Mutex::new(None));
        *slot.lock().unwrap() = Some(shared);
        unsafe {
            signal(2 /* SIGINT */, on_sigint as *const () as usize);
        }
        std::thread::Builder::new()
            .name("bsp-serve-sigint".to_string())
            .spawn(|| loop {
                if FIRED.swap(false, Ordering::SeqCst) {
                    if let Some(slot) = TARGET.get() {
                        if let Some(shared) = slot.lock().unwrap().take() {
                            shared.begin_shutdown();
                            return;
                        }
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            })
            .expect("spawn sigint watcher");
    }
}

#[cfg(not(unix))]
mod sigint {
    use super::Shared;
    use std::sync::Arc;
    pub fn install(_shared: Arc<Shared>) {}
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.stop.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("bsp-serve-conn".to_string())
                    .spawn(move || conn_loop(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
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
fn send<W: Write>(out: &Mutex<W>, frame: &Frame) {
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

/// Applies any injected fault for a serve-side handler site. `Some` is a
/// typed `internal_error` frame the caller answers with (io_err/drop);
/// an injected panic unwinds into the caller's isolation boundary, and a
/// slow fault just sleeps in place.
fn inject_handler_fault(site: Site, id: Option<u64>, what: &str) -> Option<Frame> {
    let plan = bsp_faults::current()?;
    match plan.fault_at(site)? {
        Fault::IoErr | Fault::Drop => Some(Frame::error(
            id,
            codes::INTERNAL_ERROR,
            format!("injected fault: io_err during {what}"),
        )),
        Fault::Panic => panic!("injected fault: panic during {what}"),
        Fault::Slow(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
    }
}

fn conn_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _faults = shared.faults.clone().map(bsp_faults::install);
    let _ = stream.set_nodelay(true);
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let out = Arc::new(Mutex::new(stream));
    // Connection token: child of the server's stop token; cancelled when
    // the client goes away, which cancels every job spawned from here.
    let conn_token = shared.stop.child();
    // Stream sessions are connection-scoped and handled inline on this
    // reader thread: events of one session are naturally ordered, and a
    // vanished client takes its sessions with it.
    let mut sessions: HashMap<String, OnlineScheduler> = HashMap::new();
    let mut line_buf = Vec::new();

    loop {
        let line = match read_line_capped(&mut reader, shared.cfg.max_line, &mut line_buf) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::Oversize) => {
                send(
                    &out,
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
                send(&out, &Frame::error(None, codes::BAD_JSON, e.to_string()));
                continue;
            }
        };
        let id = req.id;
        match req.method.as_str() {
            "ping" => send(
                &out,
                &Frame {
                    kind: "pong".to_string(),
                    id,
                    ..Frame::default()
                },
            ),
            "stats" => send(
                &out,
                &Frame {
                    kind: "stats".to_string(),
                    id,
                    stats: Some(shared.stats()),
                    metrics: Some(crate::protocol::metric_wires(&bsp_obs::global().snapshot())),
                    ..Frame::default()
                },
            ),
            "shutdown" => {
                send(
                    &out,
                    &Frame {
                        kind: "bye".to_string(),
                        id,
                        ..Frame::default()
                    },
                );
                shared.begin_shutdown();
            }
            "stream_open" | "stream_push" | "stream_close" => {
                // Stream handlers run inline on this reader thread, so
                // they get their own isolation boundary: a panicking
                // handler answers `internal_error` and — since the
                // session's scheduler may be half-mutated — closes that
                // session, while the connection keeps serving.
                let caught =
                    std::panic::catch_unwind(AssertUnwindSafe(|| match req.method.as_str() {
                        "stream_open" => handle_stream_open(&shared, &mut sessions, &req),
                        "stream_push" => handle_stream_push(&mut sessions, &req),
                        _ => handle_stream_close(&mut sessions, &req),
                    }));
                let frame = match caught {
                    Ok(frame) => frame,
                    Err(payload) => {
                        shared.metrics.jobs_failed.inc();
                        if let Some(session) = req.session.as_deref() {
                            sessions.remove(session);
                        }
                        Frame::error(
                            id,
                            codes::INTERNAL_ERROR,
                            format!("stream handler panicked: {}", panic_msg(&*payload)),
                        )
                    }
                };
                send(&out, &frame);
            }
            "solve" | "delta" => {
                if shared.stop.is_cancelled() {
                    send(
                        &out,
                        &Frame::error(id, codes::SHUTTING_DOWN, "server is draining"),
                    );
                    continue;
                }
                if req.deadline_ms == Some(0) {
                    shared.metrics.deadline_shed.inc();
                    send(
                        &out,
                        &Frame::error(id, codes::DEADLINE_SHED, "deadline expired at admission"),
                    );
                    continue;
                }
                let began = Instant::now();
                if let Some(frame) = stored_solve(&shared, &req, began) {
                    // Not a job: no queue slot, no worker, no waiter list
                    // (an `rkey` retry of a finished solve lands here too).
                    send(&out, &frame);
                    shared.metrics.solve.record(began);
                    continue;
                }
                let deadline = req.deadline_ms.map(|ms| began + Duration::from_millis(ms));
                let rkey = req.rkey.clone();
                let job = Job {
                    req,
                    out: out.clone(),
                    cancel: conn_token.child(),
                    deadline,
                };
                // The in-flight map is held across admission so two
                // concurrent retries of one key cannot both enqueue.
                let mut inflight = lock(&shared.inflight_keys);
                if let Some(key) = &rkey {
                    if let Some(waiters) = inflight.get_mut(key) {
                        // Idempotent retry of a job still in flight:
                        // attach to it instead of solving twice.
                        waiters.push((out.clone(), id));
                        continue;
                    }
                }
                // Counted before the push, uncounted on refusal: a worker
                // may pop (and count down) before this thread runs again,
                // and the gauge must never read negative.
                shared.metrics.queue_depth.inc();
                match shared.queue.try_push(job) {
                    Ok(()) => {
                        if let Some(key) = rkey {
                            inflight.insert(key, Vec::new());
                        }
                    }
                    Err(PushError::Full) => {
                        shared.metrics.queue_depth.dec();
                        let mut frame =
                            Frame::error(id, codes::QUEUE_FULL, "job queue at capacity; retry");
                        frame.retry_after_ms = Some(shared.retry_after_hint());
                        drop(inflight);
                        send(&out, &frame);
                    }
                    Err(PushError::Closed) => {
                        shared.metrics.queue_depth.dec();
                        drop(inflight);
                        send(
                            &out,
                            &Frame::error(id, codes::SHUTTING_DOWN, "server is draining"),
                        );
                    }
                }
            }
            m => send(
                &out,
                &Frame::error(id, codes::UNKNOWN_METHOD, format!("unknown method {m:?}")),
            ),
        }
    }
    // Client gone: wind down anything still running for this connection.
    conn_token.cancel();
}

/// Opens a stream session: `instance` carries the *machine* spec
/// (`"bsp?p=4&g=1&l=5"`) — the DAG side arrives event by event —
/// and `budget_ms` is the per-arrival re-planning budget.
fn handle_stream_open(
    shared: &Shared,
    sessions: &mut HashMap<String, OnlineScheduler>,
    req: &Request,
) -> Frame {
    let id = req.id;
    let Some(session) = req.session.as_deref() else {
        return Frame::error(id, codes::MISSING_FIELD, "stream_open requires \"session\"");
    };
    let Some(machine_spec) = req.instance.as_deref() else {
        return Frame::error(
            id,
            codes::MISSING_FIELD,
            "stream_open requires \"instance\" (a machine spec like \"bsp?p=4\")",
        );
    };
    if sessions.contains_key(session) {
        return Frame::error(
            id,
            codes::BAD_SPEC,
            format!("session {session:?} is already open on this connection"),
        );
    }
    let machine = match MachineSpec::parse(machine_spec) {
        Ok(m) => m.build(),
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
    };
    let mut cfg = OnlineConfig::default();
    cfg.pipeline = shared.cfg.pipeline.clone();
    cfg.pipeline.enable_ilp = false;
    if let Some(ms) = req.budget_ms {
        cfg.budget_per_arrival = Duration::from_millis(ms);
    }
    let scheduler = match OnlineScheduler::new(&machine, cfg) {
        Ok(s) => s,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
    };
    sessions.insert(session.to_string(), scheduler);
    Frame {
        kind: "stream".to_string(),
        id,
        session: Some(session.to_string()),
        frontier: Some(0),
        arrivals: Some(0),
        ..Frame::default()
    }
}

/// Feeds an event batch into a session and answers with the updated
/// tentative suffix. Any partial arrival batch is flushed, so the frame
/// always reflects every event of the request.
fn handle_stream_push(sessions: &mut HashMap<String, OnlineScheduler>, req: &Request) -> Frame {
    let start = Instant::now();
    let id = req.id;
    if let Some(frame) = inject_handler_fault(Site::Stream, id, "stream push") {
        return frame;
    }
    let Some(session) = req.session.as_deref() else {
        return Frame::error(id, codes::MISSING_FIELD, "stream_push requires \"session\"");
    };
    let events = match req.events.as_ref() {
        Some(e) if !e.is_empty() => e,
        _ => {
            return Frame::error(
                id,
                codes::MISSING_FIELD,
                "stream_push requires a non-empty \"events\" array",
            )
        }
    };
    let Some(sch) = sessions.get_mut(session) else {
        return Frame::error(
            id,
            codes::UNKNOWN_SESSION,
            format!("no open session {session:?} on this connection"),
        );
    };
    for ev in events {
        if let Err(e) = sch.push(ev) {
            return Frame::error(id, codes::BAD_EVENT, e.to_string());
        }
    }
    if let Err(e) = sch.flush() {
        return Frame::error(id, codes::BAD_EVENT, e.to_string());
    }
    let suffix = sch.suffix();
    let stats = sch.stats();
    let mut frame = Frame {
        kind: "stream".to_string(),
        id,
        session: Some(session.to_string()),
        frontier: Some(suffix.frontier as u64),
        arrivals: Some(stats.arrivals),
        supersteps: Some(sch.schedule().n_supersteps() as u64),
        suffix_nodes: Some(suffix.nodes),
        suffix_procs: Some(suffix.procs),
        suffix_steps: Some(suffix.steps),
        elapsed_us: Some(start.elapsed().as_micros().min(u64::MAX as u128) as u64),
        ..Frame::default()
    };
    frame.cost = match sch.outcome() {
        Some(outcome) => Some(outcome.cost),
        None => stats.batches.last().map(|b| b.cost),
    };
    frame
}

/// Finalizes a session (if the client did not already push `Finalize`)
/// and answers with the sealed result: total cost and the full final
/// assignment, in trace-level node ids.
fn handle_stream_close(sessions: &mut HashMap<String, OnlineScheduler>, req: &Request) -> Frame {
    let start = Instant::now();
    let id = req.id;
    let Some(session) = req.session.as_deref() else {
        return Frame::error(
            id,
            codes::MISSING_FIELD,
            "stream_close requires \"session\"",
        );
    };
    let Some(mut sch) = sessions.remove(session) else {
        return Frame::error(
            id,
            codes::UNKNOWN_SESSION,
            format!("no open session {session:?} on this connection"),
        );
    };
    if !sch.is_finalized() {
        if let Err(e) = sch.push(&bsp_instance::trace::ArrivalEvent::Finalize) {
            return Frame::error(id, codes::BAD_EVENT, e.to_string());
        }
    }
    let outcome = sch.outcome().expect("finalized stream has an outcome");
    let n = outcome.dag.n() as u32;
    Frame {
        kind: "result".to_string(),
        id,
        session: Some(session.to_string()),
        cost: Some(outcome.cost),
        supersteps: Some(outcome.sched.n_supersteps() as u64),
        frontier: Some(outcome.sched.n_supersteps() as u64),
        arrivals: Some(outcome.stats.arrivals),
        suffix_nodes: Some(outcome.ext_ids.clone()),
        suffix_procs: Some((0..n).map(|v| outcome.sched.proc(v)).collect()),
        suffix_steps: Some((0..n).map(|v| outcome.sched.step(v)).collect()),
        elapsed_us: Some(start.elapsed().as_micros().min(u64::MAX as u128) as u64),
        ..Frame::default()
    }
}

/// Answers the job's own connection plus every idempotent-retry waiter
/// attached to its `rkey` (each with its own correlation id), then
/// clears the in-flight registration.
fn answer_job(shared: &Shared, job: &Job, frame: &Frame) {
    send(&job.out, frame);
    if let Some(rkey) = &job.req.rkey {
        let waiters = lock(&shared.inflight_keys).remove(rkey);
        for (out, wid) in waiters.unwrap_or_default() {
            let mut echo = frame.clone();
            echo.id = wid;
            send(&out, &echo);
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let _faults = shared.faults.clone().map(bsp_faults::install);
    // Registries are static catalogues — one per worker avoids sharing.
    let registry = Registry::standard();
    let instances = InstanceRegistry::standard();
    while let Some(job) = shared.queue.pop() {
        let began = Instant::now();
        shared.metrics.queue_depth.dec();
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            // Deadline-aware admission at dequeue: the client stopped
            // caring, so don't burn a solve budget on the answer.
            shared.metrics.deadline_shed.inc();
            let frame = Frame::error(
                job.req.id,
                codes::DEADLINE_SHED,
                "deadline expired while the job was queued",
            );
            answer_job(&shared, &job, &frame);
            shared.jobs_done.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        shared.metrics.inflight.inc();
        // Isolation boundary: a panic inside a handler (organic or
        // injected) fails this job with a typed `internal_error` frame
        // while the worker and its siblings keep draining the queue.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(frame) = inject_handler_fault(Site::Job, job.req.id, &job.req.method) {
                return frame;
            }
            match job.req.method.as_str() {
                "solve" => handle_solve(&shared, &registry, &instances, &job),
                "delta" => handle_delta(&shared, &registry, &job),
                // Unreachable: conn_loop only enqueues solve/delta.
                m => Frame::error(job.req.id, codes::UNKNOWN_METHOD, format!("{m:?}")),
            }
        }));
        let frame = match caught {
            Ok(frame) => frame,
            Err(payload) => {
                shared.metrics.jobs_failed.inc();
                Frame::error(
                    job.req.id,
                    codes::INTERNAL_ERROR,
                    format!("job panicked: {}", panic_msg(&*payload)),
                )
            }
        };
        answer_job(&shared, &job, &frame);
        shared.jobs_done.fetch_add(1, Ordering::Relaxed);
        shared.metrics.inflight.dec();
        shared.metrics.method(&job.req.method).record(began);
    }
}

/// Canonicalizes a scheduler spec so differently-ordered parameters hit
/// the same cache entry. `race/` portfolios pass through verbatim.
fn canonical_sched(raw: &str) -> Result<String, String> {
    if raw.starts_with(RACE_PREFIX) {
        return Ok(raw.to_string());
    }
    SchedulerSpec::parse(raw)
        .map(|s| s.canonical())
        .map_err(|e| e.to_string())
}

fn supersteps_of(steps: &[u32]) -> u64 {
    steps.iter().max().map(|&m| m as u64 + 1).unwrap_or(0)
}

fn make_budget(shared: &Shared, job: &Job) -> Budget {
    let mut budget = Budget::default();
    budget.deadline = job
        .req
        .budget_ms
        .map(Duration::from_millis)
        .or_else(|| shared.cfg.default_budget_ms.map(Duration::from_millis));
    // A per-request deadline caps the solve budget at whatever is left of
    // it — an answer after the deadline is worthless to the client.
    if let Some(deadline) = job.deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        budget.deadline = Some(budget.deadline.map_or(remaining, |b| b.min(remaining)));
    }
    budget.cancel = Some(job.cancel.clone());
    budget
}

/// Fetches `spec` from the instance cache or generates and caches it.
fn resolve_instance(
    shared: &Shared,
    instances: &InstanceRegistry,
    spec: &str,
    seed: Option<u64>,
) -> Result<Arc<Instance>, String> {
    if let Some(inst) = lock(&shared.icache).get(spec) {
        return Ok(inst);
    }
    let inst = instances
        .generate_one(spec, seed.unwrap_or(DEFAULT_SEED))
        .map_err(|e| e.to_string())?;
    let inst = Arc::new(inst);
    lock(&shared.icache).insert(inst.clone(), Some(spec));
    Ok(inst)
}

fn result_frame(id: Option<u64>, key: &ResultKey, start: Instant) -> Frame {
    Frame {
        kind: "result".to_string(),
        id,
        instance: Some(format!("{} @ {}", key.instance, key.machine)),
        sched: Some(key.sched.clone()),
        elapsed_us: Some(start.elapsed().as_micros().min(u64::MAX as u128) as u64),
        ..Frame::default()
    }
}

/// Stores `outcome` under `key` and forwards whatever the insert evicted.
fn store_outcome(shared: &Shared, key: &ResultKey, outcome: &SolveOutcome) {
    let mut store = lock(&shared.store);
    store.insert(CachedResult {
        instance: key.instance.clone(),
        machine: key.machine.clone(),
        sched: key.sched.clone(),
        cost: outcome.total(),
        procs: outcome.result.sched.procs().to_vec(),
        steps: outcome.result.sched.steps().to_vec(),
    });
    shared.metrics.sync_evictions(store.stats().evictions);
}

/// The one place a stored result becomes a frame: at admission, in a
/// worker's `solve`, and for a `delta`'s derived key. `hit` is the entry
/// the store lent, so the caller holds the store's lock.
fn hit_frame(
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
/// cache already knows (by name or alias) and whose result is stored.
/// Everything else — a never-seen spec, a missing field, a bad scheduler
/// spec — is `None` and goes to a worker, which answers it as before.
fn stored_solve(shared: &Shared, req: &Request, start: Instant) -> Option<Frame> {
    if req.method != "solve" {
        return None;
    }
    let inst = lock(&shared.icache).get(req.instance.as_deref()?)?;
    let sched_raw = req.sched.as_deref().unwrap_or(&shared.cfg.default_sched);
    let key = ResultKey::from_name(&inst.name, &canonical_sched(sched_raw).ok()?)?;
    // An absent key counts nothing here: the request goes on to a worker,
    // whose `get` counts it once.
    let frame = lock(&shared.store)
        .get_if_present(&key)
        .map(|hit| hit_frame(shared, req.id, &key, start, hit));
    frame
}

fn handle_solve(
    shared: &Shared,
    registry: &Registry,
    instances: &InstanceRegistry,
    job: &Job,
) -> Frame {
    let start = Instant::now();
    let req = &job.req;
    let id = req.id;
    let Some(spec) = req.instance.as_deref() else {
        return Frame::error(id, codes::MISSING_FIELD, "solve requires \"instance\"");
    };
    let sched_raw = req.sched.as_deref().unwrap_or(&shared.cfg.default_sched);
    let sched_key = match canonical_sched(sched_raw) {
        Ok(k) => k,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e),
    };
    let inst = match resolve_instance(shared, instances, spec, req.seed) {
        Ok(i) => i,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e),
    };
    let Some(key) = ResultKey::from_name(&inst.name, &sched_key) else {
        return Frame::error(
            id,
            codes::BAD_SPEC,
            format!("instance name {:?} has no \" @ \" machine part", inst.name),
        );
    };

    // Stored between admission and now (a pipelined duplicate, another
    // connection's solve), or reached under a spelling admission had not
    // seen yet.
    let hit = lock(&shared.store)
        .get(&key)
        .map(|hit| hit_frame(shared, id, &key, start, hit));
    if let Some(frame) = hit {
        return frame;
    }
    shared.metrics.cache_misses.inc();
    shared.metrics.cold_solves.inc();

    let scheduler = match registry.get_with(sched_raw, &shared.cfg.pipeline) {
        Ok(s) => s,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
    };
    let budget = make_budget(shared, job);
    let stream = req.stream.unwrap_or(false);
    let out = job.out.clone();
    let observer = EventObserver::new(move |ev| send(&out, &Frame::event(id, ev)));
    let mut solve_req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(budget);
    if stream {
        solve_req = solve_req.with_observer(&observer);
    }
    let outcome = scheduler.solve(&solve_req);

    store_outcome(shared, &key, &outcome);

    let mut frame = result_frame(id, &key, start);
    frame.cost = Some(outcome.total());
    frame.supersteps = Some(supersteps_of(outcome.result.sched.steps()));
    frame.cache_hit = Some(false);
    frame.budget_exhausted = Some(outcome.budget_exhausted);
    frame.stages = Some(outcome.stages.iter().map(StageReportWire::from).collect());
    frame
}

/// FNV-1a of the canonical JSON of the edit list — the suffix that names
/// an edited instance.
fn edits_fingerprint(edits: &[bsp_instance::DagEdit]) -> u64 {
    let text = serde::json::to_string(&edits.to_vec());
    crate::cache::fnv64(text.as_bytes())
}

fn handle_delta(shared: &Shared, registry: &Registry, job: &Job) -> Frame {
    let start = Instant::now();
    let req = &job.req;
    let id = req.id;
    let Some(base) = req.base.as_deref() else {
        return Frame::error(id, codes::MISSING_FIELD, "delta requires \"base\"");
    };
    let edits = match req.edits.as_ref() {
        Some(e) if !e.is_empty() => e,
        _ => {
            return Frame::error(
                id,
                codes::MISSING_FIELD,
                "delta requires a non-empty \"edits\" array",
            )
        }
    };
    let Some(base_inst) = lock(&shared.icache).get(base) else {
        return Frame::error(
            id,
            codes::UNKNOWN_BASE,
            format!("no cached instance {base:?}; solve it first"),
        );
    };
    let sched_raw = req.sched.as_deref().unwrap_or(&shared.cfg.default_sched);
    let sched_key = match canonical_sched(sched_raw) {
        Ok(k) => k,
        Err(e) => return Frame::error(id, codes::BAD_SPEC, e),
    };

    let edited = match apply_edits(&base_inst.dag, edits) {
        Ok(o) => o,
        Err(e) => return Frame::error(id, codes::BAD_EDIT, e.to_string()),
    };

    let Some((base_dag_spec, machine_spec)) = base_inst.name.split_once(" @ ") else {
        return Frame::error(
            id,
            codes::BAD_SPEC,
            format!("base name {:?} has no \" @ \" machine part", base_inst.name),
        );
    };
    let name = format!(
        "{base_dag_spec}+edit{:08x} @ {machine_spec}",
        edits_fingerprint(edits)
    );
    let inst = Arc::new(Instance {
        name,
        dag: edited.dag,
        machine: base_inst.machine.clone(),
    });
    let key = ResultKey::from_name(&inst.name, &sched_key).expect("derived name has machine part");

    // The same edit on the same base under the same scheduler is the same
    // problem — the derived key can itself hit the cache.
    let hit = lock(&shared.store)
        .get(&key)
        .map(|hit| hit_frame(shared, id, &key, start, hit));
    if let Some(frame) = hit {
        lock(&shared.icache).insert(inst, req.label.as_deref());
        return frame;
    }
    shared.metrics.cache_misses.inc();

    // Warm start requires a cached schedule of the *base* under the same
    // scheduler (internal probe: no client-visible hit/miss counting).
    let base_sched = ResultKey::from_name(&base_inst.name, &sched_key).and_then(|k| {
        let store = lock(&shared.store);
        let cached = store.peek(&k)?;
        if cached.procs.len() == base_inst.dag.n() {
            Some(BspSchedule::from_parts(
                cached.procs.clone(),
                cached.steps.clone(),
            ))
        } else {
            None
        }
    });

    let budget = make_budget(shared, job);
    let stream = req.stream.unwrap_or(false);
    let out = job.out.clone();
    let observer = EventObserver::new(move |ev| send(&out, &Frame::event(id, ev)));

    let (outcome, warm, warm_init_cost) = match base_sched {
        Some(base_sched) => {
            shared.metrics.warm_solves.inc();
            let initial =
                warm_start_from_map(&inst.dag, &inst.machine, &base_sched, &edited.node_map);
            let mut solve_req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(budget);
            if stream {
                solve_req = solve_req.with_observer(&observer);
            }
            let mut cx = SolveCx::new("warm", &solve_req);
            let r = solve_warm_pipeline(
                &inst.dag,
                &inst.machine,
                &initial,
                &shared.cfg.pipeline,
                &mut cx,
            );
            let init_cost = r.init_cost;
            let outcome = cx.finish(ScheduleResult::from_parts(
                &inst.dag,
                &inst.machine,
                r.sched,
                r.comm,
            ));
            (outcome, true, Some(init_cost))
        }
        None => {
            // No cached base schedule: fall back to a cold solve of the
            // edited instance.
            shared.metrics.cold_solves.inc();
            let scheduler = match registry.get_with(sched_raw, &shared.cfg.pipeline) {
                Ok(s) => s,
                Err(e) => return Frame::error(id, codes::BAD_SPEC, e.to_string()),
            };
            let mut solve_req = SolveRequest::new(&inst.dag, &inst.machine).with_budget(budget);
            if stream {
                solve_req = solve_req.with_observer(&observer);
            }
            (scheduler.solve(&solve_req), false, None)
        }
    };

    store_outcome(shared, &key, &outcome);
    lock(&shared.icache).insert(inst.clone(), req.label.as_deref());

    let mut frame = result_frame(id, &key, start);
    frame.cost = Some(outcome.total());
    frame.supersteps = Some(supersteps_of(outcome.result.sched.steps()));
    frame.cache_hit = Some(false);
    frame.warm = Some(warm);
    frame.warm_init_cost = warm_init_cost;
    frame.budget_exhausted = Some(outcome.budget_exhausted);
    frame.stages = Some(outcome.stages.iter().map(StageReportWire::from).collect());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_issues_one_write_per_frame() {
        let out = Mutex::new(CountingWriter::default());
        let frames = [
            Frame::error(Some(3), codes::BAD_SPEC, "no such instance"),
            Frame {
                kind: "pong".to_string(),
                ..Frame::default()
            },
        ];
        for frame in &frames {
            send(&out, frame);
        }
        let writes = &lock(&out).writes;
        assert_eq!(writes.len(), frames.len(), "one write per frame");
        for (bytes, frame) in writes.iter().zip(&frames) {
            let (newline, line) = bytes.split_last().expect("non-empty write");
            assert_eq!(*newline, b'\n');
            assert!(!line.contains(&b'\n'));
            let back: Frame = parse_line(std::str::from_utf8(line).unwrap()).unwrap();
            assert_eq!(&back, frame);
        }
    }
}
