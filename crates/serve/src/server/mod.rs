//! The scheduling daemon: accept loop, connection readers, worker pool,
//! request handlers, graceful shutdown.
//!
//! Architecture (one box per thread):
//!
//! ```text
//!  accept loop ──spawns──▶ connection reader ──try_push──▶ JobQueue
//!       │                   │ (admission: draining,          │
//!       │                   │  deadline, queue_full;         ▼
//!       │                   │  a stored `solve` is      worker pool
//!       │                   │  the only inline answer)  (`--threads`, one
//!       │                   ▼                           panic boundary)
//!       │              CancelToken chain                     │
//!       │         server ⊃ connection ⊃ job                  ▼
//!       ▼                                          result/event/stream
//!   stop token ◀──────── shutdown request               frames
//! ```
//!
//! There is one path to a solver thread: `solve`, `delta`, `stream_open`,
//! `stream_push` and `stream_close` are admitted the same way and run as
//! jobs on the pool, so `threads` bounds every thread that solves and
//! `queue_cap` every request that waits to. A `solve` whose answer is
//! already in the result store never becomes a job: the connection reader
//! answers it at admission (`stored_solve`), through the same `hit_frame`
//! a worker uses when the result lands between admission and dequeue.
//! Stream sessions belong to their connection, whose reader reads no
//! further line until a stream job is answered: a session's events reach
//! its scheduler in the order they were sent.
//!
//! Cancellation is hierarchical: the server's stop token is the parent of
//! every connection token, which parents every job token. A client
//! disconnect cancels its connection token, so in-flight solves for that
//! client wind down to their best-so-far and the (still valid) results
//! land in the cache for the next request. A shutdown cancels the server
//! token: every in-flight solve returns its best-so-far, queued jobs are
//! drained under the already-cancelled budget (valid results, fast), and
//! the result store is flushed to disk.

mod conn;
mod metrics;
#[cfg(unix)]
mod sigint;
mod solve;
mod stream;
mod worker;

use crate::cache::{InstanceCache, ResultStore};
use crate::protocol::{ServerStats, MAX_LINE};
use crate::queue::JobQueue;
use bsp_core::pipeline::PipelineConfig;
use bsp_faults::FaultPlan;
use bsp_schedule::solve::CancelToken;
use conn::Conn;
use metrics::ServeMetrics;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use worker::Job;

/// Locks a mutex, recovering from poisoning: a handler panic is already
/// isolated (counted and answered as `internal_error`), so the shared
/// state it may have been holding must keep serving — the store and the
/// instance cache are always internally consistent between operations.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (tests).
    pub addr: String,
    /// Worker threads draining the job queue (`--threads`); `0` =
    /// auto-detect ([`bsp_par::resolve_threads`]).
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
            threads: 1,
            queue_cap: 64,
            store_path: None,
            store_cap: None,
            default_budget_ms: Some(2000),
            default_sched: "pipeline/base?ilp=off".to_string(),
            pipeline,
            max_line: MAX_LINE,
            metrics_addr: None,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// The resolved worker-pool size ([`bsp_par::resolve_threads`]).
    pub fn worker_threads(&self) -> usize {
        bsp_par::resolve_threads(self.threads)
    }
}

/// Retries of an in-flight idempotent request attach here instead of
/// enqueuing a duplicate job: key → the extra `(connection, id)` pairs to
/// answer when the original job completes.
type InflightWaiters = HashMap<String, Vec<(Arc<Conn>, Option<u64>)>>;

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
    /// `canonical_sched(&cfg.default_sched)`: every request without a
    /// `sched` is keyed by it, so it is computed once.
    default_sched_key: Result<String, String>,
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
    metrics.cache_evictions.add(store.stats().evictions);
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = cfg.worker_threads();

    let shared = Arc::new(Shared {
        queue: JobQueue::new(cfg.queue_cap),
        store: Mutex::new(store),
        icache: Mutex::new(InstanceCache::new(cfg.queue_cap)),
        stop: CancelToken::new(),
        jobs_done: AtomicU64::new(0),
        workers,
        metrics,
        faults,
        inflight_keys: Mutex::new(HashMap::new()),
        default_sched_key: conn::canonical_sched(&cfg.default_sched),
        cfg,
    });

    let (metrics_addr, sidecar) = match &shared.cfg.metrics_addr {
        Some(addr) => {
            let (addr, handle) = crate::sidecar::start(addr, shared.stop.clone())?;
            (Some(addr), Some(handle))
        }
        None => (None, None),
    };

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("bsp-serve-worker-{i}"))
                .spawn(move || worker::worker_loop(shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("bsp-serve-accept".to_string())
            .spawn(move || conn::accept_loop(listener, shared))
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
    #[cfg(unix)]
    sigint::install(handle.shared.clone());
    #[cfg(not(unix))]
    let _ = handle;
}

#[cfg(test)]
mod tests;
