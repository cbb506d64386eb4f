//! Std-only scoped-thread job runner for the scheduling workspace.
//!
//! Threads in this workspace run *between* solves, never inside a search:
//! the experiment sweeps fan independent instances out over
//! [`parallel_map`], the portfolio racer (`race/…`) runs one racer per
//! thread, and `bsp-serve` keeps a worker pool. The local searches
//! themselves are sequential walks (paper §5, A.3). [`parallel_map`] is
//! built entirely on [`std::thread::scope`]: no external dependency, no
//! global thread pool, no unsafe code. Jobs are claimed through an atomic
//! cursor, results are returned **in job order**, and a panicking worker
//! propagates its panic to the caller at join.
//!
//! One thread-count convention, shared by every consumer:
//! [`resolve_threads`] replaces `0` with [`detect_threads`] (the machine's
//! available parallelism) and takes anything else literally; `1` is
//! always the plain sequential path — no threads are spawned.
//!
//! The cancellation token that racers and the daemon share is not here:
//! it is `bsp_schedule::solve::CancelToken`, next to the budget that
//! carries it.
//!
//! Panic isolation: every job body in a sweep runs under `catch_unwind`,
//! so a panicking job never tears down the scoped pool mid-flight.
//! Siblings drain quickly via a shared abort flag, the panic from the
//! **lowest** job index is re-raised at join (deterministic regardless of
//! worker interleaving), and `bsp_par_chunk_panics_total` counts every
//! caught panic. Callers still observe "a worker panic propagates", but
//! the pool itself always joins cleanly first.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Runtime counters, registered once in the process-global registry:
/// `bsp_par_scopes_total` (threaded scopes entered), `bsp_par_chunks_total`
/// (chunks/jobs distributed), `bsp_par_worker_busy_us` (summed worker
/// wall-time) and `bsp_par_chunk_panics_total` (chunk bodies that
/// panicked and were caught). Only the threaded paths record —
/// `threads <= 1` stays zero-cost.
struct ParMetrics {
    scopes: bsp_obs::Counter,
    chunks: bsp_obs::Counter,
    busy: bsp_obs::Counter,
    chunk_panics: bsp_obs::Counter,
}

fn par_metrics() -> &'static ParMetrics {
    static METRICS: OnceLock<ParMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = bsp_obs::global();
        ParMetrics {
            scopes: reg.counter("bsp_par_scopes_total", &[]),
            chunks: reg.counter("bsp_par_chunks_total", &[]),
            busy: reg.counter("bsp_par_worker_busy_us", &[]),
            chunk_panics: reg.counter("bsp_par_chunk_panics_total", &[]),
        }
    })
}

/// The first (lowest-index) panic caught across a scope's chunk bodies,
/// plus the abort flag that tells sibling workers to stop claiming work.
struct PanicSlot {
    first: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    abort: AtomicBool,
}

impl PanicSlot {
    fn new() -> Self {
        PanicSlot {
            first: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    /// Records a caught chunk panic, keeping only the lowest chunk index so
    /// the re-raised payload is deterministic, and raises the abort flag.
    fn record(&self, idx: usize, payload: Box<dyn Any + Send>) {
        par_metrics().chunk_panics.inc();
        self.abort.store(true, Ordering::Relaxed);
        let mut slot = self.first.lock().unwrap_or_else(|p| p.into_inner());
        if slot.as_ref().is_none_or(|&(prev, _)| idx < prev) {
            *slot = Some((idx, payload));
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// Re-raises the recorded panic, if any. Called after the scope joined.
    fn resume(self) {
        let slot = self.first.into_inner().unwrap_or_else(|p| p.into_inner());
        if let Some((_, payload)) = slot {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs one chunk body under `catch_unwind`, applying the installed fault
/// plan's `par` site first (an injected panic is indistinguishable from an
/// organic one downstream). `AssertUnwindSafe` is sound here: a panicking
/// chunk contributes no result, the abort flag drains the scope, and the
/// caller re-raises — partially-mutated captures are never observed again
/// on the panicking path.
fn run_chunk<R>(
    plan: &Option<Arc<bsp_faults::FaultPlan>>,
    body: impl FnOnce() -> R,
) -> Result<R, Box<dyn Any + Send>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(p) = plan {
            p.apply_sync(bsp_faults::Site::Par);
        }
        body()
    }))
}

/// Microseconds elapsed since `start`, saturating.
fn us_since(start: std::time::Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// The machine's available parallelism, or 4 when undetectable.
///
/// ```
/// assert!(bsp_par::detect_threads() >= 1);
/// ```
pub fn detect_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Resolves a requested thread count: `0` means auto-detect, anything
/// else is taken literally. The workspace's only resolution rule.
///
/// ```
/// assert_eq!(bsp_par::resolve_threads(3), 3);
/// assert_eq!(bsp_par::resolve_threads(0), bsp_par::detect_threads());
/// ```
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        detect_threads()
    } else {
        requested
    }
}

/// Runs `f` over `jobs` on `threads` scoped workers, preserving job order
/// in the output. Jobs are claimed one at a time through an atomic cursor,
/// so long and short jobs interleave without static partitioning skew.
/// With `threads <= 1` (or one job) everything runs on the caller's
/// thread.
///
/// ```
/// let squares = bsp_par::parallel_map(3, (0..10u64).collect(), |&x| x * x);
/// assert_eq!(squares, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
/// ```
pub fn parallel_map<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = jobs.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 {
        return jobs.iter().map(&f).collect();
    }
    let metrics = par_metrics();
    metrics.scopes.inc();
    metrics.chunks.add(n as u64);
    let plan = bsp_faults::current();
    let panics = PanicSlot::new();
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let began = std::time::Instant::now();
                    let mut local = Vec::new();
                    loop {
                        if panics.aborted() {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match run_chunk(&plan, || f(&jobs[i])) {
                            Ok(r) => local.push((i, r)),
                            Err(payload) => {
                                panics.record(i, payload);
                                break;
                            }
                        }
                    }
                    metrics.busy.add(us_since(began));
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bsp-par worker died outside a chunk body"))
            .collect()
    });
    panics.resume();
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_and_defaults() {
        assert_eq!(resolve_threads(5), 5);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(0), detect_threads());
        assert!(detect_threads() >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        for threads in [1, 2, 5] {
            let out = parallel_map(threads, (0..57usize).collect(), |&x| 2 * x + 1);
            assert_eq!(out, (0..57).map(|x| 2 * x + 1).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = parallel_map(4, Vec::<usize>::new(), |&x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, (0..100usize).collect(), |&i| {
                if i == 50 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn lowest_chunk_panic_wins_and_pool_survives() {
        // Two jobs panic with distinct payloads; the re-raised payload
        // must be the lowest job's regardless of worker interleaving,
        // and the scope must join cleanly enough to run again right after.
        for _ in 0..20 {
            let caught = std::panic::catch_unwind(|| {
                parallel_map(4, (0..10usize).collect(), |&i| {
                    if i == 3 || i == 7 {
                        panic!("job-{i}");
                    }
                    i
                })
            });
            let payload = caught.expect_err("must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "job-3", "lowest job index must win");
            // The pool is reusable immediately after a panic.
            let ok = parallel_map(4, (0..10usize).collect(), |&i| i);
            assert_eq!(ok.iter().sum::<usize>(), 45);
        }
    }

    #[test]
    fn injected_par_panic_propagates_and_counts() {
        let plan = Arc::new(
            bsp_faults::FaultPlan::parse("faults?seed=3&panic=1.0&only=par&max=1").unwrap(),
        );
        let _guard = bsp_faults::install(plan.clone());
        let jobs = || (0..4usize).collect::<Vec<_>>();
        let caught = std::panic::catch_unwind(|| parallel_map(2, jobs(), |&i| i));
        assert!(caught.is_err(), "injected panic must surface at join");
        assert_eq!(plan.injected_total(), 1);
        // max=1 exhausted: the very next scope runs clean under the same plan.
        let ok = parallel_map(2, jobs(), |&i| i);
        assert_eq!(ok.iter().sum::<usize>(), 6);
    }
}
