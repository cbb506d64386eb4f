//! The server's handles into the process-wide [`bsp_obs`] registry.

use super::worker::Method;
use bsp_obs::{Counter, Gauge, Histogram};
use std::time::Instant;

/// Registered once at startup so the hot paths are single atomic ops.
/// Counters are process-global and monotone; a test running several
/// servers in one process should assert with `>=`, not `==`.
pub(super) struct ServeMetrics {
    pub(super) queue_depth: Gauge,
    pub(super) inflight: Gauge,
    pub(super) cache_hits: Counter,
    pub(super) cache_misses: Counter,
    pub(super) cache_evictions: Counter,
    pub(super) warm_solves: Counter,
    pub(super) cold_solves: Counter,
    /// Instances rebuilt from their recipes after eviction.
    pub(super) instance_rebuilds: Counter,
    /// Instances evicted from the instance cache's resident set.
    pub(super) instance_evictions: Counter,
    /// Jobs whose handler panicked (isolated, answered `internal_error`).
    pub(super) jobs_failed: Counter,
    /// Requests shed because their deadline expired at admission or
    /// before a worker started.
    pub(super) deadline_shed: Counter,
    /// Answered requests and their latency, indexed by `Method as usize`.
    requests: [Counter; Method::ALL.len()],
    latency: [Histogram; Method::ALL.len()],
}

impl ServeMetrics {
    pub(super) fn new() -> Self {
        let reg = bsp_obs::global();
        ServeMetrics {
            queue_depth: reg.gauge("bsp_serve_queue_depth", &[]),
            inflight: reg.gauge("bsp_serve_inflight_jobs", &[]),
            cache_hits: reg.counter("bsp_serve_cache_hits_total", &[]),
            cache_misses: reg.counter("bsp_serve_cache_misses_total", &[]),
            cache_evictions: reg.counter("bsp_serve_cache_evictions_total", &[]),
            warm_solves: reg.counter("bsp_serve_warm_solves_total", &[]),
            cold_solves: reg.counter("bsp_serve_cold_solves_total", &[]),
            instance_rebuilds: reg.counter("bsp_serve_instance_rebuilds_total", &[]),
            instance_evictions: reg.counter("bsp_serve_instance_evictions_total", &[]),
            jobs_failed: reg.counter("bsp_jobs_failed_total", &[]),
            deadline_shed: reg.counter("bsp_deadline_shed_total", &[]),
            requests: Method::ALL
                .map(|(_, m)| reg.counter("bsp_serve_requests_total", &[("method", m)])),
            latency: Method::ALL
                .map(|(_, m)| reg.histogram("bsp_serve_request_duration_us", &[("method", m)])),
        }
    }

    /// Counts one answered `method` request that began at `began`.
    pub(super) fn record(&self, method: Method, began: Instant) {
        self.requests[method as usize].inc();
        self.latency[method as usize].observe_duration(began.elapsed());
    }
}
