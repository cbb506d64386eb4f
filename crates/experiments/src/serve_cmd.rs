//! The `serve` command: run the `bsp-serve` scheduling daemon. Its
//! throughput and latency are measured by the repo benchmark's
//! `serve-hot` and `serve-solve` workloads (`benchmark/README.md`).

use crate::runner::RunConfig;
use bsp_serve::server::{shutdown_on_sigint, start, ServeConfig};

/// The `serve` command: bind the daemon and block until SIGINT or a
/// client `shutdown` request, then drain, flush the store and report.
pub fn serve(cfg: &RunConfig) {
    let mut sc = ServeConfig::default();
    sc.threads = cfg.threads;
    sc.default_budget_ms = Some(cfg.budget_ms.unwrap_or(2000));
    sc.store_path = cfg.store.clone();
    sc.store_cap = cfg.store_cap;
    // A daemon wants a fixed port, not the test-suite's port 0.
    sc.addr = cfg
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7570".to_string());
    sc.metrics_addr = cfg.metrics_addr.clone();
    sc.faults = cfg.faults.clone();
    let workers = sc.worker_threads();
    let handle = start(sc).expect("bind serve address");
    println!(
        "bsp-serve listening on {} ({} worker{}, store: {})",
        handle.addr(),
        workers,
        if workers == 1 { "" } else { "s" },
        cfg.store
            .as_ref()
            .map_or("in-memory".to_string(), |p| p.display().to_string()),
    );
    if let Some(metrics) = handle.metrics_addr() {
        println!(
            "observability sidecar on http://{metrics} (/metrics Prometheus, /trace Chrome JSON)"
        );
    }
    println!("line-delimited JSON; try: {{\"method\":\"ping\",\"id\":1}} — Ctrl-C to stop");
    shutdown_on_sigint(&handle);
    let stats = handle.wait();
    println!(
        "bsp-serve stopped: {} jobs done, {} results cached ({} hits / {} misses)",
        stats.jobs_done, stats.cached_results, stats.hits, stats.misses
    );
}
