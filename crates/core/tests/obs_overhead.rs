//! Observability overhead guard: the solve pipeline under an
//! [`EventObserver`] (the bridge the daemon attaches for `stream: true`
//! solves, here forwarding every event into a counting closure) must cost
//! within 2 % of the same pipeline under the default no-op observer.
//!
//! Best-of-five interleaved pairs; the bound is `noop_min · 1.02 + 2 ms`.
//! Both sides pay the always-on spans and counters, so what is measured is
//! the observer bridge itself. A timing bound means something only in an
//! optimised build, so the test is ignored by default; run it with
//! `cargo test --release -p bsp-core --test obs_overhead -- --ignored`.

use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
use bsp_dagdb::fine::exp_dag;
use bsp_dagdb::SparsePattern;
use bsp_model::BspParams;
use bsp_schedule::events::{EventObserver, SolveEvent};
use bsp_schedule::solve::{Observer, SolveCx, SolveRequest};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn run_pipeline(observer: Option<&dyn Observer>) -> Duration {
    let dag = exp_dag(&SparsePattern::random(24, 0.18, 9), 5);
    let m = BspParams::new(8, 2, 5);
    // Move-capped local search, no ILP: both sides do the same work.
    let mut cfg = PipelineConfig::default();
    cfg.hc.max_moves = Some(300);
    cfg.hc.time_limit = Some(Duration::from_millis(300));
    cfg.hccs.max_moves = Some(300);
    cfg.hccs.time_limit = Some(Duration::from_millis(150));
    cfg.enable_ilp = false;
    cfg.use_ilp_init = Some(false);
    cfg.escape = None;
    let mut req = SolveRequest::new(&dag, &m);
    if let Some(obs) = observer {
        req = req.with_observer(obs);
    }
    let mut cx = SolveCx::new("pipeline/base", &req);
    let t = Instant::now();
    black_box(solve_base_pipeline(&dag, &m, &cfg, &mut cx));
    t.elapsed()
}

#[test]
#[ignore = "a timing bound: run in release with --ignored"]
fn instrumented_pipeline_costs_within_two_percent_of_noop() {
    let events = AtomicU64::new(0);
    let obs = EventObserver::new(|ev: SolveEvent| {
        black_box(ev);
        events.fetch_add(1, Ordering::Relaxed);
    });
    let (mut noop_best, mut observed_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        noop_best = noop_best.min(run_pipeline(None));
        observed_best = observed_best.min(run_pipeline(Some(&obs)));
    }
    // Every run reports at least its stages' starts and ends.
    assert!(events.load(Ordering::Relaxed) >= 5 * 4);
    let bound = noop_best + noop_best / 50 + Duration::from_millis(2);
    assert!(
        observed_best <= bound,
        "observed pipeline {observed_best:?} exceeds noop {noop_best:?} + 2% + 2ms"
    );
}
