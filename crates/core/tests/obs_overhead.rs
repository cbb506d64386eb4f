//! Observability overhead guard: the fully instrumented solve pipeline (a
//! [`TracingObserver`] recording spans and per-stage histograms) must cost
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
use bsp_schedule::obs::TracingObserver;
use bsp_schedule::solve::{SolveCx, SolveRequest};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn run_pipeline(observer: Option<&TracingObserver>) -> Duration {
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
    let obs = TracingObserver::new();
    let (mut noop_best, mut traced_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        noop_best = noop_best.min(run_pipeline(None));
        traced_best = traced_best.min(run_pipeline(Some(&obs)));
    }
    let bound = noop_best + noop_best / 50 + Duration::from_millis(2);
    assert!(
        traced_best <= bound,
        "instrumented pipeline {traced_best:?} exceeds noop {noop_best:?} + 2% + 2ms"
    );
}
