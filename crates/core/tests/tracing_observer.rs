//! `TracingObserver` against a real pipeline run: the span tree recorded
//! into an isolated trace buffer must mirror the `StageReport`s the solve
//! emits, and the per-stage duration histograms must count one sample per
//! report. Uses injected (non-global) targets so parallel tests cannot
//! perturb the counts.

use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_model::BspParams;
use bsp_obs::{MetricRegistry, TraceBuffer};
use bsp_schedule::obs::TracingObserver;
use bsp_schedule::solve::{SolveCx, SolveRequest};
use bsp_schedule::ScheduleResult;

#[test]
fn span_tree_matches_stage_reports() {
    let reg = MetricRegistry::new();
    let buf = TraceBuffer::new(256);
    let obs = TracingObserver::with_targets(reg.clone(), buf.clone());

    let dag = random_layered_dag(
        5,
        LayeredConfig {
            layers: 4,
            width: 5,
            edge_prob: 0.35,
            ..Default::default()
        },
    );
    let machine = BspParams::new(4, 3, 5);
    let cfg = PipelineConfig {
        enable_ilp: false, // pinned stage list: init, hc
        ..Default::default()
    };
    let req = SolveRequest::new(&dag, &machine).with_observer(&obs);
    let mut cx = SolveCx::new("pipeline/base", &req);
    let result = solve_base_pipeline(&dag, &machine, &cfg, &mut cx);
    let outcome = cx.finish(ScheduleResult::from_lazy(&dag, &machine, result.sched));

    // The pinned pipeline emits exactly these stages, in order.
    let stages: Vec<&str> = outcome.stages.iter().map(|r| r.stage.as_str()).collect();
    assert_eq!(stages, vec!["init", "hc"]);

    // One observer span per report, closed in emission order, all roots
    // in the isolated buffer with the solver's category.
    let spans = buf.snapshot();
    assert_eq!(
        spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        stages
    );
    assert!(spans.iter().all(|s| s.cat == "solve" && s.parent == 0));

    // Span durations and report durations measure the same interval —
    // the span opens at on_stage_start and closes at on_stage_end, so it
    // can only be (slightly) longer than the report's own clock.
    for (span, report) in spans.iter().zip(&outcome.stages) {
        assert!(
            span.dur_us + 1_000 >= report.elapsed.as_micros() as u64,
            "span {} ({}us) much shorter than its report ({}us)",
            span.name,
            span.dur_us,
            report.elapsed.as_micros()
        );
    }

    // Metrics side: one histogram sample and one stage count per report.
    for report in &outcome.stages {
        assert_eq!(
            reg.histogram("bsp_solve_stage_duration_us", &[("stage", &report.stage)])
                .count(),
            1,
            "stage {}",
            report.stage
        );
        assert_eq!(
            reg.counter("bsp_solve_stages_total", &[("stage", &report.stage)])
                .get(),
            1
        );
    }
    // The pipeline reported at least the initial incumbent.
    assert!(reg.counter("bsp_solve_improvements_total", &[]).get() >= 1);

    // The solve also timed itself end to end.
    assert!(outcome.elapsed >= outcome.stages.iter().map(|r| r.elapsed).sum());
}
