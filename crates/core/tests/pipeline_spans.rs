//! `SolveCx::stage` is the one place a pipeline stage is spanned: a real
//! `pipeline/base` run must leave, in the process-global trace buffer, a
//! `pipeline/base` span whose `pipeline`-category children are exactly the
//! solve's stage reports, in order, each lasting as long as its report.
//! Alone in its binary, so no other test records into the global buffer.

use bsp_core::pipeline::{solve_base_pipeline, PipelineConfig};
use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_model::BspParams;
use bsp_schedule::solve::{SolveCx, SolveRequest};
use bsp_schedule::ScheduleResult;

#[test]
fn stage_spans_match_stage_reports() {
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
    let req = SolveRequest::new(&dag, &machine);
    let mut cx = SolveCx::new("pipeline/base", &req);
    let result = solve_base_pipeline(&dag, &machine, &cfg, &mut cx);
    let outcome = cx.finish(ScheduleResult::from_lazy(&dag, &machine, result.sched));

    let stages: Vec<&str> = outcome.stages.iter().map(|r| r.stage.as_str()).collect();
    assert_eq!(stages, vec!["init", "hc"]);

    let spans = bsp_obs::trace::global().snapshot();
    let root: Vec<_> = spans.iter().filter(|s| s.name == "pipeline/base").collect();
    assert_eq!(root.len(), 1, "one pipeline/base span");
    let children: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == root[0].id && s.cat == "pipeline")
        .collect();
    assert_eq!(
        children.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        stages
    );

    // A stage and its span share their clock readings; whole-µs
    // truncation is the only slack allowed, with 1 ms to spare.
    for (span, report) in children.iter().zip(&outcome.stages) {
        assert!(
            span.dur_us + 1_000 >= report.elapsed.as_micros() as u64,
            "span {} ({}us) much shorter than its report ({}us)",
            span.name,
            span.dur_us,
            report.elapsed.as_micros()
        );
    }

    // The solve also timed itself end to end.
    assert!(outcome.elapsed >= outcome.stages.iter().map(|r| r.elapsed).sum());
}
