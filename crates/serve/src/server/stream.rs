//! `stream_open` / `stream_push` / `stream_close`: online sessions fed
//! event by event. Each request is a job like any other and runs on a
//! pool worker, under its connection's session lock.

use super::worker::inject_handler_fault;
use super::Shared;
use crate::protocol::{codes, Frame, Request};
use bsp_faults::Site;
use bsp_instance::trace::ArrivalEvent;
use bsp_instance::MachineSpec;
use bsp_online::{OnlineConfig, OnlineScheduler};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The open sessions of one connection, by the name the client gave them.
pub(super) type Sessions = HashMap<String, OnlineScheduler>;

/// Opens a stream session: `instance` carries the *machine* spec
/// (`"bsp?p=4&g=1&l=5"`) — the DAG side arrives event by event —
/// and `budget_ms` is the per-arrival re-planning budget.
pub(super) fn open(shared: &Shared, sessions: &mut Sessions, req: &Request) -> Frame {
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
pub(super) fn push(sessions: &mut Sessions, req: &Request) -> Frame {
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
pub(super) fn close(sessions: &mut Sessions, req: &Request) -> Frame {
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
        if let Err(e) = sch.push(&ArrivalEvent::Finalize) {
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
