//! The worker pool: what a job is, the loop that runs one, and the one
//! isolation boundary every handler runs inside.

use super::conn::{send, Conn};
use super::{lock, solve, stream, Shared};
use crate::protocol::{codes, Frame, Request};
use bsp_faults::{Fault, Site};
use bsp_instance::source::InstanceRegistry;
use bsp_sched::registry::Registry;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The methods that become jobs: a closed set, decided once at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Method {
    Solve,
    Delta,
    StreamOpen,
    StreamPush,
    StreamClose,
}

impl Method {
    /// Every queued method with its wire name (also its `method` metric
    /// label), in discriminant order.
    pub(super) const ALL: [(Method, &'static str); 5] = [
        (Method::Solve, "solve"),
        (Method::Delta, "delta"),
        (Method::StreamOpen, "stream_open"),
        (Method::StreamPush, "stream_push"),
        (Method::StreamClose, "stream_close"),
    ];

    pub(super) fn name(self) -> &'static str {
        Method::ALL[self as usize].1
    }

    /// The queued method a request names, if it names one.
    pub(super) fn queued(name: &str) -> Option<Method> {
        Method::ALL
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(m, _)| *m)
    }
}

/// One queued unit of work: a request and the connection to answer.
pub(super) struct Job {
    pub(super) method: Method,
    pub(super) req: Request,
    pub(super) conn: Arc<Conn>,
    /// Absolute deadline computed at admission from `req.deadline_ms`;
    /// a job still queued past it is shed instead of run.
    pub(super) deadline: Option<Instant>,
    /// The in-flight registration retries of this job attach to.
    pub(super) rkey: Option<String>,
    /// Held by a stream job for its reader, which reads no further line
    /// until this drops with the job — after the answer is written.
    pub(super) _answered: Option<Sender<()>>,
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

/// Applies any injected fault for a handler site. `Some` is a typed
/// `internal_error` frame the caller answers with (io_err/drop); an
/// injected panic unwinds into the worker's isolation boundary, and a
/// slow fault just sleeps in place.
pub(super) fn inject_handler_fault(site: Site, id: Option<u64>, what: &str) -> Option<Frame> {
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

/// Answers the job's own connection plus every idempotent-retry waiter
/// attached to its `rkey` (each with its own correlation id), then
/// clears the in-flight registration.
fn answer_job(shared: &Shared, job: &Job, frame: &Frame) {
    send(&job.conn.out, frame);
    if let Some(rkey) = &job.rkey {
        let waiters = lock(&shared.inflight_keys).remove(rkey);
        for (conn, wid) in waiters.unwrap_or_default() {
            let mut echo = frame.clone();
            echo.id = wid;
            send(&conn.out, &echo);
        }
    }
}

pub(super) fn worker_loop(shared: Arc<Shared>) {
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
            if let Some(frame) = inject_handler_fault(Site::Job, job.req.id, job.method.name()) {
                return frame;
            }
            match job.method {
                Method::Solve => solve::handle_solve(&shared, &registry, &instances, &job),
                Method::Delta => solve::handle_delta(&shared, &registry, &instances, &job),
                Method::StreamOpen => {
                    stream::open(&shared, &mut lock(&job.conn.sessions), &job.req)
                }
                Method::StreamPush => stream::push(&mut lock(&job.conn.sessions), &job.req),
                Method::StreamClose => stream::close(&mut lock(&job.conn.sessions), &job.req),
            }
        }));
        let frame = match caught {
            Ok(frame) => frame,
            Err(payload) => {
                shared.metrics.jobs_failed.inc();
                // The scheduler of the session the request named may be
                // half-mutated: close it; the connection keeps serving.
                if let Some(session) = job.req.session.as_deref() {
                    lock(&job.conn.sessions).remove(session);
                }
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
        shared.metrics.record(job.method, began);
    }
}
