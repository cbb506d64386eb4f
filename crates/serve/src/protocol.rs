//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one JSON object on one `\n`-terminated line. Clients
//! send [`Request`]s; the server answers with [`Frame`]s. Responses carry
//! the request's `id`, so clients may pipeline: several requests can be in
//! flight on one connection and the frames are matched back by `id`.
//! Progress events (`kind: "event"`) for a streamed solve are interleaved
//! before the final `kind: "result"` frame of the same `id`.
//!
//! Frames of different ids come back in completion order, not request
//! order — ids are the contract. In particular a `solve` whose result is
//! already stored is answered by the connection thread at admission, so on
//! a pipelined connection it may overtake earlier requests still waiting
//! for a worker. Such a request is not a job: it takes no queue slot
//! (never `queue_full`), is not counted in `jobs_done`, sees no `job`-site
//! injected fault and cannot be shed at dequeue. The admission checks
//! still come first: `deadline_ms: 0` answers `deadline_shed` and a
//! draining server answers `shutting_down`, cached or not.
//!
//! Malformed input never kills the connection silently — the server
//! answers with a typed `kind: "error"` frame whose `error` field is one
//! of the [`codes`]. The only fatal frame is [`codes::OVERSIZE_LINE`]
//! (the connection closes after it, because the line tail cannot be
//! resynchronized safely).
//!
//! # The codec
//!
//! [`parse_line`] and [`to_line`] take exactly the two messages (the
//! sealed [`Wire`] trait), each through one direct codec: reading is one
//! strict pass over the line that fills the struct, writing appends to
//! one pre-sized `String`, and no `serde::Value` tree sits in between.
//! The codec reads and writes the head (`method` / `kind`), every integer,
//! flag and string field, and the `suffix_*` id arrays itself. Nested
//! values (`edits`, `events`, `stages`, `event`, `stats`, `metrics`) go
//! through `serde::json` over their own span of the line.
//!
//! Both messages are *sparse*: `None` fields are omitted, and an absent
//! key or a `null` reads as `None` (the derive of the vendored serde would
//! instead demand every key, which is wrong for a wire format that must
//! accept hand-written requests). The rest of the contract is the one of
//! the `serde::json` round trip this codec replaced, and
//! `tests/codec_equivalence.rs` holds it to that reference:
//!
//! - **Lines are byte-identical:** keys in declaration order, the escapes
//!   `\" \\ \n \r \t`, lowercase `\u00xx` for the other control
//!   characters, non-ASCII raw, integers in decimal. A client's retry key
//!   is a hash of these bytes.
//! - **Every input gets the same verdict and the same error text.** The
//!   line is trimmed first. The number grammar and the escapes are the
//!   vendored parser's, surrogate pairs included, and raw control
//!   characters inside strings are accepted. For a repeated key the first
//!   value wins; later copies are only checked as JSON, and so are unknown
//!   keys, which are then ignored. A syntax error anywhere in the line
//!   wins over a field error, and of the field errors the first field in
//!   declaration order is reported (`field "id": …`, `missing field
//!   "method"`).
//! - **One intended difference:** arrays and objects nested deeper than
//!   [`MAX_DEPTH`] are refused (`nesting deeper than 128 at byte …`),
//!   where the reference recursed until the stack ran out. Nested spans
//!   reach `serde::json` only after the reader accepted them, so the cap
//!   bounds its recursion too.

use bsp_instance::trace::ArrivalEvent;
use bsp_instance::DagEdit;
use bsp_schedule::events::{SolveEvent, StageReportWire};
use serde::{Deserialize, Error as SerdeError, Serialize};

mod codec;

/// Hard cap on one protocol line, in bytes (1 MiB). Lines longer than
/// this are answered with [`codes::OVERSIZE_LINE`] and the connection is
/// closed.
pub const MAX_LINE: usize = 1 << 20;

/// Deepest nesting of arrays and objects a line may hold, the top-level
/// object included. Deeper lines are [`codes::BAD_JSON`]: a 20 KB line of
/// brackets must not overflow a connection thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Typed error codes carried in the `error` field of error frames.
pub mod codes {
    /// `method` is not one of the served methods.
    pub const UNKNOWN_METHOD: &str = "unknown_method";
    /// The line was not a JSON object (syntax error or wrong shape).
    pub const BAD_JSON: &str = "bad_json";
    /// A required field is missing for the requested method.
    pub const MISSING_FIELD: &str = "missing_field";
    /// An instance or scheduler spec did not resolve.
    pub const BAD_SPEC: &str = "bad_spec";
    /// A DAG edit failed to apply (unknown node, cycle, …).
    pub const BAD_EDIT: &str = "bad_edit";
    /// A delta request referenced a base instance the server has not seen.
    pub const UNKNOWN_BASE: &str = "unknown_base";
    /// The protocol line exceeded [`super::MAX_LINE`] bytes (fatal).
    pub const OVERSIZE_LINE: &str = "oversize_line";
    /// The job queue is full; retry later.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The server is draining and accepts no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A stream request referenced a session this connection never opened
    /// (or already closed).
    pub const UNKNOWN_SESSION: &str = "unknown_session";
    /// An arrival event was rejected by the online scheduler (duplicate
    /// node, unknown dependency, commit conflict, event after finalize).
    pub const BAD_EVENT: &str = "bad_event";
    /// The handler for this request panicked (or an injected fault fired).
    /// The job is failed, the worker pool and the connection survive.
    pub const INTERNAL_ERROR: &str = "internal_error";
    /// The request's deadline expired before a worker could start it, so
    /// it was shed instead of solved (deadline-aware queue admission).
    pub const DEADLINE_SHED: &str = "deadline_shed";
}

/// One client request. `method` selects the operation; the remaining
/// fields are method-specific and optional on the wire:
///
/// | method         | uses                                                |
/// |----------------|-----------------------------------------------------|
/// | `solve`        | `instance` (required), `sched`, `budget_ms`, `seed`, `stream` |
/// | `delta`        | `base` (required), `edits` (required), `label`, `sched`, `budget_ms`, `seed`, `stream` |
/// | `stream_open`  | `session` (required), `instance` = machine spec (required), `budget_ms` = per-arrival |
/// | `stream_push`  | `session` (required), `events` (required)           |
/// | `stream_close` | `session` (required)                                |
/// | `stats`        | —                                                   |
/// | `ping`         | —                                                   |
/// | `shutdown`     | —                                                   |
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// `"solve"`, `"delta"`, `"stream_open"`, `"stream_push"`,
    /// `"stream_close"`, `"stats"`, `"ping"` or `"shutdown"`.
    pub method: String,
    /// Client-chosen correlation id, echoed on every response frame.
    pub id: Option<u64>,
    /// Full instance spec, e.g. `"spmv?n=500 @ bsp?p=4"` (`solve`).
    pub instance: Option<String>,
    /// Scheduler spec (defaults to the server's default scheduler).
    pub sched: Option<String>,
    /// Wall-clock budget in milliseconds (defaults to the server's).
    pub budget_ms: Option<u64>,
    /// Instance-generation seed (defaults to the registry default).
    pub seed: Option<u64>,
    /// Stream `kind: "event"` progress frames before the result.
    pub stream: Option<bool>,
    /// Name of the cached base instance a `delta` edits.
    pub base: Option<String>,
    /// The DAG edits a `delta` applies, in order.
    pub edits: Option<Vec<DagEdit>>,
    /// Optional alias under which the edited instance is re-cached.
    pub label: Option<String>,
    /// Connection-scoped stream session name (`stream_*` methods).
    pub session: Option<String>,
    /// Arrival events a `stream_push` feeds, in order.
    pub events: Option<Vec<ArrivalEvent>>,
    /// Idempotent request key (`solve`/`delta`): a retry carrying the same
    /// key while the original job is still in flight attaches to that job
    /// instead of enqueuing a duplicate solve.
    pub rkey: Option<String>,
    /// Per-request deadline in milliseconds from admission. A job whose
    /// deadline expires before a worker picks it up is shed with a typed
    /// `deadline_shed` error; the solve budget is clamped to the
    /// remaining deadline otherwise.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A bare request for `method`.
    pub fn new(method: &str) -> Self {
        Request {
            method: method.to_string(),
            ..Request::default()
        }
    }
}

/// One server response frame. `kind` is `"result"`, `"error"`, `"event"`,
/// `"stream"`, `"stats"`, `"pong"` or `"bye"`; the remaining fields are
/// kind-specific and omitted when `None`. A `"stream"` frame carries the
/// updated tentative suffix after a `stream_open`/`stream_push`: the
/// commit `frontier` plus the parallel `suffix_nodes`/`suffix_procs`/
/// `suffix_steps` arrays (trace-level node ids). The `"result"` frame of
/// a `stream_close` reuses the same three arrays for the *full* final
/// assignment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    /// Frame kind (see type docs).
    pub kind: String,
    /// Correlation id of the request this frame answers.
    pub id: Option<u64>,
    /// Canonical instance name the result is for (`"dag @ machine"`).
    pub instance: Option<String>,
    /// Canonical scheduler spec the result was produced by.
    pub sched: Option<String>,
    /// Final schedule cost.
    pub cost: Option<u64>,
    /// Number of supersteps in the final schedule.
    pub supersteps: Option<u64>,
    /// Whether the result came straight from the cache.
    pub cache_hit: Option<bool>,
    /// Whether a delta re-solve warm-started from a cached schedule.
    pub warm: Option<bool>,
    /// Cost of the repaired warm-start the solve began from (delta only).
    pub warm_init_cost: Option<u64>,
    /// Server-side wall-clock of the request, microseconds.
    pub elapsed_us: Option<u64>,
    /// Whether the budget expired before all stages completed.
    pub budget_exhausted: Option<bool>,
    /// Per-stage reports of the solve (absent on cache hits).
    pub stages: Option<Vec<StageReportWire>>,
    /// Typed error code (error frames; one of [`codes`]).
    pub error: Option<String>,
    /// Human-readable error detail.
    pub message: Option<String>,
    /// Backoff hint on `queue_full` errors, derived from the current
    /// queue depth; a well-behaved client waits this long before
    /// retrying.
    pub retry_after_ms: Option<u64>,
    /// One progress event (event frames).
    pub event: Option<SolveEvent>,
    /// Server statistics (stats frames).
    pub stats: Option<ServerStats>,
    /// Flat metrics snapshot (stats frames): process-wide counters and
    /// gauges, so clients get programmatic metrics without the sidecar.
    pub metrics: Option<Vec<MetricWire>>,
    /// Stream session the frame belongs to (stream frames).
    pub session: Option<String>,
    /// Commit frontier after the push (stream frames).
    pub frontier: Option<u64>,
    /// Total arrivals integrated so far (stream frames).
    pub arrivals: Option<u64>,
    /// Trace-level ids of the tentative nodes (stream frames) or of all
    /// nodes (stream_close result).
    pub suffix_nodes: Option<Vec<u32>>,
    /// Processor assignment parallel to `suffix_nodes`.
    pub suffix_procs: Option<Vec<u32>>,
    /// Superstep assignment parallel to `suffix_nodes`.
    pub suffix_steps: Option<Vec<u32>>,
}

impl Frame {
    /// An error frame with a typed `code` from [`codes`].
    pub fn error(id: Option<u64>, code: &str, message: impl Into<String>) -> Self {
        Frame {
            kind: "error".to_string(),
            id,
            error: Some(code.to_string()),
            message: Some(message.into()),
            ..Frame::default()
        }
    }

    /// An event frame wrapping one progress event.
    pub fn event(id: Option<u64>, event: SolveEvent) -> Self {
        Frame {
            kind: "event".to_string(),
            id,
            event: Some(event),
            ..Frame::default()
        }
    }
}

/// A snapshot of server counters, served by the `stats` method.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Results currently in the store.
    pub cached_results: u64,
    /// Result-store lookups that hit.
    pub hits: u64,
    /// Result-store lookups that missed.
    pub misses: u64,
    /// Result-store entries evicted by the LRU cap (`--store-cap`).
    pub evictions: u64,
    /// Corrupt/truncated store entries quarantined at startup.
    pub corrupt: u64,
    /// Instances currently resident (materialised) in the instance
    /// cache; names it can rebuild from their recipes are not counted.
    pub cached_instances: u64,
    /// Jobs fully processed since startup: every `solve`, `delta` and
    /// `stream_*` request a worker answered or shed at dequeue (a stored
    /// `solve` answered at admission is not a job).
    pub jobs_done: u64,
    /// Jobs currently queued.
    pub queued: u64,
    /// Worker threads draining the queue.
    pub workers: u64,
}

/// One scalar metric on the wire (`stats` frames): the flattened
/// `name{labels}` key, the metric kind (`"counter"` or `"gauge"`;
/// histograms are summarized by the sidecar, not the wire snapshot) and
/// the current value.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricWire {
    /// Flattened metric key, e.g. `bsp_serve_requests_total{method="solve"}`.
    pub name: String,
    /// `"counter"` or `"gauge"`.
    pub kind: String,
    /// Current value (counters clamp to `i64::MAX`).
    pub value: i64,
}

/// Flattens a registry snapshot into wire metrics: counters and gauges
/// only, in the snapshot's deterministic (name, labels) order.
pub fn metric_wires(samples: &[bsp_obs::MetricSample]) -> Vec<MetricWire> {
    samples
        .iter()
        .filter_map(|s| {
            Some(MetricWire {
                name: s.full_name(),
                kind: s.kind().to_string(),
                value: s.scalar()?,
            })
        })
        .collect()
}

/// Parses one protocol line (surrounding whitespace trimmed) into a
/// [`Request`] or a [`Frame`]. Errors name the syntax problem and its
/// byte offset, or the field that did not convert (`field "id": …`,
/// `missing field "method"`).
pub fn parse_line<T: Wire>(line: &str) -> Result<T, SerdeError> {
    T::read(line.trim())
}

/// Serializes `msg` as one protocol line (no trailing newline).
pub fn to_line<T: Wire>(msg: &T) -> String {
    msg.write()
}

mod sealed {
    pub trait Sealed {}
}

/// The two wire messages, [`Request`] and [`Frame`]: what [`parse_line`]
/// reads and [`to_line`] writes. Sealed; each has one direct codec.
pub trait Wire: sealed::Sealed + Sized {
    #[doc(hidden)]
    fn read(line: &str) -> Result<Self, SerdeError>;
    #[doc(hidden)]
    fn write(&self) -> String;
}

/// Defines a message's codec from its keys in wire order: the required
/// string `head`, then each optional field with the [`codec`] module that
/// reads and writes it. The destructuring in `write` keeps the list
/// complete: a struct field missing here does not compile.
macro_rules! wire {
    ($ty:ident as $what:literal { $head:ident; $($field:ident: $codec:ident),* $(,)? }) => {
        impl sealed::Sealed for $ty {}

        impl Wire for $ty {
            fn read(line: &str) -> Result<Self, SerdeError> {
                #[allow(non_camel_case_types)]
                #[derive(Clone, Copy)]
                enum Key {
                    $head,
                    $($field),*
                }
                let mut msg = $ty::default();
                let mut checks = codec::Checks::default();
                codec::read_object(line, $what, |key, tok, span| {
                    let key = match key {
                        stringify!($head) => Key::$head,
                        $(stringify!($field) => Key::$field,)*
                        _ => return,
                    };
                    if !checks.first(key as u32) {
                        return;
                    }
                    match key {
                        Key::$head => match codec::text::required(tok) {
                            Ok(v) => msg.$head = v,
                            Err(e) => checks.fail(key as u32, stringify!($head), e),
                        },
                        $(Key::$field => match codec::$codec::read(tok, span) {
                            Ok(v) => msg.$field = v,
                            Err(e) => checks.fail(key as u32, stringify!($field), e),
                        },)*
                    }
                })?;
                checks.finish(stringify!($head))?;
                Ok(msg)
            }

            fn write(&self) -> String {
                let $ty { $head, $($field),* } = self;
                // The slack covers the braces, the head's key and the
                // newline a sender appends.
                let size = 16 + $head.len() $(+ codec::$codec::hint($field))*;
                let mut out = String::with_capacity(size);
                out.push_str(concat!("{\"", stringify!($head), "\":"));
                codec::text::write(&mut out, $head);
                $(if let Some(v) = $field {
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    codec::$codec::write(&mut out, v);
                })*
                out.push('}');
                out
            }
        }
    };
}

wire!(Request as "request" {
    method;
    id: num,
    instance: text,
    sched: text,
    budget_ms: num,
    seed: num,
    stream: flag,
    base: text,
    edits: nested,
    label: text,
    session: text,
    events: nested,
    rkey: text,
    deadline_ms: num,
});

wire!(Frame as "frame" {
    kind;
    id: num,
    instance: text,
    sched: text,
    cost: num,
    supersteps: num,
    cache_hit: flag,
    warm: flag,
    warm_init_cost: num,
    elapsed_us: num,
    budget_exhausted: flag,
    stages: nested,
    error: text,
    message: text,
    retry_after_ms: num,
    event: nested,
    stats: nested,
    metrics: nested,
    session: text,
    frontier: num,
    arrivals: num,
    suffix_nodes: ids,
    suffix_procs: ids,
    suffix_steps: ids,
});

/// Outcome of reading one protocol line.
#[derive(Debug)]
pub enum LineRead<'a> {
    /// A complete line (without the `\n`), borrowed from the caller's
    /// buffer unless invalid UTF-8 forced a lossy copy.
    Line(std::borrow::Cow<'a, str>),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the cap; the tail was not consumed.
    Oversize,
}

/// Reads one `\n`-terminated line from `r` into `buf` (cleared first — a
/// connection reuses one buffer for every line), enforcing a byte cap.
/// Returns [`LineRead::Oversize`] as soon as the cap is crossed (the
/// remainder of the line stays in the stream — callers should close the
/// connection).
pub fn read_line_capped<'a, R: std::io::BufRead>(
    r: &mut R,
    cap: usize,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<LineRead<'a>> {
    use std::io::{BufRead, Read};
    buf.clear();
    let mut take = r.take((cap + 1) as u64);
    let n = take.read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > cap {
        return Ok(LineRead::Oversize);
    }
    // A final unterminated line (EOF without '\n') within the cap is
    // accepted — it lets `printf '...' | nc` style clients work.
    Ok(LineRead::Line(String::from_utf8_lossy(buf)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_sparsely() {
        let mut req = Request::new("solve");
        req.id = Some(7);
        req.instance = Some("spmv?n=100 @ bsp?p=4".to_string());
        let line = to_line(&req);
        // None fields are omitted from the wire form entirely.
        assert!(!line.contains("edits"));
        assert!(!line.contains("label"));
        let back: Request = parse_line(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn absent_keys_read_as_none() {
        let req: Request = parse_line("{\"method\":\"ping\"}").unwrap();
        assert_eq!(req.method, "ping");
        assert_eq!(req.id, None);
        assert_eq!(req.edits, None);
        assert!(parse_line::<Request>("{\"id\":3}").is_err());
        assert!(parse_line::<Request>("[1,2]").is_err());
    }

    #[test]
    fn frame_round_trips() {
        let mut f = Frame::error(Some(9), codes::BAD_SPEC, "no such instance");
        f.elapsed_us = Some(12);
        let back: Frame = parse_line(&to_line(&f)).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.error.as_deref(), Some(codes::BAD_SPEC));
    }

    #[test]
    fn capped_reader_flags_oversize_lines() {
        let mut buf = Vec::new();
        let data = b"short\n0123456789abcdef\n";
        let mut r = BufReader::new(&data[..]);
        match read_line_capped(&mut r, 8, &mut buf).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "short"),
            other => panic!("expected line, got {other:?}"),
        }
        assert!(matches!(
            read_line_capped(&mut r, 8, &mut buf).unwrap(),
            LineRead::Oversize
        ));
        let data = b"no-newline-at-eof";
        let mut r = BufReader::new(&data[..]);
        match read_line_capped(&mut r, 64, &mut buf).unwrap() {
            LineRead::Line(l) => assert_eq!(l, "no-newline-at-eof"),
            other => panic!("expected line, got {other:?}"),
        }
        assert!(matches!(
            read_line_capped(&mut r, 64, &mut buf).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn capped_reader_borrows_valid_utf8_and_patches_the_rest() {
        use std::borrow::Cow;
        let mut buf = Vec::new();
        let data = b"gr\xc3\xbcn\r\nbad\xffbyte\n";
        let mut r = BufReader::new(&data[..]);
        match read_line_capped(&mut r, 64, &mut buf).unwrap() {
            LineRead::Line(Cow::Borrowed(l)) => assert_eq!(l, "gr\u{fc}n"),
            other => panic!("expected a borrowed line, got {other:?}"),
        }
        match read_line_capped(&mut r, 64, &mut buf).unwrap() {
            LineRead::Line(Cow::Owned(l)) => assert_eq!(l, "bad\u{fffd}byte"),
            other => panic!("expected a lossy copy, got {other:?}"),
        }
    }
}
