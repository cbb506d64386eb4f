//! Structured tracing spans with Chrome trace-event export.
//!
//! A [`Span`] is an RAII guard: creating one records the start time and
//! pushes it onto a thread-local parent stack; dropping it pops the
//! stack and appends a completed [`SpanRecord`] to the owning
//! [`TraceBuffer`] — a bounded ring that drops the oldest spans once
//! full, so tracing is always-on without unbounded growth. Timestamps
//! are microseconds since a process-wide epoch, which is exactly the
//! `ts` unit Chrome's trace-event format wants.
//!
//! ```
//! use bsp_obs::trace::TraceBuffer;
//!
//! let buf = TraceBuffer::new(16);
//! {
//!     let _outer = buf.span("solve", "pipeline");
//!     let _inner = buf.span("hc", "stage"); // parented under "solve"
//! }
//! let spans = buf.snapshot();
//! assert_eq!(spans.len(), 2);
//! let inner = spans.iter().find(|s| s.name == "hc").unwrap();
//! let outer = spans.iter().find(|s| s.name == "solve").unwrap();
//! assert_eq!(inner.parent, outer.id);
//! assert!(buf.export_chrome().contains("\"ph\":\"X\""));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A completed span as stored in the ring buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id at open time on the same thread; 0 for roots.
    pub parent: u64,
    /// Span name (stage or operation).
    pub name: String,
    /// Category (`"solve"`, `"serve"`, `"par"`, …) — Chrome's `cat`.
    pub cat: String,
    /// Start, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense per-thread id (not the OS tid).
    pub tid: u64,
}

struct Ring {
    spans: VecDeque<SpanRecord>,
    cap: usize,
    dropped: u64,
}

/// A bounded, thread-safe ring of completed spans. Cloning shares the
/// ring. Default capacity is 4096 spans; once full, the oldest spans
/// are evicted and counted in [`TraceBuffer::dropped`].
#[derive(Clone)]
pub struct TraceBuffer {
    ring: Arc<Mutex<Ring>>,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(4096)
    }
}

/// The process-global trace buffer the instrumented crates record into.
pub fn global() -> &'static TraceBuffer {
    static GLOBAL: OnceLock<TraceBuffer> = OnceLock::new();
    GLOBAL.get_or_init(TraceBuffer::default)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds from the process trace epoch to `at` (0 before it).
fn us_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch())
        .as_micros()
        .min(u64::MAX as u128) as u64
}

fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Open-span stack for parent tracking on this thread, as
    /// `(buffer id, span id)` — parents are resolved within the same
    /// buffer only, so a span in an isolated test buffer never parents
    /// to one in the global buffer.
    static PARENTS: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Dense per-thread id for trace rows.
    static TID: u64 = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
}

impl TraceBuffer {
    /// A ring holding at most `cap` completed spans.
    pub fn new(cap: usize) -> Self {
        TraceBuffer {
            ring: Arc::new(Mutex::new(Ring {
                spans: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
            })),
        }
    }

    /// Opens a span; it closes (and records itself) when the returned
    /// guard drops, or explicitly via [`Span::finish`].
    pub fn span(&self, name: &str, cat: &str) -> Span {
        self.span_at(name, cat, Instant::now())
    }

    /// [`span`](Self::span) opened at `start`, a clock reading the caller
    /// already took (a stage that times itself shares it with its span).
    pub fn span_at(&self, name: &str, cat: &str, start: Instant) -> Span {
        let id = next_span_id();
        let buf_id = self.buffer_id();
        let parent = PARENTS.with(|p| {
            let mut p = p.borrow_mut();
            let parent = p
                .iter()
                .rev()
                .find(|&&(b, _)| b == buf_id)
                .map_or(0, |&(_, s)| s);
            p.push((buf_id, id));
            parent
        });
        Span(Some(SpanHandle {
            buf: self.clone(),
            id,
            parent,
            tid: TID.with(|t| *t),
            name: name.to_string(),
            cat: cat.to_string(),
            start,
            start_us: us_since_epoch(start),
        }))
    }

    fn record(&self, rec: SpanRecord) {
        let mut ring = self.ring.lock().unwrap();
        if ring.spans.len() == ring.cap {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(rec);
    }

    /// A process-unique id for this ring (shared by clones), keying the
    /// per-thread parent stacks.
    fn buffer_id(&self) -> u64 {
        Arc::as_ptr(&self.ring) as u64
    }

    /// A copy of the buffered spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring.lock().unwrap().spans.iter().cloned().collect()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Discards all buffered spans (keeps the drop counter).
    pub fn clear(&self) {
        self.ring.lock().unwrap().spans.clear();
    }

    /// Renders the buffer as Chrome trace-event JSON — one complete
    /// (`"ph":"X"`) event per line, wrapped in a strict JSON array, so
    /// the export both loads in `chrome://tracing`/Perfetto and parses
    /// with any JSON library.
    pub fn export_chrome(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.snapshot();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}{}\n",
                json_str(&s.name),
                json_str(&s.cat),
                s.start_us,
                s.dur_us,
                s.tid,
                s.id,
                s.parent,
                if i + 1 == spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]\n");
        out
    }
}

struct SpanHandle {
    buf: TraceBuffer,
    id: u64,
    parent: u64,
    tid: u64,
    name: String,
    cat: String,
    start: Instant,
    start_us: u64,
}

impl SpanHandle {
    fn close(self, end: Instant) {
        PARENTS.with(|p| {
            let mut p = p.borrow_mut();
            // Normally the top of the stack; search from the end to stay
            // correct if spans are finished out of order.
            if let Some(pos) = p.iter().rposition(|&(_, id)| id == self.id) {
                p.remove(pos);
            }
        });
        let dur_us = end
            .saturating_duration_since(self.start)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        self.buf.record(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            cat: self.cat,
            start_us: self.start_us,
            dur_us,
            tid: self.tid,
        });
    }
}

/// An open span; records itself into the buffer on drop.
pub struct Span(Option<SpanHandle>);

impl Span {
    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {
        self.finish_at(Instant::now());
    }

    /// Closes the span at `end`, a clock reading the caller already took.
    pub fn finish_at(mut self, end: Instant) {
        if let Some(h) = self.0.take() {
            h.close(end);
        }
    }

    /// The span's process-unique id.
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.close(Instant::now());
        }
    }
}

/// Minimal JSON string escaping for names/categories.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_on_drop() {
        let buf = TraceBuffer::new(8);
        {
            let outer = buf.span("outer", "t");
            let inner = buf.span("inner", "t");
            assert!(buf.snapshot().is_empty(), "open spans are not recorded");
            inner.finish();
            drop(outer);
        }
        let spans = buf.snapshot();
        assert_eq!(spans.len(), 2);
        // Inner closes first, so it is recorded first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].tid, spans[1].tid);
        assert!(spans[0].start_us >= spans[1].start_us);
    }

    #[test]
    fn a_span_times_the_readings_it_is_given() {
        let buf = TraceBuffer::new(8);
        // The trace epoch starts at the first timestamp taken: before `start`.
        us_since_epoch(Instant::now());
        let start = Instant::now();
        let end = start + std::time::Duration::from_micros(1_500);
        buf.span_at("given", "t", start).finish_at(end);
        // Closing before the opening reads as zero, not as a wrap.
        buf.span_at("backwards", "t", end).finish_at(start);
        let spans = buf.snapshot();
        assert_eq!(spans[0].dur_us, 1_500);
        assert_eq!(spans[1].dur_us, 0);
        assert_eq!(spans[1].start_us - spans[0].start_us, 1_500);
    }

    #[test]
    fn siblings_share_a_parent() {
        let buf = TraceBuffer::new(8);
        let root = buf.span("root", "t");
        let root_id = root.id();
        buf.span("a", "t").finish();
        buf.span("b", "t").finish();
        root.finish();
        let spans = buf.snapshot();
        assert!(spans
            .iter()
            .filter(|s| s.name != "root")
            .all(|s| s.parent == root_id));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let buf = TraceBuffer::new(2);
        for name in ["a", "b", "c"] {
            buf.span(name, "t").finish();
        }
        let spans = buf.snapshot();
        assert_eq!(
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn chrome_export_is_one_event_per_line() {
        let buf = TraceBuffer::new(8);
        buf.span("stage \"hc\"", "solve").finish();
        let text = buf.export_chrome();
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("]\n"));
        let event_lines: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(event_lines.len(), 1);
        assert!(event_lines[0].contains("\"name\":\"stage \\\"hc\\\"\""));
        assert!(event_lines[0].contains("\"ph\":\"X\""));
        assert!(event_lines[0].contains("\"pid\":1"));

        // Strict JSON: every event but the last gets a comma, the last
        // none — so the array parses in any JSON library, not just the
        // comma-tolerant trace viewers.
        buf.span("second", "solve").finish();
        let text = buf.export_chrome();
        let event_lines: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(event_lines.len(), 2);
        assert!(event_lines[0].ends_with("},"));
        assert!(event_lines[1].ends_with("}"));
    }

    #[test]
    fn parents_are_scoped_per_buffer() {
        let a = TraceBuffer::new(8);
        let b = TraceBuffer::new(8);
        let outer = a.span("outer", "t");
        // Opened while `outer` is open, but in a different buffer: the
        // parent stacks must not bleed across buffers.
        b.span("other", "t").finish();
        outer.finish();
        assert_eq!(b.snapshot()[0].parent, 0);
        assert_eq!(a.snapshot()[0].parent, 0);
    }

    #[test]
    fn parents_track_per_thread() {
        let buf = TraceBuffer::new(16);
        let root = buf.span("root", "t");
        std::thread::scope(|scope| {
            let b = buf.clone();
            scope.spawn(move || {
                // A fresh thread has an empty parent stack: this span is
                // a root there, not a child of the spawner's span.
                b.span("worker", "t").finish();
            });
        });
        root.finish();
        let spans = buf.snapshot();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, 0);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert_ne!(worker.tid, root.tid);
    }
}
