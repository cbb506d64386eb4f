//! The harness's own span recorder.
//!
//! Spans are recorded by the benchmark around each call into a layer —
//! never inside the program — kept in memory with nanosecond timestamps
//! and written out as Chrome trace-event JSON when the run ends.
//! `bsp_obs::TraceBuffer` is not used for this: it is a microsecond,
//! mutex-guarded ring of RAII spans, and the harness needs nanoseconds
//! (a cached request is ~20 µs end to end), an off switch that costs one
//! branch, and spans rebuilt after the fact from a `StageReport`.

use std::time::Instant;

/// A pipeline stage's name as the `&'static str` a span carries.
pub fn stage_name(stage: &str) -> &'static str {
    match stage {
        "init" => "init",
        "hc" => "hc",
        "ilp" => "ilp",
        "multilevel" => "multilevel",
        "polish" => "polish",
        "mem-repair" => "mem-repair",
        "warm-init" => "warm-init",
        "run" => "run",
        _ => "stage",
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique in the trace (never 0).
    pub id: u32,
    /// Id of the span that caused it; 0 for a top-level span.
    pub parent: u32,
    /// Layer operation (`"op"`, `"solve"`, `"hc"`, `"client_wait"`, …).
    pub name: &'static str,
    /// Layer (`"bench"`, `"core"`, `"serve"`, `"online"`).
    pub cat: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Row in the viewer: one per recording thread.
    pub tid: u32,
    /// Index into [`Tracer::labels`]: which instance/scheduler/class the
    /// span belongs to.
    pub label: u32,
}

/// An append-only span list owned by one thread.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    next_id: u32,
    /// Whether [`Tracer::push`] records anything. Flipped between passes
    /// of a traced run to measure the tracing overhead in-process.
    pub on: bool,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Label table (`labels[0]` is the empty label).
    pub labels: Vec<String>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, tid: u32, on: bool) -> Self {
        Tracer {
            epoch,
            tid,
            next_id: 1,
            on,
            spans: Vec::new(),
            labels: vec![String::new()],
        }
    }

    /// Adds a label and returns its index.
    pub fn label(&mut self, text: &str) -> u32 {
        self.labels.push(text.to_string());
        (self.labels.len() - 1) as u32
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span over `[start_ns, start_ns + dur_ns)` and returns its
    /// id (0 when tracing is off).
    pub fn push(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: u32,
        start_ns: u64,
        dur_ns: u64,
        label: u32,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            cat,
            start_ns,
            dur_ns,
            tid: self.tid,
            label,
        });
        id
    }

    /// Share of top-level `op` time covered by the ops' direct children
    /// (time-weighted), and the share of `op` spans that have children
    /// whose durations sum to within 5 % of their own.
    pub fn coverage(&self) -> (f64, f64) {
        let mut child_sum = vec![0u64; self.next_id as usize];
        for s in &self.spans {
            child_sum[s.parent as usize] += s.dur_ns;
        }
        let (mut op_ns, mut covered_ns, mut ops, mut within) = (0u64, 0u64, 0usize, 0usize);
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == "op")
        {
            let c = child_sum[s.id as usize];
            op_ns += s.dur_ns;
            covered_ns += c.min(s.dur_ns);
            if c > 0 {
                ops += 1;
                let gap = s.dur_ns.abs_diff(c) as f64;
                if gap <= 0.05 * s.dur_ns as f64 {
                    within += 1;
                }
            }
        }
        (
            covered_ns as f64 / op_ns.max(1) as f64,
            within as f64 / ops.max(1) as f64,
        )
    }

    /// Durations of every span called `name`, optionally only those whose
    /// label is `label`.
    pub fn durations(&self, name: &str, label: Option<u32>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per line
    /// in a JSON array; loads in `chrome://tracing` and Perfetto. At most
    /// `max_ops` top-level spans are written, each with everything under
    /// it (a cached request is 20 µs: a whole run of them is half a
    /// million spans, and the first few thousand show all there is).
    pub fn export_chrome(&self, max_ops: usize) -> String {
        // Spans are pushed parent first, so the cut is a prefix.
        let cut = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == 0)
            .nth(max_ops)
            .map_or(self.spans.len(), |(i, _)| i);
        let spans = &self.spans[..cut];
        let mut out = String::with_capacity(spans.len() * 120 + 8);
        out.push_str("[\n");
        for (i, s) in spans.iter().enumerate() {
            let label = serde::json::to_string(&self.labels[s.label as usize]);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"label\":{}}}}}{}\n",
                s.name,
                s.cat,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                label,
                if i + 1 == spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_links_parents() {
        let mut t = Tracer::new(Instant::now(), 1, false);
        assert_eq!(t.push("op", "bench", 0, 0, 10, 0), 0);
        assert!(t.spans.is_empty());
        t.on = true;
        let l = t.label("spmv/etf");
        let op = t.push("op", "bench", 0, 100, 1000, l);
        t.push("init", "core", op, 100, 600, l);
        t.push("hc", "core", op, 700, 380, l);
        let (covered, within) = t.coverage();
        assert!((covered - 0.98).abs() < 1e-9);
        assert_eq!(within, 1.0);
        assert_eq!(t.durations("hc", Some(l)), vec![380]);
        assert_eq!(t.durations("hc", Some(0)), Vec::<u64>::new());
    }

    #[test]
    fn export_is_strict_json_and_cuts_at_whole_ops() {
        let mut t = Tracer::new(Instant::now(), 1, true);
        t.push("op", "bench", 0, 0, 50, 0);
        let l = t.label("conn \"2\"");
        let op = t.push("op", "bench", 0, 60, 40, l);
        t.push("client_wait", "serve", op, 62, 30, l);
        match serde::json::value_from_str(&t.export_chrome(usize::MAX)).unwrap() {
            serde::Value::Array(events) => {
                assert_eq!(events.len(), 3);
                assert_eq!(events[2].get("tid"), Some(&serde::Value::U64(1)));
                let args = events[2].get("args").unwrap();
                assert_eq!(args.get("parent"), Some(&serde::Value::U64(op as u64)));
                assert_eq!(
                    args.get("label"),
                    Some(&serde::Value::Str("conn \"2\"".into()))
                );
            }
            other => panic!("expected an array, got {other:?}"),
        }
        // Cut after the first top-level span: the second op and its
        // child go together.
        match serde::json::value_from_str(&t.export_chrome(1)).unwrap() {
            serde::Value::Array(events) => assert_eq!(events.len(), 1),
            other => panic!("expected an array, got {other:?}"),
        }
    }
}
