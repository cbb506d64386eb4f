//! The direct wire codec against the `Value`-tree codec it replaced
//! (`codec_reference`): every line byte for byte, every reading value for
//! value and error for error.
//!
//! Two halves. A property test writes arbitrary [`Request`]s and
//! [`Frame`]s — every field present or absent, strings full of quotes,
//! backslashes, control characters and non-ASCII, integers up to
//! `u64::MAX`, small nested edits, events and stages — and asserts that
//! both codecs write the same bytes and read them back to the same value.
//! A byte-mutation corpus then feeds both readers what a peer could send:
//! every valid line with a byte deleted or inserted, keys repeated with
//! another type, `null`s, unknown keys, floats and negatives for ids,
//! trailing garbage and non-objects. Accept or reject, value and error
//! text must agree on every input.

mod codec_reference;

use bsp_instance::trace::ArrivalEvent;
use bsp_instance::DagEdit;
use bsp_schedule::events::{SolveEvent, StageReportWire};
use bsp_serve::protocol::{parse_line, to_line, MAX_DEPTH};
use bsp_serve::{Frame, MetricWire, Request, ServerStats};
use codec_reference as reference;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters that stress the string codec: every escape the writer
/// emits, controls it writes as `\u00xx`, and multi-byte UTF-8.
const TRICKY: &[char] = &[
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\0',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '\u{80}',
    'é',
    'λ',
    '中',
    '\u{2028}',
    '\u{fffd}',
    '\u{ffff}',
    '🦀',
    '\u{10ffff}',
];

fn text(rng: &mut TestRng) -> String {
    let len = rng.sample_range(0usize..12);
    (0..len)
        .map(|_| {
            if rng.sample_bool(0.5) {
                rng.sample_range(0x20u8..0x7f) as char
            } else {
                TRICKY[rng.sample_range(0..TRICKY.len())]
            }
        })
        .collect()
}

fn int(rng: &mut TestRng) -> u64 {
    match rng.sample_range(0u32..6) {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - 1,
        3 => 1 << 53,
        4 => rng.sample_range(0u64..1000),
        _ => rng.sample_range(0u64..u64::MAX),
    }
}

fn small(rng: &mut TestRng) -> u32 {
    if rng.sample_bool(0.1) {
        u32::MAX
    } else {
        rng.sample_range(0u32..50)
    }
}

fn opt<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    rng.sample_bool(0.5).then(|| f(rng))
}

fn list<T>(rng: &mut TestRng, max: usize, mut f: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let len = rng.sample_range(0..=max);
    (0..len).map(|_| f(rng)).collect()
}

fn edit(rng: &mut TestRng) -> DagEdit {
    match rng.sample_range(0u32..5) {
        0 => DagEdit::AddNode {
            work: int(rng),
            comm: int(rng),
            preds: list(rng, 3, small),
            succs: list(rng, 3, small),
        },
        1 => DagEdit::RemoveNode { node: small(rng) },
        2 => DagEdit::AddEdge {
            from: small(rng),
            to: small(rng),
        },
        3 => DagEdit::RemoveEdge {
            from: small(rng),
            to: small(rng),
        },
        _ => DagEdit::SetWeights {
            node: small(rng),
            work: opt(rng, int),
            comm: opt(rng, int),
        },
    }
}

fn arrival(rng: &mut TestRng) -> ArrivalEvent {
    match rng.sample_range(0u32..3) {
        0 => ArrivalEvent::Arrive {
            node: small(rng),
            work: int(rng),
            comm: int(rng),
            deps: list(rng, 3, small),
        },
        1 => ArrivalEvent::Reveal {
            from: small(rng),
            to: small(rng),
        },
        _ => ArrivalEvent::Finalize,
    }
}

fn flag(rng: &mut TestRng) -> bool {
    rng.sample_bool(0.5)
}

fn request(rng: &mut TestRng) -> Request {
    Request {
        method: text(rng),
        id: opt(rng, int),
        instance: opt(rng, text),
        sched: opt(rng, text),
        budget_ms: opt(rng, int),
        seed: opt(rng, int),
        stream: opt(rng, flag),
        base: opt(rng, text),
        edits: opt(rng, |rng| list(rng, 3, edit)),
        label: opt(rng, text),
        session: opt(rng, text),
        events: opt(rng, |rng| list(rng, 3, arrival)),
        rkey: opt(rng, text),
        deadline_ms: opt(rng, int),
    }
}

fn frame(rng: &mut TestRng) -> Frame {
    Frame {
        kind: text(rng),
        id: opt(rng, int),
        instance: opt(rng, text),
        sched: opt(rng, text),
        cost: opt(rng, int),
        supersteps: opt(rng, int),
        cache_hit: opt(rng, flag),
        warm: opt(rng, flag),
        warm_init_cost: opt(rng, int),
        elapsed_us: opt(rng, int),
        budget_exhausted: opt(rng, flag),
        stages: opt(rng, |rng| {
            list(rng, 3, |rng| StageReportWire {
                stage: text(rng),
                cost_after: int(rng),
                elapsed_us: int(rng),
                truncated: flag(rng),
            })
        }),
        error: opt(rng, text),
        message: opt(rng, text),
        retry_after_ms: opt(rng, int),
        event: opt(rng, |rng| SolveEvent {
            kind: text(rng),
            scheduler: text(rng),
            stage: text(rng),
            cost: opt(rng, int),
            elapsed_us: opt(rng, int),
            truncated: opt(rng, flag),
        }),
        stats: opt(rng, |rng| ServerStats {
            cached_results: int(rng),
            hits: int(rng),
            misses: int(rng),
            evictions: int(rng),
            corrupt: int(rng),
            cached_instances: int(rng),
            jobs_done: int(rng),
            queued: int(rng),
            workers: int(rng),
        }),
        metrics: opt(rng, |rng| {
            list(rng, 2, |rng| MetricWire {
                name: text(rng),
                kind: text(rng),
                value: rng.sample_range(i64::MIN..i64::MAX),
            })
        }),
        session: opt(rng, text),
        frontier: opt(rng, int),
        arrivals: opt(rng, int),
        suffix_nodes: opt(rng, |rng| list(rng, 4, small)),
        suffix_procs: opt(rng, |rng| list(rng, 4, small)),
        suffix_steps: opt(rng, |rng| list(rng, 4, small)),
    }
}

/// One arbitrary request and one arbitrary frame.
struct Messages;

impl Strategy for Messages {
    type Value = (Request, Frame);
    fn generate(&self, rng: &mut TestRng) -> (Request, Frame) {
        (request(rng), frame(rng))
    }
}

/// Both readings of `line`, as requests and as frames, must agree.
fn assert_same_reading(line: &str) {
    assert_eq!(
        parse_line::<Request>(line),
        reference::parse_line::<Request>(line),
        "request reading of {line:?}"
    );
    assert_eq!(
        parse_line::<Frame>(line),
        reference::parse_line::<Frame>(line),
        "frame reading of {line:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn lines_are_byte_identical_and_read_back_alike((req, frame) in Messages) {
        let line = to_line(&req);
        prop_assert_eq!(&line, &reference::to_line(&req));
        prop_assert_eq!(parse_line::<Request>(&line), Ok(req.clone()));
        prop_assert_eq!(reference::parse_line::<Request>(&line), Ok(req));
        let line = to_line(&frame);
        prop_assert_eq!(&line, &reference::to_line(&frame));
        prop_assert_eq!(parse_line::<Frame>(&line), Ok(frame.clone()));
        prop_assert_eq!(reference::parse_line::<Frame>(&line), Ok(frame));
    }
}

/// Valid lines the mutations start from: the shapes the daemon and its
/// clients exchange, plus hand-written spellings the writer never emits
/// (whitespace, escapes, `null`s, a repeated key, an escaped key).
fn seeds() -> Vec<String> {
    let mut solve = Request::new("solve");
    solve.id = Some(123_456);
    solve.instance = Some("layered?layers=5&width=8&seed=4242 @ bsp?p=8&g=2".into());
    solve.sched = Some("pipeline/base?ilp=off&hc_iters=200".into());
    solve.budget_ms = Some(2000);
    let mut delta = Request::new("delta");
    delta.id = Some(7);
    delta.base = solve.instance.clone();
    delta.edits = Some(vec![
        DagEdit::SetWeights {
            node: 3,
            work: Some(9),
            comm: None,
        },
        DagEdit::AddNode {
            work: 4,
            comm: 2,
            preds: vec![1, 2],
            succs: vec![],
        },
    ]);
    let mut push = Request::new("stream_push");
    push.id = Some(6);
    push.session = Some("s1".into());
    push.events = Some(vec![ArrivalEvent::Arrive {
        node: 0,
        work: 3,
        comm: 1,
        deps: vec![],
    }]);
    let hit = Frame {
        kind: "result".into(),
        id: Some(123_456),
        instance: Some("layered?comm=4&layers=5 @ bsp?p=8&g=2".into()),
        sched: solve.sched.clone(),
        cost: Some(1234),
        supersteps: Some(7),
        cache_hit: Some(true),
        elapsed_us: Some(17),
        ..Frame::default()
    };
    let stream = Frame {
        kind: "stream".into(),
        id: Some(6),
        session: Some("s1".into()),
        frontier: Some(0),
        arrivals: Some(1),
        suffix_nodes: Some(vec![0, 4]),
        suffix_procs: Some(vec![1, 0]),
        suffix_steps: Some(vec![0, 2]),
        ..Frame::default()
    };
    let stats = Frame {
        kind: "stats".into(),
        stats: Some(ServerStats::default()),
        metrics: Some(vec![MetricWire {
            name: "bsp_serve_requests_total{method=\"solve\"}".into(),
            kind: "counter".into(),
            value: -3,
        }]),
        ..Frame::default()
    };
    let mut full = Frame::error(Some(u64::MAX), "queue_full", "retry \"later\"\n\\λ");
    full.retry_after_ms = Some(10);
    full.stages = Some(vec![StageReportWire {
        stage: "hc".into(),
        cost_after: 5,
        elapsed_us: 1,
        truncated: false,
    }]);
    full.event = Some(SolveEvent {
        kind: "stage_end".into(),
        scheduler: "pipeline".into(),
        stage: "hc".into(),
        cost: Some(5),
        elapsed_us: None,
        truncated: Some(true),
    });
    let mut lines = vec![
        to_line(&solve),
        to_line(&delta),
        to_line(&push),
        to_line(&hit),
        to_line(&stream),
        to_line(&stats),
        to_line(&full),
    ];
    lines.extend(
        [
            r#"{"method":"ping"}"#,
            r#" { "method" : "solve" , "id" : 3 , "stream" : true , "seed" : null } "#,
            r#"{"method":"solve","id":1,"id":"two","sched":null}"#,
            r#"{"\u006dethod":"stats","x":[1,{"y":[]}],"kind":"\ud83e\udd80"}"#,
            r#"{"kind":"pong","id":-0,"suffix_nodes":[0, 1 ,2],"warm":false}"#,
            r#"{"kind":"result","method":"x","cost":0,"message":"tab\tand\/\b\f\r\n"}"#,
        ]
        .map(String::from),
    );
    lines
}

/// Values a repeated or unknown key is given: every JSON kind, the number
/// shapes the integer fields must refuse, and some that are not JSON.
const VALUES: &[&str] = &[
    "null",
    "true",
    "\"s\"",
    "\"\\u00e9\"",
    "0",
    "-0",
    "-1",
    "1.5",
    "1e3",
    "-1e-3",
    "01",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "[]",
    "[1,2]",
    "[-1]",
    "[4294967296]",
    "{}",
    "{\"a\":1}",
    "[1,",
    "\"open",
    "tru",
    "-",
    "1.",
    ".5",
    "+1",
    "\"\\x\"",
    "\"\\ud800\"",
    "\"\\udc00\"",
    "\"\\u+12f\"",
];

/// Keys of both messages (and one of neither).
const KEYS: &[&str] = &[
    "method",
    "kind",
    "id",
    "instance",
    "sched",
    "stream",
    "edits",
    "events",
    "cost",
    "cache_hit",
    "stages",
    "event",
    "stats",
    "metrics",
    "suffix_nodes",
    "zzz",
];

/// Bytes a mutation inserts.
const INSERTS: &[u8] = b"\"\\{}[],: 0-.enx\x00\x7f\xc3";

#[test]
fn mutated_lines_are_read_alike() {
    let mut inputs: Vec<String> = Vec::new();
    for line in seeds() {
        let bytes = line.as_bytes();
        for i in 0..bytes.len() {
            let mut cut = bytes.to_vec();
            cut.remove(i);
            inputs.push(String::from_utf8_lossy(&cut).into_owned());
        }
        for i in (0..=bytes.len()).step_by(3) {
            for &b in INSERTS {
                let mut grown = bytes.to_vec();
                grown.insert(i, b);
                inputs.push(String::from_utf8_lossy(&grown).into_owned());
            }
        }
        // A repeated key, before the original (it wins and is converted)
        // and after it (checked as JSON only); unknown keys either way.
        if let Some(body) = line.trim().strip_prefix('{') {
            for key in KEYS {
                for value in VALUES {
                    inputs.push(format!("{{\"{key}\":{value},{body}"));
                    let end = line.trim().strip_suffix('}').unwrap_or(&line);
                    inputs.push(format!("{end},\"{key}\":{value}}}"));
                }
            }
        }
        for tail in ["x", " ", "}", ",", "{}", "\n", "\t\r", "null"] {
            inputs.push(format!("{line}{tail}"));
            inputs.push(format!("{tail}{line}"));
        }
        inputs.push(line);
    }
    for value in VALUES {
        inputs.push((*value).to_string());
        inputs.push(format!("{{\"method\":{value}}}"));
        inputs.push(format!("{{\"kind\":{value}}}"));
    }
    inputs.extend(["", "   ", "{", "}", "{}", "{,}", "{\"method\"}", "[{}]"].map(String::from));
    let accepted = inputs
        .iter()
        .filter(|l| parse_line::<Request>(l).is_ok() || parse_line::<Frame>(l).is_ok())
        .count();
    for line in &inputs {
        assert_same_reading(line);
    }
    // The corpus exercises both verdicts.
    assert!(
        accepted > inputs.len() / 10,
        "{accepted} of {}",
        inputs.len()
    );
    assert!(
        accepted < inputs.len() / 2,
        "{accepted} of {}",
        inputs.len()
    );
}

#[test]
fn errors_name_the_field() {
    let err = |line: &str| parse_line::<Request>(line).unwrap_err().to_string();
    assert_eq!(
        err(r#"{"method":"solve","id":"7"}"#),
        r#"field "id": expected unsigned integer, got string"#
    );
    assert_eq!(
        err(r#"{"method":"solve","id":-1}"#),
        r#"field "id": expected unsigned integer, got integer"#
    );
    assert_eq!(
        err(r#"{"method":"solve","budget_ms":2.5}"#),
        r#"field "budget_ms": expected unsigned integer, got number"#
    );
    assert_eq!(err(r#"{"id":3}"#), r#"missing field "method""#);
    assert_eq!(
        err(r#"{"method":null}"#),
        r#"field "method": expected string, got null"#
    );
    // The earliest field in declaration order is reported, wherever it
    // stands in the line, and only once the whole line has parsed.
    for line in [
        r#"{"seed":"x","id":true,"method":"solve"}"#,
        r#"{"id":true,"seed":"x","method":"solve"}"#,
    ] {
        assert_eq!(
            err(line),
            r#"field "id": expected unsigned integer, got bool"#
        );
    }
    assert_eq!(
        err(r#"{"id":"x","method":"solve",}"#),
        "expected '\"' at byte 27"
    );
    assert_eq!(err("[1,2]"), "request: expected a JSON object");
    let err = parse_line::<Frame>(r#"{"kind":"stream","suffix_nodes":[1,4294967296]}"#)
        .unwrap_err()
        .to_string();
    assert_eq!(
        err,
        r#"field "suffix_nodes": integer 4294967296 out of range for u32"#
    );
}

#[test]
fn nesting_reads_alike_up_to_the_cap_and_is_refused_past_it() {
    // `depth` counts the top-level object; the rest nests under one key.
    let nested = |head: &str, depth: usize| {
        let inner = depth - 1;
        format!(
            "{{{head},\"x\":{}{}}}",
            "[".repeat(inner),
            "]".repeat(inner)
        )
    };
    let in_edits = |depth: usize| {
        let inner = depth - 1;
        format!(
            "{{\"method\":\"delta\",\"edits\":{}{}}}",
            "[".repeat(inner),
            "]".repeat(inner)
        )
    };
    for depth in [2, 3, 64, MAX_DEPTH - 1, MAX_DEPTH] {
        assert_same_reading(&nested("\"method\":\"ping\"", depth));
        assert_same_reading(&nested("\"kind\":\"pong\"", depth));
        assert_same_reading(&in_edits(depth));
    }
    let at_cap = nested("\"method\":\"ping\"", MAX_DEPTH);
    assert_eq!(parse_line::<Request>(&at_cap).unwrap().method, "ping");

    // Past the cap both refuse the first bracket beyond it, in the same
    // words. `{"method":"ping","x":` is 21 bytes, so the k-th `[` is
    // byte 20 + k.
    let past = nested("\"method\":\"ping\"", MAX_DEPTH + 1);
    assert_same_reading(&past);
    let want = format!("nesting deeper than {MAX_DEPTH} at byte {}", 20 + MAX_DEPTH);
    assert_eq!(parse_line::<Request>(&past).unwrap_err().to_string(), want);
    let deep = nested("\"method\":\"ping\"", 10_001);
    assert_eq!(parse_line::<Request>(&deep).unwrap_err().to_string(), want);
    assert_same_reading(&deep);
    assert!(parse_line::<Request>(&in_edits(MAX_DEPTH + 1)).is_err());
    assert_same_reading(&in_edits(MAX_DEPTH + 1));
}
