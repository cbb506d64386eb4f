//! A small blocking client for the JSONL protocol — used by the test
//! suite, the `chaos` command and the repo benchmark's serve workloads.

use crate::protocol::{
    codes, parse_line, to_line, Frame, MetricWire, Request, ServerStats, MAX_LINE,
};
use crate::protocol::{read_line_capped, LineRead};
use bsp_instance::trace::ArrivalEvent;
use bsp_instance::DagEdit;
use bsp_schedule::events::SolveEvent;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default per-operation timeout of a fresh [`Client`]: generous next to
/// the server's default 2s solve budget, but no call can hang forever.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, EOF mid-response).
    Io(String),
    /// The server sent something the client cannot parse.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// One of [`codes`].
        code: String,
        /// Human-readable detail.
        message: String,
        /// Server backoff hint (`queue_full` frames).
        retry_after_ms: Option<u64>,
    },
}

/// Capped exponential backoff with deterministic jitter, used by the
/// `*_with_retry` client calls. Attempt `n` waits roughly
/// `base_ms · 2ⁿ` (capped at `cap_ms`), jittered into the upper half of
/// that window by a pure function of `(seed, n)` — two clients with
/// different seeds de-synchronize, the same seed replays identically. A
/// server `retry_after_ms` hint overrides the computed delay.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = no retries).
    pub max_retries: u32,
    /// Backoff of the first retry, milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single backoff, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; vary it per client, pin it for reproducible runs.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_ms: 25,
            cap_ms: 2_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based). `server_hint_ms`
    /// (from a `queue_full` frame) takes precedence, capped at `cap_ms`.
    pub fn delay(&self, attempt: u32, server_hint_ms: Option<u64>) -> Duration {
        if let Some(ms) = server_hint_ms {
            return Duration::from_millis(ms.min(self.cap_ms));
        }
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms.max(1));
        // splitmix64 finalizer: deterministic jitter into [exp/2, exp].
        let mut z = self
            .seed
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let half = exp / 2;
        Duration::from_millis(half + z % (exp - half + 1))
    }
}

/// Process-global count of client-side retries (all causes).
fn retries_metric() -> &'static bsp_obs::Counter {
    static METRIC: std::sync::OnceLock<bsp_obs::Counter> = std::sync::OnceLock::new();
    METRIC.get_or_init(|| bsp_obs::global().counter("bsp_retries_total", &[]))
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

/// A solve result plus the progress events streamed before it.
#[derive(Debug)]
pub struct Response {
    /// The final `kind: "result"` frame.
    pub result: Frame,
    /// Progress events, in arrival order (empty unless streaming).
    pub events: Vec<SolveEvent>,
}

/// Parameters of a `solve` call.
#[derive(Debug, Clone, Default)]
pub struct SolveParams {
    /// Full instance spec (`"spmv?n=500 @ bsp?p=4"`). Required.
    pub instance: String,
    /// Scheduler spec; `None` = server default.
    pub sched: Option<String>,
    /// Wall-clock budget in ms; `None` = server default.
    pub budget_ms: Option<u64>,
    /// Instance-generation seed; `None` = registry default.
    pub seed: Option<u64>,
    /// Ask for streamed progress events.
    pub stream: bool,
}

/// Parameters of a `delta` call.
#[derive(Debug, Clone, Default)]
pub struct DeltaParams {
    /// Name of the cached base instance. Required.
    pub base: String,
    /// The edits to apply. Required, non-empty.
    pub edits: Vec<DagEdit>,
    /// Scheduler spec; `None` = server default.
    pub sched: Option<String>,
    /// Wall-clock budget in ms; `None` = server default.
    pub budget_ms: Option<u64>,
    /// Optional alias for the edited instance.
    pub label: Option<String>,
    /// Ask for streamed progress events.
    pub stream: bool,
}

/// A blocking protocol client over one TCP connection, with a default
/// per-operation timeout ([`DEFAULT_OP_TIMEOUT`]) so no call can hang on
/// a wedged server, and `*_with_retry` variants that survive
/// `queue_full`, dropped connections and read timeouts.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of the response line being read, reused across lines.
    line: Vec<u8>,
    next_id: u64,
    /// The peer we connected to — reconnect target for the retry paths.
    peer: Option<SocketAddr>,
    op_timeout: Option<Duration>,
}

impl Client {
    fn open_stream(addr: &SocketAddr, timeout: Option<Duration>) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(stream)
    }

    /// Connects to a running server with the default operation timeout.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(DEFAULT_OP_TIMEOUT))
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let peer = stream.peer_addr().ok();
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?,
        );
        Ok(Client {
            reader,
            writer: stream,
            line: Vec::new(),
            next_id: 1,
            peer,
            op_timeout: Some(DEFAULT_OP_TIMEOUT),
        })
    }

    /// Sets (or clears, with `None`) the per-operation timeout, replacing
    /// the [`DEFAULT_OP_TIMEOUT`] every fresh client starts with.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.op_timeout = timeout;
        self.writer
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Sets (or clears) the socket read timeout for the *current*
    /// connection only (a reconnect re-applies the operation timeout set
    /// via [`Client::set_op_timeout`]).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Drops the wedged connection and dials the original peer again.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let peer = self
            .peer
            .ok_or_else(|| ClientError::Io("no peer address to reconnect to".into()))?;
        let stream = Client::open_stream(&peer, self.op_timeout)?;
        self.reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Io(e.to_string()))?,
        );
        self.writer = stream;
        Ok(())
    }

    /// Whether an error is worth retrying: socket-level failures (the
    /// connection is re-dialed first) and `queue_full` backpressure.
    fn retriable(err: &ClientError) -> bool {
        match err {
            ClientError::Io(_) => true,
            ClientError::Server { code, .. } => code == codes::QUEUE_FULL,
            ClientError::Protocol(_) => false,
        }
    }

    /// Sends `req` with retries under `policy`: capped exponential
    /// backoff with deterministic jitter, honoring the server's
    /// `retry_after_ms` hint on `queue_full`, re-dialing the peer after
    /// socket errors. The request is stamped with an idempotent `rkey`
    /// (unless the caller set one), so a retry racing its not-actually-
    /// dead predecessor attaches to the in-flight job server-side
    /// instead of solving twice. Every retry counts `bsp_retries_total`.
    pub fn request_with_retry(
        &mut self,
        mut req: Request,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        if req.rkey.is_none() {
            req.rkey = Some(format!(
                "rk-{:016x}-{}",
                policy.seed ^ crate::cache::fnv64(to_line(&req).as_bytes()),
                self.next_id
            ));
        }
        let mut attempt = 0u32;
        loop {
            match self.request(req.clone()) {
                Ok(resp) => return Ok(resp),
                Err(err) => {
                    if attempt >= policy.max_retries || !Client::retriable(&err) {
                        return Err(err);
                    }
                    retries_metric().inc();
                    let hint = match &err {
                        ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
                        _ => None,
                    };
                    std::thread::sleep(policy.delay(attempt, hint));
                    if matches!(err, ClientError::Io(_)) {
                        // Reconnect failures burn attempts too: keep
                        // backing off until the server is reachable or
                        // the budget runs out.
                        while self.reconnect().is_err() {
                            attempt += 1;
                            if attempt > policy.max_retries {
                                return Err(ClientError::Io(format!(
                                    "reconnect to {:?} kept failing",
                                    self.peer
                                )));
                            }
                            retries_metric().inc();
                            std::thread::sleep(policy.delay(attempt, None));
                        }
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// [`Client::solve`] with retries under `policy`.
    pub fn solve_with_retry(
        &mut self,
        params: &SolveParams,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        self.request_with_retry(solve_request(params), policy)
    }

    /// Sends `req` (with a fresh correlation id) and collects frames
    /// until the matching terminal frame arrives. Event frames for the id
    /// are accumulated; frames for *other* ids are dropped (this blocking
    /// client never has two requests in flight).
    pub fn request(&mut self, mut req: Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        req.id = Some(id);
        let line = to_line(&req);
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| ClientError::Io(e.to_string()))?;

        let mut events = Vec::new();
        loop {
            let line = match read_line_capped(&mut self.reader, MAX_LINE, &mut self.line)
                .map_err(|e| ClientError::Io(e.to_string()))?
            {
                LineRead::Line(l) => l,
                LineRead::Eof => {
                    return Err(ClientError::Io("connection closed mid-response".into()))
                }
                LineRead::Oversize => {
                    return Err(ClientError::Protocol("oversize response line".into()))
                }
            };
            let frame: Frame =
                parse_line(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
            // Typed errors without an id (bad_json, oversize_line) also
            // terminate this request: nothing else is coming for it.
            if frame.id != Some(id) && frame.id.is_some() {
                continue;
            }
            match frame.kind.as_str() {
                "event" => {
                    if let Some(ev) = frame.event {
                        events.push(ev);
                    }
                }
                "error" => {
                    return Err(ClientError::Server {
                        code: frame.error.unwrap_or_else(|| "unknown".to_string()),
                        message: frame.message.unwrap_or_default(),
                        retry_after_ms: frame.retry_after_ms,
                    })
                }
                _ => {
                    return Ok(Response {
                        result: frame,
                        events,
                    })
                }
            }
        }
    }

    /// Round-trips a `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let resp = self.request(Request::new("ping"))?;
        if resp.result.kind == "pong" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "expected pong, got {:?}",
                resp.result.kind
            )))
        }
    }

    /// Fetches server counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let resp = self.request(Request::new("stats"))?;
        resp.result
            .stats
            .ok_or_else(|| ClientError::Protocol("stats frame without stats".into()))
    }

    /// Requests server statistics together with the flat metrics
    /// snapshot (process-wide counters and gauges) the stats frame
    /// carries — programmatic access to the same numbers the sidecar's
    /// `/metrics` endpoint exposes.
    pub fn stats_with_metrics(&mut self) -> Result<(ServerStats, Vec<MetricWire>), ClientError> {
        let resp = self.request(Request::new("stats"))?;
        let stats = resp
            .result
            .stats
            .ok_or_else(|| ClientError::Protocol("stats frame without stats".into()))?;
        Ok((stats, resp.result.metrics.unwrap_or_default()))
    }

    /// Requests a graceful server shutdown.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let resp = self.request(Request::new("shutdown"))?;
        if resp.result.kind == "bye" {
            Ok(())
        } else {
            Err(ClientError::Protocol(format!(
                "expected bye, got {:?}",
                resp.result.kind
            )))
        }
    }

    /// Solves an instance spec (possibly served from the cache).
    pub fn solve(&mut self, params: &SolveParams) -> Result<Response, ClientError> {
        self.request(solve_request(params))
    }

    /// Re-solves an edited instance, warm-starting when the server has
    /// the base schedule cached.
    pub fn delta(&mut self, params: &DeltaParams) -> Result<Response, ClientError> {
        self.request(delta_request(params))
    }

    /// Opens a stream session: `machine_spec` names the target machine
    /// (`"bsp?p=4&g=1&l=5"`), `budget_ms` the per-arrival re-planning
    /// budget (`None` = server default).
    pub fn stream_open(
        &mut self,
        session: &str,
        machine_spec: &str,
        budget_ms: Option<u64>,
    ) -> Result<Frame, ClientError> {
        let mut req = Request::new("stream_open");
        req.session = Some(session.to_string());
        req.instance = Some(machine_spec.to_string());
        req.budget_ms = budget_ms;
        Ok(self.request(req)?.result)
    }

    /// Pushes an arrival-event batch into an open session; the returned
    /// frame carries the updated tentative suffix.
    pub fn stream_push(
        &mut self,
        session: &str,
        events: &[ArrivalEvent],
    ) -> Result<Frame, ClientError> {
        let mut req = Request::new("stream_push");
        req.session = Some(session.to_string());
        req.events = Some(events.to_vec());
        Ok(self.request(req)?.result)
    }

    /// Finalizes and closes a session; the returned `result` frame
    /// carries the total cost and the full final assignment.
    pub fn stream_close(&mut self, session: &str) -> Result<Frame, ClientError> {
        let mut req = Request::new("stream_close");
        req.session = Some(session.to_string());
        Ok(self.request(req)?.result)
    }

    /// Sends a raw line (not necessarily valid JSON) and reads one frame
    /// back — the test hook for protocol-error paths.
    pub fn raw_roundtrip(&mut self, line: &str) -> Result<Frame, ClientError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        match read_line_capped(&mut self.reader, MAX_LINE, &mut self.line)
            .map_err(|e| ClientError::Io(e.to_string()))?
        {
            LineRead::Line(l) => parse_line(&l).map_err(|e| ClientError::Protocol(e.to_string())),
            LineRead::Eof => Err(ClientError::Io("connection closed".into())),
            LineRead::Oversize => Err(ClientError::Protocol("oversize response".into())),
        }
    }
}

/// Builds the wire request of a `solve` call.
fn solve_request(params: &SolveParams) -> Request {
    let mut req = Request::new("solve");
    req.instance = Some(params.instance.clone());
    req.sched = params.sched.clone();
    req.budget_ms = params.budget_ms;
    req.seed = params.seed;
    req.stream = if params.stream { Some(true) } else { None };
    req
}

/// Builds the wire request of a `delta` call.
fn delta_request(params: &DeltaParams) -> Request {
    let mut req = Request::new("delta");
    req.base = Some(params.base.clone());
    req.edits = Some(params.edits.clone());
    req.sched = params.sched.clone();
    req.budget_ms = params.budget_ms;
    req.label = params.label.clone();
    req.stream = if params.stream { Some(true) } else { None };
    req
}

/// Convenience for error-path assertions in tests.
impl ClientError {
    /// The typed server error code, if this is a server error.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }

    /// Whether this is the given typed server error.
    pub fn is_code(&self, code: &str) -> bool {
        self.code() == Some(code)
    }
}
