//! The observability sidecar: a second, read-only TCP listener serving
//! plain HTTP/1.1 with two endpoints:
//!
//! * `GET /metrics` — the process-wide [`bsp_obs`] registry in Prometheus
//!   text exposition format (`text/plain; version=0.0.4`);
//! * `GET /trace`  — the process-wide trace ring as Chrome trace-event
//!   JSON, loadable in `chrome://tracing` or Perfetto.
//!
//! The sidecar shares nothing with the protocol port except the server's
//! stop token: it polls it every 10ms (the same idiom as the main accept
//! loop) and winds down with the rest of the daemon. Responses are
//! one-shot (`Connection: close`) — scrapers reconnect per scrape, which
//! keeps the handler stateless and immune to slow clients holding
//! threads: a read timeout of two seconds bounds every connection.

use bsp_schedule::solve::CancelToken;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection read timeout, so a slow scraper cannot hold a handler
/// thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Binds `addr` and spawns the sidecar accept loop. Returns the resolved
/// address (port `0` picks a free port) and the loop's join handle.
pub(crate) fn start(
    addr: &str,
    stop: CancelToken,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("bsp-serve-sidecar".to_string())
        .spawn(move || accept_loop(listener, stop))
        .expect("spawn sidecar accept loop");
    Ok((addr, handle))
}

fn accept_loop(listener: TcpListener, stop: CancelToken) {
    while !stop.is_cancelled() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = std::thread::Builder::new()
                    .name("bsp-serve-sidecar-conn".to_string())
                    .spawn(move || handle_conn(stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_conn(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers until the blank line; their content is irrelevant.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => {}
        }
    }
    let (status, content_type, body) = route(&request_line);
    respond(stream, status, content_type, &body);
}

/// Maps an HTTP request line to `(status line, content type, body)`.
fn route(request_line: &str) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    // Strip a query string: `/metrics?foo=1` still means `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".to_string(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            bsp_obs::global().render_prometheus(),
        ),
        "/trace" => (
            "200 OK",
            "application/json",
            bsp_obs::trace::global().export_chrome(),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            "endpoints: /metrics (Prometheus), /trace (Chrome trace JSON)\n".to_string(),
        ),
    }
}

fn respond(mut stream: TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_trace_and_404() {
        // Touch the global registry so /metrics has at least one family.
        bsp_obs::global()
            .counter("bsp_sidecar_test_total", &[])
            .inc();
        bsp_obs::trace::global()
            .span("sidecar-test", "test")
            .finish();

        let stop = CancelToken::new();
        let (addr, handle) = start("127.0.0.1:0", stop.clone()).unwrap();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("bsp_sidecar_test_total 1"));

        let trace = http_get(addr, "/trace");
        assert!(trace.starts_with("HTTP/1.1 200 OK"));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("sidecar-test"));

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        stop.cancel();
        handle.join().unwrap();
    }
}
