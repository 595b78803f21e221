//! Live metrics exposition: a minimal Prometheus-style text endpoint
//! hand-rolled over `std::net::TcpListener`.
//!
//! `wideleak serve` runs one of these next to the DRM socket so a
//! scraper (or the CI trace-smoke job's `curl`) can watch counters
//! and latency histograms move while the server handles real frames.
//! The HTTP dialect is deliberately tiny — `GET /metrics` and
//! `GET /healthz`, `Connection: close`, no keep-alive, no TLS — to
//! stay vendor-light; the render side follows the Prometheus text
//! exposition format (`# TYPE` comments, `{quantile="..."}` labels)
//! closely enough for standard scrapers to ingest.
//!
//! The accept loop is non-blocking with a short poll interval and a
//! shared shutdown flag, mirroring the DRM socket server, so ctrl-c
//! tears both down promptly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::Registry;
use crate::Collector;

/// How often the accept loop re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long one request may take to arrive, counted from accept; a
/// stalled or trickling scraper cannot wedge the exposition thread past
/// this.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(500);

/// Rewrites a metric name into the Prometheus charset: `[a-zA-Z0-9_]`
/// with every other byte (the registry uses dotted names) mapped to
/// `_`, prefixed with `wideleak_`.
#[must_use]
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("wideleak_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders the registry's counters, gauges and histograms in the
/// Prometheus text exposition format. Histograms render as summaries:
/// `<name>_ns{quantile="..."}` rows plus `_count` and `_sum_ns`.
#[must_use]
pub fn render_prometheus(registry: &Registry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in registry.counter_values() {
        let metric = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, value) in registry.gauge_values() {
        let metric = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, h) in registry.histogram_summaries() {
        let metric = sanitize_metric_name(&name);
        let _ = writeln!(out, "# TYPE {metric}_ns summary");
        for (q, v) in [("0.5", h.p50_ns), ("0.9", h.p90_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)]
        {
            let _ = writeln!(out, "{metric}_ns{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{metric}_ns_sum {}", h.sum_ns);
        let _ = writeln!(out, "{metric}_ns_count {}", h.count);
    }
    out
}

fn metrics_body(collector: &Collector) -> String {
    use std::fmt::Write as _;
    let mut body = String::from("# TYPE wideleak_up gauge\nwideleak_up 1\n");
    let _ = writeln!(
        body,
        "# TYPE wideleak_trace_dropped_spans_total counter\nwideleak_trace_dropped_spans_total {}",
        crate::trace::dropped_spans()
    );
    body.push_str(&render_prometheus(collector.registry()));
    body
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Reads up to the end of the request head and returns the request
/// line, or `None` on malformed/oversized/timed-out input. Each read
/// waits only for what is left of [`REQUEST_TIMEOUT`].
fn read_request_line(stream: &mut TcpStream) -> Option<String> {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        // std rejects a zero timeout; a spent budget ends the read.
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 4096 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    head.lines().next().map(str::to_owned)
}

fn handle_request(mut stream: TcpStream, collector: &Collector) {
    let Some(request_line) = read_request_line(&mut stream) else {
        return;
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        write_response(&mut stream, "405 Method Not Allowed", "text/plain", "GET only\n");
        return;
    }
    match path {
        "/metrics" => write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4",
            &metrics_body(collector),
        ),
        "/healthz" => write_response(&mut stream, "200 OK", "text/plain", "ok\n"),
        _ => write_response(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// A running exposition endpoint. Dropping it (or calling
/// [`ExpositionServer::shutdown`]) stops the accept loop and joins
/// the serving thread.
pub struct ExpositionServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ExpositionServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving scrapes
    /// of `collector`'s registry on a background thread.
    pub fn bind(addr: &str, collector: &'static Collector) -> std::io::Result<ExpositionServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle =
            std::thread::Builder::new().name("wideleak-metrics".to_owned()).spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            handle_request(stream, collector);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => std::thread::sleep(POLL_INTERVAL),
                    }
                }
            })?;
        Ok(ExpositionServer { local_addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ExpositionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn sanitizer_maps_dots_to_underscores() {
        assert_eq!(sanitize_metric_name("binder.tcp.rtt"), "wideleak_binder_tcp_rtt");
        assert_eq!(sanitize_metric_name("odd-name!"), "wideleak_odd_name_");
    }

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let registry = Registry::default();
        registry.counter("server.frames").fetch_add(3, Ordering::Relaxed);
        registry.gauge("pool.depth").store(2, Ordering::Relaxed);
        registry.histogram("binder.tcp.rtt").observe(Duration::from_micros(150));
        let text = render_prometheus(&registry);
        assert!(text.contains("# TYPE wideleak_server_frames counter"));
        assert!(text.contains("wideleak_server_frames 3"));
        assert!(text.contains("wideleak_pool_depth 2"));
        assert!(text.contains("wideleak_binder_tcp_rtt_ns{quantile=\"0.5\"}"));
        assert!(text.contains("wideleak_binder_tcp_rtt_ns_count 1"));
    }

    #[test]
    fn endpoint_serves_metrics_health_and_404() {
        // A private collector: tests that clear the global registry
        // cannot race this one's counter away.
        let collector: &'static Collector = Box::leak(Box::new(Collector::new()));
        collector.incr("expose.test.hits");
        let server = ExpositionServer::bind("127.0.0.1:0", collector).unwrap();
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("wideleak_up 1"));
        assert!(metrics.contains("wideleak_expose_test_hits"));

        let health = http_get(addr, "/healthz");
        assert!(health.contains("200 OK") && health.ends_with("ok\n"));

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));

        server.shutdown();
        // The port is released: a fresh bind to the same addr works.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }

    #[test]
    fn a_trickling_scraper_is_cut_off_and_the_next_scrape_answered() {
        let collector: &'static Collector = Box::leak(Box::new(Collector::new()));
        let server = ExpositionServer::bind("127.0.0.1:0", collector).unwrap();
        let addr = server.local_addr();
        // One byte of a request every 100 ms: each read waits far less
        // than the request timeout, the whole 38-byte request far more.
        let mut trickler = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let writer = {
            let mut stream = trickler.try_clone().unwrap();
            std::thread::spawn(move || {
                for byte in b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n" {
                    std::thread::sleep(Duration::from_millis(100));
                    // The server hangs up once the request's time is up.
                    if stream.write_all(std::slice::from_ref(byte)).is_err() {
                        break;
                    }
                }
            })
        };
        // The server gives up on the request and closes the connection.
        let _ = trickler.read_to_end(&mut Vec::new());
        let held = started.elapsed();
        assert!(held < Duration::from_secs(2), "one request held the endpoint for {held:?}");
        let health = http_get(addr, "/healthz");
        assert!(health.contains("200 OK") && health.ends_with("ok\n"), "{health}");
        writer.join().unwrap();
    }
}
