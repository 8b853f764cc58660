//! The live stats endpoint: one `std::net` thread serving a registry.
//!
//! [`StatsServer::serve`] binds a TCP listener, spawns a single thread
//! named `igm-stats`, and answers plain HTTP/1.1 until [`StatsServer::stop`]
//! (or drop). It is deliberately minimal — no keep-alive, no TLS, no
//! framework — because its job is a `curl` or a Prometheus scrape against
//! a monitor that is busy doing real work:
//!
//! | path                  | body                                      |
//! |-----------------------|-------------------------------------------|
//! | `/metrics`            | Prometheus text exposition                |
//! | `/stats.json`         | [`MetricsSnapshot::to_json`]              |
//! | `/events.json?since=N`| event ring from sequence `N` (default 0)  |
//! | `/spans.json?since=N` | flight-recorder span records from `N`     |
//! | `/trace`              | Chrome trace-event JSON (`chrome://tracing`) |
//! | `/`                   | plain-text index of the above             |
//!
//! The span routes answer 404 unless [`StatsServer::serve`] was handed a
//! flight recorder. Every snapshot is taken on the serving
//! thread; the hot paths feeding the registry never notice a scrape.
//! Responses carry `Content-Length`, tolerate slow (drip-reading)
//! clients up to a total write deadline, and `HEAD` is answered with
//! headers only.

#[cfg(doc)]
use crate::registry::MetricsSnapshot;

use crate::query::{Query, QueryError};
use crate::registry::MetricsRegistry;
use igm_span::FlightRecorder;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A response produced by a [`RouteHandler`].
#[derive(Debug, Clone)]
pub struct RouteResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl RouteResponse {
    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> RouteResponse {
        RouteResponse { status: 200, content_type: "application/json", body: body.into() }
    }

    /// A `400 Bad Request` with the typed JSON error body.
    pub fn bad_request(err: &QueryError) -> RouteResponse {
        RouteResponse { status: 400, content_type: "application/json", body: err.to_json() }
    }

    /// A `404 Not Found` with a plain-text body.
    pub fn not_found(msg: impl Into<String>) -> RouteResponse {
        RouteResponse { status: 404, content_type: "text/plain; charset=utf-8", body: msg.into() }
    }
}

/// A pluggable route family served alongside the built-in stats routes
/// (attach via [`StatsServer::serve`]). Handlers receive the
/// request only after the query string passed the hardened [`Query`]
/// parser — a malformed query is a `400` on every path, before any
/// handler runs.
pub trait RouteHandler: Send + Sync {
    /// Handles `path`, or returns `None` when the path is not this
    /// handler's (the server then tries the next handler, and finally
    /// answers 404).
    fn handle(&self, path: &str, query: &Query) -> Option<RouteResponse>;

    /// Lines advertising this handler's routes on the `/` index (e.g.
    /// `"/lake/query?tenant=T  bitmap-index record query"`).
    fn index_lines(&self) -> Vec<String> {
        Vec::new()
    }
}

/// How long the serving thread dozes between accept polls.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-IO-operation read/write deadline — a stuck scraper must not wedge
/// the (single) serving thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Total budget for writing one response: a drip-reading client may take
/// many short writes, each under [`IO_TIMEOUT`], but the connection as a
/// whole is cut off here.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// Largest request head we bother reading.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A running stats endpoint. Stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl StatsServer {
    /// Binds `addr` (`"127.0.0.1:0"` picks a free port — read it back
    /// with [`StatsServer::local_addr`]) and starts serving `registry`.
    /// A span [`FlightRecorder`] in `spans` enables the
    /// `/spans.json?since=N` and `/trace` (Chrome trace-event JSON)
    /// routes. Paths not claimed by a built-in route are offered to each
    /// of `routes` in order; the first `Some` wins.
    pub fn serve(
        addr: impl ToSocketAddrs,
        registry: Arc<MetricsRegistry>,
        spans: Option<Arc<FlightRecorder>>,
        routes: Vec<Arc<dyn RouteHandler>>,
    ) -> io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("igm-stats".into())
            .spawn(move || serve_loop(listener, registry, spans, routes, stop2))?;
        Ok(StatsServer { addr, stop, thread: Some(thread) })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops serving and joins the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
    spans: Option<Arc<FlightRecorder>>,
    routes: Vec<Arc<dyn RouteHandler>>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Serve inline: one thread, one connection at a time —
                // a scrape endpoint, not a web server.
                let _ = handle_connection(stream, &registry, spans.as_deref(), &routes);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Routes one parsed request. The query string has already passed the
/// hardened parser; this only decides which body to build.
fn route_request(
    path: &str,
    q: &Query,
    registry: &MetricsRegistry,
    spans: Option<&FlightRecorder>,
    routes: &[Arc<dyn RouteHandler>],
) -> RouteResponse {
    // Built-in routes declare their accepted parameters; anything else
    // (including a well-formed but unknown key) is a typed 400.
    let strict = |allowed: &[&str]| q.expect_only(allowed).err();
    let out = match path {
        "/metrics" => match strict(&[]) {
            Some(e) => RouteResponse::bad_request(&e),
            None => RouteResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: registry.snapshot().to_prometheus(),
            },
        },
        "/stats.json" => match strict(&[]) {
            Some(e) => RouteResponse::bad_request(&e),
            None => RouteResponse::json(registry.snapshot().to_json()),
        },
        "/events.json" => match strict(&["since"]).map(Err).unwrap_or_else(|| q.get_u64("since")) {
            Err(e) => RouteResponse::bad_request(&e),
            Ok(since) => RouteResponse::json(registry.events().since(since.unwrap_or(0)).to_json()),
        },
        "/spans.json" => match strict(&["since"]).map(Err).unwrap_or_else(|| q.get_u64("since")) {
            Err(e) => RouteResponse::bad_request(&e),
            Ok(since) => match spans {
                Some(rec) => RouteResponse::json(rec.since(since.unwrap_or(0)).to_json()),
                None => RouteResponse::not_found("no flight recorder attached\n"),
            },
        },
        "/trace" => match (strict(&[]), spans) {
            (Some(e), _) => RouteResponse::bad_request(&e),
            (None, Some(rec)) => RouteResponse::json(igm_span::chrome_trace(&rec.snapshot())),
            (None, None) => RouteResponse::not_found("no flight recorder attached\n"),
        },
        "/" => match strict(&[]) {
            Some(e) => RouteResponse::bad_request(&e),
            None => {
                let mut body = String::from(
                    "igm stats endpoint\n\n/metrics            Prometheus text exposition\n/stats.json         metrics snapshot as JSON\n/events.json?since=N  lifecycle event ring\n/spans.json?since=N   frame span records (flight recorder)\n/trace              Chrome trace-event JSON (chrome://tracing)\n",
                );
                for h in routes {
                    for line in h.index_lines() {
                        body.push_str(&line);
                        body.push('\n');
                    }
                }
                RouteResponse { status: 200, content_type: "text/plain; charset=utf-8", body }
            }
        },
        _ => {
            return routes
                .iter()
                .find_map(|h| h.handle(path, q))
                .unwrap_or_else(|| RouteResponse::not_found("not found\n"))
        }
    };
    out
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    spans: Option<&FlightRecorder>,
    routes: &[Arc<dyn RouteHandler>],
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let (method, target) = match read_request_line(&mut stream)? {
        Some(parts) => parts,
        None => {
            return respond(&mut stream, false, 400, "text/plain; charset=utf-8", "bad request\n")
        }
    };
    // HEAD mirrors GET (same status, same Content-Length), body elided.
    let head_only = method == "HEAD";
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    // The query string is validated before any route logic runs: a
    // malformed query is the same typed 400 body on every path.
    let resp = match Query::parse(query) {
        Ok(q) => route_request(path, &q, registry, spans, routes),
        Err(e) => RouteResponse::bad_request(&e),
    };
    respond(&mut stream, head_only, resp.status, resp.content_type, &resp.body)
}

/// Reads the request head and returns `(method, target)` (e.g. `("GET",
/// "/events.json?since=3")`), or `None` for an unparsable request.
fn read_request_line(stream: &mut TcpStream) -> io::Result<Option<(String, String)>> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() >= MAX_REQUEST_BYTES {
            return Ok(None);
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        head.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = match head.lines().next() {
        Some(l) => l,
        None => return Ok(None),
    };
    // "GET /path HTTP/1.1" — the HTTP version is not worth policing.
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(target)) => Ok(Some((method.to_owned(), target.to_owned()))),
        _ => Ok(None),
    }
}

/// Writes all of `bytes`, looping over short writes and transient errors
/// until `deadline`. A drip-reading client stalls each `write` for at
/// most [`IO_TIMEOUT`]; progress resets nothing — the total budget caps
/// how long one slow scraper can hold the serving thread.
fn write_fully(stream: &mut TcpStream, bytes: &[u8], deadline: Instant) -> io::Result<()> {
    let mut sent = 0;
    while sent < bytes.len() {
        if Instant::now() >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "response write deadline"));
        }
        match stream.write(&bytes[sent..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // The socket buffer is full behind a slow reader; yield
                // briefly and retry until the overall deadline.
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn respond(
    stream: &mut TcpStream,
    head_only: bool,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let deadline = Instant::now() + WRITE_DEADLINE;
    write_fully(stream, head.as_bytes(), deadline)?;
    if !head_only {
        write_fully(stream, body.as_bytes(), deadline)?;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn request(addr: SocketAddr, method: &str, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(addr, "GET", path)
    }

    #[test]
    fn serves_metrics_json_events_and_404() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("igm_test_total", "test counter").add(7);
        registry.histogram("igm_test_nanos", "test latency").record(900);
        registry
            .events()
            .record(EventKind::LaneFailure { lane: "t0".into(), error: "boom".into() });

        let mut server =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, Vec::new()).unwrap();
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"));
        assert!(metrics.contains("igm_test_total 7"));
        assert!(metrics.contains("igm_test_nanos_bucket"));

        let json = get(addr, "/stats.json");
        assert!(json.contains("\"igm_test_total\""));

        let events = get(addr, "/events.json?since=0");
        assert!(events.contains("\"lane_failure\""));
        assert!(events.contains("\"boom\""));
        assert!(get(addr, "/events.json?since=99").contains("\"events\": []"));

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/").contains("igm stats endpoint"));

        // Self-describing scrape: build info + uptime ride every format.
        assert!(metrics.contains("igm_build_info{version=\""));
        assert!(metrics.contains("igm_uptime_seconds "));
        assert!(json.contains("\"uptime_seconds\""));
        assert!(json.contains("\"build\""));

        server.stop();
        // Stopped: new connections must fail (give the OS a beat).
        thread::sleep(Duration::from_millis(50));
        assert!(
            TcpStream::connect(addr).is_err() || {
                // Some platforms accept into the dead listener's backlog;
                // a read then yields nothing.
                let mut s = TcpStream::connect(addr).unwrap();
                write!(s, "GET / HTTP/1.1\r\n\r\n").unwrap();
                let mut buf = String::new();
                s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
                s.read_to_string(&mut buf).unwrap_or(0) == 0
            }
        );
    }

    #[test]
    fn head_requests_get_headers_only() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("igm_head_total", "test counter").add(3);
        let mut server =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, Vec::new()).unwrap();
        let addr = server.local_addr();

        let head = request(addr, "HEAD", "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("HEAD carries Content-Length")
            .parse()
            .unwrap();
        assert!(content_length > 0);
        let body_at = head.find("\r\n\r\n").unwrap() + 4;
        assert_eq!(&head[body_at..], "", "HEAD must not carry a body");

        // The advertised length matches what GET actually sends.
        let get_resp = get(addr, "/metrics");
        let get_body = &get_resp[get_resp.find("\r\n\r\n").unwrap() + 4..];
        assert_eq!(get_body.len(), content_length);

        // HEAD mirrors GET's status on a miss, too.
        assert!(request(addr, "HEAD", "/nope").starts_with("HTTP/1.1 404"));
        server.stop();
    }

    #[test]
    fn drip_reading_client_receives_the_full_response() {
        let registry = Arc::new(MetricsRegistry::new());
        // A response big enough to overflow loopback socket buffers, so
        // the server's write loop actually sees short/blocked writes.
        let filler = "x".repeat(2048);
        for i in 0..1024 {
            registry
                .events()
                .record(EventKind::LaneFailure { lane: format!("lane{i}"), error: filler.clone() });
        }
        let mut server =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, Vec::new()).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /events.json HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        // Drip: small reads with pauses, far slower than one write_all.
        let mut response = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("drip read failed: {e}"),
            };
            response.extend_from_slice(&chunk[..n]);
            thread::sleep(Duration::from_millis(1));
        }
        let response = String::from_utf8(response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"));
        let content_length: usize = response
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length present")
            .parse()
            .unwrap();
        let body = &response[response.find("\r\n\r\n").unwrap() + 4..];
        assert!(content_length > 2 * 1024 * 1024, "test body must be big: {content_length}");
        assert_eq!(body.len(), content_length, "drip client must receive every byte");
        assert!(body.ends_with("]}"), "body must be complete JSON");
        server.stop();
    }

    #[test]
    fn malformed_queries_are_typed_400s_on_every_route() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut server =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, Vec::new()).unwrap();
        let addr = server.local_addr();

        let assert_400 = |path: &str, kind: &str| {
            let resp = get(addr, path);
            assert!(resp.starts_with("HTTP/1.1 400"), "{path} must 400, got: {resp}");
            assert!(resp.contains("Content-Type: application/json"), "{path}: {resp}");
            assert!(
                resp.contains(&format!("\"kind\": \"{kind}\"")),
                "{path} must report {kind}: {resp}"
            );
        };

        // Malformed queries reject identically on every path — built-in,
        // recorder-gated, index, and unknown alike.
        for path in
            ["/metrics", "/stats.json", "/events.json", "/spans.json", "/trace", "/", "/nope"]
        {
            assert_400(&format!("{path}?x=%zz"), "bad_escape");
            assert_400(&format!("{path}?a=1&a=2"), "duplicate_param");
        }

        // Well-formed but wrong for the route.
        assert_400("/events.json?since=12x", "bad_number");
        assert_400("/spans.json?since=-1", "bad_number");
        assert_400("/events.json?sinse=3", "unknown_param");
        assert_400("/metrics?since=1", "unknown_param");
        assert_400("/stats.json?pretty=1", "unknown_param");
        assert_400("/trace?since=1", "unknown_param");
        let long = format!("/events.json?x={}", "y".repeat(4096));
        assert_400(&long, "overlong_query");

        // HEAD mirrors the 400 status.
        assert!(request(addr, "HEAD", "/events.json?since=bad").starts_with("HTTP/1.1 400"));

        // Valid queries still work after all that.
        assert!(get(addr, "/events.json?since=0").starts_with("HTTP/1.1 200"));
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200"));
        server.stop();
    }

    #[test]
    fn route_handlers_extend_the_server() {
        struct Echo;
        impl RouteHandler for Echo {
            fn handle(&self, path: &str, query: &Query) -> Option<RouteResponse> {
                if path != "/echo.json" {
                    return None;
                }
                match query.expect_only(&["msg"]) {
                    Err(e) => Some(RouteResponse::bad_request(&e)),
                    Ok(()) => Some(RouteResponse::json(format!(
                        "{{\"msg\": \"{}\"}}",
                        query.get("msg").unwrap_or("")
                    ))),
                }
            }
            fn index_lines(&self) -> Vec<String> {
                vec!["/echo.json?msg=S    echoes msg".into()]
            }
        }

        let registry = Arc::new(MetricsRegistry::new());
        let mut server =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, vec![Arc::new(Echo)])
                .unwrap();
        let addr = server.local_addr();

        let ok = get(addr, "/echo.json?msg=hi+there");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(ok.contains("\"msg\": \"hi there\""));

        // The hardened parser runs before the handler.
        assert!(get(addr, "/echo.json?msg=%zz").starts_with("HTTP/1.1 400"));
        assert!(get(addr, "/echo.json?other=1").contains("\"unknown_param\""));

        // Built-ins still win their paths; unknowns still 404.
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        // The index advertises the plugged-in route.
        assert!(get(addr, "/").contains("/echo.json?msg=S"));
        server.stop();
    }

    #[test]
    fn span_routes_serve_the_flight_recorder_or_404() {
        use igm_span::{FrameTag, SpanConfig, Stage, Track};

        let registry = Arc::new(MetricsRegistry::new());
        // Without a recorder, the span routes are explicit 404s.
        let mut bare =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), None, Vec::new()).unwrap();
        assert!(get(bare.local_addr(), "/spans.json").starts_with("HTTP/1.1 404"));
        assert!(get(bare.local_addr(), "/trace").starts_with("HTTP/1.1 404"));
        bare.stop();

        let recorder = Arc::new(FlightRecorder::new(SpanConfig {
            rings: 2,
            slots_per_ring: 16,
            sample_every: 1,
        }));
        let tag = FrameTag { flow: 3, seq: 0 };
        recorder.record(0, Stage::ChannelWait, Track::Worker(1), tag, 100, 250);
        recorder.record(0, Stage::Dispatch, Track::Worker(1), tag, 250, 900);
        let mut server =
            StatsServer::serve("127.0.0.1:0", Arc::clone(&registry), Some(recorder), Vec::new())
                .unwrap();
        let addr = server.local_addr();

        let spans = get(addr, "/spans.json?since=0");
        assert!(spans.starts_with("HTTP/1.1 200"));
        assert!(spans.contains("\"stage\": \"dispatch\""));
        assert!(spans.contains("\"next_seq\": 2"));
        // Cursor paging mirrors /events.json.
        assert!(get(addr, "/spans.json?since=2").contains("\"spans\": []"));

        let trace = get(addr, "/trace");
        assert!(trace.starts_with("HTTP/1.1 200"));
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"name\": \"worker 1\""));

        // The index advertises the span routes.
        assert!(get(addr, "/").contains("/spans.json"));
        server.stop();
    }
}
