//! Minimal HTTP/1.1 layer: request reading with timeouts, routing, and
//! JSON rendering. Everything is std-only; malformed traffic maps to a
//! 4xx with a one-line JSON error — never a panic, never a wedged
//! connection.

use crate::{parse_predicate, Engine, PlanSource, ServeError};
use disq_core::online::QueryResult;
use disq_trace::json::{self, Json};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Maximum request head (request line + headers) the server reads.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum request body the server reads.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// The served routes. Any other path is a 404, and its metrics count
/// under `route="other"`.
pub const ROUTES: [&str; 4] = ["/query", "/healthz", "/stats", "/metrics"];

/// Content type of every JSON endpoint.
pub const CT_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition (`/metrics`).
pub const CT_PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased as received.
    pub method: String,
    /// Request path (query strings are not split off).
    pub path: String,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
    /// True when the client asked to close after this response.
    pub close: bool,
}

/// Outcome of trying to read one request off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean EOF before any byte: the client hung up between requests.
    Closed,
    /// No bytes arrived within the read timeout on an idle connection —
    /// close quietly (keep-alive expiry, not a client error).
    IdleTimeout,
    /// The client stalled mid-request (slow client): answer 408.
    Timeout,
    /// The head or body exceeded the caps: answer 413.
    TooLarge,
    /// Unparseable or truncated request: answer 400 with the reason.
    Malformed(String),
}

/// Parsed head: `(method, path, content_length, close)`.
fn parse_head(head: &str) -> Result<(String, String, usize, bool), String> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("missing request path")?.to_string();
    let version = parts.next().ok_or("missing HTTP version")?;
    if !version.starts_with("HTTP/") {
        return Err(format!("bad HTTP version '{version}'"));
    }
    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line '{line}'"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| format!("bad Content-Length '{value}'"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok((method, path, content_length, close))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one request. The stream's read timeout must already be set;
/// a stall mid-request maps to [`ReadOutcome::Timeout`].
pub fn read_request(stream: &mut TcpStream) -> ReadOutcome {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    // Head: read until the blank line.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return ReadOutcome::TooLarge;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("connection closed mid-request".into())
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                return if buf.is_empty() {
                    ReadOutcome::IdleTimeout
                } else {
                    ReadOutcome::Timeout
                };
            }
            Err(_) => return ReadOutcome::Closed,
        }
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return ReadOutcome::Malformed("request head is not UTF-8".into()),
    };
    let (method, path, content_length, close) = match parse_head(head) {
        Ok(parsed) => parsed,
        Err(e) => return ReadOutcome::Malformed(e),
    };
    if content_length > MAX_BODY_BYTES {
        return ReadOutcome::TooLarge;
    }
    // Body: whatever followed the head plus further reads.
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return ReadOutcome::Malformed("connection closed mid-body".into()),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return ReadOutcome::Timeout,
            Err(_) => return ReadOutcome::Closed,
        }
    }
    body.truncate(content_length);
    ReadOutcome::Request(Request {
        method,
        path,
        body,
        close,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response, ready to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (a single JSON line on every endpoint but
    /// `/metrics`).
    pub body: String,
    /// Close the connection after writing.
    pub close: bool,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A 200 JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            body,
            close: false,
            content_type: CT_JSON,
        }
    }

    /// A JSON error response for `status`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        json::write_str(&mut body, message);
        body.push('}');
        Response {
            status,
            body,
            close: false,
            content_type: CT_JSON,
        }
    }
}

/// What the router learned about a request beyond its response — the
/// pieces the access log wants (target attribute, plan source).
#[derive(Debug, Clone, Default)]
pub struct RequestMeta {
    /// Attribute named by a `/query` body that parsed far enough to
    /// have one (recorded even when the attribute turns out unknown).
    pub attribute: Option<String>,
    /// Where the plan came from, on a successful `/query`.
    pub plan: Option<PlanSource>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes `resp` as an HTTP/1.1 response.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let mut out = String::with_capacity(resp.body.len() + 128);
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if resp.close { "close" } else { "keep-alive" }
    );
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes())
}

/// Renders a query result; values use the bit-exact float writer, so a
/// client parsing them back gets the daemon's exact estimates.
fn render_result(attribute: &str, result: &QueryResult, source: PlanSource) -> String {
    let mut s = String::with_capacity(64 + result.rows.len() * 24);
    s.push_str("{\"attribute\":");
    json::write_str(&mut s, attribute);
    let _ = write!(
        s,
        ",\"scanned\":{},\"matched\":{},\"plan\":\"{}\",\"rows\":[",
        result.scanned,
        result.rows.len(),
        source.name()
    );
    for (i, row) in result.rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"object\":{},\"value\":", row.object.0);
        json::write_f64(&mut s, row.values[0]);
        s.push('}');
    }
    s.push_str("]}");
    s
}

fn stats_body(engine: &Engine) -> String {
    let snap = engine.snapshot();
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"queries\":{},\"plan_cache\":{{\"hits\":{},\"misses\":{},\"disk_loads\":{},\"hit_rate\":",
        snap.queries, snap.plan_hits, snap.plan_misses, snap.plan_disk_loads
    );
    json::write_f64(&mut s, snap.hit_rate());
    let _ = write!(
        s,
        "}},\"batcher\":{{\"requested_questions\":{},\"asked_questions\":{},\"coalesced_batches\":{},\"saved_questions\":{}}},\"questions_per_query\":",
        snap.requested_questions, snap.asked_questions, snap.coalesced_batches, snap.saved_questions
    );
    json::write_f64(&mut s, snap.questions_per_query());
    s.push('}');
    s
}

fn handle_query(
    engine: &Engine,
    req: &Request,
    meta: &mut RequestMeta,
) -> Result<Response, ServeError> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    if text.trim().is_empty() {
        return Err(ServeError::BadRequest(
            "empty body: expected a JSON query".into(),
        ));
    }
    let parsed =
        json::parse(text).map_err(|e| ServeError::BadRequest(format!("invalid JSON: {e}")))?;
    let attribute = parsed
        .get("attribute")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field 'attribute'".into()))?
        .to_string();
    meta.attribute = Some(attribute.clone());
    let predicate = match parsed.get("predicate") {
        None | Some(Json::Null) => None,
        Some(p) => {
            let text = p
                .as_str()
                .ok_or_else(|| ServeError::BadRequest("'predicate' must be a string".into()))?;
            Some(parse_predicate(text)?)
        }
    };
    let objects = match parsed.get("objects") {
        None | Some(Json::Null) => None,
        Some(o) => Some(o.as_u64().ok_or_else(|| {
            ServeError::BadRequest("'objects' must be a non-negative integer".into())
        })? as usize),
    };
    let (result, source) = engine.run_query(&attribute, predicate, objects)?;
    meta.plan = Some(source);
    Ok(Response::json(render_result(&attribute, &result, source)))
}

/// The `/metrics` body: counter/timer exposition, the process-wide
/// gauge families (drift levels, worker quality) and this engine's own
/// serving gauges (SLO compliance, burn rate, latency histograms, plan
/// cache) in one scrape.
fn metrics_body(engine: &Engine) -> String {
    let mut body = disq_trace::prometheus_text(&disq_trace::summary());
    body.push_str(&disq_trace::gauge::render());
    body.push_str(&engine.render_gauges());
    body
}

/// Routes one request. Known paths with the wrong method get 405;
/// unknown paths 404. Returns the response plus what the access log
/// wants to know about the request.
pub fn handle(engine: &Engine, req: &Request) -> (Response, RequestMeta) {
    let mut meta = RequestMeta::default();
    let mut resp = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => handle_query(engine, req, &mut meta)
            .unwrap_or_else(|e| Response::error(e.status(), &e.message())),
        ("GET", "/healthz") => Response::json("{\"ok\":true}".into()),
        ("GET", "/stats") => Response::json(stats_body(engine)),
        ("GET", "/metrics") => Response {
            status: 200,
            body: metrics_body(engine),
            close: false,
            content_type: CT_PROMETHEUS,
        },
        (_, path) if ROUTES.contains(&path) => {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
        (_, path) => Response::error(404, &format!("no such endpoint '{path}'")),
    };
    resp.close = resp.close || req.close;
    (resp, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_parser_extracts_fields() {
        let (m, p, len, close) =
            parse_head("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 12").unwrap();
        assert_eq!(
            (m.as_str(), p.as_str(), len, close),
            ("POST", "/query", 12, false)
        );
        let (.., close) = parse_head("GET / HTTP/1.1\r\nConnection: close").unwrap();
        assert!(close);
        let (.., close) = parse_head("GET / HTTP/1.0").unwrap();
        assert!(close, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn head_parser_rejects_garbage() {
        assert!(parse_head("").is_err());
        assert!(parse_head("GET").is_err());
        assert!(parse_head("GET /").is_err());
        assert!(parse_head("GET / SPDY/9").is_err());
        assert!(parse_head("GET / HTTP/1.1\r\nno colon here").is_err());
        assert!(parse_head("GET / HTTP/1.1\r\nContent-Length: many").is_err());
    }

    #[test]
    fn error_responses_are_one_line_json() {
        let r = Response::error(400, "invalid JSON: line 1");
        assert_eq!(r.body, "{\"error\":\"invalid JSON: line 1\"}");
        assert!(!r.body.contains('\n'));
        assert!(json::parse(&r.body).is_ok());
        assert_eq!(r.content_type, CT_JSON);
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            body: Vec::new(),
            close: false,
        }
    }

    #[test]
    fn healthz_route_answers_json_ok() {
        let engine = Engine::new(crate::ServeConfig {
            population: 30,
            ..crate::ServeConfig::default()
        })
        .unwrap();
        let (resp, _) = handle(&engine, &get("/healthz"));
        assert_eq!((resp.status, resp.body.as_str()), (200, "{\"ok\":true}"));
        assert_eq!(resp.content_type, CT_JSON);
        let (resp, _) = handle(
            &engine,
            &Request {
                method: "POST".into(),
                ..get("/healthz")
            },
        );
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let engine = Engine::new(crate::ServeConfig {
            population: 30,
            ..crate::ServeConfig::default()
        })
        .unwrap();
        let (resp, _) = handle(&engine, &get("/metrics"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, CT_PROMETHEUS);
        assert!(
            resp.body
                .contains("# TYPE disq_serve_requests_total counter"),
            "{}",
            resp.body
        );
        let (resp, _) = handle(
            &engine,
            &Request {
                method: "DELETE".into(),
                ..get("/metrics")
            },
        );
        assert_eq!(resp.status, 405);
    }
}
