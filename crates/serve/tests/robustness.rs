//! Robustness: malformed HTTP must map to a 4xx with a one-line JSON
//! error — never a panic, never a wedged accept thread. After every
//! abuse the same server still answers a clean `/healthz`. Client input
//! never becomes a metric label, and each engine's `/metrics` shows only
//! its own requests.

mod common;

use common::{connect, oneshot, read_response, request};
use disq_serve::{Engine, QueryServer, ServeConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> QueryServer {
    let config = ServeConfig {
        population: 30,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let engine = Arc::new(Engine::new(config).expect("engine"));
    QueryServer::start("127.0.0.1:0", engine).expect("bind")
}

fn assert_one_line_json_error(body: &str) {
    assert!(!body.contains('\n'), "multi-line error body: {body:?}");
    let parsed = disq_trace::json::parse(body).expect("error body parses as JSON");
    assert!(
        parsed.get("error").and_then(|e| e.as_str()).is_some(),
        "missing 'error' field: {body}"
    );
}

fn assert_alive(server: &QueryServer) {
    let resp = oneshot(server.local_addr(), "GET", "/healthz", "");
    assert_eq!(resp.status, 200, "accept thread wedged");
    assert_eq!(resp.body, "{\"ok\":true}");
}

#[test]
fn bad_method_is_405() {
    let server = start_server();
    let resp = oneshot(server.local_addr(), "PUT", "/query", "{}");
    assert_eq!(resp.status, 405);
    assert_one_line_json_error(&resp.body);
    let resp = oneshot(server.local_addr(), "POST", "/healthz", "");
    assert_eq!(resp.status, 405);
    assert_alive(&server);
}

#[test]
fn unknown_path_is_404() {
    let server = start_server();
    let resp = oneshot(server.local_addr(), "GET", "/nope", "");
    assert_eq!(resp.status, 404);
    assert_one_line_json_error(&resp.body);
    assert_alive(&server);
}

#[test]
fn invalid_json_is_400() {
    let server = start_server();
    for body in ["{not json", "", "[1,2,3]", "{\"predicate\":\">= 25\"}"] {
        let resp = oneshot(server.local_addr(), "POST", "/query", body);
        assert_eq!(resp.status, 400, "body {body:?}");
        assert_one_line_json_error(&resp.body);
    }
    assert_alive(&server);
}

#[test]
fn bad_predicate_and_bad_objects_are_400() {
    let server = start_server();
    let resp = oneshot(
        server.local_addr(),
        "POST",
        "/query",
        "{\"attribute\":\"Bmi\",\"predicate\":\"!= 25\"}",
    );
    assert_eq!(resp.status, 400);
    assert_one_line_json_error(&resp.body);
    let resp = oneshot(
        server.local_addr(),
        "POST",
        "/query",
        "{\"attribute\":\"Bmi\",\"objects\":\"many\"}",
    );
    assert_eq!(resp.status, 400);
    assert_alive(&server);
}

#[test]
fn unknown_attribute_is_404() {
    let server = start_server();
    let resp = oneshot(
        server.local_addr(),
        "POST",
        "/query",
        "{\"attribute\":\"Charisma\"}",
    );
    assert_eq!(resp.status, 404);
    assert_one_line_json_error(&resp.body);
    assert!(resp.body.contains("Charisma"));
    assert_alive(&server);
}

#[test]
fn truncated_body_is_400() {
    let server = start_server();
    let mut stream = connect(server.local_addr());
    // Claim 50 body bytes, send 10, then half-close: the server sees EOF
    // mid-body and must answer 400, not hang or panic.
    stream
        .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"attribu")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, 400);
    assert_one_line_json_error(&resp.body);
    assert!(resp.close);
    assert_alive(&server);
}

#[test]
fn slow_client_gets_408() {
    let server = start_server();
    let mut stream = connect(server.local_addr());
    // Send a partial request head and stall past the 300ms read timeout.
    stream.write_all(b"POST /que").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, 408);
    assert_one_line_json_error(&resp.body);
    assert!(resp.close, "slow connections are closed");
    assert_alive(&server);
}

#[test]
fn oversized_body_is_413() {
    let server = start_server();
    let mut stream = connect(server.local_addr());
    let msg = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        disq_serve::http::MAX_BODY_BYTES + 1
    );
    stream.write_all(msg.as_bytes()).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, 413);
    assert_one_line_json_error(&resp.body);
    assert_alive(&server);
}

#[test]
fn idle_keepalive_connection_closes_quietly() {
    let server = start_server();
    let mut stream = connect(server.local_addr());
    // A completed request keeps the connection open...
    let resp = request(&mut stream, "GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    assert!(!resp.close);
    // ...then the idle timeout closes it without any error response.
    std::thread::sleep(Duration::from_millis(600));
    let mut buf = [0u8; 64];
    use std::io::Read;
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(
        n,
        0,
        "idle expiry must be a quiet close, got {:?}",
        &buf[..n]
    );
    assert_alive(&server);
}

#[test]
fn malformed_request_line_is_400() {
    let server = start_server();
    let mut stream = connect(server.local_addr());
    stream.write_all(b"COMPLETE GARBAGE\r\n\r\n").unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, 400);
    assert_one_line_json_error(&resp.body);
    assert_alive(&server);
}

/// Client-chosen strings must not grow `/metrics`: unknown paths count
/// under `route="other"` and unknown attributes get no histogram.
#[test]
fn bogus_paths_and_attributes_do_not_grow_metrics() {
    let server = start_server();
    let mut conn = connect(server.local_addr());
    for i in 0..100 {
        let resp = request(&mut conn, "GET", &format!("/bogus-path-{i}"), "");
        assert_eq!(resp.status, 404);
        let resp = request(
            &mut conn,
            "POST",
            "/query",
            &format!("{{\"attribute\":\"BogusAttr{i}\"}}"),
        );
        assert_eq!(resp.status, 404);
    }
    let metrics = request(&mut conn, "GET", "/metrics", "").body;
    assert!(metrics.contains("route=\"other\""), "{metrics}");
    assert!(!metrics.contains("bogus-path-"), "{metrics}");
    assert!(!metrics.contains("BogusAttr"), "{metrics}");
    let series = metrics.lines().filter(|l| !l.starts_with('#')).count();
    assert!(series < 150, "{series} series after 200 bogus requests");
    assert_alive(&server);
}

/// Serving gauges belong to their engine: two engines in one process
/// each expose only the routes they served themselves.
#[test]
fn each_engine_exposes_only_its_own_routes() {
    let small = ServeConfig {
        population: 30,
        ..ServeConfig::default()
    };
    let a = QueryServer::start(
        "127.0.0.1:0",
        Arc::new(Engine::new(small.clone()).expect("engine A")),
    )
    .expect("bind A");
    let b = QueryServer::start(
        "127.0.0.1:0",
        Arc::new(Engine::new(small).expect("engine B")),
    )
    .expect("bind B");

    let mut conn = connect(a.local_addr());
    for path in ["/healthz", "/stats", "/nowhere"] {
        request(&mut conn, "GET", path, "");
    }
    let a_metrics = request(&mut conn, "GET", "/metrics", "").body;
    for route in ["/healthz", "/stats", "other"] {
        let label = format!("disq_serve_slo_compliance{{route=\"{route}\"}}");
        assert!(a_metrics.contains(&label), "A lacks {label}: {a_metrics}");
    }

    // B's first scrape precedes any B request; its second sees that one.
    oneshot(b.local_addr(), "GET", "/metrics", "");
    let b_metrics = oneshot(b.local_addr(), "GET", "/metrics", "").body;
    assert!(
        b_metrics.contains("disq_serve_slo_compliance{route=\"/metrics\"}"),
        "{b_metrics}"
    );
    for route in ["/healthz", "/stats", "other"] {
        assert!(
            !b_metrics.contains(&format!("route=\"{route}\"")),
            "B shows A's route {route}: {b_metrics}"
        );
    }
}
