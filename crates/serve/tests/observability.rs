//! Tentpole e2e: request-scoped tracing through the daemon. One served
//! query must (a) appear in the JSONL access log with its request id,
//! latency, question count and plan source, (b) trip the slow-request
//! trigger and leave a slow-request dump of its capture whose every span
//! carries that request id, and (c) move the SLO gauges on `/metrics`.

mod common;

use common::{connect, oneshot, request};
use disq_serve::{Engine, QueryServer, ServeConfig};
use disq_trace::json::{self, Json};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn served_requests_are_logged_traced_and_dumped_when_slow() {
    let dir = std::env::temp_dir().join(format!("disq-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let slow_dir = dir.join("slow");
    let access_log = dir.join("access.jsonl");

    let config = ServeConfig {
        population: 60,
        seed: 11,
        default_objects: 8,
        read_timeout: Duration::from_millis(2000),
        // Threshold 0 µs: every request is "slow", so the dump path is
        // exercised deterministically without actual tail latency.
        slow_us: Some(0),
        slow_dir: Some(slow_dir.clone()),
        access_log: Some(access_log.clone()),
        ..ServeConfig::default()
    };
    let engine = Arc::new(Engine::new(config).expect("engine"));
    let server = QueryServer::start("127.0.0.1:0", engine).expect("bind");
    let addr = server.local_addr();

    let mut conn = connect(addr);
    let resp = request(
        &mut conn,
        "POST",
        "/query",
        "{\"attribute\":\"Bmi\",\"objects\":8}",
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    let health = request(&mut conn, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    drop(conn);

    // --- Access log: one structured line per request, in order. ---
    let log_text = std::fs::read_to_string(&access_log).expect("access log written");
    let lines: Vec<Json> = log_text
        .lines()
        .map(|l| json::parse(l).expect("access-log line is JSON"))
        .collect();
    assert_eq!(lines.len(), 2, "{log_text}");
    let query_line = &lines[0];
    assert_eq!(
        query_line.get("route").and_then(Json::as_str),
        Some("/query")
    );
    assert_eq!(
        query_line.get("attribute").and_then(Json::as_str),
        Some("Bmi")
    );
    assert_eq!(query_line.get("status").and_then(Json::as_u64), Some(200));
    assert_eq!(
        query_line.get("plan").and_then(Json::as_str),
        Some("computed")
    );
    let req_id = query_line
        .get("req")
        .and_then(Json::as_u64)
        .expect("request id");
    assert!(req_id > 0);
    assert!(
        query_line
            .get("questions")
            .and_then(Json::as_u64)
            .expect("questions")
            > 0,
        "a /query request asks the crowd"
    );
    assert_eq!(
        lines[1].get("route").and_then(Json::as_str),
        Some("/healthz")
    );
    assert_eq!(
        lines[1].get("req").and_then(Json::as_u64),
        Some(req_id + 1),
        "request ids are sequential per daemon"
    );

    // --- Slow-request dump: the query's captured causal slice. ---
    let dump_path = slow_dir.join(format!("slow-req{req_id}-")); // prefix
    let dump_file = std::fs::read_dir(&slow_dir)
        .expect("slow dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.to_string_lossy()
                .starts_with(&*dump_path.to_string_lossy())
        })
        .expect("a dump for the query request exists");
    let dump_text = std::fs::read_to_string(&dump_file).unwrap();
    let mut labels = Vec::new();
    let mut starts = 0;
    let mut ends = 0;
    for line in dump_text.lines() {
        let v = json::parse(line).expect("dump line is JSON");
        assert!(
            v.get("t_us").and_then(Json::as_u64).is_some(),
            "dump lines carry capture timestamps: {line}"
        );
        match v.get("event").and_then(Json::as_str) {
            Some("span_start") => {
                starts += 1;
                assert_eq!(
                    v.get("req").and_then(Json::as_u64),
                    Some(req_id),
                    "every span in the slice belongs to the request: {line}"
                );
                labels.push(
                    v.get("label")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                );
            }
            Some("span_end") => ends += 1,
            _ => {}
        }
    }
    assert_eq!(starts, ends, "the slice is a closed span forest");
    for want in ["request", "plan_lookup", "plan_compute", "evaluate_query"] {
        assert!(
            labels.iter().any(|l| l == want),
            "dump must contain a '{want}' span; got {labels:?}"
        );
    }

    // --- /metrics: SLO gauges and dump counters moved. ---
    let metrics = oneshot(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    let body = metrics.body;
    assert!(
        body.contains("disq_serve_slo_compliance{route=\"/query\"}"),
        "{body}"
    );
    assert!(
        body.contains("disq_serve_slo_burn_rate{route=\"/query\"}"),
        "{body}"
    );
    assert!(
        body.contains("disq_serve_latency_us_bucket{route=\"/query\",le_us="),
        "{body}"
    );
    assert!(
        body.contains("disq_serve_attr_latency_us_bucket{attribute=\"Bmi\",le_us="),
        "{body}"
    );
    // At least the two requests above dumped (threshold 0).
    let dumps = body
        .lines()
        .find_map(|l| l.strip_prefix("disq_slow_dumps_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("slow-dump counter exposed");
    assert!(dumps >= 2, "threshold 0 dumps every request, got {dumps}");

    let _ = std::fs::remove_dir_all(&dir);
}
