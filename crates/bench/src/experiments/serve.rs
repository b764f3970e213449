//! `disq-serve` load generator: hammers an in-process daemon with a
//! Zipf-skewed attribute mix over `c` concurrent keep-alive connections
//! and prints one `serve@c<conns>` table row per connection count
//! (p50/p90/p99 latency in µs, QPS, crowd questions per query,
//! plan-cache hit rate), plus a `serve_cold@c1` baseline with the plan
//! cache disabled and the warm-vs-cold speedup line. The gated serving
//! numbers come from `disq-benchmark` (see `disq-benchmark/README.md`).
//!
//! Knobs: `DISQ_SERVE_NS` (queries per connection, default 120) and
//! `DISQ_SERVE_CONNS` (comma-separated connection counts, default
//! 1,8,32). CI smoke-tests `DISQ_SERVE_CONNS=4` with a small
//! `DISQ_SERVE_NS`.

use crate::report::Table;
use disq_serve::{Engine, QueryServer, ServeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default connection sweep, mirroring the paper-scale "interactive
/// front-end" story: one probe, one dashboard, one burst.
pub const DEFAULT_CONNS: [usize; 3] = [1, 8, 32];

/// Default queries issued per connection per row.
pub const DEFAULT_QUERIES: usize = 120;

/// Queries-per-connection override.
pub const QUERIES_ENV: &str = "DISQ_SERVE_NS";

/// Connection-count sweep override (comma-separated).
pub const CONNS_ENV: &str = "DISQ_SERVE_CONNS";

/// The attribute mix, most-popular first; rank r is drawn with weight
/// 1/(r+1) (Zipf s = 1), so `Bmi` dominates and the tail still gets
/// distinct plan-cache entries.
const ATTRIBUTES: [&str; 4] = ["Bmi", "Age", "Heavy", "Weight"];

/// Parses a `DISQ_SERVE_CONNS`-style list (`"1,8,32"`). Invalid or
/// zero entries are dropped; empty means "use the default sweep".
pub fn parse_conns(raw: &str) -> Vec<usize> {
    raw.split(',')
        .filter_map(|s| s.trim().parse::<usize>().ok())
        .filter(|&c| c > 0)
        .collect()
}

/// Connection sweep: `DISQ_SERVE_CONNS` when set and non-empty, else
/// [`DEFAULT_CONNS`].
pub fn conns_from_env() -> Vec<usize> {
    let parsed = std::env::var(CONNS_ENV)
        .map(|s| parse_conns(&s))
        .unwrap_or_default();
    if parsed.is_empty() {
        DEFAULT_CONNS.to_vec()
    } else {
        parsed
    }
}

/// Queries per connection: `DISQ_SERVE_NS` when set and positive, else
/// [`DEFAULT_QUERIES`].
pub fn queries_from_env() -> usize {
    std::env::var(QUERIES_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_QUERIES)
}

/// Draws an attribute index with Zipf(s = 1) weights `1/(rank+1)`.
fn zipf_pick(rng: &mut StdRng) -> usize {
    let total: f64 = (0..ATTRIBUTES.len()).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut u = rng.random::<f64>() * total;
    for r in 0..ATTRIBUTES.len() {
        u -= 1.0 / (r + 1) as f64;
        if u <= 0.0 {
            return r;
        }
    }
    ATTRIBUTES.len() - 1
}

/// Sends one `POST /query` on an existing keep-alive connection and
/// reads the full response, returning the status code.
fn post_query(stream: &mut TcpStream, body: &str) -> u16 {
    let msg = format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).expect("write query");
    read_response(stream)
}

/// Reads one response off the stream (head + Content-Length body) and
/// returns its status code.
fn read_response(stream: &mut TcpStream) -> u16 {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut have = buf.len() - (head_end + 4);
    while have < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "server closed mid-body");
        have += n;
    }
    status
}

/// Latency/throughput facts of one load-generator run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Median request latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile request latency in microseconds — the "almost
    /// everyone" latency, less noisy than p99 at small query counts.
    pub p90_us: u64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: u64,
    /// Completed queries per wall-clock second across all connections.
    pub qps: f64,
    /// Crowd questions actually asked per query (after sharing).
    pub questions_per_query: f64,
    /// Plan-cache hit rate over the measured window.
    pub plan_cache_hit_rate: f64,
}

fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One load-generator row: `conns` client threads, each issuing
/// `queries` keep-alive requests against a fresh in-process daemon.
///
/// Panics unless the run made progress (QPS > 0), every question the
/// queries requested was either asked or read off another query's batch
/// (`requested = asked + saved`), and, with the plan cache on, the
/// measured window after the warm phase was all plan-cache hits.
pub fn run_load(conns: usize, queries: usize, plan_cache: bool) -> ServeStats {
    let config = ServeConfig {
        population: 300,
        seed: 42,
        default_objects: 30,
        read_timeout: Duration::from_secs(10),
        plan_cache,
        ..ServeConfig::default()
    };
    let engine = Arc::new(Engine::new(config).expect("serve engine"));
    let server = QueryServer::start("127.0.0.1:0", Arc::clone(&engine)).expect("bind loopback");
    let addr = server.local_addr();

    // Warm phase (cache-enabled rows only): touch every attribute once
    // so the measured window is all plan-cache hits — the steady state
    // the daemon is built for. The cold baseline skips this: every
    // query pays the full preprocess.
    if plan_cache {
        let mut conn = connect(addr);
        for attr in ATTRIBUTES {
            let status = post_query(&mut conn, &format!("{{\"attribute\":\"{attr}\"}}"));
            assert_eq!(status, 200, "warm query for {attr}");
        }
    }

    let before = engine.snapshot();
    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|i| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBE7C_u64 + i as u64);
                    let mut conn = connect(addr);
                    let mut lats = Vec::with_capacity(queries);
                    for _ in 0..queries {
                        let attr = ATTRIBUTES[zipf_pick(&mut rng)];
                        let body = format!("{{\"attribute\":\"{attr}\"}}");
                        let t0 = Instant::now();
                        let status = post_query(&mut conn, &body);
                        lats.push(t0.elapsed().as_micros() as u64);
                        assert_eq!(status, 200, "query for {attr}");
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = engine.snapshot();

    latencies.sort_unstable();
    let total = (conns * queries) as u64;
    let queries_delta = (after.queries - before.queries).max(1);
    let asked_delta = after.asked_questions - before.asked_questions;
    let hits = after.plan_hits - before.plan_hits;
    let misses = after.plan_misses - before.plan_misses;
    let lookups = hits + misses;
    let serve = ServeStats {
        p50_us: percentile_us(&latencies, 0.50),
        p90_us: percentile_us(&latencies, 0.90),
        p99_us: percentile_us(&latencies, 0.99),
        qps: if wall > 0.0 { total as f64 / wall } else { 0.0 },
        questions_per_query: asked_delta as f64 / queries_delta as f64,
        plan_cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    };
    assert!(serve.qps > 0.0, "load run made no progress: {serve:?}");
    let requested = after.requested_questions - before.requested_questions;
    let saved = after.saved_questions - before.saved_questions;
    assert_eq!(
        requested,
        asked_delta + saved,
        "requested questions must equal asked plus saved"
    );
    if plan_cache {
        assert!(
            lookups > 0 && misses == 0,
            "warm window must be all plan-cache hits ({hits} hits, {misses} misses)"
        );
    }
    serve
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("client timeout");
    stream
}

/// Runs the full sweep at the env-configured (or default) settings.
pub fn run() -> String {
    disq_trace::init_from_env();
    run_sweep(&conns_from_env(), queries_from_env())
}

/// Runs the cold baseline plus one warm row per connection count.
pub fn run_sweep(conns: &[usize], queries: usize) -> String {
    let mut table = Table::new(
        "disq-serve load generator: Zipf attribute mix over keep-alive connections",
        &[
            "row", "conns", "queries", "p50 us", "p90 us", "p99 us", "QPS", "q/query", "hit rate",
        ],
    );
    // Cold baseline: plan cache off, single connection, a smaller query
    // count — each query pays a full preprocess, so this is the
    // recompute-per-query world the plan cache exists to beat.
    let cold_queries = (queries / 4).max(4);
    let cold = run_load(1, cold_queries, false);
    push_row(&mut table, "serve_cold@c1", 1, cold_queries, &cold);

    let mut warm_qps_at_c1 = None;
    for &c in conns {
        let row = run_load(c, queries, true);
        if c == 1 {
            warm_qps_at_c1 = Some(row.qps);
        }
        push_row(&mut table, &format!("serve@c{c}"), c, queries, &row);
    }

    let mut out = table.render();
    if let Some(warm) = warm_qps_at_c1 {
        out.push_str(&format!(
            "plan cache speedup: warm c=1 runs {:.1}x the cold recompute-per-query baseline\n",
            warm / cold.qps
        ));
    }
    out
}

fn push_row(table: &mut Table, name: &str, conns: usize, queries: usize, s: &ServeStats) {
    table.row(vec![
        name.to_string(),
        conns.to_string(),
        (conns * queries).to_string(),
        s.p50_us.to_string(),
        s.p90_us.to_string(),
        s.p99_us.to_string(),
        format!("{:.0}", s.qps),
        format!("{:.2}", s.questions_per_query),
        format!("{:.2}", s.plan_cache_hit_rate),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsers_filter_garbage() {
        assert_eq!(parse_conns("1,8,32"), vec![1, 8, 32]);
        assert_eq!(parse_conns(" 4 , x, 0 "), vec![4]);
        assert!(parse_conns("").is_empty());
    }

    #[test]
    fn zipf_head_dominates() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; ATTRIBUTES.len()];
        for _ in 0..4000 {
            counts[zipf_pick(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let lat: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&lat, 0.50), 51);
        assert_eq!(percentile_us(&lat, 0.90), 90);
        assert_eq!(percentile_us(&lat, 0.99), 99);
        assert_eq!(percentile_us(&[], 0.5), 0);
    }

    #[test]
    fn tiny_load_run_reports_serve_stats() {
        // 2 connections × 3 queries against a real daemon.
        let s = run_load(2, 3, true);
        assert!(s.p90_us >= s.p50_us && s.p99_us >= s.p90_us);
        assert!(s.qps > 0.0);
        assert_eq!(s.plan_cache_hit_rate, 1.0, "warm window must be all hits");
        let out = run_sweep(&[1], 4);
        assert!(out.contains("serve_cold@c1"), "{out}");
        assert!(out.contains("serve@c1"), "{out}");
        assert!(out.contains("plan cache speedup"), "{out}");
    }
}
