//! Per-request observability: the structured JSONL access log, per-route
//! and per-attribute latency histograms with SLO gauges, and the
//! tail-latency trigger that writes out a slow request's trace, which
//! the server captured on the request's own thread.
//!
//! Everything here runs once per finished request, off the estimation
//! hot path, so a couple of short mutexed map updates are fine. The
//! gauges are rendered from these maps at scrape time
//! ([`Observer::render_gauges`]), never copied into the process-global
//! registry, and their labels are bounded: a path other than the served
//! routes counts as `route="other"`, and only attributes of the served
//! domain get a histogram. The access log keeps the raw values. The log
//! and dump writers follow the repo's telemetry failure contract: a
//! write failure warns on stderr exactly once per engine and
//! increments a counter ([`Counter::AccessLogWriteErrors`] /
//! [`Counter::SlowDumpWriteErrors`]) — serving itself never fails
//! because a disk did.

use crate::http::ROUTES;
use crate::{PlanSource, ServeConfig};
use disq_domain::DomainSpec;
use disq_trace::gauge::GaugeSet;
use disq_trace::json;
use disq_trace::{CaptureGate, Counter, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// log₂ microsecond buckets: index i holds latencies ≤ 2^i µs (index 0
/// covers ≤ 1 µs, the last bucket is unbounded).
pub(crate) const OBS_HIST_BUCKETS: usize = 32;
/// Rolling SLO window length (requests) behind the burn-rate gauge.
const SLO_WINDOW: usize = 256;
/// Requests a route must accumulate before the histogram-derived p99
/// slow threshold activates (when `DISQ_SLOW_US` is unset).
const P99_MIN_COUNT: u64 = 64;

/// Everything the server learned about one finished request; the
/// argument to [`crate::Engine::observe_request`].
#[derive(Debug, Clone)]
pub struct RequestRecord<'a> {
    /// The process-unique request id stamped on the request's spans.
    pub request_id: u64,
    /// Request path (`/query`, `/stats`, …).
    pub route: &'a str,
    /// Target attribute, when the request named one that parsed.
    pub attribute: Option<&'a str>,
    /// HTTP status answered.
    pub status: u16,
    /// Wall time from parsed request to rendered response.
    pub latency_us: u64,
    /// Crowd questions charged on this request's thread.
    pub questions: u64,
    /// Where the plan came from, for `/query` requests that got one.
    pub plan: Option<PlanSource>,
    /// Queries served by the widest shared crowd batch this request
    /// read, its asker included (0 = it read none).
    pub coalesce_width: u64,
    /// The request's captured `(t_us, event)` trace, written out if the
    /// request is slow (empty when its engine does not dump).
    pub trace: &'a [(u64, TraceEvent)],
}

/// One route's latency/SLO accounting.
struct RouteStats {
    hist: [u64; OBS_HIST_BUCKETS],
    count: u64,
    slo_ok: u64,
    errors: u64,
    /// Last [`SLO_WINDOW`] requests, `true` = SLO violation.
    window: VecDeque<bool>,
}

impl RouteStats {
    fn new() -> RouteStats {
        RouteStats {
            hist: [0; OBS_HIST_BUCKETS],
            count: 0,
            slo_ok: 0,
            errors: 0,
            window: VecDeque::with_capacity(SLO_WINDOW),
        }
    }

    /// Rolling violation ratio over the window relative to the 1% budget
    /// of a 99% SLO: 1.0 = burning exactly at budget; >1 = on course to
    /// miss the SLO.
    fn burn_rate(&self) -> f64 {
        let violations = self.window.iter().filter(|&&v| v).count();
        (violations as f64 / self.window.len() as f64) / 0.01
    }

    /// Upper bound (µs) of the bucket holding the route's p99, once
    /// enough samples exist to make the estimate meaningful.
    fn p99_us(&self) -> Option<u64> {
        if self.count < P99_MIN_COUNT {
            return None;
        }
        let target = self.count - self.count / 100;
        let mut cumulative = 0u64;
        for (i, &b) in self.hist.iter().enumerate() {
            cumulative += b;
            if cumulative >= target {
                return Some(bucket_upper_us(i));
            }
        }
        None
    }
}

/// The label a request path is accounted under: a served route by
/// name, anything else as `other`.
fn route_label(path: &str) -> &'static str {
    ROUTES
        .iter()
        .find(|&&route| route == path)
        .copied()
        .unwrap_or("other")
}

fn bucket_of_us(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(OBS_HIST_BUCKETS - 1)
}

fn bucket_upper_us(i: usize) -> u64 {
    if i == 0 {
        1
    } else {
        1u64 << i
    }
}

/// The engine's per-request observability sink.
pub(crate) struct Observer {
    log: Option<Mutex<File>>,
    log_warned: AtomicBool,
    routes: Mutex<HashMap<&'static str, RouteStats>>,
    attrs: Mutex<HashMap<String, [u64; OBS_HIST_BUCKETS]>>,
    /// The served domain: only its attributes get a histogram.
    spec: Arc<DomainSpec>,
    slow_us: Option<u64>,
    slow_dir: Option<PathBuf>,
    /// Held iff `slow_dir` is set, so the server's captures see events.
    _capture_gate: Option<CaptureGate>,
    dump_warned: AtomicBool,
    slo_us: u64,
}

impl Observer {
    /// Opens the access log (append mode) and captures the slow/SLO
    /// thresholds. A log that cannot be opened warns once here and
    /// disables access logging; it does not fail engine construction.
    pub(crate) fn new(config: &ServeConfig, spec: &Arc<DomainSpec>) -> Observer {
        let log = config.access_log.as_ref().and_then(|path| {
            match OpenOptions::new().create(true).append(true).open(path) {
                Ok(f) => Some(Mutex::new(f)),
                Err(e) => {
                    disq_trace::count(Counter::AccessLogWriteErrors);
                    eprintln!(
                        "disq-serve: cannot open access log {}: {e} (access logging disabled)",
                        path.display()
                    );
                    None
                }
            }
        });
        Observer {
            log,
            log_warned: AtomicBool::new(false),
            routes: Mutex::new(HashMap::new()),
            attrs: Mutex::new(HashMap::new()),
            spec: Arc::clone(spec),
            slow_us: config.slow_us,
            slow_dir: config.slow_dir.clone(),
            _capture_gate: config.slow_dir.as_ref().map(|_| CaptureGate::hold()),
            dump_warned: AtomicBool::new(false),
            slo_us: config.slo_us.max(1),
        }
    }

    /// Records one finished request: access-log line, histogram/SLO
    /// update, slow-dump trigger.
    pub(crate) fn observe(&self, rec: &RequestRecord<'_>) {
        self.write_access_log(rec);
        let threshold = self.update_stats(rec);
        if rec.latency_us > threshold.unwrap_or(u64::MAX) {
            self.dump_slow(rec);
        }
    }

    fn write_access_log(&self, rec: &RequestRecord<'_>) {
        let Some(log) = &self.log else { return };
        let mut line = String::with_capacity(160);
        let _ = write!(
            line,
            "{{\"t_us\":{},\"req\":{},\"route\":",
            disq_trace::span::epoch_micros(),
            rec.request_id
        );
        json::write_str(&mut line, rec.route);
        if let Some(attr) = rec.attribute {
            line.push_str(",\"attribute\":");
            json::write_str(&mut line, attr);
        }
        let _ = write!(
            line,
            ",\"status\":{},\"latency_us\":{},\"questions\":{}",
            rec.status, rec.latency_us, rec.questions
        );
        if let Some(plan) = rec.plan {
            let _ = write!(line, ",\"plan\":\"{}\"", plan.name());
        }
        let _ = write!(line, ",\"coalesce\":{}}}", rec.coalesce_width);
        let failed = {
            let mut file = log.lock().unwrap_or_else(|e| e.into_inner());
            writeln!(file, "{line}").is_err()
        };
        if failed {
            disq_trace::count(Counter::AccessLogWriteErrors);
            if !self.log_warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "disq-serve: access-log write failed (counting further failures silently)"
                );
            }
        }
    }

    /// Updates histograms/SLO state; returns the slow threshold in
    /// effect for this request's route.
    fn update_stats(&self, rec: &RequestRecord<'_>) -> Option<u64> {
        let bucket = bucket_of_us(rec.latency_us);
        let violation = rec.latency_us > self.slo_us;
        let threshold = {
            let mut routes = self.routes.lock().unwrap_or_else(|e| e.into_inner());
            let rs = routes
                .entry(route_label(rec.route))
                .or_insert_with(RouteStats::new);
            rs.hist[bucket] += 1;
            rs.count += 1;
            if !violation {
                rs.slo_ok += 1;
            }
            if rec.status >= 400 {
                rs.errors += 1;
            }
            if rs.window.len() == SLO_WINDOW {
                rs.window.pop_front();
            }
            rs.window.push_back(violation);
            self.slow_us.or_else(|| rs.p99_us())
        };
        if let Some(attr) = rec.attribute.filter(|a| self.spec.id_of(a).is_some()) {
            let mut attrs = self.attrs.lock().unwrap_or_else(|e| e.into_inner());
            attrs
                .entry(attr.to_string())
                .or_insert([0; OBS_HIST_BUCKETS])[bucket] += 1;
        }
        threshold
    }

    /// Renders the per-route SLO gauges and latency histograms, and the
    /// per-attribute latency histograms, into `set`.
    pub(crate) fn render_gauges(&self, set: &mut GaugeSet) {
        for (route, rs) in self.routes.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let label = [("route", *route)];
            set.set(
                "disq_serve_slo_compliance",
                "Fraction of requests inside the latency SLO",
                &label,
                rs.slo_ok as f64 / rs.count as f64,
            );
            set.set(
                "disq_serve_error_ratio",
                "Fraction of requests answered with a 4xx/5xx status",
                &label,
                rs.errors as f64 / rs.count as f64,
            );
            set.set(
                "disq_serve_slo_burn_rate",
                "Rolling SLO violation ratio relative to the 1% error budget",
                &label,
                rs.burn_rate(),
            );
            set_histogram(
                set,
                "disq_serve_latency_us_bucket",
                "Per-route request latency histogram (log2 µs buckets, cumulative)",
                label[0],
                &rs.hist,
            );
        }
        for (attr, hist) in self.attrs.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            set_histogram(
                set,
                "disq_serve_attr_latency_us_bucket",
                "Per-attribute request latency histogram (log2 µs buckets, cumulative)",
                ("attribute", attr),
                hist,
            );
        }
    }

    /// Writes the slow request's captured trace into `DISQ_SLOW_DIR`.
    fn dump_slow(&self, rec: &RequestRecord<'_>) {
        let Some(dir) = &self.slow_dir else { return };
        // Best-effort: a missing directory fails the write, which counts.
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!(
            "slow-req{}-{}us.jsonl",
            rec.request_id, rec.latency_us
        ));
        self.write_dump(rec.trace, &path);
    }

    /// Writes one dump. A success counts [`Counter::SlowDumps`]; a
    /// failure counts [`Counter::SlowDumpWriteErrors`] and warns once.
    fn write_dump(&self, trace: &[(u64, TraceEvent)], path: &Path) {
        match disq_trace::write_jsonl(trace, path) {
            Ok(()) => disq_trace::count(Counter::SlowDumps),
            Err(e) => {
                disq_trace::count(Counter::SlowDumpWriteErrors);
                if !self.dump_warned.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "warning: slow-request dump to {} failed, dump is missing or incomplete: {e}",
                        path.display()
                    );
                }
            }
        }
    }
}

/// Sets one log₂ histogram as cumulative `le_us`-labelled gauge series
/// (sparse: only boundaries that have gained samples appear).
fn set_histogram(
    set: &mut GaugeSet,
    family: &'static str,
    help: &'static str,
    label: (&str, &str),
    hist: &[u64; OBS_HIST_BUCKETS],
) {
    let mut cumulative = 0u64;
    for (i, &b) in hist.iter().enumerate() {
        cumulative += b;
        if b == 0 {
            continue;
        }
        let le = bucket_upper_us(i).to_string();
        set.set(
            family,
            help,
            &[label, ("le_us", le.as_str())],
            cumulative as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(latency_us: u64, status: u16) -> RequestRecord<'static> {
        RequestRecord {
            request_id: 1,
            route: "/query",
            attribute: Some("Bmi"),
            status,
            latency_us,
            questions: 3,
            plan: Some(PlanSource::Memory),
            coalesce_width: 0,
            trace: &[],
        }
    }

    #[test]
    fn latency_buckets_are_log2_microseconds() {
        assert_eq!(bucket_of_us(0), 0);
        assert_eq!(bucket_of_us(1), 1);
        assert_eq!(bucket_of_us(2), 2);
        assert_eq!(bucket_of_us(1024), 11);
        assert_eq!(bucket_of_us(u64::MAX), OBS_HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_us(0), 1);
        assert_eq!(bucket_upper_us(11), 2048);
    }

    #[test]
    fn p99_threshold_needs_enough_samples_then_tracks_the_tail() {
        let mut rs = RouteStats::new();
        assert_eq!(rs.p99_us(), None);
        // 99 fast requests (≤ 8 µs), 1 slow (≤ 65536 µs).
        rs.hist[3] = 99;
        rs.hist[16] = 1;
        rs.count = 100;
        assert_eq!(rs.p99_us(), Some(8), "p99 sits in the fast bucket");
        rs.hist[16] = 10;
        rs.count = 109;
        assert_eq!(rs.p99_us(), Some(1 << 16), "a fatter tail moves p99 up");
    }

    #[test]
    fn observe_tracks_slo_and_writes_the_access_log() {
        let dir = std::env::temp_dir().join(format!("disq-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let log_path = dir.join("access.jsonl");
        let config = ServeConfig {
            access_log: Some(log_path.clone()),
            slo_us: 1_000,
            ..ServeConfig::default()
        };
        let obs = Observer::new(&config, &Arc::new(disq_domain::domains::pictures::spec()));
        obs.observe(&record(10, 200)); // inside SLO
        obs.observe(&record(5_000, 500)); // violation + error
        let text = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("route").and_then(json::Json::as_str),
            Some("/query")
        );
        assert_eq!(
            first.get("latency_us").and_then(json::Json::as_u64),
            Some(10)
        );
        assert_eq!(first.get("questions").and_then(json::Json::as_u64), Some(3));
        assert_eq!(
            first.get("plan").and_then(json::Json::as_str),
            Some("memory")
        );
        let routes = obs.routes.lock().unwrap();
        let rs = routes.get("/query").unwrap();
        assert_eq!((rs.count, rs.slo_ok, rs.errors), (2, 1, 1));
        assert_eq!(rs.window.iter().filter(|&&v| v).count(), 1);
        drop(routes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Access-log write failures are counted and warn once, never
    /// propagate: the repo's standard `/dev/full` contract.
    #[test]
    #[cfg(target_os = "linux")]
    fn access_log_write_errors_are_counted_not_fatal() {
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let config = ServeConfig {
            access_log: Some(PathBuf::from("/dev/full")),
            ..ServeConfig::default()
        };
        let obs = Observer::new(&config, &Arc::new(disq_domain::domains::pictures::spec()));
        let before = disq_trace::summary().counter(Counter::AccessLogWriteErrors);
        obs.observe(&record(10, 200));
        obs.observe(&record(20, 200));
        let after = disq_trace::summary().counter(Counter::AccessLogWriteErrors);
        assert!(
            after >= before + 2,
            "every failed line must count ({before} -> {after})"
        );
        assert!(
            obs.log_warned.load(Ordering::Relaxed),
            "the one-shot warning latch must be set"
        );
    }

    /// Dump write failures follow the same contract: counted on every
    /// failure, warned once per engine, never propagated.
    #[test]
    #[cfg(target_os = "linux")]
    fn dump_write_errors_are_counted_and_warn_once() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let obs = Observer::new(
            &ServeConfig::default(),
            &Arc::new(disq_domain::domains::pictures::spec()),
        );
        let trace = [(
            1,
            TraceEvent::SpanStart {
                id: 1,
                parent: None,
                tid: 1,
                req: 3,
                label: "request".into(),
                detail: String::new(),
            },
        )];
        let before = disq_trace::summary().counter(Counter::SlowDumpWriteErrors);
        obs.write_dump(&trace, Path::new("/dev/full"));
        obs.write_dump(&trace, Path::new("/dev/full"));
        let after = disq_trace::summary().counter(Counter::SlowDumpWriteErrors);
        assert!(after - before >= 2, "before {before} after {after}");
        assert!(
            obs.dump_warned.load(Ordering::Relaxed),
            "the one-shot warning latch must be set"
        );
    }
}
