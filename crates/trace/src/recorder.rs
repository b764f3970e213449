//! The flight recorder: a bounded in-memory ring of recent trace
//! events, kept always-on by the serve layer so that when one request
//! turns out slow, its full causal slice — request span, plan lookup,
//! crowd-lock waits, shared-batch reads, estimation spans — can be dumped
//! to JSONL *after the fact*, without having traced everything to disk.
//!
//! The recorder composes with the regular [`crate::TraceSink`] slot:
//! [`crate::emit`] delivers every event to both, and tracing is active
//! when *either* is installed. Memory is bounded two ways — a hard
//! event cap and a retention window — and eviction is drop-oldest, so
//! an idle server retains only the (tiny) tail of its last activity
//! and a busy one holds at most `cap` events. The ring is a single
//! `Mutex<VecDeque>` with O(1) push/evict and no allocation beyond the
//! events themselves; per-event cost is one short critical section.
//!
//! Dumps use the exact [`crate::JsonlSink`] line format
//! (`{"t_us":…,…}`), so [`crate::TraceReader`] and every `disq-insight`
//! subcommand read them unchanged.

use crate::event::TraceEvent;
use crate::metrics::{count, Counter};
use crate::span::epoch_micros;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default hard cap on retained events (~a few MB worst case).
pub const RECORDER_DEFAULT_CAP: usize = 65_536;
/// Default retention window.
pub const RECORDER_DEFAULT_RETAIN: Duration = Duration::from_secs(30);

/// A bounded, drop-oldest ring of timestamped trace events.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<(u64, TraceEvent)>>,
    cap: usize,
    retain_us: u64,
    evicted: AtomicU64,
    warned: AtomicBool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default cap and retention window.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_config(RECORDER_DEFAULT_CAP, RECORDER_DEFAULT_RETAIN)
    }

    /// A recorder holding at most `cap` events, each for at most
    /// `retain`. A cap of 0 records nothing.
    pub fn with_config(cap: usize, retain: Duration) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap,
            retain_us: u64::try_from(retain.as_micros()).unwrap_or(u64::MAX),
            evicted: AtomicU64::new(0),
            warned: AtomicBool::new(false),
        }
    }

    /// Appends one event, stamped with the shared trace clock, evicting
    /// expired and over-cap events from the front.
    pub fn record(&self, event: &TraceEvent) {
        if self.cap == 0 {
            return;
        }
        let now = epoch_micros();
        let horizon = now.saturating_sub(self.retain_us);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let mut evicted = 0u64;
        while ring.len() >= self.cap || ring.front().is_some_and(|(t, _)| *t < horizon) {
            if ring.pop_front().is_none() {
                break;
            }
            evicted += 1;
        }
        ring.push_back((now, event.clone()));
        drop(ring);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far (ring overflow or retention expiry —
    /// normal operation, not loss of required data).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// A snapshot of the retained `(t_us, event)` pairs, oldest first.
    pub fn snapshot(&self) -> Vec<(u64, TraceEvent)> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// The causal slice of request `req`: every span stamped with the
    /// request id or descending from one (children inherit through
    /// parent links), their matching ends, and every batch flush whose
    /// participant set includes the request. Ring order (≈ time order)
    /// is preserved.
    pub fn slice_for_request(&self, req: u64) -> Vec<(u64, TraceEvent)> {
        let ring = self.snapshot();
        let mut ids = std::collections::HashSet::new();
        let mut out = Vec::new();
        for (t_us, event) in &ring {
            let keep = match event {
                TraceEvent::SpanStart {
                    id, parent, req: r, ..
                } => {
                    // Starts precede their children's starts in ring
                    // order, so one pass computes the closure.
                    let inherit = parent.is_some_and(|p| ids.contains(&p));
                    if *r == req || inherit {
                        ids.insert(*id);
                        true
                    } else {
                        false
                    }
                }
                TraceEvent::SpanEnd { id, .. } => ids.contains(id),
                TraceEvent::BatchFlush { reqs, .. } => reqs.contains(&req),
                _ => false,
            };
            if keep {
                out.push((*t_us, event.clone()));
            }
        }
        out
    }

    /// Dumps request `req`'s causal slice to `path` in the JSONL sink's
    /// line format. Returns the number of lines written; a write
    /// failure counts [`Counter::SlowDumpWriteErrors`] and warns on
    /// stderr once per recorder.
    pub fn dump_request(&self, req: u64, path: &Path) -> io::Result<usize> {
        let slice = self.slice_for_request(req);
        let result = (|| {
            let mut out = BufWriter::new(File::create(path)?);
            for (t_us, event) in &slice {
                let line = event.to_json();
                writeln!(out, "{{\"t_us\":{t_us},{}", &line[1..])?;
            }
            out.flush()?;
            Ok(slice.len())
        })();
        if let Err(e) = &result {
            count(Counter::SlowDumpWriteErrors);
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: slow-request dump to {} failed, dump is missing or incomplete: {e}",
                    path.display()
                );
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, req: u64, label: &str) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent,
            tid: 1,
            req,
            label: label.into(),
            detail: String::new(),
        }
    }

    fn end(id: u64) -> TraceEvent {
        TraceEvent::SpanEnd {
            id,
            tid: 1,
            dur_ns: 10,
            alloc_bytes: 0,
            allocs: 0,
            questions: 0,
            kernel_ns: 0,
        }
    }

    #[test]
    fn ring_drops_oldest_at_cap() {
        let rec = FlightRecorder::with_config(4, Duration::from_secs(3600));
        for i in 0..10 {
            rec.record(&start(i, None, 0, "s"));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.evicted(), 6);
        let ids: Vec<u64> = rec
            .snapshot()
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::SpanStart { id, .. } => *id,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_cap_records_nothing() {
        let rec = FlightRecorder::with_config(0, Duration::from_secs(3600));
        rec.record(&start(1, None, 0, "s"));
        assert!(rec.is_empty());
    }

    #[test]
    fn slice_follows_request_stamps_parent_links_and_flush_participation() {
        let rec = FlightRecorder::with_config(1024, Duration::from_secs(3600));
        // Request 7: root span 1, child 2 (inherits via parent link).
        rec.record(&start(1, None, 7, "request"));
        rec.record(&start(2, Some(1), 7, "evaluate_query"));
        // Unrelated request 8 interleaves.
        rec.record(&start(3, None, 8, "request"));
        // A flush led by request 8 that request 7's questions rode.
        rec.record(&TraceEvent::BatchFlush {
            object: 5,
            attr: 2,
            k_max: 4,
            k_sum: 7,
            joiners: 2,
            reqs: vec![7, 8],
        });
        rec.record(&end(2));
        rec.record(&end(3));
        rec.record(&end(1));
        let slice = rec.slice_for_request(7);
        let names: Vec<&str> = slice.iter().map(|(_, e)| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "span_start",
                "span_start",
                "batch_flush",
                "span_end",
                "span_end"
            ]
        );
        // Request 8's own spans are excluded.
        assert!(!slice.iter().any(|(_, e)| matches!(
            e,
            TraceEvent::SpanStart { id: 3, .. } | TraceEvent::SpanEnd { id: 3, .. }
        )));
    }

    #[test]
    fn dump_lines_parse_like_jsonl_sink_output() {
        let rec = FlightRecorder::with_config(1024, Duration::from_secs(3600));
        rec.record(&start(1, None, 9, "request"));
        rec.record(&end(1));
        let dir = std::env::temp_dir().join(format!("disq-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        let n = rec.dump_request(9, &path).expect("dump");
        assert_eq!(n, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            let v = crate::json::parse(line).expect("line parses");
            assert!(v.get("t_us").is_some(), "{line}");
            TraceEvent::from_json(&v).expect("event decodes");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dump_write_errors_are_counted_and_warn_once() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let rec = FlightRecorder::with_config(1024, Duration::from_secs(3600));
        rec.record(&start(1, None, 3, "request"));
        rec.record(&end(1));
        let before = crate::summary().counter(Counter::SlowDumpWriteErrors);
        assert!(rec.dump_request(3, Path::new("/dev/full")).is_err());
        assert!(rec.dump_request(3, Path::new("/dev/full")).is_err());
        let after = crate::summary().counter(Counter::SlowDumpWriteErrors);
        assert!(after - before >= 2, "before {before} after {after}");
    }
}
