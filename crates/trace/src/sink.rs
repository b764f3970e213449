//! Where events go: the [`TraceSink`] trait and its three
//! implementations.
//!
//! * [`NullSink`] — discards everything; the default. The global emit
//!   path never even constructs an event while no sink is installed, so
//!   the instrumented hot paths cost one relaxed atomic load.
//! * [`MemorySink`] — collects events in memory (bounded: drop-oldest
//!   past a configurable cap); for tests and programmatic inspection.
//! * [`JsonlSink`] — appends one timestamped JSON line per event to a
//!   file; selected by `DISQ_TRACE=<path>`. Write failures are counted
//!   ([`Counter::TraceWriteErrors`]) and warned about once on stderr
//!   instead of silently losing the trace.

use crate::event::TraceEvent;
use crate::metrics::Counter;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// A destination for trace events.
///
/// Sinks receive shared references because the pipeline emits from
/// multiple bench worker threads; implementations synchronize
/// internally.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &TraceEvent);
    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}
}

/// Default [`MemorySink`] cap: one million events (~hundreds of MB worst
/// case) — far above any single run, low enough that a forgotten sink on
/// a long sweep cannot exhaust memory.
pub const MEMORY_SINK_DEFAULT_CAP: usize = 1_000_000;

/// Collects events in memory, preserving emission order, bounded by a
/// drop-oldest cap.
#[derive(Debug)]
pub struct MemorySink {
    events: Mutex<VecDeque<TraceEvent>>,
    cap: usize,
    dropped: AtomicU64,
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::with_cap(MEMORY_SINK_DEFAULT_CAP)
    }
}

impl MemorySink {
    /// An empty sink with the default cap
    /// ([`MEMORY_SINK_DEFAULT_CAP`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink holding at most `cap` events; once full, the oldest
    /// event is evicted per emit (and counted, both locally and in
    /// [`Counter::TraceDroppedEvents`]). A cap of 0 drops everything.
    pub fn with_cap(cap: usize) -> Self {
        MemorySink {
            events: Mutex::new(VecDeque::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// A copy of everything collected so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().iter().cloned().collect()
    }

    /// Drains and returns everything collected so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap()).into()
    }

    /// Number of events held.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the cap since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &TraceEvent) {
        let mut events = self.events.lock().unwrap();
        while events.len() >= self.cap {
            if events.pop_front().is_none() {
                break; // cap == 0: hold nothing
            }
            self.dropped.fetch_add(1, Ordering::Relaxed);
            crate::metrics::count(Counter::TraceDroppedEvents);
        }
        if self.cap > 0 {
            events.push_back(event.clone());
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            crate::metrics::count(Counter::TraceDroppedEvents);
        }
    }
}

/// Writes one JSON line per event to a file, prefixing each line with a
/// `t_us` timestamp ([`crate::span::epoch_micros`]) so post-hoc tools
/// can place events on a shared time axis. Parsers ignore the extra key.
///
/// Lines are flushed on every emit: the sink lives in a global for the
/// process lifetime, so destructor-based flushing would silently lose
/// the tail of the trace. Tracing runs are diagnostic, not benchmarked,
/// so the extra write syscalls are acceptable. Write errors bump
/// [`Counter::TraceWriteErrors`] and warn once on stderr — a flight
/// recorder that dies mid-flight must say so.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
    warned: AtomicBool,
}

impl JsonlSink {
    /// Creates (truncating) the trace file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            warned: AtomicBool::new(false),
        })
    }

    fn note_write_error(&self, e: &std::io::Error) {
        crate::metrics::count(Counter::TraceWriteErrors);
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!("warning: trace write failed, trace file is incomplete: {e}");
        }
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &TraceEvent) {
        let line = event.to_json();
        let t_us = crate::span::epoch_micros();
        let mut out = self.out.lock().unwrap();
        let result = write_line(&mut *out, t_us, &line).and_then(|()| out.flush());
        if let Err(e) = result {
            self.note_write_error(&e);
        }
    }

    fn flush(&self) {
        if let Err(e) = self.out.lock().unwrap().flush() {
            self.note_write_error(&e);
        }
    }
}

/// Writes one JSONL line: `json` (an event's [`TraceEvent::to_json`])
/// with the `t_us` timestamp spliced in as its first key. `json` is
/// always a `{"event":…}` object, so skipping its `{` grafts cleanly.
pub(crate) fn write_line(out: &mut impl Write, t_us: u64, json: &str) -> std::io::Result<()> {
    writeln!(out, "{{\"t_us\":{t_us},{}", &json[1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(n: u32) -> TraceEvent {
        TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: n,
        }
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        for n in 0..5 {
            sink.emit(&event(n));
        }
        assert_eq!(sink.len(), 5);
        let events = sink.take();
        assert_eq!(events[4], event(4));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn memory_sink_cap_drops_oldest() {
        let before = crate::summary();
        let sink = MemorySink::with_cap(3);
        for n in 0..8 {
            sink.emit(&event(n));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 5);
        // Newest three survive, in order.
        assert_eq!(sink.events(), vec![event(5), event(6), event(7)]);
        let delta = crate::summary().delta_since(&before);
        assert!(delta.counter(Counter::TraceDroppedEvents) >= 5);
    }

    #[test]
    fn memory_sink_zero_cap_holds_nothing() {
        let sink = MemorySink::with_cap(0);
        sink.emit(&event(1));
        sink.emit(&event(2));
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 2);
    }

    #[test]
    fn null_sink_discards() {
        NullSink.emit(&event(1));
        NullSink.flush();
    }

    #[test]
    fn jsonl_sink_round_trips_through_disk_with_timestamps() {
        let path = std::env::temp_dir().join(format!(
            "disq-trace-sink-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        for n in 0..3 {
            sink.emit(&event(n));
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse(l).unwrap())
            .collect();
        assert_eq!(parsed, vec![event(0), event(1), event(2)]);
        // Every line leads with a monotone t_us stamp.
        let stamps: Vec<u64> = text
            .lines()
            .map(|l| {
                let v = crate::json::parse(l).unwrap();
                v.get("t_us").and_then(crate::json::Json::as_u64).unwrap()
            })
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        std::fs::remove_file(&path).ok();
    }

    /// Satellite: mid-run write errors must be counted and warned about,
    /// not swallowed. `/dev/full` accepts opening for write but fails
    /// every write with ENOSPC.
    #[test]
    #[cfg(target_os = "linux")]
    fn jsonl_sink_write_errors_are_counted() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let before = crate::summary();
        let sink = JsonlSink::create("/dev/full").unwrap();
        sink.emit(&event(1));
        sink.emit(&event(2));
        let delta = crate::summary().delta_since(&before);
        assert!(
            delta.counter(Counter::TraceWriteErrors) >= 2,
            "write errors uncounted: {}",
            delta.counter(Counter::TraceWriteErrors)
        );
    }
}
