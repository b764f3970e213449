//! Per-request capture: the span and `batch_flush` events one thread
//! emits while it serves one request, kept in that thread's memory so
//! the request can be dumped *after the fact* if it turns out slow,
//! without tracing everything to disk.
//!
//! A capture only sees events while tracing is active, so whoever may
//! dump holds a [`crate::CaptureGate`] for as long as it may start
//! captures. Nothing outlives its request: [`Capture::finish`] hands the
//! events to the caller, and a thread with no capture keeps nothing.
//! A capture holds at most `CAP` (65 536) events; later ones are dropped and
//! counted in [`Counter::TraceDroppedEvents`], which leaves the dump's
//! span forest unclosed, so `disq-insight slow` flags it.
//!
//! Dumps use the exact [`crate::JsonlSink`] line format
//! (`{"t_us":…,…}`), so [`crate::TraceReader`] and every `disq-insight`
//! subcommand read them unchanged.

use crate::event::TraceEvent;
use crate::metrics::{count, Counter};
use crate::span::epoch_micros;
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::marker::PhantomData;
use std::path::Path;

/// Hard cap on the events one capture holds (~a few MB worst case).
const CAP: usize = 65_536;

thread_local! {
    // This thread's open capture: `(t_us, event)` pairs, oldest first.
    static CAPTURED: RefCell<Option<Vec<(u64, TraceEvent)>>> = const { RefCell::new(None) };
}

/// An RAII guard for one capture on the current thread. `!Send`: the
/// events it keeps are the ones its own thread emits.
#[must_use = "the capture ends when its guard drops"]
pub struct Capture {
    _not_send: PhantomData<*const ()>,
}

impl Capture {
    /// Starts keeping this thread's `span_start`, `span_end` and
    /// `batch_flush` events, each stamped with the shared trace clock.
    pub fn start() -> Capture {
        CAPTURED.with(|c| *c.borrow_mut() = Some(Vec::new()));
        Capture {
            _not_send: PhantomData,
        }
    }

    /// Ends the capture and returns its `(t_us, event)` pairs, oldest
    /// first.
    pub fn finish(self) -> Vec<(u64, TraceEvent)> {
        CAPTURED.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        let _ = CAPTURED.try_with(|c| c.borrow_mut().take());
    }
}

/// True iff this thread has an open capture.
pub(crate) fn capturing() -> bool {
    CAPTURED.with(|c| c.borrow().is_some())
}

/// Moves `event` into this thread's open capture, if any and if it is a
/// kind a dump keeps.
pub(crate) fn keep(event: TraceEvent) {
    if !matches!(
        event,
        TraceEvent::SpanStart { .. } | TraceEvent::SpanEnd { .. } | TraceEvent::BatchFlush { .. }
    ) {
        return;
    }
    CAPTURED.with(|c| {
        let mut captured = c.borrow_mut();
        let Some(events) = captured.as_mut() else {
            return;
        };
        if events.len() < CAP {
            events.push((epoch_micros(), event));
        } else {
            count(Counter::TraceDroppedEvents);
        }
    });
}

/// Writes `events` to `path` in the JSONL sink's line format.
pub fn write_jsonl(events: &[(u64, TraceEvent)], path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (t_us, event) in events {
        crate::sink::write_line(&mut out, *t_us, &event.to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent: None,
            tid: 1,
            req: 9,
            label: "request".into(),
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
    fn events_past_the_cap_are_dropped_and_counted() {
        let capture = Capture::start();
        for id in 0..CAP as u64 {
            keep(start(id));
        }
        let before = crate::summary().counter(Counter::TraceDroppedEvents);
        keep(start(CAP as u64));
        let after = crate::summary().counter(Counter::TraceDroppedEvents);
        let events = capture.finish();
        assert_eq!(events.len(), CAP);
        assert!(matches!(
            events.last(),
            Some((_, TraceEvent::SpanStart { id, .. })) if *id == CAP as u64 - 1
        ));
        assert!(after > before, "the dropped event is counted");
        assert!(!capturing(), "finish ends the capture");
    }

    #[test]
    fn dump_lines_parse_like_jsonl_sink_output() {
        let capture = Capture::start();
        keep(start(1));
        keep(TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 3,
        });
        keep(end(1));
        let events = capture.finish();
        assert_eq!(events.len(), 2, "only span and batch_flush events are kept");
        let dir = std::env::temp_dir().join(format!("disq-capture-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.jsonl");
        write_jsonl(&events, &path).expect("dump");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("line parses");
            assert!(v.get("t_us").is_some(), "{line}");
            TraceEvent::from_json(&v).expect("event decodes");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
