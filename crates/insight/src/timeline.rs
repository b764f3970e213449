//! Chrome trace-event export: turn a JSONL trace into a timeline that
//! `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) can open.
//!
//! Mapping (see the Trace Event Format spec):
//!
//! * `span_start`/`span_end` pairs matched by the shared
//!   [`SpanJoin`] → `"ph":"X"` *complete* events, emitted in close
//!   order: `ts` is the start's `t_us` stamp, `dur` is the span's own
//!   nanosecond-precise duration, `tid` the recording thread, and
//!   `args` carries the span detail plus its per-span resource deltas
//!   (allocation bytes/calls, crowd questions, kernel nanoseconds);
//! * `phase_spend` and `trio_size` → `"ph":"C"` *counter* events, so the
//!   viewer plots budget spend and trio growth as tracks;
//! * every other event → a `"ph":"i"` process-scoped *instant* on the
//!   synthetic tid 0, preserving the full decision stream on the
//!   timeline without flooding the thread tracks;
//! * process/thread names → `"ph":"M"` metadata records.
//!
//! Traces without `t_us` stamps (hand-written fixtures, old files) fall
//! back to a synthetic clock that advances one microsecond per event —
//! ordering survives even when wall time was never recorded.

use crate::flame::SpanJoin;
use disq_trace::json::{self, Json};
use disq_trace::{TraceEvent, TraceReader};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::BufRead;

/// Incremental Chrome-trace builder; feed events in stream order.
#[derive(Debug, Default)]
pub struct Timeline {
    entries: Vec<String>,
    tids: BTreeSet<u64>,
    /// Synthetic clock for unstamped traces (µs; advances per event).
    fallback_us: u64,
    /// The span join, stamped with each `span_start` line's time.
    pub spans: SpanJoin,
    /// Completed (matched) spans.
    pub spans_complete: usize,
    /// Non-span events exported as instants/counters.
    pub instants: usize,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a timeline by draining `reader` (using its `t_us` stamps).
    pub fn from_reader<R: BufRead>(reader: &mut TraceReader<R>) -> Self {
        let mut tl = Timeline::new();
        while let Some(event) = reader.next() {
            tl.add(&event, reader.last_t_us());
        }
        tl
    }

    /// Folds one event; `t_us` is the line's timestamp when stamped.
    pub fn add(&mut self, event: &TraceEvent, t_us: Option<u64>) {
        let ts = t_us.unwrap_or(self.fallback_us);
        self.fallback_us = ts + 1;
        match event {
            TraceEvent::SpanStart { tid, .. } => {
                self.tids.insert(*tid);
                self.spans.add(event, ts);
            }
            TraceEvent::SpanEnd {
                id,
                tid,
                dur_ns,
                alloc_bytes,
                allocs,
                questions,
                kernel_ns,
            } => {
                let Some(span) = self.spans.add(event, ts) else {
                    return;
                };
                self.spans_complete += 1;
                let mut e = String::from("{\"name\":");
                json::write_str(&mut e, &span.label);
                let _ = write!(
                    e,
                    ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":",
                    span.start_us
                );
                json::write_f64(&mut e, *dur_ns as f64 / 1000.0);
                let _ = write!(e, ",\"pid\":1,\"tid\":{tid},\"args\":{{\"detail\":");
                json::write_str(&mut e, &span.detail);
                let _ = write!(e, ",\"id\":{id},\"parent\":");
                match span.parent {
                    Some(p) => {
                        let _ = write!(e, "{p}");
                    }
                    None => e.push_str("null"),
                }
                if span.req != 0 {
                    let _ = write!(e, ",\"req\":{}", span.req);
                }
                let _ = write!(
                    e,
                    ",\"alloc_bytes\":{alloc_bytes},\"allocs\":{allocs},\
                     \"questions\":{questions},\"kernel_ns\":{kernel_ns}}}}}"
                );
                self.entries.push(e);
            }
            TraceEvent::PhaseSpend {
                spent_millicents, ..
            } => {
                self.instants += 1;
                self.entries.push(format!(
                    "{{\"name\":\"spend\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                     \"args\":{{\"millicents\":{spent_millicents}}}}}"
                ));
            }
            TraceEvent::TrioSize { n_targets, n_attrs } => {
                self.instants += 1;
                self.entries.push(format!(
                    "{{\"name\":\"trio\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                     \"args\":{{\"targets\":{n_targets},\"attrs\":{n_attrs}}}}}"
                ));
            }
            other => {
                self.instants += 1;
                let mut e = String::from("{\"name\":");
                json::write_str(&mut e, other.name());
                let _ = write!(
                    e,
                    ",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{ts},\"pid\":1,\
                     \"tid\":0,\"s\":\"p\"}}"
                );
                self.entries.push(e);
            }
        }
    }

    /// Renders the complete `{"traceEvents":[...]}` JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, entry: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(entry);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{\"name\":\"disq\"}}",
        );
        push(
            &mut out,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"events\"}}",
        );
        for tid in &self.tids {
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"worker {tid}\"}}}}"
                ),
            );
        }
        for e in &self.entries {
            push(&mut out, e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// One-line stderr-style summary of what was exported.
    pub fn summary_line(&self) -> String {
        format!(
            "timeline: {} spans, {} instants/counters{}{}",
            self.spans_complete,
            self.instants,
            match self.spans.open_spans() {
                0 => String::new(),
                n => format!(", {n} spans left open (truncated trace?)"),
            },
            match self.spans.unmatched_ends {
                0 => String::new(),
                n => format!(", {n} unmatched span_ends"),
            },
        )
    }
}

/// Validates a rendered timeline: parses the JSON and checks that every
/// element of `traceEvents` is an object with the mandatory `ph`/`name`
/// keys. Returns the number of trace events.
pub fn validate(rendered: &str) -> Result<usize, String> {
    let doc = json::parse(rendered)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if !matches!(ph, "X" | "i" | "C" | "M") {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if ph == "X" {
            e.get("dur")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i}: X without dur"))?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(id: u64, parent: Option<u64>, label: &str) -> TraceEvent {
        TraceEvent::SpanStart {
            id,
            parent,
            tid: 1,
            req: 0,
            label: label.into(),
            detail: format!("d{id}"),
        }
    }

    fn end(id: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent::SpanEnd {
            id,
            tid: 1,
            dur_ns,
            alloc_bytes: 100 * id,
            allocs: id,
            questions: 0,
            kernel_ns: 0,
        }
    }

    #[test]
    fn nested_spans_become_complete_events() {
        let mut tl = Timeline::new();
        tl.add(&start(1, None, "preprocess"), Some(10));
        tl.add(&start(2, Some(1), "examples"), Some(20));
        tl.add(&end(2, 5_000), Some(25));
        tl.add(&end(1, 50_000), Some(60));
        assert_eq!(tl.spans_complete, 2);
        assert_eq!(tl.spans.open_spans(), 0);
        let rendered = tl.render();
        let n = validate(&rendered).unwrap();
        assert_eq!(n, 3 + 2, "metadata (process, tid0, tid1) + 2 spans");
        // The inner span starts at its own stamp with dur in µs.
        let doc = json::parse(&rendered).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("examples"))
            .unwrap();
        assert_eq!(inner.get("ts").and_then(Json::as_u64), Some(20));
        assert_eq!(inner.get("dur").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            inner
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn counters_and_instants_exported() {
        let mut tl = Timeline::new();
        tl.add(
            &TraceEvent::TrioSize {
                n_targets: 1,
                n_attrs: 4,
            },
            Some(5),
        );
        tl.add(
            &TraceEvent::RunStart {
                label: "x".into(),
                seed: 1,
            },
            Some(6),
        );
        assert_eq!(tl.instants, 2);
        let rendered = tl.render();
        validate(&rendered).unwrap();
        assert!(rendered.contains("\"ph\":\"C\""), "{rendered}");
        assert!(rendered.contains("\"run_start\""), "{rendered}");
    }

    #[test]
    fn unstamped_traces_get_synthetic_monotone_clock() {
        let mut tl = Timeline::new();
        tl.add(&start(1, None, "a"), None);
        tl.add(&end(1, 1_000), None);
        assert_eq!(tl.spans_complete, 1);
        let rendered = tl.render();
        validate(&rendered).unwrap();
        assert!(rendered.contains("\"ts\":0"), "{rendered}");
    }

    #[test]
    fn truncated_trace_reports_open_spans() {
        let mut tl = Timeline::new();
        tl.add(&start(1, None, "a"), Some(1));
        tl.add(&end(9, 1_000), Some(2)); // bogus end
        assert_eq!(tl.spans.open_spans(), 1);
        assert_eq!(tl.spans.unmatched_ends, 1);
        assert!(tl.summary_line().contains("left open"));
        validate(&tl.render()).unwrap();
    }

    #[test]
    fn labels_with_quotes_are_escaped() {
        let mut tl = Timeline::new();
        tl.add(&start(1, None, "we\"ird\\label"), Some(1));
        tl.add(&end(1, 10), Some(2));
        validate(&tl.render()).unwrap();
    }

    /// Two serving threads interleave request-stamped spans into one
    /// sink; the timeline must close every span and keep each
    /// request's spans grouped under its id.
    #[test]
    fn interleaved_request_spans_group_by_request_id() {
        use disq_trace::MemorySink;
        use std::sync::{Arc, Barrier};

        let sink = Arc::new(MemorySink::new());
        disq_trace::install(sink.clone());
        let barrier = Arc::new(Barrier::new(2));
        std::thread::scope(|scope| {
            for req_id in [101u64, 202u64] {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let _scope = disq_trace::span::enter_request(req_id);
                    let _outer = disq_trace::span!("request", "req {req_id}");
                    barrier.wait(); // both requests open before either closes
                    for i in 0..3 {
                        let _inner = disq_trace::span!("object", "o={i}");
                    }
                });
            }
        });
        disq_trace::uninstall();

        let mut tl = Timeline::new();
        for event in sink.take() {
            tl.add(&event, None);
        }
        assert_eq!(tl.spans.unmatched_ends, 0, "every end matched a start");
        assert_eq!(tl.spans.open_spans(), 0, "every span closed");
        assert_eq!(tl.spans_complete, 8, "2 × (1 request + 3 objects)");

        let rendered = tl.render();
        validate(&rendered).unwrap();
        let doc = json::parse(&rendered).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        for req_id in [101u64, 202u64] {
            let n = events
                .iter()
                .filter(|e| {
                    e.get("args")
                        .and_then(|a| a.get("req"))
                        .and_then(Json::as_u64)
                        == Some(req_id)
                })
                .count();
            assert_eq!(n, 4, "request {req_id} keeps exactly its own spans");
        }
    }
}
