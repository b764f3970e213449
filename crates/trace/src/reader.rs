//! Streaming, crash-tolerant reading of JSONL trace files.
//!
//! A trace written by [`crate::JsonlSink`] is usually pristine, but a
//! trace is most wanted after a crash: the final line may be truncated
//! mid-write, a disk may corrupt bytes, or a file may mix trace lines
//! with unrelated noise. [`TraceReader`] therefore
//! yields every line that parses into a typed [`TraceEvent`] and *skips*
//! (while counting) every line that does not, so one bad byte never
//! hides an otherwise-complete run.

use crate::event::TraceEvent;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// How many skipped-line diagnostics a reader retains (the count is
/// always exact; only the per-line detail is capped).
pub const MAX_SKIP_DETAILS: usize = 16;

/// One unparseable line's diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLine {
    /// 1-based line number in the stream.
    pub line: usize,
    /// Parse error text.
    pub error: String,
    /// Prefix of the offending line (truncated for display).
    pub snippet: String,
}

/// Streaming iterator over the events of a JSONL trace.
///
/// Iterate it like any `Iterator<Item = TraceEvent>`; afterwards,
/// [`TraceReader::skipped`] and [`TraceReader::skip_details`] report
/// what was dropped. Lines are read incrementally, so arbitrarily large
/// traces stream in constant memory. Invalid UTF-8 in the underlying
/// byte stream is treated like any other corrupt line: counted and
/// skipped, never a panic.
#[derive(Debug)]
pub struct TraceReader<R> {
    input: R,
    line_no: usize,
    parsed: usize,
    skipped: usize,
    details: Vec<SkippedLine>,
    buf: Vec<u8>,
    last_t_us: Option<u64>,
}

impl TraceReader<BufReader<File>> {
    /// Opens a trace file for streaming.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(TraceReader::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps any buffered reader (tests use `&[u8]` slices).
    pub fn new(input: R) -> Self {
        TraceReader {
            input,
            line_no: 0,
            parsed: 0,
            skipped: 0,
            details: Vec::new(),
            buf: Vec::new(),
            last_t_us: None,
        }
    }

    /// The `t_us` timestamp of the most recently yielded event, when the
    /// line carried one. [`crate::JsonlSink`] stamps every line; traces
    /// from other writers may omit it, in which case this stays at the
    /// last seen value (initially `None`).
    pub fn last_t_us(&self) -> Option<u64> {
        self.last_t_us
    }

    /// Events successfully parsed so far.
    pub fn parsed(&self) -> usize {
        self.parsed
    }

    /// Non-empty lines that failed to parse so far.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Diagnostics for the first [`MAX_SKIP_DETAILS`] skipped lines.
    pub fn skip_details(&self) -> &[SkippedLine] {
        &self.details
    }

    /// Renders a one-line warning about skipped lines, or `None` when
    /// the whole stream parsed.
    pub fn skip_warning(&self) -> Option<String> {
        if self.skipped == 0 {
            return None;
        }
        let first = self.details.first();
        Some(match first {
            Some(d) => format!(
                "warning: skipped {} corrupt line{} (first at line {}: {})",
                self.skipped,
                if self.skipped == 1 { "" } else { "s" },
                d.line,
                d.error,
            ),
            None => format!("warning: skipped {} corrupt lines", self.skipped),
        })
    }

    fn record_skip(&mut self, error: String, snippet: &str) {
        self.skipped += 1;
        if self.details.len() < MAX_SKIP_DETAILS {
            self.details.push(SkippedLine {
                line: self.line_no,
                error,
                snippet: snippet.chars().take(80).collect(),
            });
        }
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        loop {
            self.buf.clear();
            // read_until instead of read_line: invalid UTF-8 must be a
            // skipped line, not an I/O error that aborts the stream.
            match self.input.read_until(b'\n', &mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.line_no += 1;
                    self.record_skip(format!("read error: {e}"), "");
                    return None;
                }
            }
            self.line_no += 1;
            let line = match std::str::from_utf8(&self.buf) {
                Ok(s) => s.trim(),
                Err(e) => {
                    let lossy = String::from_utf8_lossy(&self.buf);
                    let snippet = lossy.trim().to_string();
                    self.record_skip(format!("invalid UTF-8: {e}"), &snippet);
                    continue;
                }
            };
            if line.is_empty() {
                continue;
            }
            // Parse the JSON once; pull the sink's t_us stamp off the
            // same value the event is decoded from.
            match crate::json::parse(line).and_then(|v| {
                let t_us = v.get("t_us").and_then(crate::json::Json::as_u64);
                TraceEvent::from_json(&v).map(|e| (e, t_us))
            }) {
                Ok((event, t_us)) => {
                    self.parsed += 1;
                    if t_us.is_some() {
                        self.last_t_us = t_us;
                    }
                    return Some(event);
                }
                Err(e) => {
                    let snippet = line.to_string();
                    self.record_skip(e, &snippet);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> TraceReader<&[u8]> {
        TraceReader::new(bytes)
    }

    #[test]
    fn clean_stream_parses_everything() {
        let a = TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 2,
        };
        let b = TraceEvent::RunStart {
            label: "x".into(),
            seed: 7,
        };
        let text = format!("{}\n{}\n", a.to_json(), b.to_json());
        let mut r = reader(text.as_bytes());
        assert_eq!(r.next(), Some(a));
        assert_eq!(r.next(), Some(b));
        assert_eq!(r.next(), None);
        assert_eq!(r.parsed(), 2);
        assert_eq!(r.skipped(), 0);
        assert!(r.skip_warning().is_none());
    }

    #[test]
    fn truncated_tail_is_skipped_with_count() {
        let good = TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 2,
        }
        .to_json();
        let truncated = &good[..good.len() - 5];
        let text = format!("{good}\n{truncated}");
        let events: Vec<_> = {
            let mut r = reader(text.as_bytes());
            let e: Vec<_> = r.by_ref().collect();
            assert_eq!(r.skipped(), 1);
            assert_eq!(r.skip_details()[0].line, 2);
            assert!(r.skip_warning().unwrap().contains("skipped 1 corrupt line"));
            e
        };
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn corrupt_middle_lines_do_not_hide_later_events() {
        let good = TraceEvent::RunStart {
            label: "x".into(),
            seed: 1,
        }
        .to_json();
        let text = format!("{good}\nnot json at all\n{{\"event\":\"nope\"}}\n\n{good}\n");
        let mut r = reader(text.as_bytes());
        assert_eq!(r.by_ref().count(), 2);
        assert_eq!(r.parsed(), 2);
        assert_eq!(r.skipped(), 2); // blank line is not counted
        assert_eq!(r.skip_details().len(), 2);
        assert_eq!(r.skip_details()[0].line, 2);
        assert_eq!(r.skip_details()[1].line, 3);
    }

    #[test]
    fn invalid_utf8_line_is_skipped() {
        let good = TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 3,
        }
        .to_json();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(good.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xff, 0xfe, 0x80]);
        bytes.push(b'\n');
        bytes.extend_from_slice(good.as_bytes());
        let mut r = reader(&bytes);
        assert_eq!(r.by_ref().count(), 2);
        assert_eq!(r.skipped(), 1);
        assert!(r.skip_details()[0].error.contains("UTF-8"));
    }

    #[test]
    fn skip_detail_list_is_capped_but_count_exact() {
        let mut text = String::new();
        for i in 0..(MAX_SKIP_DETAILS + 10) {
            text.push_str(&format!("garbage {i}\n"));
        }
        let mut r = reader(text.as_bytes());
        assert_eq!(r.by_ref().count(), 0);
        assert_eq!(r.skipped(), MAX_SKIP_DETAILS + 10);
        assert_eq!(r.skip_details().len(), MAX_SKIP_DETAILS);
    }

    #[test]
    fn t_us_stamps_are_surfaced() {
        let a = TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 2,
        };
        let stamped = format!("{{\"t_us\":777,{}", &a.to_json()[1..]);
        let plain = a.to_json();
        let text = format!("{stamped}\n{plain}\n");
        let mut r = reader(text.as_bytes());
        assert!(r.last_t_us().is_none());
        assert_eq!(r.next(), Some(a.clone()));
        assert_eq!(r.last_t_us(), Some(777));
        assert_eq!(r.next(), Some(a));
        // Unstamped line keeps the last seen stamp.
        assert_eq!(r.last_t_us(), Some(777));
    }

    #[test]
    fn open_missing_file_errors() {
        assert!(TraceReader::open("/nonexistent/definitely/not/here.jsonl").is_err());
    }
}
