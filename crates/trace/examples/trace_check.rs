//! Validates a `DISQ_TRACE` JSONL file: every line must parse back into
//! a typed [`disq_trace::TraceEvent`].
//!
//! Usage: `cargo run -p disq-trace --example trace_check -- <file>
//! [--require-coverage]`
//!
//! Span discipline is always validated: every `span_end` must match an
//! open `span_start` (by id), and no span may be left open at EOF.
//!
//! With `--require-coverage` (the CI smoke mode) the file must contain
//! at least one dismantle decision, one SPRT verdict, one budget phase
//! transition, at least one span pair, and the audit ledger — a
//! `query_audit`, its `object_audit` rows and the `drift_update`
//! detector summaries (all unconditional on a traced run). Alarm-only
//! events (`drift_detected`) and spam-dependent events
//! (`spam_decision`) are *not* required: a well-behaved crowd
//! legitimately never emits them.

use disq_trace::TraceEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: trace_check <trace.jsonl> [--require-coverage]");
        return ExitCode::FAILURE;
    };
    let require_coverage = args.any(|a| a == "--require-coverage");

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut total = 0usize;
    let mut open_spans: BTreeSet<u64> = BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse(line) {
            Ok(event) => {
                match &event {
                    TraceEvent::SpanStart { id, .. } if !open_spans.insert(*id) => {
                        eprintln!(
                            "trace_check: {path}:{}: span id {id} started twice",
                            lineno + 1
                        );
                        return ExitCode::FAILURE;
                    }
                    TraceEvent::SpanEnd { id, .. } if !open_spans.remove(id) => {
                        eprintln!(
                            "trace_check: {path}:{}: span_end {id} without a \
                             matching span_start",
                            lineno + 1
                        );
                        return ExitCode::FAILURE;
                    }
                    _ => {}
                }
                *counts.entry(event.name()).or_default() += 1;
                total += 1;
            }
            Err(e) => {
                eprintln!("trace_check: {path}:{}: {e}\n  {line}", lineno + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if !open_spans.is_empty() {
        eprintln!(
            "trace_check: {path}: {} span(s) never closed: {:?}",
            open_spans.len(),
            open_spans.iter().take(8).collect::<Vec<_>>()
        );
        return ExitCode::FAILURE;
    }

    println!("trace_check: {path}: {total} events parsed");
    for (name, n) in &counts {
        println!("  {name:>18} {n}");
    }

    if total == 0 {
        eprintln!("trace_check: {path} holds no events");
        return ExitCode::FAILURE;
    }
    if require_coverage {
        for required in [
            "dismantle_choice",
            "sprt_verdict",
            "phase_spend",
            "span_start",
            "span_end",
            "query_audit",
            "object_audit",
            "drift_update",
            "worker_profile",
            "worker_stats",
        ] {
            if !TraceEvent::KINDS.contains(&required) {
                eprintln!("trace_check: required kind {required} is not an event kind");
                return ExitCode::FAILURE;
            }
            if !counts.contains_key(required) {
                eprintln!("trace_check: {path} has no {required} events");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
