//! `disq-trace`: a structured flight recorder for the DisQ pipeline.
//!
//! DisQ's quality hinges on a chain of invisible decisions — Eq. 8/9
//! dismantle scoring, SPRT verification verdicts, greedy
//! budget-distribution grants, per-phase `B_prc` spend. This crate makes
//! that chain observable without touching algorithm behaviour:
//!
//! * **Events** ([`TraceEvent`]) — typed records of each decision,
//!   emitted through a process-global [`TraceSink`]. With no sink
//!   installed (the [`NullSink`] default) the emit path is one relaxed
//!   atomic load and the event is never even constructed, so traced code
//!   stays bit-identical *and* effectively free. `DISQ_TRACE=<path>`
//!   selects a buffered [`JsonlSink`]; tests use [`MemorySink`].
//! * **Counters** ([`Counter`]) — always-on relaxed atomics for the
//!   quantities that must never be invisible (questions per kind, spend,
//!   spam-filter fallbacks, replay fall-throughs).
//! * **Timers** ([`Timer`]) — streaming log₂ histograms of the
//!   `disq-math` kernel latencies, recorded only while a sink is
//!   installed (see [`time`]).
//! * **Spans** ([`span!`], [`SpanGuard`]) — hierarchical RAII phase
//!   markers carried on a thread-local stack; each span's end event
//!   reports wall time plus the questions, kernel nanoseconds, and
//!   (with [`CountingAlloc`] installed) allocation bytes/calls
//!   attributed to it. Same contract as events: one relaxed load and
//!   an inert guard when no sink is installed.
//! * **[`RunSummary`]** — a snapshot/delta aggregate of counters and
//!   timers, rendered into bench report footers and the Prometheus
//!   exposition.
//! * **Post-hoc analysis** — [`TraceReader`] streams events back out of
//!   a JSONL file (crash-tolerant: corrupt lines are counted and
//!   skipped), [`prometheus_text`] renders a [`RunSummary`] in
//!   Prometheus exposition format, and [`MetricsServer`] serves that
//!   rendering live over HTTP (`DISQ_METRICS_ADDR=127.0.0.1:PORT`),
//!   appending any labelled [`gauge`] families (drift-detector levels).
//!   The `disq-insight` crate builds its reports on these pieces.
//!
//! The build environment has no crates.io access, so everything —
//! including the JSON writer/parser used for the JSONL format — is
//! hand-rolled on `std`.
//!
//! # Overhead contract
//!
//! | mechanism | no sink installed (default)        | sink installed            |
//! |-----------|------------------------------------|---------------------------|
//! | events    | 1 relaxed load, no construction    | construct + sink write    |
//! | counters  | relaxed `fetch_add` (always on)    | same                      |
//! | timers    | 1 relaxed load, no clock read      | 2 clock reads + histogram |

#![warn(missing_docs)]

mod alloc;
mod event;
pub mod expo;
pub mod gauge;
pub mod json;
mod metrics;
pub mod reader;
mod recorder;
pub mod serve;
mod sink;
pub mod span;

pub use alloc::{peak_alloc_bytes, watermark_start, watermark_stop, CountingAlloc};
pub use event::{AttrAudit, CandidateScore, KindSpend, TraceEvent};
pub use expo::prometheus_text;
pub use metrics::{
    count, count_n, record_timer, summary, Counter, RunSummary, Timer, TimerStats, COUNTER_COUNT,
    HIST_BUCKETS, TIMER_COUNT,
};
pub use reader::{SkippedLine, TraceReader, MAX_SKIP_DETAILS};
pub use recorder::{FlightRecorder, RECORDER_DEFAULT_CAP, RECORDER_DEFAULT_RETAIN};
pub use serve::{MetricsServer, METRICS_ENV_VAR};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink, MEMORY_SINK_DEFAULT_CAP};
pub use span::{thread_alloc_bytes, thread_allocs, RequestGuard, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once, RwLock};
use std::time::Instant;

/// Fast-path gate: true iff a sink or a flight recorder is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);
static RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);
static ENV_INIT: Once = Once::new();

/// Environment variable naming the JSONL trace file.
pub const TRACE_ENV_VAR: &str = "DISQ_TRACE";

/// True iff a sink or flight recorder is installed. Instrumented code
/// uses this to skip building expensive event payloads (and to gate
/// kernel timers).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Recomputes the fast-path gate from both destination slots. Called
/// after a slot empties; installs set the gate directly.
fn refresh_active() {
    let on = SINK.read().unwrap().is_some() || RECORDER.read().unwrap().is_some();
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Allocates a process-unique audit id, correlating one
/// [`TraceEvent::QueryAudit`] ledger with its
/// [`TraceEvent::ObjectAudit`] rows. `(label, seed, target)` alone is
/// not unique: sweeps re-run the same cell identity per budget point,
/// and parallel cells interleave their events in the shared sink.
pub fn next_audit_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Installs `sink` as the process-global trace destination, replacing
/// any previous sink (which is flushed and returned).
pub fn install(sink: Arc<dyn TraceSink>) -> Option<Arc<dyn TraceSink>> {
    let old = SINK.write().unwrap().replace(sink);
    ACTIVE.store(true, Ordering::Relaxed);
    if let Some(old) = &old {
        old.flush();
    }
    old
}

/// Removes the global sink (flushing it), returning to the free
/// `NullSink` behaviour (tracing stays active if a flight recorder is
/// still installed).
pub fn uninstall() -> Option<Arc<dyn TraceSink>> {
    let old = SINK.write().unwrap().take();
    refresh_active();
    if let Some(old) = &old {
        old.flush();
    }
    old
}

/// Installs `rec` as the process-global flight recorder, replacing and
/// returning any previous one. Events then fan out to both the sink
/// (if any) and the recorder.
pub fn install_recorder(rec: Arc<FlightRecorder>) -> Option<Arc<FlightRecorder>> {
    let old = RECORDER.write().unwrap().replace(rec);
    ACTIVE.store(true, Ordering::Relaxed);
    old
}

/// Removes the global flight recorder, returning it (tracing stays
/// active if a sink is still installed).
pub fn uninstall_recorder() -> Option<Arc<FlightRecorder>> {
    let old = RECORDER.write().unwrap().take();
    refresh_active();
    old
}

/// The installed flight recorder, if any.
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    RECORDER.read().unwrap().clone()
}

/// Installs a [`JsonlSink`] at the path named by `DISQ_TRACE` and starts
/// the metrics endpoint named by `DISQ_METRICS_ADDR`, once per process.
/// Idempotent and cheap to call from every entry point (`preprocess`,
/// the bench harness, examples); does nothing when the variables are
/// unset, or when a sink was already installed manually.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        serve::init_from_env();
        let Ok(path) = std::env::var(TRACE_ENV_VAR) else {
            return;
        };
        if path.is_empty() || active() {
            return;
        }
        match JsonlSink::create(&path) {
            Ok(sink) => {
                install(Arc::new(sink));
            }
            Err(e) => {
                metrics::count(Counter::TraceWriteErrors);
                eprintln!("warning: {TRACE_ENV_VAR}={path}: cannot create trace file: {e}");
            }
        }
    });
}

/// Emits one event. `build` runs only when a sink is installed, so
/// callers can assemble payloads (labels, score vectors) inside the
/// closure at zero cost on the default path.
#[inline]
pub fn emit(build: impl FnOnce() -> TraceEvent) {
    if !active() {
        return;
    }
    let sink = SINK.read().unwrap().clone();
    let rec = RECORDER.read().unwrap().clone();
    if sink.is_none() && rec.is_none() {
        return;
    }
    let event = build();
    if let Some(rec) = rec {
        rec.record(&event);
    }
    if let Some(sink) = sink {
        sink.emit(&event);
    }
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = SINK.read().unwrap().as_ref() {
        sink.flush();
    }
}

/// Runs `f`, recording its duration under `timer` when tracing is
/// active. With no sink installed this is exactly `f()` plus one
/// relaxed atomic load — no clock is read.
#[inline]
pub fn time<T>(timer: Timer, f: impl FnOnce() -> T) -> T {
    if !active() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record_timer(timer, start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The sink slot is process-global; tests touching it serialize.
    static GLOBAL_SINK_LOCK: Mutex<()> = Mutex::new(());

    fn event() -> TraceEvent {
        TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 3,
        }
    }

    #[test]
    fn no_sink_means_inactive_and_silent() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        uninstall();
        assert!(!active());
        let mut built = false;
        emit(|| {
            built = true;
            event()
        });
        assert!(!built, "event must not be constructed without a sink");
    }

    #[test]
    fn install_emit_uninstall() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        assert!(active());
        emit(event);
        emit(event);
        uninstall();
        assert!(!active());
        emit(event); // dropped
        assert_eq!(sink.take().len(), 2);
    }

    #[test]
    fn replacing_sink_returns_old() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let first = Arc::new(MemorySink::new());
        install(first.clone());
        let second = Arc::new(MemorySink::new());
        let old = install(second.clone()).expect("old sink returned");
        emit(event);
        uninstall();
        assert!(Arc::ptr_eq(&(first as Arc<dyn TraceSink>), &old));
        assert_eq!(second.len(), 1);
    }

    #[test]
    fn recorder_alone_activates_tracing_and_captures_events() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        uninstall();
        uninstall_recorder();
        assert!(!active());
        let rec = Arc::new(FlightRecorder::new());
        install_recorder(rec.clone());
        assert!(active(), "recorder alone must activate tracing");
        emit(event);
        assert_eq!(rec.len(), 1);
        // A sink composes: both destinations see subsequent events.
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        emit(event);
        assert_eq!(rec.len(), 2);
        assert_eq!(sink.len(), 1);
        // Removing only the sink keeps tracing active.
        uninstall();
        assert!(active());
        uninstall_recorder();
        assert!(!active());
    }

    #[test]
    fn time_runs_closure_in_both_modes() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        uninstall();
        assert_eq!(time(Timer::QuadFormSolve, || 7), 7);
        install(Arc::new(MemorySink::new()));
        let before = summary();
        assert_eq!(time(Timer::QuadFormSolve, || 8), 8);
        let delta = summary().delta_since(&before);
        assert_eq!(delta.timer(Timer::QuadFormSolve).count, 1);
        uninstall();
    }
}
