//! `disq-trace`: structured tracing for the DisQ pipeline.
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
//!   spam-filter fallbacks).
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
//! * **Captures** ([`Capture`]) — one request's span and `batch_flush`
//!   events, kept by the thread that serves it so a slow request can be
//!   dumped after the fact (`disq-serve`'s `DISQ_SLOW_DIR`).
//! * **Post-hoc analysis** — [`TraceReader`] streams events back out of
//!   a JSONL file (crash-tolerant: corrupt lines are counted and
//!   skipped), and [`prometheus_text`] renders a [`RunSummary`] in
//!   Prometheus exposition format, to which a component appends its own
//!   labelled [`gauge::GaugeSet`] (the `disq-serve` daemon's `/metrics`).
//!   The `disq-insight` crate builds its reports on these pieces.
//!
//! The build environment has no crates.io access, so everything —
//! including the JSON writer/parser used for the JSONL format — is
//! hand-rolled on `std`.
//!
//! # Overhead contract
//!
//! Tracing is *active* while a sink is installed or a [`CaptureGate`] is
//! held; everything below costs the left column otherwise.
//!
//! | mechanism | tracing inactive (default)         | tracing active            |
//! |-----------|------------------------------------|---------------------------|
//! | events    | 1 relaxed load, no construction    | construct + sink write    |
//! | captures  | nothing kept                       | move into the thread's [`Capture`], 1 clock read |
//! | counters  | relaxed `fetch_add` (always on)    | same                      |
//! | timers    | 1 relaxed load, no clock read      | 2 clock reads + histogram |

#![warn(missing_docs)]

mod alloc;
mod capture;
mod event;
pub mod expo;
pub mod gauge;
pub mod json;
mod metrics;
pub mod reader;
mod sink;
pub mod span;

pub use alloc::{peak_alloc_bytes, watermark_start, watermark_stop, CountingAlloc};
pub use capture::{write_jsonl, Capture};
pub use event::{AttrAudit, CandidateScore, KindSpend, TraceEvent};
pub use expo::prometheus_text;
pub use metrics::{
    count, count_n, record_timer, summary, Counter, RunSummary, Timer, TimerStats, COUNTER_COUNT,
    HIST_BUCKETS, TIMER_COUNT,
};
pub use reader::{SkippedLine, TraceReader, MAX_SKIP_DETAILS};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink, MEMORY_SINK_DEFAULT_CAP};
pub use span::{thread_alloc_bytes, thread_allocs, RequestGuard, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once, RwLock};
use std::time::Instant;

/// Fast-path gate: true iff a sink is installed or a capture gate held.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static TARGETS: RwLock<Targets> = RwLock::new(Targets {
    sink: None,
    gates: 0,
});
static ENV_INIT: Once = Once::new();

/// What tracing serves: the installed sink and the capture gates held.
struct Targets {
    sink: Option<Arc<dyn TraceSink>>,
    gates: usize,
}

impl Targets {
    /// Stores the fast-path gate. Callers hold `TARGETS`'s write lock, so
    /// a sink change and a gate change cannot interleave their stores
    /// and leave the gate stale.
    fn publish(&self) {
        ACTIVE.store(self.sink.is_some() || self.gates > 0, Ordering::Relaxed);
    }
}

/// Environment variable naming the JSONL trace file.
pub const TRACE_ENV_VAR: &str = "DISQ_TRACE";

/// True iff a sink is installed or a [`CaptureGate`] is held.
/// Instrumented code uses this to skip building expensive event
/// payloads (and to gate kernel timers).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Keeps tracing active while it lives, so [`Capture`]s see events with
/// no sink installed. Gates count: dropping one leaves any other in
/// force.
#[must_use = "tracing stays active only while the gate lives"]
pub struct CaptureGate {
    _private: (),
}

impl CaptureGate {
    /// Holds a gate until the returned value drops.
    pub fn hold() -> CaptureGate {
        let mut targets = TARGETS.write().unwrap();
        targets.gates += 1;
        targets.publish();
        CaptureGate { _private: () }
    }
}

impl Drop for CaptureGate {
    fn drop(&mut self) {
        let mut targets = TARGETS.write().unwrap_or_else(|e| e.into_inner());
        targets.gates -= 1;
        targets.publish();
    }
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
    let mut targets = TARGETS.write().unwrap();
    let old = targets.sink.replace(sink);
    targets.publish();
    drop(targets);
    if let Some(old) = &old {
        old.flush();
    }
    old
}

/// Removes the global sink (flushing it), returning to the free
/// `NullSink` behaviour (tracing stays active while a [`CaptureGate`]
/// is held).
pub fn uninstall() -> Option<Arc<dyn TraceSink>> {
    let mut targets = TARGETS.write().unwrap();
    let old = targets.sink.take();
    targets.publish();
    drop(targets);
    if let Some(old) = &old {
        old.flush();
    }
    old
}

/// Installs a [`JsonlSink`] at the path named by `DISQ_TRACE`, once per
/// process. Idempotent and cheap to call from every entry point
/// (`preprocess`, the bench harness, examples); does nothing when the
/// variable is unset, or when a sink was already installed manually.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(path) = std::env::var(TRACE_ENV_VAR) else {
            return;
        };
        if path.is_empty() || TARGETS.read().unwrap().sink.is_some() {
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

/// Emits one event to the installed sink, then moves it into this
/// thread's open [`Capture`]. `build` runs only when one of the two
/// exists, so callers can assemble payloads (labels, score vectors)
/// inside the closure at zero cost on the default path.
#[inline]
pub fn emit(build: impl FnOnce() -> TraceEvent) {
    if !active() {
        return;
    }
    let sink = TARGETS.read().unwrap().sink.clone();
    if sink.is_none() && !capture::capturing() {
        return;
    }
    let event = build();
    if let Some(sink) = sink {
        sink.emit(&event);
    }
    capture::keep(event);
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = TARGETS.read().unwrap().sink.as_ref() {
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

    /// The sink slot and the capture gates are process-global; every
    /// test in this crate that touches them serializes on this lock.
    pub(crate) static GLOBAL_SINK_LOCK: Mutex<()> = Mutex::new(());

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
    fn capture_gate_alone_activates_tracing_and_captures_events() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        uninstall();
        assert!(!active());
        let gate = CaptureGate::hold();
        assert!(active(), "a gate alone must activate tracing");
        let capture = Capture::start();
        let span = crate::span!("kept");
        emit(event); // not a kind a dump keeps
                     // A sink composes: it sees every event, the capture its kinds.
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        drop(span);
        emit(event);
        // Removing only the sink keeps tracing active.
        uninstall();
        assert!(active());
        let kept: Vec<&str> = capture.finish().iter().map(|(_, e)| e.name()).collect();
        assert_eq!(kept, ["span_start", "span_end"]);
        assert_eq!(sink.len(), 2);
        // Gates count: a second gate outlives the first.
        let second = CaptureGate::hold();
        drop(gate);
        assert!(active());
        drop(second);
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
