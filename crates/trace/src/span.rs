//! Hierarchical causal spans: RAII guards over a thread-local stack.
//!
//! A span is one timed region of the pipeline — `preprocess`, one
//! dismantle round, one online object — emitted as a
//! [`TraceEvent::SpanStart`]/[`TraceEvent::SpanEnd`] pair through the
//! installed [`crate::TraceSink`]. Spans nest: each start records the id
//! of the innermost open span on the same thread as its parent, so a
//! trace reconstructs into a forest without any cross-event joins beyond
//! the id.
//!
//! The overhead contract matches the rest of the crate: with no sink
//! installed, [`enter`] (and the [`crate::span!`] macro) is one relaxed
//! atomic load — no id is allocated, no clock is read, nothing is pushed.
//!
//! Each span additionally *attributes* three resource streams to itself
//! on close, as deltas of per-thread counters between enter and drop:
//!
//! * **allocation** — bytes and call counts observed by
//!   [`crate::CountingAlloc`] when it is installed as the global
//!   allocator (zero otherwise);
//! * **crowd questions** — every question-kind [`Counter`] increment;
//! * **kernel time** — nanoseconds recorded by the [`crate::Timer`]
//!   histograms.
//!
//! The deltas are cumulative over the span's lifetime on its own thread,
//! so a parent's totals include its children (self-cost is derived
//! post-hoc by `disq-insight flame` as total minus children).
//!
//! Guards are `!Send` (the stack is thread-local) and pop correctly on
//! panic: dropping a guard whose children are still open (leaked by an
//! unwind skipping their drops, which Rust only permits via
//! `mem::forget`) closes the children first, keeping every `span_start`
//! matched by exactly one `span_end`.

use crate::event::TraceEvent;
use crate::metrics::Counter;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide span id allocator (ids are unique across threads).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Process-wide request id allocator (ids start at 1; 0 = "no request").
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);
/// Trace-thread id allocator; ids start at 1 (0 = "no thread", used by
/// non-span instant events in exports).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Process epoch for trace timestamps; set on first use.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first trace timestamp was taken in this
/// process. The JSONL sink stamps every line with this clock so exports
/// (Chrome trace events) share one time base across threads.
pub fn epoch_micros() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// Per-thread resource accumulators. All are const-initialized `Cell`s of
// plain integers: no lazy initialization, no destructor registration, no
// allocation — which is what makes `record_alloc` safe to call from
// inside the global allocator.
thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static QUESTIONS: Cell<u64> = const { Cell::new(0) };
    static KERNEL_NS: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
    // The request currently being served on this thread (0 = none); set
    // by `enter_request` and stamped onto every span opened underneath.
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    // Widest shared crowd batch this thread read since the last
    // `take_coalesce_width` (0 = none).
    static COALESCE_WIDTH: Cell<u64> = const { Cell::new(0) };
    // The span stack itself is only touched from `enter`/`Drop`, never
    // from the allocator, so a `RefCell<Vec<_>>` (with its TLS
    // destructor) is fine here.
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// One open span on this thread's stack.
struct Frame {
    id: u64,
    start: Instant,
    bytes0: u64,
    allocs0: u64,
    questions0: u64,
    kernel0: u64,
}

/// Bytes allocated on this thread since it started, as observed by
/// [`crate::CountingAlloc`] (0 when the counting allocator is not the
/// global allocator). Monotone within a thread; wraps at `u64::MAX`.
pub fn thread_alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

/// Allocation calls on this thread since it started, as observed by
/// [`crate::CountingAlloc`] (0 when it is not the global allocator).
pub fn thread_allocs() -> u64 {
    ALLOC_COUNT.with(Cell::get)
}

/// Crowd questions charged on this thread so far, traced or not (see
/// [`note_questions`]). Monotone within a thread; callers take deltas
/// around a region of interest.
pub fn thread_questions() -> u64 {
    QUESTIONS.with(Cell::get)
}

/// Current depth of this thread's span stack (open spans).
pub fn depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

/// Allocates a process-unique request id (starting at 1; 0 means "no
/// request"). The serve layer assigns one per accepted HTTP request and
/// scopes it with [`enter_request`].
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// The request id currently scoped onto this thread (0 = none).
pub fn current_request() -> u64 {
    REQUEST.with(Cell::get)
}

/// RAII scope for a request id: every span opened on this thread while
/// the guard lives is stamped with the id (`req` field of
/// [`TraceEvent::SpanStart`]). Restores the previous id on drop; `!Send`
/// because the id lives in a thread-local.
#[must_use = "the request scope ends when its guard drops"]
pub struct RequestGuard {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

/// Scopes `id` onto this thread until the returned guard drops. Always
/// on (one `Cell` store) — the id must be available for access logging
/// and slow-request dumps even when no sink is installed.
pub fn enter_request(id: u64) -> RequestGuard {
    let prev = REQUEST.with(|c| c.replace(id));
    RequestGuard {
        prev,
        _not_send: PhantomData,
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        REQUEST.with(|c| c.set(self.prev));
    }
}

/// Records that this thread read a shared crowd batch that has served
/// `width` queries; keeps the maximum until [`take_coalesce_width`].
pub fn note_coalesce_width(width: u64) {
    COALESCE_WIDTH.with(|c| c.set(c.get().max(width)));
}

/// Returns and resets the widest shared batch this thread read since
/// the last call (0 = it read none).
pub fn take_coalesce_width() -> u64 {
    COALESCE_WIDTH.with(|c| c.replace(0))
}

/// Called by the global-allocator wrapper on every successful
/// allocation. Must not allocate, lock, or touch `Drop`-bearing
/// thread-locals — hence `try_with` on const-init `Cell`s only (the
/// fallback simply drops the sample during thread teardown).
#[inline]
pub(crate) fn record_alloc(bytes: u64) {
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    if crate::active() {
        crate::metrics::count_n(Counter::AllocBytes, bytes);
        crate::metrics::count(Counter::Allocs);
    }
}

/// Called by [`crate::metrics::count_n`] for the question-kind counters
/// so open spans, and the serve layer's per-request count, can attribute
/// crowd questions. Always on: one thread-local add beside the counter's
/// `fetch_add`.
#[inline]
pub(crate) fn note_questions(n: u64) {
    QUESTIONS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// Called by [`crate::metrics::record_timer`] so open spans can
/// attribute kernel time. Timers are already sink-gated by their
/// callers.
#[inline]
pub(crate) fn note_kernel_ns(ns: u64) {
    KERNEL_NS.with(|c| c.set(c.get().wrapping_add(ns)));
}

/// This thread's stable trace id (assigned on first use, starting at 1).
pub fn current_tid() -> u64 {
    TID.with(|c| {
        let mut tid = c.get();
        if tid == 0 {
            tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            c.set(tid);
        }
        tid
    })
}

/// An RAII guard for one span. Created by [`enter`] (usually via the
/// [`crate::span!`] macro); dropping it emits the matching
/// [`TraceEvent::SpanEnd`]. `!Send`: the span lives on the stack of the
/// thread that opened it.
#[must_use = "a span closes when its guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    /// `None` when tracing was off at enter — drop is then a no-op.
    id: Option<u64>,
    _not_send: PhantomData<*const ()>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard").field("id", &self.id).finish()
    }
}

/// Opens a span. `detail` builds the free-form attribute string and runs
/// only when a sink is installed; with tracing off the call is one
/// relaxed atomic load and the returned guard is inert.
pub fn enter(label: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !crate::active() {
        return SpanGuard {
            id: None,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let tid = current_tid();
    let parent = STACK.with(|s| s.borrow().last().map(|f| f.id));
    let detail = detail();
    let req = current_request();
    crate::emit(move || TraceEvent::SpanStart {
        id,
        parent,
        tid,
        req,
        label: label.to_string(),
        detail,
    });
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            id,
            start: Instant::now(),
            bytes0: thread_alloc_bytes(),
            allocs0: thread_allocs(),
            questions0: QUESTIONS.with(Cell::get),
            kernel0: KERNEL_NS.with(Cell::get),
        })
    });
    SpanGuard {
        id: Some(id),
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Normally our frame is on top. If inner guards were leaked
            // (mem::forget) their frames are still above ours: close
            // them too so every start stays matched by one end. If our
            // own frame is gone (double close via a forged id — cannot
            // happen through this API), do nothing.
            let Some(pos) = stack.iter().rposition(|f| f.id == id) else {
                return;
            };
            while stack.len() > pos {
                let frame = stack.pop().expect("len > pos");
                emit_end(&frame);
            }
        });
    }
}

/// Emits the `span_end` for one popped frame, attributing the resource
/// deltas accumulated on this thread since the frame was pushed.
fn emit_end(frame: &Frame) {
    let dur_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let alloc_bytes = thread_alloc_bytes().wrapping_sub(frame.bytes0);
    let allocs = thread_allocs().wrapping_sub(frame.allocs0);
    let questions = QUESTIONS.with(Cell::get).wrapping_sub(frame.questions0);
    let kernel_ns = KERNEL_NS.with(Cell::get).wrapping_sub(frame.kernel0);
    let id = frame.id;
    let tid = current_tid();
    crate::emit(move || TraceEvent::SpanEnd {
        id,
        tid,
        dur_ns,
        alloc_bytes,
        allocs,
        questions,
        kernel_ns,
    });
}

/// Opens a hierarchical span; the returned guard closes it on drop.
///
/// ```ignore
/// let _span = disq_trace::span!("dismantle_round", "k={k}");
/// ```
///
/// The first argument is a `&'static str` label; optional further
/// arguments are `format!`-style and build the span's detail string
/// lazily (never evaluated when tracing is off).
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::span::enter($label, String::new)
    };
    ($label:expr, $($fmt:tt)+) => {
        $crate::span::enter($label, || format!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::GLOBAL_SINK_LOCK;
    use crate::{MemorySink, TraceSink};
    use std::sync::Arc;

    #[allow(clippy::type_complexity)]
    fn span_pairs(events: &[TraceEvent]) -> (Vec<(u64, Option<u64>, String)>, Vec<u64>) {
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        for e in events {
            match e {
                TraceEvent::SpanStart {
                    id, parent, label, ..
                } => starts.push((*id, *parent, label.clone())),
                TraceEvent::SpanEnd { id, .. } => ends.push(*id),
                _ => {}
            }
        }
        (starts, ends)
    }

    #[test]
    fn inactive_enter_is_inert() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        crate::uninstall();
        let before = depth();
        let g = crate::span!("quiet");
        assert_eq!(depth(), before, "no frame pushed when tracing is off");
        drop(g);
        assert_eq!(depth(), before);
    }

    #[test]
    fn nested_spans_record_parents_and_balance() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        {
            let _outer = crate::span!("outer");
            {
                let _inner = crate::span!("inner", "k={}", 3);
            }
            let _sibling = crate::span!("sibling");
        }
        crate::uninstall();
        let events = sink.take();
        let (starts, ends) = span_pairs(&events);
        assert_eq!(starts.len(), 3);
        assert_eq!(ends.len(), 3);
        let outer = starts.iter().find(|s| s.2 == "outer").unwrap();
        let inner = starts.iter().find(|s| s.2 == "inner").unwrap();
        let sibling = starts.iter().find(|s| s.2 == "sibling").unwrap();
        assert_eq!(outer.1, None);
        assert_eq!(inner.1, Some(outer.0));
        assert_eq!(sibling.1, Some(outer.0));
        // Ends arrive innermost-first.
        assert_eq!(ends, vec![inner.0, sibling.0, outer.0]);
        // The inner span's detail was formatted.
        let detail = events.iter().find_map(|e| match e {
            TraceEvent::SpanStart { label, detail, .. } if label == "inner" => Some(detail.clone()),
            _ => None,
        });
        assert_eq!(detail.as_deref(), Some("k=3"));
    }

    #[test]
    fn guards_pop_on_panic() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        let result = std::panic::catch_unwind(|| {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner");
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(depth(), 0, "unwind must pop every frame");
        crate::uninstall();
        let (starts, ends) = span_pairs(&sink.take());
        assert_eq!(starts.len(), 2);
        assert_eq!(ends.len(), 2, "every start matched by an end on unwind");
    }

    #[test]
    fn forgotten_inner_guard_closed_by_outer() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        {
            let _outer = crate::span!("outer");
            let inner = crate::span!("inner");
            std::mem::forget(inner);
        }
        assert_eq!(depth(), 0);
        crate::uninstall();
        let (starts, ends) = span_pairs(&sink.take());
        assert_eq!(starts.len(), 2);
        assert_eq!(ends.len(), 2, "leaked child closed by its parent");
    }

    #[test]
    fn question_and_kernel_deltas_attributed() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        {
            let _span = crate::span!("work");
            crate::count_n(Counter::QuestionsBinary, 4);
            crate::count(Counter::QuestionsExample);
            crate::record_timer(
                crate::Timer::CrowdQuestion,
                std::time::Duration::from_nanos(250),
            );
        }
        crate::uninstall();
        let end = sink
            .take()
            .into_iter()
            .find_map(|e| match e {
                TraceEvent::SpanEnd {
                    questions,
                    kernel_ns,
                    ..
                } => Some((questions, kernel_ns)),
                _ => None,
            })
            .expect("span_end emitted");
        assert_eq!(end.0, 5);
        assert!(end.1 >= 250, "kernel_ns {} < 250", end.1);
    }

    #[test]
    fn spans_inherit_the_scoped_request_id() {
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        crate::install(sink.clone());
        {
            let _before = crate::span!("before");
            let scope = enter_request(77);
            assert_eq!(current_request(), 77);
            let _inside = crate::span!("inside");
            {
                // Nested scopes restore the outer id on drop.
                let _deeper = enter_request(78);
                let _nested = crate::span!("nested");
            }
            assert_eq!(current_request(), 77);
            drop(scope);
            assert_eq!(current_request(), 0);
            let _after = crate::span!("after");
        }
        crate::uninstall();
        let req_of = |want: &str| {
            sink.events()
                .iter()
                .find_map(|e| match e {
                    TraceEvent::SpanStart { req, label, .. } if label == want => Some(*req),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no span {want:?}"))
        };
        assert_eq!(req_of("before"), 0);
        assert_eq!(req_of("inside"), 77);
        assert_eq!(req_of("nested"), 78);
        assert_eq!(req_of("after"), 0);
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn coalesce_width_keeps_the_max_until_taken() {
        note_coalesce_width(3);
        note_coalesce_width(2);
        assert_eq!(take_coalesce_width(), 3);
        assert_eq!(take_coalesce_width(), 0);
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct() {
        let a = current_tid();
        assert_eq!(a, current_tid());
        let b = std::thread::spawn(super::current_tid).join().unwrap();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn epoch_is_monotone() {
        let a = epoch_micros();
        let b = epoch_micros();
        assert!(b >= a);
    }

    #[test]
    fn sink_emit_inside_span_does_not_deadlock() {
        // Regression guard: a sink that itself opens no spans but
        // allocates during emit must not re-enter the span stack.
        let _guard = GLOBAL_SINK_LOCK.lock().unwrap();
        struct Alloc(MemorySink);
        impl TraceSink for Alloc {
            fn emit(&self, event: &TraceEvent) {
                let _ = event.to_json(); // allocates
                self.0.emit(event);
            }
        }
        let sink = Arc::new(Alloc(MemorySink::new()));
        crate::install(sink.clone());
        {
            let _span = crate::span!("alloc-heavy");
        }
        crate::uninstall();
        assert_eq!(sink.0.len(), 2);
    }
}
