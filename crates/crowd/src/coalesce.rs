//! Cross-request answer sharing in front of a [`CrowdPlatform`].
//!
//! The query daemon runs many queries concurrently against one simulated
//! crowd. When two in-flight queries ask about the *same* `(object,
//! attribute)` cell — the common case under a skewed attribute mix —
//! their value questions can share one worker batch instead of paying
//! for two (T-Crowd's shared-task framing).
//!
//! Sharing never waits. Each query asks through its own [`QueryCrowd`]
//! from [`CoalescingCrowd::begin_query`]. While other queries are in
//! flight, every batch a query asks is stored in a per-cell answer table
//! (one batch per cell, the latest), and a query that asks about a cell
//! first reads its first `k` answers off the stored batch when it may:
//!
//! * **reading rule** — only a batch asked after the reader began, so
//!   answers pass among queries that overlap in time and never to a
//!   later query (each query and each batch is stamped from one begin
//!   counter);
//! * **short batches** — a batch holding fewer than `k` answers is asked
//!   again, unless it ended in an error: the reader then gets the partial
//!   answers and the same error, as a direct ask would;
//! * **memory** — the table is emptied whenever no query is in flight,
//!   so it holds at most one batch per cell the current queries touched.
//!
//! A stored batch keeps the worker id of every answer, so a reader gets
//! the ids of the answers it reads, parallel to them.
//!
//! **Determinism contract**: a query that is alone in flight asks the
//! platform straight through under its lock — same calls, same order,
//! same RNG stream — so a single-connection serve run is bit-identical
//! to the in-process evaluation path (`passthrough_is_bit_identical`).
//! Only concurrent traffic reads the table, where answer-sharing
//! (deliberately) changes which stream draws serve which request.
//!
//! **Injected latency**: with [`CROWD_SLEEP_ENV`] set, a query sleeps
//! for every answer it asked the platform for, after it releases the
//! platform lock, so a slow crowd slows each query without serializing
//! concurrent ones. Reading a stored batch does not sleep.

use crate::{CrowdError, CrowdPlatform, WorkerId};
use disq_domain::{AttributeId, ObjectId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};

/// Environment variable: artificial per-answer crowd latency in
/// microseconds (default 0 = off). CI's traced serve smoke uses it to
/// inject a provably slow request for the slow-request dump to catch;
/// the sleep happens outside every RNG draw and ledger charge, so answer
/// streams stay bit-identical.
pub const CROWD_SLEEP_ENV: &str = "DISQ_CROWD_SLEEP_US";

/// Reads [`CROWD_SLEEP_ENV`] once per process.
fn injected_sleep_us() -> u64 {
    static SLEEP_US: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SLEEP_US.get_or_init(|| {
        std::env::var(CROWD_SLEEP_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    })
}

/// Point-in-time statistics of a [`CoalescingCrowd`]. Every ask keeps
/// `requested_questions = asked_questions + saved_questions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Questions the callers requested (`Σ k`).
    pub requested_questions: u64,
    /// Questions actually put to the platform.
    pub asked_questions: u64,
    /// Batches that at least one query other than their asker read.
    pub coalesced_batches: u64,
    /// Questions read off another query's batch instead of asked.
    pub saved_questions: u64,
}

/// The latest batch asked for one cell while other queries were in
/// flight.
struct Batch {
    /// Begin-counter reading when the batch was asked: only queries
    /// stamped below it had begun by then and may read it.
    stamp: u64,
    /// Stamp of the asking query, which never reads its own batch.
    asker: u64,
    /// Trace request id of the asker (0 = outside any request scope).
    req: u64,
    /// The answers, each with its worker, and the outcome of the ask. On
    /// a partial failure (budget exhaustion mid-batch) the answers
    /// collected before the error are kept, matching the partial-`out`
    /// semantics of a direct ask.
    answers: Vec<(f64, WorkerId)>,
    outcome: Result<(), CrowdError>,
    /// Queries that read the batch so far.
    readers: u32,
    /// Questions requested by the asker and every reader so far.
    k_sum: u32,
}

/// A thread-safe front of one [`CrowdPlatform`] whose concurrent queries
/// share same-cell value answers. Queries ask through the
/// [`QueryCrowd`] that [`CoalescingCrowd::begin_query`] returns.
pub struct CoalescingCrowd<P> {
    platform: Mutex<P>,
    table: Mutex<HashMap<(ObjectId, AttributeId), Batch>>,
    in_flight: AtomicUsize,
    begun: AtomicU64,
    requested_questions: AtomicU64,
    asked_questions: AtomicU64,
    coalesced_batches: AtomicU64,
    saved_questions: AtomicU64,
}

/// One in-flight query's view of a [`CoalescingCrowd`]: the
/// [`crate::ValueSource`] its online kernel asks through. Every answer
/// comes with its worker id — the platform's on a direct ask, the
/// asker's on a read of a stored batch. The query is in flight until the
/// handle drops.
pub struct QueryCrowd<'a, P> {
    crowd: &'a CoalescingCrowd<P>,
    stamp: u64,
}

impl<P> Drop for QueryCrowd<'_, P> {
    fn drop(&mut self) {
        if self.crowd.in_flight.fetch_sub(1, Ordering::AcqRel) == 1 {
            // No query left to read the table. A query that began since
            // the decrement may lose a stored batch here, never more
            // than a chance to share.
            lock(&self.crowd.table).clear();
        }
    }
}

/// Every lock here recovers from poisoning: a panicking platform call
/// leaves the crowd as usable as an ask that returned an error.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<P> CoalescingCrowd<P> {
    /// Wraps `platform`.
    pub fn new(platform: P) -> Self {
        CoalescingCrowd {
            platform: Mutex::new(platform),
            table: Mutex::new(HashMap::new()),
            in_flight: AtomicUsize::new(0),
            begun: AtomicU64::new(0),
            requested_questions: AtomicU64::new(0),
            asked_questions: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            saved_questions: AtomicU64::new(0),
        }
    }

    /// Starts a query: the returned handle is its value source, and the
    /// query counts as in flight until the handle drops. While it is the
    /// only one, every ask passes straight through to the platform —
    /// that is the single-request determinism contract.
    pub fn begin_query(&self) -> QueryCrowd<'_, P> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        QueryCrowd {
            crowd: self,
            stamp: self.begun.fetch_add(1, Ordering::AcqRel),
        }
    }

    /// Number of queries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Snapshot of the sharing counters.
    pub fn stats(&self) -> BatcherStats {
        BatcherStats {
            requested_questions: self.requested_questions.load(Ordering::Relaxed),
            asked_questions: self.asked_questions.load(Ordering::Relaxed),
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            saved_questions: self.saved_questions.load(Ordering::Relaxed),
        }
    }

    /// The platform lock, with a `batch_wait` span around the wait only
    /// when another query holds it.
    fn lock_platform(&self, o: ObjectId, a: AttributeId, k: usize) -> MutexGuard<'_, P> {
        match self.platform.try_lock() {
            Ok(p) => p,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let _wait = disq_trace::span!("batch_wait", "o={} a={} k={}", o.0, a.0, k);
                lock(&self.platform)
            }
        }
    }
}

impl<P> QueryCrowd<'_, P> {
    /// Reads this query's `k` answers for `cell`, with their workers, off
    /// the stored batch, if the reading rule allows it and the batch
    /// holds enough of them (or ended in an error). `None` means the
    /// query must ask.
    fn read(
        &self,
        cell: (ObjectId, AttributeId),
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Option<Result<(), CrowdError>> {
        let mut table = lock(&self.crowd.table);
        let b = table.get_mut(&cell)?;
        let short = b.answers.len() < k;
        if b.stamp <= self.stamp || b.asker == self.stamp || (short && b.outcome.is_ok()) {
            return None;
        }
        let read = &b.answers[..k.min(b.answers.len())];
        out.extend(read.iter().map(|&(v, _)| v));
        workers.extend(read.iter().map(|&(_, w)| w));
        let outcome = if short { b.outcome.clone() } else { Ok(()) };
        b.readers += 1;
        b.k_sum += k as u32;
        let (k_max, k_sum, readers, asker_req) =
            (b.answers.len() as u32, b.k_sum, b.readers, b.req);
        drop(table);

        let crowd = self.crowd;
        crowd.saved_questions.fetch_add(k as u64, Ordering::Relaxed);
        disq_trace::count_n(disq_trace::Counter::CoalescedQuestionsSaved, k as u64);
        if readers == 1 {
            crowd.coalesced_batches.fetch_add(1, Ordering::Relaxed);
            disq_trace::count(disq_trace::Counter::CoalescedBatches);
        }
        // Width = queries the batch has served so far, its asker included.
        disq_trace::span::note_coalesce_width(u64::from(readers) + 1);
        disq_trace::emit(|| {
            let mut reqs = vec![asker_req, disq_trace::span::current_request()];
            reqs.sort_unstable();
            reqs.dedup();
            disq_trace::TraceEvent::BatchFlush {
                object: cell.0 .0 as u64,
                attr: cell.1 .0 as u32,
                k_max,
                k_sum,
                joiners: readers,
                reqs,
            }
        });
        Some(outcome)
    }
}

impl<P: CrowdPlatform> crate::ValueSource for QueryCrowd<'_, P> {
    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError> {
        let crowd = self.crowd;
        crowd
            .requested_questions
            .fetch_add(k as u64, Ordering::Relaxed);
        if k == 0 {
            return Ok(());
        }
        let start = out.len();
        let outcome = if crowd.in_flight() <= 1 {
            // Passthrough: a lone query has nobody to share with.
            crowd.asked_questions.fetch_add(k as u64, Ordering::Relaxed);
            let mut platform = lock(&crowd.platform);
            CrowdPlatform::ask_values_attributed(&mut *platform, o, a, k, out, workers)
        } else {
            let cell = (o, a);
            if let Some(outcome) = self.read(cell, k, out, workers) {
                return outcome;
            }
            let mut platform = crowd.lock_platform(o, a, k);
            // Another query may have asked this cell while we waited.
            if let Some(outcome) = self.read(cell, k, out, workers) {
                return outcome;
            }
            crowd.asked_questions.fetch_add(k as u64, Ordering::Relaxed);
            let stamp = crowd.begun.load(Ordering::Acquire);
            let asked_from = workers.len();
            let outcome =
                CrowdPlatform::ask_values_attributed(&mut *platform, o, a, k, out, workers);
            // Stored under the platform lock, so the next asker's re-check
            // above always sees it.
            lock(&crowd.table).insert(
                cell,
                Batch {
                    stamp,
                    asker: self.stamp,
                    req: disq_trace::span::current_request(),
                    answers: out[start..]
                        .iter()
                        .copied()
                        .zip(workers[asked_from..].iter().copied())
                        .collect(),
                    outcome: outcome.clone(),
                    readers: 0,
                    k_sum: k as u32,
                },
            );
            outcome
        };
        // The platform lock is released: injected latency slows this
        // query without holding up the others.
        let sleep_us = injected_sleep_us();
        if sleep_us > 0 {
            let asked = (out.len() - start) as u64;
            std::thread::sleep(std::time::Duration::from_micros(sleep_us * asked));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BudgetLedger, CrowdConfig, Money, SimulatedCrowd, ValueSource};
    use disq_domain::{domains::pictures, Population};
    use disq_trace::{MemorySink, TraceEvent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn crowd(seed: u64, cap: Option<Money>) -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let mut rng = StdRng::seed_from_u64(0);
        let pop = Population::sample(spec, 100, &mut rng).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), cap, seed)
    }

    fn bmi() -> AttributeId {
        pictures::spec().id_of("Bmi").unwrap()
    }

    /// Asks `k` answers about `o.Bmi`, each paired with its worker.
    fn ask<S: ValueSource>(s: &mut S, o: usize, k: usize) -> Vec<(f64, WorkerId)> {
        let (mut out, mut workers) = (Vec::new(), Vec::new());
        s.ask_values_attributed(ObjectId(o), bmi(), k, &mut out, &mut workers)
            .unwrap();
        assert_eq!(out.len(), workers.len(), "ids stay parallel to answers");
        out.into_iter().zip(workers).collect()
    }

    fn stats(requested: u64, asked: u64, coalesced: u64, saved: u64) -> BatcherStats {
        BatcherStats {
            requested_questions: requested,
            asked_questions: asked,
            coalesced_batches: coalesced,
            saved_questions: saved,
        }
    }

    /// With one query in flight the wrapped platform sees exactly the
    /// calls a bare platform would — answers and worker ids are
    /// bit-identical.
    #[test]
    fn passthrough_is_bit_identical() {
        let coalescer = CoalescingCrowd::new(crowd(7, None));
        let mut bare = crowd(7, None);
        let mut query = coalescer.begin_query();
        for i in 0..10 {
            let k = [1, 3, 8][i % 3];
            assert_eq!(
                ask(&mut query, i % 4, k),
                ask(&mut bare, i % 4, k),
                "ask {i}"
            );
        }
        drop(query);
        let platform = lock(&coalescer.platform);
        assert_eq!(platform.ledger().spent(), bare.ledger().spent());
        let s = coalescer.stats();
        assert_eq!((s.coalesced_batches, s.saved_questions), (0, 0));
        assert_eq!(s.requested_questions, s.asked_questions);
    }

    /// An overlapping query reads the first `k` answers of a batch asked
    /// after it began; the platform is charged only for the asker's.
    #[test]
    fn concurrent_same_cell_requests_share_a_batch() {
        let coalescer = CoalescingCrowd::new(crowd(11, None));
        let mut q1 = coalescer.begin_query();
        let mut q2 = coalescer.begin_query();
        let mut q3 = coalescer.begin_query();
        let asked = ask(&mut q1, 0, 5);
        assert_eq!(ask(&mut q2, 0, 3), asked[..3]);
        assert_eq!(ask(&mut q3, 0, 5), asked);
        assert_eq!(coalescer.stats(), stats(13, 5, 1, 8));
        assert_eq!(lock(&coalescer.platform).ledger().total_questions(), 5);
    }

    /// A query that began after a batch was asked never reads it: it
    /// asks again, and its own batch is the one the others read next.
    #[test]
    fn later_query_asks_again() {
        let coalescer = CoalescingCrowd::new(crowd(3, None));
        let mut q1 = coalescer.begin_query();
        let mut q2 = coalescer.begin_query();
        let first = ask(&mut q1, 0, 4);
        let mut q3 = coalescer.begin_query();
        let second = ask(&mut q3, 0, 4);
        assert_ne!(second, first, "fresh answers for the later query");
        assert_eq!(coalescer.stats(), stats(8, 8, 0, 0));
        assert_eq!(ask(&mut q2, 0, 4), second);
        assert_eq!(ask(&mut q1, 1, 2).len(), 2);
        assert_eq!(coalescer.stats(), stats(14, 10, 1, 4));
    }

    /// A reader that needs more answers than a complete batch holds asks
    /// again.
    #[test]
    fn short_batch_is_asked_again() {
        let coalescer = CoalescingCrowd::new(crowd(9, None));
        let mut q1 = coalescer.begin_query();
        let mut q2 = coalescer.begin_query();
        ask(&mut q1, 0, 2);
        assert_eq!(ask(&mut q2, 0, 3).len(), 3);
        assert_eq!(coalescer.stats(), stats(5, 5, 0, 0));
    }

    /// A query asking a cell again gets fresh answers, never its own
    /// stored batch.
    #[test]
    fn own_batch_is_never_read() {
        let coalescer = CoalescingCrowd::new(crowd(8, None));
        let mut q1 = coalescer.begin_query();
        let _q2 = coalescer.begin_query();
        let first = ask(&mut q1, 0, 3);
        assert_ne!(ask(&mut q1, 0, 3), first);
        assert_eq!(coalescer.stats(), stats(6, 6, 0, 0));
    }

    /// Different cells never share batches.
    #[test]
    fn distinct_cells_do_not_coalesce() {
        let coalescer = CoalescingCrowd::new(crowd(9, None));
        let mut q1 = coalescer.begin_query();
        let mut q2 = coalescer.begin_query();
        ask(&mut q1, 0, 3);
        ask(&mut q2, 1, 3);
        assert_eq!(coalescer.stats(), stats(6, 6, 0, 0));
    }

    /// Budget exhaustion mid-batch: a reader asking for more than the
    /// partial batch holds gets those answers, their workers and the same
    /// error, exactly like a direct ask.
    #[test]
    fn budget_error_propagates_to_all_sharers() {
        // Numeric questions cost 0.4¢: 1.2¢ affords 3 answers.
        let coalescer = CoalescingCrowd::new(crowd(2, Some(Money::from_cents(1.2))));
        let mut q1 = coalescer.begin_query();
        let mut q2 = coalescer.begin_query();
        let (mut asked, mut read) = (Vec::new(), Vec::new());
        let (mut asked_ids, mut read_ids) = (Vec::new(), Vec::new());
        let e1 = q1.ask_values_attributed(ObjectId(0), bmi(), 5, &mut asked, &mut asked_ids);
        let e2 = q2.ask_values_attributed(ObjectId(0), bmi(), 5, &mut read, &mut read_ids);
        assert!(matches!(e1, Err(CrowdError::BudgetExhausted { .. })));
        assert_eq!(e2, e1);
        assert_eq!(asked.len(), 3, "partial answers survive");
        assert_eq!(asked_ids.len(), 3, "with their workers");
        assert_eq!(read, asked);
        assert_eq!(read_ids, asked_ids, "a reader gets the asker's workers");
        assert_eq!(coalescer.stats(), stats(10, 5, 1, 5));
    }

    /// A platform whose first value question panics; later questions
    /// go to a simulated crowd.
    struct PanicsOnce {
        inner: SimulatedCrowd,
        panicked: bool,
    }

    impl CrowdPlatform for PanicsOnce {
        fn ask_values_attributed(
            &mut self,
            o: ObjectId,
            a: AttributeId,
            k: usize,
            out: &mut Vec<f64>,
            workers: &mut Vec<WorkerId>,
        ) -> Result<(), CrowdError> {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("platform failure");
            }
            CrowdPlatform::ask_values_attributed(&mut self.inner, o, a, k, out, workers)
        }
        fn ask_dismantle(&mut self, a: AttributeId) -> Result<String, CrowdError> {
            self.inner.ask_dismantle(a)
        }
        fn ask_verify(&mut self, candidate: &str, of: AttributeId) -> Result<bool, CrowdError> {
            self.inner.ask_verify(candidate, of)
        }
        fn ask_example(
            &mut self,
            attrs: &[AttributeId],
        ) -> Result<(ObjectId, Vec<f64>), CrowdError> {
            self.inner.ask_example(attrs)
        }
        fn ledger(&self) -> &BudgetLedger {
            self.inner.ledger()
        }
    }

    /// A panicking ask only poisons the platform lock: the other
    /// in-flight query's ask of the same cell still succeeds, and both
    /// queries leave the flight count.
    #[test]
    fn panicking_ask_blocks_no_one() {
        let coalescer = CoalescingCrowd::new(PanicsOnce {
            inner: crowd(4, None),
            panicked: false,
        });
        let mut q1 = coalescer.begin_query();
        let mut q2 = coalescer.begin_query();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ask(&mut q1, 0, 2)));
        assert!(unwound.is_err(), "the platform call panicked");
        assert!(coalescer.platform.is_poisoned());
        assert_eq!(ask(&mut q2, 0, 2).len(), 2);
        drop((q1, q2));
        assert_eq!(coalescer.in_flight(), 0);
    }

    /// Once no query is in flight the table is empty, and the next lone
    /// query's answers continue a bare crowd's stream.
    #[test]
    fn lone_query_after_sharing_continues_the_stream() {
        let coalescer = CoalescingCrowd::new(crowd(5, None));
        let mut bare = crowd(5, None);
        let (mut q1, mut q2) = (coalescer.begin_query(), coalescer.begin_query());
        assert_eq!(ask(&mut q1, 0, 3), ask(&mut bare, 0, 3));
        ask(&mut q2, 0, 3);
        drop((q1, q2));
        assert!(lock(&coalescer.table).is_empty());
        let mut q3 = coalescer.begin_query();
        assert_eq!(ask(&mut q3, 0, 3), ask(&mut bare, 0, 3));
        assert_eq!(ask(&mut q3, 1, 2), ask(&mut bare, 1, 2));
    }

    /// A read emits one `batch_flush` event naming the asker's and the
    /// reader's request ids.
    #[test]
    fn read_emits_one_batch_flush_naming_both_requests() {
        let sink = Arc::new(MemorySink::new());
        disq_trace::install(sink.clone());
        let coalescer = CoalescingCrowd::new(crowd(6, None));
        let (mut q1, mut q2) = (coalescer.begin_query(), coalescer.begin_query());
        {
            let _req = disq_trace::span::enter_request(90_001);
            ask(&mut q1, 0, 4);
        }
        {
            let _req = disq_trace::span::enter_request(90_002);
            ask(&mut q2, 0, 2);
        }
        disq_trace::uninstall();
        let flushes: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e, TraceEvent::BatchFlush { reqs, .. } if reqs.contains(&90_001)))
            .collect();
        assert_eq!(
            flushes,
            [TraceEvent::BatchFlush {
                object: 0,
                attr: bmi().0 as u32,
                k_max: 4,
                k_sum: 6,
                joiners: 1,
                reqs: vec![90_001, 90_002],
            }]
        );
    }

    /// Query handles pair each begin with one end.
    #[test]
    fn query_handles_track_in_flight() {
        let coalescer = CoalescingCrowd::new(crowd(1, None));
        assert_eq!(coalescer.in_flight(), 0);
        let q1 = coalescer.begin_query();
        let q2 = coalescer.begin_query();
        assert_eq!(coalescer.in_flight(), 2);
        drop(q1);
        assert_eq!(coalescer.in_flight(), 1);
        drop(q2);
        assert_eq!(coalescer.in_flight(), 0);
    }
}
