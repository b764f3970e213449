//! Always-on counters and opt-in kernel-timing histograms, aggregated
//! into a [`RunSummary`].
//!
//! Counters are process-global relaxed atomics: incrementing one costs a
//! few nanoseconds, far below the cost of any crowd question or linear
//! solve it annotates, so they stay on even when no trace sink is
//! installed — that is what makes silent behaviours (spam-filter
//! fallbacks, replay fall-throughs) visible in every run. Timers wrap
//! the `disq-math` kernels and *are* gated on an installed sink, because
//! two `Instant::now` calls per tiny Cholesky solve would be measurable
//! in the greedy loop.
//!
//! [`RunSummary`] snapshots are plain data; `later.delta_since(&earlier)`
//! scopes a summary to one experiment, mirroring the crowd ledger's
//! snapshot/delta pattern.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: bucket `i` holds durations in
/// `[2^(i−1), 2^i)` nanoseconds (bucket 0 holds 0–1 ns).
pub const HIST_BUCKETS: usize = 32;

/// Declares one metric enum from a table: each row is the variant (with
/// its doc), its stable snake_case name and its exposition help text.
/// Generates the enum, `ALL` in declaration order, the count constant,
/// `name()` and `help()`, so a metric cannot exist without both.
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        pub enum $enum:ident, $count:ident {
            $( $(#[$doc:meta])* $variant:ident = $name:literal, $help:literal; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $enum {
            $( $(#[$doc])* $variant, )*
        }

        #[doc = concat!("Number of [`", stringify!($enum), "`] variants.")]
        pub const $count: usize = [$($enum::$variant),*].len();

        impl $enum {
            /// Every variant, in `RunSummary` order.
            pub const ALL: [$enum; $count] = [$($enum::$variant),*];

            /// Stable snake_case name (the exposition family stem).
            pub fn name(self) -> &'static str {
                match self {
                    $($enum::$variant => $name,)*
                }
            }

            /// Help text shown in the Prometheus exposition.
            pub fn help(self) -> &'static str {
                match self {
                    $($enum::$variant => $help,)*
                }
            }
        }
    };
}

metric_table! {
    /// Process-global event counters.
    pub enum Counter, COUNTER_COUNT {
        /// Binary value questions charged.
        QuestionsBinary = "questions_binary", "Binary value questions charged";
        /// Numeric value questions charged.
        QuestionsNumeric = "questions_numeric", "Numeric value questions charged";
        /// Dismantle questions charged.
        QuestionsDismantle = "questions_dismantle", "Dismantle questions charged";
        /// Verification questions charged.
        QuestionsVerify = "questions_verify", "Verification questions charged";
        /// Example questions charged.
        QuestionsExample = "questions_example", "Example questions charged";
        /// Total milli-cents charged across all questions.
        SpendMillicents = "spend_millicents", "Milli-cents charged across all questions";
        /// Individual answers discarded by the online spam filter.
        SpamAnswersDropped = "spam_answers_dropped", "Answers discarded by the online spam filter";
        /// Answer batches the spam filter rejected entirely, forcing the
        /// estimator to average the unfiltered answers.
        SpamFallbacks = "spam_fallbacks", "Whole-batch spam rejections (estimator fell back)";
        /// `GetNextAttribute` decisions taken.
        DismantleChoices = "dismantle_choices", "GetNextAttribute decisions taken";
        /// SPRT verifications that accepted the candidate.
        SprtAccepted = "sprt_accepted", "SPRT verifications accepting the candidate";
        /// SPRT verifications that rejected the candidate.
        SprtRejected = "sprt_rejected", "SPRT verifications rejecting the candidate";
        /// Worker answers consumed across all SPRT dialogues.
        SprtSamples = "sprt_samples", "Worker answers consumed by SPRT dialogues";
        /// Question grants made by the greedy budget-distribution loop
        /// (top-level calls only, not the loss-term probes).
        BudgetSteps = "budget_steps", "Greedy budget-distribution grants";
        /// Per-target regressions fitted.
        RegressionFits = "regression_fits", "Per-target regressions fitted";
        /// Answers served from a replay log.
        ReplayServed = "replay_served", "Answers served from a replay log";
        /// Replay lookups that fell through to the live platform because the
        /// log was exhausted (or keyed differently).
        ReplayFellThrough = "replay_fell_through", "Replay lookups that fell through to live";
        /// Greedy budget-distribution calls where the incremental
        /// Sherman–Morrison engine hit a numerical breakdown (non-SPD
        /// update, non-finite statistics) and restarted on the dense
        /// refactorize-per-candidate engine.
        SolverFallbacks = "solver_fallbacks", "Incremental budget solves rescued by the dense engine";
        /// Next-attribute loss probes answered from the dismantle-step probe
        /// cache instead of re-running a greedy solve.
        ProbeCacheHits = "probe_cache_hits", "Loss probes answered from the dismantle probe cache";
        /// Objects given a per-object error-attribution audit
        /// ([`crate::TraceEvent::ObjectAudit`]); incremented only on traced
        /// audit paths, so the event count and counter delta stay bit-exact.
        AuditedObjects = "audited_objects", "Objects given a per-object error-attribution audit";
        /// Query targets given a full error-attribution ledger
        /// ([`crate::TraceEvent::QueryAudit`]); same traced-only gating.
        AuditedQueries = "audited_queries", "Query targets given a full error-attribution ledger";
        /// Drift-detector alarms raised ([`crate::TraceEvent::DriftDetected`]);
        /// same traced-only gating.
        DriftAlarms = "drift_alarms", "Answer-stream drift-detector alarms raised";
        /// Trace-sink write failures (file creation or mid-run I/O errors in
        /// the JSONL sink). Non-zero means the trace on disk is incomplete.
        TraceWriteErrors = "trace_write_errors", "Trace-file writes that failed (trace is incomplete)";
        /// Events evicted by a capped [`crate::MemorySink`] (drop-oldest).
        TraceDroppedEvents = "trace_dropped_events", "Events evicted by a capped in-memory trace sink";
        /// Bytes requested from the allocator while tracing was active
        /// (counted only when [`crate::CountingAlloc`] is the global
        /// allocator).
        AllocBytes = "alloc_bytes", "Heap bytes requested while tracing was active";
        /// Allocator calls while tracing was active (same gating as
        /// [`Counter::AllocBytes`]).
        Allocs = "allocs", "Heap allocation calls while tracing was active";
        /// HTTP requests accepted by the `disq-serve` daemon.
        ServeRequests = "serve_requests", "HTTP requests accepted by the disq-serve daemon";
        /// Serve requests answered with a 4xx/5xx error.
        ServeErrors = "serve_errors", "Serve requests answered with a 4xx/5xx error";
        /// `/query` requests answered from an in-memory cached plan.
        PlanCacheHits = "plan_cache_hits", "Queries answered from an in-memory cached plan";
        /// `/query` requests that had to compute (or load) a plan.
        PlanCacheMisses = "plan_cache_misses", "Queries that computed or loaded a plan";
        /// Plans warm-started from the on-disk plan store instead of
        /// recomputed via `preprocess`.
        PlanStoreLoads = "plan_store_loads", "Plans warm-started from the on-disk plan store";
        /// Cross-request question batches shared by ≥ 2 concurrent queries
        /// (the serve-path micro-batcher).
        CoalescedBatches = "coalesced_batches", "Question batches shared by concurrent queries";
        /// Crowd questions avoided by batch sharing
        /// (`Σ kᵢ − max kᵢ` per coalesced batch).
        CoalescedQuestionsSaved = "coalesced_questions_saved", "Crowd questions avoided by batch sharing";
        /// Access-log lines that failed to write (the log keeps serving;
        /// the first failure warns on stderr).
        AccessLogWriteErrors = "access_log_write_errors", "Access-log lines that failed to write";
        /// Slow-request flight-recorder dumps that failed to write.
        SlowDumpWriteErrors = "slow_dump_write_errors", "Slow-request flight-recorder dumps that failed to write";
        /// Slow-request flight-recorder dumps written successfully.
        SlowDumps = "slow_dumps", "Slow-request flight-recorder dumps written";
    }
}

metric_table! {
    /// Timed kernels.
    pub enum Timer, TIMER_COUNT {
        /// `QuadFormWorkspace::factorize_with` (packed Cholesky + rescue
        /// ladder).
        QuadFormFactorize = "quadform_factorize", "Latency of the quadform_factorize kernel";
        /// `QuadFormWorkspace::quad_form` (triangular solves).
        QuadFormSolve = "quadform_solve", "Latency of the quadform_solve kernel";
        /// Dense `Cholesky::new` factorization.
        CholeskyFactorize = "cholesky_factorize", "Latency of the cholesky_factorize kernel";
        /// One crowd question end to end (any kind).
        CrowdQuestion = "crowd_question", "Latency of the crowd_question kernel";
        /// Packed-factor rank-1 diagonal update / bordered append
        /// (`disq_math::rank1`), the incremental solver's mutation kernels.
        Rank1Update = "rank1_update", "Latency of the rank1_update kernel";
        /// One candidate grant scored by the incremental greedy engine
        /// (Sherman–Morrison or bordered Schur complement).
        CandidateScore = "candidate_score", "Latency of the candidate_score kernel";
    }
}

struct AtomicHist {
    count: AtomicU64,
    total_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl AtomicHist {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        AtomicHist {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            buckets: [ZERO; HIST_BUCKETS],
        }
    }

    fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Bucket index of a nanosecond duration: `⌈log₂(ns+1)⌉`, capped.
fn bucket_of(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

struct Registry {
    counters: [AtomicU64; COUNTER_COUNT],
    timers: [AtomicHist; TIMER_COUNT],
}

static REGISTRY: Registry = {
    #[allow(clippy::declare_interior_mutable_const)] // array-init seeds
    const C: AtomicU64 = AtomicU64::new(0);
    #[allow(clippy::declare_interior_mutable_const)]
    const H: AtomicHist = AtomicHist::new();
    Registry {
        counters: [C; COUNTER_COUNT],
        timers: [H; TIMER_COUNT],
    }
};

/// Increments a counter by one.
#[inline]
pub fn count(counter: Counter) {
    count_n(counter, 1);
}

/// The first [`QUESTION_KINDS`] counters are the per-kind question
/// counts; they feed both [`RunSummary::total_questions`] and per-span
/// question attribution.
const QUESTION_KINDS: usize = 5;

/// Increments a counter by `n`.
#[inline]
pub fn count_n(counter: Counter, n: u64) {
    REGISTRY.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    // The question kinds additionally feed open spans' per-thread
    // attribution — gated on an installed sink so the always-on path
    // stays one `fetch_add` (plus a branch).
    if (counter as usize) < QUESTION_KINDS && crate::active() {
        crate::span::note_questions(n);
    }
}

/// Records one timed kernel invocation. Callers gate on
/// [`crate::active`]; see [`crate::time`].
pub fn record_timer(timer: Timer, elapsed: Duration) {
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    REGISTRY.timers[timer as usize].record_ns(ns);
    crate::span::note_kernel_ns(ns);
}

/// Frozen state of one timer's histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerStats {
    /// Invocations recorded.
    pub count: u64,
    /// Sum of recorded durations, nanoseconds.
    pub total_ns: u64,
    /// Power-of-two nanosecond buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl TimerStats {
    fn zero() -> Self {
        TimerStats {
            count: 0,
            total_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Mean duration in nanoseconds (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing
    /// the `q`-th recorded duration (`0 < q ≤ 1`).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (HIST_BUCKETS - 1)
    }

    /// Median duration upper bound, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.5)
    }

    /// 90th-percentile duration upper bound, nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.9)
    }

    /// 99th-percentile duration upper bound, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

/// A frozen view of every counter and timer — either absolute (since
/// process start) from [`crate::summary`], or scoped to an interval via
/// [`RunSummary::delta_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    counters: [u64; COUNTER_COUNT],
    timers: Vec<TimerStats>,
}

impl Default for RunSummary {
    fn default() -> Self {
        RunSummary {
            counters: [0; COUNTER_COUNT],
            timers: vec![TimerStats::zero(); TIMER_COUNT],
        }
    }
}

/// Snapshots the global registry.
pub fn summary() -> RunSummary {
    let mut out = RunSummary::default();
    for (i, c) in REGISTRY.counters.iter().enumerate() {
        out.counters[i] = c.load(Ordering::Relaxed);
    }
    for (i, h) in REGISTRY.timers.iter().enumerate() {
        out.timers[i].count = h.count.load(Ordering::Relaxed);
        out.timers[i].total_ns = h.total_ns.load(Ordering::Relaxed);
        for (j, b) in h.buckets.iter().enumerate() {
            out.timers[i].buckets[j] = b.load(Ordering::Relaxed);
        }
    }
    out
}

impl RunSummary {
    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The stats of one timer.
    pub fn timer(&self, t: Timer) -> &TimerStats {
        &self.timers[t as usize]
    }

    /// Total questions of all kinds.
    pub fn total_questions(&self) -> u64 {
        Counter::ALL[..QUESTION_KINDS]
            .iter()
            .map(|&c| self.counter(c))
            .sum()
    }

    /// Counter-wise and bucket-wise saturating difference: the activity
    /// between `earlier` and `self`.
    pub fn delta_since(&self, earlier: &RunSummary) -> RunSummary {
        let mut out = self.clone();
        for i in 0..COUNTER_COUNT {
            out.counters[i] = out.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..TIMER_COUNT {
            let e = &earlier.timers[i];
            let t = &mut out.timers[i];
            t.count = t.count.saturating_sub(e.count);
            t.total_ns = t.total_ns.saturating_sub(e.total_ns);
            for j in 0..HIST_BUCKETS {
                t.buckets[j] = t.buckets[j].saturating_sub(e.buckets[j]);
            }
        }
        out
    }

    /// Overwrites one counter's value (test fixture construction).
    #[cfg(test)]
    pub(crate) fn set_counter_for_test(&mut self, c: Counter, value: u64) {
        self.counters[c as usize] = value;
    }

    /// Overwrites one timer's stats (test fixture construction).
    #[cfg(test)]
    pub(crate) fn set_timer_for_test(&mut self, t: Timer, stats: TimerStats) {
        self.timers[t as usize] = stats;
    }

    /// True when nothing was counted or timed.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.timers.iter().all(|t| t.count == 0)
    }

    /// Human-readable multi-line block for report footers; every line is
    /// prefixed `trace:`. Zero sections are omitted.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let q = self.total_questions();
        if q > 0 {
            let _ = write!(
                out,
                "trace: {} questions (binary {}, numeric {}, dismantle {}, verify {}, \
                 example {}); spend {}mc",
                q,
                self.counter(Counter::QuestionsBinary),
                self.counter(Counter::QuestionsNumeric),
                self.counter(Counter::QuestionsDismantle),
                self.counter(Counter::QuestionsVerify),
                self.counter(Counter::QuestionsExample),
                self.counter(Counter::SpendMillicents),
            );
            out.push('\n');
        }
        let decisions = [
            (Counter::DismantleChoices, "dismantle choices"),
            (Counter::SprtAccepted, "sprt accepts"),
            (Counter::SprtRejected, "sprt rejects"),
            (Counter::SprtSamples, "sprt samples"),
            (Counter::BudgetSteps, "budget steps"),
            (Counter::RegressionFits, "regression fits"),
            (Counter::SpamAnswersDropped, "spam drops"),
            (Counter::SpamFallbacks, "spam fallbacks"),
            (Counter::ReplayServed, "replayed"),
            (Counter::ReplayFellThrough, "replay fall-throughs"),
            (Counter::SolverFallbacks, "solver fallbacks"),
            (Counter::ProbeCacheHits, "probe cache hits"),
            (Counter::AuditedObjects, "audited objects"),
            (Counter::AuditedQueries, "audited queries"),
            (Counter::DriftAlarms, "drift alarms"),
            (Counter::TraceWriteErrors, "trace write errors"),
            (Counter::TraceDroppedEvents, "trace dropped events"),
        ];
        let parts: Vec<String> = decisions
            .iter()
            .filter(|&&(c, _)| self.counter(c) > 0)
            .map(|&(c, label)| format!("{label} {}", self.counter(c)))
            .collect();
        if !parts.is_empty() {
            let _ = write!(out, "trace: {}", parts.join(", "));
            out.push('\n');
        }
        if self.counter(Counter::Allocs) > 0 {
            let _ = write!(
                out,
                "trace: alloc {} bytes in {} calls while traced",
                self.counter(Counter::AllocBytes),
                self.counter(Counter::Allocs),
            );
            out.push('\n');
        }
        for t in Timer::ALL {
            let stats = self.timer(t);
            if stats.count > 0 {
                let _ = write!(
                    out,
                    "trace: kernel {} n={} mean={:.0}ns p50≤{}ns p99≤{}ns",
                    t.name(),
                    stats.count,
                    stats.mean_ns(),
                    stats.quantile_ns(0.5),
                    stats.quantile_ns(0.99),
                );
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_accumulate_and_delta() {
        let before = summary();
        count(Counter::SpamFallbacks);
        count_n(Counter::SpamAnswersDropped, 3);
        let delta = summary().delta_since(&before);
        assert_eq!(delta.counter(Counter::SpamFallbacks), 1);
        assert_eq!(delta.counter(Counter::SpamAnswersDropped), 3);
    }

    #[test]
    fn timer_stats_quantiles() {
        let mut stats = TimerStats::zero();
        // 90 fast (bucket 4: ≤16ns), 10 slow (bucket 11: ≤2048ns).
        stats.buckets[4] = 90;
        stats.buckets[11] = 10;
        stats.count = 100;
        stats.total_ns = 90 * 10 + 10 * 1500;
        assert_eq!(stats.quantile_ns(0.5), 16);
        assert_eq!(stats.quantile_ns(0.99), 2048);
        assert!((stats.mean_ns() - 159.0).abs() < 1e-9);
    }

    #[test]
    fn record_timer_lands_in_summary() {
        let before = summary();
        record_timer(Timer::CholeskyFactorize, Duration::from_nanos(100));
        let delta = summary().delta_since(&before);
        let stats = delta.timer(Timer::CholeskyFactorize);
        assert_eq!(stats.count, 1);
        assert_eq!(stats.total_ns, 100);
        assert_eq!(stats.buckets[bucket_of(100)], 1);
    }

    #[test]
    fn render_skips_zero_sections() {
        let empty = RunSummary::default();
        assert!(empty.is_empty());
        assert_eq!(empty.render(), "");

        let mut s = RunSummary::default();
        s.counters[Counter::QuestionsBinary as usize] = 7;
        s.counters[Counter::SpendMillicents as usize] = 700;
        let rendered = s.render();
        assert!(rendered.contains("7 questions"), "{rendered}");
        assert!(rendered.contains("spend 700mc"), "{rendered}");
        assert!(!rendered.contains("kernel"), "{rendered}");
    }

    #[test]
    fn percentile_accessors_on_empty_histogram() {
        let stats = TimerStats::zero();
        assert_eq!(stats.p50_ns(), 0);
        assert_eq!(stats.p90_ns(), 0);
        assert_eq!(stats.p99_ns(), 0);
        assert_eq!(stats.mean_ns(), 0.0);
    }

    #[test]
    fn percentile_accessors_on_single_bucket() {
        let mut stats = TimerStats::zero();
        stats.buckets[7] = 1_000; // every sample in (64, 128] ns
        stats.count = 1_000;
        stats.total_ns = 100_000;
        assert_eq!(stats.p50_ns(), 128);
        assert_eq!(stats.p90_ns(), 128);
        assert_eq!(stats.p99_ns(), 128);
    }

    #[test]
    fn percentile_accessors_spread_across_buckets() {
        let mut stats = TimerStats::zero();
        stats.buckets[4] = 50; // ≤16ns
        stats.buckets[8] = 45; // ≤256ns
        stats.buckets[20] = 5; // ≤2^20ns
        stats.count = 100;
        assert_eq!(stats.p50_ns(), 16);
        assert_eq!(stats.p90_ns(), 256);
        assert_eq!(stats.p99_ns(), 1 << 20);
    }

    #[test]
    fn percentile_accessors_on_saturated_histogram() {
        // Everything lands in the terminal bucket (durations beyond
        // 2^30ns), with counts large enough to stress the rank math.
        let mut stats = TimerStats::zero();
        stats.buckets[HIST_BUCKETS - 1] = u64::MAX / 2;
        stats.count = u64::MAX / 2;
        stats.total_ns = u64::MAX;
        let cap = 1u64 << (HIST_BUCKETS - 1);
        assert_eq!(stats.p50_ns(), cap);
        assert_eq!(stats.p99_ns(), cap);
        // Bucket-zero only histogram reports the 1ns floor.
        let mut zeroes = TimerStats::zero();
        zeroes.buckets[0] = 3;
        zeroes.count = 3;
        assert_eq!(zeroes.p50_ns(), 1);
        assert_eq!(zeroes.p99_ns(), 1);
    }

    /// Satellite: snapshot/delta arithmetic must stay consistent while
    /// other threads are hammering the counters.
    #[test]
    fn concurrent_increments_keep_deltas_consistent() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let before = summary();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        count(Counter::ReplayServed);
                        count_n(Counter::ReplayFellThrough, 2);
                    }
                });
            }
            // Snapshots taken mid-flight must be monotone in every
            // counter and never exceed the final totals.
            let mut last = summary();
            for _ in 0..50 {
                let now = summary();
                for c in Counter::ALL {
                    assert!(now.counter(c) >= last.counter(c), "{:?} regressed", c);
                }
                last = now;
            }
        });
        let delta = summary().delta_since(&before);
        assert_eq!(
            delta.counter(Counter::ReplayServed),
            (THREADS as u64) * PER_THREAD
        );
        assert_eq!(
            delta.counter(Counter::ReplayFellThrough),
            (THREADS as u64) * PER_THREAD * 2
        );
        // A delta of a summary against itself is empty on those counters.
        let now = summary();
        let self_delta = now.delta_since(&now);
        assert_eq!(self_delta.counter(Counter::ReplayServed), 0);
        assert_eq!(self_delta.counter(Counter::ReplayFellThrough), 0);
    }

    #[test]
    fn counter_names_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()));
        }
        for t in Timer::ALL {
            assert!(seen.insert(t.name()));
        }
    }
}
