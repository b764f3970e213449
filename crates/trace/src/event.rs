//! The typed event taxonomy and its JSONL encoding.
//!
//! One [`TraceEvent`] is one line of a trace: a decision or phase
//! transition the DisQ pipeline took. Events serialize to single-line
//! JSON objects tagged `"event"` and parse back exactly.
//!
//! # Schema
//!
//! Every event kind and nested record is declared once, in the table at
//! the `schema!` invocation below: its tag, then its fields in JSON key
//! order, with their docs. The macro generates the types,
//! [`TraceEvent::name`], [`TraceEvent::KINDS`], the encoder and the
//! decoder from that one declaration, so the two directions cannot
//! drift apart. How each field type reads and writes is the `Field`
//! trait's job. Floats use the exact codec shared with the plan store
//! ([`json::write_f64_exact`]): the shortest round-trip decimal when
//! finite, `"bits:<16 hex digits>"` otherwise. An event field declared
//! `name: T = default` is omitted when it equals the default and reads
//! as the default when absent. Legacy traces still parse: `null` floats
//! read as NaN, and a `span_start` without `req` reads as `req = 0`.

use crate::json::{self, Json};
use std::fmt::Write as _;

/// How one field type of the schema is written to and read from JSON.
pub(crate) trait Field: Sized {
    /// Appends the JSON encoding of `self`.
    fn encode(&self, out: &mut String);
    /// Decodes member `name` of an object (`None` when the key is
    /// absent); `ctx` names the object in error messages.
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String>;
}

fn missing(ctx: &str, what: &str, name: &str) -> String {
    format!("{ctx}: missing {what} {name:?}")
}

impl Field for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_u64)
            .ok_or_else(|| missing(ctx, "integer", name))
    }
}

impl Field for u32 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        u64::decode(j, ctx, name)?
            .try_into()
            .map_err(|_| format!("{ctx}: {name:?} out of range"))
    }
}

impl Field for i64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_i64)
            .ok_or_else(|| missing(ctx, "integer", name))
    }
}

impl Field for f64 {
    fn encode(&self, out: &mut String) {
        json::write_f64_exact(out, *self);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_f64_exact)
            .ok_or_else(|| missing(ctx, "number", name))
    }
}

impl Field for bool {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_bool)
            .ok_or_else(|| missing(ctx, "boolean", name))
    }
}

impl Field for String {
    fn encode(&self, out: &mut String) {
        json::write_str(out, self);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| missing(ctx, "string", name))
    }
}

/// `None` is `null`, so the inner type must never encode as `null`.
impl<T: Field> Field for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        match j {
            Some(Json::Null) => Ok(None),
            j => T::decode(j, ctx, name).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.encode(out);
        }
        out.push(']');
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_arr)
            .ok_or_else(|| missing(ctx, "array", name))?
            .iter()
            .map(|v| T::decode(Some(v), ctx, name))
            .collect()
    }
}

/// Writes the members of one JSON object in declaration order.
struct Members<'a> {
    out: &'a mut String,
    /// `{` before the first member, `,` after it.
    sep: char,
}

impl Members<'_> {
    fn put<T: Field>(&mut self, name: &str, value: &T) {
        self.out.push(self.sep);
        self.sep = ',';
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
        value.encode(self.out);
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// Declares the record structs and the [`TraceEvent`] enum, and derives
/// their JSON codec, from one field table (see the module docs).
macro_rules! schema {
    (
        $(#[$emeta:meta])*
        enum TraceEvent {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $f:ident : $t:ty $(= $d:expr)? ),* $(,)?
                }
            ),* $(,)?
        }
        $(
            $(#[$rmeta:meta])*
            struct $record:ident {
                $( $(#[$rfmeta:meta])* $rf:ident : $rt:ty ),+ $(,)?
            }
        )*
    ) => {
        $(
            $(#[$rmeta])*
            #[derive(Debug, Clone, PartialEq)]
            pub struct $record {
                $( $(#[$rfmeta])* pub $rf: $rt, )+
            }

            impl Field for $record {
                fn encode(&self, out: &mut String) {
                    let mut m = Members { out, sep: '{' };
                    $( m.put(stringify!($rf), &self.$rf); )+
                    m.close();
                }
                fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
                    let j = j
                        .filter(|j| matches!(j, Json::Obj(_)))
                        .ok_or_else(|| missing(ctx, "object", name))?;
                    Ok($record { $( $rf: schema!(@get j, name, $rf), )+ })
                }
            }

            #[cfg(test)]
            impl tests::Arb for $record {
                fn arb(rng: &mut proptest::TestRng) -> Self {
                    $record { $( $rf: tests::Arb::arb(rng), )+ }
                }
            }
        )*

        $(#[$emeta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $f: $t, )* },
            )*
        }

        impl TraceEvent {
            /// Every `"event"` tag, in declaration order.
            pub const KINDS: &'static [&'static str] = &[$($tag),*];

            /// The `"event"` tag of the JSON encoding.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $tag, )*
                }
            }

            /// Serializes to one line of JSON (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut s = String::from("{\"event\":");
                json::write_str(&mut s, self.name());
                let mut m = Members { out: &mut s, sep: ',' };
                match self {
                    $(
                        TraceEvent::$variant { $($f),* } => {
                            $( schema!(@put m, $f, $f $(= $d)?); )*
                        }
                    )*
                }
                m.close();
                s
            }

            /// Decodes an already-parsed JSON object into an event (the
            /// working half of [`TraceEvent::parse`]; [`crate::TraceReader`]
            /// calls this directly so it can also read the line's
            /// timestamp).
            pub fn from_json(v: &Json) -> Result<TraceEvent, String> {
                let tag = v
                    .get("event")
                    .and_then(Json::as_str)
                    .ok_or("missing \"event\" tag")?;
                match tag {
                    $(
                        $tag => Ok(TraceEvent::$variant {
                            $( $f: schema!(@get v, tag, $f $(= $d)?), )*
                        }),
                    )*
                    other => Err(format!("unknown event tag {other:?}")),
                }
            }

            /// One event of every kind, in [`TraceEvent::KINDS`] order,
            /// with every field drawn from `rng`.
            #[cfg(test)]
            pub(crate) fn arbitrary_each(rng: &mut proptest::TestRng) -> Vec<TraceEvent> {
                vec![$( TraceEvent::$variant { $( $f: tests::Arb::arb(rng), )* } ),*]
            }
        }
    };
    (@put $m:ident, $value:expr, $name:ident) => {
        $m.put(stringify!($name), $value)
    };
    (@put $m:ident, $value:expr, $name:ident = $default:expr) => {
        if *$value != $default {
            $m.put(stringify!($name), $value)
        }
    };
    (@get $j:ident, $ctx:expr, $name:ident) => {
        Field::decode($j.get(stringify!($name)), $ctx, stringify!($name))?
    };
    (@get $j:ident, $ctx:expr, $name:ident = $default:expr) => {
        match $j.get(stringify!($name)) {
            None => $default,
            j => Field::decode(j, $ctx, stringify!($name))?,
        }
    };
}

schema! {
    /// One structured trace record.
    enum TraceEvent {
        /// A preprocessing run began.
        RunStart = "run_start" {
            /// Free-form run label (domain / query description).
            label: String,
            /// The algorithm seed.
            seed: u64,
        },
        /// A `B_prc` phase boundary: ledger delta since the previous boundary.
        PhaseSpend = "phase_spend" {
            /// Phase that just ended (`examples`, `dismantle`, `refine`,
            /// `regression`).
            phase: String,
            /// Cumulative ledger spend at the boundary, in milli-cents.
            spent_millicents: i64,
            /// Spend attributable to this phase, in milli-cents.
            delta_millicents: i64,
            /// Questions asked during this phase.
            delta_questions: u64,
            /// Non-zero per-kind breakdown of the delta.
            by_kind: Vec<KindSpend>,
        },
        /// One `GetNextAttribute` decision with every candidate's score.
        DismantleChoice = "dismantle_choice" {
            /// Chosen pool index, or `None` when no candidate had positive
            /// expected value (a stopping signal).
            chosen: Option<u32>,
            /// Scores of all scored candidates (empty under the `Random`
            /// strategy, which skips scoring).
            scores: Vec<CandidateScore>,
        },
        /// An SPRT verification dialogue concluded.
        SprtVerdict = "sprt_verdict" {
            /// The crowd-suggested attribute text under verification.
            candidate: String,
            /// Pool attribute it was suggested for (raw attribute id).
            parent: u32,
            /// `true` = accepted as relevant.
            accepted: bool,
            /// Worker answers the test consumed before deciding.
            samples: u32,
        },
        /// Statistics-trio growth after an attribute was measured.
        TrioSize = "trio_size" {
            /// Query targets tracked.
            n_targets: u32,
            /// Attributes currently in the trio.
            n_attrs: u32,
        },
        /// One grant of the greedy budget-distribution loop.
        BudgetStep = "budget_step" {
            /// Which top-level distribution call this belongs to (`main`,
            /// `refine`, `fallback`).
            label: String,
            /// Pool index granted one more question.
            attr: u32,
            /// That attribute's question count after the grant.
            question: u32,
            /// Objective value after the grant.
            objective: f64,
        },
        /// A finished greedy budget distribution.
        BudgetChosen = "budget_chosen" {
            /// Same labels as [`TraceEvent::BudgetStep`].
            label: String,
            /// Final questions per pool attribute.
            allocation: Vec<u32>,
            /// Final objective value.
            objective: f64,
        },
        /// A per-target regression was fitted.
        RegressionFit = "regression_fit" {
            /// Target index within the plan.
            target: u32,
            /// Target label.
            label: String,
            /// Realized training MSE (the plan-validation residual).
            training_mse: f64,
            /// Training rows the fit used.
            rows: u32,
        },
        /// The online spam filter rejected an entire answer batch and the
        /// estimator fell back to the unfiltered answers.
        SpamFallback = "spam_fallback" {
            /// Object being estimated.
            object: u64,
            /// Attribute whose batch was wiped (raw attribute id).
            attr: u32,
            /// Batch size that was entirely rejected.
            answers: u32,
        },
        /// The incremental (Sherman–Morrison) budget-distribution engine
        /// hit a numerical breakdown and the call restarted on the dense
        /// refactorize-per-candidate engine. Rare by construction — it fires
        /// exactly where the dense engine's jitter rescue ladder would.
        SolverFallback = "solver_fallback" {
            /// Which solve fell back: a top-level distribution label
            /// (`main`, `refine`, `fallback`) or `probe` for a
            /// next-attribute loss probe.
            label: String,
            /// Which incremental step broke down (e.g. `schur`,
            /// `sherman_morrison`, `downdate`, `non_finite`).
            reason: String,
        },
        /// The online spam filter discarded at least one answer from a
        /// batch: the filter's decision statistics, surfaced so error
        /// attribution can see *why* answers were dropped.
        SpamDecision = "spam_decision" {
            /// Object being estimated.
            object: u64,
            /// Attribute whose batch was filtered (raw attribute id).
            attr: u32,
            /// Raw batch size.
            answers: u32,
            /// Answers that survived the filter.
            kept: u32,
            /// Batch median the filter centred on.
            median: f64,
            /// Scaled median absolute deviation (the filter's spread
            /// estimate; 0 when a majority answered identically).
            mad: f64,
        },
        /// One query target's full error-attribution ledger, assembled by
        /// the bench runner after scoring a plan against ground truth. The
        /// realized per-object MSE decomposes as
        /// `noise_mse + model_mse + cross_mse` (exact per-object algebra:
        /// residual = crowd-noise error through the regression + the
        /// regression's own model error on true attribute values).
        /// It is also the Err(b) calibration sample `disq-insight calib`
        /// scores. It carries the predicted, training and realized MSE
        /// itself, so no cross-event join is needed when parallel sweeps
        /// interleave many runs in one stream.
        QueryAudit = "query_audit" {
            /// Process-unique audit id correlating this ledger with its
            /// [`TraceEvent::ObjectAudit`] rows. `(label, seed, target)` is
            /// *not* unique — sweeps rerun the same cell identity per budget
            /// point, possibly concurrently, interleaving their rows.
            query: u64,
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Target attribute label.
            target: String,
            /// Held-out objects audited.
            n_objects: u32,
            /// Predicted `Err(b)` at the chosen budget (Eq. 2).
            predicted_mse: f64,
            /// The plan regression's training MSE.
            training_mse: f64,
            /// Realized per-object MSE against ground truth.
            realized_mse: f64,
            /// Mean squared crowd-noise error: `(ŷ − ỹ)²` where `ỹ` is the
            /// regression applied to *true* attribute values.
            noise_mse: f64,
            /// Mean squared model error: `(ỹ − y)²`.
            model_mse: f64,
            /// Twice the mean noise×model cross term (completes the exact
            /// decomposition; near zero when the two are independent).
            cross_mse: f64,
            /// Predicted `Err(b)` at an effectively unbounded budget — the
            /// error floor the regression could reach with infinite answers.
            error_floor: f64,
            /// `predicted_mse − error_floor`: the loss attributable to
            /// truncating the per-object budget at `B_obj`.
            budget_truncation: f64,
            /// Nominal two-sided confidence level of the per-object
            /// intervals (e.g. 0.95).
            ci_level: f64,
            /// Fraction of audited objects whose true value fell inside
            /// `estimate ± z·√predicted_mse`.
            ci_coverage: f64,
            /// Per-planned-attribute answer-stream audit.
            attrs: Vec<AttrAudit>,
        },
        /// One audited object's residual and confidence interval (the
        /// per-object grain under a [`TraceEvent::QueryAudit`]).
        ObjectAudit = "object_audit" {
            /// The owning [`TraceEvent::QueryAudit`]'s audit id.
            query: u64,
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Target attribute label.
            target: String,
            /// Audited object.
            object: u64,
            /// Ground-truth target value.
            truth: f64,
            /// The plan's estimate.
            estimate: f64,
            /// `estimate − truth`.
            residual: f64,
            /// Crowd-noise component of the residual (`ŷ − ỹ`).
            noise_err: f64,
            /// Model component of the residual (`ỹ − y`).
            model_err: f64,
            /// Lower edge of the predicted confidence interval.
            ci_lo: f64,
            /// Upper edge of the predicted confidence interval.
            ci_hi: f64,
            /// Whether the truth fell inside `[ci_lo, ci_hi]`.
            in_ci: bool,
        },
        /// Final state of one drift detector after an audited run: the
        /// always-emitted companion of [`TraceEvent::DriftDetected`] (which
        /// only fires on alarms), so coverage gates can require it.
        DriftUpdate = "drift_update" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Monitored attribute label.
            attr: String,
            /// Monitored metric: `answer_var` or `spam_rate`.
            metric: String,
            /// Planned reference value the stream is compared against.
            reference: f64,
            /// EWMA of the standardized deviations from the reference.
            ewma: f64,
            /// Current two-sided CUSUM score (max of both sides, in sigmas).
            score: f64,
            /// CUSUM decision threshold `h`.
            threshold: f64,
            /// Batches the detector absorbed.
            samples: u64,
            /// Alarms raised over the run.
            alarms: u64,
        },
        /// A drift detector crossed its decision threshold: the realized
        /// answer stream departed from the plan's assumptions. This is the
        /// trigger signal a streaming replanning engine consumes.
        DriftDetected = "drift_detected" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Monitored attribute label.
            attr: String,
            /// Monitored metric: `answer_var` or `spam_rate`.
            metric: String,
            /// The observation that tripped the alarm.
            observed: f64,
            /// Planned reference value.
            reference: f64,
            /// CUSUM score just before the alarm reset (exceeds
            /// `threshold`).
            score: f64,
            /// CUSUM decision threshold `h`.
            threshold: f64,
            /// 1-based index of the tripping batch in the stream.
            sample: u64,
        },
        /// Planted quality profile of one worker in the simulated pool,
        /// emitted per audited repetition (deterministic, so re-emission is
        /// idempotent) so scorecards can compare observed behaviour against
        /// the planted truth.
        WorkerProfile = "worker_profile" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Worker index within the pool.
            worker: u32,
            /// Planted noise-sd multiplier (1.0 in the homogeneous model).
            sd_multiplier: f64,
            /// Planted spam propensity (0.0 for honest workers).
            spam_propensity: f64,
        },
        /// Observed per-worker tallies of one audited repetition: the
        /// provenance side of the audit ledger.
        WorkerStats = "worker_stats" {
            /// Cell identity: domain / query / strategy.
            label: String,
            /// Repetition seed of the run.
            seed: u64,
            /// Worker index within the pool.
            worker: u32,
            /// Binary value answers attributed to the worker.
            binary_answers: u64,
            /// Numeric value answers attributed to the worker.
            numeric_answers: u64,
            /// Answers the spam filter rejected.
            rejected: u64,
            /// Millicents charged for the worker's answers.
            spent_millicents: i64,
            /// Standardized residuals recorded (kept answers of well-formed
            /// batches).
            residual_n: u64,
            /// Sum of those standardized residuals.
            residual_sum: f64,
            /// Sum of their squares (raw moments add exactly across reps).
            residual_sq: f64,
        },
        /// A hierarchical span opened (see [`crate::span`]). Matched by
        /// exactly one [`TraceEvent::SpanEnd`] with the same `id`.
        SpanStart = "span_start" {
            /// Process-unique span id.
            id: u64,
            /// Innermost open span on the same thread at open time, if any.
            parent: Option<u64>,
            /// Trace-thread id of the opening thread (1-based).
            tid: u64,
            /// Request id scoped onto the opening thread (see
            /// [`crate::span::enter_request`]); 0 = no request context.
            req: u64 = 0,
            /// Static span label (`preprocess`, `dismantle_round`, …).
            label: String,
            /// Free-form detail (`k=3`, a target name, …); may be empty.
            detail: String,
        },
        /// A span closed; carries the resources attributed to it (cumulative
        /// over the span's lifetime on its own thread — children included).
        SpanEnd = "span_end" {
            /// Matches the [`TraceEvent::SpanStart`] id.
            id: u64,
            /// Trace-thread id of the closing thread.
            tid: u64,
            /// Wall-clock nanoseconds the span was open.
            dur_ns: u64,
            /// Bytes requested from the allocator while open (0 unless
            /// [`crate::CountingAlloc`] is the global allocator).
            alloc_bytes: u64,
            /// Allocator calls while open.
            allocs: u64,
            /// Crowd questions charged while open (any kind).
            questions: u64,
            /// Kernel-timer nanoseconds recorded while open.
            kernel_ns: u64,
        },
        /// A query read its answers for one `(object, attribute)` cell off
        /// the crowd batch another in-flight query asked, instead of
        /// asking the platform. Emitted on the reader's thread, so the
        /// reader's slow-request dump holds it and the asker's does not;
        /// `reqs` keeps the causal link to the asking request. (Traces
        /// from the older batch-window batcher carry one event per
        /// flushed batch, naming every sharer.)
        BatchFlush = "batch_flush" {
            /// Object id of the shared cell.
            object: u64,
            /// Attribute id of the shared cell.
            attr: u32,
            /// Answers the batch holds (the questions asked for it).
            k_max: u32,
            /// Questions requested by the asker and every reader so far.
            k_sum: u32,
            /// Readers of the batch so far, this one included.
            joiners: u32,
            /// Request ids of the asker and this reader (sorted,
            /// deduplicated; 0 = outside any request scope).
            reqs: Vec<u64>,
        },
    }

    /// Per-candidate term of one dismantle-target choice: the Eq. 8/9 score
    /// `Pr(new | a_j) · Σ_t ω_t [G − L]` and its factors.
    struct CandidateScore {
        /// Pool index of the candidate attribute.
        index: u32,
        /// `Pr(new | a_j) = 1/(n_j + 2)` (Eq. 4).
        pr_new: f64,
        /// The weighted gain-minus-loss sum `Σ_t ω_t [G − L]`.
        value: f64,
        /// The product actually ranked.
        score: f64,
    }

    /// Per-question-kind component of a phase's spend delta.
    struct KindSpend {
        /// Question kind label (the ledger's display name).
        kind: String,
        /// Questions of that kind asked during the phase.
        questions: u64,
        /// Milli-cents spent on that kind during the phase.
        millicents: i64,
    }

    /// Per-attribute slice of a [`TraceEvent::QueryAudit`]: how one planned
    /// attribute's answer stream behaved against the plan's assumptions.
    struct AttrAudit {
        /// Planned attribute label.
        label: String,
        /// Questions per object the plan allocated (`b(a)`).
        questions: u32,
        /// Answer batches observed (= objects estimated).
        batches: u64,
        /// Raw answers asked across all batches.
        answers: u64,
        /// Answers the spam filter discarded.
        dropped: u64,
        /// Whole-batch rejections (estimator fell back to raw answers).
        fallbacks: u64,
        /// The trio's planned per-answer variance `S_c[a]`.
        planned_sc: f64,
        /// Mean within-batch sample variance of the answers actually
        /// averaged (NaN when no batch kept ≥ 2 answers).
        realized_sc: f64,
    }
}

impl TraceEvent {
    /// Parses one JSONL line back into an event. Unknown object keys
    /// (e.g. the `t_us` timestamp the JSONL sink splices in) are
    /// ignored.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        let v = json::parse(line)?;
        TraceEvent::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary values for the round-trip property: floats from any bit
    /// pattern (with `-0.0`, ±inf and NaN payloads forced often), integers
    /// within the range `Json::Num` holds exactly, and strings with
    /// escapes and non-ASCII text.
    pub(super) trait Arb {
        fn arb(rng: &mut TestRng) -> Self;
    }

    impl Arb for u64 {
        fn arb(rng: &mut TestRng) -> Self {
            (0..=1u64 << 53).generate(rng)
        }
    }

    impl Arb for u32 {
        fn arb(rng: &mut TestRng) -> Self {
            (0..=u32::MAX).generate(rng)
        }
    }

    impl Arb for i64 {
        fn arb(rng: &mut TestRng) -> Self {
            (-(1i64 << 53)..=1i64 << 53).generate(rng)
        }
    }

    impl Arb for f64 {
        fn arb(rng: &mut TestRng) -> Self {
            let bits = any::<u64>().generate(rng);
            match (0..8u32).generate(rng) {
                0 => -0.0,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                // All-ones exponent and a non-zero mantissa: a NaN with an
                // arbitrary sign and payload.
                3 => f64::from_bits(bits | 0x7ff0_0000_0000_0001),
                _ => f64::from_bits(bits),
            }
        }
    }

    impl Arb for bool {
        fn arb(rng: &mut TestRng) -> Self {
            any::<bool>().generate(rng)
        }
    }

    impl Arb for String {
        fn arb(rng: &mut TestRng) -> Self {
            "[a-z0-9 \"\\\\/\n\r\t\u{1}\u{1f}{}:,é¢☃😀]{0,12}".generate(rng)
        }
    }

    impl<T: Arb> Arb for Option<T> {
        fn arb(rng: &mut TestRng) -> Self {
            bool::arb(rng).then(|| T::arb(rng))
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(rng: &mut TestRng) -> Self {
            let n = (0..4usize).generate(rng);
            (0..n).map(|_| T::arb(rng)).collect()
        }
    }

    /// One arbitrary event of every kind.
    struct EveryKind;

    impl Strategy for EveryKind {
        type Value = Vec<TraceEvent>;
        fn generate(&self, rng: &mut TestRng) -> Vec<TraceEvent> {
            TraceEvent::arbitrary_each(rng)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_kind_round_trips_bit_exactly(events in EveryKind) {
            for event in events {
                let line = event.to_json();
                prop_assert!(!line.contains('\n'), "{line}");
                let back = TraceEvent::parse(&line)
                    .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
                prop_assert_eq!(back.to_json(), line);
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let events = TraceEvent::arbitrary_each(&mut TestRng::from_seed(1));
        let names: Vec<&str> = events.iter().map(TraceEvent::name).collect();
        assert_eq!(names, TraceEvent::KINDS);
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), TraceEvent::KINDS.len());
    }

    #[test]
    fn zero_request_span_start_omits_the_req_field() {
        // Spans opened outside any request scope must serialize exactly
        // as they did before the field existed (byte-compat with old
        // traces and the round-trip tests that re-serialize them).
        let event = TraceEvent::SpanStart {
            id: 43,
            parent: None,
            tid: 2,
            req: 0,
            label: "preprocess".into(),
            detail: String::new(),
        };
        let line = event.to_json();
        assert!(!line.contains("\"req\""), "{line}");
        assert_eq!(TraceEvent::parse(&line).unwrap(), event);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        // The JSONL sink splices a "t_us" timestamp into every line;
        // parse must tolerate it (and any future additive field).
        let event = TraceEvent::TrioSize {
            n_targets: 1,
            n_attrs: 3,
        };
        let line = event.to_json();
        let stamped = format!("{{\"t_us\":123456,{}", &line[1..]);
        assert_eq!(TraceEvent::parse(&stamped).unwrap(), event);
    }

    #[test]
    fn non_finite_floats_encode_as_bits() {
        let event = TraceEvent::RegressionFit {
            target: 0,
            label: "Bmi".into(),
            training_mse: f64::INFINITY,
            rows: 0,
        };
        let line = event.to_json();
        assert!(
            line.contains("\"training_mse\":\"bits:7ff0000000000000\""),
            "{line}"
        );
        assert_eq!(TraceEvent::parse(&line).unwrap(), event);
    }

    #[test]
    fn decode_errors_name_the_tag_and_field() {
        let err = TraceEvent::parse("{\"event\":\"trio_size\",\"n_targets\":1}").unwrap_err();
        assert_eq!(err, "trio_size: missing integer \"n_attrs\"");
        let err =
            TraceEvent::parse("{\"event\":\"trio_size\",\"n_targets\":4294967296,\"n_attrs\":1}")
                .unwrap_err();
        assert_eq!(err, "trio_size: \"n_targets\" out of range");
        let err = TraceEvent::parse(
            "{\"event\":\"phase_spend\",\"phase\":\"x\",\"spent_millicents\":0,\
             \"delta_millicents\":0,\"delta_questions\":0,\"by_kind\":[{\"kind\":\"v\"}]}",
        )
        .unwrap_err();
        assert_eq!(err, "by_kind: missing integer \"questions\"");
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            TraceEvent::parse("{\"event\":\"nope\"}").unwrap_err(),
            "unknown event tag \"nope\""
        );
        assert!(TraceEvent::parse("not json").is_err());
        assert!(TraceEvent::parse("{\"no_tag\":1}").is_err());
    }
}
