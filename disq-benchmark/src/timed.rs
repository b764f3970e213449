//! Timing wrappers around the crowd interfaces, owned by the benchmark.
//!
//! [`TimedCrowd`] wraps a [`CrowdPlatform`] (preprocessing), and
//! [`TimedSource`] a [`ValueSource`] (the online kernel). Both forward
//! every trait method to the wrapped value, the defaulted ones included,
//! so a traced run asks exactly the question stream an untraced run
//! asks. Calls and questions are counted exactly; the clock is read
//! around one call in [`SAMPLE`], picked by a hash of the call index so
//! periodic call patterns cannot alias, and the sampled time is scaled
//! up. Two clock reads cost about as much as one simulated question, so
//! timing every call would double the cost being measured.

use disq_crowd::{BudgetLedger, CrowdError, CrowdPlatform, ValueSource, WorkerId};
use disq_domain::{AttributeId, ObjectId};
use std::time::Instant;

/// One call in `SAMPLE` is timed.
pub const SAMPLE: u64 = 16;

/// Calls, questions and nanoseconds spent in one question kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindClock {
    /// Trait calls.
    pub calls: u64,
    /// Questions those calls asked.
    pub questions: u64,
    /// Estimated wall time inside the calls: sampled time × [`SAMPLE`].
    pub ns: u64,
}

impl KindClock {
    /// Starts the clock if this call is one of the sampled ones.
    fn start(&self) -> Option<Instant> {
        let h = (self.calls ^ 0x5851_F42D_4C95_7F2D).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 60 == 0).then(Instant::now)
    }

    fn stop(&mut self, questions: u64, start: Option<Instant>) {
        self.calls += 1;
        self.questions += questions;
        if let Some(t) = start {
            self.ns += t.elapsed().as_nanos() as u64 * SAMPLE;
        }
    }
}

/// Per-kind clocks of one wrapper.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrowdClock {
    /// Value questions (`ask_value*`).
    pub value: KindClock,
    /// Dismantling questions.
    pub dismantle: KindClock,
    /// Verification questions.
    pub verify: KindClock,
    /// Example questions.
    pub example: KindClock,
}

impl CrowdClock {
    /// Nanoseconds inside the crowd, all kinds.
    pub fn total_ns(&self) -> u64 {
        self.value.ns + self.dismantle.ns + self.verify.ns + self.example.ns
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &CrowdClock) {
        for (a, b) in [
            (&mut self.value, &other.value),
            (&mut self.dismantle, &other.dismantle),
            (&mut self.verify, &other.verify),
            (&mut self.example, &other.example),
        ] {
            a.calls += b.calls;
            a.questions += b.questions;
            a.ns += b.ns;
        }
    }
}

/// Keeps copies of the first answer batches a wrapper saw, so the spam
/// filter can later be replayed on real batches.
#[derive(Debug, Default)]
pub struct BatchCapture {
    /// The captured batches, in ask order.
    pub batches: Vec<Vec<f64>>,
    limit: usize,
}

impl BatchCapture {
    /// Captures up to `limit` batches.
    pub fn new(limit: usize) -> Self {
        BatchCapture {
            batches: Vec::new(),
            limit,
        }
    }

    fn keep(&mut self, out: &[f64], from: usize) {
        if self.batches.len() < self.limit && out.len() > from {
            self.batches.push(out[from..].to_vec());
        }
    }
}

/// A [`CrowdPlatform`] that times every question kind.
pub struct TimedCrowd<P> {
    inner: P,
    /// Time and counts so far.
    pub clock: CrowdClock,
}

impl<P> TimedCrowd<P> {
    /// Wraps `inner` with zeroed clocks.
    pub fn new(inner: P) -> Self {
        TimedCrowd {
            inner,
            clock: CrowdClock::default(),
        }
    }
}

impl<P: CrowdPlatform> CrowdPlatform for TimedCrowd<P> {
    fn ask_value(&mut self, o: ObjectId, a: AttributeId) -> Result<f64, CrowdError> {
        let t = self.clock.value.start();
        let r = self.inner.ask_value(o, a);
        self.clock.value.stop(1, t);
        r
    }

    fn ask_values(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        let t = self.clock.value.start();
        let r = self.inner.ask_values(o, a, k, out);
        self.clock.value.stop(k as u64, t);
        r
    }

    fn ask_value_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
    ) -> Result<(f64, WorkerId), CrowdError> {
        let t = self.clock.value.start();
        let r = self.inner.ask_value_attributed(o, a);
        self.clock.value.stop(1, t);
        r
    }

    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError> {
        let t = self.clock.value.start();
        let r = self.inner.ask_values_attributed(o, a, k, out, workers);
        self.clock.value.stop(k as u64, t);
        r
    }

    fn ask_dismantle(&mut self, a: AttributeId) -> Result<String, CrowdError> {
        let t = self.clock.dismantle.start();
        let r = self.inner.ask_dismantle(a);
        self.clock.dismantle.stop(1, t);
        r
    }

    fn ask_verify(&mut self, candidate: &str, of: AttributeId) -> Result<bool, CrowdError> {
        let t = self.clock.verify.start();
        let r = self.inner.ask_verify(candidate, of);
        self.clock.verify.stop(1, t);
        r
    }

    fn ask_example(&mut self, attrs: &[AttributeId]) -> Result<(ObjectId, Vec<f64>), CrowdError> {
        let t = self.clock.example.start();
        let r = self.inner.ask_example(attrs);
        self.clock.example.stop(1, t);
        r
    }

    fn ledger(&self) -> &BudgetLedger {
        self.inner.ledger()
    }
}

/// A [`ValueSource`] that times value questions and captures the first
/// answer batches.
pub struct TimedSource<P> {
    inner: P,
    /// Time and counts so far (value questions only).
    pub clock: KindClock,
    /// Captured answer batches.
    pub capture: BatchCapture,
}

impl<P> TimedSource<P> {
    /// Wraps `inner`, capturing up to `capture` answer batches.
    pub fn new(inner: P, capture: usize) -> Self {
        TimedSource {
            inner,
            clock: KindClock::default(),
            capture: BatchCapture::new(capture),
        }
    }
}

impl<P: ValueSource> ValueSource for TimedSource<P> {
    fn ask_values(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), CrowdError> {
        let from = out.len();
        let t = self.clock.start();
        let r = self.inner.ask_values(o, a, k, out);
        self.clock.stop(k as u64, t);
        self.capture.keep(out, from);
        r
    }

    fn ask_values_attributed(
        &mut self,
        o: ObjectId,
        a: AttributeId,
        k: usize,
        out: &mut Vec<f64>,
        workers: &mut Vec<WorkerId>,
    ) -> Result<(), CrowdError> {
        let from = out.len();
        let t = self.clock.start();
        let r = self.inner.ask_values_attributed(o, a, k, out, workers);
        self.clock.stop(k as u64, t);
        self.capture.keep(out, from);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disq_core::online::evaluate_query;
    use disq_core::{preprocess, DisqConfig};
    use disq_crowd::{CrowdConfig, Money, PricingModel, SimulatedCrowd};
    use disq_domain::{domains::pictures, Population, Query};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn crowd(cap: Option<Money>, seed: u64) -> SimulatedCrowd {
        let spec = Arc::new(pictures::spec());
        let pop = Population::sample(spec, 400, &mut StdRng::seed_from_u64(1)).unwrap();
        SimulatedCrowd::new(pop, CrowdConfig::default(), cap, seed)
    }

    #[test]
    fn wrappers_leave_plans_and_estimates_bit_identical() {
        let spec = pictures::spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let cap = Some(Money::from_dollars(20.0));
        let b_obj = Money::from_cents(4.0);
        let mut bare = crowd(cap, 9);
        let mut timed = TimedCrowd::new(crowd(cap, 9));
        let cfg = DisqConfig::default();
        let paper = PricingModel::paper();
        let a = preprocess(&mut bare, &spec, &[bmi], b_obj, &cfg, &paper, None, 3).unwrap();
        let b = preprocess(&mut timed, &spec, &[bmi], b_obj, &cfg, &paper, None, 3).unwrap();
        assert_eq!(a.budget, b.budget);
        assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan));
        assert_eq!(bare.ledger().spent(), timed.ledger().spent());
        let c = timed.clock;
        assert!(c.value.questions > 0 && c.dismantle.calls > 0 && c.verify.calls > 0);
        assert!(c.example.calls > 0);

        let objects: Vec<ObjectId> = (0..60).map(ObjectId).collect();
        let q = Query::new(vec![bmi], vec![]);
        let plain = evaluate_query(&mut crowd(None, 4), &a.plan, &q, &objects).unwrap();
        let mut source = TimedSource::new(crowd(None, 4), 8);
        let traced = evaluate_query(&mut source, &a.plan, &q, &objects).unwrap();
        let bits = |r: &disq_core::online::QueryResult| -> Vec<u64> {
            r.rows.iter().map(|row| row.values[0].to_bits()).collect()
        };
        assert_eq!(bits(&plain), bits(&traced));
        assert_eq!(
            source.clock.questions,
            60 * u64::from(a.plan.questions_per_object())
        );
        assert_eq!(source.capture.batches.len(), 8);
    }

    /// Forwarding of the defaulted batch methods: a wrapper that fell
    /// back to the trait defaults would ask through `ask_value` instead
    /// and still agree here, so also check the attributed stream.
    #[test]
    fn attributed_asks_forward_to_the_platform() {
        let spec = pictures::spec();
        let bmi = spec.id_of("Bmi").unwrap();
        let mut bare = crowd(None, 5);
        let mut timed = TimedCrowd::new(crowd(None, 5));
        let (mut v1, mut w1, mut v2, mut w2) = (vec![], vec![], vec![], vec![]);
        CrowdPlatform::ask_values_attributed(&mut bare, ObjectId(3), bmi, 6, &mut v1, &mut w1)
            .unwrap();
        CrowdPlatform::ask_values_attributed(&mut timed, ObjectId(3), bmi, 6, &mut v2, &mut w2)
            .unwrap();
        assert_eq!((v1, &w1), (v2, &w2));
        assert!(
            w1.iter().all(|w| !w.is_anonymous()),
            "platform ids, not defaults"
        );
        assert_eq!(timed.clock.value.questions, 6);

        let mut source = TimedSource::new(crowd(None, 5), 0);
        let (mut v3, mut w3) = (vec![], vec![]);
        source
            .ask_values_attributed(ObjectId(3), bmi, 6, &mut v3, &mut w3)
            .unwrap();
        assert_eq!(w1, w3);
    }
}
