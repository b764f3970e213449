//! Injected crowd latency (`DISQ_CROWD_SLEEP_US`) slows each query by
//! the answers it asks, without serializing concurrent queries behind
//! the platform lock. The variable is read once per process, so this
//! binary holds the only test that sets it.

use disq_crowd::{CoalescingCrowd, CrowdConfig, SimulatedCrowd, ValueSource};
use disq_domain::{domains::pictures, AttributeId, ObjectId, Population};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SLEEP_US: u64 = 5_000;
/// Answers per ask: one ask sleeps `K × SLEEP_US` = 50 ms.
const K: usize = 10;

/// Asks `K` answers about `o.a` and returns how long the ask took.
fn timed_ask<S: ValueSource>(s: &mut S, o: usize, a: AttributeId) -> Duration {
    let (mut out, mut workers) = (Vec::new(), Vec::new());
    let start = Instant::now();
    s.ask_values_attributed(ObjectId(o), a, K, &mut out, &mut workers)
        .unwrap();
    assert_eq!((out.len(), workers.len()), (K, K));
    start.elapsed()
}

#[test]
fn injected_latency_sleeps_outside_the_platform_lock() {
    std::env::set_var("DISQ_CROWD_SLEEP_US", SLEEP_US.to_string());
    let spec = Arc::new(pictures::spec());
    let bmi = spec.id_of("Bmi").unwrap();
    let pop = Population::sample(spec, 20, &mut StdRng::seed_from_u64(0)).unwrap();
    let coalescer = CoalescingCrowd::new(SimulatedCrowd::new(pop, CrowdConfig::default(), None, 1));
    let one_ask = Duration::from_micros(SLEEP_US * K as u64);

    // A lone query asks straight through, and still sleeps.
    let mut lone = coalescer.begin_query();
    assert!(timed_ask(&mut lone, 0, bmi) >= one_ask);
    drop(lone);

    // Two queries in flight ask different cells at once: each sleeps its
    // own 50 ms, side by side (serialized, they would take 100 ms).
    let (mut q1, mut q2) = (coalescer.begin_query(), coalescer.begin_query());
    let both_ready = Barrier::new(2);
    let start = Instant::now();
    let (t1, t2) = std::thread::scope(|s| {
        let h1 = s.spawn(|| {
            both_ready.wait();
            timed_ask(&mut q1, 1, bmi)
        });
        let h2 = s.spawn(|| {
            both_ready.wait();
            timed_ask(&mut q2, 2, bmi)
        });
        (h1.join().unwrap(), h2.join().unwrap())
    });
    let both = start.elapsed();
    assert!(
        t1 >= one_ask && t2 >= one_ask,
        "each query sleeps: {t1:?}, {t2:?}"
    );
    assert!(
        both < Duration::from_millis(90),
        "concurrent queries took {both:?}; serialized they take at least 100 ms"
    );

    // Reading the other query's stored batch asks nothing, so it does
    // not sleep.
    let read = timed_ask(&mut q1, 2, bmi);
    assert_eq!(coalescer.stats().saved_questions, K as u64);
    assert!(read < one_ask, "a read slept: {read:?}");
}
