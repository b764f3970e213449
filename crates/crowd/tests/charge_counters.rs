//! The trace counters are process-global: any test charging a ledger
//! beside this one would move them. This binary holds a single test, so
//! it runs in a process of its own.

use disq_crowd::{BudgetLedger, CrowdConfig, CrowdPlatform, Money, QuestionKind, SimulatedCrowd};
use disq_domain::{domains::pictures, ObjectId, Population};
use disq_trace::{Counter, RunSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Runs `batched`, then `looped`, asserts both moved every global
/// counter by the same amount, and returns that movement.
fn assert_same_counter_deltas(
    what: &str,
    batched: impl FnOnce(),
    looped: impl FnOnce(),
) -> RunSummary {
    let before = disq_trace::summary();
    batched();
    let mid = disq_trace::summary();
    looped();
    let after = disq_trace::summary();
    let (b, l) = (mid.delta_since(&before), after.delta_since(&mid));
    for c in Counter::ALL {
        assert_eq!(b.counter(c), l.counter(c), "{what}: counter {}", c.name());
    }
    b
}

/// Asserts the counters moved by exactly what `ledger`, fresh before the
/// movement, has charged.
fn assert_counts_ledger(delta: &RunSummary, ledger: &BudgetLedger) {
    assert_eq!(delta.total_questions(), ledger.total_questions());
    let spent = u64::try_from(ledger.spent().millicents()).unwrap();
    assert_eq!(delta.counter(Counter::SpendMillicents), spent);
}

#[test]
fn batched_charges_move_global_counters_like_looped_charges() {
    // Ledger level: `charge_n` against `n` calls to `charge`, uncapped
    // and with a cap that cuts some batches short.
    for cap in [None, Some(Money::from_millicents(7_000))] {
        let fresh = || cap.map_or_else(BudgetLedger::unlimited, BudgetLedger::with_cap);
        for kind in QuestionKind::ALL {
            for (price, n) in [(0, 5), (400, 0), (400, 9), (1_500, 40), (100, 3)] {
                let price = Money::from_millicents(price);
                let (mut batched, mut looped) = (fresh(), fresh());
                let delta = assert_same_counter_deltas(
                    &format!("cap {cap:?}, {kind:?} x{n} at {price}"),
                    || {
                        let _ = batched.charge_n(kind, price, n);
                    },
                    || {
                        for _ in 0..n {
                            if looped.charge(kind, price).is_err() {
                                break;
                            }
                        }
                    },
                );
                assert_eq!(batched.snapshot(), looped.snapshot());
                assert_counts_ledger(&delta, &batched);
            }
        }
    }

    // Crowd level: one batched ask against per-question asks. Numeric
    // values cost 0.4¢, so a 1.2¢ cap cuts the 5-answer batch after 3.
    let spec = Arc::new(pictures::spec());
    let pop = Population::sample(Arc::clone(&spec), 50, &mut StdRng::seed_from_u64(0)).unwrap();
    for attr in ["Bmi", "Heavy"] {
        let a = spec.id_of(attr).unwrap();
        for cap in [None, Some(Money::from_cents(1.2))] {
            let crowd = || SimulatedCrowd::new(pop.clone(), CrowdConfig::default(), cap, 3);
            let (mut batched, mut looped) = (crowd(), crowd());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let delta = assert_same_counter_deltas(
                &format!("{attr}, cap {cap:?}"),
                || {
                    let _ = CrowdPlatform::ask_values(&mut batched, ObjectId(7), a, 5, &mut got);
                },
                || {
                    for _ in 0..5 {
                        match looped.ask_value(ObjectId(7), a) {
                            Ok(v) => want.push(v),
                            Err(_) => break,
                        }
                    }
                },
            );
            assert_eq!(got, want);
            assert_eq!(batched.ledger().snapshot(), looped.ledger().snapshot());
            assert_counts_ledger(&delta, batched.ledger());
        }
    }
}
