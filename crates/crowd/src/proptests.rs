//! Property-based tests for the crowd substrate.

use crate::*;
use proptest::prelude::*;

/// [`filter_spam_into`] on buffers left dirty by an unrelated batch, as
/// the kernel's reused buffers are: the result must not depend on them.
fn filter_dirty(xs: &[f64]) -> Vec<f64> {
    let (mut scratch, mut kept) = (vec![f64::NAN; 3], vec![-7.0; 40]);
    filter_spam_into(xs, &mut scratch, &mut kept);
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn money_cents_roundtrip(mc in -1_000_000_000i64..1_000_000_000) {
        let m = Money::from_millicents(mc);
        // as_cents is exact for this range; from_cents rounds back to the
        // same milli-cent count.
        prop_assert_eq!(Money::from_cents(m.as_cents()), m);
        prop_assert_eq!(Money::from_dollars(m.as_dollars()), m);
    }

    #[test]
    fn money_addition_is_associative_and_commutative(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
        c in -1_000_000i64..1_000_000,
    ) {
        let (a, b, c) = (Money::from_millicents(a), Money::from_millicents(b), Money::from_millicents(c));
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a + Money::ZERO, a);
    }

    #[test]
    fn money_ordering_consistent_with_millicents(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let (ma, mb) = (Money::from_millicents(a), Money::from_millicents(b));
        prop_assert_eq!(ma < mb, a < b);
        prop_assert_eq!(ma.saturating_sub_floor_zero(mb).millicents(), (a - b).max(0));
    }

    #[test]
    fn ledger_conserves_money(prices in proptest::collection::vec(1i64..10_000, 1..50), cap_extra in 0i64..10_000) {
        let total: i64 = prices.iter().sum();
        let cap = Money::from_millicents(total + cap_extra);
        let mut ledger = BudgetLedger::with_cap(cap);
        for &p in &prices {
            ledger.charge(QuestionKind::Dismantle, Money::from_millicents(p)).unwrap();
        }
        prop_assert_eq!(ledger.spent().millicents(), total);
        prop_assert_eq!(ledger.spent() + ledger.remaining(), cap);
        prop_assert_eq!(ledger.total_questions(), prices.len() as u64);
        // Per-kind totals always sum to the overall spend.
        let per_kind: Money = QuestionKind::ALL.iter().map(|&k| ledger.total(k)).sum();
        prop_assert_eq!(per_kind, ledger.spent());
    }

    #[test]
    fn ledger_never_overdrafts(prices in proptest::collection::vec(1i64..5_000, 1..60), cap in 1i64..100_000) {
        let cap = Money::from_millicents(cap);
        let mut ledger = BudgetLedger::with_cap(cap);
        for &p in &prices {
            let _ = ledger.charge(QuestionKind::Verify, Money::from_millicents(p));
            prop_assert!(ledger.spent() <= cap);
        }
    }

    #[test]
    fn charge_n_matches_a_loop_of_charges(
        capped in any::<bool>(),
        cap in 0i64..60_000,
        pre_spend in proptest::collection::vec((0usize..5, 0i64..=5_000), 0..10),
        kind in 0usize..5,
        price in 0i64..=5_000,
        n in 0usize..=40,
    ) {
        let cap = capped.then(|| Money::from_millicents(cap));
        let fresh = || cap.map_or_else(BudgetLedger::unlimited, BudgetLedger::with_cap);
        let (mut batched, mut looped) = (fresh(), fresh());
        for &(k, p) in &pre_spend {
            let (k, p) = (QuestionKind::ALL[k], Money::from_millicents(p));
            prop_assert_eq!(batched.charge(k, p), looped.charge(k, p));
        }
        let (kind, price) = (QuestionKind::ALL[kind], Money::from_millicents(price));

        let (charged, result) = batched.charge_n(kind, price, n);
        let mut want = (0, Ok(()));
        for _ in 0..n {
            match looped.charge(kind, price) {
                Ok(()) => want.0 += 1,
                Err(e) => {
                    want.1 = Err(e);
                    break;
                }
            }
        }
        prop_assert_eq!((charged, result.clone()), want);
        prop_assert_eq!(batched.spent(), looped.spent());
        prop_assert_eq!(batched.remaining(), looped.remaining());
        for k in QuestionKind::ALL {
            prop_assert_eq!(batched.count(k), looped.count(k));
            prop_assert_eq!(batched.total(k), looped.total(k));
        }
        // And the prefix is the right one: within the cap, and cut short
        // only where the next question really does not fit.
        prop_assert!(cap.is_none_or(|c| batched.spent() <= c));
        prop_assert_eq!(result.is_err(), !batched.can_afford(price) && charged < n);
    }

    #[test]
    fn filter_spam_returns_ordered_subset(xs in proptest::collection::vec(-1e6_f64..1e6, 0..30)) {
        let kept = filter_dirty(&xs);
        prop_assert!(kept.len() <= xs.len());
        // Order-preserving subsequence check.
        let mut it = xs.iter();
        for k in &kept {
            prop_assert!(it.any(|x| x == k), "kept value not found in order");
        }
    }

    #[test]
    fn filter_spam_keeps_majority(xs in proptest::collection::vec(-10.0_f64..10.0, 4..30)) {
        // On bounded data (no extreme outliers possible relative to MAD
        // breakdown), at least half the answers must survive.
        let kept = filter_dirty(&xs);
        prop_assert!(kept.len() * 2 >= xs.len(), "{} of {} kept", kept.len(), xs.len());
    }

    #[test]
    fn filter_spam_never_widens_the_range(xs in proptest::collection::vec(-1e3_f64..1e3, 0..25)) {
        // Filtering can only trim tails: the kept min/max lie within the
        // original min/max. (Note: the filter is deliberately single-pass,
        // not idempotent — re-filtering a filtered batch recomputes the
        // MAD on tighter data and may trim further.)
        let kept = filter_dirty(&xs);
        if let (Some(kmin), Some(kmax)) = (
            kept.iter().cloned().reduce(f64::min),
            kept.iter().cloned().reduce(f64::max),
        ) {
            let omin = xs.iter().cloned().reduce(f64::min).unwrap();
            let omax = xs.iter().cloned().reduce(f64::max).unwrap();
            prop_assert!(kmin >= omin && kmax <= omax);
        }
    }

    #[test]
    fn pricing_scales_linearly(factor in 0.1_f64..10.0) {
        let base = PricingModel::paper();
        let scaled = base.scaled(factor);
        for k in QuestionKind::ALL {
            let expect = Money::from_cents(base.price(k).as_cents() * factor);
            prop_assert_eq!(scaled.price(k), expect);
        }
    }
}
