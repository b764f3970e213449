//! Budget accounting.
//!
//! Every crowd question is charged against a [`BudgetLedger`] before its
//! answer is produced. The ledger enforces an optional hard cap (the
//! preprocessing budget `B_prc`) and keeps per-question-type counts and
//! totals so experiments can report exactly where the money went.
//!
//! [`BudgetLedger::snapshot`] freezes that state; two snapshots subtract
//! into a [`SpendDelta`], which is how the preprocessing driver
//! attributes spend to its phases (examples / dismantle / verify /
//! regression) instead of only reporting totals.

use crate::{CrowdError, Money, QuestionKind};
use disq_trace::Counter;

/// Tracks crowd spending with an optional cap.
#[derive(Debug, Clone)]
pub struct BudgetLedger {
    cap: Option<Money>,
    spent: Money,
    counts: [u64; 5],
    totals: [Money; 5],
}

fn kind_index(kind: QuestionKind) -> usize {
    match kind {
        QuestionKind::BinaryValue => 0,
        QuestionKind::NumericValue => 1,
        QuestionKind::Dismantle => 2,
        QuestionKind::Verify => 3,
        QuestionKind::Example => 4,
    }
}

impl BudgetLedger {
    /// A ledger with no cap (online phase: the per-object budget is
    /// enforced by the plan, not the ledger).
    pub fn unlimited() -> Self {
        BudgetLedger {
            cap: None,
            spent: Money::ZERO,
            counts: [0; 5],
            totals: [Money::ZERO; 5],
        }
    }

    /// A ledger with a hard cap.
    pub fn with_cap(cap: Money) -> Self {
        BudgetLedger {
            cap: Some(cap),
            ..BudgetLedger::unlimited()
        }
    }

    /// The cap, if any.
    pub fn cap(&self) -> Option<Money> {
        self.cap
    }

    /// Total spent so far.
    pub fn spent(&self) -> Money {
        self.spent
    }

    /// Money left under the cap (`Money::from_millicents(i64::MAX)` when
    /// uncapped).
    pub fn remaining(&self) -> Money {
        match self.cap {
            Some(cap) => cap.saturating_sub_floor_zero(self.spent),
            None => Money::from_millicents(i64::MAX),
        }
    }

    /// True when at least `amount` is still available.
    pub fn can_afford(&self, amount: Money) -> bool {
        match self.cap {
            Some(cap) => self.spent + amount <= cap,
            None => true,
        }
    }

    /// Charges one question. Fails without recording anything if the cap
    /// would be exceeded.
    pub fn charge(&mut self, kind: QuestionKind, price: Money) -> Result<(), CrowdError> {
        self.charge_n(kind, price, 1).1
    }

    /// Charges `n` questions of one kind at one price, or the prefix of
    /// them the cap still pays for: exactly what a loop of `n`
    /// [`charge`](Self::charge) calls stopping at the first refusal
    /// would record. Returns how many were charged and, when that is
    /// fewer than `n`, the error the first refused call would return.
    ///
    /// Inlined so that [`charge`](Self::charge), on the path of every
    /// single-question ask, folds to the `n = 1` case.
    #[inline]
    pub fn charge_n(
        &mut self,
        kind: QuestionKind,
        price: Money,
        n: usize,
    ) -> (usize, Result<(), CrowdError>) {
        // A positive price fits `remaining / price` more times; a free
        // one fits every time once it fits at all.
        let charged = match self.cap {
            Some(_) if price.is_positive() => {
                let fits = self.remaining().millicents() / price.millicents();
                n.min(usize::try_from(fits).unwrap_or(usize::MAX))
            }
            _ if self.can_afford(price) => n,
            _ => 0,
        };
        if charged > 0 {
            let total = price * i64::try_from(charged).expect("batch size fits in i64");
            self.spent += total;
            let i = kind_index(kind);
            self.counts[i] += charged as u64;
            self.totals[i] += total;
            // Trace visibility: every charged question bumps the global
            // per-kind counters (relaxed atomics — see the disq-trace
            // overhead contract), once per call.
            let questions = match kind {
                QuestionKind::BinaryValue => Counter::QuestionsBinary,
                QuestionKind::NumericValue => Counter::QuestionsNumeric,
                QuestionKind::Dismantle => Counter::QuestionsDismantle,
                QuestionKind::Verify => Counter::QuestionsVerify,
                QuestionKind::Example => Counter::QuestionsExample,
            };
            disq_trace::count_n(questions, charged as u64);
            disq_trace::count_n(
                Counter::SpendMillicents,
                price.millicents().max(0) as u64 * charged as u64,
            );
        }
        let result = if charged == n {
            Ok(())
        } else {
            Err(CrowdError::BudgetExhausted {
                needed: price,
                remaining: self.remaining(),
            })
        };
        (charged, result)
    }

    /// Number of questions of a kind charged so far.
    pub fn count(&self, kind: QuestionKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    /// Money spent on a kind so far.
    pub fn total(&self, kind: QuestionKind) -> Money {
        self.totals[kind_index(kind)]
    }

    /// Total questions of any kind.
    pub fn total_questions(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Freezes the current spend state. Two snapshots bracket a phase;
    /// [`LedgerSnapshot::delta_since`] yields the phase's spend.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            spent: self.spent,
            counts: self.counts,
            totals: self.totals,
        }
    }
}

/// A frozen view of a ledger's spend state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSnapshot {
    spent: Money,
    counts: [u64; 5],
    totals: [Money; 5],
}

impl LedgerSnapshot {
    /// Total spent at snapshot time.
    pub fn spent(&self) -> Money {
        self.spent
    }

    /// Questions of a kind charged by snapshot time.
    pub fn count(&self, kind: QuestionKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    /// The spend between `earlier` and this snapshot. Both must come
    /// from the same ledger, with `earlier` taken first (a ledger only
    /// ever grows, so a negative component means misuse and panics in
    /// debug via `Money` underflow checks).
    pub fn delta_since(&self, earlier: &LedgerSnapshot) -> SpendDelta {
        let mut counts = [0u64; 5];
        let mut totals = [Money::ZERO; 5];
        for i in 0..5 {
            counts[i] = self.counts[i] - earlier.counts[i];
            totals[i] = self.totals[i] - earlier.totals[i];
        }
        SpendDelta {
            spent: self.spent - earlier.spent,
            counts,
            totals,
        }
    }
}

/// Spend attributable to one bracketed interval (a preprocessing
/// phase): total plus the per-question-kind breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpendDelta {
    spent: Money,
    counts: [u64; 5],
    totals: [Money; 5],
}

impl SpendDelta {
    /// Money spent during the interval.
    pub fn spent(&self) -> Money {
        self.spent
    }

    /// Questions asked during the interval.
    pub fn questions(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Questions of one kind asked during the interval.
    pub fn count(&self, kind: QuestionKind) -> u64 {
        self.counts[kind_index(kind)]
    }

    /// Money spent on one kind during the interval.
    pub fn total(&self, kind: QuestionKind) -> Money {
        self.totals[kind_index(kind)]
    }

    /// True when nothing was charged during the interval.
    pub fn is_zero(&self) -> bool {
        self.questions() == 0 && self.spent == Money::ZERO
    }

    /// The non-zero `(kind, questions, money)` components.
    pub fn by_kind(&self) -> impl Iterator<Item = (QuestionKind, u64, Money)> + '_ {
        QuestionKind::ALL
            .into_iter()
            .filter(|&k| self.count(k) > 0 || self.total(k) != Money::ZERO)
            .map(|k| (k, self.count(k), self.total(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_refuses() {
        let mut l = BudgetLedger::unlimited();
        for _ in 0..1000 {
            l.charge(QuestionKind::Example, Money::from_dollars(1.0))
                .unwrap();
        }
        assert_eq!(l.spent(), Money::from_dollars(1000.0));
        assert_eq!(l.count(QuestionKind::Example), 1000);
    }

    #[test]
    fn cap_enforced_exactly() {
        let mut l = BudgetLedger::with_cap(Money::from_cents(1.0));
        // Ten binary questions at 0.1¢ fit exactly.
        for _ in 0..10 {
            l.charge(QuestionKind::BinaryValue, Money::from_cents(0.1))
                .unwrap();
        }
        assert_eq!(l.remaining(), Money::ZERO);
        let err = l
            .charge(QuestionKind::BinaryValue, Money::from_cents(0.1))
            .unwrap_err();
        assert!(matches!(err, CrowdError::BudgetExhausted { .. }));
        // Refused charge must not be recorded.
        assert_eq!(l.count(QuestionKind::BinaryValue), 10);
        assert_eq!(l.spent(), Money::from_cents(1.0));
    }

    #[test]
    fn conservation_across_kinds() {
        let mut l = BudgetLedger::with_cap(Money::from_dollars(1.0));
        l.charge(QuestionKind::Dismantle, Money::from_cents(1.5))
            .unwrap();
        l.charge(QuestionKind::Verify, Money::from_cents(0.1))
            .unwrap();
        l.charge(QuestionKind::NumericValue, Money::from_cents(0.4))
            .unwrap();
        let sum: Money = QuestionKind::ALL.iter().map(|&k| l.total(k)).sum();
        assert_eq!(sum, l.spent());
        assert_eq!(l.total_questions(), 3);
        assert_eq!(l.remaining() + l.spent(), Money::from_dollars(1.0));
    }

    #[test]
    fn snapshot_delta_attributes_phase_spend() {
        let mut l = BudgetLedger::with_cap(Money::from_dollars(1.0));
        l.charge(QuestionKind::Example, Money::from_cents(2.0))
            .unwrap();
        let after_examples = l.snapshot();
        l.charge(QuestionKind::Dismantle, Money::from_cents(1.5))
            .unwrap();
        l.charge(QuestionKind::Verify, Money::from_cents(0.1))
            .unwrap();
        l.charge(QuestionKind::Verify, Money::from_cents(0.1))
            .unwrap();
        let after_dismantle = l.snapshot();

        let phase = after_dismantle.delta_since(&after_examples);
        assert_eq!(phase.questions(), 3);
        assert_eq!(phase.spent(), Money::from_cents(1.7));
        assert_eq!(phase.count(QuestionKind::Dismantle), 1);
        assert_eq!(phase.count(QuestionKind::Verify), 2);
        assert_eq!(phase.count(QuestionKind::Example), 0);
        assert_eq!(phase.total(QuestionKind::Verify), Money::from_cents(0.2));

        // Per-kind breakdown skips untouched kinds and sums back to the
        // phase total.
        let kinds: Vec<_> = phase.by_kind().collect();
        assert_eq!(kinds.len(), 2);
        let sum: Money = kinds.iter().map(|&(_, _, m)| m).sum();
        assert_eq!(sum, phase.spent());
    }

    #[test]
    fn snapshot_delta_of_idle_interval_is_zero() {
        let mut l = BudgetLedger::unlimited();
        l.charge(QuestionKind::BinaryValue, Money::from_cents(0.1))
            .unwrap();
        let a = l.snapshot();
        let b = l.snapshot();
        let delta = b.delta_since(&a);
        assert!(delta.is_zero());
        assert_eq!(delta.by_kind().count(), 0);
        // A snapshot is frozen: later charges don't retroactively change it.
        l.charge(QuestionKind::BinaryValue, Money::from_cents(0.1))
            .unwrap();
        assert_eq!(a.count(QuestionKind::BinaryValue), 1);
        assert_eq!(a.spent(), Money::from_cents(0.1));
    }

    #[test]
    fn can_afford_matches_charge() {
        let mut l = BudgetLedger::with_cap(Money::from_cents(0.5));
        assert!(l.can_afford(Money::from_cents(0.5)));
        assert!(!l.can_afford(Money::from_cents(0.6)));
        l.charge(QuestionKind::Verify, Money::from_cents(0.5))
            .unwrap();
        assert!(!l.can_afford(Money::from_cents(0.1)));
        assert!(l.can_afford(Money::ZERO));
    }
}
