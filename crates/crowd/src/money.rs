//! Exact fixed-point money.
//!
//! Crowd task prices in the paper are fractions of a cent (0.1¢ per binary
//! value question), and experiment budgets run to tens of dollars of
//! thousands of questions. Accumulating those in `f64` drifts; the ledger
//! therefore counts **milli-cents** in an `i64`, which is exact for every
//! price in play and overflows only beyond ~9×10¹² dollars.

use disq_trace::json::{Field, Json};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A monetary amount in milli-cents (1/1000 of a US cent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(i64);

impl Money {
    /// Zero.
    pub const ZERO: Money = Money(0);

    /// Constructs from raw milli-cents.
    pub const fn from_millicents(mc: i64) -> Self {
        Money(mc)
    }

    /// Constructs from cents, rounding to the nearest milli-cent.
    pub fn from_cents(cents: f64) -> Self {
        Money((cents * 1000.0).round() as i64)
    }

    /// Constructs from dollars, rounding to the nearest milli-cent.
    pub fn from_dollars(dollars: f64) -> Self {
        Money((dollars * 100_000.0).round() as i64)
    }

    /// Raw milli-cents.
    pub const fn millicents(self) -> i64 {
        self.0
    }

    /// Value in cents (lossless for any representable amount ≤ 2⁵³ mc).
    pub fn as_cents(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Value in dollars.
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 100_000.0
    }

    /// True for amounts strictly greater than zero.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Saturating subtraction that never goes below zero — used for
    /// "remaining budget" displays.
    pub fn saturating_sub_floor_zero(self, other: Money) -> Money {
        Money((self.0 - other.0).max(0))
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("money overflow"))
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.checked_sub(rhs.0).expect("money underflow"))
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    fn mul(self, rhs: i64) -> Money {
        Money(self.0.checked_mul(rhs).expect("money overflow"))
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cents = self.as_cents();
        if cents.abs() >= 100.0 {
            write!(f, "${:.2}", self.as_dollars())
        } else {
            write!(f, "{cents:.1}¢")
        }
    }
}

/// Crosses JSON as integer milli-cents.
impl Field for Money {
    fn encode(&self, out: &mut String) {
        self.0.encode(out);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        i64::decode(j, ctx, name).map(Money)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prices_are_exact() {
        assert_eq!(Money::from_cents(0.1).millicents(), 100);
        assert_eq!(Money::from_cents(0.4).millicents(), 400);
        assert_eq!(Money::from_cents(1.5).millicents(), 1_500);
        assert_eq!(Money::from_cents(5.0).millicents(), 5_000);
        assert_eq!(Money::from_dollars(35.0).millicents(), 3_500_000);
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_cents(0.1);
        let b = Money::from_cents(0.4);
        assert_eq!((a + b).millicents(), 500);
        assert_eq!((b - a).millicents(), 300);
        assert_eq!((a * 7).millicents(), 700);
        assert_eq!((-a).millicents(), -100);
    }

    #[test]
    fn summing_many_small_prices_has_no_drift() {
        // 100 000 binary questions at 0.1¢ = exactly $100.
        let total: Money = std::iter::repeat_n(Money::from_cents(0.1), 100_000).sum();
        assert_eq!(total, Money::from_dollars(100.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let m = Money::from_dollars(12.345);
        assert!((m.as_dollars() - 12.345).abs() < 1e-9);
        assert!((m.as_cents() - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn ordering_and_positivity() {
        assert!(Money::from_cents(1.0) > Money::from_cents(0.5));
        assert!(Money::from_cents(0.1).is_positive());
        assert!(!Money::ZERO.is_positive());
    }

    #[test]
    fn saturating_floor() {
        let a = Money::from_cents(1.0);
        let b = Money::from_cents(2.0);
        assert_eq!(a.saturating_sub_floor_zero(b), Money::ZERO);
        assert_eq!(b.saturating_sub_floor_zero(a), Money::from_cents(1.0));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Money::from_cents(0.4).to_string(), "0.4¢");
        assert_eq!(Money::from_dollars(30.0).to_string(), "$30.00");
    }

    #[test]
    #[should_panic(expected = "money overflow")]
    fn overflow_panics() {
        let _ = Money::from_millicents(i64::MAX) + Money::from_millicents(1);
    }
}
