//! Vendored stand-in for the subset of the `proptest` crate used by this
//! workspace (the sandbox has no registry access, so the upstream crate
//! cannot be downloaded).
//!
//! Semantics: each `proptest!` test runs `ProptestConfig::cases`
//! deterministic cases. Case inputs are generated from a seeded
//! xoshiro256++ stream keyed by the test's module path and name, so runs
//! are reproducible without a persistence file. Failing cases panic with
//! the normal assert message; there is **no shrinking** — the failing
//! input is whatever the panic message shows.
//!
//! Supported strategy surface (everything the repo's property tests use):
//! integer / float ranges, inclusive ranges, tuples up to 4 elements,
//! `Just`, `any::<bool>()`, simple regex string strategies
//! (`[class]` atoms with `{n}`/`{m,n}`/`?`/`*`/`+` quantifiers),
//! `collection::vec`, `prop_map`, and `prop_flat_map`.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// The deterministic generator behind every strategy.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Builds the generator for one test case.
    pub fn from_seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty choice");
        // Multiply-shift; the tiny modulo bias is irrelevant for tests.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Per-test configuration (only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// FNV-1a hash of a string, used to derive per-test seeds.
pub fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Bounded spread rather than full bit patterns: tests want usable
        // numbers, not NaN/Inf.
        (rng.unit_f64() - 0.5) * 2e6
    }
}

/// The canonical strategy for `T` (see [`any`]).
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — arbitrary values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                (self.start as u64).wrapping_add(rng.below(span)) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                (lo as u64).wrapping_add(rng.below(span)) as $t
            }
        }
    )*};
}

impl_int_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        // Scale by the next-up of 1.0 so `hi` itself is reachable.
        lo + (hi - lo) * (rng.unit_f64() * (1.0 + f64::EPSILON)).min(1.0)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident/$v:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A/a)
    (A/a, B/b)
    (A/a, B/b, C/c)
    (A/a, B/b, C/c, D/d)
    (A/a, B/b, C/c, D/d, E/e)
}

// ---- simple regex string strategies ------------------------------------

/// One parsed regex atom: the characters it may produce and its
/// repetition bounds.
struct Atom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

/// Parses the tiny regex subset the tests use: literal characters and
/// `[...]` classes (with `a-z` ranges), each optionally followed by
/// `{n}`, `{m,n}`, `?`, `*`, or `+` (the unbounded forms cap at 8).
fn parse_simple_regex(pattern: &str) -> Vec<Atom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let set: Vec<char> = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .unwrap_or_else(|| panic!("unclosed [ in regex strategy {pattern:?}"))
                    + i;
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j], chars[j + 2]);
                        set.extend((lo as u32..=hi as u32).filter_map(char::from_u32));
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        let (min, max) = if i < chars.len() {
            match chars[i] {
                '{' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .unwrap_or_else(|| panic!("unclosed {{ in regex strategy {pattern:?}"))
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((m, n)) => (m.trim().parse().unwrap(), n.trim().parse().unwrap()),
                        None => {
                            let n: usize = body.trim().parse().unwrap();
                            (n, n)
                        }
                    }
                }
                '?' => {
                    i += 1;
                    (0, 1)
                }
                '*' => {
                    i += 1;
                    (0, 8)
                }
                '+' => {
                    i += 1;
                    (1, 8)
                }
                _ => (1, 1),
            }
        } else {
            (1, 1)
        };
        atoms.push(Atom {
            chars: set,
            min,
            max,
        });
    }
    atoms
}

impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse_simple_regex(self) {
            let count = atom.min + rng.below((atom.max - atom.min + 1) as u64) as usize;
            for _ in 0..count {
                let k = rng.below(atom.chars.len() as u64) as usize;
                out.push(atom.chars[k]);
            }
        }
        out
    }
}

/// `proptest::collection` — container strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

impl TestRng {
    /// Exposes the bounded draw for container strategies.
    pub fn below_pub(&mut self, bound: u64) -> u64 {
        self.below(bound)
    }
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Declares property tests. Each function body runs once per generated
/// case; arguments are drawn from the strategies after `in`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $crate::proptest!(@one ($cfg) $(#[$meta])* fn $name ( $($arg in $strat),+ ) $body);
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $crate::proptest!(@one ($crate::ProptestConfig::default())
                $(#[$meta])* fn $name ( $($arg in $strat),+ ) $body);
        )*
    };
    (@one ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let base = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::from_seed(
                    base ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                // Bodies may bail out of a case early with `return Ok(())`,
                // mirroring upstream proptest's Result-valued test bodies.
                #[allow(clippy::redundant_closure_call)]
                let case: ::std::result::Result<(), ::std::string::String> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                case.unwrap();
            }
        }
    };
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Any, Arbitrary, Just, ProptestConfig, Strategy,
        TestRng,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..200 {
            let v = Strategy::generate(&(3usize..10), &mut rng);
            assert!((3..10).contains(&v));
            let f = Strategy::generate(&(-2.0_f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = Strategy::generate(&(0.0_f64..=1.0), &mut rng);
            assert!((0.0..=1.0).contains(&i));
            let s = Strategy::generate(&(-100i64..100), &mut rng);
            assert!((-100..100).contains(&s));
        }
    }

    #[test]
    fn regex_strategy_matches_shape() {
        let mut rng = TestRng::from_seed(2);
        for _ in 0..100 {
            let s = Strategy::generate(&"[A-Za-z][A-Za-z0-9 ]{0,12}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 13, "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_alphabetic());
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == ' '));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = TestRng::from_seed(3);
        let strat = collection::vec((0.0_f64..1.0, 0usize..4), 2..6);
        for _ in 0..50 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!((2..6).contains(&v.len()));
            for (f, i) in v {
                assert!((0.0..1.0).contains(&f));
                assert!(i < 4);
            }
        }
    }

    #[test]
    fn map_and_flat_map_apply() {
        let mut rng = TestRng::from_seed(4);
        let doubled = (1usize..5).prop_map(|v| v * 2);
        let v = Strategy::generate(&doubled, &mut rng);
        assert!([2, 4, 6, 8].contains(&v));
        let dependent = (1usize..4).prop_flat_map(|n| collection::vec(0.0_f64..1.0, n..=n));
        let xs = Strategy::generate(&dependent, &mut rng);
        assert!((1..4).contains(&xs.len()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_runs(x in 0usize..10, y in -1.0_f64..1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&y));
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn determinism_across_equal_seeds() {
        let mut a = TestRng::from_seed(9);
        let mut b = TestRng::from_seed(9);
        for _ in 0..20 {
            assert_eq!(
                Strategy::generate(&(0u64..1_000_000), &mut a),
                Strategy::generate(&(0u64..1_000_000), &mut b),
            );
        }
    }
}
