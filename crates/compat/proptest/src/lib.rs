//! Workspace-local stand-in for `proptest`.
//!
//! Implements the subset of the proptest API used by the workspace's property
//! tests: the [`Strategy`] trait with `prop_map` / `prop_flat_map`, range and
//! tuple strategies, [`Just`], [`collection::vec`], [`arbitrary::any`], the
//! [`proptest!`] macro and `prop_assert!` / `prop_assert_eq!`.
//!
//! Differences from the real crate: cases are generated from a deterministic
//! per-test ChaCha8 stream (derived from the test name and case index), and
//! there is **no shrinking** — a failing case reports its case index so it can
//! be replayed exactly, which is sufficient for a fixed-seed CI setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::SeedableRng;

/// The RNG driving all strategies.
pub type TestRng = rand_chacha::ChaCha8Rng;

/// Builds the deterministic RNG for one `(test, case)` pair.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::seed_from_u64(hash ^ ((case as u64) << 32 | case as u64))
}

/// Run-time configuration of a [`proptest!`] block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases generated per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn sample_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { base: self, f }
    }

    /// Feeds each generated value into `f` to produce a dependent strategy,
    /// then samples from that.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { base: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;

    fn sample_value(&self, rng: &mut TestRng) -> T {
        (self.f)(self.base.sample_value(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample_value(&self, rng: &mut TestRng) -> S2::Value {
        let intermediate = self.base.sample_value(rng);
        (self.f)(intermediate).sample_value(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rand::Rng::gen_range(rng, self.start as usize..self.end as usize) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample_value(&self, rng: &mut TestRng) -> $t {
                rand::Rng::gen_range(rng, *self.start() as usize..=*self.end() as usize) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample_value(&self, rng: &mut TestRng) -> f64 {
        rand::Rng::gen_range(rng, self.start..self.end)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;

    fn sample_value(&self, rng: &mut TestRng) -> f64 {
        rand::Rng::gen_range(rng, *self.start()..=*self.end())
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample_value(rng),)+)
            }
        }
    )+};
}

tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

pub mod arbitrary {
    //! `any::<T>()` support for primitive types.

    use super::{Strategy, TestRng};

    /// Types with a canonical "whole domain" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value of the type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rand::Rng::gen(rng)
        }
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rand::RngCore::next_u32(rng) as u8
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> u32 {
            rand::RngCore::next_u32(rng)
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rand::RngCore::next_u64(rng)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite "reasonable" floats; the real proptest generates specials
            // too, but the workspace's numeric properties assume finite input.
            rand::Rng::gen_range(rng, -1.0e6..1.0e6)
        }
    }

    /// The canonical strategy for `T`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Returns the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Strategies for collections.

    use super::{Strategy, TestRng};

    /// A size specification for [`vec()`]: a fixed length or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rand::Rng::gen_range(rng, self.size.lo..self.size.hi);
            (0..len).map(|_| self.elem.sample_value(rng)).collect()
        }
    }

    /// Vectors whose length is drawn from `size` and whose elements are drawn
    /// from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }
}

/// Asserts a condition inside a property; failure reports the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property; failure reports the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_eq!($left, $right, $($fmt)*) };
}

/// Reports the failing case index when a property body panics, so the exact
/// input can be replayed with [`case_rng`]. Created per case by [`proptest!`];
/// the report fires from `Drop` only while unwinding.
#[derive(Debug)]
pub struct CaseReporter {
    test_name: &'static str,
    case: u32,
}

impl CaseReporter {
    /// Arms the reporter for one `(test, case)` pair.
    pub fn new(test_name: &'static str, case: u32) -> Self {
        CaseReporter { test_name, case }
    }
}

impl Drop for CaseReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest (workspace shim): property '{}' failed on case {}; \
                 replay its inputs with case_rng(\"{}\", {})",
                self.test_name, self.case, self.test_name, self.case
            );
        }
    }
}

/// Defines property tests: each `fn name(pat in strategy, …) { body }` becomes
/// a `#[test]` that runs `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let _case_reporter = $crate::CaseReporter::new(stringify!($name), case);
                    let mut proptest_case_rng = $crate::case_rng(stringify!($name), case);
                    $(
                        let $pat = $crate::Strategy::sample_value(
                            &($strat),
                            &mut proptest_case_rng,
                        );
                    )+
                    let run = || -> () { $body };
                    run();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// The commonly used items, for glob import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_compose() {
        let mut rng = super::case_rng("strategies_compose", 0);
        let strat = (2usize..6)
            .prop_flat_map(|n| (Just(n), super::collection::vec(0usize..n, 1..4), -1.0f64..1.0));
        for _ in 0..100 {
            let (n, v, x) = strat.sample_value(&mut rng);
            assert!((2..6).contains(&n));
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&e| e < n));
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn case_rng_is_deterministic_and_name_sensitive() {
        use rand::RngCore;
        let a = super::case_rng("t", 0).next_u64();
        let b = super::case_rng("t", 0).next_u64();
        let c = super::case_rng("t", 1).next_u64();
        let d = super::case_rng("u", 0).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_cases(n in 1usize..10, flags in super::collection::vec(any::<bool>(), 0..5)) {
            prop_assert!((1..10).contains(&n));
            prop_assert!(flags.len() < 5);
            prop_assert_eq!(n, n);
        }
    }
}
