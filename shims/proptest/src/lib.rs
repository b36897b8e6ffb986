//! Offline shim for the `proptest` crate (see `shims/README.md`).
//!
//! A deterministic subset of the proptest API: strategies are value
//! generators driven by a per-test seeded RNG (seed = hash of the test's
//! module path + name), and `proptest!` runs each property for
//! `ProptestConfig::cases` generated inputs. No shrinking, no persistence
//! of failing cases — a failing case panics through the ordinary
//! `assert!` machinery with the generated values in scope.

/// Configuration and RNG plumbing, mirroring `proptest::test_runner`.
pub mod test_runner {
    /// How many cases `proptest!` runs per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated inputs per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic splitmix64 generator used by all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG from an explicit seed.
        pub fn deterministic(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// The next 64 random bits.
        #[allow(clippy::should_implement_trait)]
        pub fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A uniform value in `0..n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next() % n
        }
    }

    /// FNV-1a hash of a string, for deriving per-test seeds from names.
    pub fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Value-generation strategies, mirroring `proptest::strategy`.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::sync::Arc;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy type. The result is cheaply cloneable.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A type-erased, cloneable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> std::fmt::Debug for BoxedStrategy<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("BoxedStrategy")
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// A strategy producing one fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A weighted choice between erased strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights sum to total")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.below((self.end - self.start) as u64) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = ((hi - lo) as u64).wrapping_add(1);
                    if span == 0 {
                        return rng.next() as $t;
                    }
                    lo + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A length distribution for [`vec()`]: `[lo, hi)`.
    #[derive(Debug, Clone, Copy)]
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
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// The result of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + if span > 1 { rng.below(span) as usize } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for vectors whose elements come from `element` and whose
    /// length comes from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The type of [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// A strategy producing `true` or `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next() & 1 == 1
        }
    }
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// The `prop::` paths available through the prelude.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` for `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal: expands each property fn inside `proptest!`.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __seed = $crate::test_runner::fnv1a(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut __rng = $crate::test_runner::TestRng::deterministic(__seed);
            $(let $arg = $strat;)+
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg =
                    $crate::strategy::Strategy::generate(&$arg, &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` under a proptest-compatible name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Weighted (`w => strategy`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn union_respects_weights_roughly() {
        let s = prop_oneof![9 => Just(1u32), 1 => Just(2u32)];
        let mut rng = crate::test_runner::TestRng::deterministic(5);
        let ones = (0..1000)
            .filter(|_| Strategy::generate(&s, &mut rng) == 1)
            .count();
        assert!(ones > 800, "ones: {ones}");
    }

    #[test]
    fn vec_lengths_in_range() {
        let s = prop::collection::vec(0u8..10, 2..6);
        let mut rng = crate::test_runner::TestRng::deterministic(6);
        for _ in 0..100 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The macro handles metas, multiple args, and trailing commas.
        #[test]
        fn macro_roundtrip(
            a in 0u64..100,
            b in prop::bool::ANY,
            pair in (1usize..4, Just(7i32)),
        ) {
            prop_assert!(a < 100);
            prop_assert_eq!(pair.1, 7, "b was {}", b);
        }
    }
}
