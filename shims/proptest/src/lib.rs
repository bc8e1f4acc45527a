//! Offline stand-in for `proptest`.
//!
//! The build environment has no crates.io access, so this crate provides the
//! slice of proptest the workspace's property tests use: the [`proptest!`]
//! macro, `Strategy` with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, `collection::vec`, `bool::ANY`, and the `prop_assert*` /
//! `prop_assume!` macros.
//!
//! Differences from upstream, deliberately accepted:
//! - no shrinking — a failing case panics with the sampled values in scope,
//! - sampling is deterministic per test (seeded from the test name), so
//!   failures reproduce exactly on re-run,
//! - strategies are re-evaluated per case, which is strictly more permissive
//!   than upstream (and cheap at the sizes used here).

#![warn(missing_docs)]

pub mod test_runner {
    //! Test configuration and the deterministic RNG driving sampling.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Configuration for a property test (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl Config {
        /// Config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic RNG used to sample strategies.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Seeded from the test name so every test gets its own stream but
        /// failures reproduce exactly on re-run.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self {
                inner: StdRng::seed_from_u64(h),
            }
        }
    }

    impl Rng for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinator adapters.

    use super::test_runner::TestRng;
    use rand::RngExt;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generate a value, then use it to build (and sample) a dependent
        /// strategy.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, S2> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// Strategy that always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! tuple_strategy {
        ($(($($name:ident . $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A.0);
        (A.0, B.1);
        (A.0, B.1, C.2);
        (A.0, B.1, C.2, D.3);
        (A.0, B.1, C.2, D.3, E.4);
    }
}

pub mod collection {
    //! Strategies for collections.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::RngExt;

    /// Length specification accepted by [`vec()`]: an exact `usize` or a
    /// half-open `Range<usize>`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::RngExt;

    /// Strategy type of [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random booleans.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.random()
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]`-style function running `cases` sampled executions.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($crate::test_runner::Config::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            let mut __completed: u32 = 0;
            let mut __attempts: u32 = 0;
            let __max_attempts = __config.cases.saturating_mul(50).saturating_add(1000);
            while __completed < __config.cases {
                __attempts += 1;
                if __attempts > __max_attempts {
                    panic!(
                        "proptest: `{}` rejected too many samples via prop_assume!",
                        stringify!($name),
                    );
                }
                $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                $body
                __completed += 1;
            }
        }
    )*};
}

/// Assert inside a property test (no shrinking here, so it is `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current sampled case when a precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3..10usize, f in -1.0f32..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn tuple_patterns_bind((a, b) in (0..5u32, 0..5u32)) {
            prop_assert!(a < 5 && b < 5);
        }

        #[test]
        fn assume_skips_cases(x in 0..100u32) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn vec_respects_size(v in crate::collection::vec(0..9u8, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 9));
        }

        #[test]
        fn flat_map_builds_dependent_strategies(
            v in (1..8usize).prop_flat_map(|n| crate::collection::vec(0..n as u32, n))
        ) {
            let n = v.len();
            prop_assert!((1..8).contains(&n));
            prop_assert!(v.iter().all(|&x| (x as usize) < n));
        }

        #[test]
        fn bools_take_both_values(v in crate::collection::vec(crate::bool::ANY, 64usize)) {
            prop_assert!(v.iter().any(|&b| b));
            prop_assert!(v.iter().any(|&b| !b));
        }

        #[test]
        fn just_yields_the_value(x in Just(41)) {
            prop_assert_eq!(x + 1, 42);
            prop_assert_ne!(x, 0);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_name() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec(0..1000u32, 5usize);
        let mut a = crate::test_runner::TestRng::deterministic("seed-name");
        let mut b = crate::test_runner::TestRng::deterministic("seed-name");
        assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
    }
}
