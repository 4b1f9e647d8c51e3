//! Offline vendored subset of the `proptest` crate.
//!
//! The build environment has no registry access, so the workspace pins
//! this path crate in place of crates.io `proptest`. It covers exactly
//! what the workspace's property tests use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(...)]`),
//! * numeric range strategies, tuple strategies, [`prop::collection::vec`],
//! * [`strategy::Strategy::prop_map`] / [`strategy::Strategy::prop_filter`],
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case panics immediately and prints the
//!   full generated input (all strategy values here are `Debug`).
//! * **No regression-file persistence.** `*.proptest-regressions` files
//!   are not read; checked-in shrunk cases should be re-run as explicit
//!   unit tests (see `tests/invariants.rs`).
//! * Case generation is deterministic per test (seeded from the test's
//!   module path and case index), so failures always reproduce.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod test_runner {
    //! Test configuration and the per-case RNG.

    use super::*;

    /// Subset of proptest's config: the number of cases per property.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// How many random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-case RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// RNG for case `case` of the test named `name` (stable across
        /// runs so failures reproduce).
        pub fn for_case(name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(StdRng::seed_from_u64(
                h ^ (u64::from(case) << 32) ^ u64::from(case),
            ))
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use rand::Rng;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value: std::fmt::Debug;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U: std::fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Retry generation until `f` accepts the value (up to an
        /// attempt cap, then panic with `whence`).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U: std::fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter rejected 1000 consecutive candidates: {}",
                self.whence
            );
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + std::fmt::Debug>(pub T);

    impl<T: Clone + std::fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod prop {
    //! The `prop::` namespace re-exported by the prelude.

    pub mod collection {
        //! Collection strategies.

        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use rand::Rng;

        /// Element-count specification for [`vec()`]: an exact length or a
        /// (half-open / inclusive) length range.
        #[derive(Debug, Clone, Copy)]
        pub struct SizeRange {
            lo: usize,
            hi_exclusive: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange {
                    lo: n,
                    hi_exclusive: n + 1,
                }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi_exclusive: r.end,
                }
            }
        }

        impl From<core::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: core::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi_exclusive: *r.end() + 1,
                }
            }
        }

        /// Strategy for vectors of `element` values with a length drawn
        /// from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
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
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let len = rng.0.gen_range(self.size.lo..self.size.hi_exclusive);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

pub mod prelude {
    //! Everything a property-test file needs, mirroring
    //! `proptest::prelude`.

    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Assert inside a property (panics and lets the harness report the
/// failing input; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*)
    };
}

/// Skip the current case when `cond` is false. Real proptest rejects
/// and redraws; this vendored stub simply ends the case early (each
/// case body runs inside its own closure), which keeps the same
/// semantics for tests that merely guard a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// The property-test macro: runs each body over `cases` random inputs
/// drawn from the given strategies, printing the full failing input on
/// panic.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config); $($rest)*);
    };
    (@with_config ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let strategy = ($($strat,)+);
            for case in 0..config.cases {
                let mut rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                let value = $crate::strategy::Strategy::generate(&strategy, &mut rng);
                let described = format!("{:?}", value);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let ($($pat,)+) = value;
                    $body
                }));
                if let Err(payload) = outcome {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed (no shrinking in the vendored \
                         proptest); input:\n{}",
                        case + 1,
                        config.cases,
                        stringify!($name),
                        described,
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        );
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn masses(n: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(0.0f64..10.0, n)
            .prop_filter("non-zero total", |v| v.iter().sum::<f64>() > 1e-6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0u32..7, y in 0.25f64..=0.75, (a, b) in (1usize..4, -3i64..=3)) {
            prop_assert!(x < 7);
            prop_assert!((0.25..=0.75).contains(&y));
            prop_assert!((1..4).contains(&a));
            prop_assert!((-3..=3).contains(&b), "b = {b}");
        }

        #[test]
        fn vec_lengths_respect_size(v in prop::collection::vec(0u32..5, 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn filter_and_map_compose(m in masses(6)) {
            prop_assert_eq!(m.len(), 6);
            prop_assert!(m.iter().sum::<f64>() > 1e-6);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = prop::collection::vec(0.0f64..1.0, 8);
        let a = strat.generate(&mut TestRng::for_case("x", 3));
        let b = strat.generate(&mut TestRng::for_case("x", 3));
        assert_eq!(a, b);
        let c = strat.generate(&mut TestRng::for_case("x", 4));
        assert_ne!(a, c);
    }
}
