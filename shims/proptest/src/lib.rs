//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no network access, so the workspace vendors the
//! subset of proptest it uses: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map` / `prop_recursive` / `boxed`, [`Just`], [`any`], ranges and
//! tuples as strategies, [`prop_oneof!`], [`collection::vec`], and the
//! `prop_assert*` macros.
//!
//! Differences from upstream, deliberate for a hermetic test gate:
//!
//! * **No shrinking.** A failing case panics with its case index; cases are
//!   derived deterministically from the test name, so every failure is
//!   reproducible by rerunning the test.
//! * **Deterministic by construction.** There is no `PROPTEST_` env
//!   handling and no persistence file; case `i` of test `t` is always the
//!   same inputs.

use std::sync::Arc;

pub use rand::SeedableRng;

/// RNG used to generate test cases.
pub type TestRng = rand::rngs::StdRng;

/// Error produced by a failing `prop_assert!` — carries the message only.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    pub fn new(msg: String) -> Self {
        Self(msg)
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-`proptest!` block configuration. Only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Deterministic per-case RNG: seed = FNV-1a(test name) combined with the
/// case index, so runs are reproducible and cases independent.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9E37_79B9))
}

/// A generator of values for property tests.
///
/// Unlike upstream there is no value tree: `generate` produces a value
/// directly and nothing shrinks.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a depth-bounded recursive strategy by folding `recurse` over
    /// the base strategy `depth` times. `_desired_size` and
    /// `_expected_branch_size` are accepted for signature compatibility but
    /// unused — depth alone bounds expansion here.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut s = self.boxed();
        for _ in 0..depth {
            s = recurse(s).boxed();
        }
        s
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// Object-safe, clonable, shareable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Result of [`Strategy::prop_map`].
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

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "whole domain" strategy, for [`any`].
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_prim {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                use rand::Rng;
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        use rand::Rng;
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($name::arbitrary(rng),)+)
            }
        }
    };
}

arbitrary_tuple!(A, B);
arbitrary_tuple!(A, B, C);
arbitrary_tuple!(A, B, C, D);

/// Strategy for the whole domain of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole domain of `T` as a strategy: `any::<u64>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::RngExt;
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::RngExt;
                rng.random_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        use rand::RngExt;
        rng.random_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($($name:ident/$idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Uniform choice between boxed alternatives — target of [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Self { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        use rand::RngExt;
        let i = rng.random_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Sizes accepted by [`vec()`]: an exact `usize` or a `Range<usize>`.
    pub trait SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            use rand::RngExt;
            rng.random_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            use rand::RngExt;
            rng.random_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S, Z> {
        element: S,
        size: Z,
    }

    pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.pick(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs `cases` deterministic iterations and panics on the first failing
/// case with its index.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs $cfg; $($rest)*);
    };
    (@funcs $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut proptest_rng = $crate::case_rng(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut proptest_rng);)*
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name), case, config.cases, e
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs $crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// the process) so the harness can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::new(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        match (&$a, &$b) {
            (left, right) => {
                $crate::prop_assert!(
                    *left == *right,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($a), stringify!($b), left, right
                );
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        match (&$a, &$b) {
            (left, right) => {
                $crate::prop_assert!(*left == *right, $($fmt)*);
            }
        }
    };
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Everything a property-test file needs, mirroring upstream's prelude.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, Any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, Union,
    };
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn cases_are_deterministic_per_name() {
        let s = (1usize..=3, any::<u32>()).prop_map(|(a, b)| (a, b));
        let a: Vec<_> = (0..10)
            .map(|i| s.generate(&mut crate::case_rng("t", i)))
            .collect();
        let b: Vec<_> = (0..10)
            .map(|i| s.generate(&mut crate::case_rng("t", i)))
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(n in 1usize..5, x in 0u8..8, f in 0.0f64..2.0) {
            prop_assert!((1..5).contains(&n));
            prop_assert!(x < 8);
            prop_assert!((0.0..2.0).contains(&f), "f = {}", f);
        }

        #[test]
        fn vec_sizes_and_oneof(v in collection::vec(any::<(u8, u8, u8)>(), 0..20),
                               w in collection::vec(0.0f64..2.0, 2),
                               pick in prop_oneof![Just(1u8), Just(2u8), (5u8..7).prop_map(|x| x)]) {
            prop_assert!(v.len() < 20);
            prop_assert_eq!(w.len(), 2);
            prop_assert!(pick == 1 || pick == 2 || pick == 5 || pick == 6);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Expr {
        Leaf,
        Pair(Box<Expr>, Box<Expr>),
    }

    fn depth(e: &Expr) -> usize {
        match e {
            Expr::Leaf => 0,
            Expr::Pair(a, b) => 1 + depth(a).max(depth(b)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn recursion_is_depth_bounded(
            e in Just(Expr::Leaf).prop_recursive(3, 12, 2, |inner| {
                prop_oneof![
                    Just(Expr::Leaf),
                    (inner.clone(), inner)
                        .prop_map(|(a, b)| Expr::Pair(Box::new(a), Box::new(b))),
                ]
            }),
        ) {
            prop_assert!(depth(&e) <= 3, "depth {} for {:?}", depth(&e), e);
        }
    }
}
