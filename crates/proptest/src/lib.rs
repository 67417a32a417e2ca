//! Offline stand-in for the `proptest` crate.
//!
//! The sandbox has no registry access, so this crate vendors the slice of
//! proptest the workspace's property tests rely on: the [`Strategy`]
//! trait with `prop_map`, `any::<T>()`, integer/float range strategies,
//! tuple strategies, `collection::vec`, `option::of`, `sample::Index`,
//! `prop_oneof!`, the `proptest!` test-block macro (honouring
//! `#![proptest_config(..)]`), and the `prop_assert*` family.
//!
//! Semantics differ from real proptest in one deliberate way: cases are
//! sampled deterministically (seeded per test by name) and failures are
//! reported without shrinking. That trades minimal counterexamples for
//! reproducibility in an offline CI environment.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The per-case random source handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds a case generator.
    pub fn seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// Raw 64 random bits.
    pub fn bits(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        self.0.random_range(0..bound)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.random::<f64>()
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of value produced.
    type Value;

    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Output of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a canonical "anything goes" strategy.
pub trait Arbitrary: Sized {
    /// Samples an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                // Mix raw draws with boundary values so edge cases appear
                // with non-vanishing probability, as real proptest biases.
                match rng.below(8) {
                    0 => 0,
                    1 => <$t>::MAX,
                    2 => 1,
                    _ => rng.bits() as $t,
                }
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.bits() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        match rng.below(8) {
            0 => 0.0,
            1 => 1.0,
            2 => -1.0,
            _ => (rng.unit() - 0.5) * 2e6,
        }
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Output of [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Bias toward the boundaries occasionally.
                let offset = match rng.below(8) {
                    0 => 0,
                    1 => span - 1,
                    _ => rng.bits() as u128 % span,
                };
                self.start.wrapping_add(offset as $t)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as i128 - start as i128) as u128 + 1;
                start.wrapping_add((rng.bits() as u128 % span) as $t)
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i32, i64);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (rng.unit() as $t) * (self.end - self.start)
            }
        }
    )*};
}
impl_range_strategy_float!(f32, f64);

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A strategy for `Vec`s whose length is drawn from `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end - self.len.start;
            let n = if span == 0 {
                self.len.start
            } else {
                self.len.start + rng.below(span)
            };
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestRng};

    /// A strategy yielding `None` about a quarter of the time and
    /// `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Output of [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// Index sampling (`proptest::sample`).
pub mod sample {
    use super::{Arbitrary, TestRng};

    /// An opaque fraction that projects onto any collection length.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `[0, len)`; `len` must be nonzero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.bits())
        }
    }
}

/// A uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<T> {
    /// The alternative strategies.
    pub variants: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        assert!(!self.variants.is_empty(), "prop_oneof! needs an arm");
        let i = rng.below(self.variants.len());
        self.variants[i].sample(rng)
    }
}

/// Test-runner configuration and failure plumbing.
pub mod test_runner {
    /// Controls how many cases each `proptest!` test runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of sampled cases per test.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// A failed `prop_assert*` inside a case body.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Everything a property-test module conventionally imports.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{Arbitrary, Just, Strategy};

    /// Namespaced access mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}

/// FNV-1a over a string — stable per-test seeds without `std::hash`
/// randomization.
pub fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Declares property tests. Each `name in strategy` binding is sampled
/// per case; the body runs for `Config::cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::test_runner::Config::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let base = $crate::fnv1a(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..u64::from(config.cases) {
                let mut __rng = $crate::TestRng::seed(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("proptest {} failed at case {}: {}", stringify!($name), case, e);
                }
            }
        }
    )*};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: `{:?}` == `{:?}`", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: `{:?}` == `{:?}`: {}", l, r, format!($($fmt)+)),
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: `{:?}` != `{:?}`", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: `{:?}` != `{:?}`: {}", l, r, format!($($fmt)+)),
            ));
        }
    }};
}

/// Boxes a strategy for [`Union`] storage (used by [`prop_oneof!`]).
pub fn box_strategy<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Uniformly chooses among alternative strategies producing one value
/// type, boxing each arm.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union {
            variants: vec![$($crate::box_strategy($strat)),+],
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_vec_sample_within_bounds() {
        let mut rng = crate::TestRng::seed(5);
        for _ in 0..200 {
            let v = (0u32..50).sample(&mut rng);
            assert!(v < 50);
            let xs = crate::collection::vec(1u8..10, 2..6).sample(&mut rng);
            assert!((2..6).contains(&xs.len()));
            assert!(xs.iter().all(|&x| (1..10).contains(&x)));
        }
    }

    #[test]
    fn oneof_and_map_compose() {
        let strat = prop_oneof![
            (0u64..10).prop_map(|x| x * 2),
            (100u64..110).prop_map(|x| x + 1),
        ];
        let mut rng = crate::TestRng::seed(8);
        let mut saw_low = false;
        let mut saw_high = false;
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            if v < 20 {
                saw_low = true;
            } else {
                assert!((101..111).contains(&v));
                saw_high = true;
            }
        }
        assert!(saw_low && saw_high);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: bindings, asserts, config all work.
        #[test]
        fn macro_smoke(a in any::<u64>(), b in 1u64..100, flag in any::<bool>()) {
            prop_assert!((1..100).contains(&b));
            prop_assert_eq!(a, a);
            prop_assert_ne!(b, 0, "b must be positive, got {}", b);
            let _ = flag;
        }
    }
}
