//! Deterministic property-testing shim for `proptest`: the `proptest!` DSL,
//! `prop_assert*` macros and the strategy combinators this workspace uses
//! (ranges, tuples, `collection::vec`, `any`, `prop_map`). Each property runs
//! a fixed number of cases derived deterministically from the test name and
//! case index, so failures are reproducible; there is no shrinking — the
//! failing case index is reported instead.

#![forbid(unsafe_code)]

use std::fmt;

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub mod collection;
pub mod prelude;

/// RNG driving case generation.
pub type TestRng = ChaCha8Rng;

/// Failure raised by `prop_assert!` / `prop_assert_eq!`.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TestCaseError {}

/// Per-property configuration (only the case count is honored).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG for one (property, case) pair.
pub fn test_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    ChaCha8Rng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37))
}

/// A generator of test values.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
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

macro_rules! impl_int_range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for std::ops::Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                use rand::Rng;
                rng.gen_range(self.start..self.end)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                use rand::Rng;
                rng.gen_range(*self.start()..=*self.end())
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        use rand::Rng;
        let unit: f64 = rng.gen();
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

/// Types with a canonical full-domain strategy, used by [`any`].
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> Self {
                use rand::RngCore;
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        use rand::RngCore;
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Runs each property a configured number of deterministic cases.
///
/// Mirrors proptest's surface syntax:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn prop_holds(x in 0u32..100, v in collection::vec(0u8..5, 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                for case in 0..config.cases {
                    let mut prop_rng = $crate::test_rng(stringify!($name), case);
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut prop_rng);)+
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property '{}' failed on deterministic case {}/{}: {}",
                            stringify!($name), case, config.cases, e
                        );
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )*
        }
    };
}

/// Fails the enclosing property when the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right
            )));
        }
    }};
}

/// Fails the enclosing property when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if *left == *right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rng_per_test_and_case() {
        use rand::RngCore;
        let a = test_rng("t", 0).next_u64();
        let b = test_rng("t", 0).next_u64();
        let c = test_rng("t", 1).next_u64();
        let d = test_rng("u", 0).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn strategies_generate_in_domain() {
        let mut rng = test_rng("domain", 0);
        for _ in 0..200 {
            let x = (3u32..9).generate(&mut rng);
            assert!((3..9).contains(&x));
            let f = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
            let (a, b, c) = (0u32..4, 1usize..3, any::<u64>()).generate(&mut rng);
            assert!(a < 4 && (1..3).contains(&b));
            let _ = c;
            let v = crate::collection::vec(0u32..7, 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&e| e < 7));
            let mapped = (0u32..10).prop_map(|x| x * 2).generate(&mut rng);
            assert!(mapped < 20 && mapped % 2 == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u32..50, v in crate::collection::vec(0u8..3, 0..6)) {
            prop_assert!(x < 50, "x out of range: {x}");
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(x, 1000);
        }
    }
}
