// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for `proptest`.
//!
//! Implements the generator-based subset the workspace's property tests
//! use: the [`Strategy`] trait (ranges, tuples, `Just`, `prop_map`,
//! `prop_oneof!`, `collection::vec`, `option::of`), the `proptest!`
//! macro with `#![proptest_config(...)]`, and panic-based
//! `prop_assert!`/`prop_assert_eq!`.
//!
//! Differences from real proptest, by design:
//! - **No shrinking.** A failing case reports its seed and case number
//!   instead; set `UC_PROPTEST_SEED` / `UC_PROPTEST_CASE` to replay
//!   exactly that input.
//! - **Deterministic by default.** The base seed is derived from the
//!   test name, so CI runs are reproducible without a seed file.
//! - `*.proptest-regressions` files are not consulted; regressions worth
//!   keeping are encoded as explicit `#[test]` cases instead.

use std::ops::Range;
use std::panic::AssertUnwindSafe;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// RNG + config + runner
// ---------------------------------------------------------------------------

/// Per-case RNG handed to strategies.
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng { inner: StdRng::seed_from_u64(seed) }
    }

    pub fn inner(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

fn fnv1a(data: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn case_seed(base: u64, case: u32) -> u64 {
    // splitmix-style mix so consecutive cases diverge immediately.
    let mut z = base ^ ((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Drive one property over `config.cases` generated inputs. On failure,
/// prints the seed/case pair that reproduces the exact input, then
/// re-raises the panic so the test harness reports it.
pub fn run_test(config: &ProptestConfig, name: &str, f: impl Fn(&mut TestRng)) {
    let base_seed = match std::env::var("UC_PROPTEST_SEED") {
        Ok(s) => s.parse::<u64>().unwrap_or_else(|_| {
            panic!("UC_PROPTEST_SEED must be a u64, got {s:?}")
        }),
        Err(_) => fnv1a(name),
    };
    let only_case: Option<u32> = std::env::var("UC_PROPTEST_CASE")
        .ok()
        .and_then(|s| s.parse().ok());
    for case in 0..config.cases {
        if let Some(only) = only_case {
            if case != only {
                continue;
            }
        }
        let mut rng = TestRng::from_seed(case_seed(base_seed, case));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut rng)));
        if let Err(panic) = outcome {
            eprintln!(
                "proptest shim: `{name}` failed at case {case} of {total} \
                 (base seed {base_seed}). Replay this input with \
                 UC_PROPTEST_SEED={base_seed} UC_PROPTEST_CASE={case}.",
                total = config.cases,
            );
            std::panic::resume_unwind(panic);
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { strategy: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// Type-erased strategy, the element type of `prop_oneof!`.
pub struct BoxedStrategy<T>(Box<dyn Fn(&mut TestRng) -> T>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Always yields a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

/// Uniform choice among alternatives (`prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.inner().gen_range(0..self.options.len());
        self.options[idx].generate(rng)
    }
}

impl<T: rand::SampleUniform> Strategy for Range<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.inner().gen_range(self.clone())
    }
}

/// String strategies from a small regex subset, mirroring proptest's
/// `&str`-as-regex strategies. Supports literal characters, `[...]`
/// character classes with ranges, and the quantifiers `{n}`, `{n,m}`,
/// `*`, `+`, `?` (unbounded quantifiers cap at 8 repetitions).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let elems = parse_regex(self);
        let mut out = String::new();
        for elem in &elems {
            let count = if elem.min == elem.max {
                elem.min
            } else {
                rng.inner().gen_range(elem.min..=elem.max)
            };
            for _ in 0..count {
                out.push(sample_class(&elem.class, rng));
            }
        }
        out
    }
}

struct RegexElem {
    class: Vec<(char, char)>, // inclusive char ranges
    min: usize,
    max: usize,
}

fn sample_class(class: &[(char, char)], rng: &mut TestRng) -> char {
    let total: u32 = class.iter().map(|(lo, hi)| *hi as u32 - *lo as u32 + 1).sum();
    let mut pick = rng.inner().gen_range(0..total);
    for (lo, hi) in class {
        let width = *hi as u32 - *lo as u32 + 1;
        if pick < width {
            return char::from_u32(*lo as u32 + pick).expect("invalid char range");
        }
        pick -= width;
    }
    unreachable!("sample_class: pick exceeded class width")
}

fn parse_regex(pattern: &str) -> Vec<RegexElem> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut elems = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let class: Vec<(char, char)> = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .unwrap_or_else(|| panic!("unclosed [ in regex strategy {pattern:?}"))
                    + i;
                let mut ranges = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        ranges.push((chars[j], chars[j + 2]));
                        j += 3;
                    } else {
                        ranges.push((chars[j], chars[j]));
                        j += 1;
                    }
                }
                i = close + 1;
                ranges
            }
            '\\' => {
                i += 2;
                match chars[i - 1] {
                    'd' => vec![('0', '9')],
                    'w' => vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
                    c => vec![(c, c)],
                }
            }
            '.' => {
                i += 1;
                vec![('a', 'z'), ('A', 'Z'), ('0', '9')]
            }
            c if c == '(' || c == ')' || c == '|' => {
                panic!("regex strategy {pattern:?}: groups/alternation unsupported by shim")
            }
            c => {
                i += 1;
                vec![(c, c)]
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
                        Some((lo, hi)) => (
                            lo.trim().parse().expect("bad {n,m} lower bound"),
                            hi.trim().parse().expect("bad {n,m} upper bound"),
                        ),
                        None => {
                            let n = body.trim().parse().expect("bad {n} count");
                            (n, n)
                        }
                    }
                }
                '*' => {
                    i += 1;
                    (0, 8)
                }
                '+' => {
                    i += 1;
                    (1, 8)
                }
                '?' => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            }
        } else {
            (1, 1)
        };
        elems.push(RegexElem { class, min, max });
    }
    elems
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

pub mod collection {
    use super::{Range, Strategy, TestRng};
    use rand::Rng;

    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range for collection::vec");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.inner().gen_range(self.len.clone());
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `proptest::option::of(strategy)`: `None` about half the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.inner().gen_bool(0.5) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(::std::vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_each! { @cfg ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_each! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_each {
    (@cfg ($config:expr)) => {};
    (@cfg ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident ($($arg:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::run_test(&__config, stringify!($name), |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                $body
            });
        }
        $crate::__proptest_each! { @cfg ($config) $($rest)* }
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::option;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestRng, Union,
    };
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        let s = collection::vec((0u8..4, 1usize..10), 1..40);
        for _ in 0..200 {
            let v = Strategy::generate(&s, &mut rng);
            assert!((1..40).contains(&v.len()));
            for (a, b) in v {
                assert!(a < 4);
                assert!((1..10).contains(&b));
            }
        }
    }

    #[test]
    fn same_seed_same_values() {
        let s = prop_oneof![
            (0u64..100).prop_map(|v| format!("a{v}")),
            Just(String::from("fixed")),
        ];
        let a: Vec<String> =
            (0..50).map(|i| Strategy::generate(&s, &mut TestRng::from_seed(i))).collect();
        let b: Vec<String> =
            (0..50).map(|i| Strategy::generate(&s, &mut TestRng::from_seed(i))).collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_round_trips(xs in collection::vec(0i64..50, 1..10), flag in option::of(0u8..2)) {
            prop_assert!(xs.len() < 10);
            prop_assert_eq!(xs.iter().count(), xs.len());
            if let Some(f) = flag {
                prop_assert!(f < 2, "flag {} out of range", f);
            }
        }
    }
}
