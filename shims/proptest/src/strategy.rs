//! Strategy trait and combinators for the offline proptest shim.

use crate::TestRng;
use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A generator of test values.
///
/// Unlike real proptest there is no value tree and no shrinking: a
/// strategy is just a deterministic function of the [`TestRng`] stream.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `map`.
    fn prop_map<U, F>(self, map: F) -> BoxedStrategy<U>
    where
        Self: Sized + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        BoxedStrategy::from_fn(move |rng| map(self.generate(rng)))
    }

    /// Builds recursive values: `grow` receives a strategy for smaller
    /// instances and returns the strategy for one level up. `depth`
    /// bounds the nesting; the other two parameters exist for proptest
    /// API compatibility and are ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        grow: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            // Mix the leaf back in at every level so generated values
            // cover all nesting depths, not only the maximum.
            current = crate::union(vec![leaf.clone(), grow(current).boxed()]);
        }
        current
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy::from_fn(move |rng| self.generate(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    generator: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> BoxedStrategy<T> {
    /// Wraps a generator function.
    pub fn from_fn(generator: impl Fn(&mut TestRng) -> T + 'static) -> Self {
        BoxedStrategy {
            generator: Rc::new(generator),
        }
    }
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            generator: Rc::clone(&self.generator),
        }
    }
}

impl<T> fmt::Debug for BoxedStrategy<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.generator)(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategies {
    ($($t:ty => $cast:ident),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range strategy");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_int_strategies!(usize => usize, u64 => u64, u32 => u32, u16 => u16, u8 => u8, i64 => i64, i32 => i32);

impl Strategy for Range<char> {
    type Value = char;

    fn generate(&self, rng: &mut TestRng) -> char {
        assert!(self.start < self.end, "empty range strategy");
        let lo = self.start as u32;
        let hi = self.end as u32;
        // Resample around the surrogate gap.
        loop {
            let v = lo + (rng.next_u64() % u64::from(hi - lo)) as u32;
            if let Some(c) = char::from_u32(v) {
                return c;
            }
        }
    }
}

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

/// One parsed regex atom: a set of candidate chars plus a repetition range.
#[derive(Debug, Clone)]
struct PatternAtom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

/// Parses the regex subset supported for string strategies: literal
/// characters, `[...]` classes with ranges, and the quantifiers `{n}`,
/// `{n,m}`, `?`, `*`, `+` (the starred forms cap at 8 repetitions).
fn parse_pattern(pattern: &str) -> Vec<PatternAtom> {
    let mut atoms = Vec::new();
    let mut chars = pattern.chars().peekable();
    while let Some(c) = chars.next() {
        let set: Vec<char> = match c {
            '[' => {
                let mut set = Vec::new();
                loop {
                    let Some(member) = chars.next() else {
                        panic!("unterminated character class in pattern {pattern:?}");
                    };
                    if member == ']' {
                        break;
                    }
                    let member = if member == '\\' {
                        chars.next().unwrap_or('\\')
                    } else {
                        member
                    };
                    if chars.peek() == Some(&'-') {
                        let mut lookahead = chars.clone();
                        lookahead.next(); // consume '-'
                        match lookahead.peek() {
                            Some(&end) if end != ']' => {
                                chars = lookahead;
                                let end = chars.next().unwrap();
                                assert!(member <= end, "inverted class range in {pattern:?}");
                                set.extend(member..=end);
                                continue;
                            }
                            _ => {}
                        }
                    }
                    set.push(member);
                }
                assert!(!set.is_empty(), "empty character class in {pattern:?}");
                set
            }
            '\\' => vec![chars.next().unwrap_or('\\')],
            other => vec![other],
        };
        let (min, max) = match chars.peek() {
            Some('{') => {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                match spec.split_once(',') {
                    Some((lo, hi)) => (
                        lo.trim().parse().expect("bad {n,m} quantifier"),
                        hi.trim().parse().expect("bad {n,m} quantifier"),
                    ),
                    None => {
                        let n = spec.trim().parse().expect("bad {n} quantifier");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                chars.next();
                (0, 1)
            }
            Some('*') => {
                chars.next();
                (0, 8)
            }
            Some('+') => {
                chars.next();
                (1, 8)
            }
            _ => (1, 1),
        };
        assert!(min <= max, "inverted quantifier in {pattern:?}");
        atoms.push(PatternAtom {
            chars: set,
            min,
            max,
        });
    }
    atoms
}

/// `&str` as a strategy: generates strings matching the pattern (regex
/// subset; see `parse_pattern`). Mirrors proptest's regex strategies.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        // Parsing per call keeps the impl allocation-simple; test inputs
        // are tiny and this is cold code.
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let count = atom.min + rng.below(atom.max - atom.min + 1);
            for _ in 0..count {
                out.push(atom.chars[rng.below(atom.chars.len())]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_parsing_shapes() {
        let atoms = parse_pattern("[A-Za-z][A-Za-z0-9]{0,8}");
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].chars.len(), 52);
        assert_eq!((atoms[0].min, atoms[0].max), (1, 1));
        assert_eq!(atoms[1].chars.len(), 62);
        assert_eq!((atoms[1].min, atoms[1].max), (0, 8));

        let atoms = parse_pattern("[ -~]{0,40}");
        assert_eq!(atoms[0].chars.len(), 95);

        let atoms = parse_pattern("ab?c*d+e{3}");
        let quantifiers: Vec<(usize, usize)> =
            atoms.iter().map(|a| (a.min, a.max)).collect();
        assert_eq!(quantifiers, vec![(1, 1), (0, 1), (0, 8), (1, 8), (3, 3)]);
    }

    #[test]
    fn literal_dash_in_class() {
        // A dash right before ']' is literal.
        let atoms = parse_pattern("[a-]");
        assert_eq!(atoms[0].chars, vec!['a', '-']);
    }

    #[test]
    fn just_and_boxed_clone() {
        let strat = Just(7u64).boxed();
        let clone = strat.clone();
        let mut rng = TestRng::from_name("just");
        assert_eq!(strat.generate(&mut rng), 7);
        assert_eq!(clone.generate(&mut rng), 7);
    }
}
