//! The standard generator library: integers, floats, booleans,
//! collections, character-class strings and alternation.
//!
//! Every generator maps the all-zero choice stream to its simplest value
//! (smallest integer, empty/shortest collection, first alternative), which
//! is what the shrinker drives toward.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::gen::Gen;

/// Always generates a clone of `v` (consumes no choices).
pub fn just<T: Clone + 'static>(v: T) -> Gen<T> {
    Gen::new(move |_| v.clone())
}

/// Any `u64` (the zero choice maps to 0).
pub fn any_u64() -> Gen<u64> {
    Gen::new(|src| src.next_u64())
}

/// Any `u32`.
pub fn any_u32() -> Gen<u32> {
    Gen::new(|src| src.next_u64() as u32)
}

/// Any `u8`.
pub fn any_u8() -> Gen<u8> {
    Gen::new(|src| src.next_u64() as u8)
}

/// Any `bool` (zero maps to `false`).
pub fn any_bool() -> Gen<bool> {
    Gen::new(|src| src.bool())
}

macro_rules! int_in {
    ($name:ident, $t:ty) => {
        /// Integer in the half-open range (zero choice maps to the low end).
        pub fn $name(r: Range<$t>) -> Gen<$t> {
            assert!(r.start < r.end, "empty range {:?}", r);
            Gen::new(move |src| r.start + src.below((r.end - r.start) as u64) as $t)
        }
    };
}

int_in!(u8_in, u8);
int_in!(u32_in, u32);
int_in!(u64_in, u64);
int_in!(usize_in, usize);

/// `f64` in the half-open range (zero choice maps to the low end).
pub fn f64_in(r: Range<f64>) -> Gen<f64> {
    assert!(r.start < r.end, "empty range {r:?}");
    Gen::new(move |src| r.start + (r.end - r.start) * src.unit_f64())
}

/// `Duration` in the half-open range at millisecond granularity (the zero
/// choice maps to the low end). Millisecond steps keep the choice space
/// small enough for the shrinker to binary-search event times.
pub fn duration_in(r: Range<std::time::Duration>) -> Gen<std::time::Duration> {
    assert!(r.start < r.end, "empty range {r:?}");
    let lo = r.start.as_millis() as u64;
    let hi = (r.end.as_millis() as u64).max(lo + 1);
    Gen::new(move |src| std::time::Duration::from_millis(lo + src.below(hi - lo)))
}

/// `Vec` of `len` in `len_range` (half-open) elements; the zero stream
/// maps to the shortest vector of simplest elements.
pub fn vec<T: 'static>(g: Gen<T>, len_range: Range<usize>) -> Gen<Vec<T>> {
    assert!(len_range.start < len_range.end, "empty range {len_range:?}");
    Gen::new(move |src| {
        let len = len_range.start + src.below((len_range.end - len_range.start) as u64) as usize;
        (0..len).map(|_| g.run(src)).collect()
    })
}

/// `BTreeSet` with a size drawn from `size_range` (half-open). If the
/// element space is too small to reach the drawn size, the set is as
/// large as a bounded number of draws could make it.
pub fn btree_set<T: Ord + 'static>(g: Gen<T>, size_range: Range<usize>) -> Gen<BTreeSet<T>> {
    assert!(
        size_range.start < size_range.end,
        "empty range {size_range:?}"
    );
    Gen::new(move |src| {
        let target =
            size_range.start + src.below((size_range.end - size_range.start) as u64) as usize;
        let mut set = BTreeSet::new();
        let mut attempts = 0;
        while set.len() < target && attempts < target * 10 + 16 {
            set.insert(g.run(src));
            attempts += 1;
        }
        set
    })
}

/// `BTreeMap` with a size drawn from `size_range` (half-open); duplicate
/// keys overwrite, so small key spaces may yield smaller maps.
pub fn btree_map<K: Ord + 'static, V: 'static>(
    kg: Gen<K>,
    vg: Gen<V>,
    size_range: Range<usize>,
) -> Gen<BTreeMap<K, V>> {
    assert!(
        size_range.start < size_range.end,
        "empty range {size_range:?}"
    );
    Gen::new(move |src| {
        let target =
            size_range.start + src.below((size_range.end - size_range.start) as u64) as usize;
        let mut map = BTreeMap::new();
        let mut attempts = 0;
        while map.len() < target && attempts < target * 10 + 16 {
            map.insert(kg.run(src), vg.run(src));
            attempts += 1;
        }
        map
    })
}

/// Picks one of the alternatives uniformly; the zero choice maps to the
/// first (put the simplest alternative first).
pub fn one_of<T: 'static>(alts: Vec<Gen<T>>) -> Gen<T> {
    assert!(!alts.is_empty(), "one_of of nothing");
    Gen::new(move |src| alts[src.below(alts.len() as u64) as usize].run(src))
}

/// Picks one of the alternatives with the given relative weights.
pub fn weighted_of<T: 'static>(alts: Vec<(u32, Gen<T>)>) -> Gen<T> {
    assert!(!alts.is_empty(), "weighted_of of nothing");
    let weights: Vec<u32> = alts.iter().map(|(w, _)| *w).collect();
    Gen::new(move |src| alts[src.weighted(&weights)].1.run(src))
}

/// Uniformly picks one element of a non-empty slice (cloned).
pub fn element_of<T: Clone + 'static>(items: Vec<T>) -> Gen<T> {
    assert!(!items.is_empty(), "element_of of nothing");
    Gen::new(move |src| items[src.below(items.len() as u64) as usize].clone())
}

/// One parsed `[class]{m,n}` (or literal) atom of a string pattern.
struct Atom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

/// Parses the regex subset used throughout the test suites: a
/// concatenation of literal characters and `[...]` classes (with `a-z`
/// ranges; a trailing `-` is literal), each optionally quantified by
/// `{n}` or `{m,n}` (inclusive). Panics on anything else — patterns are
/// compile-time constants in tests.
fn parse_pattern(pattern: &str) -> Vec<Atom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let set: Vec<char> = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"))
                    + i;
                let inner = &chars[i + 1..close];
                let mut set = Vec::new();
                let mut j = 0;
                while j < inner.len() {
                    if j + 2 < inner.len() && inner[j + 1] == '-' {
                        let (lo, hi) = (inner[j] as u32, inner[j + 2] as u32);
                        assert!(lo <= hi, "inverted range in pattern {pattern:?}");
                        set.extend((lo..=hi).filter_map(char::from_u32));
                        j += 3;
                    } else {
                        set.push(inner[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                assert!(!set.is_empty(), "empty class in pattern {pattern:?}");
                set
            }
            '{' | '}' | ']' => panic!("unsupported pattern syntax in {pattern:?}"),
            c => {
                i += 1;
                std::vec![c]
            }
        };
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"))
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse().expect("pattern quantifier"),
                    n.trim().parse().expect("pattern quantifier"),
                ),
                None => {
                    let n = body.trim().parse().expect("pattern quantifier");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        assert!(min <= max, "inverted quantifier in pattern {pattern:?}");
        atoms.push(Atom {
            chars: set,
            min,
            max,
        });
    }
    atoms
}

/// Strings matching a `[class]{m,n}` pattern (literals, `[a-z0-9_]`
/// classes and `{m}`/`{m,n}` quantifiers). The zero stream maps to the
/// shortest string of first-in-class characters.
pub fn string(pattern: &str) -> Gen<String> {
    let atoms = parse_pattern(pattern);
    Gen::new(move |src| {
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min + src.below((atom.max - atom.min + 1) as u64) as usize;
            for _ in 0..n {
                out.push(atom.chars[src.below(atom.chars.len() as u64) as usize]);
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;

    #[test]
    fn zero_stream_is_minimal_everywhere() {
        let z = || Source::replay(Vec::new());
        assert_eq!(u64_in(5..10).run(&mut z()), 5);
        assert_eq!(f64_in(2.0..4.0).run(&mut z()), 2.0);
        assert_eq!(vec(any_u8(), 0..10).run(&mut z()), Vec::<u8>::new());
        assert_eq!(string("[a-z]{0,8}").run(&mut z()), "");
        assert_eq!(string("[a-z]{2,8}").run(&mut z()), "aa");
    }

    #[test]
    fn pattern_strings_match_their_class() {
        let g = string("[a-zA-Z0-9/:._-]{1,40}");
        let mut src = Source::live(11);
        for _ in 0..500 {
            let s = g.run(&mut src);
            assert!((1..=40).contains(&s.chars().count()), "{s:?}");
            assert!(s
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '/' | ':' | '.' | '_' | '-')));
        }
    }

    #[test]
    fn printable_ascii_range_pattern() {
        let g = string("[ -~]{1,64}");
        let mut src = Source::live(13);
        for _ in 0..300 {
            let s = g.run(&mut src);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)), "{s:?}");
        }
    }

    #[test]
    fn literal_and_exact_quantifier_patterns() {
        let g = string("u[0-9]{3}");
        let mut src = Source::live(17);
        for _ in 0..100 {
            let s = g.run(&mut src);
            assert_eq!(s.len(), 4);
            assert!(s.starts_with('u'));
            assert!(s[1..].chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn collections_respect_size_bounds() {
        let mut src = Source::live(19);
        for _ in 0..200 {
            let v = vec(any_u8(), 1..40).run(&mut src);
            assert!((1..40).contains(&v.len()));
            let s = btree_set(u32_in(0..32), 2..10).run(&mut src);
            assert!(s.len() < 10);
            assert!(s.iter().all(|&x| x < 32));
            let m = btree_map(string("[a-z]{1,6}"), any_u8(), 0..6).run(&mut src);
            assert!(m.len() < 6);
        }
    }

    #[test]
    fn one_of_covers_all_alternatives() {
        let g = one_of(std::vec![just(1u8), just(2), just(3)]);
        let mut seen = BTreeSet::new();
        let mut src = Source::live(23);
        for _ in 0..200 {
            seen.insert(g.run(&mut src));
        }
        assert_eq!(seen.len(), 3);
    }
}
