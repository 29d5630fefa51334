//! Collection strategies: `vec`, `btree_set`, `btree_map`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet};

/// A size bound for generated collections (`usize`, `a..b`, or `a..=b`).
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + (rng.next_u64() as usize) % (self.hi - self.lo + 1)
    }
}

/// Strategy for `Vec<T>` with element strategy `element` and a size bound.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeSet<T>`. Duplicate draws are retried a bounded
/// number of times, so tiny element domains may yield fewer than the
/// requested elements (mirroring proptest's best-effort behavior).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let n = self.size.pick(rng);
        let mut out = BTreeSet::new();
        let mut attempts = 0;
        while out.len() < n && attempts < 4 * n + 16 {
            out.insert(self.element.generate(rng));
            attempts += 1;
        }
        out
    }
}

/// Strategy for `BTreeMap<K, V>`; sized like [`btree_set`].
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy {
        keys,
        values,
        size: size.into(),
    }
}

/// See [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let n = self.size.pick(rng);
        let mut out = BTreeMap::new();
        let mut attempts = 0;
        while out.len() < n && attempts < 4 * n + 16 {
            out.insert(self.keys.generate(rng), self.values.generate(rng));
            attempts += 1;
        }
        out
    }
}
