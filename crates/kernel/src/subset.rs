//! Layer storage for the dynamic-state DPs (subset construction /
//! exact-reachable-configuration passes).
//!
//! These DPs key cells by `(node, reachable set)` — unbounded,
//! discovered on the fly — so they cannot use the flat
//! [`crate::Workspace`]. A [`SubsetLayer`] wraps the `HashMap`
//! accumulation and the sorted iteration the hand-rolled passes used:
//! entries are always folded in ascending key order, so float accumulation
//! sequences are independent of `HashMap` iteration order and results are
//! reproducible bit for bit across runs (identical queries must return
//! identical bytes).

use std::collections::HashMap;
use std::hash::Hash;

use crate::numeric::Neumaier;

/// One sum-product DP layer keyed by an `Ord + Hash` state.
#[derive(Debug, Clone)]
pub struct SubsetLayer<K> {
    map: HashMap<K, f64>,
}

impl<K: Ord + Hash + Eq + Clone> SubsetLayer<K> {
    pub fn new() -> Self {
        SubsetLayer {
            map: HashMap::new(),
        }
    }

    /// Pre-sizes for roughly the predecessor layer's population.
    pub fn with_capacity(n: usize) -> Self {
        SubsetLayer {
            map: HashMap::with_capacity(n),
        }
    }

    /// `cell[key] += p`.
    #[inline]
    pub fn add(&mut self, key: K, p: f64) {
        *self.map.entry(key).or_insert(0.0) += p;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The layer's entries in ascending key order — the only way the
    /// drivers read a layer, so downstream accumulation order is
    /// deterministic.
    pub fn sorted(&self) -> Vec<(K, f64)> {
        let mut v: Vec<(K, f64)> = self.map.iter().map(|(k, p)| (k.clone(), *p)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Compensated sum of the entries whose key satisfies `pred`,
    /// folded in ascending key order.
    pub fn reduce(&self, mut pred: impl FnMut(&K) -> bool) -> f64 {
        let mut total = Neumaier::new();
        for (k, p) in self.sorted() {
            if pred(&k) {
                total.add(p);
            }
        }
        total.total()
    }
}

impl<K: Ord + Hash + Eq + Clone> Default for SubsetLayer<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::SubsetLayer;

    #[test]
    fn accumulates_and_sorts() {
        let mut layer: SubsetLayer<(u32, u32)> = SubsetLayer::new();
        layer.add((2, 0), 0.25);
        layer.add((1, 5), 0.5);
        layer.add((2, 0), 0.25);
        assert_eq!(layer.len(), 2);
        assert_eq!(layer.sorted(), vec![((1, 5), 0.5), ((2, 0), 0.5)]);
        assert_eq!(layer.reduce(|k| k.0 == 2), 0.5);
        assert_eq!(layer.reduce(|_| true), 1.0);
        assert_eq!(layer.reduce(|_| false), 0.0);
    }

    #[test]
    fn reduce_is_order_independent_by_construction() {
        // Same multiset inserted in different orders gives identical bits.
        let entries = [(3u32, 0.1), (1, 0.7), (2, 0.2), (1, 0.05)];
        let mut a = SubsetLayer::new();
        for &(k, p) in &entries {
            a.add(k, p);
        }
        let mut b = SubsetLayer::new();
        for &(k, p) in entries.iter().rev() {
            b.add(k, p);
        }
        // Per-key accumulation order differs (0.7+0.05 vs 0.05+0.7) but is
        // commutative for two addends; the cross-key fold order is pinned.
        assert_eq!(a.reduce(|_| true).to_bits(), b.reduce(|_| true).to_bits());
    }
}
