//! Test-only reference code shared by the pin tests.

use std::collections::BTreeMap;

use transmark_kernel::Neumaier;

/// The hashed sum-product layer the subset folds replaced, kept as an
/// ordered map: `add` accumulates onto `0.0` in call order, and every read
/// walks the entries in ascending key order, as the hashed layer's sorted
/// reads did, so a reference built on it sums in the same order, bit for
/// bit.
pub struct SortedLayer<K> {
    map: BTreeMap<K, f64>,
}

impl<K: Ord + Clone> SortedLayer<K> {
    pub fn new() -> Self {
        SortedLayer {
            map: BTreeMap::new(),
        }
    }

    /// `cell[key] += p`.
    pub fn add(&mut self, key: K, p: f64) {
        *self.map.entry(key).or_insert(0.0) += p;
    }

    /// The entries in ascending key order.
    pub fn sorted(&self) -> Vec<(K, f64)> {
        self.map.iter().map(|(k, p)| (k.clone(), *p)).collect()
    }

    /// Compensated sum of the entries whose key satisfies `pred`, folded
    /// in ascending key order.
    pub fn reduce(&self, mut pred: impl FnMut(&K) -> bool) -> f64 {
        let mut total = Neumaier::new();
        for (k, p) in &self.map {
            if pred(k) {
                total.add(*p);
            }
        }
        total.total()
    }

    /// Entries present with mass exactly `0.0`.
    pub fn zero_cells(&self) -> usize {
        self.map.values().filter(|&&p| p == 0.0).count()
    }
}
