//! Test-only reference code shared by the pin tests.

use std::collections::{BTreeMap, HashMap};

use transmark_automata::{BitSet, Nfa, SymbolId};
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

/// The on-the-fly subset construction the acceptance fold was pinned
/// against: subsets interned densely in discovery order, `{q0}` first,
/// and each successor cached (`usize::MAX` = not yet computed) when a
/// caller first asks for it. Only `event_fold_pin.rs` uses it.
#[allow(dead_code)]
pub struct Determinizer {
    accepting: BitSet,
    subsets: Vec<BitSet>,
    ids: HashMap<BitSet, usize>,
    trans: Vec<usize>,
    n_symbols: usize,
}

#[allow(dead_code)]
impl Determinizer {
    /// Starts a subset construction for `nfa`; every later call must pass
    /// the same automaton.
    pub fn new(nfa: &Nfa) -> Self {
        let init = BitSet::singleton(nfa.n_states().max(1), nfa.initial().index());
        let mut ids = HashMap::new();
        ids.insert(init.clone(), 0);
        Determinizer {
            accepting: nfa.accepting_set(),
            subsets: vec![init],
            ids,
            trans: vec![usize::MAX; nfa.n_symbols()],
            n_symbols: nfa.n_symbols(),
        }
    }

    /// The id of `{q0}`.
    pub fn initial(&self) -> usize {
        0
    }

    /// Subsets materialized so far.
    pub fn n_materialized(&self) -> usize {
        self.subsets.len()
    }

    /// The subset behind id `id`.
    pub fn subset(&self, id: usize) -> &BitSet {
        &self.subsets[id]
    }

    /// Whether subset `id` holds an accepting state.
    pub fn is_accepting(&self, id: usize) -> bool {
        self.subsets[id].intersects(&self.accepting)
    }

    /// Whether subset `id` is the dead (empty) one.
    pub fn is_dead(&self, id: usize) -> bool {
        self.subsets[id].is_empty()
    }

    /// The successor of subset `id` under `symbol`.
    pub fn step(&mut self, nfa: &Nfa, id: usize, symbol: SymbolId) -> usize {
        let slot = id * self.n_symbols + symbol.index();
        if self.trans[slot] != usize::MAX {
            return self.trans[slot];
        }
        let next = nfa.step_set(&self.subsets[id], symbol);
        let next_id = match self.ids.get(&next) {
            Some(&i) => i,
            None => {
                let i = self.subsets.len();
                self.ids.insert(next.clone(), i);
                self.subsets.push(next);
                self.trans.extend((0..self.n_symbols).map(|_| usize::MAX));
                i
            }
        };
        self.trans[slot] = next_id;
        next_id
    }
}
