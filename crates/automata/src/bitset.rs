//! A small fixed-capacity bit set, and the one table that interns them.
//!
//! A [`BitSet`] is a state subset of a subset construction: of
//! determinization, and of the query engine's subset dynamic programs
//! (Theorem 4.8 of the paper, the general route and the acceptance fold).
//! The backing storage is a boxed `u64` slice, hashed and compared
//! cheaply. [`SubsetTable`] numbers the subsets a construction reaches,
//! storing each set once.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Deref;

/// A set of small integers backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitSet {
    words: Box<[u64]>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let n_words = capacity.div_ceil(64).max(1);
        Self {
            words: vec![0u64; n_words].into_boxed_slice(),
            capacity,
        }
    }

    /// Creates a set containing a single value.
    pub fn singleton(capacity: usize, value: usize) -> Self {
        let mut s = Self::new(capacity);
        s.insert(value);
        s
    }

    /// Creates a set from an iterator of values.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = usize>>(
        capacity: usize,
        values: I,
    ) -> Self {
        let mut s = Self::new(capacity);
        for v in values {
            s.insert(v);
        }
        s
    }

    /// The capacity the set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`. Panics if `value >= capacity`.
    #[inline]
    pub fn insert(&mut self, value: usize) {
        assert!(
            value < self.capacity,
            "bit {value} out of capacity {}",
            self.capacity
        );
        self.words[value / 64] |= 1u64 << (value % 64);
    }

    /// Whether `value` is in the set.
    #[inline]
    pub fn contains(&self, value: usize) -> bool {
        value < self.capacity && (self.words[value / 64] >> (value % 64)) & 1 == 1
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self` and `other` share an element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the elements of a [`BitSet`].
pub struct BitSetIter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// An empty slot of a [`SubsetTable`]'s index.
const VACANT: u32 = u32::MAX;

/// The subsets a subset construction has reached, numbered densely in
/// first-intern order and each stored once.
///
/// The table reads as the slice of its sets in id order. The index from
/// set to id is an open-addressing table of `u32` ids that hashes the
/// stored set itself, so it holds no second copy of any set. An id comes
/// from the order of [`SubsetTable::intern`] calls, never from the hash,
/// so a construction that interns in the same order numbers its subsets
/// the same way whatever the hasher's keys. The hasher is std's keyed
/// one because a resume interns sets read from a checkpoint blob.
pub struct SubsetTable {
    capacity: usize,
    sets: Vec<BitSet>,
    /// Linear-probing slots, each a set's id or [`VACANT`]; a power of two
    /// more than twice the number of sets.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl SubsetTable {
    /// An empty table of sets of capacity `capacity`.
    pub fn new(capacity: usize) -> Self {
        SubsetTable {
            capacity,
            sets: Vec::new(),
            slots: vec![VACANT; 8],
            hasher: RandomState::new(),
        }
    }

    /// The capacity of every set in the table.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The id of `set`: its existing one (dropping `set`), or the next id
    /// if it is new. Panics unless `set` has the table's capacity.
    pub fn intern(&mut self, set: BitSet) -> usize {
        assert_eq!(set.capacity, self.capacity, "subset capacity mismatch");
        let hash = self.hasher.hash_one(&set);
        let slot = probe(&self.slots, hash, |d| self.sets[d as usize] == set);
        if self.slots[slot] != VACANT {
            return self.slots[slot] as usize;
        }
        let d = self.sets.len();
        assert!(d < VACANT as usize, "too many subsets");
        self.slots[slot] = d as u32;
        self.sets.push(set);
        if 2 * self.sets.len() >= self.slots.len() {
            let mut slots = vec![VACANT; 2 * self.slots.len()];
            for (d, set) in self.sets.iter().enumerate() {
                let slot = probe(&slots, self.hasher.hash_one(set), |_| false);
                slots[slot] = d as u32;
            }
            self.slots = slots;
        }
        d
    }
}

/// The first slot from `hash`'s home on that is vacant or holds an id
/// `is_set` accepts.
fn probe(slots: &[u32], hash: u64, is_set: impl Fn(u32) -> bool) -> usize {
    let mask = slots.len() - 1;
    let mut slot = hash as usize & mask;
    while slots[slot] != VACANT && !is_set(slots[slot]) {
        slot = (slot + 1) & mask;
    }
    slot
}

impl Deref for SubsetTable {
    type Target = [BitSet];

    fn deref(&self) -> &[BitSet] {
        &self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_yields_sorted_elements() {
        let s = BitSet::from_iter_with_capacity(200, [199, 3, 64, 65, 0]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 3, 64, 65, 199]);
    }

    #[test]
    fn intersects_needs_a_shared_element() {
        let a = BitSet::from_iter_with_capacity(70, [1, 65]);
        let b = BitSet::from_iter_with_capacity(70, [2, 65]);
        assert!(a.intersects(&b));
        let c = BitSet::from_iter_with_capacity(70, [3]);
        assert!(!b.intersects(&c));
    }

    #[test]
    fn equality_is_by_contents() {
        let a = BitSet::from_iter_with_capacity(100, [5, 50]);
        let b = BitSet::from_iter_with_capacity(100, [50, 5]);
        assert_eq!(a, b);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(8);
        s.insert(8);
    }

    #[test]
    fn empty_capacity_is_usable() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn subset_table_ids_are_dense_in_first_intern_order() {
        // 10^4 distinct two-bit sets across four words drive the index
        // through many growths.
        let sets: Vec<BitSet> = (0..200)
            .flat_map(|a| (a + 1..200).map(move |b| BitSet::from_iter_with_capacity(200, [a, b])))
            .take(10_000)
            .collect();
        let mut table = SubsetTable::new(200);
        assert!(table.is_empty());
        for (d, s) in sets.iter().enumerate() {
            assert_eq!(table.intern(s.clone()), d);
        }
        assert_eq!(table.len(), sets.len());
        // Re-interning, in any order, returns the first id and adds nothing.
        for (d, s) in sets.iter().enumerate().rev() {
            assert_eq!(table.intern(s.clone()), d);
            assert_eq!(&table[d], s);
        }
        assert_eq!(table.len(), sets.len());
        assert!(table.iter().eq(sets.iter()));
        // The empty set is a set like any other.
        assert_eq!(table.intern(BitSet::new(200)), sets.len());
        assert_eq!(table.intern(BitSet::new(200)), sets.len());
    }

    #[test]
    #[should_panic(expected = "subset capacity mismatch")]
    fn subset_table_refuses_another_capacity() {
        let mut table = SubsetTable::new(8);
        table.intern(BitSet::new(9));
    }
}
