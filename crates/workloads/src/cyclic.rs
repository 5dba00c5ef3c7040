//! A synthetic unbounded stream for length sweeps of the streaming
//! data plane.
//!
//! [`CyclicSource`] borrows the initial distribution and the transition
//! matrices of a small donor sequence and yields those matrices in a
//! cycle, so a sequence of any length streams in `O(|Σ|²)` memory. Every
//! layer is a validated distribution because the donor's are. It stands
//! in for a network- or sensor-fed source: long enough to expose
//! accumulation-order differences between streamed and materialized
//! passes, without a file of that size.

use std::sync::Arc;

use transmark_automata::Alphabet;
use transmark_markov::{MarkovSequence, SourceError, StepSource};

/// A [`StepSource`] of `len` positions whose layers cycle a donor
/// sequence's transition matrices.
pub struct CyclicSource {
    alphabet: Arc<Alphabet>,
    initial: Vec<f64>,
    pool: Vec<Vec<f64>>,
    len: usize,
    pos: usize,
}

impl CyclicSource {
    /// A source of `len` positions starting from `donor`'s initial
    /// distribution; step `i` yields `donor`'s transition matrix
    /// `i mod (donor.len() − 1)`.
    ///
    /// # Panics
    /// If `donor` has fewer than two positions (no matrix to cycle).
    pub fn new(donor: &MarkovSequence, len: usize) -> Self {
        assert!(donor.len() >= 2, "the donor needs at least one step");
        CyclicSource {
            alphabet: Arc::clone(donor.alphabet_ref()),
            initial: donor.initial_dist().to_vec(),
            pool: (0..donor.len() - 1)
                .map(|i| donor.transition_matrix(i).to_vec())
                .collect(),
            len,
            pos: 0,
        }
    }
}

impl StepSource for CyclicSource {
    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }
    fn len(&self) -> usize {
        self.len
    }
    fn initial(&self) -> &[f64] {
        &self.initial
    }
    fn position(&self) -> usize {
        self.pos
    }
    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.len {
            return Ok(None);
        }
        let i = self.pos % self.pool.len();
        self.pos += 1;
        Ok(Some(&self.pool[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_markov::source::materialize;

    #[test]
    fn cycles_the_donor_layers() {
        let donor = crate::hospital_sequence();
        let steps = donor.len() - 1;
        let m = materialize(&mut CyclicSource::new(&donor, 2 * steps + 2)).unwrap();
        assert_eq!(m.len(), 2 * steps + 2);
        assert_eq!(m.initial_dist(), donor.initial_dist());
        for i in 0..m.len() - 1 {
            assert_eq!(m.transition_matrix(i), donor.transition_matrix(i % steps));
        }
    }
}
