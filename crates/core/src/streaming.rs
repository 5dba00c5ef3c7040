//! Streaming Boolean-query monitoring.
//!
//! §6 contrasts Lahar with CLARO, whose concern is "high-volume data
//! streams" where storing the whole Markov sequence may be infeasible.
//! The per-prefix acceptance DP of
//! [`crate::confidence::prefix_acceptance_probabilities`] needs only the
//! *current* layer, so it runs online: an [`EventMonitor`] holds the
//! shared acceptance fold — a distribution over (determinized query state
//! × current node) — and folds in one transition matrix at a time,
//! emitting the updated probability that the stream-so-far satisfies the
//! query. Memory is independent of the stream length (bounded by
//! reachable subsets × `|Σ|`).
//!
//! The monitor is a thin adapter over the incremental state machine: the
//! session state (and the per-step arithmetic) lives in
//! [`crate::incremental::EventSession`], whose fold runs the shared
//! `transmark-automata` [`DetCore`] subset construction. There is one
//! acceptance pass: `acceptance_probability`, the prefix series (in
//! memory and `*_source`), [`EventMonitor::replay`] and
//! [`EventMonitor::series_source`] all feed an `EventSession` through the
//! one series driver (`StreamSession::drain`), in-memory sequences via
//! their zero-copy [`MarkovSequence::step_source`]. A monitor fed a
//! stored sequence's matrices therefore reproduces
//! `prefix_acceptance_probabilities` bit for bit, and a monitor
//! suspended with [`EventMonitor::checkpoint`] resumes bit-identically.
//!
//! [`DetCore`]: transmark_automata::ops::DetCore

use transmark_automata::Nfa;
use transmark_markov::{MarkovSequence, StepSource};

use crate::error::EngineError;
use crate::incremental::{EventSession, StreamSession};

/// An online monitor for `Pr(S[1..t] ∈ L(A))` over a Markov stream whose
/// transition matrices arrive one step at a time.
///
/// The query NFA is owned (determinized on the fly); feed the stream with
/// [`EventMonitor::start`] (initial distribution) and
/// [`EventMonitor::advance`] (one row-major `|Σ|²` matrix per step).
pub struct EventMonitor {
    sess: EventSession,
}

impl EventMonitor {
    /// Starts monitoring: `initial` is the stream's `μ₀→` distribution
    /// over `|Σ|` nodes (must match the query's alphabet size).
    pub fn start(nfa: Nfa, initial: &[f64]) -> Result<Self, EngineError> {
        Ok(Self {
            sess: EventSession::start(nfa, initial)?,
        })
    }

    /// Number of stream positions consumed so far (`≥ 1`).
    pub fn len(&self) -> usize {
        self.sess.positions()
    }

    /// Always false (a monitor starts with one position consumed).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current `Pr(S[1..t] ∈ L(A))`.
    pub fn probability(&self) -> f64 {
        self.sess.probability()
    }

    /// Folds in the next transition matrix (row-major `|Σ|²`) and returns
    /// the updated probability.
    pub fn advance(&mut self, matrix: &[f64]) -> Result<f64, EngineError> {
        self.sess.advance(matrix)
    }

    /// Suspends the monitor to a versioned checkpoint blob (see
    /// [`EventSession::checkpoint`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        self.sess.checkpoint()
    }

    /// Restores a monitor suspended by [`EventMonitor::checkpoint`];
    /// continues bit-identically to the uninterrupted run.
    pub fn resume(nfa: Nfa, blob: &[u8]) -> Result<Self, EngineError> {
        Ok(Self {
            sess: EventSession::resume(nfa, blob)?,
        })
    }

    /// Drains a [`StepSource`] through the monitor, returning the full
    /// probability series (one entry per position, equal to
    /// [`crate::confidence::prefix_acceptance_probabilities`] over the
    /// materialized sequence). Named `*_source` like every other streamed
    /// variant of a batch pass.
    pub fn series_source<S: StepSource>(nfa: Nfa, src: &mut S) -> Result<Vec<f64>, EngineError> {
        StreamSession::Event(EventSession::start(nfa, src.initial())?).drain(src, true)
    }

    /// Convenience: replays a stored sequence through the monitor,
    /// returning the full probability series (equals
    /// [`crate::confidence::prefix_acceptance_probabilities`]).
    pub fn replay(nfa: Nfa, m: &MarkovSequence) -> Result<Vec<f64>, EngineError> {
        Self::series_source(nfa, &mut m.step_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::prefix_acceptance_probabilities;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::SymbolId;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    /// NFA over 3 symbols: has seen symbol 2.
    fn has_two() -> Nfa {
        let mut nfa = Nfa::new(3);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        for s in 0..3u32 {
            nfa.add_transition(q0, SymbolId(s), if s == 2 { acc } else { q0 });
            nfa.add_transition(acc, SymbolId(s), acc);
        }
        nfa
    }

    #[test]
    fn replay_matches_batch_series() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 6,
                    n_symbols: 3,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let batch = prefix_acceptance_probabilities(&has_two(), &m).unwrap();
            let streamed = EventMonitor::replay(has_two(), &m).unwrap();
            assert_eq!(batch.len(), streamed.len());
            for (b, s) in batch.iter().zip(streamed.iter()) {
                // The monitor shares the batch pass's fold, so the series
                // agree bit for bit, not just approximately.
                assert_eq!(b.to_bits(), s.to_bits(), "{b} vs {s}");
            }
        }
    }

    #[test]
    fn series_source_matches_batch_series() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 7,
                    n_symbols: 3,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let batch = prefix_acceptance_probabilities(&has_two(), &m).unwrap();
            let streamed = EventMonitor::series_source(has_two(), &mut m.step_source()).unwrap();
            assert_eq!(batch.len(), streamed.len());
            for (b, s) in batch.iter().zip(streamed.iter()) {
                assert_eq!(b.to_bits(), s.to_bits(), "{b} vs {s}");
            }
        }
    }

    #[test]
    fn incremental_use_without_storing_the_stream() {
        // Feed matrices one at a time; state size stays bounded.
        let k = 3;
        let uniform = vec![1.0 / k as f64; k * k];
        let mut monitor = EventMonitor::start(has_two(), &[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(monitor.probability(), 0.0); // first node is 0, not 2
        let mut last = 0.0;
        for t in 0..1000 {
            let p = monitor.advance(&uniform).unwrap();
            assert!(p >= last - 1e-12, "monotone for a monotone property");
            last = p;
            let _ = t;
        }
        assert_eq!(monitor.len(), 1001);
        // After 1000 uniform steps the pattern has almost surely appeared.
        assert!(last > 0.999999);
    }

    #[test]
    fn start_and_advance_validate_shapes() {
        assert!(EventMonitor::start(has_two(), &[1.0]).is_err());
        let mut m = EventMonitor::start(has_two(), &[1.0, 0.0, 0.0]).unwrap();
        assert!(m.advance(&[1.0, 0.0]).is_err());
    }

    /// Uniform chains make every reachable subset appear; the approx check
    /// in the old suite is strengthened to bitwise here because the
    /// monitor and the batch pass now share one fold implementation.
    #[test]
    fn monitor_probability_is_bit_reproducible() {
        let mut rng = StdRng::seed_from_u64(77);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 9,
                n_symbols: 3,
                zero_prob: 0.4,
            },
            &mut rng,
        );
        let a = EventMonitor::replay(has_two(), &m).unwrap();
        let b = EventMonitor::replay(has_two(), &m).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
