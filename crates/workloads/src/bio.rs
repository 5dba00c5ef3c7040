//! Biological-sequence workloads.
//!
//! The paper's introduction lists "sequence matching in biological data
//! \[13, 20\]" (HMMER-style profile matching) among the HMM applications
//! feeding Markov sequences. This module models the common pipeline:
//! a sequencer produces *uncertain base calls* — per-position posterior
//! over {A, C, G, T} with Markov-correlated errors — and queries extract
//! motif occurrences (s-projectors) or detect composition signals
//! (Boolean NFAs, e.g. CpG-island-like GC enrichment).

use std::sync::Arc;

use rand::{Rng, RngExt};
use transmark_automata::{Alphabet, Dfa, Nfa, StateId, SymbolId};
use transmark_core::error::EngineError;
use transmark_markov::{MarkovSequence, MarkovSequenceBuilder};
use transmark_sproj::SProjector;

/// The DNA alphabet, in the fixed order A, C, G, T.
pub fn dna_alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::of_chars("ACGT"))
}

/// Parameters of the uncertain-read model.
#[derive(Debug, Clone)]
pub struct ReadSpec {
    /// Probability that a base call is wrong.
    pub error_rate: f64,
    /// Multiplier on the error rate right after an error (bursty errors,
    /// as in real sequencers); the product is clamped to 0.9.
    pub burstiness: f64,
}

impl Default for ReadSpec {
    fn default() -> Self {
        Self {
            error_rate: 0.05,
            burstiness: 4.0,
        }
    }
}

/// An uncertain read: the Markov sequence of base-call posteriors for a
/// true underlying sequence.
pub struct UncertainRead {
    /// The base-call posterior.
    pub sequence: MarkovSequence,
    /// The true underlying bases.
    pub truth: Vec<SymbolId>,
}

/// Builds the uncertain read for `reference` (a string over `ACGT`).
/// Miscalls substitute the transversion partner (A↔C, G↔T) so each
/// position has exactly two hypotheses and errors are bursty — the same
/// structure as [`crate::text::noisy_document`], specialized to DNA.
pub fn uncertain_read(reference: &str, spec: &ReadSpec) -> UncertainRead {
    let alphabet = dna_alphabet();
    let truth: Vec<SymbolId> = reference
        .chars()
        .map(|c| alphabet.sym(&c.to_string()))
        .collect();
    assert!(!truth.is_empty(), "reference must be nonempty");
    let miscall = |b: SymbolId| -> SymbolId {
        // A↔C, G↔T (indices 0↔1, 2↔3).
        SymbolId(b.0 ^ 1)
    };
    let p0 = spec.error_rate.clamp(0.0, 0.9);
    let p_burst = (spec.error_rate * spec.burstiness).clamp(0.0, 0.9);
    let n = truth.len();
    let mut b = MarkovSequenceBuilder::new(Arc::clone(&alphabet), n)
        .initial(truth[0], 1.0 - p0)
        .initial(miscall(truth[0]), p0);
    for i in 0..n - 1 {
        let (good_next, bad_next) = (truth[i + 1], miscall(truth[i + 1]));
        for (from, p_err) in [(truth[i], p0), (miscall(truth[i]), p_burst)] {
            b = b
                .transition(i, from, good_next, 1.0 - p_err)
                .transition(i, from, bad_next, p_err);
        }
    }
    let sequence = b
        .fill_dead_rows_self_loop()
        .build()
        .expect("read model is valid");
    UncertainRead { sequence, truth }
}

impl UncertainRead {
    /// Renders a base string.
    pub fn render(&self, s: &[SymbolId]) -> String {
        self.sequence.alphabet().render(s, "")
    }

    /// An s-projector extracting occurrences of an exact motif (e.g.
    /// `"GAT"`), context-free (`[*]motif[*]`).
    pub fn motif_extractor(&self, motif: &str) -> Result<SProjector, EngineError> {
        let alphabet = self.sequence.alphabet_arc();
        let word: Vec<SymbolId> = motif
            .chars()
            .map(|c| alphabet.sym(&c.to_string()))
            .collect();
        let pattern = Dfa::word(alphabet.len(), &word);
        SProjector::simple(alphabet, pattern)
    }
}

/// A Boolean query: "contains a run of at least `k` consecutive G/C
/// bases" — a toy CpG-island-style composition signal.
pub fn gc_run_query(k: usize) -> Nfa {
    assert!(k >= 1);
    let mut nfa = Nfa::new(4);
    // States 0..k: current G/C run length (k = accepting sink).
    let states: Vec<StateId> = (0..=k).map(|i| nfa.add_state(i == k)).collect();
    let alphabet = dna_alphabet();
    let (a, c, g, t) = (
        alphabet.sym("A"),
        alphabet.sym("C"),
        alphabet.sym("G"),
        alphabet.sym("T"),
    );
    for i in 0..k {
        for gc in [c, g] {
            nfa.add_transition(states[i], gc, states[i + 1]);
        }
        for at in [a, t] {
            nfa.add_transition(states[i], at, states[0]);
        }
    }
    for base in [a, c, g, t] {
        nfa.add_transition(states[k], base, states[k]);
    }
    nfa
}

/// A random reference genome fragment.
pub fn random_reference<R: Rng + ?Sized>(len: usize, gc_bias: f64, rng: &mut R) -> String {
    (0..len)
        .map(|_| {
            if rng.random_bool(gc_bias) {
                if rng.random_bool(0.5) {
                    'G'
                } else {
                    'C'
                }
            } else if rng.random_bool(0.5) {
                'A'
            } else {
                'T'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_core::PreparedEventQuery;
    use transmark_markov::numeric::approx_eq;
    use transmark_markov::support::support;
    use transmark_sproj::indexed::enumerate_indexed;
    use transmark_sproj::sproj_confidence;

    #[test]
    fn clean_read_is_most_likely() {
        let read = uncertain_read("GATTACA", &ReadSpec::default());
        let (best, p) = read.sequence.most_likely_string();
        assert_eq!(best, read.truth);
        assert!(p > 0.5);
        assert!(read.sequence.string_probability(&read.truth).unwrap() > 0.0);
    }

    #[test]
    fn motif_extraction_finds_true_occurrences_first() {
        let read = uncertain_read(
            "ACGATGAT",
            &ReadSpec {
                error_rate: 0.05,
                burstiness: 2.0,
            },
        );
        let p = read.motif_extractor("GAT").unwrap();
        let hits: Vec<_> = enumerate_indexed(&p, &read.sequence)
            .unwrap()
            .take(2)
            .collect();
        assert_eq!(hits.len(), 2);
        // "GAT" occurs at 1-based positions 3 and 6 in the reference.
        let mut idx: Vec<usize> = hits.iter().map(|h| h.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![3, 6]);
        for h in &hits {
            assert_eq!(read.render(&h.output), "GAT");
        }
    }

    #[test]
    fn motif_confidence_matches_brute_force() {
        let read = uncertain_read(
            "GATAC",
            &ReadSpec {
                error_rate: 0.2,
                burstiness: 2.0,
            },
        );
        let p = read.motif_extractor("AT").unwrap();
        let o: Vec<SymbolId> = "AT"
            .chars()
            .map(|c| read.sequence.alphabet().sym(&c.to_string()))
            .collect();
        let got = sproj_confidence(&p, &read.sequence, &o).unwrap();
        let want: f64 = support(&read.sequence)
            .iter()
            .filter(|(s, _)| s.windows(2).any(|w| w == &o[..]))
            .map(|(_, pp)| pp)
            .sum();
        assert!(approx_eq(got, want, 1e-10, 1e-8), "{got} vs {want}");
    }

    #[test]
    fn gc_run_query_matches_definition() {
        let q = gc_run_query(3);
        let alphabet = dna_alphabet();
        let parse = |s: &str| -> Vec<SymbolId> {
            s.chars().map(|c| alphabet.sym(&c.to_string())).collect()
        };
        assert!(q.accepts(&parse("AGCGT")));
        assert!(q.accepts(&parse("CCC")));
        assert!(!q.accepts(&parse("GCAGC")));
        assert!(!q.accepts(&parse("AT")));
    }

    #[test]
    fn gc_probability_is_sensible() {
        // A GC-rich read should score much higher than an AT-rich one.
        let rich = uncertain_read("GCGCGC", &ReadSpec::default());
        let poor = uncertain_read("ATATAT", &ReadSpec::default());
        let q = gc_run_query(3);
        let p_rich = PreparedEventQuery::new(q.clone())
            .acceptance(&rich.sequence)
            .unwrap();
        let p_poor = PreparedEventQuery::new(q.clone())
            .acceptance(&poor.sequence)
            .unwrap();
        assert!(p_rich > 0.9, "p_rich = {p_rich}");
        assert!(p_poor < 0.1, "p_poor = {p_poor}");
    }

    #[test]
    fn random_reference_respects_bias() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let s = random_reference(2000, 0.8, &mut rng);
        let gc = s.chars().filter(|&c| c == 'G' || c == 'C').count();
        let frac = gc as f64 / 2000.0;
        assert!((frac - 0.8).abs() < 0.05, "gc fraction {frac}");
    }
}
