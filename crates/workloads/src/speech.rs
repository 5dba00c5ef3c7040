//! Speech-decoding workloads.
//!
//! Speech recognition is the paper's canonical HMM application (§1:
//! "the observations are acoustic signals, and the hidden states are
//! sequences of words or phonemes" \[21, 40, 46, 52\]). This module models
//! the back half of that pipeline: a *phoneme posterior* Markov sequence
//! (what an acoustic model emits) and a **lexicon transducer** that maps
//! phoneme sequences to word sequences — a selective transducer whose
//! states walk a prefix tree (trie) of the vocabulary and emit a word
//! symbol each time a word completes. Evaluating it yields the ranked
//! word-sequence hypotheses with their confidences — exactly the
//! `A^ω(μ)` semantics.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use transmark_automata::{Alphabet, SymbolId};
use transmark_core::error::EngineError;
use transmark_core::transducer::{Transducer, TransducerBuilder};
use transmark_markov::{Hmm, MarkovSequence};

/// A vocabulary over a phoneme alphabet.
#[derive(Debug, Clone)]
pub struct Lexicon {
    phonemes: Arc<Alphabet>,
    words: Arc<Alphabet>,
    /// Word spellings as phoneme-id strings, indexed by word id.
    spellings: Vec<Vec<SymbolId>>,
}

impl Lexicon {
    /// Builds a lexicon from `(word, phoneme-string)` pairs, where each
    /// phoneme is one character of `phoneme_chars`. The vocabulary must
    /// be nonempty and *prefix-free* (no word's spelling is a prefix of
    /// another's), which makes greedy word segmentation deterministic.
    pub fn new(phoneme_chars: &str, entries: &[(&str, &str)]) -> Result<Lexicon, EngineError> {
        assert!(!entries.is_empty(), "vocabulary must be nonempty");
        let phonemes = Arc::new(Alphabet::of_chars(phoneme_chars));
        let words = Arc::new(Alphabet::from_names(entries.iter().map(|(w, _)| *w)));
        let spellings: Vec<Vec<SymbolId>> = entries
            .iter()
            .map(|(_, spelling)| {
                spelling
                    .chars()
                    .map(|c| {
                        phonemes
                            .get(&c.to_string())
                            .ok_or(EngineError::InvalidSymbol {
                                symbol: usize::MAX,
                                n_symbols: phonemes.len(),
                                alphabet: "input",
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        for (i, a) in spellings.iter().enumerate() {
            assert!(!a.is_empty(), "empty spelling for {:?}", entries[i].0);
            for (j, b) in spellings.iter().enumerate() {
                if i != j && b.len() >= a.len() && &b[..a.len()] == a.as_slice() {
                    panic!(
                        "vocabulary is not prefix-free: {:?} is a prefix of {:?}",
                        entries[i].0, entries[j].0
                    );
                }
            }
        }
        Ok(Lexicon {
            phonemes,
            words,
            spellings,
        })
    }

    /// The phoneme alphabet.
    pub fn phonemes(&self) -> &Alphabet {
        &self.phonemes
    }

    /// The word alphabet.
    pub fn words(&self) -> &Alphabet {
        &self.words
    }

    /// The lexicon transducer: reads phonemes, walks the vocabulary trie,
    /// emits the word symbol on each completed word, and accepts exactly
    /// the phoneme strings that segment into whole words. Deterministic
    /// (the vocabulary is prefix-free) and selective.
    pub fn transducer(&self) -> Result<Transducer, EngineError> {
        /// An edge of the vocabulary trie.
        enum TrieEdge {
            /// Continue into a deeper trie node.
            Interior(usize),
            /// The phoneme completes this word; return to the root.
            Complete(SymbolId),
        }

        let mut b = TransducerBuilder::new(Arc::clone(&self.phonemes), Arc::clone(&self.words));
        // Trie over phoneme prefixes; node 0 = root (word boundary).
        let mut next_id = 1usize;
        let mut trie: BTreeMap<(usize, SymbolId), TrieEdge> = BTreeMap::new();
        for (wid, spelling) in self.spellings.iter().enumerate() {
            let mut node = 0usize;
            for (pos, &ph) in spelling.iter().enumerate() {
                if pos + 1 == spelling.len() {
                    // Prefix-freeness guarantees no other word continues
                    // through this (node, phoneme) edge.
                    trie.insert((node, ph), TrieEdge::Complete(SymbolId(wid as u32)));
                } else {
                    node = match trie.entry((node, ph)).or_insert_with(|| {
                        let id = next_id;
                        next_id += 1;
                        TrieEdge::Interior(id)
                    }) {
                        TrieEdge::Interior(id) => *id,
                        TrieEdge::Complete(_) => {
                            unreachable!("prefix-freeness was checked at construction")
                        }
                    };
                }
            }
        }
        // Transducer states: root (accepting — a word boundary) + interior
        // trie nodes (mid-word, non-accepting) + dead sink.
        let states: Vec<_> = (0..next_id).map(|i| b.add_state(i == 0)).collect();
        let dead = b.add_state(false);
        b.set_initial(states[0]);
        for ph in 0..self.phonemes.len() {
            b.add_transition(dead, SymbolId(ph as u32), dead, &[])?;
        }
        for node in 0..next_id {
            for ph in 0..self.phonemes.len() {
                let sym = SymbolId(ph as u32);
                match trie.get(&(node, sym)) {
                    Some(TrieEdge::Complete(wid)) => {
                        b.add_transition(states[node], sym, states[0], &[*wid])?;
                    }
                    Some(TrieEdge::Interior(target)) => {
                        b.add_transition(states[node], sym, states[*target], &[])?;
                    }
                    None => {
                        b.add_transition(states[node], sym, dead, &[])?;
                    }
                }
            }
        }
        b.build()
    }

    /// A noisy phoneme-recognizer HMM: hidden states are phonemes, the
    /// chain follows `language` transitions (uniform here), and the
    /// observation is the phoneme itself corrupted with probability
    /// `noise`. Sampling observations and conditioning yields a phoneme
    /// posterior for the engine.
    pub fn recognizer(&self, noise: f64) -> Hmm {
        let k = self.phonemes.len();
        let obs = Alphabet::from_names(self.phonemes.iter().map(|(_, n)| format!("~{n}")));
        let initial = vec![1.0 / k as f64; k];
        let transition = vec![1.0 / k as f64; k * k];
        let mut emission = vec![0.0; k * k];
        for i in 0..k {
            for o in 0..k {
                emission[i * k + o] = if i == o { 1.0 - noise } else { 0.0 } + noise / k as f64;
            }
        }
        Hmm::new(
            Arc::clone(&self.phonemes),
            obs,
            initial,
            transition,
            emission,
        )
        .expect("recognizer HMM is valid")
    }

    /// Samples an utterance: a concatenation of `n_words` random word
    /// spellings, its observation sequence, and the posterior.
    pub fn sample_utterance<R: Rng + ?Sized>(
        &self,
        n_words: usize,
        noise: f64,
        rng: &mut R,
    ) -> (Vec<SymbolId>, MarkovSequence) {
        use rand::RngExt;
        let hmm = self.recognizer(noise);
        let mut spoken_words = Vec::with_capacity(n_words);
        let mut phonemes: Vec<SymbolId> = Vec::new();
        for _ in 0..n_words {
            let wid = rng.random_range(0..self.spellings.len());
            spoken_words.push(SymbolId(wid as u32));
            phonemes.extend(&self.spellings[wid]);
        }
        // Observe each phoneme through the noisy channel.
        let k = self.phonemes.len();
        let obs: Vec<SymbolId> = phonemes
            .iter()
            .map(|&p| {
                if rng.random_bool(noise * (1.0 - 1.0 / k as f64)) {
                    // A confusion: uniformly another phoneme.
                    let mut o = rng.random_range(0..k - 1);
                    if o >= p.index() {
                        o += 1;
                    }
                    SymbolId(o as u32)
                } else {
                    p
                }
            })
            .collect();
        let posterior = hmm
            .posterior(&obs)
            .expect("observations have positive likelihood");
        (spoken_words, posterior)
    }
}

/// A small demonstration lexicon (prefix-free over phonemes `abdgnot`).
pub fn demo_lexicon() -> Lexicon {
    Lexicon::new(
        "abdgnot",
        &[
            ("dog", "dog"),
            ("bat", "bat"),
            ("and", "and"),
            ("tab", "tab"),
            ("go", "go"),
        ],
    )
    .expect("demo lexicon is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_core::{prepare, PreparedEventQuery};

    #[test]
    fn lexicon_transducer_segments_words() {
        let lex = demo_lexicon();
        let t = lex.transducer().unwrap();
        assert!(t.is_deterministic());
        assert!(t.is_selective());
        let parse = |s: &str| -> Vec<SymbolId> {
            s.chars()
                .map(|c| lex.phonemes().sym(&c.to_string()))
                .collect()
        };
        // "dogbat" → dog bat
        let out = t.transduce_deterministic(&parse("dogbat")).unwrap();
        assert_eq!(t.render_output(&out, " "), "dog bat");
        // "goandgo" → go and go
        let out = t.transduce_deterministic(&parse("goandgo")).unwrap();
        assert_eq!(t.render_output(&out, " "), "go and go");
        // Partial word: rejected.
        assert_eq!(t.transduce_deterministic(&parse("dogba")), None);
        // Garbage: rejected.
        assert_eq!(t.transduce_deterministic(&parse("ddd")), None);
    }

    #[test]
    #[should_panic(expected = "prefix-free")]
    fn prefixy_vocabulary_is_rejected() {
        let _ = Lexicon::new("abdgnot", &[("go", "go"), ("got", "got")]);
    }

    #[test]
    fn decoding_recovers_clean_utterances() {
        let lex = demo_lexicon();
        let t = lex.transducer().unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let (spoken, posterior) = lex.sample_utterance(2, 0.0, &mut rng);
        // Noise-free: the top word sequence is exactly what was spoken.
        let top = prepare(&t).bind(&posterior).unwrap().top_k(1).unwrap();
        assert_eq!(top[0].output, spoken);
    }

    #[test]
    fn noisy_decoding_ranks_hypotheses() {
        let lex = demo_lexicon();
        let t = lex.transducer().unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let (_, posterior) = lex.sample_utterance(2, 0.15, &mut rng);
        let bound = prepare(&t).bind(&posterior).unwrap();
        let hyps = bound.top_k(5).unwrap();
        assert!(!hyps.is_empty());
        // Hypotheses are valid word sequences with positive confidence.
        for h in &hyps {
            let conf = bound.confidence(&h.output).unwrap();
            assert!(conf > 0.0);
            assert!(h.score() <= conf + 1e-12);
        }
        // Scores non-increasing.
        for w in hyps.windows(2) {
            assert!(w[0].log_score >= w[1].log_score - 1e-12);
        }
    }

    #[test]
    fn word_boundary_probability() {
        // The probability that an utterance posterior decodes to SOME word
        // sequence = acceptance probability of the lexicon automaton.
        let lex = demo_lexicon();
        let t = lex.transducer().unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let (_, posterior) = lex.sample_utterance(2, 0.2, &mut rng);
        let p = PreparedEventQuery::new(t.underlying_nfa())
            .acceptance(&posterior)
            .unwrap();
        assert!((0.0..=1.0 + 1e-12).contains(&p));
        // It must equal the total confidence mass over all answers
        // (deterministic machine: worlds map to ≤ 1 answer).
        let total: f64 = transmark_core::brute::evaluate(&t, &posterior)
            .unwrap()
            .values()
            .sum();
        assert!((p - total).abs() < 1e-9, "{p} vs {total}");
    }
}
