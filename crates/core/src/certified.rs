//! Certified top-answer search by *true confidence* for deterministic
//! transducers.
//!
//! Theorem 4.4 forbids polynomial algorithms that always approximate the
//! top-confidence answer — but it does not forbid *anytime* algorithms
//! that often terminate with a certificate. For a **deterministic**
//! transducer every possible world produces at most one answer, so the
//! answer confidences are disjoint probability masses inside
//! `Pr(S ∈ L(A))`. That yields a sound stopping rule while enumerating in
//! decreasing `E_max` (Theorem 4.3) and attaching exact confidences
//! (Theorem 4.6):
//!
//! * `remaining = Pr(S ∈ L(A)) − Σ conf(answers seen so far)` bounds the
//!   confidence of every *unseen* answer;
//! * as soon as `max seen confidence ≥ remaining`, the best seen answer
//!   is certifiably the global top-confidence answer.
//!
//! On benign instances (mass concentrated on few answers — the common
//! case for posteriors) this stops after a handful of steps; on
//! adversarial instances (the Theorem 4.4 gadgets) it degrades to
//! exhaustive enumeration, exactly as the lower bound demands. The
//! `budget` parameter caps the work; an uncertified result still reports
//! the best answer seen and the residual bound.

use transmark_automata::SymbolId;
use transmark_markov::MarkovSequence;

use crate::error::EngineError;
use crate::plan::{prepare, PreparedEventQuery};
use crate::transducer::Transducer;

/// Result of a certified top-confidence search.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedTop {
    /// The best answer found (by exact confidence).
    pub output: Vec<SymbolId>,
    /// Its exact confidence.
    pub confidence: f64,
    /// Whether the result is *certified* globally optimal.
    pub certified: bool,
    /// Upper bound on the confidence of any answer not yet enumerated
    /// (0 when the enumeration was exhausted).
    pub residual_bound: f64,
    /// How many answers were enumerated before stopping.
    pub answers_inspected: usize,
}

/// Finds the top answer by exact confidence with a certificate, for a
/// deterministic transducer (see module docs). Inspects at most `budget`
/// answers; returns `Ok(None)` when the query has no answers. This is
/// [`certified_top_k_by_confidence`] with `k = 1`.
pub fn certified_top_by_confidence(
    t: &Transducer,
    m: &MarkovSequence,
    budget: usize,
) -> Result<Option<CertifiedTop>, EngineError> {
    let top = certified_top_k_by_confidence(t, m, 1, budget)?;
    Ok(top
        .answers
        .into_iter()
        .next()
        .map(|(output, confidence)| CertifiedTop {
            output,
            confidence,
            certified: top.certified,
            residual_bound: top.residual_bound,
            answers_inspected: top.answers_inspected,
        }))
}

/// Result of a certified top-k search.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedTopK {
    /// The best answers found, sorted by decreasing exact confidence
    /// (ties keep enumeration order).
    pub answers: Vec<(Vec<SymbolId>, f64)>,
    /// Whether `answers` is certifiably the global top-k set (every
    /// unseen answer has confidence ≤ the k-th reported one).
    pub certified: bool,
    /// Upper bound on the confidence of any unseen answer (0 when the
    /// enumeration was exhausted).
    pub residual_bound: f64,
    /// How many answers were enumerated before stopping.
    pub answers_inspected: usize,
}

/// Certified top-k by exact confidence for deterministic transducers: the
/// k-set is certified as soon as its k-th confidence dominates the
/// residual unseen mass. Inspects at most `budget` answers.
///
/// One plan and one bind serve the whole search: the Theorem 4.3
/// enumeration and the Theorem 4.6 confidences share the bind's
/// artifacts, and the total mass `Pr(S ∈ L(A))` comes from the machine's
/// underlying automaton as an event query.
pub fn certified_top_k_by_confidence(
    t: &Transducer,
    m: &MarkovSequence,
    k: usize,
    budget: usize,
) -> Result<CertifiedTopK, EngineError> {
    if !t.is_deterministic() {
        return Err(EngineError::NotDeterministic);
    }
    assert!(k >= 1, "k must be positive");
    let total_mass = PreparedEventQuery::new(t.underlying_nfa()).acceptance(m)?;
    let bound = prepare(t).bind(m)?;
    let mut seen_mass = 0.0f64;
    let mut top: Vec<(Vec<SymbolId>, f64)> = Vec::new();
    let mut inspected = 0usize;
    let mut exhausted = true;
    for ranked in bound.ranked()? {
        inspected += 1;
        let conf = bound.confidence(&ranked.output)?;
        seen_mass += conf;
        top.push((ranked.output, conf));
        // Stable: an equal later answer never displaces an earlier one.
        top.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
        top.truncate(k);
        let residual = (total_mass - seen_mass).max(0.0);
        if top.len() == k && top[k - 1].1 >= residual {
            // Certified: no unseen answer can beat the k-th seen one.
            return Ok(CertifiedTopK {
                answers: top,
                certified: true,
                residual_bound: residual,
                answers_inspected: inspected,
            });
        }
        if inspected >= budget {
            exhausted = false;
            break;
        }
    }
    let residual = if exhausted {
        0.0
    } else {
        (total_mass - seen_mass).max(0.0)
    };
    Ok(CertifiedTopK {
        answers: top,
        // Running out of answers is itself a certificate.
        certified: exhausted,
        residual_bound: residual,
        answers_inspected: inspected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    #[test]
    fn certified_results_match_brute_force() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 3,
                    n_symbols: 2,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let t = random_transducer(
                &RandomTransducerSpec {
                    n_states: 2,
                    n_input_symbols: 2,
                    n_output_symbols: 2,
                    class: TransducerClass::Deterministic,
                    branching: 1.0,
                },
                &mut rng,
            );
            let got = certified_top_by_confidence(&t, &m, usize::MAX).unwrap();
            let want = brute::top_by_confidence(&t, &m).unwrap();
            match (got, want) {
                (None, None) => {}
                (Some(g), Some((_, conf_want))) => {
                    assert!(g.certified, "unlimited budget must certify (seed {seed})");
                    assert!(
                        (g.confidence - conf_want).abs() < 1e-10,
                        "seed {seed}: {} vs {conf_want}",
                        g.confidence
                    );
                }
                other => panic!("seed {seed}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn concentrated_mass_certifies_after_one_answer() {
        // A near-deterministic chain: one world holds ~all the mass.
        use transmark_automata::Alphabet;
        use transmark_markov::MarkovSequenceBuilder;
        let alphabet = Alphabet::of_chars("ab");
        let (a, b_) = (alphabet.sym("a"), alphabet.sym("b"));
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 4)
            .initial(a, 0.97)
            .initial(b_, 0.03)
            .transition(0, a, a, 0.97)
            .transition(0, a, b_, 0.03)
            .transition(0, b_, a, 0.97)
            .transition(0, b_, b_, 0.03)
            .transition(1, a, a, 0.97)
            .transition(1, a, b_, 0.03)
            .transition(1, b_, a, 0.97)
            .transition(1, b_, b_, 0.03)
            .transition(2, a, a, 0.97)
            .transition(2, a, b_, 0.03)
            .transition(2, b_, a, 0.97)
            .transition(2, b_, b_, 0.03)
            .build()
            .unwrap();
        // Identity transducer.
        let mut tb = Transducer::builder(alphabet.clone(), alphabet);
        let q = tb.add_state(true);
        tb.add_transition(q, a, q, &[a]).unwrap();
        tb.add_transition(q, b_, q, &[b_]).unwrap();
        let t = tb.build().unwrap();

        let got = certified_top_by_confidence(&t, &m, usize::MAX)
            .unwrap()
            .unwrap();
        assert!(got.certified);
        assert_eq!(
            got.answers_inspected, 1,
            "aaaa's mass certifies immediately"
        );
        assert_eq!(got.output, vec![a; 4]);
    }

    #[test]
    fn adversarial_mass_needs_many_answers() {
        // Uniform chain + identity: every answer has equal confidence, so
        // certification requires seeing (almost) all of them.
        use transmark_automata::Alphabet;
        use transmark_markov::MarkovSequenceBuilder;
        let alphabet = Alphabet::of_chars("ab");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 3)
            .uniform_all()
            .build()
            .unwrap();
        let mut tb = Transducer::builder(alphabet.clone(), alphabet.clone());
        let q = tb.add_state(true);
        for s in [alphabet.sym("a"), alphabet.sym("b")] {
            tb.add_transition(q, s, q, &[s]).unwrap();
        }
        let t = tb.build().unwrap();

        // A small budget cannot certify…
        let small = certified_top_by_confidence(&t, &m, 3).unwrap().unwrap();
        assert!(!small.certified);
        assert!(small.residual_bound > small.confidence);
        assert_eq!(small.answers_inspected, 3);
        // …an unlimited budget certifies only near the end (8 answers of
        // mass 1/8 each: residual after 7 is 1/8 = best).
        let full = certified_top_by_confidence(&t, &m, usize::MAX)
            .unwrap()
            .unwrap();
        assert!(full.certified);
        assert!(full.answers_inspected >= 7);
    }

    /// The search prepares and binds once, however many answers it has
    /// to inspect before the certificate holds.
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn the_search_binds_the_sequence_once() {
        use std::sync::Arc;
        use transmark_automata::Alphabet;
        use transmark_markov::MarkovSequenceBuilder;
        let alphabet = Alphabet::of_chars("ab");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 3)
            .uniform_all()
            .build()
            .unwrap();
        let mut tb = Transducer::builder(alphabet.clone(), alphabet.clone());
        let q = tb.add_state(true);
        for s in [alphabet.sym("a"), alphabet.sym("b")] {
            tb.add_transition(q, s, q, &[s]).unwrap();
        }
        let t = tb.build().unwrap();

        let rec = Arc::new(transmark_obs::Recorder::new());
        let top = rec
            .scope(|| certified_top_by_confidence(&t, &m, usize::MAX))
            .unwrap()
            .unwrap();
        let profile = rec.finish();
        assert!(top.certified);
        assert!(
            top.answers_inspected >= 2,
            "the instance needs several answers"
        );
        assert_eq!(profile.phases["bind"].count, 1);
    }

    #[test]
    fn certified_top_and_its_evidences_match_brute_force() {
        use transmark_automata::Alphabet;
        use transmark_markov::MarkovSequenceBuilder;
        let alphabet = Alphabet::of_chars("ab");
        let (a, b_) = (alphabet.sym("a"), alphabet.sym("b"));
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 3)
            .initial(a, 0.9)
            .initial(b_, 0.1)
            .transition(0, a, a, 0.9)
            .transition(0, a, b_, 0.1)
            .transition(0, b_, b_, 1.0)
            .transition(1, a, a, 0.9)
            .transition(1, a, b_, 0.1)
            .transition(1, b_, b_, 1.0)
            .build()
            .unwrap();
        let mut tb = Transducer::builder(alphabet.clone(), alphabet);
        let q = tb.add_state(true);
        tb.add_transition(q, a, q, &[a]).unwrap();
        tb.add_transition(q, b_, q, &[b_]).unwrap();
        let t = tb.build().unwrap();

        let top = certified_top_by_confidence(&t, &m, 100)
            .unwrap()
            .expect("answers exist");
        assert!(top.certified);
        // Identity: aaa is the dominant world (0.9³ = 0.729 > residual).
        assert_eq!(top.answers_inspected, 1);
        assert!((top.confidence - 0.729).abs() < 1e-12);
        let (best, conf) = brute::top_by_confidence(&t, &m).unwrap().unwrap();
        assert_eq!(top.output, best);
        assert!((top.confidence - conf).abs() < 1e-12);

        // Evidence view of the same answer.
        let evs = prepare(&t)
            .bind(&m)
            .unwrap()
            .top_evidences(&top.output, 3)
            .unwrap();
        assert_eq!(evs.len(), 1, "identity: one world per answer");
        assert_eq!(evs[0].world, top.output);
        assert!((evs[0].prob() - top.confidence).abs() < 1e-12);
    }

    #[test]
    fn nondeterministic_machines_are_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 2,
                n_symbols: 2,
                zero_prob: 0.2,
            },
            &mut rng,
        );
        let t = random_transducer(
            &RandomTransducerSpec {
                n_states: 2,
                n_input_symbols: 2,
                n_output_symbols: 2,
                class: TransducerClass::General,
                branching: 2.0,
            },
            &mut rng,
        );
        if !t.is_deterministic() {
            assert!(matches!(
                certified_top_by_confidence(&t, &m, 10),
                Err(EngineError::NotDeterministic)
            ));
        }
    }

    #[test]
    fn certified_top_k_matches_brute_force() {
        for seed in 50..70u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 3,
                    n_symbols: 2,
                    zero_prob: 0.25,
                },
                &mut rng,
            );
            let t = random_transducer(
                &RandomTransducerSpec {
                    n_states: 2,
                    n_input_symbols: 2,
                    n_output_symbols: 2,
                    class: TransducerClass::Deterministic,
                    branching: 1.0,
                },
                &mut rng,
            );
            let got = certified_top_k_by_confidence(&t, &m, 3, usize::MAX).unwrap();
            assert!(got.certified, "unlimited budget certifies (seed {seed})");
            let want = brute::ranked_by_confidence(&t, &m).unwrap();
            assert_eq!(got.answers.len(), want.len().min(3), "seed {seed}");
            for (g, w) in got.answers.iter().zip(want.iter()) {
                // Confidences match rank-for-rank (outputs may swap on ties).
                assert!((g.1 - w.1).abs() < 1e-10, "seed {seed}: {} vs {}", g.1, w.1);
            }
        }
    }

    #[test]
    fn empty_queries_return_none() {
        use transmark_automata::Alphabet;
        use transmark_markov::MarkovSequenceBuilder;
        let alphabet = Alphabet::of_chars("a");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 2)
            .uniform_all()
            .build()
            .unwrap();
        let mut tb = Transducer::builder(alphabet.clone(), alphabet.clone());
        let q = tb.add_state(false);
        tb.add_transition(q, alphabet.sym("a"), q, &[]).unwrap();
        let t = tb.build().unwrap();
        assert_eq!(certified_top_by_confidence(&t, &m, 10).unwrap(), None);
    }
}
