//! Property-based tests for the §4 query engine: structural invariants
//! that must hold on *arbitrary* instances (complementing the seeded
//! oracle suite in `tests/oracle.rs`).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use transmark_core::brute;
use transmark_core::confidence::confidence_general;
use transmark_core::constraints::{constrain, PrefixConstraint};
use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::montecarlo::transduces_to;
use transmark_core::transducer::Transducer;
use transmark_core::SymbolId;
use transmark_core::{prepare, EventSession, PreparedEventQuery};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::numeric::approx_eq;
use transmark_markov::MarkovSequence;

fn arb_class() -> impl Strategy<Value = TransducerClass> {
    prop_oneof![
        Just(TransducerClass::General),
        Just(TransducerClass::Deterministic),
        Just(TransducerClass::Mealy),
        Just(TransducerClass::Uniform(1)),
        Just(TransducerClass::Uniform(2)),
        Just(TransducerClass::Projector),
    ]
}

fn instance(class: TransducerClass, seed: u64, n: usize) -> (Transducer, MarkovSequence) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = random_markov_sequence(
        &RandomChainSpec {
            len: n,
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
            class,
            branching: 1.5,
        },
        &mut rng,
    );
    (t, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Confidences over all answers sum to at most 1, and to exactly the
    /// acceptance probability when the machine is deterministic (each
    /// world yields at most one answer).
    #[test]
    fn confidence_mass_is_bounded(class in arb_class(), seed in any::<u64>(), n in 1usize..4) {
        let (t, m) = instance(class, seed, n);
        let truth = brute::evaluate(&t, &m).unwrap();
        let total: f64 = truth.values().sum();
        // Nondeterministic machines may produce several answers per world.
        if t.is_deterministic() {
            let p_acc =
                PreparedEventQuery::new(t.underlying_nfa()).acceptance(&m)
                    .unwrap();
            prop_assert!(approx_eq(total, p_acc, 1e-9, 1e-7));
            prop_assert!(total <= 1.0 + 1e-9);
        }
        // E_max never exceeds confidence; is_answer agrees with conf > 0.
        for (o, &conf_o) in &truth {
            let e = prepare(&t).bind(&m).unwrap().emax_of_output(o).unwrap().exp();
            prop_assert!(e <= conf_o + 1e-12);
            prop_assert!(e > 0.0);
            prop_assert!(prepare(&t).bind(&m).unwrap().is_answer(o).unwrap());
        }
    }

    /// Both enumerations agree with each other and with brute force.
    #[test]
    fn enumerations_are_consistent(class in arb_class(), seed in any::<u64>(), n in 1usize..4) {
        let (t, m) = instance(class, seed, n);
        let mut unranked: Vec<_> = prepare(&t).bind(&m).unwrap().unranked().unwrap().collect();
        let mut ranked: Vec<_> =
            prepare(&t).bind(&m).unwrap().ranked().unwrap().map(|r| r.output).collect();
        unranked.sort();
        ranked.sort();
        prop_assert_eq!(&unranked, &ranked);
        let brute: Vec<_> = brute::evaluate(&t, &m).unwrap().into_keys().collect();
        prop_assert_eq!(unranked, brute);
    }

    /// The top E_max answer's score is achieved by an actual world.
    #[test]
    fn top_emax_is_witnessed(class in arb_class(), seed in any::<u64>(), n in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        if let Some(top) = prepare(&t).bind(&m).unwrap().top().unwrap() {
            let p = m.string_probability(&top.evidence).unwrap();
            prop_assert!(approx_eq(p, top.prob(), 1e-12, 1e-9));
            prop_assert!(transduces_to(&t, &top.evidence, &top.output));
        }
    }

    /// Constraining by a prefix keeps exactly the matching answers, with
    /// unchanged confidences.
    #[test]
    fn constraint_product_filters_exactly(
        class in arb_class(),
        seed in any::<u64>(),
        prefix_bits in 0u8..4,
        prefix_len in 0usize..3,
    ) {
        let (t, m) = instance(class, seed, 3);
        let prefix: Vec<SymbolId> =
            (0..prefix_len).map(|i| SymbolId(u32::from(prefix_bits >> i & 1))).collect();
        let c = PrefixConstraint::with_prefix(prefix);
        let ct = constrain(&t, &c.to_dfa(t.n_output_symbols())).unwrap();
        let truth_all = brute::evaluate(&t, &m).unwrap();
        let truth_constrained = brute::evaluate(&ct, &m).unwrap();
        for (o, conf_o) in &truth_all {
            if c.matches(o) {
                let got = truth_constrained.get(o);
                prop_assert!(got.is_some(), "constrained lost answer {:?}", o);
                prop_assert!(approx_eq(*got.unwrap(), *conf_o, 1e-12, 1e-9));
                // And the engine agrees on the constrained machine.
                let eng = confidence_general(&ct, &m, o).unwrap();
                prop_assert!(approx_eq(eng, *conf_o, 1e-10, 1e-8));
            } else {
                prop_assert!(!truth_constrained.contains_key(o));
            }
        }
        prop_assert!(truth_constrained.keys().all(|o| truth_all.contains_key(o)));
    }

    /// Evidence enumeration: ordered, complete, deduplicated, and the sum
    /// of evidence probabilities equals the confidence.
    #[test]
    fn evidences_reconstruct_confidence(class in arb_class(), seed in any::<u64>(), n in 1usize..4) {
        let (t, m) = instance(class, seed, n);
        for (o, conf_o) in brute::evaluate(&t, &m).unwrap() {
            let evs: Vec<_> =
                prepare(&t).bind(&m).unwrap().evidences(&o).unwrap().collect();
            let mut prev = f64::INFINITY;
            let mut seen = std::collections::BTreeSet::new();
            let mut total = 0.0;
            for e in &evs {
                prop_assert!(e.log_prob <= prev + 1e-12);
                prev = e.log_prob;
                prop_assert!(seen.insert(e.world.clone()), "duplicate world");
                total += e.prob();
            }
            prop_assert!(approx_eq(total, conf_o, 1e-10, 1e-8),
                "evidence mass {} vs confidence {} for {:?}", total, conf_o, o);
            // The first evidence realizes E_max.
            if let Some(first) = evs.first() {
                let e = prepare(&t).bind(&m).unwrap().emax_of_output(&o).unwrap().exp();
                prop_assert!(approx_eq(first.prob(), e, 1e-12, 1e-9));
            }
        }
    }

    /// Composition: `T₂ ∘ T₁` behaves as the relational composition of the
    /// two transductions, and its confidences follow.
    #[test]
    fn composition_is_relational(seed in any::<u64>(), class2 in arb_class()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_markov_sequence(
            &RandomChainSpec { len: 3, n_symbols: 2, zero_prob: 0.2 },
            &mut rng,
        );
        // First stage: random Mealy (guaranteed 1-uniform); its output
        // alphabet has 2 symbols, matching the second stage's input.
        let first = random_transducer(
            &RandomTransducerSpec {
                n_states: 2,
                n_input_symbols: 2,
                n_output_symbols: 2,
                class: TransducerClass::Mealy,
                branching: 1.5,
            },
            &mut rng,
        );
        let second = random_transducer(
            &RandomTransducerSpec {
                n_states: 2,
                n_input_symbols: 2,
                n_output_symbols: 2,
                class: class2,
                branching: 1.5,
            },
            &mut rng,
        );
        let composite = transmark_core::compose::compose(&first, &second).unwrap();
        // Relational semantics on every support world.
        for (s, _) in transmark_markov::support::support(&m) {
            let mut expected = std::collections::BTreeSet::new();
            for d in first.transduce_all(&s) {
                for o in second.transduce_all(&d) {
                    expected.insert(o);
                }
            }
            let got: std::collections::BTreeSet<_> =
                composite.transduce_all(&s).into_iter().collect();
            prop_assert_eq!(got, expected, "world {:?}", s);
        }
        // Confidences agree with brute force through the composite.
        for (o, want) in brute::evaluate(&composite, &m).unwrap() {
            let got = prepare(&composite).bind(&m).unwrap().confidence(&o).unwrap();
            prop_assert!(approx_eq(got, want, 1e-10, 1e-8));
        }
    }

    /// The auto-dispatching `confidence` never disagrees with the general
    /// exact algorithm.
    #[test]
    fn dispatcher_matches_general(class in arb_class(), seed in any::<u64>(), n in 1usize..4) {
        let (t, m) = instance(class, seed, n);
        for (o, _) in brute::evaluate(&t, &m).unwrap() {
            let a = prepare(&t).bind(&m).unwrap().confidence(&o).unwrap();
            let b = confidence_general(&t, &m, &o).unwrap();
            prop_assert!(approx_eq(a, b, 1e-10, 1e-8), "{:?}: {} vs {}", o, a, b);
        }
    }
}

mod streaming_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// A session fed one matrix at a time equals the batch per-prefix
        /// series for random queries and random chains.
        #[test]
        fn monitor_replay_matches_batch(class in arb_class(), seed in any::<u64>(), n in 1usize..6) {
            let (t, m) = instance(class, seed, n);
            let nfa = t.underlying_nfa();
            let batch = PreparedEventQuery::new(nfa.clone()).series(&m).unwrap();
            let mut sess = EventSession::start(nfa, m.initial_dist()).unwrap();
            let mut streamed = vec![sess.probability()];
            for i in 0..m.len() - 1 {
                streamed.push(sess.advance(m.transition_matrix(i)).unwrap());
            }
            prop_assert_eq!(batch.len(), streamed.len());
            for (b, s) in batch.iter().zip(streamed.iter()) {
                prop_assert!(approx_eq(*b, *s, 1e-12, 1e-10), "{} vs {}", b, s);
            }
        }
    }
}
