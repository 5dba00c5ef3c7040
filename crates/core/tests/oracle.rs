//! Oracle cross-validation: every engine algorithm against brute force.
//!
//! Strategy: generate many small random (Markov sequence, transducer)
//! pairs covering every transducer class in Table 2, compute the full
//! evaluation by definition (`brute::evaluate`), and check that each
//! polynomial/structured algorithm reproduces it exactly (up to float
//! tolerance):
//!
//! * confidence — Thm 4.6 (deterministic), Thm 4.8 (uniform NFA), the
//!   general exact algorithm, and the auto-dispatcher;
//! * answer membership (`is_answer`) and `Pr(S ∈ L(A))`;
//! * `E_max` — both the per-output DP and the global Viterbi optimizer;
//! * enumeration — Thm 4.1 (unranked: exact answer set, lexicographic,
//!   poly space) and Thm 4.3 (by decreasing `E_max`: exact set, correct
//!   scores, non-increasing order).

use rand::{rngs::StdRng, SeedableRng};
use transmark_core::brute;
use transmark_core::confidence::{
    confidence_deterministic, confidence_general, confidence_uniform_nfa,
};
use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::transducer::Transducer;
use transmark_core::SymbolId;
use transmark_core::{prepare, PreparedEventQuery};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::numeric::approx_eq;
use transmark_markov::support::support;
use transmark_markov::MarkovSequence;

const TOL_ABS: f64 = 1e-10;
const TOL_REL: f64 = 1e-8;

/// One small random instance for a given class and seed.
fn instance(class: TransducerClass, seed: u64) -> (Transducer, MarkovSequence) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_symbols = 2 + (seed % 2) as usize; // 2 or 3
    let chain = random_markov_sequence(
        &RandomChainSpec {
            len: 2 + (seed % 3) as usize,
            n_symbols,
            zero_prob: 0.35,
        },
        &mut rng,
    );
    let t = random_transducer(
        &RandomTransducerSpec {
            n_states: 2 + (seed % 2) as usize,
            n_input_symbols: n_symbols,
            n_output_symbols: 2,
            class,
            branching: 1.6,
        },
        &mut rng,
    );
    (t, chain)
}

/// All output strings up to a length, for negative membership tests.
fn some_outputs(n_symbols: usize, max_len: usize) -> Vec<Vec<SymbolId>> {
    let mut out = vec![vec![]];
    let mut layer: Vec<Vec<SymbolId>> = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for s in &layer {
            for c in 0..n_symbols {
                let mut t = s.clone();
                t.push(SymbolId(c as u32));
                next.push(t);
            }
        }
        out.extend(next.iter().cloned());
        layer = next;
    }
    out
}

fn check_instance(t: &Transducer, m: &MarkovSequence, ctx: &str) {
    let truth = brute::evaluate(t, m).expect("brute evaluation");
    let bound = prepare(t).bind(m).expect("bind");

    // --- Confidence algorithms on every true answer -----------------------
    for (o, &conf_true) in &truth {
        let general = confidence_general(t, m, o).expect("general confidence");
        assert!(
            approx_eq(general, conf_true, TOL_ABS, TOL_REL),
            "{ctx}: general confidence {general} != {conf_true} for {o:?}"
        );
        let auto = bound.confidence(o).expect("auto confidence");
        assert!(
            approx_eq(auto, conf_true, TOL_ABS, TOL_REL),
            "{ctx}: auto confidence {auto} != {conf_true} for {o:?}"
        );
        if t.is_deterministic() {
            let det = confidence_deterministic(t, m, o).expect("det confidence");
            assert!(
                approx_eq(det, conf_true, TOL_ABS, TOL_REL),
                "{ctx}: det confidence {det} != {conf_true} for {o:?}"
            );
        }
        if t.uniform_emission().is_some() {
            let uni = confidence_uniform_nfa(t, m, o).expect("uniform confidence");
            assert!(
                approx_eq(uni, conf_true, TOL_ABS, TOL_REL),
                "{ctx}: uniform confidence {uni} != {conf_true} for {o:?}"
            );
        }

        // E_max of each answer matches brute force.
        let e_brute = brute::emax(t, m, o).expect("brute emax");
        let e_dp = bound.emax_of_output(o).expect("emax dp").exp();
        assert!(
            approx_eq(e_dp, e_brute, TOL_ABS, TOL_REL),
            "{ctx}: emax {e_dp} != {e_brute} for {o:?}"
        );

        // Membership.
        assert!(
            bound.is_answer(o).expect("is_answer"),
            "{ctx}: {o:?} should be an answer"
        );
    }

    // --- Negative membership & zero confidence ----------------------------
    for o in some_outputs(t.n_output_symbols(), 3) {
        if !truth.contains_key(&o) {
            assert!(
                !bound.is_answer(&o).expect("is_answer"),
                "{ctx}: {o:?} should not be an answer"
            );
            let c = bound.confidence(&o).expect("confidence of non-answer");
            assert!(
                approx_eq(c, 0.0, TOL_ABS, 0.0),
                "{ctx}: non-answer {o:?} got confidence {c}"
            );
        }
    }

    // --- Acceptance probability -------------------------------------------
    let nfa = t.underlying_nfa();
    let p_accept = PreparedEventQuery::new(nfa.clone())
        .acceptance(m)
        .expect("acceptance probability");
    let p_brute: f64 = support(m)
        .iter()
        .filter(|(s, _)| nfa.accepts(s))
        .map(|(_, p)| p)
        .sum();
    assert!(
        approx_eq(p_accept, p_brute, TOL_ABS, TOL_REL),
        "{ctx}: acceptance probability {p_accept} != {p_brute}"
    );
    assert_eq!(
        bound.answer_exists().expect("answer_exists"),
        !truth.is_empty(),
        "{ctx}: answer_exists disagrees with brute force"
    );

    // --- Theorem 4.1: unranked enumeration ---------------------------------
    let unranked: Vec<_> = bound.unranked().expect("unranked").collect();
    let expected: Vec<_> = truth.keys().cloned().collect();
    assert_eq!(unranked, expected, "{ctx}: unranked enumeration mismatch");

    // --- Theorem 4.3: ranked by E_max --------------------------------------
    let ranked: Vec<_> = bound.ranked().expect("ranked").collect();
    assert_eq!(ranked.len(), truth.len(), "{ctx}: ranked enumeration count");
    let mut seen = std::collections::BTreeSet::new();
    let mut prev = f64::INFINITY;
    for r in &ranked {
        assert!(
            r.log_score <= prev + 1e-9,
            "{ctx}: E_max order violated ({} after {prev})",
            r.log_score
        );
        prev = r.log_score;
        assert!(
            seen.insert(r.output.clone()),
            "{ctx}: duplicate answer {:?}",
            r.output
        );
        let e_brute = brute::emax(t, m, &r.output).expect("brute emax");
        assert!(
            approx_eq(r.score(), e_brute, TOL_ABS, TOL_REL),
            "{ctx}: ranked score {} != brute emax {e_brute} for {:?}",
            r.score(),
            r.output
        );
        assert!(
            truth.contains_key(&r.output),
            "{ctx}: ranked emitted non-answer"
        );
    }

    // --- Global E_max optimizer --------------------------------------------
    match bound.top().expect("top_by_emax") {
        Some(top) => {
            let best_brute = truth
                .keys()
                .map(|o| brute::emax(t, m, o).expect("brute emax"))
                .fold(0.0f64, f64::max);
            assert!(
                approx_eq(top.prob(), best_brute, TOL_ABS, TOL_REL),
                "{ctx}: top emax {} != {best_brute}",
                top.prob()
            );
            // The reported evidence must really produce the output.
            assert!(
                t.transduce_all(&top.evidence).contains(&top.output),
                "{ctx}: evidence does not produce reported output"
            );
            let p_evidence = m.string_probability(&top.evidence).expect("probability");
            assert!(
                approx_eq(p_evidence, top.prob(), TOL_ABS, TOL_REL),
                "{ctx}: evidence probability mismatch"
            );
        }
        None => assert!(
            truth.is_empty(),
            "{ctx}: optimizer found nothing but answers exist"
        ),
    }
}

#[test]
fn general_transducers_match_oracle() {
    for seed in 0..40 {
        let (t, m) = instance(TransducerClass::General, seed);
        check_instance(&t, &m, &format!("general/{seed}"));
    }
}

#[test]
fn uniform_transducers_match_oracle() {
    for seed in 0..30 {
        let (t, m) = instance(TransducerClass::Uniform(1), seed);
        check_instance(&t, &m, &format!("uniform1/{seed}"));
    }
    for seed in 0..15 {
        let (t, m) = instance(TransducerClass::Uniform(2), seed);
        check_instance(&t, &m, &format!("uniform2/{seed}"));
    }
    // 0-uniform: answers are ε only; confidence(ε) = Pr(S ∈ L(A)).
    for seed in 0..15 {
        let (t, m) = instance(TransducerClass::Uniform(0), seed);
        check_instance(&t, &m, &format!("uniform0/{seed}"));
    }
}

#[test]
fn deterministic_transducers_match_oracle() {
    for seed in 0..40 {
        let (t, m) = instance(TransducerClass::Deterministic, seed);
        check_instance(&t, &m, &format!("det/{seed}"));
    }
}

#[test]
fn mealy_machines_match_oracle() {
    for seed in 0..30 {
        let (t, m) = instance(TransducerClass::Mealy, seed);
        check_instance(&t, &m, &format!("mealy/{seed}"));
    }
}

#[test]
fn projectors_match_oracle() {
    for seed in 0..30 {
        let (t, m) = instance(TransducerClass::Projector, seed);
        check_instance(&t, &m, &format!("projector/{seed}"));
    }
}

#[test]
fn length_one_sequences_work() {
    for seed in 100..115 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 1,
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
                branching: 1.5,
            },
            &mut rng,
        );
        check_instance(&t, &m, &format!("len1/{seed}"));
    }
}

#[test]
fn single_symbol_alphabet_works() {
    for seed in 200..210 {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 4,
                n_symbols: 1,
                zero_prob: 0.0,
            },
            &mut rng,
        );
        let t = random_transducer(
            &RandomTransducerSpec {
                n_states: 3,
                n_input_symbols: 1,
                n_output_symbols: 2,
                class: TransducerClass::General,
                branching: 1.5,
            },
            &mut rng,
        );
        check_instance(&t, &m, &format!("sigma1/{seed}"));
    }
}

#[test]
fn mismatched_alphabets_are_rejected_everywhere() {
    let mut rng = StdRng::seed_from_u64(0);
    let m = random_markov_sequence(
        &RandomChainSpec {
            len: 3,
            n_symbols: 3,
            zero_prob: 0.2,
        },
        &mut rng,
    );
    let t = random_transducer(
        &RandomTransducerSpec {
            n_states: 2,
            n_input_symbols: 2, // != 3
            n_output_symbols: 2,
            class: TransducerClass::General,
            branching: 1.5,
        },
        &mut rng,
    );
    assert!(prepare(&t)
        .bind(&m)
        .and_then(|b| b.confidence(&[]))
        .is_err());
    assert!(prepare(&t).bind(&m).and_then(|b| b.is_answer(&[])).is_err());
    assert!(prepare(&t).bind(&m).and_then(|b| b.top()).is_err());
    assert!(prepare(&t)
        .bind(&m)
        .and_then(|b| b.unranked().map(|_| ()))
        .is_err());
    assert!(prepare(&t).bind(&m).and_then(|b| b.ranked()).is_err());
}
