//! Scaling smoke tests: the polynomial algorithms must stay fast on
//! inputs far beyond what brute force could touch. These guard against
//! accidentally introducing exponential behaviour into a polynomial path
//! (e.g. a determinization creeping into the deterministic DP).
//!
//! Budgets are deliberately loose (debug builds, shared CI machines) —
//! they catch asymptotic regressions, not constant-factor ones.

use std::time::{Duration, Instant};

use rand::{rngs::StdRng, SeedableRng};
use transmark::engine::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::prelude::*;

const BUDGET: Duration = Duration::from_secs(20);

fn chain(n: usize, k: usize, seed: u64) -> MarkovSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    random_markov_sequence(
        &RandomChainSpec {
            len: n,
            n_symbols: k,
            zero_prob: 0.2,
        },
        &mut rng,
    )
}

#[test]
fn deterministic_confidence_scales_to_thousands() {
    let m = chain(2000, 3, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let t = random_transducer(
        &RandomTransducerSpec {
            n_states: 8,
            n_input_symbols: 3,
            n_output_symbols: 2,
            class: TransducerClass::Mealy,
            branching: 1.0,
        },
        &mut rng,
    );
    let start = Instant::now();
    let top = prepare(&t)
        .bind(&m)
        .unwrap()
        .top()
        .unwrap()
        .expect("non-selective machine has answers");
    let conf = prepare(&t)
        .bind(&m)
        .unwrap()
        .confidence(&top.output)
        .unwrap();
    assert!(conf > 0.0 || top.output.len() == 2000);
    assert!(start.elapsed() < BUDGET, "took {:?}", start.elapsed());
}

#[test]
fn indexed_evaluator_scales_to_thousands() {
    let m = chain(3000, 3, 3);
    // Generated symbol names (s0, s1, …) are multi-character, so build the
    // pattern DFA directly rather than through the char-oriented regex.
    let w = vec![m.alphabet().sym("s0"), m.alphabet().sym("s1")];
    let p = SProjector::simple(m.alphabet_arc(), Dfa::word(3, &w)).unwrap();
    let start = Instant::now();
    let ev = IndexedEvaluator::new(&p, &m).unwrap();
    let o = vec![m.alphabet().sym("s0"), m.alphabet().sym("s1")];
    let mut best = 0.0f64;
    for i in 1..=m.len() - 1 {
        best = best.max(ev.confidence(&o, i));
    }
    assert!(best > 0.0);
    assert!(start.elapsed() < BUDGET, "took {:?}", start.elapsed());
}

#[test]
fn indexed_enumeration_first_answers_scale() {
    let m = chain(1000, 3, 5);
    let w = vec![m.alphabet().sym("s1")];
    let p = SProjector::simple(m.alphabet_arc(), Dfa::word(3, &w)).unwrap();
    let start = Instant::now();
    let first_100: Vec<_> = enumerate_indexed(&p, &m).unwrap().take(100).collect();
    assert_eq!(
        first_100.len(),
        100,
        "a length-1000 chain has ≥100 occurrences"
    );
    for w in first_100.windows(2) {
        assert!(w[0].log_confidence >= w[1].log_confidence - 1e-9);
    }
    assert!(start.elapsed() < BUDGET, "took {:?}", start.elapsed());
}

#[test]
fn acceptance_probability_scales_with_subsets() {
    let m = chain(2000, 3, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let t = random_transducer(
        &RandomTransducerSpec {
            n_states: 6,
            n_input_symbols: 3,
            n_output_symbols: 2,
            class: TransducerClass::General,
            branching: 1.6,
        },
        &mut rng,
    );
    let start = Instant::now();
    let p = PreparedEventQuery::new(t.underlying_nfa())
        .acceptance(&m)
        .unwrap();
    assert!((0.0..=1.0 + 1e-9).contains(&p));
    let series = PreparedEventQuery::new(t.underlying_nfa())
        .series(&m)
        .unwrap();
    assert_eq!(series.len(), 2000);
    assert!(start.elapsed() < BUDGET, "took {:?}", start.elapsed());
}

#[test]
fn hmm_posterior_scales() {
    use transmark::workloads::rfid::{deployment, RfidSpec};
    let dep = deployment(&RfidSpec {
        rooms: 5,
        locations_per_room: 3,
        stay_prob: 0.6,
        noise: 0.2,
    });
    let mut rng = StdRng::seed_from_u64(11);
    let start = Instant::now();
    let (posterior, truth) = dep.sample_posterior(1500, &mut rng);
    assert_eq!(posterior.len(), 1500);
    assert!(posterior.string_probability(&truth).unwrap() >= 0.0);
    assert!(start.elapsed() < BUDGET, "took {:?}", start.elapsed());
}
