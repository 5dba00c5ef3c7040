//! Integration tests for the engine extensions (composition, evaluation
//! facade, streaming Boolean queries, sequence operations, Lawler I_max),
//! exercised together through the public facade.

use transmark::engine::brute;
use transmark::prelude::*;
use transmark::workloads::rfid::{deployment, RfidSpec};

/// Full pipeline with composition: raw locations → (Mealy classifier) →
/// (room dedup) as ONE composed query, validated against staging through
/// two brute-force transductions.
#[test]
fn composed_pipeline_equals_staged_pipeline() {
    use rand::{rngs::StdRng, SeedableRng};
    let dep = deployment(&RfidSpec {
        rooms: 2,
        locations_per_room: 2,
        stay_prob: 0.5,
        noise: 0.2,
    });
    let mut rng = StdRng::seed_from_u64(31);
    let (posterior, _) = dep.sample_posterior(5, &mut rng);

    // Stage 1: the non-selective room tracker is NOT 1-uniform (it emits ε
    // inside a room), so build a plain per-step room classifier instead.
    let rooms_out = dep.room_tracker(None).output_alphabet_arc();
    let mut b = Transducer::builder(posterior.alphabet_arc(), rooms_out.clone());
    let q = b.add_state(true);
    for (id, name) in posterior.alphabet().iter() {
        let room = &name[1..2]; // names are r{room}{letter}
        b.add_transition(q, id, q, &[rooms_out.sym(room)]).unwrap();
    }
    let classifier = b.build().unwrap();
    assert_eq!(classifier.uniform_emission(), Some(1));

    // Stage 2 (over room symbols): mark room switches.
    let marks = Alphabet::of_chars("=!");
    let mut b = Transducer::builder(rooms_out.clone(), marks.clone());
    let q0 = b.add_state(true);
    let q1 = b.add_state(true);
    let q2 = b.add_state(true);
    b.set_initial(q0);
    let same = [marks.sym("=")];
    let flip = [marks.sym("!")];
    let (r1, r2) = (rooms_out.sym("1"), rooms_out.sym("2"));
    b.add_transition(q0, r1, q1, &same).unwrap();
    b.add_transition(q0, r2, q2, &same).unwrap();
    b.add_transition(q1, r1, q1, &same).unwrap();
    b.add_transition(q1, r2, q2, &flip).unwrap();
    b.add_transition(q2, r2, q2, &same).unwrap();
    b.add_transition(q2, r1, q1, &flip).unwrap();
    let switcher = b.build().unwrap();

    let composite = compose(&classifier, &switcher).unwrap();

    // Reference: stage through both transducers world by world.
    let mut staged: std::collections::BTreeMap<Vec<SymbolId>, f64> = Default::default();
    for (s, p) in transmark::markov::support::support(&posterior) {
        let mid = classifier.transduce_deterministic(&s).unwrap();
        let out = switcher.transduce_deterministic(&mid).unwrap();
        *staged.entry(out).or_insert(0.0) += p;
    }
    let direct = brute::evaluate(&composite, &posterior).unwrap();
    assert_eq!(staged.len(), direct.len());
    for (o, want) in staged {
        assert!((direct[&o] - want).abs() < 1e-12, "output {o:?}");
        // And the engine's polynomial algorithm agrees.
        let got = prepare(&composite)
            .bind(&posterior)
            .unwrap()
            .confidence(&o)
            .unwrap();
        assert!((got - want).abs() < 1e-12);
    }
}

/// A bound query's scored top-k agrees with the brute-force oracle.
#[test]
fn bound_query_scores_match_brute_force() {
    use rand::{rngs::StdRng, SeedableRng};
    let dep = deployment(&RfidSpec::default());
    let mut rng = StdRng::seed_from_u64(17);
    let (posterior, _) = dep.sample_posterior(5, &mut rng);
    let t = dep.room_tracker(Some(2));
    let bound = prepare(&t).bind(&posterior).unwrap();
    assert_eq!(
        bound.plan().kind().confidence_cost(),
        ConfidenceCost::Polynomial
    );
    let answers = brute::evaluate(&t, &posterior).unwrap();
    let scored = bound.top_k_scored(4).unwrap();
    for s in &scored {
        assert!(s.emax <= s.confidence + 1e-12);
        assert!((answers[&s.output] - s.confidence).abs() < 1e-12);
    }
    // Scored list is E_max-ordered.
    for w in scored.windows(2) {
        assert!(w[0].emax >= w[1].emax - 1e-12);
    }
}

/// Conditioning, windowing and streaming Boolean queries compose: condition
/// the posterior on ground truth, slice a window, and query it.
#[test]
fn condition_window_and_stream() {
    use rand::{rngs::StdRng, SeedableRng};
    let dep = deployment(&RfidSpec {
        rooms: 2,
        locations_per_room: 1,
        stay_prob: 0.5,
        noise: 0.3,
    });
    let mut rng = StdRng::seed_from_u64(5);
    let (posterior, truth) = dep.sample_posterior(6, &mut rng);

    // Condition on the (known) position at time 3.
    let conditioned = condition(&posterior, &[(2, Evidence::Exactly(truth[2]))]).unwrap();
    assert!((conditioned.marginals()[2][truth[2].index()] - 1.0).abs() < 1e-9);

    // Evidence probability equals the marginal.
    let pe = evidence_probability(&posterior, &[(2, Evidence::Exactly(truth[2]))]).unwrap();
    assert!((pe - posterior.marginals()[2][truth[2].index()]).abs() < 1e-12);

    // Window the last 3 steps of the conditioned chain and query it.
    let w = window(&conditioned, 3, 3).unwrap();
    assert_eq!(w.len(), 3);
    let t = dep.room_tracker(None);
    let truth_map = brute::evaluate(&t, &w).unwrap();
    for (o, want) in truth_map {
        assert!((prepare(&t).bind(&w).unwrap().confidence(&o).unwrap() - want).abs() < 1e-10);
    }

    // Streaming Boolean query on the full chain: P(visited room 2 by time i)
    // is monotone and ends at the acceptance probability.
    let visit2 = {
        let mut nfa = Nfa::new(2);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        let r2 = posterior.alphabet().sym("r2a");
        let r1 = posterior.alphabet().sym("r1a");
        nfa.add_transition(q0, r1, q0);
        nfa.add_transition(q0, r2, acc);
        nfa.add_transition(acc, r1, acc);
        nfa.add_transition(acc, r2, acc);
        nfa
    };
    let series = PreparedEventQuery::new(visit2.clone())
        .series(&posterior)
        .unwrap();
    for w in series.windows(2) {
        assert!(w[0] <= w[1] + 1e-12);
    }
    let total = PreparedEventQuery::new(visit2.clone())
        .acceptance(&posterior)
        .unwrap();
    assert!((series.last().unwrap() - total).abs() < 1e-12);
}

/// Lawler and dedup I_max enumerations agree through the facade on a
/// realistic extraction.
#[test]
fn imax_variants_agree_on_text_workload() {
    use transmark::workloads::text::{noisy_document, TextSpec};
    let doc = noisy_document(
        "ab:na me",
        &TextSpec {
            noise: 0.25,
            stickiness: 1.5,
        },
    );
    let p = doc.extractor(".*", "[a-z]+", ".*").unwrap();
    let a: Vec<_> = enumerate_by_imax(&p, &doc.sequence).unwrap().collect();
    let b: Vec<_> = enumerate_by_imax_lawler(&p, &doc.sequence)
        .unwrap()
        .collect();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x.score() - y.score()).abs() < 1e-12);
    }
    let sa: std::collections::BTreeSet<_> = a.into_iter().map(|r| r.output).collect();
    let sb: std::collections::BTreeSet<_> = b.into_iter().map(|r| r.output).collect();
    assert_eq!(sa, sb);
}
