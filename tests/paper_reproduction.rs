//! Cross-crate integration: the paper's running example and full
//! pipelines exercised through the public `transmark` facade.

use transmark::engine::brute;
use transmark::prelude::*;
use transmark::workloads::hospital::{
    hospital_sequence, places, room_tracker, table1_rows, CONF_12,
};

#[test]
fn hospital_example_full_evaluation() {
    let mu = hospital_sequence();
    let t = room_tracker();

    // Every algorithm agrees with brute force on every answer.
    let truth = brute::evaluate(&t, &mu).expect("brute force");
    assert!(truth.len() >= 5, "the running example has several answers");
    for (o, want) in &truth {
        let got = prepare(&t)
            .bind(&mu)
            .unwrap()
            .confidence(o)
            .expect("confidence");
        assert!((got - want).abs() < 1e-12, "answer {o:?}");
    }

    // conf(12) is the paper's number.
    assert!((truth[&places(&["1", "2"])] - CONF_12).abs() < 1e-12);

    // Unranked enumeration finds exactly the answers.
    let unranked: Vec<_> = prepare(&t)
        .bind(&mu)
        .unwrap()
        .unranked()
        .expect("unranked")
        .collect();
    assert_eq!(unranked.len(), truth.len());
    for o in &unranked {
        assert!(truth.contains_key(o));
    }

    // Ranked enumeration: complete, ordered, correct scores.
    let ranked: Vec<_> = prepare(&t)
        .bind(&mu)
        .unwrap()
        .ranked()
        .expect("ranked")
        .collect();
    assert_eq!(ranked.len(), truth.len());
    for w in ranked.windows(2) {
        assert!(w[0].log_score >= w[1].log_score - 1e-12);
    }
    // The top E_max answer is "12" via evidence s (Example 4.2).
    assert_eq!(ranked[0].output, places(&["1", "2"]));
    assert!((ranked[0].score() - 0.3969).abs() < 1e-12);
}

#[test]
fn table1_strings_reproduce_through_the_facade() {
    let mu = hospital_sequence();
    let t = room_tracker();
    let alphabet = mu.alphabet().clone();
    for row in table1_rows() {
        let s: Vec<SymbolId> = row.string.iter().map(|n| alphabet.sym(n)).collect();
        assert!((mu.string_probability(&s).unwrap() - row.probability).abs() < 1e-9);
        assert_eq!(t.transduce_deterministic(&s), row.output.map(places));
    }
}

#[test]
fn hmm_pipeline_to_ranked_answers() {
    use rand::{rngs::StdRng, SeedableRng};
    use transmark::workloads::rfid::{deployment, RfidSpec};

    let dep = deployment(&RfidSpec {
        rooms: 2,
        locations_per_room: 2,
        stay_prob: 0.5,
        noise: 0.2,
    });
    let mut rng = StdRng::seed_from_u64(123);
    let (posterior, _) = dep.sample_posterior(6, &mut rng);
    let t = dep.room_tracker(None);

    // Ranked answers are valid, scored correctly, and complete.
    let truth = brute::evaluate(&t, &posterior).expect("brute");
    let ranked: Vec<_> = prepare(&t)
        .bind(&posterior)
        .unwrap()
        .ranked()
        .expect("ranked")
        .collect();
    assert_eq!(ranked.len(), truth.len());
    for a in &ranked {
        let conf = prepare(&t)
            .bind(&posterior)
            .unwrap()
            .confidence(&a.output)
            .expect("confidence");
        assert!((conf - truth[&a.output]).abs() < 1e-9);
        // E_max never exceeds confidence.
        assert!(a.score() <= conf + 1e-12);
    }
}

#[test]
fn sprojector_pipeline_over_posterior() {
    use rand::{rngs::StdRng, SeedableRng};
    use transmark::workloads::rfid::{deployment, RfidSpec};

    let dep = deployment(&RfidSpec {
        rooms: 2,
        locations_per_room: 1,
        stay_prob: 0.6,
        noise: 0.2,
    });
    let mut rng = StdRng::seed_from_u64(77);
    let (posterior, _) = dep.sample_posterior(6, &mut rng);

    // Extract maximal stretches inside room 2 preceded by room-1 time.
    let p = SProjector::from_patterns(
        posterior.alphabet_arc(),
        ".*a", // prefix ends in room 1's location r1a
        "b+",  // a block of room 2's location r2a
        ".*",
    );
    // Location names are r1a/r2a — two chars don't fit the char-regex; use
    // explicit DFAs instead when names are long. Rebuild with chars:
    drop(p);
    let alphabet = posterior.alphabet_arc();
    let r1 = alphabet.sym("r1a");
    let r2 = alphabet.sym("r2a");
    let prefix = {
        // Any string ending with r1a.
        let mut d = Dfa::new(2);
        let q0 = d.add_state(false);
        let q1 = d.add_state(true);
        for (from, sym, to) in [(q0, r1, q1), (q0, r2, q0), (q1, r1, q1), (q1, r2, q0)] {
            d.set_transition(from, sym, to);
        }
        d
    };
    let pattern = {
        // r2a+
        let mut d = Dfa::new(2);
        let q0 = d.add_state(false);
        let q1 = d.add_state(true);
        let dead = d.add_sink_state(false);
        d.set_transition(q0, r2, q1);
        d.set_transition(q0, r1, dead);
        d.set_transition(q1, r2, q1);
        d.set_transition(q1, r1, dead);
        d
    };
    let suffix = Dfa::universal(2);
    let p = SProjector::new(alphabet, prefix, pattern, suffix).expect("valid projector");

    // The indexed enumeration is in exact decreasing confidence, and each
    // confidence matches the Theorem 5.8 evaluator.
    let ev = IndexedEvaluator::new(&p, &posterior).expect("evaluator");
    let answers: Vec<IndexedAnswer> = enumerate_indexed(&p, &posterior)
        .expect("enumerate")
        .collect();
    for w in answers.windows(2) {
        assert!(w[0].log_confidence >= w[1].log_confidence - 1e-12);
    }
    for a in &answers {
        assert!((a.confidence() - ev.confidence(&a.output, a.index)).abs() < 1e-12);
    }
    // Dedup: I_max scores sandwich the Thm 5.5 confidence (Prop. 5.9).
    for r in enumerate_by_imax(&p, &posterior).expect("imax") {
        let conf = sproj_confidence(&p, &posterior, &r.output).expect("confidence");
        let n = posterior.len() as f64;
        assert!(r.score() <= conf + 1e-12);
        assert!(conf <= (n + 1.0) * r.score() + 1e-12);
    }
}

#[test]
fn korder_reduction_composes_with_the_engine() {
    // Footnote 3: a 2nd-order Markov sequence is queried by reducing it to
    // first order over the window alphabet and lifting the query.
    use transmark::markov::KOrderMarkovSequence;

    let alphabet = Alphabet::of_chars("ab");
    let initial = vec![0.3, 0.2, 0.25, 0.25]; // joint over {aa,ab,ba,bb}
    let table = vec![
        0.5, 0.5, // ctx aa
        0.9, 0.1, // ctx ab
        0.2, 0.8, // ctx ba
        0.6, 0.4, // ctx bb
    ];
    let k2 = KOrderMarkovSequence::new(alphabet.clone(), 2, 4, initial, vec![table.clone(), table])
        .expect("valid 2nd-order chain");
    let (chain, enc) = k2.to_first_order();

    // Query on the window alphabet: emit "x" when the window repeats a
    // symbol (aa or bb), "y" otherwise — a Mealy machine on windows.
    let out = Alphabet::of_chars("xy");
    let mut b = Transducer::builder(chain.alphabet_arc(), out.clone());
    let q = b.add_state(true);
    for (wid, name) in chain.alphabet().iter() {
        let emit = if name == "a·a" || name == "b·b" {
            out.sym("x")
        } else {
            out.sym("y")
        };
        b.add_transition(q, wid, q, &[emit]).expect("valid edge");
    }
    let t = b.build().expect("window Mealy machine");

    // Confidence over the reduced chain equals the direct sum over the
    // 2nd-order model.
    let truth = brute::evaluate(&t, &chain).expect("brute");
    for (o, want) in truth {
        // Direct: sum p_korder(s) over Σ⁴ strings whose window string maps
        // to output o.
        let mut direct = 0.0;
        for code in 0..16u32 {
            let s: Vec<SymbolId> = (0..4).rev().map(|b| SymbolId((code >> b) & 1)).collect();
            let w = enc.encode(&s).expect("encode");
            if t.transduce_deterministic(&w).as_deref() == Some(&o[..]) {
                direct += k2.string_probability(&s).expect("probability");
            }
        }
        assert!((want - direct).abs() < 1e-12, "output {o:?}");
    }
}
