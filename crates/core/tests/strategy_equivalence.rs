//! Equivalence of the execution strategies: a dense bind must return
//! *exactly* the bits a sparse bind returns (same accumulation order,
//! not merely close values) for every [`PlanKind`] route and every way
//! the sequence was materialized (in memory, text round-trip, `.tmsb`
//! round-trip).
//!
//! The CI matrix runs this suite twice: once with whatever SIMD the
//! host offers and once under `TRANSMARK_FORCE_SCALAR=1`, so lane and
//! scalar multiply stages are both pinned to the sparse kernel's bits.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::plan::{prepare, Strategy};
use transmark_core::transducer::Transducer;
use transmark_core::SymbolId;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::{binio, textio, MarkovSequence};

fn arb_class() -> impl proptest::Strategy<Value = TransducerClass> {
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
            n_states: 3,
            n_input_symbols: 2,
            n_output_symbols: 2,
            class,
            branching: 1.5,
        },
        &mut rng,
    );
    (t, m)
}

/// The same sequence as the three representations a query can meet it
/// in: the in-memory original, a text (`.tms`) round-trip, and a binary
/// (`.tmsb`) round-trip.
fn representations(m: &MarkovSequence) -> Vec<(&'static str, MarkovSequence)> {
    vec![
        ("memory", m.clone()),
        (
            "text",
            textio::from_text(&textio::to_text(m)).expect("text round-trip"),
        ),
        (
            "tmsb",
            binio::from_tmsb_bytes(&binio::to_tmsb_bytes(m)).expect("tmsb round-trip"),
        ),
    ]
}

/// Every evaluation mode under a forced-dense bind, compared bitwise
/// against a forced-sparse bind of the same `(t, m)`; the single-pass
/// methods also against a streamed (`bind_source`) bind.
fn assert_dense_matches_sparse_bitwise(t: &Transducer, m: &MarkovSequence, ctx: &str) {
    let plan = prepare(t);
    let sparse = plan
        .bind_with_strategy(m, Some(Strategy::Sparse))
        .expect("sparse bind");
    let dense = plan
        .bind_with_strategy(m, Some(Strategy::Dense))
        .expect("dense bind");
    assert_eq!(sparse.strategy(), Strategy::Sparse, "{ctx}");
    assert_eq!(dense.strategy(), Strategy::Dense, "{ctx}");
    assert_eq!(sparse.explain().strategy, Some(Strategy::Sparse), "{ctx}");
    assert_eq!(dense.explain().strategy, Some(Strategy::Dense), "{ctx}");

    // The streamed single-pass methods are the third input: a
    // `bind_source` over the same sequence, rewound between passes.
    let mut streamed = plan.bind_source(m.step_source()).expect("source bind");

    assert_eq!(
        sparse.answer_exists().unwrap(),
        dense.answer_exists().unwrap(),
        "{ctx}"
    );
    assert_eq!(
        sparse.answer_exists().unwrap(),
        streamed.answer_exists().unwrap(),
        "{ctx}: streamed answer_exists"
    );
    assert_eq!(sparse.top().unwrap(), dense.top().unwrap(), "{ctx}");

    // Enumeration shares one CSR regardless of strategy (it Arc-shares
    // the steps); use it as the answer source for the per-output modes.
    let answers: Vec<_> = sparse.top_k_scored(4).unwrap();
    for a in &answers {
        let o = &a.output;
        assert_eq!(
            sparse.confidence(o).unwrap().to_bits(),
            dense.confidence(o).unwrap().to_bits(),
            "{ctx}: confidence of {o:?} under {}",
            plan.kind()
        );
        assert_eq!(
            sparse.emax_of_output(o).unwrap().to_bits(),
            dense.emax_of_output(o).unwrap().to_bits(),
            "{ctx}: emax of {o:?}"
        );
        streamed.rewind().unwrap();
        assert_eq!(
            sparse.confidence(o).unwrap().to_bits(),
            streamed.confidence(o).unwrap().to_bits(),
            "{ctx}: streamed confidence of {o:?}"
        );
        streamed.rewind().unwrap();
        assert_eq!(
            sparse.emax_of_output(o).unwrap().to_bits(),
            streamed.emax_of_output(o).unwrap().to_bits(),
            "{ctx}: streamed emax of {o:?}"
        );
        assert_eq!(
            sparse.is_answer(o).unwrap(),
            dense.is_answer(o).unwrap(),
            "{ctx}"
        );
        streamed.rewind().unwrap();
        assert_eq!(
            sparse.is_answer(o).unwrap(),
            streamed.is_answer(o).unwrap(),
            "{ctx}: streamed is_answer of {o:?}"
        );
        // A perturbed output (last symbol flipped) is usually not an
        // answer, so both outcomes of the streamed pass are exercised.
        if let Some((&last, head)) = o.split_last() {
            let mut miss = head.to_vec();
            miss.push(SymbolId(1 - last.0.min(1)));
            streamed.rewind().unwrap();
            assert_eq!(
                sparse.is_answer(&miss).unwrap(),
                streamed.is_answer(&miss).unwrap(),
                "{ctx}: streamed is_answer of {miss:?}"
            );
            assert_eq!(
                sparse.is_answer(&miss).unwrap(),
                dense.is_answer(&miss).unwrap(),
                "{ctx}: dense is_answer of {miss:?}"
            );
        }
    }
    // And the ranked route end to end.
    let ds: Vec<_> = dense.top_k_scored(4).unwrap();
    assert_eq!(answers.len(), ds.len(), "{ctx}");
    for (a, b) in answers.iter().zip(ds.iter()) {
        assert_eq!(a.output, b.output, "{ctx}");
        assert_eq!(a.emax.to_bits(), b.emax.to_bits(), "{ctx}");
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "{ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random machines of every class — so every `PlanKind` route —
    /// against random chains in all three sequence representations:
    /// dense and sparse binds must agree bit for bit.
    #[test]
    fn dense_is_bit_identical_to_sparse(class in arb_class(), seed in any::<u64>(), n in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        for (rep, m) in representations(&m) {
            assert_dense_matches_sparse_bitwise(&t, &m, rep);
        }
    }
}
