//! Equivalence of the execution strategies: a dense bind must return
//! *exactly* the bits a sparse bind returns (same accumulation order,
//! not merely close values) for every [`PlanKind`] route and every way
//! the sequence was materialized (in memory, text round-trip, `.tmsb`
//! round-trip), and the parallel-prefix scan must agree with the
//! sequential subset fold within its documented 1e-12 relative
//! tolerance at every prefix position and any worker count.
//!
//! The CI matrix runs this suite twice: once with whatever SIMD the
//! host offers and once under `TRANSMARK_FORCE_SCALAR=1`, so lane and
//! scalar multiply stages are both pinned to the sparse kernel's bits.

use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::plan::{prepare, PreparedEventQuery, Strategy};
use transmark_core::transducer::Transducer;
use transmark_core::{EngineError, Nfa, SymbolId};
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
/// against a forced-sparse bind of the same `(t, m)`; the Boolean passes
/// also against a streamed (`bind_source`) bind.
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

    // The streamed Boolean passes are the third input: a `bind_source`
    // over the same sequence, rewound between passes.
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

/// A small random event NFA over `k` symbols with at least one
/// accepting state and a guaranteed path from the start.
fn random_nfa(rng: &mut StdRng, k: usize) -> Nfa {
    let mut nfa = Nfa::new(k);
    let n_states = 3usize;
    let states: Vec<_> = (0..n_states)
        .map(|i| nfa.add_state(i == n_states - 1 || rng.random_bool(0.3)))
        .collect();
    for &from in &states {
        for s in 0..k as u32 {
            for &to in &states {
                if rng.random_bool(0.4) {
                    nfa.add_transition(from, SymbolId(s), to);
                }
            }
        }
    }
    // Guarantee the automaton is not vacuously empty.
    nfa.add_transition(states[0], SymbolId(0), states[n_states - 1]);
    nfa
}

/// "Contains symbol 1" over a `k`-symbol alphabet — a fixed event query
/// usable against any workload sequence.
fn has_sym1(k: usize) -> Nfa {
    let mut nfa = Nfa::new(k);
    let q0 = nfa.add_state(false);
    let acc = nfa.add_state(true);
    for s in 0..k as u32 {
        nfa.add_transition(q0, SymbolId(s), q0);
        nfa.add_transition(acc, SymbolId(s), acc);
    }
    nfa.add_transition(q0, SymbolId(1), acc);
    nfa
}

/// Scan vs sequential fold: every prefix position within the documented
/// relative tolerance.
fn assert_scan_matches_fold(nfa: &Nfa, m: &MarkovSequence, threads: usize, ctx: &str) {
    let q = PreparedEventQuery::new(nfa.clone());
    let fold = q
        .series_with(m, 1, Some(Strategy::Sparse))
        .expect("fold series");
    let scan = q
        .series_with(m, threads, Some(Strategy::Scan))
        .expect("scan series");
    assert_eq!(fold.len(), scan.len(), "{ctx}");
    for (i, (a, b)) in fold.iter().zip(scan.iter()).enumerate() {
        let tol = 1e-12 * a.abs().max(1.0);
        assert!(
            (a - b).abs() <= tol,
            "{ctx}: position {i} ({threads} threads): fold {a} vs scan {b}"
        );
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

    /// Scan vs fold on random event queries over random chains, at
    /// several worker counts (including more workers than steps).
    #[test]
    fn scan_matches_fold_on_random_queries(seed in any::<u64>(), n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_markov_sequence(
            &RandomChainSpec { len: n, n_symbols: 2, zero_prob: 0.3 },
            &mut rng,
        );
        let nfa = random_nfa(&mut rng, 2);
        for threads in [1usize, 2, 4, 7] {
            assert_scan_matches_fold(&nfa, &m, threads, "random");
        }
    }
}

/// The planner never picks scan for a bound transducer query, and a
/// forced scan bind is a typed error; symmetrically, dense cannot
/// schedule prefix-series evaluation.
#[test]
fn cross_scheduling_is_rejected() {
    let (t, m) = instance(TransducerClass::Mealy, 7, 3);
    let plan = prepare(&t);
    assert!(matches!(
        plan.bind_with_strategy(&m, Some(Strategy::Scan)),
        Err(EngineError::UnsupportedStrategy {
            strategy: "scan",
            ..
        })
    ));
    let q = PreparedEventQuery::new(has_sym1(2));
    assert!(matches!(
        q.series_with(&m, 1, Some(Strategy::Dense)),
        Err(EngineError::UnsupportedStrategy {
            strategy: "dense",
            ..
        })
    ));
}

/// The hospital workload (the paper's running example) through a
/// 4-worker scan.
#[test]
fn hospital_scan_matches_fold_on_4_workers() {
    let m = transmark_workloads::hospital::hospital_sequence();
    let nfa = has_sym1(m.n_symbols());
    assert_scan_matches_fold(&nfa, &m, 4, "hospital");
}

/// A sampled RFID posterior (dense nonuniform layers) through a
/// 4-worker scan.
#[test]
fn rfid_scan_matches_fold_on_4_workers() {
    let dep =
        transmark_workloads::rfid::deployment(&transmark_workloads::rfid::RfidSpec::default());
    let mut rng = StdRng::seed_from_u64(2010);
    let (posterior, _) = dep.sample_posterior(96, &mut rng);
    let nfa = has_sym1(posterior.n_symbols());
    assert_scan_matches_fold(&nfa, &posterior, 4, "rfid");
}

/// A long chain past the auto-scan thresholds: the planner's automatic
/// pick (None) agrees with the explicit fold within tolerance, for both
/// a sub-threshold and an above-threshold worker count.
#[test]
fn auto_pick_agrees_with_fold_on_long_chain() {
    let mut rng = StdRng::seed_from_u64(99);
    let m = random_markov_sequence(
        &RandomChainSpec {
            len: 5000,
            n_symbols: 2,
            zero_prob: 0.0,
        },
        &mut rng,
    );
    let nfa = has_sym1(2);
    let q = PreparedEventQuery::new(nfa);
    let fold = q.series_with(&m, 1, Some(Strategy::Sparse)).unwrap();
    for threads in [1usize, 4] {
        let auto = q.series_with(&m, threads, None).unwrap();
        assert_eq!(fold.len(), auto.len());
        for (i, (a, b)) in fold.iter().zip(auto.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "position {i} ({threads} threads): {a} vs {b}"
            );
        }
    }
}
