//! Correctness of the prepared-query planner: for every [`PlanKind`] the
//! plan path (compile once, bind per sequence, execute over cached
//! artifacts) must agree with the brute-force oracles of
//! [`transmark_core::brute`] — query evaluation by definition, over the
//! whole possible-world space — and reproduce the paper's golden Table 1
//! values. One compiled plan must also be safe to bind from several
//! threads, with bit-identical results on each.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

use transmark_core::brute;
use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::plan::{prepare, PlanKind, PreparedQuery};
use transmark_core::transducer::Transducer;
use transmark_core::SymbolId;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;

/// Absolute tolerance between an engine probability and the oracle's
/// (different summation orders over at most a few dozen worlds).
const TOL: f64 = 1e-12;

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

/// Every evaluation mode through `plan`, checked against the brute-force
/// oracles on the same `(t, m)`.
fn assert_plan_matches_oracles(plan: &Arc<PreparedQuery>, t: &Transducer, m: &MarkovSequence) {
    let bound = plan.bind(m).expect("bind accepts a matching sequence");
    let truth = brute::evaluate(t, m).expect("brute force");
    let answers: Vec<Vec<SymbolId>> = truth.keys().cloned().collect();

    // Unranked enumeration: exactly the answers.
    let mut unranked: Vec<_> = bound.unranked().unwrap().collect();
    unranked.sort();
    assert_eq!(unranked, answers, "unranked answers under {}", plan.kind());

    // Ranked enumeration: every answer once, in non-increasing E_max,
    // each scored with its true E_max.
    let ranked: Vec<_> = bound.ranked().unwrap().collect();
    let mut ranked_outputs: Vec<_> = ranked.iter().map(|r| r.output.clone()).collect();
    ranked_outputs.sort();
    assert_eq!(
        ranked_outputs,
        answers,
        "ranked answers under {}",
        plan.kind()
    );
    for w in ranked.windows(2) {
        assert!(w[0].log_score >= w[1].log_score, "ranking out of order");
    }
    for r in &ranked {
        let want = brute::emax(t, m, &r.output).unwrap();
        assert!((r.score() - want).abs() < TOL, "E_max of {:?}", r.output);
    }

    // The top answer: its witness world transduces to it, and its score
    // is the best E_max of any answer.
    match bound.top().unwrap() {
        None => assert!(truth.is_empty(), "top() found no answer"),
        Some(top) => {
            let best = answers
                .iter()
                .map(|o| brute::emax(t, m, o).unwrap())
                .fold(0.0, f64::max);
            assert!((top.prob() - best).abs() < TOL, "top E_max");
            assert!(t.transduce_all(&top.evidence).contains(&top.output));
            let p = m.string_probability(&top.evidence).unwrap();
            assert!((top.prob() - p).abs() < TOL, "top evidence probability");
        }
    }

    // Confidence (the Table 2 dispatch), E_max, membership, and the top
    // evidences of every answer.
    for (o, &want) in &truth {
        let got = bound.confidence(o).unwrap();
        assert!(
            (got - want).abs() < TOL,
            "confidence of {o:?} under {}: {got} vs {want}",
            plan.kind()
        );
        let emax = brute::emax(t, m, o).unwrap();
        assert!((bound.emax_of_output(o).unwrap().exp() - emax).abs() < TOL);
        assert!(bound.is_answer(o).unwrap());
        let evidences = bound.top_evidences(o, 3).unwrap();
        assert!(!evidences.is_empty(), "an answer has an evidence");
        assert!((evidences[0].prob() - emax).abs() < TOL);
        for w in evidences.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob, "evidences out of order");
        }
        for e in &evidences {
            assert!(t.transduce_all(&e.world).contains(o));
            let p = m.string_probability(&e.world).unwrap();
            assert!((e.prob() - p).abs() < TOL, "evidence probability");
        }
    }

    // A string longer than every answer is not one.
    let longest = answers.iter().map(Vec::len).max().unwrap_or(0);
    let miss = vec![SymbolId(0); longest + 1];
    assert!(!bound.is_answer(&miss).unwrap());
    assert_eq!(bound.confidence(&miss).unwrap(), 0.0);
    assert_eq!(bound.emax_of_output(&miss).unwrap(), f64::NEG_INFINITY);
    assert_eq!(bound.answer_exists().unwrap(), !truth.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random machines of every class — so every `PlanKind` route —
    /// against random chains.
    #[test]
    fn prepared_path_matches_oracles(class in arb_class(), seed in any::<u64>(), n in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        let plan = prepare(&t);
        // The classifier is consistent with the machine's own predicates.
        match plan.kind() {
            PlanKind::DeterministicUniform { k } => {
                prop_assert!(t.is_deterministic());
                prop_assert_eq!(t.uniform_emission(), Some(k));
            }
            PlanKind::Deterministic => {
                prop_assert!(t.is_deterministic());
                prop_assert_eq!(t.uniform_emission(), None);
            }
            PlanKind::UniformNfa { k } => {
                prop_assert!(!t.is_deterministic());
                prop_assert_eq!(t.uniform_emission(), Some(k));
            }
            PlanKind::General => {
                prop_assert!(!t.is_deterministic());
                prop_assert_eq!(t.uniform_emission(), None);
            }
            other => prop_assert!(false, "transducer plan classified as {}", other),
        }
        assert_plan_matches_oracles(&plan, &t, &m);
    }

    /// One plan, many sequences: binding must not leak per-sequence
    /// state between executions.
    #[test]
    fn one_plan_many_binds(class in arb_class(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
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
        let plan = prepare(&t);
        for n in 1..4 {
            let m = random_markov_sequence(
                &RandomChainSpec { len: n, n_symbols: 2, zero_prob: 0.3 },
                &mut rng,
            );
            assert_plan_matches_oracles(&plan, &t, &m);
        }
    }
}

/// The paper's running example (hospital, Figure 1/2) through the
/// planner: the oracles, plus the golden Table 1 / Example 3.4 / 4.2
/// numbers.
#[test]
fn hospital_workload_matches_oracles_and_table1() {
    use transmark_workloads::hospital::{
        hospital_sequence, locations, places, room_tracker, table1_rows, CONF_12,
    };
    let m = hospital_sequence();
    let t = room_tracker();
    let plan = prepare(&t);
    assert!(matches!(
        plan.kind(),
        PlanKind::Deterministic | PlanKind::DeterministicUniform { .. }
    ));
    assert_plan_matches_oracles(&plan, &t, &m);

    let bound = plan.bind(&m).unwrap();
    let twelve = places(&["1", "2"]);
    // Example 3.4: conf(12) = 0.4038.
    assert!((bound.confidence(&twelve).unwrap() - CONF_12).abs() < TOL);
    // Example 4.2: the top answer is 12, via evidence s of Table 1.
    let top = bound.top().unwrap().expect("the example has answers");
    assert_eq!(top.output, twelve);
    assert!((top.prob() - 0.3969).abs() < TOL);
    let s = table1_rows().into_iter().find(|r| r.label == "s").unwrap();
    assert_eq!(top.evidence, locations(&s.string));
    assert_eq!(
        bound.top_evidences(&twelve, 1).unwrap()[0].world,
        top.evidence
    );
    // Every Table 1 row with an output is an evidence of that output, at
    // its printed probability; the rejected row's string is no evidence.
    for row in table1_rows() {
        let world = locations(&row.string);
        match row.output {
            Some(names) => {
                let o = places(names);
                assert!(bound.is_answer(&o).unwrap(), "row {}", row.label);
                let evidences: Vec<_> = bound.evidences(&o).unwrap().collect();
                let e = evidences
                    .iter()
                    .find(|e| e.world == world)
                    .unwrap_or_else(|| panic!("row {} is an evidence of its output", row.label));
                assert!(
                    (e.prob() - row.probability).abs() < 1e-9,
                    "row {}",
                    row.label
                );
            }
            None => assert!(t.transduce_all(&world).is_empty(), "row {}", row.label),
        }
    }
}

/// The synthetic RFID deployment: posterior sequences from a sampled
/// sensor read, both tracker variants.
#[test]
fn rfid_workload_matches_oracles() {
    let dep =
        transmark_workloads::rfid::deployment(&transmark_workloads::rfid::RfidSpec::default());
    let mut rng = StdRng::seed_from_u64(2010);
    let (posterior, _) = dep.sample_posterior(5, &mut rng);
    for lab_room in [None, Some(1)] {
        let t = dep.room_tracker(lab_room);
        let plan = prepare(&t);
        assert_plan_matches_oracles(&plan, &t, &posterior);
    }
}

/// One `Arc<PreparedQuery>` bound from two threads concurrently returns
/// bit-identical results on both, and both match the oracles.
#[test]
fn concurrent_binds_agree_bitwise() {
    let (t, m, truth) = (424242..)
        .map(|seed| {
            let (t, m) = instance(TransducerClass::General, seed, 4);
            let truth = brute::evaluate(&t, &m).unwrap();
            (t, m, truth)
        })
        .find(|(_, _, truth)| !truth.is_empty())
        .expect("some seed yields a machine with answers");
    let plan = prepare(&t);

    type Results = Vec<(Vec<SymbolId>, u64, u64)>;
    let run = |plan: &Arc<PreparedQuery>, m: &MarkovSequence| -> Results {
        let bound = plan.bind(m).unwrap();
        truth
            .keys()
            .map(|o| {
                (
                    o.clone(),
                    bound.confidence(o).unwrap().to_bits(),
                    bound.emax_of_output(o).unwrap().to_bits(),
                )
            })
            .collect()
    };

    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(|| run(&plan, &m));
        let hb = scope.spawn(|| run(&plan, &m));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    assert_eq!(a, b);
    for (o, conf_bits, emax_bits) in a {
        assert!((f64::from_bits(conf_bits) - truth[&o]).abs() < TOL);
        let emax = brute::emax(&t, &m, &o).unwrap();
        assert!((f64::from_bits(emax_bits).exp() - emax).abs() < TOL);
    }
}

/// The Theorem 4.3 enumeration probes a split only when the next answer
/// is asked for, and probes all of its subspaces in one Viterbi pass:
/// the top-1 runs the root pass alone, and each further answer adds
/// exactly one pass over the sequence's n − 1 layers. Only the root
/// constraint product is memoized; split products are built per split.
#[test]
fn top_1_probes_only_the_root_subspace() {
    use transmark_workloads::hospital::{hospital_sequence, places, room_tracker};
    let t = room_tracker();
    let m = hospital_sequence();
    let layers = (m.len() - 1) as u64;

    let ranked = |k: usize| {
        let plan = prepare(&t);
        let bound = plan.bind(&m).unwrap();
        let rec = Arc::new(transmark_obs::Recorder::new());
        let top = rec.scope(|| bound.top_k(k).unwrap());
        (top, rec.finish().layers, plan)
    };
    let (top, layers_1, plan) = ranked(1);
    assert_eq!(top[0].output, places(&["1", "2"]));
    assert_eq!(plan.explain().cached_constraint_products, 1);

    let (top3, layers_3, plan) = ranked(3);
    assert_eq!(top3.len(), 3);
    assert_eq!(top3[0], top[0]);
    assert_eq!(plan.explain().cached_constraint_products, 1);
    if transmark_obs::enabled() {
        assert_eq!(layers_1, layers, "top-1 is the root pass alone");
        assert_eq!(layers_3, 3 * layers, "root pass + one pass per split");
    }
}
