//! Property suite for the streaming data plane: every forward-only pass,
//! executed over any [`StepSource`] (in-memory cursor, chunked `.tms`
//! text reader, binary `.tmsb` reader), must return *exactly* the bits
//! the materialized pass returns — same float accumulation order, not
//! merely close values — across every `PlanKind` and on the paper's
//! hospital and RFID workloads. Plus `.tms ↔ .tmsb` round-trip fuzz.

use std::io::Cursor;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::incremental::{EventSession, StreamSession};
use transmark_core::montecarlo::{estimate_confidence_source, McEstimate};
use transmark_core::plan::{prepare, PreparedEventQuery};
use transmark_core::transducer::Transducer;
use transmark_markov::binio::{from_tmsb_bytes, to_tmsb_bytes, TmsbReader, TmsbSlice};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::source::materialize;
use transmark_markov::textio::{to_text, TmsTextSource};
use transmark_markov::{MarkovSequence, SourceError, StepSource, SymbolId};
use transmark_workloads::cyclic::CyclicSource;

/// The three source kinds over one sequence. Each call returns fresh
/// cursors (sources are single-pass).
fn sources(m: &MarkovSequence) -> Vec<(&'static str, Box<dyn StepSource + '_>)> {
    vec![
        ("memory", Box::new(m.step_source())),
        (
            "text",
            Box::new(TmsTextSource::new(Cursor::new(to_text(m))).expect("rendered header parses")),
        ),
        (
            "binary",
            Box::new(
                TmsbReader::new(Cursor::new(to_tmsb_bytes(m))).expect("rendered header parses"),
            ),
        ),
    ]
}

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

/// Confidence and E_max of `o`, streamed over every source kind and
/// through the prepared-plan `bind_source` path, all bitwise equal to the
/// in-memory result.
fn assert_output_passes_stream_identically(t: &Transducer, m: &MarkovSequence, o: &[SymbolId]) {
    let want_c = prepare(t).bind(m).unwrap().confidence(o).unwrap();
    let want_e = prepare(t).bind(m).unwrap().emax_of_output(o).unwrap();
    let plan = prepare(t);
    for (kind, mut src) in sources(m) {
        let got = prepare(t)
            .bind_source(&mut src)
            .unwrap()
            .confidence(o)
            .unwrap();
        assert_eq!(
            got.to_bits(),
            want_c.to_bits(),
            "confidence over {kind} source under {:?}: {got} vs {want_c}",
            plan.kind()
        );
    }
    for (kind, src) in sources(m) {
        let got = plan.bind_source(src).unwrap().confidence(o).unwrap();
        assert_eq!(
            got.to_bits(),
            want_c.to_bits(),
            "bind_source confidence over {kind} source under {:?}",
            plan.kind()
        );
    }
    for (kind, mut src) in sources(m) {
        let got = prepare(t)
            .bind_source(&mut src)
            .unwrap()
            .emax_of_output(o)
            .unwrap();
        assert_eq!(
            got.to_bits(),
            want_e.to_bits(),
            "E_max over {kind} source: {got} vs {want_e}"
        );
    }
}

/// Acceptance, the per-prefix series, and an event session fed matrix by
/// matrix, streamed over every source kind, bitwise equal to the
/// in-memory passes.
fn assert_boolean_passes_stream_identically(nfa: &transmark_core::Nfa, m: &MarkovSequence) {
    let q = PreparedEventQuery::new(nfa.clone());
    let want_p = q.acceptance(m).unwrap();
    let want_series = q.series(m).unwrap();
    for (kind, mut src) in sources(m) {
        let sess = EventSession::start(nfa.clone(), src.initial()).unwrap();
        let got = StreamSession::Event(sess).drain(&mut src, false).unwrap()[0];
        assert_eq!(got.to_bits(), want_p.to_bits(), "acceptance over {kind}");
    }
    for (kind, mut src) in sources(m) {
        let got = q.series_source(&mut src).unwrap();
        assert_eq!(got.len(), want_series.len());
        for (i, (g, w)) in got.iter().zip(want_series.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "series[{i}] over {kind}");
        }
    }
    // The session is the same fold again, fed matrix by matrix.
    for (kind, mut src) in sources(m) {
        let mut sess = EventSession::start(nfa.clone(), src.initial()).unwrap();
        let mut got = vec![sess.probability()];
        while let Some(matrix) = src.next_step().unwrap() {
            got.push(sess.advance(matrix).unwrap());
        }
        for (i, (g, w)) in got.iter().zip(want_series.iter()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "monitor[{i}] over {kind}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random machines of every class — so every `PlanKind` route — on
    /// random chains: the streamed Table 2 dispatch is bit-identical.
    #[test]
    fn confidence_streams_bit_identical(class in arb_class(), seed in any::<u64>(), n in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        let outputs: Vec<Vec<SymbolId>> =
            prepare(&t).bind(&m).unwrap().unranked().unwrap().take(3).collect();
        for o in &outputs {
            assert_output_passes_stream_identically(&t, &m, o);
        }
        // A non-answer output exercises the zero paths too.
        let absent = vec![SymbolId(0); m.len() + 2];
        assert_output_passes_stream_identically(&t, &m, &absent);
    }

    /// Boolean event queries (the machine's underlying input NFA) over
    /// random chains: acceptance, prefix series, and monitor all match.
    #[test]
    fn acceptance_streams_bit_identical(class in arb_class(), seed in any::<u64>(), n in 1usize..8) {
        let (t, m) = instance(class, seed, n);
        let nfa = t.underlying_nfa();
        assert_boolean_passes_stream_identically(&nfa, &m);
    }

    /// The streamed Monte-Carlo estimator is deterministic given the seed
    /// and bit-identical across source kinds.
    #[test]
    fn monte_carlo_streams_deterministically(class in arb_class(), seed in any::<u64>(), n in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        let o: Vec<Vec<SymbolId>> = prepare(&t).bind(&m).unwrap().unranked().unwrap().take(1).collect();
        let o = o.first().cloned().unwrap_or_default();
        let mut estimates: Vec<(&str, McEstimate)> = Vec::new();
        for (kind, mut src) in sources(&m) {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            let est = estimate_confidence_source(&t, &mut src, &o, 64, &mut rng).unwrap();
            estimates.push((kind, est));
        }
        let (_, first) = estimates[0];
        for (kind, est) in &estimates[1..] {
            prop_assert_eq!(
                est.estimate.to_bits(), first.estimate.to_bits(),
                "MC estimate differs on {} source", kind
            );
        }
    }

    /// `.tms ↔ .tmsb` round-trip fuzz: bytes materialize back to the same
    /// model bitwise, the slice view streams the exact layers, and
    /// truncation is always rejected.
    #[test]
    fn tmsb_round_trip_fuzz(seed in any::<u64>(), n in 1usize..9, k in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_markov_sequence(
            &RandomChainSpec { len: n, n_symbols: k, zero_prob: 0.3 },
            &mut rng,
        );
        let bytes = to_tmsb_bytes(&m);
        let back = from_tmsb_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), m.len());
        prop_assert_eq!(back.initial_dist(), m.initial_dist());
        prop_assert_eq!(back.transitions_flat(), m.transitions_flat());
        for s in 0..k as u32 {
            prop_assert_eq!(
                back.alphabet().name(SymbolId(s)),
                m.alphabet().name(SymbolId(s))
            );
        }
        // And through the text format: tms → tmsb → tms is the identity.
        let text_back = transmark_markov::textio::from_text(&to_text(&back)).unwrap();
        prop_assert_eq!(text_back.initial_dist(), m.initial_dist());
        prop_assert_eq!(text_back.transitions_flat(), m.transitions_flat());

        // The slice view streams the exact layers.
        let mut slice = TmsbSlice::new(&bytes).unwrap();
        for i in 0..m.len() - 1 {
            prop_assert_eq!(slice.next_step().unwrap().unwrap(), m.transition_matrix(i));
        }
        prop_assert!(slice.next_step().unwrap().is_none());

        // Any strict prefix is rejected, either at parse or during pulls.
        let cut = bytes.len() - 1 - (seed as usize % bytes.len().min(64));
        match TmsbSlice::new(&bytes[..cut]) {
            Err(_) => {}
            Ok(mut s) => loop {
                match s.next_step() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("truncated payload streamed to completion"),
                    Err(SourceError::Format(_) | SourceError::Model(_)) => break,
                    Err(other) => panic!("unexpected error {other}"),
                }
            },
        }
    }
}

/// The paper's running example: every streamed pass over the hospital
/// sequence reproduces the in-memory bits.
#[test]
fn hospital_workload_streams_bit_identical() {
    let m = transmark_workloads::hospital::hospital_sequence();
    let t = transmark_workloads::hospital::room_tracker();
    let outputs: Vec<Vec<SymbolId>> = prepare(&t).bind(&m).unwrap().unranked().unwrap().collect();
    assert!(!outputs.is_empty());
    for o in &outputs {
        assert_output_passes_stream_identically(&t, &m, o);
    }
    assert_boolean_passes_stream_identically(&t.underlying_nfa(), &m);
}

/// RFID posteriors (the paper's Lahar setting): streamed passes over
/// sampled posterior sequences reproduce the in-memory bits for both
/// tracker variants.
#[test]
fn rfid_workload_streams_bit_identical() {
    let spec = transmark_workloads::rfid::RfidSpec::default();
    let dep = transmark_workloads::rfid::deployment(&spec);
    let mut rng = StdRng::seed_from_u64(2010);
    for lab in [None, Some(2)] {
        let t = dep.room_tracker(lab);
        let (m, _) = dep.sample_posterior(6, &mut rng);
        let outputs: Vec<Vec<SymbolId>> = prepare(&t)
            .bind(&m)
            .unwrap()
            .unranked()
            .unwrap()
            .take(2)
            .collect();
        for o in &outputs {
            assert_output_passes_stream_identically(&t, &m, o);
        }
        assert_boolean_passes_stream_identically(&t.underlying_nfa(), &m);
    }
}

/// Thousands of layers: the property suites stop at n < 9, so drift in
/// accumulation order that only shows over a long fold would slip past
/// them. A cycling-pool source streams 2^12 positions; acceptance and
/// confidence still match the materialized passes bit for bit.
#[test]
fn long_cyclic_stream_bit_identical() {
    const N: usize = 1 << 12;
    const SYMBOLS: u32 = 4;
    let donor = random_markov_sequence(
        &RandomChainSpec {
            len: 17,
            n_symbols: SYMBOLS as usize,
            zero_prob: 0.3,
        },
        &mut StdRng::seed_from_u64(42),
    );
    let m = materialize(&mut CyclicSource::new(&donor, N)).unwrap();
    assert_eq!(m.len(), N);

    // Parity of the symbol-0 count: its probability stays away from 0
    // and 1 at any length, so the fold never saturates.
    let mut nfa = transmark_core::Nfa::new(SYMBOLS as usize);
    let even = nfa.add_state(true);
    let odd = nfa.add_state(false);
    for s in 0..SYMBOLS {
        let flip = s == 0;
        nfa.add_transition(even, SymbolId(s), if flip { odd } else { even });
        nfa.add_transition(odd, SymbolId(s), if flip { even } else { odd });
    }
    let want = PreparedEventQuery::new(nfa.clone()).acceptance(&m).unwrap();
    let mut src = CyclicSource::new(&donor, N);
    let sess = EventSession::start(nfa, src.initial()).unwrap();
    let got = StreamSession::Event(sess).drain(&mut src, false).unwrap()[0];
    assert!(0.0 < want && want < 1.0, "acceptance {want} saturated");
    assert_eq!(got.to_bits(), want.to_bits(), "acceptance: {got} vs {want}");

    // Deterministic, non-uniform: emits the first symbol's class, then
    // nothing, accepting only after an even-class symbol. `conf([0])` is
    // Pr(first and last symbols both even-class) — every layer counts.
    let alphabet = m.alphabet_arc();
    let mut b = Transducer::builder(alphabet.clone(), alphabet);
    let start = b.add_state(false);
    let last_even = b.add_state(true);
    let last_odd = b.add_state(false);
    for s in 0..SYMBOLS {
        let (sym, class) = (SymbolId(s), SymbolId(s % 2));
        let target = if s % 2 == 0 { last_even } else { last_odd };
        b.add_transition(start, sym, target, &[class]).unwrap();
        b.add_transition(last_even, sym, target, &[]).unwrap();
        b.add_transition(last_odd, sym, target, &[]).unwrap();
    }
    let t = b.build().unwrap();
    assert_eq!(t.uniform_emission(), None);
    let o = [SymbolId(0)];
    let want = prepare(&t).bind(&m).unwrap().confidence(&o).unwrap();
    let got = prepare(&t)
        .bind_source(CyclicSource::new(&donor, N))
        .unwrap()
        .confidence(&o)
        .unwrap();
    assert!(0.0 < want && want < 1.0, "confidence {want} saturated");
    assert_eq!(got.to_bits(), want.to_bits(), "confidence: {got} vs {want}");
}
