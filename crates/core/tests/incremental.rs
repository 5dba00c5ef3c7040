//! Property suite for the incremental streaming state machines
//! (`transmark_core::incremental`): sliding windows against the
//! from-scratch oracle across plan routes and source formats,
//! checkpoint/resume bit-identity at every split point, and
//! truncation/corruption fuzz over the blob codec.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::incremental::{
    CheckpointKind, ConfidenceSession, EventSession, SlidingWindowQuery, StreamCheckpoint,
    StreamQuery, StreamSession, WindowSession,
};
use transmark_core::plan::{prepare, PreparedQuery};
use transmark_core::transducer::Transducer;
use transmark_core::PreparedEventQuery;
use transmark_core::SymbolId;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::numeric::approx_eq;
use transmark_markov::{MarkovSequence, SequenceSource};

/// The session a [`StreamQuery::Series`] opens.
fn event(s: StreamSession<'_>) -> EventSession {
    match s {
        StreamSession::Event(s) => s,
        _ => panic!("a series query opens an event session"),
    }
}

/// The session a [`StreamQuery::Confidence`] opens.
fn confidence(s: StreamSession<'_>) -> ConfidenceSession {
    match s {
        StreamSession::Confidence(s) => s,
        _ => panic!("a confidence query opens a confidence session"),
    }
}

/// The session a [`StreamQuery::Window`] opens.
fn window(s: StreamSession<'_>) -> WindowSession<'_> {
    match s {
        StreamSession::Window(s) => s,
        _ => panic!("a window query opens a window session"),
    }
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

/// The sequence's step matrices, materialized (the sessions take one
/// matrix per advance).
fn matrices(m: &MarkovSequence) -> Vec<Vec<f64>> {
    (0..m.len() - 1)
        .map(|i| m.transition_matrix(i).to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The two-stack window equals the from-scratch window
    /// recompute at every tick, for every window size, within the scan
    /// path's documented reassociation tolerance.
    #[test]
    fn window_matches_full_recompute(class in arb_class(), seed in any::<u64>(), n in 2usize..7) {
        let (t, m) = instance(class, seed, n);
        let marginals = m.marginals();
        for w in 1..=n {
            let q = SlidingWindowQuery::new(t.underlying_nfa(), w).unwrap();
            let series = q.series(&m).unwrap();
            prop_assert_eq!(series.len(), n);
            for (p, &got) in series.iter().enumerate() {
                // After p consumed steps the window covers positions
                // max(0, p+1-w)..=p; recompute it from the chain marginal
                // at the window start.
                let start = (p + 1).saturating_sub(w);
                let in_window: Vec<&[f64]> =
                    (start..p).map(|i| m.transition_matrix(i)).collect();
                let oracle = q.recompute(&marginals[start], &in_window);
                prop_assert!(
                    approx_eq(got, oracle, 1e-12, 1e-9),
                    "window {} at tick {}: incremental {} vs recompute {}",
                    w, p, got, oracle
                );
            }
        }
    }

    /// A window of the full stream length never evicts, so it must equal
    /// the plain prefix-acceptance series; and the series is identical
    /// whichever source format feeds it (memory, `.tms` text, `.tmsb`).
    #[test]
    fn window_series_is_source_independent(class in arb_class(), seed in any::<u64>(), n in 2usize..7) {
        let (t, m) = instance(class, seed, n);
        let nfa = t.underlying_nfa();
        for w in [1, 2, n] {
            let q = SlidingWindowQuery::new(nfa.clone(), w).unwrap();
            let from_seq = q.series(&m).unwrap();

            let mut mem = SequenceSource::new(&m);
            let from_mem = q.series_source(&mut mem).unwrap();

            let text = transmark_markov::textio::to_text(&m);
            let mut tms =
                transmark_markov::textio::TmsTextSource::new(text.as_bytes()).unwrap();
            let from_text = q.series_source(&mut tms).unwrap();

            let bytes = transmark_markov::binio::to_tmsb_bytes(&m);
            let mut tmsb =
                transmark_markov::binio::TmsbReader::new(std::io::Cursor::new(&bytes)).unwrap();
            let from_tmsb = q.series_source(&mut tmsb).unwrap();

            for (a, b) in from_seq.iter().zip(&from_mem) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in from_seq.iter().zip(&from_text) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in from_seq.iter().zip(&from_tmsb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Full-length window ≡ prefix acceptance (nothing ever evicted).
        let q = SlidingWindowQuery::new(nfa.clone(), n).unwrap();
        let windowed = q.series(&m).unwrap();
        let prefix = PreparedEventQuery::new(nfa.clone()).series(&m).unwrap();
        for (a, b) in windowed.iter().zip(&prefix) {
            prop_assert!(approx_eq(*a, *b, 1e-12, 1e-9));
        }
    }

    /// Suspending an [`EventSession`] at every step boundary and resuming
    /// (through the versioned blob) continues bit-identically to the
    /// uninterrupted fold.
    #[test]
    fn event_checkpoint_roundtrips_at_every_boundary(class in arb_class(), seed in any::<u64>(), n in 2usize..7) {
        let (t, m) = instance(class, seed, n);
        let query = StreamQuery::Series(t.underlying_nfa());
        let steps = matrices(&m);

        let mut full = event(query.start(m.initial_dist()).unwrap());
        let mut expected = vec![full.probability()];
        for s in &steps {
            expected.push(full.advance(s).unwrap());
        }

        for split in 0..=steps.len() {
            let mut sess = event(query.start(m.initial_dist()).unwrap());
            for s in &steps[..split] {
                sess.advance(s).unwrap();
            }
            let blob = sess.checkpoint();
            let header = StreamCheckpoint::inspect(&blob).unwrap();
            prop_assert_eq!(header.kind, CheckpointKind::Event);
            prop_assert_eq!(header.position, split as u64);

            let mut resumed = event(query.resume(&blob).unwrap());
            prop_assert_eq!(resumed.position(), split as u64);
            prop_assert_eq!(resumed.probability().to_bits(), expected[split].to_bits());
            for (i, s) in steps[split..].iter().enumerate() {
                let p = resumed.advance(s).unwrap();
                prop_assert_eq!(p.to_bits(), expected[split + 1 + i].to_bits());
            }
        }
    }

    /// [`ConfidenceSession`] checkpoint/resume is bit-identical on every
    /// plan route (the transducer classes drive every [`PlanKind`]), at
    /// every split point, for every answer of the query.
    #[test]
    fn confidence_checkpoint_roundtrips_on_every_route(class in arb_class(), seed in any::<u64>(), n in 2usize..6) {
        let (t, m) = instance(class, seed, n);
        let plan: Arc<PreparedQuery> = prepare(&t);
        let steps = matrices(&m);

        // The answers (plus one arbitrary probe output) this query can
        // produce on this sequence.
        let mut outputs: Vec<Vec<SymbolId>> = prepare(&t).bind(&m).unwrap().unranked()
            .unwrap()
            .take(3)
            .collect();
        outputs.push(vec![SymbolId(0); n]);

        for o in &outputs {
            let query = StreamQuery::Confidence { plan: Arc::clone(&plan), output: o.clone() };
            let mut full = confidence(query.start(m.initial_dist()).unwrap());
            for s in &steps {
                full.step(s).unwrap();
            }
            let expected = full.finish();

            for split in 0..=steps.len() {
                let mut sess = confidence(query.start(m.initial_dist()).unwrap());
                for s in &steps[..split] {
                    sess.step(s).unwrap();
                }
                let blob = sess.checkpoint();
                prop_assert_eq!(
                    StreamCheckpoint::inspect(&blob).unwrap().kind,
                    CheckpointKind::Confidence
                );
                let mut resumed = confidence(query.resume(&blob).unwrap());
                prop_assert_eq!(resumed.position(), split as u64);
                for s in &steps[split..] {
                    resumed.step(s).unwrap();
                }
                prop_assert_eq!(
                    resumed.finish().to_bits(),
                    expected.to_bits(),
                    "route {:?}, output {:?}, split {}",
                    plan.kind(), o, split
                );
            }
        }
    }

    /// [`WindowSession`] checkpoint/resume is bit-identical at every
    /// split, including splits where the ring is not yet full and splits
    /// where eviction has begun.
    #[test]
    fn window_checkpoint_roundtrips_at_every_boundary(class in arb_class(), seed in any::<u64>(), n in 2usize..7, w in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        let query = StreamQuery::Window(SlidingWindowQuery::new(t.underlying_nfa(), w).unwrap());
        let steps = matrices(&m);

        let mut full = window(query.start(m.initial_dist()).unwrap());
        let mut expected = vec![full.probability()];
        for s in &steps {
            expected.push(full.advance(s).unwrap());
        }

        for split in 0..=steps.len() {
            let mut sess = window(query.start(m.initial_dist()).unwrap());
            for s in &steps[..split] {
                sess.advance(s).unwrap();
            }
            let blob = sess.checkpoint();
            let header = StreamCheckpoint::inspect(&blob).unwrap();
            prop_assert_eq!(header.kind, CheckpointKind::Window);
            prop_assert_eq!(header.position, split as u64);

            let mut resumed = window(query.resume(&blob).unwrap());
            prop_assert_eq!(resumed.position(), split as u64);
            prop_assert_eq!(resumed.span(), sess.span());
            prop_assert_eq!(resumed.probability().to_bits(), expected[split].to_bits());
            for (i, s) in steps[split..].iter().enumerate() {
                let p = resumed.advance(s).unwrap();
                prop_assert_eq!(p.to_bits(), expected[split + 1 + i].to_bits());
            }
        }
    }

    /// Every truncation of a valid blob is refused with a typed error —
    /// never a panic, never a silently wrong session.
    #[test]
    fn truncated_checkpoints_are_refused(class in arb_class(), seed in any::<u64>(), n in 2usize..6) {
        let (t, m) = instance(class, seed, n);
        let nfa = t.underlying_nfa();
        let steps = matrices(&m);
        let mut sess = EventSession::start(nfa.clone(), m.initial_dist()).unwrap();
        for s in &steps {
            sess.advance(s).unwrap();
        }
        let blob = sess.checkpoint();
        for cut in 0..blob.len() {
            prop_assert!(EventSession::resume(nfa.clone(), &blob[..cut]).is_err());
        }

        let q = SlidingWindowQuery::new(nfa.clone(), 2).unwrap();
        let mut wsess = q.start(m.initial_dist()).unwrap();
        for s in &steps {
            wsess.advance(s).unwrap();
        }
        let wblob = wsess.checkpoint();
        for cut in 0..wblob.len() {
            prop_assert!(q.resume(&wblob[..cut]).is_err());
        }
    }

    /// Single-bit corruption anywhere in the blob never panics; flips in
    /// the header (magic / version / kind / fingerprint) are always
    /// refused with a typed error.
    #[test]
    fn corrupted_checkpoints_never_panic(class in arb_class(), seed in any::<u64>(), n in 2usize..6, byte in any::<usize>(), bit in 0usize..8) {
        let (t, m) = instance(class, seed, n);
        let nfa = t.underlying_nfa();
        let steps = matrices(&m);
        let mut sess = EventSession::start(nfa.clone(), m.initial_dist()).unwrap();
        for s in &steps {
            sess.advance(s).unwrap();
        }
        let mut blob = sess.checkpoint();
        let idx = byte % blob.len();
        blob[idx] ^= 1 << bit;
        // Must return (Ok for benign payload flips is fine) — the point
        // is it never panics and header damage is always detected.
        let result = EventSession::resume(nfa.clone(), &blob);
        if idx < 4 + 2 + 1 + 8 {
            prop_assert!(result.is_err(), "flip in header byte {} went undetected", idx);
        }
    }

    /// A blob resumed against the wrong session kind or the wrong query
    /// is refused (kind and fingerprint checks).
    #[test]
    fn cross_kind_and_cross_query_resume_is_refused(class in arb_class(), seed in any::<u64>(), n in 2usize..6) {
        let (t, m) = instance(class, seed, n);
        let (t2, _) = instance(class, seed.wrapping_add(0x9e37_79b9), n);
        let nfa = t.underlying_nfa();
        let sess = EventSession::start(nfa.clone(), m.initial_dist()).unwrap();
        let blob = sess.checkpoint();

        // Event blob into a window resume: kind mismatch.
        let q = SlidingWindowQuery::new(nfa.clone(), 2).unwrap();
        prop_assert!(q.resume(&blob).is_err());

        // Event blob into a confidence resume: kind mismatch.
        let plan = prepare(&t);
        prop_assert!(plan.resume_confidence(&[], &blob).is_err());

        // Event blob into a *different* query: fingerprint mismatch
        // (unless the two random machines collide structurally).
        if t2.underlying_nfa().fingerprint() != nfa.fingerprint() {
            prop_assert!(EventSession::resume(t2.underlying_nfa(), &blob).is_err());
        }

        // Every kind's blob through the front door of each kind: only its
        // own resumes it.
        let queries = [
            StreamQuery::Series(nfa.clone()),
            StreamQuery::Window(q),
            StreamQuery::Confidence { plan, output: Vec::new() },
        ];
        for (i, from) in queries.iter().enumerate() {
            let mut sess = from.start(m.initial_dist()).unwrap();
            for s in &matrices(&m) {
                sess.advance(s).unwrap();
            }
            let blob = sess.checkpoint();
            for (j, into) in queries.iter().enumerate() {
                prop_assert_eq!(into.resume(&blob).is_ok(), i == j, "blob of kind {} into kind {}", i, j);
            }
        }
    }
}
