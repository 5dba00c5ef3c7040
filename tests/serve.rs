//! Loopback integration tests for `tmk serve`: results served over the
//! `tmkp` protocol must be **bit-identical** to the in-process
//! [`Engine`](transmark::Engine) path for every `PlanKind` — including
//! streamed `.tmsb` sessions fed chunk by chunk — and the wire must
//! answer version mismatches, quota exhaustion, and malformed traffic
//! with typed errors instead of hangs or garbage.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use transmark::engine::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark::engine::transducer::Transducer;
use transmark::markov::binio::{to_tmsb_bytes, TmsbReader};
use transmark::markov::codec::{ByteReader, ByteWriter};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::MarkovSequence;
use transmark::serve::client::{Client, Sequence, StreamCheckpoint, StreamOptions};
use transmark::serve::protocol::{
    parse_error, read_frame, write_frame, WireError, ERR_BAD_CHECKPOINT, ERR_BAD_FRAME, ERR_QUERY,
    ERR_QUOTA, ERR_VERSION, FLAG_TRACE, KIND_SERIES, MAX_FRAME, OP_CHECKPOINT, OP_ERROR, OP_HELLO,
    OP_HELLO_OK, OP_QUERY, OP_RESULT, OP_STREAM_ACK, OP_STREAM_BEGIN, OP_STREAM_CHECKPOINT,
    OP_STREAM_DATA, OP_STREAM_END, WIRE_MAGIC, WIRE_VERSION,
};
use transmark::serve::{ServeConfig, Server};
use transmark::Engine;

/// One server shared by every test in this binary (tests that need
/// special quotas or a private lifetime start their own). Never shut
/// down: it lives until process exit, like a real service.
fn shared_server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::start(ServeConfig {
            threads: 4,
            ..ServeConfig::default()
        })
        .expect("bind an ephemeral loopback port")
    })
}

fn addr() -> String {
    shared_server().local_addr().to_string()
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

/// Renders an output (symbol ids) as the space-separated names the wire
/// protocol uses.
fn output_names(t: &Transducer, o: &[transmark::automata::SymbolId]) -> String {
    o.iter()
        .map(|&s| t.output_alphabet().name(s).to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every transducer class — so every `PlanKind` route — served over
    /// loopback in both sequence formats, compared bitwise against a
    /// local in-process engine, including a chunked stream session.
    #[test]
    fn served_results_are_bit_identical(class in arb_class(), seed in any::<u64>(), n in 1usize..5) {
        let (t, m) = instance(class, seed, n);
        let query_text = transmark::engine::textio::to_text(&t);
        let seq_text = transmark::markov::textio::to_text(&m);
        let tmsb = to_tmsb_bytes(&m);

        let local = Engine::new();
        let plan = local.prepare(&t);
        let answers = plan.bind(&m)
            .and_then(|b| b.top_k_scored(5))
            .expect("local top-k");

        let mut client = Client::connect(&addr(), "prop").expect("connect");

        // Top-k: same answers in the same order, scores bit-for-bit,
        // from both the text and the binary sequence encoding.
        for seq in [Sequence::Text(&seq_text), Sequence::Binary(&tmsb)] {
            let served = client.top_k(&query_text, &seq, 5, false).expect("served top-k");
            prop_assert_eq!(served.value.len(), answers.len());
            for (w, a) in served.value.iter().zip(answers.iter()) {
                let ids: Vec<u32> = a.output.iter().map(|s| s.0).collect();
                prop_assert_eq!(&w.output, &ids);
                prop_assert_eq!(w.emax.to_bits(), a.emax.to_bits());
                prop_assert_eq!(w.confidence.to_bits(), a.confidence.to_bits());
            }
        }

        // Confidence of each answer, by name, bit-for-bit.
        let bound = plan.bind(&m).expect("local bind");
        for a in &answers {
            let names = output_names(&t, &a.output);
            let c_local = bound.confidence(&a.output).expect("local confidence");
            let served = client
                .confidence(&query_text, &Sequence::Binary(&tmsb), &names, false)
                .expect("served confidence");
            prop_assert_eq!(served.value.to_bits(), c_local.to_bits());
        }

        // The prefix acceptance series.
        let event = local.prepare_event(&t.underlying_nfa());
        let series_local = event.series(&m).expect("local series");
        let served = client
            .series(&query_text, &Sequence::Text(&seq_text), false)
            .expect("served series");
        prop_assert_eq!(served.value.len(), series_local.len());
        for (a, b) in served.value.iter().zip(series_local.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Streamed sessions: tiny chunks force many DATA/ACK rounds; the
        // reference is the local source-bound path over the same bytes.
        for chunk in [1usize, 13, tmsb.len().max(1)] {
            let mut local_src = TmsbReader::new(&tmsb[..]).expect("local reader");
            let series_src = event.series_source(&mut local_src).expect("local source series");
            let served = client
                .stream_series(&query_text, &tmsb, chunk)
                .expect("served stream series");
            prop_assert_eq!(served.value.len(), series_src.len());
            for (a, b) in served.value.iter().zip(series_src.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        if let Some(a) = answers.first() {
            let names = output_names(&t, &a.output);
            let c_local = plan
                .bind_source(TmsbReader::new(&tmsb[..]).expect("local reader"))
                .and_then(|mut b| b.confidence(&a.output))
                .expect("local source confidence");
            let served = client
                .stream_confidence(&query_text, &names, &tmsb, 7)
                .expect("served stream confidence");
            prop_assert_eq!(served.value.to_bits(), c_local.to_bits());
        }
    }
}

/// Checkpoints taken at every chunk boundary of a streamed session can
/// each seed a fresh session (new connection, resliced data) whose final
/// result is bit-identical to the uninterrupted run — for series,
/// confidence, and sliding-window kinds.
#[test]
fn stream_checkpoints_resume_bit_identically() {
    let (t, m) = instance(TransducerClass::Deterministic, 0xC0FFEE, 5);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);

    let local = Engine::new();
    let event = local.prepare_event(&t.underlying_nfa());
    let mut local_src = TmsbReader::new(&tmsb[..]).expect("local reader");
    let series_ref = event
        .series_source(&mut local_src)
        .expect("local source series");

    // Tiny chunks + checkpoint-every-2 scatter checkpoints across the
    // prelude (empty blob), layer boundaries, and mid-layer offsets.
    let mut cks: Vec<StreamCheckpoint> = Vec::new();
    let mut client = Client::connect(&addr(), "ckpt").expect("connect");
    let mut grab = |ck: &StreamCheckpoint| cks.push(ck.clone());
    let served = client
        .stream_series_with(
            &query_text,
            &tmsb,
            3,
            StreamOptions {
                checkpoint_every: Some(2),
                on_checkpoint: Some(&mut grab),
                resume: None,
            },
        )
        .expect("checkpointed stream series");
    assert_eq!(served.value.len(), series_ref.len());
    for (a, b) in served.value.iter().zip(series_ref.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(
        cks.iter().any(|ck| ck.position > 0),
        "at least one checkpoint should capture real progress"
    );
    assert!(
        cks.iter().any(|ck| ck.is_empty()),
        "chunk=3 should catch the session still inside the prelude"
    );

    for ck in &cks {
        let roundtrip = StreamCheckpoint::from_bytes(&ck.to_bytes()).expect("roundtrip");
        assert_eq!(&roundtrip, ck);
        let mut fresh = Client::connect(&addr(), "ckpt").expect("reconnect");
        let resumed = fresh
            .stream_series_with(
                &query_text,
                &tmsb,
                7,
                StreamOptions {
                    resume: Some(ck),
                    ..StreamOptions::default()
                },
            )
            .expect("resumed stream series");
        assert_eq!(resumed.value.len(), series_ref.len(), "at {}", ck.position);
        for (a, b) in resumed.value.iter().zip(series_ref.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed at {}", ck.position);
        }
    }

    // Confidence: same drill against the local source-bound value.
    let plan = local.prepare(&t);
    let answers = plan
        .bind(&m)
        .and_then(|b| b.top_k_scored(1))
        .expect("local top-k");
    if let Some(a) = answers.first() {
        let names = output_names(&t, &a.output);
        let c_ref = plan
            .bind_source(TmsbReader::new(&tmsb[..]).expect("local reader"))
            .and_then(|mut b| b.confidence(&a.output))
            .expect("local source confidence");
        let mut cks: Vec<StreamCheckpoint> = Vec::new();
        let mut grab = |ck: &StreamCheckpoint| cks.push(ck.clone());
        let served = client
            .stream_confidence_with(
                &query_text,
                &names,
                &tmsb,
                5,
                StreamOptions {
                    checkpoint_every: Some(1),
                    on_checkpoint: Some(&mut grab),
                    resume: None,
                },
            )
            .expect("checkpointed stream confidence");
        assert_eq!(served.value.to_bits(), c_ref.to_bits());
        for ck in &cks {
            let resumed = client
                .stream_confidence_with(
                    &query_text,
                    &names,
                    &tmsb,
                    9,
                    StreamOptions {
                        resume: Some(ck),
                        ..StreamOptions::default()
                    },
                )
                .expect("resumed stream confidence");
            assert_eq!(
                resumed.value.to_bits(),
                c_ref.to_bits(),
                "resumed at {}",
                ck.position
            );
        }
    }
}

/// A streamed sliding-window session matches the local
/// `SlidingWindowQuery` series bitwise, and its checkpoints resume
/// bit-identically too.
#[test]
fn stream_window_matches_local_and_resumes() {
    use transmark::engine::incremental::SlidingWindowQuery;

    let (t, m) = instance(TransducerClass::Mealy, 0xBEEF, 6);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);

    for window in [1u32, 2, 4] {
        let wq = SlidingWindowQuery::new(t.underlying_nfa(), window as usize)
            .expect("window query for a small machine");
        let series_ref = wq.series(&m).expect("local window series");

        let mut cks: Vec<StreamCheckpoint> = Vec::new();
        let mut grab = |ck: &StreamCheckpoint| cks.push(ck.clone());
        let mut client = Client::connect(&addr(), "window").expect("connect");
        let served = client
            .stream_window(
                &query_text,
                &tmsb,
                window,
                4,
                StreamOptions {
                    checkpoint_every: Some(3),
                    on_checkpoint: Some(&mut grab),
                    resume: None,
                },
            )
            .expect("streamed window series");
        assert_eq!(served.value.len(), series_ref.len());
        for (a, b) in served.value.iter().zip(series_ref.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "window {window}");
        }

        for ck in &cks {
            let resumed = client
                .stream_window(
                    &query_text,
                    &tmsb,
                    window,
                    11,
                    StreamOptions {
                        resume: Some(ck),
                        ..StreamOptions::default()
                    },
                )
                .expect("resumed window series");
            assert_eq!(resumed.value.len(), series_ref.len());
            for (a, b) in resumed.value.iter().zip(series_ref.iter()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "window {window} resumed at {}",
                    ck.position
                );
            }
        }
    }
}

/// A session that dies mid-stream (after pocketing a checkpoint) can be
/// continued on a brand-new connection — the disconnect costs nothing
/// but the un-checkpointed suffix, which the resume re-sends.
#[test]
fn disconnected_stream_resumes_on_a_new_connection() {
    let (t, m) = instance(TransducerClass::General, 0xDEAD, 5);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);

    let local = Engine::new();
    let event = local.prepare_event(&t.underlying_nfa());
    let mut local_src = TmsbReader::new(&tmsb[..]).expect("local reader");
    let series_ref = event
        .series_source(&mut local_src)
        .expect("local source series");

    // Where does the second layer start? Everything before it plus a few
    // bytes goes over the wire before the "crash".
    let prelude = transmark::markov::binio::read_prelude(&mut &tmsb[..]).expect("local prelude");
    let cut = (prelude.layer_offset(1) as usize + 5).min(tmsb.len());

    // Raw session: HELLO, BEGIN, one DATA burst, checkpoint, vanish.
    let mut s = TcpStream::connect(addr()).expect("connect");
    let hello = ByteWriter::new()
        .raw(&WIRE_MAGIC)
        .u32(WIRE_VERSION)
        .str("flaky")
        .finish();
    write_frame(&mut s, OP_HELLO, &hello).expect("hello");
    let frame = read_frame(&mut s).expect("hello reply").expect("frame");
    assert_eq!(frame.op, OP_HELLO_OK);
    let begin = ByteWriter::new()
        .u8(3) // KIND_SERIES
        .u8(0)
        .str(&query_text)
        .str("")
        .finish();
    write_frame(&mut s, OP_STREAM_BEGIN, &begin).expect("begin");
    let frame = read_frame(&mut s).expect("first ack").expect("frame");
    assert_eq!(frame.op, OP_STREAM_ACK);
    write_frame(&mut s, OP_STREAM_DATA, &tmsb[..cut]).expect("data");
    let frame = read_frame(&mut s).expect("second ack").expect("frame");
    assert_eq!(frame.op, OP_STREAM_ACK);
    write_frame(&mut s, OP_STREAM_CHECKPOINT, &[]).expect("checkpoint request");
    let frame = read_frame(&mut s).expect("checkpoint").expect("frame");
    assert_eq!(frame.op, OP_CHECKPOINT);
    let mut r = ByteReader::new(&frame.payload);
    let position = r.u64("position").expect("position");
    let blob = r.bytes("blob").expect("blob").to_vec();
    assert_eq!(position, 1, "one full layer made it over before the cut");
    assert!(!blob.is_empty());
    drop(s); // the "disconnect": no END, no result

    let ck = StreamCheckpoint { position, blob };
    let mut fresh = Client::connect(&addr(), "flaky").expect("reconnect");
    let resumed = fresh
        .stream_series_with(
            &query_text,
            &tmsb,
            6,
            StreamOptions {
                resume: Some(&ck),
                ..StreamOptions::default()
            },
        )
        .expect("resumed after disconnect");
    assert_eq!(resumed.value.len(), series_ref.len());
    for (a, b) in resumed.value.iter().zip(series_ref.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Corrupted or mismatched resume blobs are refused with a typed
/// ERR_BAD_CHECKPOINT — never a panic, never a wrong answer — and the
/// connection stays usable.
#[test]
fn bad_resume_blobs_are_typed_errors() {
    let (t, m) = instance(TransducerClass::Deterministic, 0xFACE, 4);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);

    // Harvest one real mid-stream checkpoint to corrupt.
    let mut cks: Vec<StreamCheckpoint> = Vec::new();
    let mut grab = |ck: &StreamCheckpoint| {
        if !ck.is_empty() {
            cks.push(ck.clone());
        }
    };
    let mut client = Client::connect(&addr(), "fuzz").expect("connect");
    client
        .stream_series_with(
            &query_text,
            &tmsb,
            4,
            StreamOptions {
                checkpoint_every: Some(1),
                on_checkpoint: Some(&mut grab),
                resume: None,
            },
        )
        .expect("seed stream");
    let ck = cks.pop().expect("a non-empty checkpoint");

    let expect_bad = |client: &mut Client, ck: &StreamCheckpoint| match client.stream_series_with(
        &query_text,
        &tmsb,
        8,
        StreamOptions {
            resume: Some(ck),
            ..StreamOptions::default()
        },
    ) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_BAD_CHECKPOINT),
        other => panic!("expected a checkpoint error, got {other:?}"),
    };

    // Truncations at every envelope region: always the typed
    // checkpoint error.
    for cut in [1usize, 5, 13, ck.blob.len().saturating_sub(3)] {
        let mut bad = ck.clone();
        bad.blob.truncate(cut.min(bad.blob.len()));
        if bad.blob.is_empty() {
            continue; // empty = legitimate "start over"
        }
        expect_bad(&mut client, &bad);
    }
    // Bit flips: corrupted dims may only surface once the resliced data
    // collides with them (a stride/truncation error), so any typed
    // remote error is acceptable — but never a hang, panic, or success.
    for i in [0usize, 1, 9, 17] {
        let mut bad = ck.clone();
        if i < bad.blob.len() {
            bad.blob[i] ^= 0xA5;
            match client.stream_series_with(
                &query_text,
                &tmsb,
                8,
                StreamOptions {
                    resume: Some(&bad),
                    ..StreamOptions::default()
                },
            ) {
                Err(WireError::Remote { .. }) => {}
                other => panic!("expected a typed remote error for flip at {i}, got {other:?}"),
            }
        }
    }

    // A series checkpoint presented to a confidence session: the kind
    // tag in the envelope catches it.
    let local = Engine::new();
    let plan = local.prepare(&t);
    let answers = plan
        .bind(&m)
        .and_then(|b| b.top_k_scored(1))
        .expect("local top-k");
    if let Some(a) = answers.first() {
        let names = output_names(&t, &a.output);
        match client.stream_confidence_with(
            &query_text,
            &names,
            &tmsb,
            8,
            StreamOptions {
                resume: Some(&ck),
                ..StreamOptions::default()
            },
        ) {
            Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_BAD_CHECKPOINT),
            other => panic!("expected a kind-mismatch checkpoint error, got {other:?}"),
        }
    }

    // The typed errors left the connection frame-aligned.
    client
        .stream_series(&query_text, &tmsb, 16)
        .expect("connection survives checkpoint fuzzing");
}

/// The same query text from two fresh connections hits the server's
/// process-lifetime plan cache the second time.
#[test]
fn plan_cache_is_shared_across_connections() {
    let server = shared_server();
    let (t, m) = instance(TransducerClass::Deterministic, 0xCAFE, 3);
    let query_text = transmark::engine::textio::to_text(&t);
    let seq_text = transmark::markov::textio::to_text(&m);

    let before = server.engine().plan_stats();
    for _ in 0..2 {
        let mut client = Client::connect(&addr(), "cache").expect("connect");
        client
            .top_k(&query_text, &Sequence::Text(&seq_text), 3, false)
            .expect("served top-k");
    }
    let after = server.engine().plan_stats();
    assert!(
        after.hits > before.hits,
        "second connection should hit the shared plan cache: {before:?} -> {after:?}"
    );
}

/// A HELLO with an unknown protocol version gets a typed ERR_VERSION
/// naming the spoken version — not a hang, not a close.
#[test]
fn tmkp_version_mismatch_is_typed() {
    let mut s = TcpStream::connect(addr()).expect("connect");
    let hello = ByteWriter::new()
        .raw(&WIRE_MAGIC)
        .u32(WIRE_VERSION + 41)
        .str("time-traveller")
        .finish();
    write_frame(&mut s, OP_HELLO, &hello).expect("send hello");
    let frame = read_frame(&mut s)
        .expect("read reply")
        .expect("a reply frame");
    assert_eq!(frame.op, OP_ERROR);
    let (code, message) = transmark::serve::protocol::parse_error(&frame.payload);
    assert_eq!(code, ERR_VERSION);
    assert!(
        message.contains(&WIRE_VERSION.to_string()),
        "the error should name the supported version: {message}"
    );
}

/// Garbage magic is a typed bad-frame error.
#[test]
fn bad_magic_is_rejected() {
    let mut s = TcpStream::connect(addr()).expect("connect");
    let hello = ByteWriter::new()
        .raw(b"NOPE")
        .u32(WIRE_VERSION)
        .str("")
        .finish();
    write_frame(&mut s, OP_HELLO, &hello).expect("send hello");
    let frame = read_frame(&mut s)
        .expect("read reply")
        .expect("a reply frame");
    assert_eq!(frame.op, OP_ERROR);
    let (code, _) = transmark::serve::protocol::parse_error(&frame.payload);
    assert_eq!(code, ERR_BAD_FRAME);
}

/// A `.tmsb` payload stamped with a future format version is refused
/// with ERR_VERSION — through the self-contained query path and through
/// a stream session — and the connection stays usable afterwards.
#[test]
fn tmsb_version_mismatch_over_the_wire() {
    let (t, m) = instance(TransducerClass::Mealy, 7, 3);
    let query_text = transmark::engine::textio::to_text(&t);
    let mut tmsb = to_tmsb_bytes(&m);
    tmsb[4..8].copy_from_slice(&99u32.to_le_bytes());

    let mut client = Client::connect(&addr(), "future").expect("connect");
    match client.series(&query_text, &Sequence::Binary(&tmsb), false) {
        Err(WireError::Remote { code, message }) => {
            assert_eq!(code, ERR_VERSION);
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("expected a remote version error, got {other:?}"),
    }
    match client.stream_series(&query_text, &tmsb, 5) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_VERSION),
        other => panic!("expected a remote version error, got {other:?}"),
    }

    // The error left the connection frame-aligned: a good query works.
    let good = to_tmsb_bytes(&m);
    client
        .series(&query_text, &Sequence::Binary(&good), false)
        .expect("connection still usable after typed errors");
}

/// A `.tmsb` header claiming `k` symbols, length `n` and a names block
/// of `names_len` bytes.
fn tmsb_header(k: u32, n: u64, names_len: u64) -> Vec<u8> {
    let mut h = transmark::markov::binio::MAGIC.to_vec();
    h.extend_from_slice(&transmark::markov::binio::VERSION.to_le_bytes());
    h.extend_from_slice(&k.to_le_bytes());
    h.extend_from_slice(&0u32.to_le_bytes());
    h.extend_from_slice(&n.to_le_bytes());
    h.extend_from_slice(&names_len.to_le_bytes());
    h
}

/// Payloads whose size fields claim far more than they hold — a `.tmsb`
/// with |Σ| = u32::MAX, a stream prelude with a 1 TiB names block, a
/// stream prelude whose 2^16 names imply 32 GiB layers, a `.tms` with
/// 10^14 positions, a stream prelude claiming 10^14 positions ahead of
/// its two layers (for a series, a window and a confidence session) —
/// each get a typed ERR_QUERY instead of an allocation that would abort
/// the process, and a client on another connection is still served.
#[test]
fn hostile_size_fields_are_typed_errors() {
    let (t, m) = instance(TransducerClass::Mealy, 9, 3);
    let query_text = transmark::engine::textio::to_text(&t);
    let mut huge_k = tmsb_header(u32::MAX, 2, 8);
    huge_k.extend_from_slice(&[1, 0, 0, 0, b'0', 0, 0, 0]);
    let huge_names = tmsb_header(2, 2, 1 << 40);
    // 2^16 distinct 4-byte names, all initial mass on the first, then
    // 100 bytes of a layer that would span 8·2^32.
    let wide = 1usize << 16;
    let mut huge_stride = tmsb_header(wide as u32, 2, 8 * wide as u64);
    for i in 0..wide {
        huge_stride.extend_from_slice(&4u32.to_le_bytes());
        huge_stride.extend((0..4).map(|j| b'0' + ((i >> (6 * j)) & 63) as u8));
    }
    for i in 0..wide {
        huge_stride.extend_from_slice(&f64::from(u8::from(i == 0)).to_le_bytes());
    }
    huge_stride.extend_from_slice(&[0; 100]);
    let huge_n = "markov-sequence v1\nalphabet 0 1\nlength 100000000000000\ninitial 1 0\n";
    let mut long_stream = to_tmsb_bytes(&m);
    long_stream[16..24].copy_from_slice(&100_000_000_000_000u64.to_le_bytes());

    let expect_query_error = |r: Result<_, WireError>, what: &str| match r {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_QUERY, "{what}"),
        other => panic!("{what}: expected a remote query error, got {other:?}"),
    };
    let mut hostile = Client::connect(&addr(), "hostile").expect("connect");
    expect_query_error(
        hostile
            .series(&query_text, &Sequence::Binary(&huge_k), false)
            .map(|_| ()),
        "|Σ| = u32::MAX",
    );
    expect_query_error(
        hostile
            .stream_series(&query_text, &huge_names, 8)
            .map(|_| ()),
        "names_len = 2^40",
    );
    expect_query_error(
        hostile
            .stream_series(&query_text, &huge_stride, 1 << 16)
            .map(|_| ()),
        "8·|Σ|² = 2^35",
    );
    expect_query_error(
        hostile
            .series(&query_text, &Sequence::Text(huge_n), false)
            .map(|_| ()),
        "length 10^14",
    );
    expect_query_error(
        hostile
            .stream_series(&query_text, &long_stream, 8)
            .map(|_| ()),
        "streamed series, n = 10^14",
    );
    expect_query_error(
        hostile
            .stream_window(&query_text, &long_stream, 2, 8, StreamOptions::default())
            .map(|_| ()),
        "streamed window, n = 10^14",
    );
    expect_query_error(
        hostile
            .stream_confidence(&query_text, "", &long_stream, 8)
            .map(|_| ()),
        "streamed confidence, n = 10^14",
    );

    let mut healthy = Client::connect(&addr(), "healthy").expect("connect");
    healthy
        .series(&query_text, &Sequence::Binary(&to_tmsb_bytes(&m)), false)
        .expect("a healthy client is served after the hostile payloads");
}

/// A query text whose `states` line claims 4·10^9 states gets ERR_QUERY
/// inside a QUERY and a STREAM_BEGIN frame, before the server adds a
/// state, and a client on another connection is still served.
#[test]
fn query_states_the_text_cannot_back_are_query_errors() {
    let (t, m) = instance(TransducerClass::Mealy, 9, 3);
    let tmsb = to_tmsb_bytes(&m);
    let huge = transmark::workloads::hostile::HUGE_STATES_TMT;
    let expect_query_error = |r: Result<_, WireError>, what: &str| match r {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_QUERY, "{what}"),
        other => panic!("{what}: expected a remote query error, got {other:?}"),
    };
    let mut hostile = Client::connect(&addr(), "huge-states").expect("connect");
    expect_query_error(
        hostile
            .series(huge, &Sequence::Binary(&tmsb), false)
            .map(|_| ()),
        "QUERY",
    );
    expect_query_error(
        hostile.stream_series(huge, &tmsb, 8).map(|_| ()),
        "STREAM_BEGIN",
    );
    let mut healthy = Client::connect(&addr(), "healthy").expect("connect");
    healthy
        .series(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Binary(&tmsb),
            false,
        )
        .expect("a healthy client is served after the huge state count");
}

/// A window width sent in STREAM_BEGIN sizes nothing on the server: a
/// width of 2^32 − 1 over a 6-position stream returns the width-6 series
/// bit for bit, and a client on another connection is still served.
#[test]
fn wide_window_stream_reserves_nothing_the_stream_cannot_back() {
    use transmark::engine::incremental::SlidingWindowQuery;

    let (t, m) = instance(TransducerClass::Mealy, 0xBEEF, 6);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);
    let want = SlidingWindowQuery::new(t.underlying_nfa(), m.len())
        .and_then(|q| q.series(&m))
        .expect("local window series");
    let mut wide = Client::connect(&addr(), "wide-window").expect("connect");
    let served = wide
        .stream_window(&query_text, &tmsb, u32::MAX, 4, StreamOptions::default())
        .expect("a width of 2^32 - 1 is served");
    assert_eq!(served.value.len(), want.len());
    for (a, b) in served.value.iter().zip(&want) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let mut healthy = Client::connect(&addr(), "healthy").expect("connect");
    healthy
        .stream_series(&query_text, &tmsb, 16)
        .expect("a healthy client is served after the wide window");
}

/// A window checkpoint's operator counts size nothing on the server: a
/// real `w = 4` blob whose front list claims about 2^26 operators, with
/// as many bytes behind the claim, sent in one STREAM_BEGIN frame with
/// the resume flag, gets ERR_BAD_CHECKPOINT, and a client on another
/// connection is still served.
#[test]
fn window_resume_reserves_no_operators_the_blob_cannot_back() {
    let (t, m) = instance(TransducerClass::Mealy, 0xC0DE, 8);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);
    let mut cks: Vec<StreamCheckpoint> = Vec::new();
    let mut grab = |ck: &StreamCheckpoint| {
        if !ck.is_empty() {
            cks.push(ck.clone());
        }
    };
    let mut client = Client::connect(&addr(), "window-claim").expect("connect");
    let opts = StreamOptions {
        checkpoint_every: Some(1),
        on_checkpoint: Some(&mut grab),
        resume: None,
    };
    client
        .stream_window(&query_text, &tmsb, 4, 64, opts)
        .expect("seed window stream");
    let ck = cks.pop().expect("a non-empty checkpoint");

    // The envelope: kind, |Σ|, n, position, series, then the core blob.
    let mut r = ByteReader::new(&ck.blob);
    r.take(1 + 4 + 8 + 8, "dims").expect("dims");
    let series = r.count_u64(8, "series").expect("series");
    r.take(8 * series, "series").expect("series");
    let head = ck.blob.len() - r.remaining();
    let core = r.bytes("core").expect("core");
    // In the core blob: past its envelope, the marginal ring (|Σ| = 2),
    // then the front operator count.
    let n_marg = ByteReader::new(&core[23..]).u64("marginals").expect("ring") as usize;
    let at = 23 + 8 + n_marg * (8 + 8 * 2);
    let slack = 4096 + query_text.len() + ck.blob.len();
    let claim = (MAX_FRAME - slack) as u64;
    let mut bad_core = core[..at].to_vec();
    bad_core.extend(claim.to_le_bytes());
    bad_core.extend(&core[at + 8..]);
    bad_core.resize(bad_core.len() + claim as usize, 0);
    let bad = StreamCheckpoint {
        position: ck.position,
        blob: ByteWriter::new()
            .raw(&ck.blob[..head])
            .bytes(&bad_core)
            .finish(),
    };
    assert!(bad.blob.len() + query_text.len() + 64 <= MAX_FRAME);
    let opts = StreamOptions {
        resume: Some(&bad),
        ..StreamOptions::default()
    };
    match client.stream_window(&query_text, &tmsb, 4, 64, opts) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_BAD_CHECKPOINT),
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
    drop(bad);
    let mut healthy = Client::connect(&addr(), "healthy").expect("connect");
    healthy
        .stream_series(&query_text, &tmsb, 16)
        .expect("a healthy client is served after the window claim");
}

/// A top-k `k` sent in a QUERY sizes nothing on the server: `k` = 2^32 − 1
/// returns every answer, as a `k` past their count does, and a client
/// on another connection is still served.
#[test]
fn huge_top_k_query_reserves_nothing_the_answers_cannot_back() {
    let (t, m) = instance(TransducerClass::General, 0xF00D, 4);
    let query_text = transmark::engine::textio::to_text(&t);
    let tmsb = to_tmsb_bytes(&m);
    let seq = Sequence::Binary(&tmsb);
    let mut huge = Client::connect(&addr(), "huge-k").expect("connect");
    let all = huge
        .top_k(&query_text, &seq, u32::MAX, false)
        .expect("k = 2^32 - 1 is served")
        .value;
    let mut healthy = Client::connect(&addr(), "healthy").expect("connect");
    let many = healthy
        .top_k(&query_text, &seq, 4096, false)
        .expect("a healthy client is served after the huge k")
        .value;
    assert!(!all.is_empty() && all.len() < 4096);
    assert_eq!(all.len(), many.len());
    for (a, b) in all.iter().zip(&many) {
        assert_eq!(a.output, b.output);
        assert_eq!(a.emax.to_bits(), b.emax.to_bits());
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }
}

/// A peer that dies mid-frame neither wedges the server nor poisons
/// later connections.
#[test]
fn partial_frames_do_not_wedge_the_server() {
    // Half a length prefix, then gone.
    let mut s = TcpStream::connect(addr()).expect("connect");
    s.write_all(&[0x10, 0x00]).expect("write partial prefix");
    drop(s);

    // A length prefix promising more than the peer ever sends.
    let mut s = TcpStream::connect(addr()).expect("connect");
    s.write_all(&20u32.to_le_bytes()).expect("write prefix");
    s.write_all(&[OP_HELLO, 1, 2, 3])
        .expect("write partial body");
    drop(s);

    // The server is still answering.
    let (t, m) = instance(TransducerClass::General, 21, 2);
    let mut client = Client::connect(&addr(), "after").expect("connect");
    client
        .series(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Text(&transmark::markov::textio::to_text(&m)),
            false,
        )
        .expect("query after partial-frame peers");
}

/// With a quota of one in-flight query per tenant, a second query from
/// the same tenant is refused with ERR_QUOTA while a different tenant
/// still gets through.
#[test]
fn tenant_quota_is_enforced() {
    let server = Server::start(ServeConfig {
        threads: 3,
        tenant_quota: 1,
        ..ServeConfig::default()
    })
    .expect("start quota server");
    let addr = server.local_addr().to_string();

    let (t, m) = instance(TransducerClass::Deterministic, 11, 3);
    let query_text = transmark::engine::textio::to_text(&t);
    let seq_text = transmark::markov::textio::to_text(&m);
    let tmsb = to_tmsb_bytes(&m);

    // Session A (tenant "shared") opens a stream and stalls after the
    // first ack: its quota slot stays held while it dawdles.
    let mut a = TcpStream::connect(&addr).expect("connect A");
    let hello = ByteWriter::new()
        .raw(&WIRE_MAGIC)
        .u32(WIRE_VERSION)
        .str("shared")
        .finish();
    write_frame(&mut a, OP_HELLO, &hello).expect("hello A");
    let frame = read_frame(&mut a).expect("hello reply").expect("frame");
    assert_eq!(frame.op, OP_HELLO_OK);
    let begin = ByteWriter::new()
        .u8(3) // KIND_SERIES
        .u8(0)
        .str(&query_text)
        .str("")
        .finish();
    write_frame(&mut a, OP_STREAM_BEGIN, &begin).expect("begin A");
    let frame = read_frame(&mut a).expect("first ack").expect("frame");
    assert_eq!(frame.op, OP_STREAM_ACK);

    // Tenant "shared" is now at its quota; tenant "other" is not.
    let mut b = Client::connect(&addr, "shared").expect("connect B");
    match b.series(&query_text, &Sequence::Text(&seq_text), false) {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, ERR_QUOTA),
        other => panic!("expected a quota error, got {other:?}"),
    }
    let mut c = Client::connect(&addr, "other").expect("connect C");
    c.series(&query_text, &Sequence::Text(&seq_text), false)
        .expect("other tenant is under quota");

    // Session A completes: data, end, result — and releases the slot.
    write_frame(&mut a, OP_STREAM_DATA, &tmsb).expect("data A");
    loop {
        let frame = read_frame(&mut a).expect("session A reply").expect("frame");
        match frame.op {
            OP_STREAM_ACK => write_frame(&mut a, OP_STREAM_END, &[]).expect("end A"),
            OP_RESULT => break,
            other => panic!("unexpected opcode {other:#04x} in session A"),
        }
    }
    drop(a);
    let mut b2 = Client::connect(&addr, "shared").expect("reconnect B");
    b2.series(&query_text, &Sequence::Text(&seq_text), false)
        .expect("slot released after session A finished");

    server.shutdown();
}

/// Metrics are served over both transports: tmkp OP_METRICS (text and
/// JSON) and a plain HTTP/1.0 GET on the same port.
#[test]
fn metrics_over_tmkp_and_http() {
    let (t, m) = instance(TransducerClass::General, 5, 2);
    let mut client = Client::connect(&addr(), "metrics").expect("connect");
    client
        .series(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Text(&transmark::markov::textio::to_text(&m)),
            false,
        )
        .expect("seed one query");

    // The transport works regardless of instrumentation; the counter
    // names only appear when the obs layer is compiled in (not obs-off).
    let instrumented = transmark::obs::enabled();
    let text = client.metrics(false).expect("metrics text");
    let json = client.metrics(true).expect("metrics json");
    if instrumented {
        assert!(text.contains("serve.queries"), "{text}");
        assert!(json.trim_start().starts_with('{'), "{json}");
        assert!(json.contains("serve.queries"), "{json}");
    }

    let http = |path: &str| -> String {
        let mut s = TcpStream::connect(addr()).expect("connect http");
        write!(s, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
        s.flush().expect("flush");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    };
    let scrape = http("/metrics");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(scrape.contains("Content-Type: text/plain"), "{scrape}");
    assert!(scrape.contains("Content-Length: "), "{scrape}");
    if instrumented {
        assert!(scrape.contains("serve.connections"), "{scrape}");
    }
    let scrape = http("/metrics.json");
    assert!(scrape.contains("application/json"), "{scrape}");
    // The declared Content-Length matches the body exactly.
    let (head, body) = scrape.split_once("\r\n\r\n").expect("header split");
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric content-length");
    assert_eq!(declared, body.len(), "{scrape}");
    let scrape = http("/metrics.prom");
    assert!(scrape.starts_with("HTTP/1.1 200 OK"), "{scrape}");
    assert!(scrape.contains("version=0.0.4"), "{scrape}");
    if instrumented {
        assert!(
            scrape.contains("# TYPE serve_connections counter"),
            "{scrape}"
        );
    }
    let scrape = http("/nope");
    assert!(scrape.starts_with("HTTP/1.1 404"), "{scrape}");
}

/// OP_SHUTDOWN acks, then the whole server — accept loop and workers —
/// drains and joins.
#[test]
fn graceful_shutdown_via_client() {
    let server = Server::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("start private server");
    let addr = server.local_addr().to_string();

    let (t, m) = instance(TransducerClass::Uniform(1), 3, 2);
    let mut client = Client::connect(&addr, "bye").expect("connect");
    client
        .series(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Text(&transmark::markov::textio::to_text(&m)),
            false,
        )
        .expect("one query before shutdown");
    client.shutdown().expect("shutdown acked");

    // Joins the accept loop and drains the pool; must not hang.
    server.wait();
}

/// A v1 peer still negotiates: HELLO with version 1 is accepted,
/// HELLO_OK echoes the negotiated (minimum) version, and the v2-only
/// trace flag is rejected with a typed error before the rest of the
/// payload is touched.
#[test]
fn v1_peer_negotiates_and_trace_flag_is_rejected() {
    let mut s = TcpStream::connect(addr()).expect("connect raw");
    let mut hello = WIRE_MAGIC.to_vec();
    hello.extend_from_slice(&ByteWriter::new().u32(1).str("legacy").finish());
    write_frame(&mut s, OP_HELLO, &hello).expect("send v1 hello");
    let ok = read_frame(&mut s).expect("hello reply").expect("frame");
    assert_eq!(ok.op, OP_HELLO_OK);
    assert_eq!(ok.payload.as_slice(), &1u32.to_le_bytes());

    let query = ByteWriter::new()
        .u8(KIND_SERIES)
        .u8(FLAG_TRACE)
        .u64(0xdead_beef)
        .finish();
    write_frame(&mut s, OP_QUERY, &query).expect("send traced query");
    let reply = read_frame(&mut s).expect("reply").expect("frame");
    assert_eq!(reply.op, OP_ERROR);
    let (code, message) = parse_error(&reply.payload);
    assert_eq!(code, ERR_BAD_FRAME);
    assert!(message.contains("version"), "{message}");
}

/// A traced, profiled query returns the server timeline as JSON
/// carrying the client's trace id; merged into a local profile it
/// yields one Chrome trace with the shared id and prefixed server
/// lanes.
#[test]
fn trace_id_round_trips_into_server_profile() {
    let (t, m) = instance(TransducerClass::General, 11, 3);
    let query_text = transmark::engine::textio::to_text(&t);
    let seq_text = transmark::markov::textio::to_text(&m);

    let mut client = Client::connect(&addr(), "traced").expect("connect");
    assert_eq!(client.negotiated_version(), WIRE_VERSION);
    client.set_trace(0x00c0_ffee);
    let resp = client
        .confidence(&query_text, &Sequence::Text(&seq_text), "", true)
        .expect("traced confidence");
    let profile = resp.profile.expect("server profile present");
    if transmark::obs::enabled() {
        let remote =
            transmark::obs::ExecutionProfile::from_json(&profile).expect("traced profile is JSON");
        assert_eq!(remote.trace_id, 0x00c0_ffee);
        assert!(!remote.lanes.is_empty(), "server recorded no lanes");
        let mut local = transmark::obs::ExecutionProfile::default();
        local.merge_remote(&remote, 1_000, "server/");
        assert_eq!(local.trace_id, 0x00c0_ffee);
        let trace = transmark::obs::trace::chrome_trace(&local);
        assert!(trace.contains("tmk trace 0000000000c0ffee"), "{trace}");
        assert!(trace.contains("server/"), "{trace}");
    }
}

/// An untraced client is unchanged: the profile comes back as the
/// classic text rendering, not JSON.
#[test]
fn untraced_profile_stays_text() {
    let (t, m) = instance(TransducerClass::General, 12, 3);
    let mut client = Client::connect(&addr(), "plain").expect("connect");
    let resp = client
        .confidence(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Text(&transmark::markov::textio::to_text(&m)),
            "",
            true,
        )
        .expect("profiled confidence");
    let profile = resp.profile.expect("profile present");
    assert!(!profile.trim_start().starts_with('{'), "{profile}");
}

/// `slow_ms: 0` plus a file event-log sink: queries land in the log as
/// typed JSON-lines records, including a slow_query entry with phase
/// timings.
#[test]
fn slow_query_log_records_to_file() {
    let path = std::env::temp_dir().join(format!("tmk-events-{}.jsonl", std::process::id()));
    let server = Server::start(ServeConfig {
        threads: 1,
        slow_ms: Some(0),
        log: Some(path.display().to_string()),
        ..ServeConfig::default()
    })
    .expect("start logging server");
    let addr = server.local_addr().to_string();

    let (t, m) = instance(TransducerClass::General, 21, 3);
    let mut client = Client::connect(&addr, "sloth").expect("connect");
    client
        .confidence(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Text(&transmark::markov::textio::to_text(&m)),
            "",
            false,
        )
        .expect("query");
    client.shutdown().expect("shutdown");
    server.wait();

    let log = std::fs::read_to_string(&path).expect("log file written");
    let _ = std::fs::remove_file(&path);
    if transmark::obs::enabled() {
        assert!(log.contains("\"kind\":\"request_start\""), "{log}");
        assert!(log.contains("\"kind\":\"slow_query\""), "{log}");
        assert!(log.contains("\"tenant\":\"sloth\""), "{log}");
        // The slow record carries the flattened plan explain and the
        // per-phase timings.
        assert!(log.contains("kind=confidence | plan:"), "{log}");
        assert!(log.contains("phases:"), "{log}");
        assert!(
            log.lines().all(|l| l.trim_start().starts_with('{')),
            "{log}"
        );
    }
}

/// The `tmk top` dashboard drives a live server end to end: scrape
/// `/metrics.json`, diff, render.
#[test]
fn top_dashboard_renders_from_live_server() {
    let (t, m) = instance(TransducerClass::General, 31, 3);
    let mut client = Client::connect(&addr(), "dash").expect("connect");
    client
        .series(
            &transmark::engine::textio::to_text(&t),
            &Sequence::Text(&transmark::markov::textio::to_text(&m)),
            false,
        )
        .expect("seed traffic");
    let args: Vec<String> = ["top", &addr(), "--interval", "40", "--count", "1"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let out = transmark::cli::run(&args).expect("tmk top");
    assert!(out.contains("tmk top —"), "{out}");
    assert!(out.contains("plan cache hit"), "{out}");
    assert!(out.contains("pool queue depth"), "{out}");
}

/// The acceptance path: `tmk client --profile=FILE` against a live
/// server writes ONE Chrome trace — the client lane and the server's
/// lanes (prefixed `server/`) under a single wire-propagated trace id.
#[test]
fn client_profile_writes_one_stitched_chrome_trace() {
    if !transmark::obs::enabled() {
        return;
    }
    let (t, m) = instance(TransducerClass::General, 41, 3);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let query_path = dir.join(format!("tmk-trace-q-{pid}.tmt"));
    let seq_path = dir.join(format!("tmk-trace-s-{pid}.tms"));
    let trace_path = dir.join(format!("tmk-trace-{pid}.json"));
    std::fs::write(&query_path, transmark::engine::textio::to_text(&t)).expect("write query");
    std::fs::write(&seq_path, transmark::markov::textio::to_text(&m)).expect("write seq");

    let args: Vec<String> = [
        "client",
        &addr(),
        "top",
        query_path.to_str().unwrap(),
        seq_path.to_str().unwrap(),
        &format!("--profile={}", trace_path.display()),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = transmark::cli::run(&args).expect("tmk client --profile");
    assert!(out.contains("wrote "), "{out}");

    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    for p in [&query_path, &seq_path, &trace_path] {
        let _ = std::fs::remove_file(p);
    }
    // One process, named by the shared trace id.
    assert_eq!(trace.matches("tmk trace ").count(), 1, "{trace}");
    // The client lane and the server's merged lanes render as threads
    // of that one process.
    assert!(trace.contains(r#""name":"main""#), "{trace}");
    assert!(trace.contains(r#""name":"server/"#), "{trace}");
}
