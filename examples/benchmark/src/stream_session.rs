//! `stream-session`: long streamed `.tmsb` sessions against an in-process
//! `serve::Server`, closed loop, two callers.
//!
//! Each session streams a 2 MiB chain in 64 KiB chunks under stop-and-wait
//! acks, cycling a sliding window, a prefix series and a confidence. Every
//! 4th session asks for checkpoints as it goes and every 8th resumes from
//! a checkpoint taken during set-up, so the incremental layer's write-side
//! and resume paths run under load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use transmark::engine::incremental::ConfidenceSession;
use transmark::engine::{textio, EventSession, Nfa, SlidingWindowQuery, SymbolId, Transducer};
use transmark::markov::binio::{self, TmsbSlice};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::StepSource;
use transmark::obs::Recorder;
use transmark::serve::client::{Client, StreamCheckpoint, StreamOptions};
use transmark::serve::{ServeConfig, Server};
use transmark::Engine;

use crate::harness::{
    self, closed_loop, metric, span, span_mean_ns, span_total_ns, Checks, Config, Outcome,
    TraceMode,
};

pub const NAME: &str = "stream-session";

const CHAINS: usize = 4;
const LEN: usize = 1 << 14;
const SIGMA: usize = 4;
const CHUNK: usize = 64 << 10;
const WINDOW: u32 = 256;
const CALLERS: usize = 2;
/// Chunks between checkpoints on the sessions that take them.
const CHECKPOINT_EVERY: usize = 8;
/// The session schedule repeats every 24 sessions: every (kind, chain)
/// pair under every checkpoint/resume variant.
const PERIOD: u64 = 24;
/// Repetitions of each in-process checkpoint and resume measurement.
const CHECKPOINT_REPS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Window,
    Series,
    Confidence,
}

const KINDS: [Kind; 3] = [Kind::Window, Kind::Series, Kind::Confidence];

struct Inputs {
    /// "contains s1 s2" as a transducer: window and series run its NFA.
    pattern: String,
    /// A 3-state Mealy machine with a one-symbol output alphabet, so its
    /// single answer has confidence ≈ 1 and no result underflows.
    mealy: String,
    output: String,
    tmsbs: Vec<Vec<u8>>,
    expected: HashMap<(Kind, usize), Vec<u64>>,
}

fn pattern_transducer() -> Result<Transducer, String> {
    let input = Arc::new(transmark::engine::Alphabet::from_names(
        (0..SIGMA).map(|i| format!("s{i}")),
    ));
    let output = Arc::new(transmark::engine::Alphabet::from_names(["d0"]));
    let mut b = Transducer::builder(input, output);
    let (q0, q1, q2) = (b.add_state(false), b.add_state(false), b.add_state(true));
    let err = |e: transmark::engine::EngineError| e.to_string();
    for s in 0..SIGMA as u32 {
        b.add_transition(q0, SymbolId(s), q0, &[]).map_err(err)?;
        b.add_transition(q2, SymbolId(s), q2, &[]).map_err(err)?;
    }
    b.add_transition(q0, SymbolId(1), q1, &[]).map_err(err)?;
    b.add_transition(q1, SymbolId(2), q2, &[]).map_err(err)?;
    b.build().map_err(err)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn build(seed: u64) -> Result<Inputs, String> {
    use transmark::engine::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
    let mut rng = harness::rng(seed, 4);
    let pattern = textio::to_text(&pattern_transducer()?);
    let mealy_t = random_transducer(
        &RandomTransducerSpec {
            n_states: 3,
            n_input_symbols: SIGMA,
            n_output_symbols: 1,
            class: TransducerClass::Mealy,
            branching: 1.0,
        },
        &mut rng,
    );
    let mealy = textio::to_text(&mealy_t);
    let output = vec!["d0"; LEN].join(" ");
    let tmsbs: Vec<Vec<u8>> = (0..CHAINS)
        .map(|_| {
            binio::to_tmsb_bytes(&random_markov_sequence(
                &RandomChainSpec {
                    len: LEN,
                    n_symbols: SIGMA,
                    zero_prob: 0.0,
                },
                &mut rng,
            ))
        })
        .collect();

    // The oracle: each (kind, chain) evaluated in-process on the same bytes
    // and the same parsed queries the server sees.
    let err = |e: transmark::engine::EngineError| e.to_string();
    let nfa = textio::from_text(&pattern)
        .map_err(|e| e.to_string())?
        .underlying_nfa();
    let conf_t = textio::from_text(&mealy).map_err(|e| e.to_string())?;
    let o = conf_t
        .output_alphabet()
        .parse(&output)
        .ok_or("bad output")?;
    let plan = Engine::new().prepare(&conf_t);
    let wq = SlidingWindowQuery::new(nfa.clone(), WINDOW as usize).map_err(err)?;
    let slice = |c: usize| TmsbSlice::new(&tmsbs[c]).map_err(|e| e.to_string());
    let mut expected = HashMap::new();
    for c in 0..CHAINS {
        expected.insert(
            (Kind::Window, c),
            bits(&wq.series_source(&mut slice(c)?).map_err(err)?),
        );
        expected.insert(
            (Kind::Series, c),
            bits(&event_series(&nfa, &mut slice(c)?)?),
        );
        let conf = plan
            .bind_source(slice(c)?)
            .and_then(|mut b| b.confidence(&o))
            .map_err(err)?;
        expected.insert((Kind::Confidence, c), vec![conf.to_bits()]);
    }
    Ok(Inputs {
        pattern,
        mealy,
        output,
        tmsbs,
        expected,
    })
}

fn event_series(nfa: &Nfa, src: &mut TmsbSlice<'_>) -> Result<Vec<f64>, String> {
    let err = |e: transmark::engine::EngineError| e.to_string();
    let mut sess = EventSession::start(nfa.clone(), src.initial()).map_err(err)?;
    let mut out = vec![sess.probability()];
    while let Some(matrix) = src.next_step().map_err(|e| e.to_string())? {
        out.push(sess.advance(matrix).map_err(err)?);
    }
    Ok(out)
}

/// Streams one session; returns the result bits and the checkpoints the
/// server handed back.
fn session(
    client: &mut Client,
    inp: &Inputs,
    kind: Kind,
    chain: usize,
    checkpoint_every: Option<usize>,
    resume: Option<&StreamCheckpoint>,
) -> Result<(Vec<u64>, Vec<StreamCheckpoint>), String> {
    let mut taken = Vec::new();
    let mut keep = |ck: &StreamCheckpoint| taken.push(ck.clone());
    let opts = StreamOptions {
        checkpoint_every,
        on_checkpoint: Some(&mut keep),
        resume,
    };
    let tmsb = &inp.tmsbs[chain];
    let err = |e: transmark::serve::protocol::WireError| e.to_string();
    let got = match kind {
        Kind::Window => bits(
            &client
                .stream_window(&inp.pattern, tmsb, WINDOW, CHUNK, opts)
                .map_err(err)?
                .value,
        ),
        Kind::Series => bits(
            &client
                .stream_series_with(&inp.pattern, tmsb, CHUNK, opts)
                .map_err(err)?
                .value,
        ),
        Kind::Confidence => vec![client
            .stream_confidence_with(&inp.mealy, &inp.output, tmsb, CHUNK, opts)
            .map_err(err)?
            .value
            .to_bits()],
    };
    Ok((got, taken))
}

struct Ready {
    server: Server,
    clients: Vec<Client>,
    /// A mid-stream checkpoint per (kind, chain), taken during set-up.
    checkpoints: HashMap<(Kind, usize), StreamCheckpoint>,
}

/// The program's set-up: start the server, HELLO on two connections, and
/// stream every (kind, chain) once, keeping a checkpoint from halfway.
fn start(inp: &Inputs, checks: &mut Checks) -> Result<Ready, String> {
    let server = Server::start(ServeConfig {
        threads: CALLERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut clients = (0..CALLERS)
        .map(|_| Client::connect(&addr, "bench").map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let halfway = inp.tmsbs[0].len() / CHUNK / 2;
    let mut checkpoints = HashMap::new();
    for (n, (kind, chain)) in KINDS
        .iter()
        .flat_map(|&k| (0..CHAINS).map(move |c| (k, c)))
        .enumerate()
    {
        let (got, taken) = session(
            &mut clients[n % CALLERS],
            inp,
            kind,
            chain,
            Some(halfway),
            None,
        )?;
        checks.record(check(inp, kind, chain, &got));
        let ck = taken.into_iter().next().ok_or("no checkpoint came back")?;
        checkpoints.insert((kind, chain), ck);
    }
    Ok(Ready {
        server,
        clients,
        checkpoints,
    })
}

fn check(inp: &Inputs, kind: Kind, chain: usize, got: &[u64]) -> Result<(), String> {
    if inp.expected.get(&(kind, chain)).map(Vec::as_slice) == Some(got) {
        Ok(())
    } else {
        Err(format!(
            "streamed {kind:?} on chain {chain} differs from the in-process session"
        ))
    }
}

/// Session `i`: kind `i mod 3`; every 4th takes checkpoints, every 8th
/// resumes from set-up's checkpoint. Returns the bytes streamed.
fn op(
    client: &mut Client,
    inp: &Inputs,
    ready_checkpoints: &HashMap<(Kind, usize), StreamCheckpoint>,
    i: u64,
    traced: bool,
) -> Result<usize, String> {
    let kind = KINDS[(i % 3) as usize];
    let chain = (i / 3) as usize % CHAINS;
    let checkpoint_every = i.is_multiple_of(4).then_some(CHECKPOINT_EVERY);
    let resume = (i % 8 == 7).then(|| &ready_checkpoints[&(kind, chain)]);
    let (got, taken) = {
        let _s = span(traced, "serve.stream");
        session(client, inp, kind, chain, checkpoint_every, resume)?
    };
    if checkpoint_every.is_some() && taken.is_empty() {
        return Err("a checkpointing session got no checkpoint".to_string());
    }
    check(inp, kind, chain, &got)?;
    let tmsb = &inp.tmsbs[chain];
    Ok(match resume {
        Some(ck) => {
            let prelude = binio::read_prelude(&mut tmsb.as_slice()).map_err(|e| e.to_string())?;
            tmsb.len() - prelude.layer_offset(ck.position) as usize
        }
        None => tmsb.len(),
    })
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    let m = harness::segmented(
        cfg.seconds,
        || start(&inp, &mut checks),
        |Ready {
             clients,
             checkpoints,
             ..
         },
         first,
         seconds| {
            closed_loop(clients, first, seconds, None, |c, i| {
                op(c, &inp, checkpoints, i, false).map(drop)
            })
        },
    )?;
    let metrics = harness::end_to_end(&m, PERIOD);
    checks.absorb(m.window.checks);
    Ok(Outcome {
        checks,
        metrics,
        profiles: None,
    })
}

/// Per-layer metrics of the streamed serve path and the incremental layer.
pub fn trace(cfg: &Config, mode: TraceMode) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    let Ready {
        server,
        mut clients,
        checkpoints,
    } = start(&inp, &mut checks)?;
    let streamed = AtomicUsize::new(0);
    let (w, p, mut metrics) =
        harness::trace_phases(mode, cfg, PERIOD, &mut checks, |rec, seconds| {
            closed_loop(&mut clients, 0, seconds, rec, |c, i| {
                let bytes = op(c, &inp, &checkpoints, i, rec.is_some())?;
                if rec.is_some() {
                    streamed.fetch_add(bytes, Ordering::Relaxed);
                }
                Ok(())
            })
        });
    drop(clients);
    server.shutdown();
    let streamed = streamed.into_inner();

    let extra = Arc::new(Recorder::new());
    let blob_bytes = extra.scope(|| incremental_probes(&inp, &mut checks))?;
    let x = extra.finish();
    let ticks = (LEN - 1) as f64;
    metrics.extend([
        metric(
            "serve.stream_us_per_chunk",
            span_total_ns(&p, "serve.stream") / streamed.div_ceil(CHUNK).max(1) as f64 / 1e3,
            "us",
        ),
        metric(
            "serve.stream_mb_per_s",
            streamed as f64 / 1e6 / w.wall.as_secs_f64().max(1e-9),
            "MB/s",
        ),
        metric(
            "incremental.window_ns_per_tick",
            span_total_ns(&x, "incremental.window_advance") / ticks,
            "ns/tick",
        ),
        metric(
            "incremental.series_ns_per_tick",
            span_total_ns(&x, "incremental.series_advance") / ticks,
            "ns/tick",
        ),
        metric(
            "incremental.checkpoint_us",
            span_mean_ns(&x, "incremental.checkpoint") / 1e3,
            "us",
        ),
        metric("incremental.checkpoint_bytes", blob_bytes, "B"),
        metric(
            "incremental.resume_us",
            span_mean_ns(&x, "incremental.resume") / 1e3,
            "us",
        ),
    ]);
    Ok(Outcome {
        checks,
        metrics,
        profiles: Some((p, x)),
    })
}

/// The three session kinds, in-process on the first chain: advance every
/// tick, then checkpoint and resume the finished session repeatedly. A
/// resumed session must report the same probability bits. Returns the
/// mean checkpoint size in bytes.
fn incremental_probes(inp: &Inputs, checks: &mut Checks) -> Result<f64, String> {
    let err = |e: transmark::engine::EngineError| e.to_string();
    let m = binio::from_tmsb_bytes(&inp.tmsbs[0]).map_err(|e| e.to_string())?;
    let nfa = textio::from_text(&inp.pattern)
        .map_err(|e| e.to_string())?
        .underlying_nfa();
    let wq = SlidingWindowQuery::new(nfa.clone(), WINDOW as usize).map_err(err)?;
    let mut window = wq.start(m.initial_dist()).map_err(err)?;
    {
        let _s = span(true, "incremental.window_advance");
        for i in 0..LEN - 1 {
            window.advance(m.transition_matrix(i)).map_err(err)?;
        }
    }
    let mut event = EventSession::start(nfa.clone(), m.initial_dist()).map_err(err)?;
    {
        let _s = span(true, "incremental.series_advance");
        for i in 0..LEN - 1 {
            event.advance(m.transition_matrix(i)).map_err(err)?;
        }
    }
    let conf_t = textio::from_text(&inp.mealy).map_err(|e| e.to_string())?;
    let o = conf_t
        .output_alphabet()
        .parse(&inp.output)
        .ok_or("bad output")?;
    let plan = Engine::new().prepare(&conf_t);
    let mut conf: ConfidenceSession = plan.begin_confidence(m.initial_dist(), &o).map_err(err)?;
    for i in 0..LEN - 1 {
        conf.step(m.transition_matrix(i)).map_err(err)?;
    }
    let mut blob_bytes = 0;
    for _ in 0..CHECKPOINT_REPS {
        let blob = {
            let _s = span(true, "incremental.checkpoint");
            window.checkpoint()
        };
        blob_bytes += blob.len();
        let resumed = {
            let _s = span(true, "incremental.resume");
            wq.resume(&blob).map_err(err)?
        };
        checks.record(same(resumed.probability(), window.probability()));
        let blob = {
            let _s = span(true, "incremental.checkpoint");
            event.checkpoint()
        };
        blob_bytes += blob.len();
        let resumed = {
            let nfa = nfa.clone();
            let _s = span(true, "incremental.resume");
            EventSession::resume(nfa, &blob).map_err(err)?
        };
        checks.record(same(resumed.probability(), event.probability()));
        let blob = {
            let _s = span(true, "incremental.checkpoint");
            conf.checkpoint()
        };
        blob_bytes += blob.len();
        let resumed = {
            let _s = span(true, "incremental.resume");
            plan.resume_confidence(&o, &blob).map_err(err)?
        };
        checks.record(same(resumed.finish(), conf.finish()));
    }
    Ok(blob_bytes as f64 / (3 * CHECKPOINT_REPS) as f64)
}

fn same(a: f64, b: f64) -> Result<(), String> {
    if a.to_bits() == b.to_bits() {
        Ok(())
    } else {
        Err(format!("resumed session reads {a}, the original {b}"))
    }
}
