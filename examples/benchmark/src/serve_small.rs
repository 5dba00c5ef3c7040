//! `serve-small`: many small self-contained requests against an in-process
//! `serve::Server`, closed loop, two callers.
//!
//! Requests are small (n = 16, |Σ| = 6, 3–4 state machines), so the wire,
//! decode, parse, plan-cache misses and the pool dominate and the kernel
//! does little. Machines are drawn Zipf(1.1) from 48, more than the
//! server's 16-plan cache holds, so the cache both hits and evicts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::RngExt;
use transmark::engine::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark::engine::{textio, Evaluation, SymbolId, Transducer};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::{binio, MarkovSequence};
use transmark::obs::{ExecutionProfile, Histogram, HistogramSnapshot, Recorder};
use transmark::serve::client::{Client, Sequence, WireAnswer};
use transmark::serve::{ServeConfig, Server};
use transmark::Engine;

use crate::harness::{
    self, closed_loop, metric, span, span_durations, span_mean_ns, span_total_ns, Checks, Config,
    Outcome, TraceMode, Window,
};

pub const NAME: &str = "serve-small";

const MACHINES: usize = 48;
const CHAINS: usize = 16;
const ROTATION: usize = 4096;
const SIGMA: usize = 6;
const CHAIN_LEN: usize = 16;
const ZIPF_S: f64 = 1.1;
const CALLERS: usize = 2;
/// Requests each set-up issues before the timed window starts.
const WARMUP: usize = 256;
/// Requests replayed in-process after a traced window.
const REPLAY: usize = 512;
/// One traced request in this many carries a wire trace id.
const WIRE_TRACE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Confidence,
    TopK,
    Series,
}

#[derive(Debug, Clone, Copy)]
struct Request {
    machine: usize,
    chain: usize,
    kind: Kind,
    binary: bool,
}

/// A result reduced to bits, so served and in-process values compare
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Confidence(u64),
    TopK(Vec<(Vec<u32>, u64, u64)>),
    Series(Vec<u64>),
}

struct Inputs {
    queries: Vec<String>,
    /// Output asked for by confidence requests, per (machine, chain): the
    /// machine's top E_max answer on that chain.
    outputs: Vec<Vec<String>>,
    texts: Vec<String>,
    tmsbs: Vec<Vec<u8>>,
    rotation: Vec<Request>,
    expected: HashMap<(usize, usize, Kind, bool), Answer>,
}

impl Inputs {
    fn request(&self, i: usize) -> Request {
        self.rotation[i % ROTATION]
    }

    fn payload(&self, req: &Request) -> Sequence<'_> {
        if req.binary {
            Sequence::Binary(&self.tmsbs[req.chain])
        } else {
            Sequence::Text(&self.texts[req.chain])
        }
    }

    fn check(&self, req: &Request, got: &Answer) -> Result<(), String> {
        let key = (req.machine, req.chain, req.kind, req.binary);
        if self.expected.get(&key) == Some(got) {
            Ok(())
        } else {
            Err(format!(
                "served {:?} for machine {} chain {} (binary {}) differs from the in-process engine",
                req.kind, req.machine, req.chain, req.binary
            ))
        }
    }
}

/// The stratified machine set: rank `r` has class `r mod 3` and
/// `3 + (r / 3) mod 2` states, so every popularity level mixes classes
/// the same way under every seed; only the transitions are random. The
/// most popular rank, a quarter of all requests, is Mealy: a
/// Deterministic machine's emissions of 0–2 symbols make its `top_k(1)`
/// cost swing twofold with the seed, and at rank 0 that swing set a run's
/// throughput.
fn machine(rank: usize, rng: &mut rand::rngs::StdRng) -> Transducer {
    let class = match rank % 3 {
        0 => TransducerClass::Mealy,
        1 => TransducerClass::Uniform(1),
        _ => TransducerClass::Deterministic,
    };
    random_transducer(
        &RandomTransducerSpec {
            n_states: 3 + (rank / 3) % 2,
            n_input_symbols: SIGMA,
            n_output_symbols: 3,
            class,
            branching: 1.5,
        },
        rng,
    )
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn build(seed: u64) -> Result<Inputs, String> {
    let mut rng = harness::rng(seed, 1);
    let machines: Vec<Transducer> = (0..MACHINES).map(|r| machine(r, &mut rng)).collect();
    let chains: Vec<MarkovSequence> = (0..CHAINS)
        .map(|_| {
            random_markov_sequence(
                &RandomChainSpec {
                    len: CHAIN_LEN,
                    n_symbols: SIGMA,
                    zero_prob: 0.3,
                },
                &mut rng,
            )
        })
        .collect();
    let queries: Vec<String> = machines.iter().map(textio::to_text).collect();
    let texts: Vec<String> = chains
        .iter()
        .map(transmark::markov::textio::to_text)
        .collect();
    let tmsbs: Vec<Vec<u8>> = chains.iter().map(binio::to_tmsb_bytes).collect();

    let mut outputs = Vec::with_capacity(MACHINES);
    for t in &machines {
        let plan = transmark::engine::prepare(t);
        let mut row = Vec::with_capacity(CHAINS);
        for m in &chains {
            let top = plan
                .bind(m)
                .and_then(|b| b.top())
                .map_err(|e| e.to_string())?;
            let o = top.map(|r| r.output).unwrap_or_default();
            row.push(t.output_alphabet().render(&o, " "));
        }
        outputs.push(row);
    }

    // The exact mix (60% confidence, 30% top-k, 10% series; half of each
    // as `.tmsb`) in seeded order, machines Zipf-drawn. A top-1 costs ten
    // confidences here, so at 40% top-k the median op would sit on the
    // step between the two and read either side from run to run.
    let cdf = zipf_cdf(MACHINES, ZIPF_S);
    let mut rotation: Vec<Request> = (0..ROTATION)
        .map(|i| {
            let u: f64 = rng.random();
            Request {
                machine: cdf.partition_point(|&c| c < u).min(MACHINES - 1),
                chain: rng.random_range(0..CHAINS),
                kind: match i * 10 / ROTATION {
                    0..=5 => Kind::Confidence,
                    6..=8 => Kind::TopK,
                    _ => Kind::Series,
                },
                binary: i % 2 == 1,
            }
        })
        .collect();
    for i in (1..rotation.len()).rev() {
        rotation.swap(i, rng.random_range(0..=i));
    }

    let mut inputs = Inputs {
        queries,
        outputs,
        texts,
        tmsbs,
        rotation,
        expected: HashMap::new(),
    };
    // The oracle: each distinct request evaluated in-process on the bytes
    // the server receives, through the engine's prepare → bind → execute.
    let engine = Engine::new();
    for req in inputs.rotation.clone() {
        let key = (req.machine, req.chain, req.kind, req.binary);
        if inputs.expected.contains_key(&key) {
            continue;
        }
        let answer = evaluate(&engine, &inputs, &req, false)?;
        inputs.expected.insert(key, answer);
    }
    Ok(inputs)
}

/// Runs one request in-process the way the server does: sequence decode,
/// query parse, prepare, bind, execute. Each step is a benchmark span
/// when `traced`.
fn evaluate(engine: &Engine, inp: &Inputs, req: &Request, traced: bool) -> Result<Answer, String> {
    let _req = span(traced, "serve.replay");
    let m = if req.binary {
        let _s = span(traced, "dataplane.decode_tmsb");
        binio::from_tmsb_bytes(&inp.tmsbs[req.chain]).map_err(|e| e.to_string())?
    } else {
        let _s = span(traced, "dataplane.decode_text");
        transmark::markov::textio::from_text(&inp.texts[req.chain]).map_err(|e| e.to_string())?
    };
    let (t, o) = {
        let _s = span(traced, "planner.parse");
        let t = textio::from_text(&inp.queries[req.machine]).map_err(|e| e.to_string())?;
        let o: Vec<SymbolId> = match req.kind {
            Kind::Confidence => t
                .output_alphabet()
                .parse(&inp.outputs[req.machine][req.chain])
                .ok_or("confidence output is not in the query's output alphabet")?,
            _ => Vec::new(),
        };
        (t, o)
    };
    let err = |e: transmark::engine::EngineError| e.to_string();
    Ok(match req.kind {
        Kind::Series => {
            let event = {
                let _s = span(traced, "planner.prepare");
                engine.prepare_event(&t.underlying_nfa())
            };
            let _s = span(traced, "kernel.execute");
            Answer::Series(
                event
                    .series(&m)
                    .map_err(err)?
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            )
        }
        kind => {
            let plan = {
                let _s = span(traced, "planner.prepare");
                engine.prepare(&t)
            };
            let bound = {
                let _s = span(traced, "planner.bind");
                Evaluation::with_plan(&plan, &m).map_err(err)?
            };
            if kind == Kind::Confidence {
                let _s = span(traced, "kernel.execute");
                Answer::Confidence(bound.confidence(&o).map_err(err)?.to_bits())
            } else {
                let _s = span(traced, "enumerate.execute");
                let answers = bound.top_k_scored(1).map_err(err)?;
                Answer::TopK(
                    answers
                        .into_iter()
                        .map(|a| {
                            let out = a.output.iter().map(|s| s.0).collect();
                            (out, a.emax.to_bits(), a.confidence.to_bits())
                        })
                        .collect(),
                )
            }
        }
    })
}

fn wire_answers(answers: &[WireAnswer]) -> Answer {
    Answer::TopK(
        answers
            .iter()
            .map(|a| (a.output.clone(), a.emax.to_bits(), a.confidence.to_bits()))
            .collect(),
    )
}

/// Issues one request; returns the answer plus the server profile and
/// send time when the request was wire-traced.
fn issue(
    client: &mut Client,
    inp: &Inputs,
    req: &Request,
    profile: bool,
) -> Result<(Answer, Option<String>, Option<u64>), String> {
    let seq = inp.payload(req);
    let query = &inp.queries[req.machine];
    let err = |e: transmark::serve::protocol::WireError| e.to_string();
    Ok(match req.kind {
        Kind::Confidence => {
            let output = &inp.outputs[req.machine][req.chain];
            let r = client
                .confidence(query, &seq, output, profile)
                .map_err(err)?;
            (
                Answer::Confidence(r.value.to_bits()),
                r.profile,
                r.sent_at_ns,
            )
        }
        Kind::TopK => {
            let r = client.top_k(query, &seq, 1, profile).map_err(err)?;
            (wire_answers(&r.value), r.profile, r.sent_at_ns)
        }
        Kind::Series => {
            let r = client.series(query, &seq, profile).map_err(err)?;
            let bits = r.value.iter().map(|v| v.to_bits()).collect();
            (Answer::Series(bits), r.profile, r.sent_at_ns)
        }
    })
}

/// The program's set-up: start the server, HELLO on two connections, and
/// warm up with the first requests of the rotation.
fn start(inp: &Inputs, checks: &mut Checks) -> Result<(Server, Vec<Client>), String> {
    let server = Server::start(ServeConfig {
        threads: CALLERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut clients = (0..CALLERS)
        .map(|_| Client::connect(&addr, "bench").map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    for i in 0..WARMUP {
        let req = inp.request(i);
        let outcome = issue(&mut clients[i % CALLERS], inp, &req, false)
            .and_then(|(got, _, _)| inp.check(&req, &got));
        checks.record(outcome);
    }
    Ok((server, clients))
}

/// One closed-loop window continuing the rotation after the warm-up. When
/// traced, every request is a `serve.request` span and one in
/// [`WIRE_TRACE_EVERY`] carries a wire trace id; the server's profiles of
/// those come back in `remote` with their send times.
fn window(
    inp: &Inputs,
    clients: &mut [Client],
    first: u64,
    seconds: f64,
    rec: Option<&Arc<Recorder>>,
    remote: &Mutex<Vec<(String, u64)>>,
) -> Window {
    let traced = rec.is_some();
    closed_loop(clients, first, seconds, rec, |client, i| {
        let req = inp.request(WARMUP + i as usize);
        let wire_trace = traced && i % WIRE_TRACE_EVERY == 0;
        client.set_trace(if wire_trace { (i << 8) | 0x5e } else { 0 });
        let (got, profile, sent_at) = {
            let _s = span(traced, "serve.request");
            issue(client, inp, &req, wire_trace)?
        };
        if let (Some(p), Some(at)) = (profile, sent_at) {
            remote.lock().expect("no caller panicked").push((p, at));
        }
        inp.check(&req, &got)
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    let m = harness::segmented(
        cfg.seconds,
        || start(&inp, &mut checks),
        |(_, clients), first, seconds| {
            window(&inp, clients, first, seconds, None, &Mutex::default())
        },
    )?;
    let metrics = harness::end_to_end(&m, ROTATION as u64);
    checks.absorb(m.window.checks);
    Ok(Outcome {
        checks,
        metrics,
        profiles: None,
    })
}

/// p50 by the same log₂-bucket estimate the server's histograms use, so
/// client and server latencies subtract like for like.
fn histogram_p50_us(samples: &[u64]) -> f64 {
    let h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    let snap = HistogramSnapshot {
        count: h.count(),
        sum: h.sum(),
        max: h.max(),
        buckets: h.buckets(),
    };
    snap.quantile(0.5) as f64 / 1e3
}

/// The traced run: per-layer metrics of the serve, store, planner,
/// dataplane and kernel layers as this workload exercises them.
pub fn trace(cfg: &Config, mode: TraceMode) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    let (server, mut clients) = start(&inp, &mut checks)?;
    let remote = Mutex::default();
    let engine = server.engine();
    let (mut during, mut plans) = (None, None);
    let (w, mut profile, mut metrics) =
        harness::trace_phases(mode, cfg, ROTATION as u64, &mut checks, |rec, seconds| {
            let (before, plans0) = (engine.metrics(), engine.plan_stats());
            let w = window(&inp, &mut clients, 0, seconds, rec, &remote);
            if rec.is_some() {
                during = Some(engine.metrics().diff(&before));
                plans = Some((plans0, engine.plan_stats()));
            }
            w
        });
    let lifetime = engine.metrics();
    drop(clients);
    server.shutdown();
    let during = during.expect("the traced window ran");
    let (plans0, plans1) = plans.expect("the traced window ran");
    for (text, at) in remote.into_inner().expect("no caller panicked") {
        let server_side = ExecutionProfile::from_json(&text).map_err(|e| e.to_string())?;
        profile.merge_remote(&server_side, at, "server/");
    }

    // In-process replay and plan-cache probes, recorded apart from the
    // load so they do not count toward its layer self times.
    let rec = Arc::new(Recorder::new());
    rec.scope(|| -> Result<(), String> {
        let engine = Engine::new();
        for j in 0..REPLAY {
            let req = inp.request(WARMUP + j);
            checks
                .record(evaluate(&engine, &inp, &req, true).and_then(|got| inp.check(&req, &got)));
        }
        let cold = Engine::new();
        for q in &inp.queries {
            let t = textio::from_text(q).map_err(|e| e.to_string())?;
            {
                let _s = span(true, "planner.prepare_cold");
                cold.prepare(&t);
            }
            let _s = span(true, "planner.prepare_hot");
            cold.prepare(&t);
        }
        Ok(())
    })?;
    let extra = rec.finish();

    let server_p50 = during
        .histogram("serve.request_ns")
        .map_or(0.0, |h| h.quantile(0.5) as f64 / 1e3);
    let mut replay = span_durations(&extra, "serve.replay");
    replay.sort_unstable();
    let replay_p50 = crate::stats::percentile(&replay, 0.5).unwrap_or(0.0) / 1e3;
    let replayed: Vec<Request> = (0..REPLAY).map(|j| inp.request(WARMUP + j)).collect();
    let bytes = |binary: bool| -> f64 {
        replayed
            .iter()
            .filter(|r| r.binary == binary)
            .map(|r| {
                if binary {
                    inp.tmsbs[r.chain].len()
                } else {
                    inp.texts[r.chain].len()
                }
            })
            .sum::<usize>()
            .max(1) as f64
    };
    let executes: Vec<u64> = span_durations(&extra, "kernel.execute")
        .into_iter()
        .chain(span_durations(&extra, "enumerate.execute"))
        .collect();
    let (hits, misses) = (plans1.hits - plans0.hits, plans1.misses - plans0.misses);
    let rejected =
        during.counter("serve.rejected.quota") + during.counter("serve.rejected.admission");
    let queue_wait_p99 = lifetime
        .histogram("store.pool.queue_wait_ns")
        .map_or(0.0, |h| h.quantile(0.99) as f64 / 1e3);
    metrics.extend([
        metric("serve.server_p50_us", server_p50, "us"),
        metric(
            "serve.wire_us",
            histogram_p50_us(&w.latencies()) - server_p50,
            "us",
        ),
        metric("serve.replay_gap_us", server_p50 - replay_p50, "us"),
        metric("serve.rejected", rejected as f64, "count"),
        metric(
            "store.plan_cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        metric(
            "store.plan_cache.evictions",
            (plans1.evictions - plans0.evictions) as f64,
            "count",
        ),
        metric("store.pool.queue_wait_p99_us", queue_wait_p99, "us"),
        metric(
            "planner.parse_us",
            span_mean_ns(&extra, "planner.parse") / 1e3,
            "us",
        ),
        metric(
            "planner.prepare_cold_us",
            span_mean_ns(&extra, "planner.prepare_cold") / 1e3,
            "us",
        ),
        metric(
            "planner.prepare_hot_us",
            span_mean_ns(&extra, "planner.prepare_hot") / 1e3,
            "us",
        ),
        metric(
            "planner.bind_us",
            span_mean_ns(&extra, "planner.bind") / 1e3,
            "us",
        ),
        metric(
            "dataplane.text_ns_per_byte",
            span_total_ns(&extra, "dataplane.decode_text") / bytes(false),
            "ns/B",
        ),
        metric(
            "dataplane.tmsb_ns_per_byte",
            span_total_ns(&extra, "dataplane.decode_tmsb") / bytes(true),
            "ns/B",
        ),
        metric(
            "kernel.serve_execute_us",
            executes.iter().sum::<u64>() as f64 / executes.len().max(1) as f64 / 1e3,
            "us",
        ),
    ]);
    Ok(Outcome {
        checks,
        metrics,
        profiles: Some((profile, extra)),
    })
}
