//! `long-chain`: one long chain analysed per op, in-process, one caller.
//!
//! The kernel and bind dominate. The two n = 2^14, |Σ| = 16 chains sit on
//! either side of the planner's dense/sparse threshold (density 1.0 runs
//! the dense kernel, density ≈ 0.3 the sparse CSR walk), and each is also
//! evaluated from its `.tmsb` bytes. A long prefix series and an 8-stream
//! windowed monitor complete the cycle.

use std::path::PathBuf;
use std::sync::Arc;

use transmark::engine::{
    EventSession, Nfa, PreparedEventQuery, PreparedQuery, SlidingWindowQuery, Strategy, SymbolId,
    Transducer,
};
use transmark::markov::binio::{self, TmsbSlice};
use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark::markov::MarkovSequence;
use transmark::obs::ExecutionProfile;
use transmark::store::{Monitor, MonitorConfig};
use transmark::Engine;

use crate::harness::{
    self, closed_loop, metric, same_bits, span, span_durations, span_mean_ns, span_total_ns,
    Checks, Config, Outcome, ScratchDir, TraceMode,
};
use crate::stats::lifted_edges;

pub const NAME: &str = "long-chain";

const LONG: usize = 1 << 14;
const SIGMA: usize = 16;
const SERIES_LEN: usize = 1 << 17;
const STREAMS: usize = 8;
const STREAM_LEN: usize = 1 << 12;
const STREAM_SIGMA: usize = 4;
const WINDOW: usize = 256;
const MONITOR_THREADS: usize = 2;
const OPS: u64 = 6;
/// Repetitions of the monitor and of the solo sessions in a traced run.
const SPLIT_REPS: usize = 3;

/// One of the two long chains, with what its ops are checked against.
struct Chain {
    m: MarkovSequence,
    tmsb: Vec<u8>,
    /// The most likely string: the identity tracker's top answer.
    best: Vec<SymbolId>,
    /// In-memory confidence of `best`, as bits.
    confidence: u64,
    nnz: Vec<u64>,
    /// Span names, per chain so the dense and sparse kernels split.
    conf_span: &'static str,
    top_span: &'static str,
    source_span: &'static str,
}

struct Inputs {
    tracker: Transducer,
    chains: [Chain; 2],
    series_m: MarkovSequence,
    pattern: Nfa,
    series_expected: Vec<f64>,
    stream_pattern: Nfa,
    files: Vec<PathBuf>,
    solo: Vec<Vec<f64>>,
    _dir: ScratchDir,
}

/// "contains `a` immediately followed by `b`", nondeterministically, so the
/// subset fold has real work.
fn contains(n_symbols: usize, a: u32, b: u32) -> Nfa {
    let mut nfa = Nfa::new(n_symbols);
    let q0 = nfa.add_state(false);
    let q1 = nfa.add_state(false);
    let q2 = nfa.add_state(true);
    for s in 0..n_symbols as u32 {
        nfa.add_transition(q0, SymbolId(s), q0);
        nfa.add_transition(q2, SymbolId(s), q2);
    }
    nfa.add_transition(q0, SymbolId(a), q1);
    nfa.add_transition(q1, SymbolId(b), q2);
    nfa
}

fn identity(m: &MarkovSequence) -> Result<Transducer, String> {
    let a = m.alphabet_arc();
    let mut b = Transducer::builder(Arc::clone(&a), a);
    let q = b.add_state(true);
    for s in 0..SIGMA as u32 {
        b.add_transition(q, SymbolId(s), q, &[SymbolId(s)])
            .map_err(|e| e.to_string())?;
    }
    b.build().map_err(|e| e.to_string())
}

fn nnz(m: &MarkovSequence) -> Vec<u64> {
    (0..m.len() - 1)
        .map(|i| m.transition_matrix(i).iter().filter(|&&p| p > 0.0).count() as u64)
        .collect()
}

fn build(seed: u64) -> Result<Inputs, String> {
    let mut rng = harness::rng(seed, 3);
    let chain = |zero_prob: f64, rng: &mut rand::rngs::StdRng| {
        random_markov_sequence(
            &RandomChainSpec {
                len: LONG,
                n_symbols: SIGMA,
                zero_prob,
            },
            rng,
        )
    };
    let (dense, sparse) = (chain(0.0, &mut rng), chain(0.7, &mut rng));
    let tracker = identity(&dense)?;
    let plan = transmark::engine::prepare(&tracker);
    let make = |m: MarkovSequence, spans: [&'static str; 3]| -> Result<Chain, String> {
        let best = m.most_likely_string().0;
        let confidence = plan
            .bind(&m)
            .and_then(|b| b.confidence(&best))
            .map_err(|e| e.to_string())?
            .to_bits();
        Ok(Chain {
            tmsb: binio::to_tmsb_bytes(&m),
            nnz: nnz(&m),
            best,
            confidence,
            m,
            conf_span: spans[0],
            top_span: spans[1],
            source_span: spans[2],
        })
    };
    let chains = [
        make(
            dense,
            [
                "kernel.confidence.dense",
                "kernel.top.dense",
                "kernel.confidence_source.dense",
            ],
        )?,
        make(
            sparse,
            [
                "kernel.confidence.sparse",
                "kernel.top.sparse",
                "kernel.confidence_source.sparse",
            ],
        )?,
    ];

    let series_m = random_markov_sequence(
        &RandomChainSpec {
            len: SERIES_LEN,
            n_symbols: 2,
            zero_prob: 0.0,
        },
        &mut rng,
    );
    let pattern = contains(2, 1, 0);
    // The series oracle: the checkpointable session folded by hand.
    let mut sess =
        EventSession::start(pattern.clone(), series_m.initial_dist()).map_err(|e| e.to_string())?;
    let mut series_expected = vec![sess.probability()];
    for i in 0..SERIES_LEN - 1 {
        series_expected.push(
            sess.advance(series_m.transition_matrix(i))
                .map_err(|e| e.to_string())?,
        );
    }

    let dir = ScratchDir::new(NAME)?;
    let stream_pattern = contains(STREAM_SIGMA, 1, 0);
    let wq = SlidingWindowQuery::new(stream_pattern.clone(), WINDOW).map_err(|e| e.to_string())?;
    let mut files = Vec::new();
    let mut solo = Vec::new();
    for s in 0..STREAMS {
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: STREAM_LEN,
                n_symbols: STREAM_SIGMA,
                zero_prob: 0.0,
            },
            &mut rng,
        );
        let bytes = binio::to_tmsb_bytes(&m);
        let path = dir.0.join(format!("stream-{s}.tmsb"));
        std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        let mut src = TmsbSlice::new(&bytes).map_err(|e| e.to_string())?;
        solo.push(wq.series_source(&mut src).map_err(|e| e.to_string())?);
        files.push(path);
    }
    Ok(Inputs {
        tracker,
        chains,
        series_m,
        pattern,
        series_expected,
        stream_pattern,
        files,
        solo,
        _dir: dir,
    })
}

struct Ready {
    plan: Arc<PreparedQuery>,
    event: Arc<PreparedEventQuery>,
    monitor: Monitor,
}

fn start(inp: &Inputs, checks: &mut Checks) -> Result<Ready, String> {
    let engine = Engine::new();
    let ready = Ready {
        plan: engine.prepare(&inp.tracker),
        event: engine.prepare_event(&inp.pattern),
        monitor: Monitor::new(
            inp.stream_pattern.clone(),
            MonitorConfig {
                window: Some(WINDOW),
                threads: MONITOR_THREADS,
                batch: 0,
            },
        ),
    };
    for i in 0..OPS {
        checks.record(op(inp, &ready, i, false, &mut Vec::new()));
    }
    Ok(ready)
}

/// Op `i`: its kind is `i mod 6`. In-memory binds record the strategy the
/// planner chose into `strategies`.
fn op(
    inp: &Inputs,
    r: &Ready,
    i: u64,
    traced: bool,
    strategies: &mut Vec<Strategy>,
) -> Result<(), String> {
    let err = |e: transmark::engine::EngineError| e.to_string();
    match i % OPS {
        k @ (0 | 1) => {
            let c = &inp.chains[k as usize];
            let bound = {
                let _s = span(traced, "planner.bind");
                r.plan.bind(&c.m).map_err(err)?
            };
            strategies.push(bound.strategy());
            let top = {
                let _s = span(traced, c.top_span);
                bound
                    .top()
                    .map_err(err)?
                    .ok_or("the identity tracker has no answer")?
            };
            let conf = {
                let _s = span(traced, c.conf_span);
                bound.confidence(&top.output).map_err(err)?
            };
            if top.output != c.best || conf.to_bits() != c.confidence {
                return Err(format!("chain {k}: top answer or its confidence changed"));
            }
            Ok(())
        }
        k @ (2 | 3) => {
            let c = &inp.chains[k as usize - 2];
            let src = {
                let _s = span(traced, "dataplane.open_tmsb");
                TmsbSlice::new(&c.tmsb).map_err(|e| e.to_string())?
            };
            let mut bound = {
                let _s = span(traced, "planner.bind_source");
                r.plan.bind_source(src).map_err(err)?
            };
            let conf = {
                let _s = span(traced, c.source_span);
                bound.confidence(&c.best).map_err(err)?
            };
            if conf.to_bits() != c.confidence {
                return Err(format!(
                    "chain {}: .tmsb confidence differs from in-memory",
                    k - 2
                ));
            }
            Ok(())
        }
        4 => {
            let series = {
                let _s = span(traced, "kernel.series");
                r.event.series(&inp.series_m).map_err(err)?
            };
            if !same_bits(&series, &inp.series_expected) {
                return Err("prefix series differs from the session fold".to_string());
            }
            Ok(())
        }
        _ => {
            let reports = {
                let _s = span(traced, "store.monitor");
                r.monitor.run_paths(&inp.files).map_err(|e| e.to_string())?
            };
            let same = reports.len() == inp.solo.len()
                && reports
                    .iter()
                    .zip(&inp.solo)
                    .all(|(rep, s)| same_bits(&rep.series, s));
            if !same {
                return Err("monitor reports differ from solo sessions".to_string());
            }
            Ok(())
        }
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    let m = harness::segmented(
        cfg.seconds,
        || start(&inp, &mut checks),
        |ready, first, seconds| {
            closed_loop(&mut [Vec::new()], first, seconds, None, |s, i| {
                op(&inp, ready, i, false, s)
            })
        },
    )?;
    let metrics = harness::end_to_end(&m, OPS);
    checks.absorb(m.window.checks);
    Ok(Outcome {
        checks,
        metrics,
        profiles: None,
    })
}

/// Per-layer metrics of the kernel, planner, dataplane and store.monitor
/// layers on long chains.
pub fn trace(cfg: &Config, mode: TraceMode) -> Result<Outcome, String> {
    let inp = build(cfg.seed)?;
    let mut checks = Checks::default();
    let ready = start(&inp, &mut checks)?;
    let mut strategies = Vec::new();
    let (_, p, mut metrics) = harness::trace_phases(mode, cfg, OPS, &mut checks, |rec, seconds| {
        let mut binds = [Vec::new()];
        let w = closed_loop(&mut binds, 0, seconds, rec, |s, i| {
            op(&inp, &ready, i, rec.is_some(), s)
        });
        if rec.is_some() {
            strategies = std::mem::take(&mut binds[0]);
        }
        w
    });

    // The monitor, and the same eight streams one after another, for its
    // parallel efficiency. Timed with no recorder installed: the window
    // sessions emit an instant per tick, and recording those would slow
    // the two monitor workers more than the single solo thread.
    let err = |e: transmark::store::StoreError| e.to_string();
    let monitor_ns = harness::unrecorded_mean_ns("store.monitor", || {
        for _ in 0..SPLIT_REPS {
            let _s = span(true, "store.monitor");
            ready.monitor.run_paths(&inp.files).map_err(err)?;
        }
        Ok(())
    })?;
    let solo_ns = harness::unrecorded_mean_ns("store.solo", || {
        for _ in 0..SPLIT_REPS {
            let _s = span(true, "store.solo");
            let wq = SlidingWindowQuery::new(inp.stream_pattern.clone(), WINDOW)
                .map_err(|e| e.to_string())?;
            for path in &inp.files {
                let mut src =
                    transmark::markov::fsio::open_step_source(path).map_err(|e| e.to_string())?;
                wq.series_source(&mut src).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })?;

    let layers = (LONG - 1) as f64;
    let edges: Vec<f64> = inp
        .chains
        .iter()
        .map(|c| lifted_edges(&c.nnz, inp.tracker.n_states() as u64, None) as f64)
        .collect();
    let dense = strategies.iter().filter(|&&s| s == Strategy::Dense).count();
    let top_ns: f64 = inp
        .chains
        .iter()
        .map(|c| span_total_ns(&p, c.top_span))
        .sum();
    let top_edges: f64 = inp
        .chains
        .iter()
        .zip(&edges)
        .map(|(c, e)| span_durations(&p, c.top_span).len() as f64 * e)
        .sum();
    let source_ns: f64 = ["dataplane.open_tmsb", "planner.bind_source"]
        .iter()
        .chain(inp.chains.iter().map(|c| &c.source_span))
        .map(|n| span_total_ns(&p, n))
        .sum();
    let source_ops = span_durations(&p, "planner.bind_source").len().max(1) as f64;
    let twin_ns: f64 = std::iter::once("planner.bind")
        .chain(inp.chains.iter().map(|c| c.conf_span))
        .map(|n| span_total_ns(&p, n))
        .sum();
    let twin_ops = span_durations(&p, "planner.bind").len().max(1) as f64;
    metrics.extend([
        metric(
            "store.monitor.ticks_per_s",
            (STREAMS * (STREAM_LEN - 1)) as f64 / (monitor_ns / 1e9).max(1e-12),
            "ticks/s",
        ),
        metric(
            "store.monitor.efficiency",
            solo_ns / (MONITOR_THREADS as f64 * monitor_ns).max(1.0),
            "ratio",
        ),
        metric(
            "planner.bind_ns_per_layer",
            span_mean_ns(&p, "planner.bind") / layers,
            "ns/layer",
        ),
        metric(
            "planner.dense_share",
            dense as f64 / strategies.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "dataplane.source_ns_per_layer",
            (source_ns / source_ops - twin_ns / twin_ops) / layers,
            "ns/layer",
        ),
        metric(
            "kernel.confidence_ns_per_edge.dense",
            span_mean_ns(&p, inp.chains[0].conf_span) / edges[0],
            "ns/edge",
        ),
        metric(
            "kernel.confidence_ns_per_edge.sparse",
            span_mean_ns(&p, inp.chains[1].conf_span) / edges[1],
            "ns/edge",
        ),
        metric(
            "kernel.top_ns_per_edge",
            top_ns / top_edges.max(1.0),
            "ns/edge",
        ),
        metric(
            "kernel.series_ns_per_tick",
            span_mean_ns(&p, "kernel.series") / (SERIES_LEN - 1) as f64,
            "ns/tick",
        ),
    ]);
    Ok(Outcome {
        checks,
        metrics,
        profiles: Some((p, ExecutionProfile::default())),
    })
}
