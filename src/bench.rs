//! `tmk bench`: the built-in perf micro-suite.
//!
//! Fixed-seed workload cases (confidence, enumeration, streaming, fleet,
//! sweeps) over the generated hospital, RFID and DNA-read workloads, timed
//! min-of-N. The minimum over repetitions is the run least disturbed by
//! scheduling, so it estimates each case's true cost floor; the median
//! is reported alongside as a noise indicator. Results serialize to a
//! schema-stable JSON (`{"suite":"tmk-bench","schema":1,...}`) so the
//! repo can commit `BENCH_<pr>.json` snapshots — the perf trajectory —
//! and `scripts/check.sh --bench-diff old.json new.json` (which calls
//! [`diff_report`] via `tmk bench --diff`) flags >15% regressions
//! between any two snapshots.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use transmark_obs::json::{self, Value};
use transmark_workloads::{bio, hospital, rfid};

use crate::cli::{run_err, usage_err, CliError};

/// JSON schema version of the bench output; bump on shape changes.
pub const SCHEMA: u64 = 1;

/// Default measurement repetitions per case.
pub const DEFAULT_RUNS: usize = 5;
/// Default executions per measurement.
pub const DEFAULT_ITERS: usize = 10;

/// Regression threshold for [`diff_report`]: fraction of the baseline's
/// min above which a case counts as regressed.
pub const REGRESSION_THRESHOLD: f64 = 0.15;

/// One timed case of the suite.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case name, `family/workload` (e.g. `"confidence/hospital"`).
    pub name: String,
    /// The RNG seed the workload was generated with (0 = deterministic).
    pub seed: u64,
    /// Measurement repetitions.
    pub runs: u64,
    /// Executions per measurement.
    pub iters: u64,
    /// Minimum per-execution nanoseconds across runs (the cost floor).
    pub min_ns: u64,
    /// Median per-execution nanoseconds across runs.
    pub median_ns: u64,
    /// The execution strategy the case ran under (`sparse`, `dense`,
    /// `scan`); `None` in snapshots written before strategies existed.
    pub strategy: Option<String>,
    /// Work units (e.g. ticks) one execution performs, so
    /// `min_ns / units` is the per-unit cost; `None` where the case does
    /// not declare one, and in snapshots written before units existed.
    pub units: Option<u64>,
    /// 99th-percentile per-request nanoseconds; only the sustained-load
    /// `serve/*` cases record one.
    pub p99_ns: Option<u64>,
    /// Sustained requests per second over the whole load window; only
    /// the `serve/*` cases record one.
    pub qps: Option<f64>,
}

/// Times `f` as `runs` measurements of `iters` calls each (after one
/// warm-up call) and returns per-call `(min_ns, median_ns)` with the
/// number of measurements taken.
fn time_case(runs: usize, iters: usize, mut f: impl FnMut()) -> (u64, u64, usize) {
    f();
    let mut samples: Vec<u64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters.max(1) {
                f();
            }
            (start.elapsed().as_nanos() / iters.max(1) as u128) as u64
        })
        .collect();
    samples.sort_unstable();
    (samples[0], samples[samples.len() / 2], samples.len())
}

/// Runs the whole suite. Each case fixes its workload seed, so two
/// invocations measure the same computation.
pub fn run_suite(runs: usize, iters: usize) -> Result<Vec<CaseResult>, CliError> {
    let mut results = Vec::new();
    let mut push = |name: &str,
                    seed: u64,
                    strategy: &str,
                    units: Option<u64>,
                    (min_ns, median_ns, runs): (u64, u64, usize)| {
        results.push(CaseResult {
            name: name.to_string(),
            seed,
            runs: runs as u64,
            iters: iters as u64,
            min_ns,
            median_ns,
            strategy: (!strategy.is_empty()).then(|| strategy.to_string()),
            units,
            p99_ns: None,
            qps: None,
        });
    };

    // confidence/hospital: the paper's running example — exact
    // confidence of the Table 1 top answer under the room tracker.
    let m = hospital::hospital_sequence();
    let t = hospital::room_tracker();
    let plan = transmark_core::prepare(&t);
    let bound = plan.bind(&m).map_err(run_err)?;
    let top = bound
        .top_k_scored(1)
        .map_err(run_err)?
        .into_iter()
        .next()
        .ok_or_else(|| run_err("hospital workload has no answers"))?;
    let o = top.output.clone();
    push(
        "confidence/hospital",
        0,
        bound.strategy().label(),
        None,
        time_case(runs, iters, || {
            std::hint::black_box(bound.confidence(std::hint::black_box(&o)).expect("valid"));
        }),
    );

    // enumerate/hospital: ranked top-k (Lawler–Murty enumeration).
    push(
        "enumerate/hospital",
        0,
        bound.strategy().label(),
        None,
        time_case(runs, iters, || {
            std::hint::black_box(bound.top_k_scored(4).expect("valid"));
        }),
    );

    // enumerate/indexed_dna: Theorem 5.7 ranking — the top 4 occurrences
    // of a GATTACA extractor over an n = 4096 uncertain read, tables and
    // DAG included. Declares its n layers as `units`.
    const DNA_SEED: u64 = 23;
    const DNA_LEN: usize = 4096;
    let mut rng = StdRng::seed_from_u64(DNA_SEED);
    let read = bio::uncertain_read(
        &bio::random_reference(DNA_LEN, 0.5, &mut rng),
        &bio::ReadSpec::default(),
    );
    let motif = read.motif_extractor("GATTACA").map_err(run_err)?;
    push(
        "enumerate/indexed_dna",
        DNA_SEED,
        "",
        Some(DNA_LEN as u64),
        time_case(runs, iters, || {
            std::hint::black_box(
                transmark_sproj::enumerate_indexed(&motif, &read.sequence)
                    .expect("valid")
                    .take(4)
                    .count(),
            );
        }),
    );

    // streaming/hospital: the same confidence, but folded from `.tmsb`
    // bytes through a zero-copy slice source — measures the data plane.
    let tmsb = transmark_markov::binio::to_tmsb_bytes(&m);
    push(
        "streaming/hospital",
        0,
        "sparse",
        None,
        time_case(runs, iters, || {
            let src = transmark_markov::binio::TmsbSlice::new(&tmsb).expect("valid tmsb");
            let mut bound = plan.bind_source(src).expect("alphabets match");
            std::hint::black_box(bound.confidence(std::hint::black_box(&o)).expect("valid"));
        }),
    );

    // confidence/rfid: a posterior (conditioned HMM) sequence — dense,
    // nonuniform layers, the General plan class.
    const RFID_SEED: u64 = 42;
    let dep = rfid::deployment(&rfid::RfidSpec::default());
    let mut rng = StdRng::seed_from_u64(RFID_SEED);
    let (posterior, _) = dep.sample_posterior(64, &mut rng);
    let tracker = dep.room_tracker(None);
    let rfid_plan = transmark_core::prepare(&tracker);
    let rfid_bound = rfid_plan.bind(&posterior).map_err(run_err)?;
    let rfid_top = rfid_bound
        .top_k_scored(1)
        .map_err(run_err)?
        .into_iter()
        .next()
        .ok_or_else(|| run_err("rfid workload has no answers"))?;
    let rfid_o = rfid_top.output.clone();
    push(
        "confidence/rfid",
        RFID_SEED,
        rfid_bound.strategy().label(),
        None,
        time_case(runs, iters, || {
            std::hint::black_box(
                rfid_bound
                    .confidence(std::hint::black_box(&rfid_o))
                    .expect("valid"),
            );
        }),
    );

    // fleet/rfid: 8 posterior streams, confidence across the store on 2
    // workers — measures the parallel driver (spawn, chunking, merge).
    let mut store = transmark_store::SequenceStore::new(Arc::clone(&dep.locations));
    for i in 0..8 {
        let (seq, _) = dep.sample_posterior(32, &mut rng);
        store.insert(format!("cart-{i:02}"), seq).map_err(run_err)?;
    }
    push(
        "fleet/rfid",
        RFID_SEED,
        transmark_core::choose_strategy(&posterior).label(),
        None,
        time_case(runs, iters.div_ceil(4), || {
            std::hint::black_box(
                store
                    .confidence_all_parallel(&tracker, &rfid_o, 2)
                    .expect("valid"),
            );
        }),
    );

    // enumerate/rfid_lab: Theorem 4.3 ranking where the answers are long —
    // top 4 by E_max, with confidences, of an n = 192 posterior under the
    // tracker that waits for the lab. Every iteration binds afresh, so
    // the whole-sequence CSR is rebuilt as a new request would. Declares
    // its n layers as `units`.
    const LAB_SEED: u64 = 192;
    const LAB_LEN: usize = 192;
    let mut rng = StdRng::seed_from_u64(LAB_SEED);
    let (lab_posterior, _) = dep.sample_posterior(LAB_LEN, &mut rng);
    let lab_plan = transmark_core::prepare(&dep.room_tracker(Some(2)));
    let lab_strategy = lab_plan.bind(&lab_posterior).map_err(run_err)?.strategy();
    push(
        "enumerate/rfid_lab",
        LAB_SEED,
        lab_strategy.label(),
        Some(LAB_LEN as u64),
        time_case(runs, iters, || {
            let bound = lab_plan.bind(&lab_posterior).expect("alphabets match");
            std::hint::black_box(bound.top_k_scored(4).expect("valid"));
        }),
    );

    // sweep/*: dense vs sparse one-shot evaluations (bind + confidence,
    // what one `tmk confidence` invocation does) on fully dense layers
    // across lengths 2^10..2^17 — an identity (Mealy) tracker over a
    // 16-symbol zero-free chain. Both strategies run the same
    // deterministic-uniform route; the bind is inside the timed region,
    // as a one-shot pays it. Sparse compacts each pulled layer into one
    // reused CSR, dense advances on the layer buffer in place.
    const SWEEP_SEED: u64 = 7;
    const SWEEP_SYMS: usize = 16;
    for exp in [10u32, 11, 12, 13, 14, 15, 16, 17] {
        let len = 1usize << exp;
        let mut rng = StdRng::seed_from_u64(SWEEP_SEED);
        let m = transmark_markov::generate::random_markov_sequence(
            &transmark_markov::generate::RandomChainSpec {
                len,
                n_symbols: SWEEP_SYMS,
                zero_prob: 0.0,
            },
            &mut rng,
        );
        let mut b = transmark_core::Transducer::builder(m.alphabet().clone(), m.alphabet().clone());
        let q = b.add_state(true);
        for s in 0..SWEEP_SYMS as u32 {
            let sym = transmark_core::SymbolId(s);
            b.add_transition(q, sym, q, &[sym]).map_err(run_err)?;
        }
        let ident = b.build().map_err(run_err)?;
        let sweep_plan = transmark_core::prepare(&ident);
        let (o, _) = m.most_likely_string();
        // Longer sequences get fewer executions per measurement so the
        // sweep stays a micro-suite, not a soak test.
        let sweep_iters = iters.div_ceil((len >> 13).max(1));
        for strategy in [
            transmark_core::Strategy::Sparse,
            transmark_core::Strategy::Dense,
        ] {
            push(
                &format!("sweep_{}/2e{exp}", strategy.label()),
                SWEEP_SEED,
                strategy.label(),
                None,
                time_case(runs, sweep_iters, || {
                    let bound = sweep_plan
                        .bind_with_strategy(&m, Some(strategy))
                        .expect("valid bind");
                    std::hint::black_box(
                        bound.confidence(std::hint::black_box(&o)).expect("valid"),
                    );
                }),
            );
        }
    }

    // series/*: the prefix-acceptance series at length 2^17 — the
    // sequential subset fold vs the parallel-prefix scan on 4 workers,
    // over a 3-state pattern query ("contains s1 s2") with real subset
    // growth.
    const SERIES_SEED: u64 = 11;
    let mut rng = StdRng::seed_from_u64(SERIES_SEED);
    let long = transmark_markov::generate::random_markov_sequence(
        &transmark_markov::generate::RandomChainSpec {
            len: 1 << 17,
            n_symbols: 2,
            zero_prob: 0.0,
        },
        &mut rng,
    );
    let mut nfa = transmark_core::Nfa::new(2);
    let q0 = nfa.add_state(false);
    let q1 = nfa.add_state(false);
    let q2 = nfa.add_state(true);
    let (s0, s1) = (transmark_core::SymbolId(0), transmark_core::SymbolId(1));
    nfa.add_transition(q0, s0, q0);
    nfa.add_transition(q0, s1, q0);
    nfa.add_transition(q0, s1, q1);
    nfa.add_transition(q1, s0, q2);
    nfa.add_transition(q2, s0, q2);
    nfa.add_transition(q2, s1, q2);
    let pattern = nfa.clone();
    let event = transmark_core::PreparedEventQuery::new(nfa);
    let series_iters = iters.div_ceil(8);
    push(
        "series_fold/2e17",
        SERIES_SEED,
        "sparse",
        None,
        time_case(runs, series_iters, || {
            std::hint::black_box(
                event
                    .series_with(&long, 1, Some(transmark_core::Strategy::Sparse))
                    .expect("valid"),
            );
        }),
    );
    push(
        "series_scan4/2e17",
        SERIES_SEED,
        "scan",
        None,
        time_case(runs, series_iters, || {
            std::hint::black_box(
                event
                    .series_with(&long, 4, Some(transmark_core::Strategy::Scan))
                    .expect("valid"),
            );
        }),
    );

    // window_slide vs window_recompute at 2^15 ticks, window 256: the
    // incremental sliding window pays amortized one operator composition
    // per tick; the recompute case prices the old scheme (re-fold the
    // whole 256-step window from its start marginal) on a 1-in-128 tick
    // sample so the micro-suite stays micro. Each case declares its
    // timed ticks as `units`, so per-tick speedup = (recompute min/units)
    // / (slide min/units) — held ≥ 5× by the monitor smoke in
    // scripts/check.sh. That smoke asks for only 2 runs, and a min of two
    // single executions has read under the floor on a loaded machine, so
    // these two cases always take at least 5 measurements.
    const WINDOW_SEED: u64 = 17;
    const WINDOW_LEN: usize = 1 << 15;
    const WINDOW_W: usize = 256;
    const WINDOW_STRIDE: usize = 128;
    let mut rng = StdRng::seed_from_u64(WINDOW_SEED);
    let wchain = transmark_markov::generate::random_markov_sequence(
        &transmark_markov::generate::RandomChainSpec {
            len: WINDOW_LEN,
            n_symbols: 2,
            zero_prob: 0.0,
        },
        &mut rng,
    );
    let wq = transmark_core::incremental::SlidingWindowQuery::new(pattern.clone(), WINDOW_W)
        .map_err(run_err)?;
    let window_iters = iters.div_ceil(8);
    let window_runs = runs.max(5);
    push(
        "window_slide/2e15",
        WINDOW_SEED,
        "window",
        Some(WINDOW_LEN as u64),
        time_case(window_runs, window_iters, || {
            std::hint::black_box(wq.series(&wchain).expect("valid"));
        }),
    );
    let wmarginals = wchain.marginals();
    push(
        "window_recompute/2e15",
        WINDOW_SEED,
        "window",
        Some(WINDOW_LEN.div_ceil(WINDOW_STRIDE) as u64),
        time_case(window_runs, window_iters, || {
            for p in (0..WINDOW_LEN).step_by(WINDOW_STRIDE) {
                let start = (p + 1).saturating_sub(WINDOW_W);
                let in_window: Vec<&[f64]> =
                    (start..p).map(|i| wchain.transition_matrix(i)).collect();
                std::hint::black_box(wq.recompute(&wmarginals[start], &in_window));
            }
        }),
    );

    // monitor/16x4096: 16 streams of 4096 positions multiplexed over one
    // query on 4 workers — prices the monitor's scheduling layer
    // (round-robin lanes, tick batching, report backfill).
    const MONITOR_SEED: u64 = 19;
    let mut rng = StdRng::seed_from_u64(MONITOR_SEED);
    let monitor_seqs: Vec<(String, transmark_markov::MarkovSequence)> = (0..16)
        .map(|i| {
            let m = transmark_markov::generate::random_markov_sequence(
                &transmark_markov::generate::RandomChainSpec {
                    len: 4096,
                    n_symbols: 2,
                    zero_prob: 0.0,
                },
                &mut rng,
            );
            (format!("lane-{i:02}"), m)
        })
        .collect();
    let monitor_refs: Vec<(String, &transmark_markov::MarkovSequence)> =
        monitor_seqs.iter().map(|(n, m)| (n.clone(), m)).collect();
    let monitor = transmark_store::Monitor::new(
        pattern.clone(),
        transmark_store::MonitorConfig {
            window: None,
            threads: 4,
            batch: 0,
        },
    );
    push(
        "monitor/16x4096",
        MONITOR_SEED,
        "sparse",
        None,
        time_case(runs, window_iters, || {
            std::hint::black_box(monitor.run_sequences(&monitor_refs).expect("valid"));
        }),
    );

    // serve/*: sustained load against a live `tmk serve` on loopback — a
    // fleet of client connections, fanned out through the same shared
    // store::pool the server itself schedules with, each issuing a run
    // of self-contained top-1 queries. `sustained_hot` repeats one query
    // text, so after the first request the process-lifetime plan cache
    // serves every compile; `sustained_cold` cycles more distinct
    // machines than a deliberately tiny plan cache holds, so every
    // request compiles (miss + eviction). The pair prices the cache:
    // hot p99 is protocol + execute, cold p99 adds a compile.
    const SERVE_SEED: u64 = 23;
    let queries_per_conn = (iters * 5).clamp(20, 200);
    let hot = serve_sustained(
        &[transmark_core::textio::to_text(&t)],
        &transmark_markov::textio::to_text(&m),
        transmark_store::DEFAULT_PLAN_CACHE_CAP,
        4,
        queries_per_conn,
    )?;
    results.push(CaseResult {
        name: "serve/sustained_hot".to_string(),
        seed: 0,
        runs: 4,
        iters: queries_per_conn as u64,
        min_ns: hot.min_ns,
        median_ns: hot.median_ns,
        strategy: None,
        units: None,
        p99_ns: Some(hot.p99_ns),
        qps: Some(hot.qps),
    });

    let mut rng = StdRng::seed_from_u64(SERVE_SEED);
    let cold_seq = transmark_markov::generate::random_markov_sequence(
        &transmark_markov::generate::RandomChainSpec {
            len: 16,
            n_symbols: 2,
            zero_prob: 0.2,
        },
        &mut rng,
    );
    let cold_queries: Vec<String> = (0..8)
        .map(|_| {
            let t = transmark_core::generate::random_transducer(
                &transmark_core::generate::RandomTransducerSpec {
                    n_states: 3,
                    n_input_symbols: 2,
                    n_output_symbols: 2,
                    class: transmark_core::generate::TransducerClass::Deterministic,
                    branching: 1.5,
                },
                &mut rng,
            );
            transmark_core::textio::to_text(&t)
        })
        .collect();
    let cold = serve_sustained(
        &cold_queries,
        &transmark_markov::textio::to_text(&cold_seq),
        2, // plan cache far smaller than the query rotation: all misses
        4,
        queries_per_conn,
    )?;
    results.push(CaseResult {
        name: "serve/sustained_cold".to_string(),
        seed: SERVE_SEED,
        runs: 4,
        iters: queries_per_conn as u64,
        min_ns: cold.min_ns,
        median_ns: cold.median_ns,
        strategy: None,
        units: None,
        p99_ns: Some(cold.p99_ns),
        qps: Some(cold.qps),
    });

    Ok(results)
}

/// Latency/throughput summary of one sustained-load window.
struct SustainedStats {
    min_ns: u64,
    median_ns: u64,
    p99_ns: u64,
    qps: f64,
}

/// Starts a private `tmk serve`, drives `conns` concurrent client
/// connections (fanned out with [`transmark_store::scoped_map`] — the
/// same shared pool fan-out the store and the server use) for
/// `queries_per_conn` top-1 queries each, cycling through `queries`,
/// and reduces the per-request latencies.
fn serve_sustained(
    queries: &[String],
    seq_text: &str,
    plan_capacity: usize,
    conns: usize,
    queries_per_conn: usize,
) -> Result<SustainedStats, CliError> {
    let server = crate::serve::Server::start(crate::serve::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: conns,
        queue_cap: conns * 2,
        tenant_quota: conns,
        plan_capacity,
        slow_ms: None,
        log: None,
    })
    .map_err(|e| run_err(format!("bench server: {e}")))?;
    let addr = server.local_addr().to_string();

    let conn_ids: Vec<usize> = (0..conns).collect();
    let started = Instant::now();
    let latencies: Vec<Vec<u64>> = transmark_store::scoped_map(&conn_ids, conns, |&c| {
        let mut client = crate::serve::client::Client::connect(&addr, "bench")
            .map_err(|e| run_err(format!("bench client connect: {e}")))?;
        let mut lat = Vec::with_capacity(queries_per_conn);
        for q in 0..queries_per_conn {
            let query = &queries[(c * queries_per_conn + q) % queries.len()];
            let t0 = Instant::now();
            client
                .top_k(
                    query,
                    &crate::serve::client::Sequence::Text(seq_text),
                    1,
                    false,
                )
                .map_err(|e| run_err(format!("bench query: {e}")))?;
            lat.push(t0.elapsed().as_nanos() as u64);
        }
        Ok::<Vec<u64>, CliError>(lat)
    })?;
    let wall = started.elapsed();
    server.shutdown();

    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    if all.is_empty() {
        return Err(run_err("sustained-load window measured no requests"));
    }
    all.sort_unstable();
    let n = all.len();
    Ok(SustainedStats {
        min_ns: all[0],
        median_ns: all[n / 2],
        p99_ns: all[((n - 1) * 99) / 100],
        qps: n as f64 / wall.as_secs_f64().max(1e-9),
    })
}

/// Serializes suite results to the schema-stable JSON document.
pub fn to_json(results: &[CaseResult]) -> String {
    let mut cases = std::collections::BTreeMap::new();
    for r in results {
        let mut case = std::collections::BTreeMap::new();
        case.insert("seed".to_string(), Value::Int(r.seed));
        case.insert("runs".to_string(), Value::Int(r.runs));
        case.insert("iters".to_string(), Value::Int(r.iters));
        case.insert("min_ns".to_string(), Value::Int(r.min_ns));
        case.insert("median_ns".to_string(), Value::Int(r.median_ns));
        if let Some(s) = &r.strategy {
            case.insert("strategy".to_string(), Value::Str(s.clone()));
        }
        if let Some(units) = r.units {
            case.insert("units".to_string(), Value::Int(units));
        }
        if let Some(p99) = r.p99_ns {
            case.insert("p99_ns".to_string(), Value::Int(p99));
        }
        if let Some(qps) = r.qps {
            case.insert("qps".to_string(), Value::Float(qps));
        }
        cases.insert(r.name.clone(), Value::Object(case));
    }
    let mut doc = std::collections::BTreeMap::new();
    doc.insert("suite".to_string(), Value::Str("tmk-bench".to_string()));
    doc.insert("schema".to_string(), Value::Int(SCHEMA));
    doc.insert("cases".to_string(), Value::Object(cases));
    Value::Object(doc).to_json()
}

/// Parses a bench JSON document back into case results.
pub fn from_json(text: &str) -> Result<Vec<CaseResult>, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let doc = v.as_object().ok_or("bench document is not an object")?;
    match doc.get("suite") {
        Some(Value::Str(s)) if s == "tmk-bench" => {}
        _ => return Err("not a tmk-bench document (missing suite name)".to_string()),
    }
    let schema = doc.get("schema").and_then(Value::as_int).unwrap_or(0);
    if schema != SCHEMA {
        return Err(format!(
            "unsupported bench schema {schema} (expected {SCHEMA})"
        ));
    }
    let cases = doc
        .get("cases")
        .and_then(Value::as_object)
        .ok_or("missing cases object")?;
    let mut out = Vec::new();
    for (name, case) in cases {
        let case = case
            .as_object()
            .ok_or_else(|| format!("case {name} is not an object"))?;
        let field = |key: &str| {
            case.get(key)
                .and_then(Value::as_int)
                .ok_or_else(|| format!("case {name} is missing integer {key}"))
        };
        let strategy = match case.get("strategy") {
            Some(Value::Str(s)) => Some(s.clone()),
            // Pre-strategy snapshots simply lack the key.
            _ => None,
        };
        out.push(CaseResult {
            name: name.clone(),
            seed: field("seed")?,
            runs: field("runs")?,
            iters: field("iters")?,
            min_ns: field("min_ns")?,
            median_ns: field("median_ns")?,
            strategy,
            // Snapshots written before work units simply lack the key.
            units: case.get("units").and_then(Value::as_int),
            // Sustained-load keys only exist on serve/* cases (and not
            // in snapshots written before the service layer).
            p99_ns: case.get("p99_ns").and_then(Value::as_int),
            qps: case.get("qps").and_then(Value::as_f64),
        });
    }
    Ok(out)
}

/// Renders the human-readable results table.
pub fn to_text(results: &[CaseResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12}  {:<8} (seed, {} runs x iters)",
        "case",
        "min",
        "median",
        "strategy",
        results.first().map_or(0, |r| r.runs)
    );
    for r in results {
        let mut line = format!(
            "{:<24} {:>12} {:>12}  {:<8} (seed {}, x{})",
            r.name,
            transmark_obs::fmt_ns(r.min_ns),
            transmark_obs::fmt_ns(r.median_ns),
            r.strategy.as_deref().unwrap_or("-"),
            r.seed,
            r.iters,
        );
        if let (Some(p99), Some(qps)) = (r.p99_ns, r.qps) {
            let _ = write!(line, "  p99 {}  {:.0} q/s", transmark_obs::fmt_ns(p99), qps);
        }
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Compares two bench documents case-by-case on `min_ns`. Returns the
/// report and whether any case regressed by more than
/// [`REGRESSION_THRESHOLD`]. Cases present on only one side are noted
/// but are not regressions.
pub fn diff_report(base: &[CaseResult], new: &[CaseResult]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let base_by_name: std::collections::BTreeMap<&str, &CaseResult> =
        base.iter().map(|r| (r.name.as_str(), r)).collect();
    for r in new {
        match base_by_name.get(r.name.as_str()) {
            None => {
                let _ = writeln!(out, "{:<24} new case (no baseline)", r.name);
            }
            Some(b) if b.min_ns == 0 => {
                let _ = writeln!(out, "{:<24} baseline min is 0; skipped", r.name);
            }
            Some(b) => {
                let delta = r.min_ns as f64 / b.min_ns as f64 - 1.0;
                // Sustained-load cases go over real sockets: their floor
                // is scheduling- and load-dependent, so deltas are
                // reported but never fail the diff.
                let sustained = r.qps.is_some() || b.qps.is_some();
                let verdict = if delta > REGRESSION_THRESHOLD {
                    if !sustained {
                        regressed = true;
                        "REGRESSED"
                    } else {
                        "slower (informational)"
                    }
                } else if delta < -REGRESSION_THRESHOLD {
                    "improved"
                } else {
                    "ok"
                };
                // Flag strategy flips between snapshots: a time delta is
                // only comparable when both sides ran the same kernel.
                let strat = match (&b.strategy, &r.strategy) {
                    (Some(old), Some(new)) if old != new => format!("  [{old} -> {new}]"),
                    (_, Some(new)) => format!("  [{new}]"),
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{:<24} {:>12} -> {:>12}  {:+7.1}%  {verdict}{strat}",
                    r.name,
                    transmark_obs::fmt_ns(b.min_ns),
                    transmark_obs::fmt_ns(r.min_ns),
                    100.0 * delta,
                );
            }
        }
    }
    for b in base {
        if !new.iter().any(|r| r.name == b.name) {
            let _ = writeln!(out, "{:<24} case dropped from new run", b.name);
        }
    }
    (out, regressed)
}

/// The `tmk bench` entry point; see the CLI usage text for flags.
pub fn run_command(mut args: Vec<String>) -> Result<String, CliError> {
    // --diff BASE NEW: pure comparison, no timing.
    if let Some(pos) = args.iter().position(|a| a == "--diff") {
        if pos + 2 >= args.len() {
            return Err(usage_err("--diff needs two bench JSON paths"));
        }
        let new_path = args.remove(pos + 2);
        let base_path = args.remove(pos + 1);
        args.remove(pos);
        if !args.is_empty() {
            return Err(usage_err(format!(
                "unexpected bench argument {:?}",
                args[0]
            )));
        }
        let load = |path: &str| -> Result<Vec<CaseResult>, CliError> {
            let text = std::fs::read_to_string(path)
                .map_err(|e| run_err(format!("cannot read {path}: {e}")))?;
            from_json(&text).map_err(|e| run_err(format!("{path}: {e}")))
        };
        let base = load(&base_path)?;
        let new = load(&new_path)?;
        let (report, regressed) = diff_report(&base, &new);
        if regressed {
            return Err(run_err(format!(
                "{report}bench regression: some case exceeded {:.0}% over {base_path}",
                100.0 * REGRESSION_THRESHOLD
            )));
        }
        return Ok(report);
    }

    let mut take_n = |flag: &str, default: usize| -> Result<usize, CliError> {
        match args.iter().position(|a| a == flag) {
            Some(pos) if pos + 1 < args.len() => {
                let v = args.remove(pos + 1);
                args.remove(pos);
                v.parse()
                    .map_err(|e| usage_err(format!("bad {flag} {v:?}: {e}")))
            }
            Some(_) => Err(usage_err(format!("{flag} requires a value"))),
            None => Ok(default),
        }
    };
    let runs = take_n("--runs", DEFAULT_RUNS)?;
    let iters = take_n("--iters", DEFAULT_ITERS)?;
    let json_path = match args.iter().position(|a| a == "--json") {
        Some(pos) if pos + 1 < args.len() => {
            let v = args.remove(pos + 1);
            args.remove(pos);
            Some(v)
        }
        Some(_) => return Err(usage_err("--json requires a file path")),
        None => None,
    };
    if !args.is_empty() {
        return Err(usage_err(format!(
            "unexpected bench argument {:?}",
            args[0]
        )));
    }

    let results = run_suite(runs, iters)?;
    let mut out = to_text(&results);
    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&results))
            .map_err(|e| run_err(format!("write {path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, min_ns: u64) -> CaseResult {
        CaseResult {
            name: name.to_string(),
            seed: 42,
            runs: 5,
            iters: 10,
            min_ns,
            median_ns: min_ns + 1,
            strategy: Some("sparse".to_string()),
            units: None,
            p99_ns: None,
            qps: None,
        }
    }

    #[test]
    fn json_round_trips() {
        let results = vec![case("confidence/hospital", 1200), case("fleet/rfid", 90000)];
        let text = to_json(&results);
        let back = from_json(&text).unwrap();
        assert_eq!(back.len(), 2);
        let hospital = back
            .iter()
            .find(|r| r.name == "confidence/hospital")
            .unwrap();
        assert_eq!(hospital.min_ns, 1200);
        assert_eq!(hospital.median_ns, 1201);
        assert_eq!(hospital.seed, 42);
        assert_eq!(hospital.strategy.as_deref(), Some("sparse"));
    }

    #[test]
    fn from_json_tolerates_missing_strategy() {
        // Snapshots written before the strategy layer (or work units)
        // have no key.
        let text = r#"{"suite":"tmk-bench","schema":1,"cases":{"a":{"seed":1,"runs":5,"iters":10,"min_ns":100,"median_ns":110}}}"#;
        let back = from_json(text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].strategy, None);
        assert_eq!(back[0].units, None);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(from_json("{}").is_err());
        assert!(from_json(r#"{"suite":"other","schema":1,"cases":{}}"#).is_err());
        assert!(from_json(r#"{"suite":"tmk-bench","schema":99,"cases":{}}"#).is_err());
        assert!(from_json("not json").is_err());
    }

    #[test]
    fn sustained_fields_round_trip() {
        let mut r = case("serve/sustained_hot", 500);
        r.p99_ns = Some(900);
        r.qps = Some(1234.5);
        let back = from_json(&to_json(&[r])).unwrap();
        assert_eq!(back[0].p99_ns, Some(900));
        assert!((back[0].qps.unwrap() - 1234.5).abs() < 1e-6);
    }

    #[test]
    fn work_units_round_trip() {
        let mut r = case("window_slide/2e15", 65536);
        r.units = Some(32768);
        let back = from_json(&to_json(&[r])).unwrap();
        assert_eq!(back[0].units, Some(32768));
    }

    #[test]
    fn sustained_cases_never_fail_the_diff() {
        let mut base = case("serve/sustained_hot", 1000);
        base.qps = Some(100.0);
        let mut new = case("serve/sustained_hot", 5000);
        new.qps = Some(20.0);
        let (report, regressed) = diff_report(&[base], &[new]);
        assert!(!regressed, "socket latency is informational: {report}");
        assert!(report.contains("informational"), "{report}");
    }

    #[test]
    fn diff_flags_large_regressions_only() {
        let base = vec![case("a", 1000), case("b", 1000), case("gone", 5)];
        let new = vec![case("a", 1100), case("b", 1200), case("fresh", 7)];
        let (report, regressed) = diff_report(&base, &new);
        assert!(regressed, "b regressed by 20% > 15%");
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("new case"));
        assert!(report.contains("dropped"));
        let (_, ok) = diff_report(&base[..2], &[case("a", 1100), case("b", 1100)]);
        assert!(!ok, "10% is within the threshold");
    }
}
