//! Observability-layer guarantees: instrumentation must not change any
//! computed number, the planner-cache counters must account for every
//! lookup exactly (including under concurrent binds of one shared plan),
//! snapshots must survive a JSON round trip, and phase spans must nest
//! and close correctly.

use std::sync::Mutex;

use rand::{rngs::StdRng, SeedableRng};
use transmark_automata::{Alphabet, SymbolId};
use transmark_core::plan::prepare;
use transmark_core::transducer::Transducer;
use transmark_markov::{MarkovSequence, MarkovSequenceBuilder};

/// Metric counters are process-global, so every test in this binary
/// serializes on one lock: a parallel test's traffic would otherwise
/// leak into another's snapshot window.
static GLOBAL_METRICS: Mutex<()> = Mutex::new(());

fn sym(i: u32) -> SymbolId {
    SymbolId(i)
}

/// Nondeterministic suffix-copier over {a,b}: exercises the planner's
/// per-output compiled-graph cache on every confidence call.
fn suffix_guesser() -> Transducer {
    let a = Alphabet::of_chars("ab");
    let mut b = Transducer::builder(a.clone(), a);
    let skip = b.add_state(true);
    let copy = b.add_state(true);
    b.set_initial(skip);
    for s in 0..2u32 {
        b.add_transition(skip, sym(s), skip, &[]).unwrap();
        b.add_transition(skip, sym(s), copy, &[sym(s)]).unwrap();
        b.add_transition(copy, sym(s), copy, &[sym(s)]).unwrap();
    }
    b.build().unwrap()
}

fn uniform_chain(n: usize) -> MarkovSequence {
    MarkovSequenceBuilder::new(Alphabet::of_chars("ab"), n)
        .uniform_all()
        .build()
        .unwrap()
}

#[test]
fn instrumentation_is_bit_neutral() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let t = transmark_workloads::hospital::room_tracker();
    let m = transmark_workloads::hospital::hospital_sequence();

    // Two fully instrumented runs and a reused bind agree
    // bit-for-bit on every score.
    let a = prepare(&t).bind(&m).unwrap().top_k_scored(8).unwrap();
    let b = prepare(&t).bind(&m).unwrap().top_k_scored(8).unwrap();
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.output, y.output);
        assert_eq!(x.emax.to_bits(), y.emax.to_bits());
        assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
    }
    let ev = prepare(&t).bind(&m).unwrap();
    for x in &a {
        assert_eq!(
            ev.confidence(&x.output).unwrap().to_bits(),
            x.confidence.to_bits()
        );
    }

    // Monte-Carlo sampling: timers and counters must not perturb the RNG
    // draw sequence — same seed, bit-identical estimate.
    let t2 = suffix_guesser();
    let m2 = uniform_chain(4);
    let o = vec![sym(0)];
    let mut r1 = StdRng::seed_from_u64(42);
    let mut r2 = StdRng::seed_from_u64(42);
    let e1 = prepare(&t2)
        .bind(&m2)
        .unwrap()
        .estimate_confidence(&o, 2_000, &mut r1)
        .unwrap();
    let e2 = prepare(&t2)
        .bind(&m2)
        .unwrap()
        .estimate_confidence(&o, 2_000, &mut r2)
        .unwrap();
    assert_eq!(e1.estimate.to_bits(), e2.estimate.to_bits());
    assert_eq!(e1.std_error.to_bits(), e2.std_error.to_bits());
}

#[test]
fn planner_cache_accounting_is_exact_under_concurrent_binds() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    if !transmark_obs::enabled() {
        return;
    }
    let t = suffix_guesser();
    let m = uniform_chain(3);
    let o = vec![sym(0)];
    let plan = prepare(&t);

    // Warm round: one bind + one confidence on a fresh plan. Whatever it
    // compiles is a miss; the total lookup count (hits + misses) is the
    // per-round cost we check the concurrent rounds against.
    let base = transmark_obs::registry().snapshot();
    let bound = plan.bind(&m).unwrap();
    let warm = bound.confidence(&o).unwrap();
    let d = transmark_obs::registry().snapshot().diff(&base);
    let (warm_hits, warm_misses) = (
        d.counter("planner.cache.hits"),
        d.counter("planner.cache.misses"),
    );
    assert!(warm_misses > 0, "a fresh plan must compile something");
    let per_round = warm_hits + warm_misses;

    // Two threads re-bind the same shared plan and repeat the identical
    // round. Every lookup must be a hit — the cache mutex makes the
    // compile-on-miss atomic, so concurrency can neither double-compile
    // (extra misses) nor lose a lookup (hits + misses must be exact).
    let base = transmark_obs::registry().snapshot();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let b = plan.bind(&m).unwrap();
                let c = b.confidence(&o).unwrap();
                assert_eq!(c.to_bits(), warm.to_bits());
            });
        }
    });
    let d = transmark_obs::registry().snapshot().diff(&base);
    assert_eq!(d.counter("planner.cache.misses"), 0);
    assert_eq!(d.counter("planner.cache.hits"), 2 * per_round);
}

#[test]
fn snapshot_survives_json_round_trip() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    // Generate counter, histogram, and span traffic first.
    let t = transmark_workloads::hospital::room_tracker();
    let m = transmark_workloads::hospital::hospital_sequence();
    let top = prepare(&t).bind(&m).unwrap().top_k_scored(1).unwrap();
    assert!(!top.is_empty());

    let s = transmark_obs::registry().snapshot();
    let back = transmark_obs::Snapshot::from_json(&s.to_json()).unwrap();
    assert_eq!(s, back);
    // A snapshot diffed against itself reports nothing.
    assert!(s.diff(&s).is_empty());
    if transmark_obs::enabled() {
        assert!(s.counter("kernel.advance.layers") > 0);
        assert_eq!(
            back.counter("kernel.advance.layers"),
            s.counter("kernel.advance.layers")
        );
    }
}

#[test]
fn spans_nest_and_close_across_prepare_bind_execute() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    if !transmark_obs::enabled() {
        return;
    }
    let base = transmark_obs::registry().snapshot();

    // Manual nesting: the aggregation key is the "/"-joined stack path.
    {
        let _outer = transmark_obs::span::enter("obs_test_outer");
        let _inner = transmark_obs::span::enter("obs_test_inner");
        assert_eq!(transmark_obs::span::current_depth(), 2);
    }
    assert_eq!(transmark_obs::span::current_depth(), 0);

    // Engine phases open and close one span each, leaving the stack
    // balanced even across an executed query.
    let t = transmark_workloads::hospital::room_tracker();
    let m = transmark_workloads::hospital::hospital_sequence();
    let bound = prepare(&t).bind(&m).unwrap();
    let top = bound.top_k_scored(1).unwrap();
    assert!(!top.is_empty());
    let _ = bound.confidence(&top[0].output).unwrap();
    assert_eq!(transmark_obs::span::current_depth(), 0);

    let d = transmark_obs::registry().snapshot().diff(&base);
    assert_eq!(d.span("obs_test_outer").unwrap().count, 1);
    assert_eq!(d.span("obs_test_outer/obs_test_inner").unwrap().count, 1);
    assert!(d.span("prepare").map_or(0, |s| s.count) >= 1);
    assert!(d.span("bind").map_or(0, |s| s.count) >= 1);
    assert!(d.span("execute").map_or(0, |s| s.count) >= 1);
}

/// Nondeterministic relabeler with uniform (length-1) emission: routes
/// through the uniform-NFA plan class. Two accepting states keep the
/// (from, symbol, to, emission) tuples distinct.
fn ambiguous_relabeler() -> Transducer {
    let a = Alphabet::of_chars("ab");
    let mut b = Transducer::builder(a.clone(), a);
    let keep = b.add_state(true);
    let flip = b.add_state(true);
    for q in [keep, flip] {
        for s in 0..2u32 {
            b.add_transition(q, sym(s), keep, &[sym(s)]).unwrap();
            b.add_transition(q, sym(s), flip, &[sym(1 - s)]).unwrap();
        }
    }
    b.build().unwrap()
}

fn identity_ab() -> Transducer {
    let a = Alphabet::of_chars("ab");
    let mut b = Transducer::builder(a.clone(), a);
    let q = b.add_state(true);
    for s in 0..2u32 {
        b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
    }
    b.build().unwrap()
}

/// Two concurrent queries under separate recorder scopes must produce
/// disjoint profiles — each thread's spans, plan-kind instants, and
/// layer progress land only in its own recorder — while the process
/// registry still accounts for the union.
#[test]
fn recorder_scopes_isolate_concurrent_queries() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    if !transmark_obs::enabled() {
        return;
    }
    // Pick thread A's output before the baseline snapshot: this main
    // thread has no scope installed, so the enumeration records into
    // neither profile, and its registry traffic predates `base`.
    let hospital_t = transmark_workloads::hospital::room_tracker();
    let hospital_m = transmark_workloads::hospital::hospital_sequence();
    let hospital_o = prepare(&hospital_t)
        .bind(&hospital_m)
        .unwrap()
        .top_k_scored(1)
        .unwrap()[0]
        .output
        .clone();
    let base = transmark_obs::registry().snapshot();

    let rec_a = std::sync::Arc::new(transmark_obs::Recorder::new());
    let rec_b = std::sync::Arc::new(transmark_obs::Recorder::new());
    std::thread::scope(|s| {
        s.spawn(|| {
            rec_a.scope(|| {
                // Deterministic plan, executed three times.
                let bound = prepare(&hospital_t).bind(&hospital_m).unwrap();
                for _ in 0..3 {
                    bound.confidence(&hospital_o).unwrap();
                }
            });
        });
        s.spawn(|| {
            rec_b.scope(|| {
                // Deterministic-uniform plan (the other layered-DP
                // route), executed once.
                let t = identity_ab();
                let m = uniform_chain(4);
                let bound = prepare(&t).bind(&m).unwrap();
                bound.confidence(&[sym(0); 4]).unwrap();
            });
        });
    });
    let pa = rec_a.finish();
    let pb = rec_b.finish();

    // Phase counts reflect each scope's own executions, nothing more.
    assert_eq!(pa.phases["execute"].count, 3);
    assert_eq!(pb.phases["execute"].count, 1);

    // Plan-kind instants stay with the scope that prepared the plan.
    assert_eq!(pa.instants["planner.plan/deterministic"], 1);
    assert!(!pa
        .instants
        .contains_key("planner.plan/deterministic-uniform"));
    assert_eq!(pb.instants["planner.plan/deterministic-uniform"], 1);
    assert!(!pb.instants.contains_key("planner.plan/deterministic"));

    // Layer progress splits exactly: no event is double-counted or
    // dropped, and the global registry saw precisely the union.
    assert!(pa.layers > 0);
    assert!(pb.layers > 0);
    let d = transmark_obs::registry().snapshot().diff(&base);
    assert_eq!(d.counter("kernel.advance.layers"), pa.layers + pb.layers);
}

/// An active recorder must not change any computed number: confidences
/// across every transducer plan class, streamed `.tmsb` folds, and
/// seeded Monte-Carlo estimates are all bit-identical to unprofiled
/// runs.
#[test]
fn profiled_execution_is_bit_neutral() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());

    // (label, transducer, sequence, output) covering all four
    // `PlanKind::for_transducer` routes.
    let hospital_t = transmark_workloads::hospital::room_tracker();
    let hospital_m = transmark_workloads::hospital::hospital_sequence();
    let hospital_o = prepare(&hospital_t)
        .bind(&hospital_m)
        .unwrap()
        .top_k_scored(1)
        .unwrap()[0]
        .output
        .clone();
    let cases: Vec<(&str, Transducer, MarkovSequence, Vec<SymbolId>)> = vec![
        (
            "deterministic-uniform",
            identity_ab(),
            uniform_chain(4),
            vec![sym(0); 4],
        ),
        ("deterministic", hospital_t, hospital_m, hospital_o),
        (
            "uniform-nfa",
            ambiguous_relabeler(),
            uniform_chain(4),
            vec![sym(0); 4],
        ),
        ("general", suffix_guesser(), uniform_chain(4), vec![sym(0)]),
    ];

    for (label, t, m, o) in &cases {
        let plain = prepare(t).bind(m).unwrap().confidence(o).unwrap();
        let rec = std::sync::Arc::new(transmark_obs::Recorder::new());
        let profiled = rec.scope(|| prepare(t).bind(m).unwrap().confidence(o).unwrap());
        assert_eq!(
            plain.to_bits(),
            profiled.to_bits(),
            "profiling changed the {label} confidence"
        );

        // The streamed data plane: fold the same query from `.tmsb`
        // bytes, profiled and not.
        let tmsb = transmark_markov::binio::to_tmsb_bytes(m);
        let stream = |bytes: &[u8]| {
            let src = transmark_markov::binio::TmsbSlice::new(bytes).unwrap();
            prepare(t).bind_source(src).unwrap().confidence(o).unwrap()
        };
        let plain_stream = stream(&tmsb);
        let profiled_stream = rec.scope(|| stream(&tmsb));
        assert_eq!(
            plain_stream.to_bits(),
            profiled_stream.to_bits(),
            "profiling changed the streamed {label} confidence"
        );
    }

    // Seeded Monte Carlo: recording must not perturb the draw sequence.
    let t = suffix_guesser();
    let m = uniform_chain(4);
    let o = vec![sym(0)];
    let mut r1 = StdRng::seed_from_u64(7);
    let e1 = prepare(&t)
        .bind(&m)
        .unwrap()
        .estimate_confidence(&o, 1_000, &mut r1)
        .unwrap();
    let rec = std::sync::Arc::new(transmark_obs::Recorder::new());
    let e2 = rec.scope(|| {
        let mut r2 = StdRng::seed_from_u64(7);
        prepare(&t)
            .bind(&m)
            .unwrap()
            .estimate_confidence(&o, 1_000, &mut r2)
            .unwrap()
    });
    assert_eq!(e1.estimate.to_bits(), e2.estimate.to_bits());
    assert_eq!(e1.std_error.to_bits(), e2.std_error.to_bits());
}

/// A resumed confidence session reports only the layers it stepped
/// itself, and only once: `finish()` may be called repeatedly (the
/// server does on resumed streams) without re-counting, and the layers
/// folded before the checkpoint — in another session, possibly another
/// process — are not counted again.
#[test]
fn resumed_confidence_session_counts_only_its_own_layers() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    let t = transmark_workloads::hospital::room_tracker();
    let m = transmark_workloads::hospital::hospital_sequence();
    let o = transmark_workloads::hospital::places(&["1", "2"]);
    let plan = prepare(&t);
    let (p, r) = (2usize, m.len() - 1 - 2);

    let mut first = plan.begin_confidence(m.initial_dist(), &o).unwrap();
    for i in 0..p {
        first.step(m.transition_matrix(i)).unwrap();
    }
    let blob = first.checkpoint();

    let base = transmark_obs::registry().snapshot();
    let mut resumed = plan.resume_confidence(&o, &blob).unwrap();
    assert_eq!(resumed.position(), p as u64);
    for i in p..p + r {
        resumed.step(m.transition_matrix(i)).unwrap();
    }
    let c1 = resumed.finish();
    let c2 = resumed.finish();
    assert_eq!(c1.to_bits(), c2.to_bits());
    assert!((c1 - transmark_workloads::hospital::CONF_12).abs() < 1e-12);
    let d = transmark_obs::registry().snapshot().diff(&base);
    if transmark_obs::enabled() {
        assert_eq!(d.counter("kernel.advance.layers"), r as u64);
    }
}

/// A bind builds its whole-sequence CSR only when it enumerates, and
/// then once: the single-pass methods of a sparse bind pull and compact
/// one layer at a time, and repeated ranked calls and later single
/// passes share the first build.
#[test]
fn whole_sequence_csr_is_built_only_to_enumerate_and_once() {
    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    if !transmark_obs::enabled() {
        return;
    }
    let t = transmark_workloads::hospital::room_tracker();
    let m = transmark_workloads::hospital::hospital_sequence();
    let o = transmark_workloads::hospital::places(&["1", "2"]);
    let plan = prepare(&t);

    let base = transmark_obs::registry().snapshot();
    let bound = plan
        .bind_with_strategy(&m, Some(transmark_core::Strategy::Sparse))
        .unwrap();
    let conf = bound.confidence(&o).unwrap();
    assert!((conf - transmark_workloads::hospital::CONF_12).abs() < 1e-12);
    assert!(bound.is_answer(&o).unwrap());
    let d = transmark_obs::registry().snapshot().diff(&base);
    assert_eq!(d.counter("kernel.csr.builds"), 0);

    let base = transmark_obs::registry().snapshot();
    let first = bound.top_k(2).unwrap();
    let again = bound.top_k(2).unwrap();
    assert_eq!(first, again);
    // A single pass after the build walks the built CSR, bit for bit.
    assert_eq!(bound.confidence(&o).unwrap().to_bits(), conf.to_bits());
    let d = transmark_obs::registry().snapshot().diff(&base);
    assert_eq!(d.counter("kernel.csr.builds"), 1);
}

/// Each subset table reports what it discovered, once per pass, and a
/// Σ*·(p₁|…|p_k) event query discovers at most Σ|pᵢ| + 1 subsets on any
/// chain. After Takhanov & Kolmogorov: the subset reached after a string
/// `w` is fixed by the longest suffix of `w` that is a prefix of some
/// pattern, as in Aho–Corasick, and there are at most Σ|pᵢ| + 1 of those
/// (the empty one included).
#[test]
fn pattern_queries_discover_at_most_one_subset_per_pattern_prefix() {
    use rand::RngExt;
    use transmark_core::{Nfa, PreparedEventQuery};
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    let _g = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
    if !transmark_obs::enabled() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x7a_4b);
    for case in 0..60 {
        let k = rng.random_range(2..=4);
        let mut nfa = Nfa::new(k);
        let q0 = nfa.add_state(false);
        for s in 0..k as u32 {
            nfa.add_transition(q0, sym(s), q0);
        }
        let mut prefixes = 0;
        for _ in 0..rng.random_range(1..=3) {
            let len = rng.random_range(1..=5);
            let mut from = q0;
            for j in 0..len {
                let to = nfa.add_state(j + 1 == len);
                nfa.add_transition(from, sym(rng.random_range(0..k as u32)), to);
                from = to;
            }
            prefixes += len;
        }
        let spec = RandomChainSpec {
            len: rng.random_range(1..=300),
            n_symbols: k,
            zero_prob: [0.0, 0.3, 0.6][case % 3],
        };
        let m = random_markov_sequence(&spec, &mut rng);
        let base = transmark_obs::registry().snapshot();
        PreparedEventQuery::new(nfa).series(&m).unwrap();
        let found = transmark_obs::registry()
            .snapshot()
            .diff(&base)
            .counter("kernel.subsets.discovered");
        assert!(
            (1..=prefixes as u64 + 1).contains(&found),
            "case {case}: {found} subsets for {prefixes} pattern symbols"
        );
    }

    // The confidence routes report theirs as well: the Thm 4.9 gadget's
    // configuration sets, more than one per position.
    let (t, m, o) = transmark_workloads::gadgets::confidence_blowup(16);
    let base = transmark_obs::registry().snapshot();
    transmark_core::confidence_general(&t, &m, &o).unwrap();
    let d = transmark_obs::registry().snapshot().diff(&base);
    assert!(d.counter("kernel.subsets.discovered") > m.len() as u64);
}
