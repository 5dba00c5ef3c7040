//! Integration tests for the query-scoped profiler surfaced through the
//! `tmk` CLI (driven through `transmark::cli::run`, no subprocesses):
//! Chrome trace_event export, folded-stack export, fleet worker lanes,
//! and the `tmk bench` perf harness.

#![cfg(not(feature = "obs-off"))]

use transmark::cli::run;
use transmark::obs::json::{parse, Value};
use transmark::obs::trace::parse_folded;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A scratch directory under the temp dir, unique per test, populated
/// with the paper's running example.
fn scratch_with_example(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "transmark-profiler-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export example");
    dir
}

fn obj(v: &Value) -> &std::collections::BTreeMap<String, Value> {
    match v {
        Value::Object(o) => o,
        other => panic!("expected a JSON object, got {other:?}"),
    }
}

/// Every event in a trace must carry the fields Chrome's trace viewer
/// requires; returns the set of `ph` values seen and the set of tids.
fn check_trace(events: &[Value]) -> (Vec<String>, Vec<u64>) {
    let mut phases = std::collections::BTreeSet::new();
    let mut tids = std::collections::BTreeSet::new();
    for e in events {
        let o = obj(e);
        let ph = match o.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("event missing string ph: {other:?}"),
        };
        match o.get("pid") {
            Some(Value::Int(1)) => {}
            other => panic!("every event carries pid 1, got {other:?}"),
        }
        let tid = match o.get("tid") {
            Some(Value::Int(t)) => *t,
            other => panic!("every event carries an integer tid, got {other:?}"),
        };
        if ph != "M" {
            // Timestamps are fractional microseconds; integral ones
            // parse as Int, the rest as Float.
            let ts = o.get("ts").expect("non-metadata events carry ts");
            assert!(ts.as_f64().is_some(), "ts must be numeric: {ts:?}");
        }
        phases.insert(ph);
        tids.insert(tid);
    }
    (phases.into_iter().collect(), tids.into_iter().collect())
}

#[test]
fn top_profile_writes_a_valid_chrome_trace() {
    let dir = scratch_with_example("chrome-trace");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let trace_path = dir.join("trace.json");

    let out = run(&args(&[
        "top",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        &format!("--profile={}", trace_path.display()),
    ]))
    .expect("top with --profile=FILE");
    assert!(out.contains("wrote"), "{out}");

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let events = match parse(&text).expect("trace is valid JSON") {
        Value::Array(events) => events,
        other => panic!("trace_event export must be a JSON array, got {other:?}"),
    };
    assert!(!events.is_empty());
    let (phases, _tids) = check_trace(&events);
    for required in ["M", "B", "E", "i"] {
        assert!(
            phases.iter().any(|p| p == required),
            "trace must contain ph={required:?} events, saw {phases:?}"
        );
    }
}

#[test]
fn batch_profile_shows_fleet_worker_lanes() {
    let dir = scratch_with_example("fleet-lanes");
    let seq = dir.join("hospital.tms");
    let seq2 = dir.join("hospital2.tms");
    std::fs::copy(&seq, &seq2).expect("copy sequence");
    let query = dir.join("room_tracker.tmt");
    let trace_path = dir.join("batch-trace.json");

    run(&args(&[
        "batch",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        seq2.to_str().unwrap(),
        "--threads",
        "2",
        &format!("--profile={}", trace_path.display()),
    ]))
    .expect("batch with --profile=FILE");

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let events = match parse(&text).expect("trace is valid JSON") {
        Value::Array(events) => events,
        other => panic!("expected a JSON array, got {other:?}"),
    };
    let (_phases, tids) = check_trace(&events);
    assert!(
        tids.len() >= 3,
        "expected main + 2 worker lanes as distinct tids, saw {tids:?}"
    );
    // Worker lanes are named via thread_name metadata events.
    let names: Vec<&str> = events
        .iter()
        .map(obj)
        .filter(|o| matches!(o.get("ph"), Some(Value::Str(s)) if s == "M"))
        .filter_map(|o| match o.get("args").map(obj)?.get("name") {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    assert!(names.contains(&"main"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("worker-")), "{names:?}");
}

#[test]
fn flame_export_round_trips_through_the_folded_parser() {
    let dir = scratch_with_example("flame");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let flame_path = dir.join("profile.folded");

    run(&args(&[
        "top",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        &format!("--flame={}", flame_path.display()),
    ]))
    .expect("top with --flame=FILE");

    let text = std::fs::read_to_string(&flame_path).expect("folded file written");
    let stacks = parse_folded(&text).expect("folded output parses");
    assert!(!stacks.is_empty());
    // Every stack is rooted in a lane label and phase frames appear.
    for (frames, _self_ns) in &stacks {
        assert_eq!(frames[0], "main", "stacks are rooted in the lane label");
    }
    assert!(
        stacks.iter().any(|(f, _)| f.iter().any(|s| s == "execute")),
        "an execute frame must appear: {stacks:?}"
    );
}

#[test]
fn inline_profile_summary_appends_to_output() {
    let dir = scratch_with_example("inline");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");

    let out = run(&args(&[
        "top",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        "--profile",
        "--flame",
    ]))
    .expect("top with bare --profile --flame");
    assert!(out.contains("== profile =="), "{out}");
    assert!(out.contains("lane main"), "{out}");
    assert!(out.contains("== flame =="), "{out}");
    // The answers themselves still lead the output.
    assert!(out.starts_with("1 2"), "{out}");
}

#[test]
fn bench_json_snapshot_is_schema_stable() {
    let dir = scratch_with_example("bench-json");
    let json_path = dir.join("bench.json");

    let out = run(&args(&[
        "bench",
        "--runs",
        "1",
        "--iters",
        "1",
        "--json",
        json_path.to_str().unwrap(),
    ]))
    .expect("bench --json");
    assert!(out.contains("confidence/hospital"), "{out}");

    let text = std::fs::read_to_string(&json_path).expect("bench json written");
    let doc = parse(&text).expect("bench snapshot is valid JSON");
    let top = obj(&doc);
    assert!(
        matches!(top.get("suite"), Some(Value::Str(s)) if s == "tmk-bench"),
        "{text}"
    );
    assert!(matches!(top.get("schema"), Some(Value::Int(1))), "{text}");
    let cases = obj(top.get("cases").expect("cases object"));
    for name in [
        "confidence/hospital",
        "enumerate/hospital",
        "enumerate/indexed_dna",
        "enumerate/rfid_lab",
        "streaming/hospital",
        "confidence/rfid",
        "fleet/rfid",
        "source/tmsb_2e14",
        "top/sparse_2e14",
        "confidence/uniform_nfa",
        "confidence/general_blowup",
    ] {
        let case = obj(cases
            .get(name)
            .unwrap_or_else(|| panic!("case {name} missing from {text}")));
        for field in ["seed", "runs", "iters", "min_ns", "median_ns"] {
            assert!(
                case.contains_key(field),
                "case {name} missing field {field}: {text}"
            );
        }
    }
}

#[test]
fn bench_diff_fails_on_synthetic_regression() {
    let dir = scratch_with_example("bench-diff");
    let base = dir.join("base.json");
    let slow = dir.join("slow.json");

    run(&args(&[
        "bench",
        "--runs",
        "1",
        "--iters",
        "1",
        "--json",
        base.to_str().unwrap(),
    ]))
    .expect("baseline bench");

    // Synthesize a >15% regression on one case by inflating its min_ns.
    let text = std::fs::read_to_string(&base).expect("baseline written");
    let mut cases = transmark::bench::from_json(&text).expect("parse own snapshot");
    cases[0].min_ns = cases[0].min_ns * 2 + 1_000_000;
    std::fs::write(&slow, transmark::bench::to_json(&cases)).expect("write regressed snapshot");

    let err = run(&args(&[
        "bench",
        "--diff",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
    ]))
    .expect_err("a >15% regression must fail the diff");
    assert!(format!("{err}").contains("regress"), "{err}");

    // The reflexive diff passes.
    let out = run(&args(&[
        "bench",
        "--diff",
        base.to_str().unwrap(),
        base.to_str().unwrap(),
    ]))
    .expect("identical snapshots must pass");
    assert!(!out.contains("REGRESSED"), "{out}");
}

/// A recorded sliding window summarises its slides: one `window.slide`
/// instant per 64 slides plus one for the rest when the session drops,
/// each carrying its count and last tick, so the profile still counts
/// every slide and the Chrome trace shows them as one counter lane
/// whose tick ranges tile the slid ticks.
#[test]
fn window_slides_are_summarised_per_batch() {
    use std::sync::Arc;
    use transmark::automata::{Nfa, SymbolId};
    use transmark::engine::incremental::SlidingWindowQuery;
    use transmark::markov::generate::{random_markov_sequence, RandomChainSpec};
    use transmark::obs::profile::{EventKind, Recorder};

    let mut nfa = Nfa::new(2);
    let (q0, q1) = (nfa.add_state(false), nfa.add_state(true));
    for s in 0..2 {
        nfa.add_transition(q0, SymbolId(s), if s == 1 { q1 } else { q0 });
        nfa.add_transition(q1, SymbolId(s), q1);
    }
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
    let m = random_markov_sequence(
        &RandomChainSpec {
            len: 200,
            n_symbols: 2,
            zero_prob: 0.2,
        },
        &mut rng,
    );
    let q = SlidingWindowQuery::new(nfa, 4).unwrap();
    let rec = Arc::new(Recorder::new());
    rec.scope(|| q.series(&m).unwrap());
    let profile = rec.finish();

    // 199 matrices; the window of 4 positions first slides on the 4th.
    let slides = 199 - 3;
    assert_eq!(profile.instants["window.slide"], slides);
    let summaries: Vec<_> = profile
        .lanes
        .iter()
        .flat_map(|l| &l.events)
        .filter(|e| e.kind == EventKind::Instant && e.name == "window.slide")
        .collect();
    assert_eq!(summaries.len(), 4, "three full batches of 64 and the rest");
    let mut next_tick = 4;
    for e in &summaries {
        assert_eq!(e.tick + 1 - e.value, next_tick);
        next_tick = e.tick + 1;
    }
    assert_eq!(next_tick, 200);

    let trace = transmark::obs::trace::chrome_trace(&profile);
    let events = match parse(&trace).expect("trace is valid JSON") {
        Value::Array(events) => events,
        other => panic!("trace_event export must be a JSON array, got {other:?}"),
    };
    let lane: Vec<_> = events
        .iter()
        .map(obj)
        .filter(|o| matches!(o.get("name"), Some(Value::Str(n)) if n == "window.slide"))
        .collect();
    assert_eq!(lane.len(), 4);
    for o in &lane {
        assert!(matches!(o.get("ph"), Some(Value::Str(p)) if p == "C"));
    }
    let last = obj(lane[3].get("args").expect("summary args"));
    assert!(matches!(last.get("total"), Some(Value::Int(n)) if *n == slides));
    assert!(matches!(last.get("last_tick"), Some(Value::Int(199))));
}
