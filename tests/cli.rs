//! Integration tests for the `tmk` command-line interface (driven through
//! `transmark::cli::run`, no subprocesses).

use transmark::cli::run;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A scratch directory under the target dir, unique per test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("transmark-cli-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn export_then_query_round_trip() {
    let dir = scratch("roundtrip");
    let out = run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    assert!(out.contains("hospital.tms"));
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");

    // show
    let out = run(&args(&["show", seq.to_str().unwrap()])).expect("show");
    assert!(out.contains("length 5"), "{out}");
    assert!(out.contains("r1a"), "{out}");

    // map: the most likely world is Table 1's string s.
    let out = run(&args(&["map", seq.to_str().unwrap()])).expect("map");
    assert!(out.starts_with("r1a la la r1a r2a"), "{out}");

    // top: the first answer is "1 2" with the paper's confidence.
    let out = run(&args(&[
        "top",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        "--k",
        "2",
    ]))
    .expect("top");
    let first = out.lines().next().unwrap();
    assert!(first.starts_with("1 2"), "{out}");
    assert!(first.contains("0.403800"), "{out}");

    // confidence of "1 2" = 0.4038.
    let out = run(&args(&[
        "confidence",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        "1",
        "2",
    ]))
    .expect("confidence");
    let value: f64 = out.trim().parse().expect("a number");
    assert!((value - 0.4038).abs() < 1e-9);

    // evidences of "1 2" are s, t, u in decreasing probability.
    let out = run(&args(&[
        "evidences",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        "--k",
        "5",
        "1",
        "2",
    ]))
    .expect("evidences");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "{out}");
    assert!(lines[0].starts_with("r1a la la r1a r2a"));
    assert!(lines[1].starts_with("r1a r1a la r1a r2a"));
    assert!(lines[2].starts_with("la r1b r1b r1a r2a"));

    // enumerate lists every answer once.
    let out = run(&args(&[
        "enumerate",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
    ]))
    .expect("enumerate");
    let mut answers: Vec<&str> = out.lines().collect();
    let count = answers.len();
    answers.sort_unstable();
    answers.dedup();
    assert_eq!(answers.len(), count, "duplicate answers in {out}");
    assert!(answers.contains(&"1 2"));
    assert!(answers.contains(&"ε"));

    // sample is deterministic per seed and emits valid worlds.
    let a = run(&args(&[
        "sample",
        seq.to_str().unwrap(),
        "--count",
        "4",
        "--seed",
        "7",
    ]))
    .expect("sample");
    let b = run(&args(&[
        "sample",
        seq.to_str().unwrap(),
        "--count",
        "4",
        "--seed",
        "7",
    ]))
    .expect("sample again");
    assert_eq!(a, b);
    assert_eq!(a.lines().count(), 4);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_and_batch_commands() {
    let dir = scratch("explain");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let (seq, query) = (seq.to_str().unwrap(), query.to_str().unwrap());

    // --explain prepends the plan; results are unchanged.
    let plain = run(&args(&["top", seq, query, "--k", "2"])).expect("top");
    let explained = run(&args(&["top", seq, query, "--k", "2", "--explain"])).expect("explain");
    assert!(explained.contains("plan:"), "{explained}");
    assert!(explained.contains("Thm"), "{explained}");
    assert!(explained.ends_with(&plain), "{explained}");

    let out = run(&args(&["confidence", seq, query, "--explain", "1", "2"])).expect("confidence");
    assert!(out.contains("plan:"), "{out}");
    let value: f64 = out
        .lines()
        .last()
        .unwrap()
        .trim()
        .parse()
        .expect("a number");
    assert!((value - 0.4038).abs() < 1e-9);

    // batch: one plan, several sequence files, sections per file.
    let seq2 = dir.join("hospital2.tms");
    std::fs::copy(seq, &seq2).expect("copy sequence");
    let seq2 = seq2.to_str().unwrap();
    let out = run(&args(&["batch", query, seq, seq2, "--k", "1", "--explain"])).expect("batch");
    assert!(out.contains("plan:"), "{out}");
    assert!(out.contains(&format!("== {seq}")), "{out}");
    assert!(out.contains(&format!("== {seq2}")), "{out}");
    // Identical sequences get identical sections.
    let lines: Vec<&str> = out.lines().collect();
    let first = lines.iter().position(|l| l.starts_with("== ")).unwrap();
    assert_eq!(lines[first + 1], lines[first + 3], "{out}");
    assert!(lines[first + 1].contains("0.403800"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_are_reported() {
    let e = run(&[]).unwrap_err();
    assert_eq!(e.exit_code, 2);
    let e = run(&args(&["frobnicate"])).unwrap_err();
    assert_eq!(e.exit_code, 2);
    assert!(e.message.contains("unknown command"));
    let e = run(&args(&["show"])).unwrap_err();
    assert_eq!(e.exit_code, 2);
    let e = run(&args(&["sample", "x.tms", "--count"])).unwrap_err();
    assert!(e.message.contains("--count requires a value"));
}

#[test]
fn runtime_errors_are_reported() {
    let e = run(&args(&["show", "/nonexistent/file.tms"])).unwrap_err();
    assert_eq!(e.exit_code, 1);
    assert!(e.message.contains("cannot read"));

    // A malformed sequence file.
    let dir = scratch("badfile");
    let bad = dir.join("bad.tms");
    std::fs::write(&bad, "not a sequence").unwrap();
    let e = run(&args(&["show", bad.to_str().unwrap()])).unwrap_err();
    assert_eq!(e.exit_code, 1);
    assert!(e.message.contains("line 1"), "{}", e.message);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Files whose size fields claim far more than they hold get a one-line
/// error, never an allocation abort.
#[test]
fn show_rejects_sizes_the_file_cannot_back() {
    let dir = scratch("claims");
    for (file, bytes) in transmark::workloads::hostile::files() {
        let path = dir.join(file);
        std::fs::write(&path, bytes).unwrap();
        let e = run(&args(&["show", path.to_str().unwrap()])).unwrap_err();
        assert_eq!(e.exit_code, 1, "{file}: {}", e.message);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `.tmt` whose `states` line claims 4·10^9 states gets a one-line
/// error from `tmk top` at that line, never an allocation abort.
#[test]
fn top_rejects_states_the_text_cannot_back() {
    let dir = scratch("huge-states");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let query = dir.join("huge.tmt");
    std::fs::write(&query, transmark::workloads::hostile::HUGE_STATES_TMT).unwrap();
    let seq = dir.join("hospital.tms");
    let e = run(&args(&[
        "top",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert_eq!(e.exit_code, 1, "{}", e.message);
    assert!(!e.message.contains('\n'), "{}", e.message);
    assert!(e.message.contains("huge.tmt: line 4: "), "{}", e.message);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tmk stream` over files claiming 10^14 positions — plain series and
/// sliding window, text and binary — gets a one-line error once the file
/// runs out, never an allocation sized from the claim.
#[test]
fn stream_rejects_lengths_the_file_cannot_back() {
    let dir = scratch("stream-claims");
    // "has seen b", over the hostile files' alphabet {a, b}.
    let query = dir.join("seen_b.tmt");
    std::fs::write(
        &query,
        "transducer v1\ninput-alphabet a b\noutput-alphabet x\nstates 2\ninitial 0\n\
         accepting 1\nedge 0 a 0\nedge 0 b 1\nedge 1 a 1\nedge 1 b 1\n",
    )
    .unwrap();
    for (file, bytes) in transmark::workloads::hostile::files() {
        if !file.starts_with("long") {
            continue;
        }
        let path = dir.join(file);
        std::fs::write(&path, bytes).unwrap();
        for window in [None, Some("2")] {
            let mut argv = vec!["stream", query.to_str().unwrap(), path.to_str().unwrap()];
            argv.extend(window.iter().flat_map(|w| ["--window", *w]));
            let e = run(&args(&argv)).unwrap_err();
            assert_eq!(e.exit_code, 1, "{file} {window:?}: {}", e.message);
            assert!(!e.message.contains('\n'), "{file}: {}", e.message);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A window width sizes nothing up front: `--window 4294967295` over the
/// 5-position example prints what `--window 5` prints.
#[test]
fn stream_window_reserves_nothing_the_stream_cannot_back() {
    let dir = scratch("wide-window");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let stream = |w: &str| {
        run(&args(&[
            "stream",
            query.to_str().unwrap(),
            seq.to_str().unwrap(),
            "--window",
            w,
        ]))
        .expect("window stream")
    };
    assert_eq!(stream("4294967295"), stream("5"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A top-k `k` sizes nothing up front: `--k 4294967295` prints every
/// answer, as a `k` past their count does.
#[test]
fn top_k_reserves_nothing_the_answers_cannot_back() {
    let dir = scratch("huge-k");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let top = |k: &str| {
        run(&args(&[
            "top",
            seq.to_str().unwrap(),
            query.to_str().unwrap(),
            "--k",
            k,
        ]))
        .expect("top")
    };
    let all = top("4294967295");
    assert!(all.lines().count() < 4096, "{all}");
    assert_eq!(all, top("4096"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_output_symbol_is_rejected() {
    let dir = scratch("symbols");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let e = run(&args(&[
        "confidence",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        "bogus",
    ]))
    .unwrap_err();
    assert!(e.message.contains("unknown output symbol"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage() {
    let out = run(&args(&["help"])).expect("help");
    assert!(out.contains("USAGE"));
}

#[test]
fn sprojector_extraction_commands() {
    let dir = scratch("sproj");
    // A 4-step chain over {a, b}: mostly a's.
    let seq_text = "markov-sequence v1\nalphabet a b\nlength 4\ninitial 0.8 0.2\nstep 0\n0.8 0.2\n0.8 0.2\nstep 1\n0.8 0.2\n0.8 0.2\nstep 2\n0.8 0.2\n0.8 0.2\n";
    let proj_text = "sprojector v1\nalphabet ab\nprefix .*\npattern a+\nsuffix .*\n";
    let seq = dir.join("chain.tms");
    let proj = dir.join("runs.tmp");
    std::fs::write(&seq, seq_text).unwrap();
    std::fs::write(&proj, proj_text).unwrap();

    let out = run(&args(&[
        "extract",
        seq.to_str().unwrap(),
        proj.to_str().unwrap(),
        "--k",
        "3",
    ]))
    .expect("extract");
    assert_eq!(out.lines().count(), 3, "{out}");
    assert!(out.contains("I_max"), "{out}");
    assert!(out.lines().next().unwrap().starts_with('a'), "{out}");

    let out = run(&args(&[
        "occurrences",
        seq.to_str().unwrap(),
        proj.to_str().unwrap(),
        "--k",
        "4",
    ]))
    .expect("occurrences");
    assert_eq!(out.lines().count(), 4, "{out}");
    assert!(out.contains(" at "), "{out}");

    // Confidences in the occurrences listing are non-increasing.
    let confs: Vec<f64> = out
        .lines()
        .map(|l| l.rsplit('=').next().unwrap().trim().parse().unwrap())
        .collect();
    for w in confs.windows(2) {
        assert!(w[0] >= w[1] - 1e-9);
    }

    // A malformed projector file reports its line.
    let bad = dir.join("bad.tmp");
    std::fs::write(
        &bad,
        "sprojector v1\nalphabet ab\nprefix .*\npattern [a\nsuffix .*\n",
    )
    .unwrap();
    let e = run(&args(&[
        "extract",
        seq.to_str().unwrap(),
        bad.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert!(e.message.contains("line 4"), "{}", e.message);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn posterior_command_conditions_an_hmm() {
    let dir = scratch("posterior");
    let model = dir.join("weather.tmh");
    std::fs::write(
        &model,
        "hmm v1\nhidden rain sun\nobservations umbrella none\ninitial 0.5 0.5\ntransition\n0.7 0.3\n0.3 0.7\nemission\n0.9 0.1\n0.2 0.8\n",
    )
    .unwrap();
    let out_file = dir.join("posterior.tms");
    let out = run(&args(&[
        "posterior",
        model.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
        "umbrella",
        "umbrella",
        "none",
    ]))
    .expect("posterior");
    assert!(out.contains("wrote"), "{out}");
    // The written file is a valid sequence; its MAP string starts rainy.
    let shown = run(&args(&["map", out_file.to_str().unwrap()])).expect("map");
    assert!(shown.starts_with("rain rain"), "{shown}");
    // Without --out, the sequence is printed to stdout.
    let printed =
        run(&args(&["posterior", model.to_str().unwrap(), "umbrella"])).expect("posterior stdout");
    assert!(printed.starts_with("markov-sequence v1"), "{printed}");
    // Unknown observations are rejected.
    let e = run(&args(&["posterior", model.to_str().unwrap(), "snow"])).unwrap_err();
    assert!(e.message.contains("unknown observation"), "{}", e.message);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn convert_and_binary_inputs_round_trip() {
    let dir = scratch("convert");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let bin = dir.join("hospital.tmsb");

    // tms → tmsb streams and self-verifies.
    let out = run(&args(&[
        "convert",
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
    ]))
    .expect("convert to binary");
    assert!(out.contains("round trip verified"), "{out}");
    assert!(out.contains("5 positions"), "{out}");

    // tmsb → tms converts back.
    let back = dir.join("back.tms");
    run(&args(&[
        "convert",
        bin.to_str().unwrap(),
        back.to_str().unwrap(),
    ]))
    .expect("convert to text");

    // Same-format conversion is a usage error.
    let e = run(&args(&[
        "convert",
        seq.to_str().unwrap(),
        back.to_str().unwrap(),
    ]))
    .unwrap_err();
    assert_eq!(e.exit_code, 2);

    // Every sequence-taking command accepts the .tmsb directly, with
    // results identical to the text file.
    let shown = run(&args(&["show", bin.to_str().unwrap()])).expect("show tmsb");
    assert!(shown.contains("length 5"), "{shown}");
    let c_text = run(&args(&[
        "confidence",
        seq.to_str().unwrap(),
        query.to_str().unwrap(),
        "1",
        "2",
    ]))
    .expect("confidence tms");
    let c_bin = run(&args(&[
        "confidence",
        bin.to_str().unwrap(),
        query.to_str().unwrap(),
        "1",
        "2",
    ]))
    .expect("confidence tmsb");
    assert_eq!(c_text, c_bin);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_and_streaming_batch_commands() {
    let dir = scratch("streamcli");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let bin = dir.join("hospital.tmsb");
    run(&args(&[
        "convert",
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
    ]))
    .expect("convert");

    // stream: one running-probability line per position, identical for
    // both on-disk formats.
    let text_series = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
    ]))
    .expect("stream tms");
    let bin_series = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        bin.to_str().unwrap(),
    ]))
    .expect("stream tmsb");
    assert_eq!(text_series, bin_series);
    let lines: Vec<&str> = text_series.lines().collect();
    assert_eq!(lines.len(), 5, "{text_series}");
    assert!(lines[0].starts_with("t=1"), "{text_series}");
    assert!(lines[4].starts_with("t=5"), "{text_series}");

    // batch --confidence folds each file without materializing it; the
    // hospital example's confidence of "1 2" is 0.4038.
    let out = run(&args(&[
        "batch",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
        "--confidence",
        "1,2",
        "--threads",
        "0",
    ]))
    .expect("batch confidence");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    for line in &lines {
        let value: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((value - 0.4038).abs() < 1e-9, "{line}");
    }

    // Ranked batch over mixed formats with a thread fleet matches the
    // sequential run.
    let par = run(&args(&[
        "batch",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
        "--k",
        "1",
        "--threads",
        "2",
    ]))
    .expect("batch parallel");
    let sequential = run(&args(&[
        "batch",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
        "--k",
        "1",
    ]))
    .expect("batch sequential");
    assert_eq!(par, sequential);
    assert!(par.contains("0.403800"), "{par}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_checkpoint_resume_and_window() {
    let dir = scratch("streamckpt");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let ck = dir.join("state.ckpt");

    // The uninterrupted run is the oracle.
    let full = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
    ]))
    .expect("stream full");
    let full_lines: Vec<&str> = full.lines().collect();
    assert_eq!(full_lines.len(), 5, "{full}");

    // Suspend after 2 folded steps, then resume: the tail of the resumed
    // run must be byte-identical to the tail of the uninterrupted one.
    let first = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--checkpoint-at",
        "2",
        "--checkpoint-out",
        ck.to_str().unwrap(),
    ]))
    .expect("stream suspend");
    assert!(first.contains("checkpoint written"), "{first}");
    assert!(first.lines().take(3).eq(full_lines.iter().take(3).copied()));
    assert!(ck.exists());

    let resumed = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--resume",
        ck.to_str().unwrap(),
    ]))
    .expect("stream resume");
    let resumed_lines: Vec<&str> = resumed.lines().collect();
    assert!(resumed_lines[0].starts_with("resumed at t=3"), "{resumed}");
    assert_eq!(&resumed_lines[1..], &full_lines[3..], "{resumed}");

    // --window 1 at t is the marginal acceptance of position t alone;
    // just pin shape and that it differs from the full fold.
    let windowed = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--window",
        "2",
    ]))
    .expect("stream window");
    assert_eq!(windowed.lines().count(), 5, "{windowed}");
    assert_ne!(windowed, full);

    // Windowed sessions checkpoint and resume bit-identically too.
    let wck = dir.join("window.ckpt");
    run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--window",
        "2",
        "--checkpoint-at",
        "3",
        "--checkpoint-out",
        wck.to_str().unwrap(),
    ]))
    .expect("window suspend");
    let wresumed = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--window",
        "2",
        "--resume",
        wck.to_str().unwrap(),
    ]))
    .expect("window resume");
    let wlines: Vec<&str> = windowed.lines().collect();
    assert_eq!(
        wresumed.lines().skip(1).collect::<Vec<_>>(),
        &wlines[4..],
        "{wresumed}"
    );

    // Flag validation: --checkpoint-at without --checkpoint-out is a
    // usage error, mismatched strategy is a runtime error.
    assert!(run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--checkpoint-at",
        "1",
    ]))
    .is_err());
    assert!(run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--window",
        "2",
        "--strategy",
        "dense",
    ]))
    .is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn monitor_multiplexes_streams() {
    let dir = scratch("monitorcli");
    run(&args(&["export-example", dir.to_str().unwrap()])).expect("export");
    let seq = dir.join("hospital.tms");
    let query = dir.join("room_tracker.tmt");
    let bin = dir.join("hospital.tmsb");
    run(&args(&[
        "convert",
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
    ]))
    .expect("convert");

    // The monitor's per-stream series (mixed on-disk formats, 2 workers)
    // is byte-identical to `tmk stream` on each file alone.
    let solo = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
    ]))
    .expect("stream");
    let out = run(&args(&[
        "monitor",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        bin.to_str().unwrap(),
        "--series",
        "--threads",
        "2",
    ]))
    .expect("monitor series");
    let expected = format!("== {}\n{solo}== {}\n{solo}", seq.display(), bin.display());
    assert_eq!(out, expected);

    // Default (final-probability) report: one `==` header and one
    // summary line per stream, in input order.
    let out = run(&args(&[
        "monitor",
        query.to_str().unwrap(),
        bin.to_str().unwrap(),
        seq.to_str().unwrap(),
    ]))
    .expect("monitor final");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert!(
        lines[0].starts_with(&format!("== {}", bin.display())),
        "{out}"
    );
    assert!(lines[1].contains("(5 positions)"), "{out}");
    let last_solo = solo.lines().last().unwrap();
    let p = last_solo.split_whitespace().last().unwrap();
    assert!(lines[1].contains(p), "{out}");

    // Windowed monitoring matches `tmk stream --window` per stream.
    let solo_w = run(&args(&[
        "stream",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--window",
        "3",
    ]))
    .expect("stream window");
    let out = run(&args(&[
        "monitor",
        query.to_str().unwrap(),
        seq.to_str().unwrap(),
        "--window",
        "3",
        "--series",
        "--batch",
        "2",
    ]))
    .expect("monitor window");
    assert_eq!(out, format!("== {}\n{solo_w}", seq.display()));

    let _ = std::fs::remove_dir_all(&dir);
}
