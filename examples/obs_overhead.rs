//! Metrics-overhead micro-benchmark, driven by `scripts/check.sh`.
//!
//! Prints two lines: `ns_per_iter <N>` — the minimum over several
//! repetitions of the per-call cost of a fixed confidence workload —
//! and `ns_per_iter_recorded <M>` — the same workload timed inside an
//! active query-scoped [`Recorder`](transmark_obs::Recorder), so the
//! timeline-event path (span begin/end, layer progress) is also priced.
//! The check script builds this example twice — default features and
//! `--features obs-off` — runs the two back to back over many rounds,
//! and fails if the median paired ratio of either instrumented figure
//! is more than ~5% above the `obs-off` baseline, which keeps every
//! counter/histogram/span/timeline event on the hot paths honest about
//! its cost.
//!
//! Within one run, min-of-N is the standard trick for a noisy shared
//! machine: the minimum is the repetition least disturbed by
//! scheduling, so it estimates the cost floor of the run.
//!
//! The example doubles as a regression guard for span-path interning:
//! after warm-up, repeated traversals of the same span paths must not
//! grow the interner (each `enter` resolves through a thread-local
//! cache — no allocation, no global lock).

use std::hint::black_box;
use std::time::Instant;

use transmark_automata::Alphabet;
use transmark_core::transducer::Transducer;
use transmark_markov::MarkovSequenceBuilder;

const REPS: usize = 7;
const ITERS: usize = 300;

fn main() {
    // A workload where the DP dominates and the per-layer
    // instrumentation is amortized: identity transducer over a 256-step
    // uniform chain on an 8-symbol alphabet (so each layer moves |Σ|² =
    // 64 transitions — a degenerate 2-symbol layer would mis-measure the
    // fixed per-layer counter cost as a large relative overhead no real
    // query sees), scoring the most likely world.
    let alphabet = Alphabet::of_chars("abcdefgh");
    let m = MarkovSequenceBuilder::new(alphabet.clone(), 256)
        .uniform_all()
        .build()
        .expect("uniform chain builds");
    let mut b = Transducer::builder(alphabet.clone(), alphabet);
    let q = b.add_state(true);
    for s in 0..8u32 {
        let s = transmark_automata::SymbolId(s);
        b.add_transition(q, s, q, &[s])
            .expect("identity transition");
    }
    let t = b.build().expect("identity transducer builds");
    let (o, _) = m.most_likely_string();

    let plan = transmark_core::prepare(&t);
    // Pin the sparse CSR walk: this guard prices the *instrumentation*,
    // so the underlying workload must stay fixed even when the planner
    // learns a faster strategy for it (a faster denominator would turn
    // the same absolute counter cost into a budget-busting ratio).
    let bound = plan
        .bind_with_strategy(&m, Some(transmark_core::plan::Strategy::Sparse))
        .expect("alphabets match");
    // Warm-up: fault in caches and pages before timing.
    for _ in 0..10 {
        black_box(bound.confidence(black_box(&o)).expect("valid output"));
    }

    // The warm-up above interned every span path this workload touches;
    // the timed runs below must not mint new ones (satellite of the
    // interning fix: repeat `enter`s hit the thread-local cache).
    let interned_after_warmup = transmark_obs::span::interned_paths();

    let mut best = u128::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..ITERS {
            black_box(bound.confidence(black_box(&o)).expect("valid output"));
        }
        best = best.min(start.elapsed().as_nanos() / ITERS as u128);
    }
    println!("ns_per_iter {best}");

    // Same workload, but with a query-scoped recorder active, so every
    // span also appends timeline events. This is the figure the 5%
    // guard compares against the obs-off baseline to price profiling.
    let recorder = std::sync::Arc::new(transmark_obs::Recorder::new());
    let mut best_recorded = u128::MAX;
    for _ in 0..REPS {
        let scope = recorder.install("main".to_string());
        let start = Instant::now();
        for _ in 0..ITERS {
            black_box(bound.confidence(black_box(&o)).expect("valid output"));
        }
        best_recorded = best_recorded.min(start.elapsed().as_nanos() / ITERS as u128);
        drop(scope);
    }
    println!("ns_per_iter_recorded {best_recorded}");

    if transmark_obs::enabled() {
        let profile = recorder.finish();
        assert!(
            profile.phases.contains_key("execute"),
            "recorded runs must capture the execute phase"
        );
        assert_eq!(
            transmark_obs::span::interned_paths(),
            interned_after_warmup,
            "timed runs re-interned span paths: the thread-local id cache regressed"
        );
    }
}
