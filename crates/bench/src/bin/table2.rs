//! Empirical Table 2: measured runtimes / delays / ratios for every cell
//! of the paper's complexity summary, plus the experiments around it.
//!
//! The paper's Table 2 is a complexity matrix; this binary measures each
//! cell on scaled synthetic instances so the *shape* of the theory is
//! visible: polynomial cells stay flat as the hard parameter grows,
//! exponential cells blow up in the predicted parameter (|Q| for
//! Theorem 4.8, |Q_E| for Theorem 5.5, configuration count for the
//! general case), and the approximation columns show the measured
//! `E_max` / `I_max` ratios.
//!
//! Three sections follow the table's rows, each printed as a markdown
//! table for EXPERIMENTS.md:
//! * BASELINE — the naive two-step plan against ranked top-5 (§1, §3.2);
//! * ABLATION — the design choices called out in DESIGN.md;
//! * STREAMING — materialized vs streamed passes over n = 2^10 … 2^17,
//!   asserted bit-identical before they are timed.
//!
//! Run with: `cargo run --release -p transmark-bench --bin table2`

use std::hint::black_box;
use std::sync::Arc;

use rand::{rngs::StdRng, SeedableRng};
use transmark_automata::{Alphabet, Nfa, StateId, SymbolId};
use transmark_bench::{fmt_time, instance_with_answer, sproj_instance, time_median};
use transmark_core::confidence::{
    confidence_deterministic, confidence_general, confidence_uniform_nfa,
};
use transmark_core::generate::TransducerClass;
use transmark_core::transducer::Transducer;
use transmark_core::{prepare, PreparedEventQuery, StreamQuery};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::source::materialize;
use transmark_markov::StepSource;
use transmark_sproj::compile::to_transducer;
use transmark_sproj::indexed::IndexedEvaluator;
use transmark_sproj::{
    enumerate_by_imax, enumerate_by_imax_lawler, enumerate_indexed, sproj_confidence,
};
use transmark_workloads::cyclic::CyclicSource;
use transmark_workloads::gadgets;

fn main() {
    println!("=== Empirical Table 2: Complexity of transducing Markov sequences ===\n");
    row1_confidence();
    row2_ranked_delays();
    row3_inapproximability();
    baseline();
    ablation();
    streaming();
}

/// Row 1: confidence computation, one column per transducer class.
fn row1_confidence() {
    println!("--- Row 1: confidence computation (median wall time) ---\n");

    println!("general (exact; worst-case exponential in reachable configurations — Prop 4.7):");
    for nq in [2usize, 3, 4, 5] {
        let (t, m, o) = instance_with_answer(TransducerClass::General, 12, nq, 3, 42);
        let dt = time_median(5, || {
            let _ = confidence_general(&t, &m, &o).expect("confidence");
        });
        println!(
            "  |Q| = {nq}: n = 12, |o| = {:<3} {:>12}",
            o.len(),
            fmt_time(dt)
        );
    }

    println!("\ngeneral, FIXED machine (Thm 4.9 regime — data complexity of the exact algorithm):");
    for n in [8usize, 12, 16, 20, 24] {
        let (t, m, o) = transmark_workloads::gadgets::confidence_blowup(n);
        let dt = time_median(3, || {
            let _ = confidence_general(&t, &m, &o).expect("confidence");
        });
        println!(
            "  n = {n:>2}: |o| = {:<3}            {:>12}",
            o.len(),
            fmt_time(dt)
        );
    }

    println!("\nuniform emission, nondeterministic (Thm 4.8; exponential in |Q| only):");
    for nq in [2usize, 4, 6, 8, 10] {
        let (t, m, o) = instance_with_answer(TransducerClass::Uniform(1), 32, nq, 3, 7);
        let dt = time_median(5, || {
            let _ = confidence_uniform_nfa(&t, &m, &o).expect("confidence");
        });
        println!("  |Q| = {nq:>2}: n = 32              {:>12}", fmt_time(dt));
    }

    println!("\ndeterministic (Thm 4.6; polynomial — flat in |Q| and n):");
    for (nq, n) in [(4usize, 64usize), (16, 64), (16, 256), (64, 256)] {
        let (t, m, o) = instance_with_answer(TransducerClass::Deterministic, n, nq, 3, 11);
        let dt = time_median(5, || {
            let _ = confidence_deterministic(&t, &m, &o).expect("confidence");
        });
        println!(
            "  |Q| = {nq:>2}, n = {n:>3}: |o| = {:<4} {:>12}",
            o.len(),
            fmt_time(dt)
        );
    }

    println!("\ns-projector (Thm 5.5; exponential only in |Q_E| — Thm 5.4 forces this):");
    for qe in [2usize, 4, 6, 8] {
        let (p, m, o) = sproj_instance(48, 3, 3, qe, 19);
        let dt = time_median(5, || {
            let _ = sproj_confidence(&p, &m, &o).expect("confidence");
        });
        println!("  |Q_E| = {qe}: n = 48, |Q_B| = 3    {:>12}", fmt_time(dt));
    }

    println!("\nindexed s-projector (Thm 5.8; polynomial in everything):");
    for n in [64usize, 256, 1024] {
        let (p, m, o) = sproj_instance(n, 3, 4, 4, 23);
        let ev = IndexedEvaluator::new(&p, &m).expect("evaluator");
        let dt_build = time_median(5, || {
            let _ = IndexedEvaluator::new(&p, &m).expect("evaluator");
        });
        let dt_query = time_median(20, || {
            let _ = ev.confidence(&o, 1.max(n / 2));
        });
        println!(
            "  n = {n:>4}: tables {:>10}, per-query {:>10}",
            fmt_time(dt_build),
            fmt_time(dt_query)
        );
    }
    println!();
}

/// Row 2: ranked evaluation — measured delay per answer for each order.
fn row2_ranked_delays() {
    println!("--- Row 2: ranked evaluation (mean delay over the first k answers) ---\n");
    let k = 20;

    let (t, m, _) = instance_with_answer(TransducerClass::Deterministic, 24, 3, 3, 5);
    let dt = time_median(3, || {
        let _ = prepare(&t)
            .bind(&m)
            .expect("bind")
            .unranked()
            .expect("enumerate")
            .take(k)
            .count();
    });
    println!(
        "  unranked, poly delay + poly space (Thm 4.1):   {:>10}/answer",
        fmt_time(dt / k as f64)
    );

    let dt = time_median(3, || {
        let _ = prepare(&t)
            .bind(&m)
            .expect("bind")
            .ranked()
            .expect("enumerate")
            .take(k)
            .count();
    });
    println!(
        "  decreasing E_max (Thm 4.3, ratio |Σ|^n):       {:>10}/answer",
        fmt_time(dt / k as f64)
    );

    let (p, m, _) = sproj_instance(48, 3, 3, 3, 29);
    let dt = time_median(3, || {
        let _ = enumerate_by_imax(&p, &m)
            .expect("enumerate")
            .take(k)
            .count();
    });
    println!(
        "  decreasing I_max (Thm 5.2, ratio n):           {:>10}/answer",
        fmt_time(dt / k as f64)
    );

    let dt = time_median(3, || {
        let _ = enumerate_indexed(&p, &m)
            .expect("enumerate")
            .take(k)
            .count();
    });
    println!(
        "  decreasing confidence, indexed (Thm 5.7):      {:>10}/answer",
        fmt_time(dt / k as f64)
    );
    println!();
}

/// Row 3: measured inapproximability ratios on the gadget families.
fn row3_inapproximability() {
    println!("--- Row 3: approximation of the top answer (measured ratios) ---\n");
    println!("  one-state Mealy machine (Thm 4.4 regime, analytic ratio 1.5^n):");
    for n in [4usize, 8, 12] {
        let (t, m) = gadgets::emax_gap(n);
        let bound = prepare(&t).bind(&m).expect("bind");
        let top_e = bound.top().expect("emax").expect("answers exist");
        let conf_of_emax_top = bound.confidence(&top_e.output).expect("confidence");
        // True top is all-y with confidence 0.6^n (analytic; brute force
        // would be exponential here).
        let conf_best = 0.6f64.powi(n as i32);
        println!(
            "    n = {n:>2}: conf(true top)/conf(E_max top) = {:>10.2} (analytic {:.2})",
            conf_best / conf_of_emax_top,
            gadgets::emax_gap_expected_ratio(n)
        );
    }
    println!("\n  simple s-projector (Thm 5.2/5.3 regime, ratio ≤ n):");
    for n in [8usize, 32, 128] {
        let (p, m) = gadgets::imax_gap(n);
        let a = [m.alphabet().sym("a")];
        let conf = sproj_confidence(&p, &m, &a).expect("confidence");
        let imax = transmark_sproj::enumerate::imax_of_output(&p, &m, &a).expect("imax");
        println!(
            "    n = {n:>3}: conf/I_max = {:>7.2} (bound: n = {n})",
            conf / imax
        );
    }
    println!("\n  indexed s-projector: exact order — ratio 1 by construction (Thm 5.7).");
    println!();
}

/// BASELINE: the naive two-step plan — Theorem 4.1 enumeration of *all*
/// answers, each scored with the Theorem 4.6 confidence DP — against
/// Theorem 4.3 enumeration stopped after 5 answers and scored the same
/// way. As n grows the answer count explodes and the gap widens: the
/// measured form of "the cost of producing even one valuable answer may
/// be prohibitively high" (§3.2).
fn baseline() {
    println!("--- BASELINE: two-step full evaluation vs ranked top-5 (median wall time) ---\n");
    println!("| n | answers | two-step full evaluation | ranked top-5 | speedup |");
    println!("|---|---|---|---|---|");
    for n in [6usize, 10, 14] {
        let (t, m, _) = instance_with_answer(TransducerClass::Deterministic, n, 3, 3, 77);
        let score = |o: &[SymbolId]| {
            prepare(&t)
                .bind(&m)
                .expect("bind")
                .confidence(o)
                .expect("confidence")
        };
        let answers = prepare(&t)
            .bind(&m)
            .expect("bind")
            .unranked()
            .expect("enumerate")
            .count();
        let two_step = time_median(3, || {
            let mut total = 0.0;
            for o in prepare(&t)
                .bind(&m)
                .expect("bind")
                .unranked()
                .expect("enumerate")
            {
                total += score(&o);
            }
            black_box(total);
        });
        let ranked = time_median(5, || {
            let mut total = 0.0;
            for r in prepare(&t)
                .bind(&m)
                .expect("bind")
                .ranked()
                .expect("enumerate")
                .take(5)
            {
                total += score(&r.output);
            }
            black_box(total);
        });
        println!(
            "| {n} | {answers} | {} | {} | {:.1}× |",
            fmt_time(two_step),
            fmt_time(ranked),
            two_step / ranked
        );
    }
    println!();
}

/// Clones a transducer, appending one unreachable state with an emission
/// of a different length, so `uniform_emission()` returns `None` and the
/// general DP is exercised on identical reachable behaviour.
fn defeat_uniformity(t: &Transducer) -> Transducer {
    let mut b = Transducer::builder(t.input_alphabet_arc(), t.output_alphabet_arc());
    for q in 0..t.n_states() {
        b.add_state(t.is_accepting(StateId(q as u32)));
    }
    let ghost = b.add_state(false);
    b.set_initial(t.initial());
    for (from, sym, e) in t.transitions() {
        let em = t.emission(e.emission).to_vec();
        b.add_transition(from, sym, e.target, &em)
            .expect("copy is valid");
    }
    // Unreachable ghost edges (no incoming transitions): one long emission
    // defeats uniformity; the rest keep the machine a complete DFA, since
    // `confidence_deterministic` (rightly) rejects partial machines.
    let long = vec![SymbolId(0); t.max_emission_len() + 1];
    b.add_transition(ghost, SymbolId(0), ghost, &long)
        .expect("ghost edge is valid");
    for s in 1..t.n_input_symbols() {
        b.add_transition(ghost, SymbolId(s as u32), ghost, &[])
            .expect("ghost edge is valid");
    }
    let out = b.build().expect("ghost copy builds");
    assert_eq!(out.uniform_emission(), None);
    assert!(
        out.is_deterministic(),
        "ablation needs the deterministic path"
    );
    out
}

/// ABLATION: the design choices called out in DESIGN.md, each against
/// the route it replaces on the same instance.
fn ablation() {
    println!("--- ABLATION: design choices (median wall time) ---\n");

    println!("Thm 4.6 k-uniform fast path vs the general output-position DP (Mealy, |Q| = 6):\n");
    println!("| n | fast k-uniform | general position DP | speedup |");
    println!("|---|---|---|---|");
    for n in [64usize, 256] {
        let (t, m, o) = instance_with_answer(TransducerClass::Mealy, n, 6, 3, 3);
        let slow = defeat_uniformity(&t);
        let fast_dt = time_median(21, || {
            black_box(confidence_deterministic(&t, &m, &o).expect("confidence"));
        });
        let slow_dt = time_median(21, || {
            black_box(confidence_deterministic(&slow, &m, &o).expect("confidence"));
        });
        println!(
            "| {n} | {} | {} | {:.1}× |",
            fmt_time(fast_dt),
            fmt_time(slow_dt),
            slow_dt / fast_dt
        );
    }

    println!("\ns-projector confidence: Thm 5.5 concatenation language vs the general exact algorithm on the compiled transducer (|Q_B| = |Q_E| = 3):\n");
    println!("| n | Thm 5.5 route | general on compiled |");
    println!("|---|---|---|");
    for n in [16usize, 32] {
        let (p, m, o) = sproj_instance(n, 3, 3, 3, 41);
        let compiled = to_transducer(&p).expect("compiles");
        let concat_dt = time_median(11, || {
            black_box(sproj_confidence(&p, &m, &o).expect("confidence"));
        });
        let general_dt = time_median(11, || {
            black_box(confidence_general(&compiled, &m, &o).expect("confidence"));
        });
        println!(
            "| {n} | {} | {} |",
            fmt_time(concat_dt),
            fmt_time(general_dt)
        );
    }

    println!("\nfirst answer of an s-projector query, three routes (|Q_B| = |Q_E| = 3):\n");
    println!(
        "| n | indexed DAG (Thm 5.7) | Lawler I_max (Lemma 5.10) | E_max on compiled (Thm 4.3) |"
    );
    println!("|---|---|---|---|");
    for n in [16usize, 32] {
        let (p, m, _) = sproj_instance(n, 3, 3, 3, 53);
        let compiled = to_transducer(&p).expect("compiles");
        let indexed_dt = time_median(11, || {
            black_box(enumerate_indexed(&p, &m).expect("enumerate").next());
        });
        let lawler_dt = time_median(11, || {
            black_box(enumerate_by_imax_lawler(&p, &m).expect("enumerate").next());
        });
        let emax_dt = time_median(11, || {
            black_box(
                prepare(&compiled)
                    .bind(&m)
                    .and_then(|b| b.top())
                    .expect("top"),
            );
        });
        println!(
            "| {n} | {} | {} | {} |",
            fmt_time(indexed_dt),
            fmt_time(lawler_dt),
            fmt_time(emax_dt)
        );
    }
    println!();
}

/// Alphabet size and pool length of the streaming sweep's source.
const STREAM_SYMBOLS: usize = 8;
const STREAM_POOL: usize = 16;

/// Boolean event query: has seen the last symbol.
fn seen_last_symbol() -> Nfa {
    let mut nfa = Nfa::new(STREAM_SYMBOLS);
    let q0 = nfa.add_state(false);
    let acc = nfa.add_state(true);
    for s in 0..STREAM_SYMBOLS as u32 {
        let target = if s as usize == STREAM_SYMBOLS - 1 {
            acc
        } else {
            q0
        };
        nfa.add_transition(q0, SymbolId(s), target);
        nfa.add_transition(acc, SymbolId(s), acc);
    }
    nfa
}

/// Deterministic, non-uniform transducer: emits `0` whenever symbol 0
/// occurs — its confidence DP is the Thm 4.6 forward pass whose output
/// length stays fixed as n grows.
fn emit_on_zero(alphabet: &Arc<Alphabet>) -> Transducer {
    let mut b = Transducer::builder(Arc::clone(alphabet), Arc::clone(alphabet));
    let q = b.add_state(true);
    for s in 0..STREAM_SYMBOLS as u32 {
        let emit: &[SymbolId] = if s == 0 { &[SymbolId(0)] } else { &[] };
        b.add_transition(q, SymbolId(s), q, emit)
            .expect("valid transition");
    }
    b.build().expect("transducer builds")
}

/// `Pr(S ∈ L(A))` folded straight off a source, never materializing it.
fn acceptance_streamed(query: &StreamQuery, src: &mut CyclicSource) -> f64 {
    let mut sess = query.start(src.initial()).expect("session starts");
    sess.drain(src, false).expect("drain")[0]
}

/// STREAMING: acceptance and confidence over n = 2^10 … 2^17 positions,
/// materialized vs streamed. The streamed side pulls layers from a
/// [`CyclicSource`], so its peak sequence memory is one `|Σ|²` layer
/// regardless of n; the materialized side first drains the same source
/// into a `MarkovSequence` (the flat `8·|Σ|²·(n−1)`-byte buffer) and runs
/// the in-memory pass. Both sides are asserted bit-identical at every
/// length before they are timed.
fn streaming() {
    // The pool (and the initial distribution) come from a small random
    // chain, so every layer is a validated distribution.
    let donor = random_markov_sequence(
        &RandomChainSpec {
            len: STREAM_POOL + 1,
            n_symbols: STREAM_SYMBOLS,
            zero_prob: 0.4,
        },
        &mut StdRng::seed_from_u64(42),
    );
    let source = |n| CyclicSource::new(&donor, n);
    let nfa = seen_last_symbol();
    let event = PreparedEventQuery::new(nfa.clone());
    let streamed = StreamQuery::Series(nfa);
    let t = emit_on_zero(donor.alphabet_ref());
    let o = vec![SymbolId(0)];
    let layer_bytes = 8 * STREAM_SYMBOLS * STREAM_SYMBOLS;

    println!(
        "--- STREAMING: materialized vs streamed length sweep (|Σ| = {STREAM_SYMBOLS}, pool = {STREAM_POOL} layers, median wall time) ---\n"
    );
    println!(
        "| n | acceptance (materialized) | acceptance (streamed) | confidence (materialized) | confidence (streamed) | seq memory (materialized) | seq memory (streamed) |"
    );
    println!("|---|---|---|---|---|---|---|");
    for exp in 10..=17u32 {
        let n = 1usize << exp;
        let reps = if exp <= 13 { 5 } else { 3 };

        // Bit-identity first: the sweep only times passes that agree.
        let m = materialize(&mut source(n)).expect("cyclic source is valid");
        let acc_mat = event.acceptance(&m).expect("acceptance");
        let acc_str = acceptance_streamed(&streamed, &mut source(n));
        assert_eq!(
            acc_mat.to_bits(),
            acc_str.to_bits(),
            "acceptance at n = {n}"
        );
        let conf_mat = prepare(&t)
            .bind(&m)
            .expect("bind")
            .confidence(&o)
            .expect("confidence");
        let conf_str = prepare(&t)
            .bind_source(&mut source(n))
            .expect("bind")
            .confidence(&o)
            .expect("confidence");
        assert_eq!(
            conf_mat.to_bits(),
            conf_str.to_bits(),
            "confidence at n = {n}"
        );

        let t_acc_mat = time_median(reps, || {
            let m = materialize(&mut source(n)).expect("cyclic source is valid");
            black_box(event.acceptance(&m).expect("acceptance"));
        });
        let t_acc_str = time_median(reps, || {
            black_box(acceptance_streamed(&streamed, &mut source(n)));
        });
        let t_conf_mat = time_median(reps, || {
            let m = materialize(&mut source(n)).expect("cyclic source is valid");
            black_box(
                prepare(&t)
                    .bind(&m)
                    .expect("bind")
                    .confidence(&o)
                    .expect("confidence"),
            );
        });
        let t_conf_str = time_median(reps, || {
            black_box(
                prepare(&t)
                    .bind_source(&mut source(n))
                    .expect("bind")
                    .confidence(&o)
                    .expect("confidence"),
            );
        });

        let mat_bytes = layer_bytes * (n - 1);
        println!(
            "| 2^{exp} = {n} | {} | {} | {} | {} | {:.1} MiB | {} B |",
            fmt_time(t_acc_mat),
            fmt_time(t_acc_str),
            fmt_time(t_conf_mat),
            fmt_time(t_conf_str),
            mat_bytes as f64 / (1024.0 * 1024.0),
            layer_bytes,
        );
    }
    println!(
        "\n(materialized timings include draining the source into the flat \
         buffer, which is what a consumer without the streaming path must do; \
         sequence memory excludes the O(|Σ|² + reachable subsets) DP state \
         both sides share)"
    );
}
