//! Empirical Table 2: measured runtimes / delays / ratios for every cell
//! of the paper's complexity summary.
//!
//! The paper's Table 2 is a complexity matrix; this binary measures each
//! cell on scaled synthetic instances so the *shape* of the theory is
//! visible: polynomial cells stay flat as the hard parameter grows,
//! exponential cells blow up in the predicted parameter (|Q| for
//! Theorem 4.8, |Q_E| for Theorem 5.5, configuration count for the
//! general case), and the approximation columns show the measured
//! `E_max` / `I_max` ratios.
//!
//! Run with: `cargo run --release -p transmark-bench --bin table2`

use transmark_bench::{chain, fmt_time, instance_with_answer, sproj_instance, time_median};
use transmark_core::confidence::{
    confidence_deterministic, confidence_general, confidence_uniform_nfa,
};
use transmark_core::generate::TransducerClass;
use transmark_core::prepare;
use transmark_sproj::indexed::IndexedEvaluator;
use transmark_sproj::{enumerate_by_imax, enumerate_indexed, sproj_confidence};
use transmark_workloads::gadgets;

fn main() {
    println!("=== Empirical Table 2: Complexity of transducing Markov sequences ===\n");
    row1_confidence();
    row2_ranked_delays();
    row3_inapproximability();
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

    // Sanity anchor for the row: the engine's own measured times above plus
    // these ratios are what EXPERIMENTS.md records.
    let _ = chain(4, 2, 0);
}
