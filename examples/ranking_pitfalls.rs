//! Why ranked evaluation is hard — the paper's negative results, made
//! tangible.
//!
//! Theorem 4.4 says no polynomial algorithm approximates the
//! top-confidence answer within any sub-exponential factor, even for
//! one-state Mealy machines; Theorem 5.3 gives a `√n` lower bound for
//! simple s-projectors, and Theorem 5.2 an `n` upper bound. This example
//! runs the gadget families that realize those gaps and prints the
//! measured ratios.
//!
//! Run with: `cargo run --example ranking_pitfalls`

use transmark::engine::brute;
use transmark::prelude::*;
use transmark::sproj::enumerate::imax_of_output;
use transmark::workloads::gadgets::{emax_gap, emax_gap_expected_ratio, imax_gap};

fn main() -> Result<(), EngineError> {
    println!("== Theorem 4.4 regime: one-state Mealy machine ==");
    println!("(confidence of the true top answer / confidence of the E_max-top answer)");
    for n in [2usize, 4, 6, 8, 10] {
        let (t, m) = emax_gap(n);
        let bound = prepare(&t).bind(&m)?;
        let emax_top = bound.top()?.expect("answers exist");
        let (conf_top, conf_best) = brute::top_by_confidence(&t, &m)?.expect("answers exist");
        let conf_of_emax_top = bound.confidence(&emax_top.output)?;
        let ratio = conf_best / conf_of_emax_top;
        println!(
            "  n = {n:>2}: E_max picks {:?} (conf {:.5}), truth is {:?} (conf {:.5}) — ratio {:>9.2} (analytic {:.2})",
            t.render_output(&emax_top.output, ""),
            conf_of_emax_top,
            t.render_output(&conf_top, ""),
            conf_best,
            ratio,
            emax_gap_expected_ratio(n),
        );
    }
    println!("  → the gap grows as 1.5^n: exponential, exactly the Thm 4.4 regime.\n");

    println!("== Theorem 5.2/5.3 regime: simple s-projector [*]a[*] ==");
    println!("(true confidence / I_max for the answer \"a\")");
    for n in [2usize, 4, 8, 16, 32] {
        let (p, m) = imax_gap(n);
        let a = [m.alphabet().sym("a")];
        let conf = sproj_confidence(&p, &m, &a)?;
        let imax = imax_of_output(&p, &m, &a)?;
        println!(
            "  n = {n:>2}: conf = {conf:.4}, I_max = {imax:.4} — ratio {:>6.2} (≤ n = {n})",
            conf / imax
        );
    }
    println!("  → the gap grows only linearly: s-projectors are exponentially more");
    println!("    approximable than general transducers (Theorem 5.2), but the ratio");
    println!("    is unbounded, matching the √n-to-n inapproximability window (Thm 5.3).");
    Ok(())
}
