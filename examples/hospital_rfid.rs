//! The paper's running example, end to end: the Figure 1 Markov sequence,
//! the Figure 2 transducer, Table 1, and the Example 3.4 / 4.2 numbers.
//!
//! Run with: `cargo run --example hospital_rfid`

use transmark::engine::brute;
use transmark::prelude::*;
use transmark::workloads::hospital::{
    hospital_sequence, places, room_tracker, table1_rows, CONF_12,
};

fn main() -> Result<(), EngineError> {
    let mu = hospital_sequence();
    let t = room_tracker();
    let alphabet = mu.alphabet().clone();

    println!(
        "Figure 1: Markov sequence μ[{}] over {} locations",
        mu.len(),
        mu.n_symbols()
    );
    println!(
        "Figure 2: transducer with {} states (deterministic={}, selective={}, uniform={:?})\n",
        t.n_states(),
        t.is_deterministic(),
        t.is_selective(),
        t.uniform_emission()
    );

    // ---- Table 1 ---------------------------------------------------------
    println!("Table 1: random strings and their output");
    println!(
        "{:<8}{:<28}{:>12}   output",
        "string", "value", "probability"
    );
    for row in table1_rows() {
        let s: Vec<SymbolId> = row.string.iter().map(|n| alphabet.sym(n)).collect();
        let p = mu.string_probability(&s).expect("length 5");
        let out = match t.transduce_deterministic(&s) {
            Some(o) if o.is_empty() => "ε".to_string(),
            Some(o) => t.render_output(&o, ""),
            None => "N/A".to_string(),
        };
        println!(
            "{:<8}{:<28}{:>12.4}   {}",
            row.label,
            row.string.join(" "),
            p,
            out
        );
        assert!(
            (p - row.probability).abs() < 1e-9,
            "probability drifted from the paper"
        );
    }

    // ---- Example 3.4: conf(12) -------------------------------------------
    let twelve = places(&["1", "2"]);
    let bound = prepare(&t).bind(&mu)?;
    let conf = bound.confidence(&twelve)?;
    println!("\nExample 3.4: conf(12) = {conf:.4} (paper: {CONF_12})");
    assert!((conf - CONF_12).abs() < 1e-9);

    // ---- Example 4.2: E_max(12) -------------------------------------------
    let emax = bound.emax_of_output(&twelve)?.exp();
    println!("Example 4.2: E_max(12) = {emax:.4} (paper: 0.3969)");

    // ---- Full evaluation, both orders --------------------------------------
    println!("\nAll answers, ranked by E_max (Theorem 4.3):");
    for a in bound.ranked()? {
        let c = bound.confidence(&a.output)?;
        let rendered = if a.output.is_empty() {
            "ε".into()
        } else {
            t.render_output(&a.output, "")
        };
        println!(
            "  {rendered:<6} E_max = {:.4}  confidence = {:.4}",
            a.score(),
            c
        );
    }

    println!("\nGold standard (brute force), ranked by true confidence:");
    for (o, c) in brute::ranked_by_confidence(&t, &mu)? {
        let rendered = if o.is_empty() {
            "ε".into()
        } else {
            t.render_output(&o, "")
        };
        println!("  {rendered:<6} confidence = {c:.4}");
    }
    Ok(())
}
