//! Regenerates Figures 1–2 and Table 1 of the paper, asserting every
//! printed number.
//!
//! Run with: `cargo run -p transmark-bench --bin table1`

use transmark_core::prepare;
use transmark_workloads::hospital::{
    hospital_sequence, places, room_tracker, table1_rows, CONF_12,
};

fn main() {
    let mu = hospital_sequence();
    let t = room_tracker();
    let alphabet = mu.alphabet().clone();

    println!("=== Figure 1 (reconstruction) ===");
    println!("Markov sequence μ[{}] over Σ = {{{}}}", mu.len(), {
        let names: Vec<&str> = alphabet.iter().map(|(_, n)| n).collect();
        names.join(", ")
    });
    println!(
        "μ0→(r1a) = {} (paper: 0.7)",
        mu.initial_prob(alphabet.sym("r1a"))
    );
    println!(
        "μ3→(la, lb) = {} (paper: 0.1)",
        mu.transition_prob(2, alphabet.sym("la"), alphabet.sym("lb"))
    );

    println!("\n=== Figure 2 ===");
    println!(
        "transducer A^ω: |Q| = {}, deterministic = {}, selective = {}, uniform = {:?}",
        t.n_states(),
        t.is_deterministic(),
        t.is_selective(),
        t.uniform_emission()
    );

    println!("\n=== Table 1: Random strings and their output ===");
    println!(
        "{:<8}{:<30}{:>12}   {:<8}output",
        "string", "value", "probability", "paper"
    );
    let mut all_ok = true;
    for row in table1_rows() {
        let s: Vec<_> = row.string.iter().map(|n| alphabet.sym(n)).collect();
        let p = mu.string_probability(&s).expect("length 5");
        let out = match t.transduce_deterministic(&s) {
            Some(o) if o.is_empty() => "ε".to_string(),
            Some(o) => t.render_output(&o, ""),
            None => "N/A".to_string(),
        };
        let ok = (p - row.probability).abs() < 1e-9;
        all_ok &= ok;
        println!(
            "{:<8}{:<30}{:>12.4}   {:<8}{}   {}",
            row.label,
            row.string.join(" "),
            p,
            row.probability,
            out,
            if ok { "✓" } else { "✗" }
        );
    }

    let twelve = places(&["1", "2"]);
    let bound = prepare(&t).bind(&mu).expect("bind");
    let conf = bound.confidence(&twelve).expect("confidence");
    let emax = bound.emax_of_output(&twelve).expect("emax").exp();
    println!(
        "\nExample 3.4: conf(12) = {conf:.4} (paper: {CONF_12})  {}",
        if (conf - CONF_12).abs() < 1e-9 {
            "✓"
        } else {
            "✗"
        }
    );
    println!(
        "Example 4.2: E_max(12) = {emax:.4} (paper: 0.3969)  {}",
        if (emax - 0.3969).abs() < 1e-9 {
            "✓"
        } else {
            "✗"
        }
    );
    assert!(
        all_ok && (conf - CONF_12).abs() < 1e-9,
        "Table 1 reproduction failed"
    );
    println!("\nAll Table 1 values reproduced exactly.");
}
