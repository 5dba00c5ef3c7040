//! Motif scanning over uncertain DNA reads — the paper's computational-
//! biology application (§1, citing HMMER-style sequence matching).
//!
//! A sequencer's base calls are uncertain; we model a read as a Markov
//! sequence over {A,C,G,T} with bursty miscalls, then (1) extract motif
//! occurrences with an indexed s-projector — ranked by exact confidence —
//! and (2) run a Boolean composition query ("contains a G/C run of
//! length ≥ 4") whose per-position probability stream localizes the
//! signal.
//!
//! Run with: `cargo run --example bio_motifs`

use transmark::prelude::*;
use transmark::workloads::bio::{gc_run_query, uncertain_read, ReadSpec};

fn main() -> Result<(), EngineError> {
    let reference = "TACGATGGGCGATTA";
    let read = uncertain_read(
        reference,
        &ReadSpec {
            error_rate: 0.08,
            burstiness: 3.0,
        },
    );
    println!("reference: {reference}");
    let (ml, p) = read.sequence.most_likely_string();
    println!("most likely call: {} (p = {p:.4})\n", read.render(&ml));

    // Motif extraction: occurrences of GAT, ranked by confidence (Thm 5.7).
    let motif = "GAT";
    let extractor = read.motif_extractor(motif)?;
    println!("occurrences of {motif} (exact confidence order):");
    for hit in enumerate_indexed(&extractor, &read.sequence)?.take(5) {
        println!(
            "  position {:<3} {}  confidence = {:.4}",
            hit.index,
            read.render(&hit.output),
            hit.confidence()
        );
    }

    // Plain (non-indexed) confidence: Pr(the read contains GAT at all).
    let motif_syms: Vec<SymbolId> = motif
        .chars()
        .map(|c| read.sequence.alphabet().sym(&c.to_string()))
        .collect();
    let anywhere = sproj_confidence(&extractor, &read.sequence, &motif_syms)?;
    println!("\nPr(read contains {motif}) = {anywhere:.4}  (Theorem 5.5, union over occurrences)");

    // Composition signal: G/C run of length ≥ 4, streamed per position.
    let q = PreparedEventQuery::new(gc_run_query(4));
    let total = q.acceptance(&read.sequence)?;
    let series = q.series(&read.sequence)?;
    println!("\nPr(G/C run ≥ 4 anywhere) = {total:.4}");
    println!("cumulative by position:");
    let rendered: Vec<String> = series.iter().map(|v| format!("{v:.3}")).collect();
    println!("  [{}]", rendered.join(", "));
    Ok(())
}
