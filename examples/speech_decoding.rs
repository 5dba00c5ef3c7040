//! Speech decoding: phoneme posteriors → ranked word-sequence hypotheses.
//!
//! The paper's first-named application (§1): acoustic observations,
//! hidden phoneme/word sequences. Here a noisy recognizer produces a
//! phoneme posterior Markov sequence, and the lexicon transducer (a
//! vocabulary-trie walker that emits a word each time one completes)
//! turns the engine's ranked evaluation into an n-best word decoder with
//! exact confidences.
//!
//! Run with: `cargo run --example speech_decoding`

use rand::{rngs::StdRng, SeedableRng};
use transmark::prelude::*;
use transmark::workloads::speech::demo_lexicon;

fn main() -> Result<(), EngineError> {
    let lex = demo_lexicon();
    let decoder = lex.transducer()?;
    println!(
        "lexicon: {} words over {} phonemes; decoder has {} states (deterministic = {})",
        lex.words().len(),
        lex.phonemes().len(),
        decoder.n_states(),
        decoder.is_deterministic()
    );

    let mut rng = StdRng::seed_from_u64(2026);
    let (spoken, posterior) = lex.sample_utterance(3, 0.12, &mut rng);
    println!(
        "\nspoken: {:?}   (posterior over {} phoneme positions)",
        lex.words().render(&spoken, " "),
        posterior.len()
    );

    // Probability that the audio decodes to ANY word sequence at all.
    let p_parse = PreparedEventQuery::new(decoder.underlying_nfa()).acceptance(&posterior)?;
    println!("Pr(phonemes segment into vocabulary words) = {p_parse:.4}\n");

    println!("n-best word hypotheses (E_max-ranked, exact confidences):");
    let bound = prepare(&decoder).bind(&posterior)?;
    for (rank, h) in bound.top_k_scored(5)?.iter().enumerate() {
        println!(
            "  #{:<2} {:<16} E_max = {:.4}  confidence = {:.4}",
            rank + 1,
            lex.words().render(&h.output, " "),
            h.emax,
            h.confidence
        );
    }

    // Provenance: the most likely phoneme strings behind the top hypothesis.
    if let Some(top) = bound.top()? {
        println!(
            "\nwhy: most likely phoneme evidence for {:?}:",
            lex.words().render(&top.output, " ")
        );
        for e in bound.top_evidences(&top.output, 3)? {
            println!(
                "  {}  (p = {:.4})",
                posterior.alphabet().render(&e.world, ""),
                e.prob()
            );
        }
    }
    Ok(())
}
