//! Sequence labeling with a linear-chain CRF front-end — the second
//! statistical model the paper names as a Markov-sequence producer
//! (§1: "other statistical models, notably Chain CRFs [37]").
//!
//! A toy part-of-speech-style tagger: a chain CRF over labels
//! {Det, Noun, Verb} whose factors encode transition preferences and
//! per-token evidence. The normalized CRF distribution *is* a Markov
//! sequence, so the entire query engine applies: here we ask for the
//! label patterns ranked by best evidence, and for the probability that
//! the sentence contains a verb phrase (Det Noun Verb in order).
//!
//! Run with: `cargo run --example crf_sequence_labeling`

use transmark::markov::factors::chain_from_factors;
use transmark::prelude::*;

fn main() -> Result<(), EngineError> {
    let labels = Alphabet::from_names(["Det", "Noun", "Verb"]);
    let (det, noun, verb) = (labels.sym("Det"), labels.sym("Noun"), labels.sym("Verb"));

    // Tokens of the sentence: "the dog barks loudly" (4 positions).
    // Per-token emission scores (how well each label fits each token):
    let emissions: [[f64; 3]; 4] = [
        [5.0, 0.2, 0.1], // "the"   — almost surely Det
        [0.1, 3.0, 1.0], // "dog"   — Noun, maybe Verb
        [0.1, 1.0, 3.0], // "barks" — Verb, maybe Noun
        [0.2, 0.7, 0.7], // "loudly"— ambiguous
    ];
    // Transition compatibility (label bigram potential).
    let trans: [[f64; 3]; 3] = [
        [0.1, 4.0, 0.3], // Det → mostly Noun
        [0.3, 1.0, 3.0], // Noun → often Verb
        [1.0, 1.5, 0.5], // Verb → Det/Noun
    ];

    // Chain factors: φ₀(ℓ) = emission₀(ℓ); ψᵢ(ℓ, ℓ') = trans(ℓ,ℓ')·emissionᵢ₊₁(ℓ').
    let phi0 = emissions[0].to_vec();
    let factors: Vec<Vec<f64>> = (1..4)
        .map(|i| {
            let mut f = vec![0.0; 9];
            for a in 0..3 {
                for b in 0..3 {
                    f[a * 3 + b] = trans[a][b] * emissions[i][b];
                }
            }
            f
        })
        .collect();
    let posterior =
        chain_from_factors(labels.clone(), &phi0, &factors).expect("the CRF has positive mass");
    println!("CRF posterior over label sequences (4 tokens, 3 labels)");
    let (map, p) = posterior.most_likely_string();
    println!("MAP labeling: {} (p = {p:.4})\n", labels.render(&map, " "));

    // Query 1: the label sequence itself, ranked (identity Mealy machine).
    let mut b = Transducer::builder(labels.clone(), labels.clone());
    let q = b.add_state(true);
    for (id, _) in labels.iter() {
        b.add_transition(q, id, q, &[id])?;
    }
    let identity = b.build()?;
    println!("top 5 labelings with exact confidence:");
    let bound = prepare(&identity).bind(&posterior)?;
    for a in bound.top_k(5)? {
        let conf = bound.confidence(&a.output)?;
        println!("  {}  conf = {conf:.4}", labels.render(&a.output, " "));
    }

    // Query 2: Pr(the sentence contains Det Noun Verb consecutively) —
    // a Boolean Lahar-style query via acceptance probability.
    let mut nfa = Nfa::new(3);
    let q0 = nfa.add_state(false);
    let q1 = nfa.add_state(false);
    let q2 = nfa.add_state(false);
    let acc = nfa.add_state(true);
    for s in [det, noun, verb] {
        nfa.add_transition(q0, s, q0);
        nfa.add_transition(acc, s, acc);
        // Nondeterministically start matching.
    }
    nfa.add_transition(q0, det, q1);
    nfa.add_transition(q1, noun, q2);
    nfa.add_transition(q2, verb, acc);
    let event = PreparedEventQuery::new(nfa);
    let p_dnv = event.acceptance(&posterior)?;
    println!("\nPr(labels contain \"Det Noun Verb\") = {p_dnv:.4}");

    // Streaming version: the probability the pattern has appeared by each
    // prefix (Lahar's per-time-period Boolean query).
    let series = event.series(&posterior)?;
    println!("by position: {series:.4?}");
    Ok(())
}
