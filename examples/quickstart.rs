//! Quickstart: build a Markov sequence, query it with a transducer, and
//! rank the answers.
//!
//! Run with: `cargo run --example quickstart`

use transmark::prelude::*;

fn main() -> Result<(), EngineError> {
    // ---- Data: a 4-step weather forecast as a Markov sequence ----------
    // (In production this would come from an HMM posterior or a CRF —
    // see the other examples.)
    let weather = Alphabet::from_names(["sunny", "rainy"]);
    let (s, r) = (weather.sym("sunny"), weather.sym("rainy"));
    let mut chain = MarkovSequenceBuilder::new(weather.clone(), 4)
        .initial(s, 0.8)
        .initial(r, 0.2);
    for step in 0..3 {
        chain = chain
            .transition(step, s, s, 0.7)
            .transition(step, s, r, 0.3)
            .transition(step, r, s, 0.4)
            .transition(step, r, r, 0.6);
    }
    let chain = chain.build().expect("valid chain");

    // ---- Query: a transducer marking the days the weather flips --------
    let marks = Alphabet::from_names(["=", "!"]);
    let (same, flip) = (marks.sym("="), marks.sym("!"));
    let mut b = Transducer::builder(weather, marks);
    let q0 = b.add_state(true);
    let qs = b.add_state(true);
    let qr = b.add_state(true);
    b.set_initial(q0);
    b.add_transition(q0, s, qs, &[same])?;
    b.add_transition(q0, r, qr, &[same])?;
    b.add_transition(qs, s, qs, &[same])?;
    b.add_transition(qs, r, qr, &[flip])?;
    b.add_transition(qr, r, qr, &[same])?;
    b.add_transition(qr, s, qs, &[flip])?;
    let t = b.build()?;
    println!(
        "query: deterministic={}, mealy={}, uniform={:?}",
        t.is_deterministic(),
        t.is_mealy(),
        t.uniform_emission()
    );

    // ---- Evaluate: all answers, ranked by best evidence, with exact
    //      confidences (polynomial: the machine is deterministic) --------
    //      Compile the query once and bind it to the chain; every
    //      evaluation below runs on that one bind.
    let bound = prepare(&t).bind(&chain)?;
    println!("\nanswers in decreasing E_max (with exact confidence):");
    for answer in bound.ranked()? {
        let conf = bound.confidence(&answer.output)?;
        println!(
            "  {:<6}  E_max = {:.4}   confidence = {:.4}",
            t.render_output(&answer.output, ""),
            answer.score(),
            conf
        );
    }

    // ---- Top-k is just early stopping -----------------------------------
    let top2 = bound.top_k(2)?;
    println!(
        "\ntop-2 by E_max: {:?}",
        top2.iter()
            .map(|a| t.render_output(&a.output, ""))
            .collect::<Vec<_>>()
    );

    // ---- The most likely world behind the top answer --------------------
    let best = bound.top()?.expect("answers exist");
    println!(
        "\nbest evidence: {}  (p = {:.4}) producing output {:?}",
        chain.alphabet().render(&best.evidence, " "),
        best.prob(),
        t.render_output(&best.output, "")
    );
    Ok(())
}
