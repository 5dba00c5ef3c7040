//! Streaming event monitoring: Boolean queries over a Markov stream that
//! is never stored (the CLARO-style high-volume regime of §6).
//!
//! The sensor fusion layer pushes one transition matrix per tick; the
//! [`EventSession`] folds it in and reports the up-to-date probability
//! that the query has become true, in memory independent of stream
//! length.
//!
//! Run with: `cargo run --example streaming_monitor`

use transmark::prelude::*;

fn main() -> Result<(), EngineError> {
    // Query over {ok, warn, fail}: "two consecutive warns, or any fail".
    let alphabet = Alphabet::from_names(["ok", "warn", "fail"]);
    let (ok, warn, fail) = (
        alphabet.sym("ok"),
        alphabet.sym("warn"),
        alphabet.sym("fail"),
    );
    let mut query = Nfa::new(3);
    let calm = query.add_state(false);
    let warned = query.add_state(false);
    let tripped = query.add_state(true);
    query.add_transition(calm, ok, calm);
    query.add_transition(calm, warn, warned);
    query.add_transition(calm, fail, tripped);
    query.add_transition(warned, ok, calm);
    query.add_transition(warned, warn, tripped);
    query.add_transition(warned, fail, tripped);
    for s in [ok, warn, fail] {
        query.add_transition(tripped, s, tripped);
    }

    // Tick 1: the system starts healthy (but not certainly).
    let mut monitor = EventSession::start(query, &[0.95, 0.05, 0.0])?;
    println!("t = 1: Pr(alert condition) = {:.5}", monitor.probability());

    // The stream: mostly-healthy dynamics, degrading mid-stream.
    let healthy = [
        0.97, 0.02, 0.01, //
        0.80, 0.15, 0.05, //
        0.10, 0.30, 0.60,
    ];
    let degraded = [
        0.60, 0.30, 0.10, //
        0.30, 0.50, 0.20, //
        0.05, 0.25, 0.70,
    ];
    for t in 2..=12 {
        let matrix: &[f64] = if t <= 6 { &healthy } else { &degraded };
        let p = monitor.advance(matrix)?;
        let phase = if t <= 6 { "healthy " } else { "degraded" };
        let bar = "#".repeat((p * 40.0).round() as usize);
        println!("t = {t:<2} ({phase}): Pr(alert) = {p:.5}  {bar}");
        if p > 0.5 {
            println!("      → alert threshold crossed; paging the on-call.");
            break;
        }
    }
    println!(
        "\nmonitor consumed {} ticks with O(1) memory per tick",
        monitor.positions()
    );
    Ok(())
}
