//! A full sensing pipeline: HMM → observations → posterior Markov
//! sequence → transducer queries (the Lahar-style scenario the paper's
//! introduction motivates).
//!
//! A crash cart random-walks through a corridor of rooms; noisy RFID
//! sensors report positions; we condition the movement HMM on the reads
//! (footnote 1's translation) and ask for the sequence of rooms the cart
//! visited — ranked by best evidence, with exact confidences.
//!
//! Run with: `cargo run --example rfid_tracking`

use rand::{rngs::StdRng, SeedableRng};
use transmark::prelude::*;
use transmark::workloads::rfid::{deployment, RfidSpec};

fn main() -> Result<(), EngineError> {
    let spec = RfidSpec {
        rooms: 3,
        locations_per_room: 2,
        stay_prob: 0.55,
        noise: 0.25,
    };
    let dep = deployment(&spec);
    let mut rng = StdRng::seed_from_u64(2010);

    // Simulate a trajectory and its sensor reads; build the posterior.
    let n = 12;
    let (posterior, truth) = dep.sample_posterior(n, &mut rng);
    println!(
        "simulated {n} steps over {} rooms x {} sub-locations (sensor noise {}%)",
        spec.rooms,
        spec.locations_per_room,
        spec.noise * 100.0
    );
    println!("true trajectory: {}", dep.locations.render(&truth, " "));
    let (map_traj, p) = posterior.most_likely_string();
    println!(
        "MAP trajectory:  {} (posterior p = {p:.4})\n",
        dep.locations.render(&map_traj, " ")
    );

    // Query 1: room-entry sequence (non-selective Mealy-style tracker).
    let tracker = dep.room_tracker(None);
    println!("room-visit sequences, ranked by E_max (top 5):");
    let bound = prepare(&tracker).bind(&posterior)?;
    for a in bound.top_k(5)? {
        let conf = bound.confidence(&a.output)?;
        println!(
            "  rooms {:<12} E_max = {:.4}  confidence = {:.4}",
            tracker.render_output(&a.output, "→"),
            a.score(),
            conf
        );
    }

    // Query 2: like Figure 2 — only track after the first visit to room 2
    // (say, the lab). Selective: trajectories that never reach room 2 are
    // rejected, so the total answer mass can be < 1.
    let after_lab = dep.room_tracker(Some(2));
    let reach = PreparedEventQuery::new(after_lab.underlying_nfa()).acceptance(&posterior)?;
    println!("\nPr(cart ever enters room 2) = {reach:.4}");
    println!("post-room-2 visit sequences (top 3):");
    let bound = prepare(&after_lab).bind(&posterior)?;
    for a in bound.top_k(3)? {
        let conf = bound.confidence(&a.output)?;
        let rendered = if a.output.is_empty() {
            "ε".to_string()
        } else {
            after_lab.render_output(&a.output, "→")
        };
        println!("  rooms {rendered:<12} confidence = {conf:.4}");
    }
    Ok(())
}
