//! The paper's running example (Figures 1–2, Table 1).
//!
//! The extended abstract prints Figure 1 only as a drawing; the machine-
//! readable constraints are: `Σ_μ = {r1a, r1b, r2a, r2b, la, lb}`, length
//! 5, `μ₀→(r1a) = 0.7`, `μ₃→(la, lb) = 0.1`, the six string probabilities
//! of Table 1, and the statement that rows `s`, `t`, `u` are *all* the
//! strings transduced into `12` (so `conf(12) = 0.4038`). This module
//! reconstructs a Markov sequence satisfying every one of those
//! constraints. (The constraint set pins most of the chain; the handful
//! of remaining free entries — rows never visited by Table 1 strings —
//! were chosen so that no additional string maps to `12`. Notably, the
//! reconstruction forces row `w` to stay inside the lab at position 3:
//! any chain in which `w` reaches `la` at position 3 necessarily creates
//! a fourth string transduced into `12`, contradicting Table 1.)
//!
//! The Figure 2 transducer tracks the *place* (Room 1, Room 2, lab) of
//! the cart and — once the cart has visited the lab — emits the place
//! symbol each time a new place is entered (Example 3.3/3.4).

use std::sync::Arc;

use transmark_automata::{Alphabet, SymbolId};
use transmark_core::transducer::Transducer;
use transmark_markov::{MarkovSequence, MarkovSequenceBuilder};

/// The six locations of Figure 1, in a fixed order.
pub const LOCATIONS: [&str; 6] = ["r1a", "r1b", "r2a", "r2b", "la", "lb"];

/// The shared alphabet of the running example.
pub fn hospital_alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(LOCATIONS))
}

/// The Figure 1 Markov sequence `μ\[5\]` (reconstruction; see module docs).
pub fn hospital_sequence() -> MarkovSequence {
    let alphabet = hospital_alphabet();
    let s = |name: &str| alphabet.sym(name);
    let (r1a, r1b, r2a, r2b, la, lb) = (s("r1a"), s("r1b"), s("r2a"), s("r2b"), s("la"), s("lb"));

    MarkovSequenceBuilder::new(alphabet.clone(), 5)
        // μ₀→: the cart starts in Room 1 (mostly near r1a) or the lab.
        .initial(r1a, 0.7)
        .initial(r1b, 0.28)
        .initial(la, 0.02)
        // μ₁→ (positions 1→2)
        .transition(0, r1a, la, 0.9)
        .transition(0, r1a, r1a, 0.1)
        .transition(0, r1b, r1b, 0.9)
        .transition(0, r1b, lb, 0.1)
        .transition(0, la, r1b, 1.0)
        // μ₂→ (positions 2→3)
        .transition(1, r1a, la, 0.1)
        .transition(1, r1a, r2b, 0.2)
        .transition(1, r1a, r1a, 0.7)
        .transition(1, r1b, r1b, 0.9)
        .transition(1, r1b, lb, 0.1)
        .transition(1, la, la, 0.9)
        .transition(1, la, r2a, 0.1)
        .transition(1, lb, lb, 1.0)
        // μ₃→ (positions 3→4); the paper states μ₃→(la, lb) = 0.1.
        .transition(2, la, r1a, 0.7)
        .transition(2, la, lb, 0.1)
        .transition(2, la, la, 0.2)
        .transition(2, r1b, r1a, 1.0 / 9.0)
        .transition(2, r1b, r1b, 8.0 / 9.0)
        .transition(2, r2a, r1b, 1.0)
        .transition(2, r2b, r1b, 1.0)
        .transition(2, r1a, r1a, 1.0)
        .transition(2, lb, lb, 1.0)
        // μ₄→ (positions 4→5)
        .transition(3, r1a, r2a, 1.0)
        .transition(3, r1b, lb, 0.5)
        .transition(3, r1b, r1b, 0.5)
        .transition(3, la, la, 1.0)
        .transition(3, lb, lb, 1.0)
        // Rows for locations unreachable at a given position still must be
        // distributions (paper's definition); park them on self-loops.
        .fill_dead_rows_self_loop()
        .build()
        .expect("the reconstructed Figure 1 chain is valid")
}

/// The output alphabet of Figure 2: `1` (Room 1), `2` (Room 2),
/// `λ` (the lab).
pub fn place_alphabet() -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names(["1", "2", "λ"]))
}

/// The Figure 2 transducer `A^ω`: after the cart's first visit to the
/// lab, emit the place symbol whenever a place (Room 1 / Room 2 / lab) is
/// entered from a different place. Deterministic, selective (strings that
/// never visit the lab are rejected), non-uniform (emissions `ε` and
/// length 1).
pub fn room_tracker() -> Transducer {
    let input = hospital_alphabet();
    let output = place_alphabet();
    let sym = |name: &str| input.sym(name);
    let out = |name: &str| output.sym(name);
    let (one, two, lam) = (out("1"), out("2"), out("λ"));

    let mut b = Transducer::builder(input.clone(), output);
    let q0 = b.add_state(false); // lab not visited yet
    let qlam = b.add_state(true); // in the lab
    let q1 = b.add_state(true); // in Room 1
    let q2 = b.add_state(true); // in Room 2

    let room1 = [sym("r1a"), sym("r1b")];
    let room2 = [sym("r2a"), sym("r2b")];
    let lab = [sym("la"), sym("lb")];

    for s in room1.iter().chain(&room2) {
        b.add_transition(q0, *s, q0, &[]).expect("valid edge");
    }
    for s in &lab {
        b.add_transition(q0, *s, qlam, &[]).expect("valid edge");
    }
    for s in &lab {
        b.add_transition(qlam, *s, qlam, &[]).expect("valid edge");
        b.add_transition(q1, *s, qlam, &[lam]).expect("valid edge");
        b.add_transition(q2, *s, qlam, &[lam]).expect("valid edge");
    }
    for s in &room1 {
        b.add_transition(qlam, *s, q1, &[one]).expect("valid edge");
        b.add_transition(q1, *s, q1, &[]).expect("valid edge");
        b.add_transition(q2, *s, q1, &[one]).expect("valid edge");
    }
    for s in &room2 {
        b.add_transition(qlam, *s, q2, &[two]).expect("valid edge");
        b.add_transition(q1, *s, q2, &[two]).expect("valid edge");
        b.add_transition(q2, *s, q2, &[]).expect("valid edge");
    }
    b.build().expect("the Figure 2 transducer is valid")
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The paper's row label (`s`, `t`, …).
    pub label: &'static str,
    /// The string, as location names.
    pub string: [&'static str; 5],
    /// Its probability as printed in the paper.
    pub probability: f64,
    /// Its output as printed: `Some(names)` or `None` for "N/A"
    /// (rejected).
    pub output: Option<&'static [&'static str]>,
}

/// The rows of Table 1 (with the expected values printed in the paper).
pub fn table1_rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            label: "s",
            string: ["r1a", "la", "la", "r1a", "r2a"],
            probability: 0.3969,
            output: Some(&["1", "2"]),
        },
        Table1Row {
            label: "t",
            string: ["r1a", "r1a", "la", "r1a", "r2a"],
            probability: 0.0049,
            output: Some(&["1", "2"]),
        },
        Table1Row {
            label: "u",
            string: ["la", "r1b", "r1b", "r1a", "r2a"],
            probability: 0.002,
            output: Some(&["1", "2"]),
        },
        Table1Row {
            label: "v",
            string: ["r1a", "la", "r2a", "r1b", "lb"],
            probability: 0.0315,
            output: Some(&["2", "1", "λ"]),
        },
        Table1Row {
            label: "w",
            string: ["r1b", "r1b", "lb", "lb", "lb"],
            probability: 0.0252,
            output: Some(&[]),
        },
        Table1Row {
            label: "x",
            string: ["r1a", "r1a", "r2b", "r1b", "r1b"],
            probability: 0.007,
            output: None,
        },
    ]
}

/// The confidence of the answer `12` as computed in Example 3.4.
pub const CONF_12: f64 = 0.4038;

/// Resolves a location-name string to symbol ids.
pub fn locations(names: &[&str]) -> Vec<SymbolId> {
    let alphabet = hospital_alphabet();
    names.iter().map(|n| alphabet.sym(n)).collect()
}

/// Resolves place names (`1`, `2`, `λ`) to output symbol ids.
pub fn places(names: &[&str]) -> Vec<SymbolId> {
    let alphabet = place_alphabet();
    names.iter().map(|n| alphabet.sym(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_core::confidence::confidence_deterministic;
    use transmark_core::prepare;
    use transmark_markov::numeric::approx_eq;

    #[test]
    fn table1_probabilities_match_the_paper() {
        let m = hospital_sequence();
        for row in table1_rows() {
            let s = locations(&row.string);
            let p = m.string_probability(&s).expect("length 5");
            assert!(
                approx_eq(p, row.probability, 1e-12, 1e-10),
                "row {}: probability {p} != {}",
                row.label,
                row.probability
            );
        }
    }

    #[test]
    fn table1_outputs_match_the_paper() {
        let t = room_tracker();
        assert!(t.is_deterministic());
        assert!(t.is_selective());
        assert_eq!(t.uniform_emission(), None);
        for row in table1_rows() {
            let s = locations(&row.string);
            let got = t.transduce_deterministic(&s);
            let want = row.output.map(places);
            assert_eq!(got, want, "row {}", row.label);
        }
    }

    #[test]
    fn conf_12_matches_example_3_4() {
        let m = hospital_sequence();
        let t = room_tracker();
        let o = places(&["1", "2"]);
        let c = confidence_deterministic(&t, &m, &o).expect("deterministic confidence");
        assert!(
            approx_eq(c, CONF_12, 1e-12, 1e-10),
            "conf(12) = {c}, paper says {CONF_12}"
        );
        // And via the auto-dispatcher.
        let c2 = prepare(&t)
            .bind(&m)
            .unwrap()
            .confidence(&o)
            .expect("confidence");
        assert!(approx_eq(c2, CONF_12, 1e-12, 1e-10));
    }

    #[test]
    fn exactly_three_strings_produce_12() {
        // Table 1: "the table contains all the random strings of μ that
        // are transduced into 12" — s, t, u.
        let m = hospital_sequence();
        let t = room_tracker();
        let o = places(&["1", "2"]);
        let twelve: Vec<_> = transmark_markov::support::support(&m)
            .into_iter()
            .filter(|(s, _)| t.transduce_deterministic(s).as_deref() == Some(&o[..]))
            .collect();
        assert_eq!(twelve.len(), 3, "strings mapping to 12: {twelve:?}");
        let sum: f64 = twelve.iter().map(|(_, p)| p).sum();
        assert!(approx_eq(sum, CONF_12, 1e-12, 1e-10));
    }

    #[test]
    fn example_4_2_emax_of_12() {
        // E_max(12) = p(s) = 0.3969 (Example 4.2).
        let m = hospital_sequence();
        let t = room_tracker();
        let o = places(&["1", "2"]);
        let e = prepare(&t)
            .bind(&m)
            .unwrap()
            .emax_of_output(&o)
            .expect("emax")
            .exp();
        assert!(approx_eq(e, 0.3969, 1e-12, 1e-10), "E_max(12) = {e}");
    }
}
