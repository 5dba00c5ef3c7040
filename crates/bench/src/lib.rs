//! Shared instance builders for the benchmark harness.
//!
//! Every table and figure of the paper is regenerated from here (see
//! `DESIGN.md`'s experiment index):
//!
//! * `cargo run -p transmark-bench --bin table1` — Figures 1–2 and
//!   Table 1, asserted against the paper's printed numbers.
//! * `cargo run -p transmark-bench --bin table2` — the empirical version
//!   of Table 2: measured runtimes for every confidence algorithm /
//!   transducer-class cell, measured per-answer delays for every ranked
//!   evaluation mode, and measured inapproximability ratios.
//! * `cargo run -p transmark-bench --bin approx_ratios` — the row-3
//!   ratio curves on the gadget families.
//! * `cargo bench -p transmark-bench` — Criterion microbenchmarks behind
//!   the same cells.

use rand::{rngs::StdRng, SeedableRng};
use transmark_automata::{Dfa, StateId, SymbolId};
use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::prepare;
use transmark_core::transducer::Transducer;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;
use transmark_sproj::SProjector;

/// A reproducible Markov sequence for scaling experiments.
pub fn chain(n: usize, n_symbols: usize, seed: u64) -> MarkovSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    random_markov_sequence(
        &RandomChainSpec {
            len: n,
            n_symbols,
            zero_prob: 0.2,
        },
        &mut rng,
    )
}

/// A reproducible transducer of the given class over `n_symbols` input
/// symbols and 2 output symbols.
pub fn transducer(
    class: TransducerClass,
    n_states: usize,
    n_symbols: usize,
    seed: u64,
) -> Transducer {
    let mut rng = StdRng::seed_from_u64(seed);
    random_transducer(
        &RandomTransducerSpec {
            n_states,
            n_input_symbols: n_symbols,
            n_output_symbols: 2,
            class,
            branching: 1.5,
        },
        &mut rng,
    )
}

/// A `(transducer, chain, answer)` triple where `answer` is a genuine
/// answer of the query (the `E_max`-top one), retrying seeds until the
/// query is nonempty.
pub fn instance_with_answer(
    class: TransducerClass,
    n: usize,
    n_states: usize,
    n_symbols: usize,
    seed: u64,
) -> (Transducer, MarkovSequence, Vec<SymbolId>) {
    for attempt in 0..100 {
        let t = transducer(class, n_states, n_symbols, seed + attempt * 1000);
        let m = chain(n, n_symbols, seed + attempt * 1000 + 7);
        if let Ok(Some(top)) = prepare(&t).bind(&m).and_then(|b| b.top()) {
            return (t, m, top.output);
        }
    }
    panic!("no nonempty instance found for {class:?} after 100 attempts");
}

/// A random complete DFA (for s-projector components).
pub fn random_dfa(n_symbols: usize, n_states: usize, seed: u64) -> Dfa {
    use rand::RngExt;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dfa::new(n_symbols);
    let states: Vec<StateId> = (0..n_states)
        .map(|_| d.add_state(rng.random_bool(0.5)))
        .collect();
    d.set_accepting(states[rng.random_range(0..n_states)], true);
    for &q in &states {
        for s in 0..n_symbols {
            d.set_transition(q, SymbolId(s as u32), states[rng.random_range(0..n_states)]);
        }
    }
    d
}

/// An s-projector with the requested suffix-constraint size `|Q_E|`
/// (the parameter Theorem 5.5 is exponential in), together with a chain
/// and an answer of the projector.
pub fn sproj_instance(
    n: usize,
    n_symbols: usize,
    qb: usize,
    qe: usize,
    seed: u64,
) -> (SProjector, MarkovSequence, Vec<SymbolId>) {
    for attempt in 0..100 {
        let s = seed + attempt * 1000;
        let m = chain(n, n_symbols, s);
        let b = random_dfa(n_symbols, qb, s + 1);
        // Pattern: short words only, so answers exist and stay small.
        let a = {
            let mut d = Dfa::new(n_symbols);
            let q0 = d.add_state(false);
            let q1 = d.add_state(true);
            let q2 = d.add_state(true);
            let dead = d.add_sink_state(false);
            for c in 0..n_symbols {
                let sym = SymbolId(c as u32);
                d.set_transition(q0, sym, q1);
                d.set_transition(q1, sym, if c == 0 { q2 } else { dead });
                d.set_transition(q2, sym, dead);
            }
            d
        };
        let e = random_dfa(n_symbols, qe, s + 2);
        let p = SProjector::new(m.alphabet_arc(), b, a, e).expect("valid projector");
        if let Ok(Some(first)) = transmark_sproj::enumerate_indexed(&p, &m).map(|mut it| it.next())
        {
            return (p, m, first.output);
        }
    }
    panic!("no nonempty s-projector instance found");
}

/// Wall-clock helper: median of `reps` timed runs, in seconds.
pub fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// Formats seconds compactly.
pub fn fmt_time(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.0} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.2} s")
    }
}
