//! Length sweep for the streaming data plane: materialized vs streamed
//! acceptance and confidence over sequences of n = 2^10 … 2^17 positions.
//!
//! The streamed side pulls layers from a synthetic [`StepSource`] that
//! cycles a small pool of transition matrices, so its peak sequence
//! memory is one `|Σ|²` layer regardless of n; the materialized side
//! first drains the same source into a [`MarkovSequence`] (the flat
//! `8·|Σ|²·(n−1)`-byte buffer) and runs the classic in-memory pass.
//! Both sides are asserted bit-identical before timing. Results are
//! printed as a markdown table (see EXPERIMENTS.md); this bench uses a
//! custom main rather than criterion so the long sweep is timed with a
//! bounded number of repetitions per point.

use std::sync::Arc;

use transmark_automata::{Alphabet, Nfa, SymbolId};
use transmark_bench::{fmt_time, time_median};
use transmark_core::transducer::Transducer;
use transmark_core::{prepare, EventSession, PreparedEventQuery, StreamSession};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::source::materialize;
use transmark_markov::{RewindableStepSource, SourceError, StepSource};

const SYMBOLS: usize = 8;
const POOL: usize = 16;

/// A synthetic unbounded stream: cycles a pool of pre-validated matrices,
/// so sequences of any length stream in O(|Σ|²) memory. Stands in for a
/// network- or sensor-fed source in the sweep.
struct CyclicSource {
    alphabet: Arc<Alphabet>,
    initial: Vec<f64>,
    pool: Vec<Vec<f64>>,
    n: usize,
    pos: usize,
}

impl CyclicSource {
    fn new(n: usize) -> Self {
        // Borrow the pool (and the initial distribution) from a small
        // random chain so every layer is a validated distribution.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: POOL + 1,
                n_symbols: SYMBOLS,
                zero_prob: 0.4,
            },
            &mut rng,
        );
        CyclicSource {
            alphabet: Arc::clone(m.alphabet_ref()),
            initial: m.initial_dist().to_vec(),
            pool: (0..POOL).map(|i| m.transition_matrix(i).to_vec()).collect(),
            n,
            pos: 0,
        }
    }
}

impl StepSource for CyclicSource {
    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }
    fn len(&self) -> usize {
        self.n
    }
    fn initial(&self) -> &[f64] {
        &self.initial
    }
    fn position(&self) -> usize {
        self.pos
    }
    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.n {
            return Ok(None);
        }
        let i = self.pos % self.pool.len();
        self.pos += 1;
        Ok(Some(&self.pool[i]))
    }
}

impl RewindableStepSource for CyclicSource {
    fn rewind(&mut self) -> Result<(), SourceError> {
        self.pos = 0;
        Ok(())
    }
}

/// Boolean event query: has seen the last symbol.
fn query_nfa() -> Nfa {
    let mut nfa = Nfa::new(SYMBOLS);
    let q0 = nfa.add_state(false);
    let acc = nfa.add_state(true);
    for s in 0..SYMBOLS as u32 {
        let target = if s as usize == SYMBOLS - 1 { acc } else { q0 };
        nfa.add_transition(q0, SymbolId(s), target);
        nfa.add_transition(acc, SymbolId(s), acc);
    }
    nfa
}

/// Deterministic, non-uniform transducer: emits `0` whenever symbol 0
/// occurs — its confidence DP is the Thm 4.6 forward pass whose output
/// length stays fixed as n grows.
fn query_transducer(alphabet: &Arc<Alphabet>) -> Transducer {
    let mut b = Transducer::builder(Arc::clone(alphabet), Arc::clone(alphabet));
    let q = b.add_state(true);
    for s in 0..SYMBOLS as u32 {
        let emit: &[SymbolId] = if s == 0 { &[SymbolId(0)] } else { &[] };
        b.add_transition(q, SymbolId(s), q, emit).unwrap();
    }
    b.build().unwrap()
}

/// `Pr(S ∈ L(A))` folded straight off a source, never materializing it.
fn acceptance_streamed(nfa: &Nfa, src: &mut CyclicSource) -> f64 {
    let sess = EventSession::start(nfa.clone(), src.initial()).unwrap();
    StreamSession::Event(sess).drain(src, false).unwrap()[0]
}

fn main() {
    let nfa = query_nfa();
    let event = PreparedEventQuery::new(nfa.clone());
    let probe = CyclicSource::new(2);
    let t = query_transducer(probe.alphabet());
    let o = vec![SymbolId(0)];
    let layer_bytes = 8 * SYMBOLS * SYMBOLS;

    println!("# streaming length sweep (|Σ| = {SYMBOLS}, pool = {POOL} layers)");
    println!();
    println!(
        "| n | acceptance (materialized) | acceptance (streamed) | confidence (materialized) | confidence (streamed) | seq memory (materialized) | seq memory (streamed) |"
    );
    println!("|---|---|---|---|---|---|---|");

    for exp in 10..=17u32 {
        let n = 1usize << exp;
        let reps = if exp <= 13 { 5 } else { 3 };

        // Bit-identity first: the sweep only times passes that agree.
        let m = materialize(&mut CyclicSource::new(n)).expect("cyclic source is valid");
        let acc_mat = event.acceptance(&m).unwrap();
        let acc_str = acceptance_streamed(&nfa, &mut CyclicSource::new(n));
        assert_eq!(
            acc_mat.to_bits(),
            acc_str.to_bits(),
            "acceptance at n = {n}"
        );
        let conf_mat = prepare(&t).bind(&m).unwrap().confidence(&o).unwrap();
        let conf_str = prepare(&t)
            .bind_source(&mut CyclicSource::new(n))
            .unwrap()
            .confidence(&o)
            .unwrap();
        assert_eq!(
            conf_mat.to_bits(),
            conf_str.to_bits(),
            "confidence at n = {n}"
        );

        let t_acc_mat = time_median(reps, || {
            let m = materialize(&mut CyclicSource::new(n)).unwrap();
            std::hint::black_box(event.acceptance(&m).unwrap());
        });
        let t_acc_str = time_median(reps, || {
            std::hint::black_box(acceptance_streamed(&nfa, &mut CyclicSource::new(n)));
        });
        let t_conf_mat = time_median(reps, || {
            let m = materialize(&mut CyclicSource::new(n)).unwrap();
            std::hint::black_box(prepare(&t).bind(&m).unwrap().confidence(&o).unwrap());
        });
        let t_conf_str = time_median(reps, || {
            std::hint::black_box(
                prepare(&t)
                    .bind_source(&mut CyclicSource::new(n))
                    .unwrap()
                    .confidence(&o)
                    .unwrap(),
            );
        });

        let mat_bytes = layer_bytes * (n - 1);
        println!(
            "| 2^{exp} = {n} | {} | {} | {} | {} | {:.1} MiB | {} B |",
            fmt_time(t_acc_mat),
            fmt_time(t_acc_str),
            fmt_time(t_conf_mat),
            fmt_time(t_conf_str),
            mat_bytes as f64 / (1024.0 * 1024.0),
            layer_bytes,
        );
    }
    println!();
    println!(
        "(materialized timings include draining the source into the flat \
         buffer, which is what a consumer without the streaming path must do; \
         sequence memory excludes the O(|Σ|² + reachable subsets) DP state \
         both sides share)"
    );
}
