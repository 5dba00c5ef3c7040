//! Pins the acceptance fold to the hashed fold it replaced, bit for bit.
//!
//! The fold behind `EventSession` (and so behind every prefix series,
//! acceptance, server stream and monitor) steps a dense vector over the
//! lifted `(subset, node)` cells of a lazily determinized table. The
//! reference below is the previous implementation, kept here verbatim in
//! behaviour: a hashed layer keyed by `(subset id, node)`, sorted on every
//! step (here the ordered [`SortedLayer`], which reads in the same order),
//! over a `Determinizer` interning subsets in discovery order.
//! Every series value must match bitwise, and the checkpoint blob must
//! match byte for byte after every step — which also pins the discovery
//! order, since the blob lists the subsets in id order.
//!
//! Long chains drive some cells' mass to exactly `0.0` while their subset
//! stays reachable: such a cell must still be present (in the reduction,
//! in the blob and in discovery), as its hashed key was.

mod common;

use common::{Determinizer, SortedLayer};
use rand::{rngs::StdRng, RngExt, SeedableRng};

use transmark_core::incremental::{EventSession, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
use transmark_core::{Nfa, PreparedEventQuery, StateId, SymbolId};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;

/// The hashed acceptance fold, as it was before the dense one.
struct HashedFold {
    det: Determinizer,
    layer: SortedLayer<(usize, u32)>,
    n_sym: usize,
}

impl HashedFold {
    fn start(nfa: &Nfa, initial: &[f64]) -> Self {
        let mut det = Determinizer::new(nfa);
        let mut layer = SortedLayer::new();
        for (node, &p) in initial.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let d = det.step(nfa, det.initial(), SymbolId(node as u32));
            if !det.is_dead(d) {
                layer.add((d, node as u32), p);
            }
        }
        HashedFold {
            det,
            layer,
            n_sym: initial.len(),
        }
    }

    fn step(&mut self, nfa: &Nfa, matrix: &[f64]) {
        let k = self.n_sym;
        let mut next = SortedLayer::new();
        for ((d, node), p) in self.layer.sorted() {
            let row = &matrix[node as usize * k..(node as usize + 1) * k];
            for (to, &pt) in row.iter().enumerate() {
                if pt <= 0.0 {
                    continue;
                }
                let d2 = self.det.step(nfa, d, SymbolId(to as u32));
                if !self.det.is_dead(d2) {
                    next.add((d2, to as u32), p * pt);
                }
            }
        }
        self.layer = next;
    }

    fn probability(&self) -> f64 {
        self.layer.reduce(|&(d, _)| self.det.is_accepting(d))
    }

    /// Cells present with mass exactly `0.0`.
    fn zero_cells(&self) -> usize {
        self.layer.zero_cells()
    }

    /// The `TMKC` event checkpoint of this state at `position`.
    fn blob(&self, nfa: &Nfa, position: u64) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(&CHECKPOINT_MAGIC);
        w.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        w.push(1); // CheckpointKind::Event
        w.extend_from_slice(&nfa.fingerprint().to_le_bytes());
        w.extend_from_slice(&position.to_le_bytes());
        w.extend_from_slice(&(self.n_sym as u32).to_le_bytes());
        w.extend_from_slice(&(self.det.n_materialized() as u64).to_le_bytes());
        for id in 0..self.det.n_materialized() {
            let set = self.det.subset(id);
            let bits: Vec<usize> = set.iter().collect();
            w.extend_from_slice(&(set.capacity() as u32).to_le_bytes());
            w.extend_from_slice(&(bits.len() as u32).to_le_bytes());
            for b in bits {
                w.extend_from_slice(&(b as u32).to_le_bytes());
            }
        }
        let entries = self.layer.sorted();
        w.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for ((d, node), p) in entries {
            w.extend_from_slice(&(d as u64).to_le_bytes());
            w.extend_from_slice(&node.to_le_bytes());
            w.extend_from_slice(&p.to_bits().to_le_bytes());
        }
        w
    }
}

/// A random NFA over `k` symbols with 1–6 states.
fn random_nfa(rng: &mut StdRng, k: usize) -> Nfa {
    let n_states = rng.random_range(1..=6);
    let density = rng.random_range(0.1..0.6);
    let mut nfa = Nfa::new(k);
    let states: Vec<_> = (0..n_states)
        .map(|_| nfa.add_state(rng.random_bool(0.35)))
        .collect();
    for &from in &states {
        for s in 0..k as u32 {
            for &to in &states {
                if rng.random_bool(density) {
                    nfa.add_transition(from, SymbolId(s), to);
                }
            }
        }
    }
    nfa
}

/// `inner` behind a gate state that stays alive only while every symbol
/// read is `0`: the subsets holding the gate carry the mass of the all-`0`
/// prefix, which a long chain drives through the subnormals to exactly
/// `0.0` while those subsets stay reachable.
fn gated(inner: &Nfa, rng: &mut StdRng) -> Nfa {
    let mut nfa = Nfa::new(inner.n_symbols());
    let gate = nfa.add_state(rng.random_bool(0.5));
    let shift = |q: StateId| StateId(q.0 + 1);
    for q in 0..inner.n_states() as u32 {
        nfa.add_state(inner.is_accepting(StateId(q)));
    }
    for (from, s, to) in inner.transitions() {
        nfa.add_transition(shift(from), s, shift(to));
    }
    nfa.add_transition(gate, SymbolId(0), gate);
    nfa.add_transition(gate, SymbolId(0), shift(inner.initial()));
    nfa
}

/// Runs both folds over `m`, comparing every probability bitwise and the
/// checkpoint blob byte for byte after every step; resumes the session
/// from the reference's blob at up to 8 splits and compares the rest of
/// the series; also checks the drained series and the acceptance.
/// Returns the number of present zero-mass cells the reference saw.
fn assert_pinned(nfa: &Nfa, m: &MarkovSequence, ctx: &str) -> usize {
    let mut reference = HashedFold::start(nfa, m.initial_dist());
    let mut want = Vec::with_capacity(m.len());
    let mut blobs = Vec::with_capacity(m.len());
    let mut zero_cells = 0;
    for i in 0..m.len() {
        if i > 0 {
            reference.step(nfa, m.transition_matrix(i - 1));
        }
        want.push(reference.probability());
        blobs.push(reference.blob(nfa, i as u64));
        zero_cells += reference.zero_cells();
    }

    let mut session = EventSession::start(nfa.clone(), m.initial_dist()).unwrap();
    for i in 0..m.len() {
        if i > 0 {
            session.advance(m.transition_matrix(i - 1)).unwrap();
        }
        let (got, expect) = (session.probability(), want[i]);
        assert_eq!(
            got.to_bits(),
            expect.to_bits(),
            "{ctx}: position {i}: {got} vs {expect}"
        );
        assert!(
            session.checkpoint() == blobs[i],
            "{ctx}: checkpoint blob differs at split {i}"
        );
    }

    for split in (0..m.len()).step_by(m.len().div_ceil(8)) {
        let mut resumed = EventSession::resume(nfa.clone(), &blobs[split]).unwrap();
        for (i, expect) in want.iter().enumerate().skip(split + 1) {
            let got = resumed.advance(m.transition_matrix(i - 1)).unwrap();
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "{ctx}: resumed at {split}, position {i}"
            );
        }
    }

    let q = PreparedEventQuery::new(nfa.clone());
    let series = q.series(m).unwrap();
    assert_eq!(series.len(), want.len(), "{ctx}");
    for (i, (a, b)) in series.iter().zip(&want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: series[{i}]: {a} vs {b}");
    }
    let acceptance = q.acceptance(m).unwrap();
    assert_eq!(
        acceptance.to_bits(),
        want[want.len() - 1].to_bits(),
        "{ctx}"
    );
    zero_cells
}

#[test]
fn dense_fold_matches_the_hashed_fold_on_random_nfas() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f01d);
    for case in 0..400 {
        let k = rng.random_range(1..=4);
        let nfa = random_nfa(&mut rng, k);
        let spec = RandomChainSpec {
            len: rng.random_range(1..=40),
            n_symbols: k,
            zero_prob: [0.0, 0.3, 0.6][case % 3],
        };
        let m = random_markov_sequence(&spec, &mut rng);
        assert_pinned(&nfa, &m, &format!("case {case}"));
    }
}

#[test]
fn dense_fold_matches_the_hashed_fold_through_underflow() {
    let mut rng = StdRng::seed_from_u64(0x0dd_ba11);
    let mut zero_cells = 0;
    for case in 0..12 {
        let k = rng.random_range(2..=3);
        let inner = random_nfa(&mut rng, k);
        let nfa = gated(&inner, &mut rng);
        let spec = RandomChainSpec {
            len: 3000,
            n_symbols: k,
            zero_prob: 0.0,
        };
        let m = random_markov_sequence(&spec, &mut rng);
        zero_cells += assert_pinned(&nfa, &m, &format!("long case {case}"));
    }
    assert!(
        zero_cells > 0,
        "no chain drove a reachable cell's mass to exactly 0"
    );
}

/// "The `j`-th symbol from the end is `0`": `2^j` reachable subsets, so
/// on a sparse chain only a few of the many lifted cells are present at
/// a time, and on a dense one most are.
fn jth_from_end(j: usize) -> Nfa {
    let mut nfa = Nfa::new(2);
    let states: Vec<_> = (0..=j).map(|i| nfa.add_state(i == j)).collect();
    for s in 0..2 {
        nfa.add_transition(states[0], SymbolId(s), states[0]);
    }
    nfa.add_transition(states[0], SymbolId(0), states[1]);
    for w in states[1..].windows(2) {
        for s in 0..2 {
            nfa.add_transition(w[0], SymbolId(s), w[1]);
        }
    }
    nfa
}

#[test]
fn dense_fold_matches_the_hashed_fold_on_many_subsets() {
    let mut rng = StdRng::seed_from_u64(0x5ab_5e75);
    for j in [4, 7, 9] {
        for zero_prob in [0.0, 0.5, 0.9] {
            let spec = RandomChainSpec {
                len: 400,
                n_symbols: 2,
                zero_prob,
            };
            let m = random_markov_sequence(&spec, &mut rng);
            assert_pinned(
                &jth_from_end(j),
                &m,
                &format!("j = {j}, zero_prob = {zero_prob}"),
            );
        }
    }
}
