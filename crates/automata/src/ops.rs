//! Constructions on automata: determinization, boolean combinations,
//! concatenation, trimming, emptiness, and minimization.
//!
//! Two pieces deserve a note:
//!
//! * [`DetCore`] performs *on-the-fly* subset construction: a successor
//!   is interned only when a caller asks for it, so only the subsets
//!   actually reached are materialized. [`determinize`] drives it to
//!   completion. The engine's Theorem 5.5 path and its event monitors
//!   step their own flat lifted table instead (`LiftedDfa` in
//!   `transmark_core::confidence`), which interns subsets in the same
//!   order; reaching only the live subsets is what turns the naive
//!   `2^{|Q|}` blow-up into the paper's `|Q_B|²·4^{|Q_E|}`-style bound
//!   without special-casing.
//! * [`concat_nfa`] builds the concatenation of two epsilon-free NFAs
//!   without introducing epsilon transitions, which keeps the engine's DP
//!   layers aligned with Markov-sequence positions.

use std::collections::HashMap;

use crate::alphabet::SymbolId;
use crate::bitset::BitSet;
use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::nfa::{Nfa, StateId};

// ---------------------------------------------------------------------------
// Determinization
// ---------------------------------------------------------------------------

/// On-the-fly subset construction over an [`Nfa`], holding no borrow of
/// it: interned subsets, their dense ids, and the cached transition
/// table.
///
/// [`DetCore::step`] computes (and caches) the successor of a
/// subset-state under a symbol, taking the automaton per call, so a
/// consumer that owns its NFA holds a `DetCore` beside it with no
/// self-referential borrow. `{q0}` is id `0` and new subsets are interned
/// densely in discovery order, so reductions that order by id are
/// bit-reproducible.
pub struct DetCore {
    accepting: BitSet,
    subsets: Vec<BitSet>,
    ids: HashMap<BitSet, usize>,
    /// Cached transitions: `trans[id * n_symbols + sym]`, `usize::MAX` = not
    /// yet computed.
    trans: Vec<usize>,
    n_symbols: usize,
}

impl DetCore {
    /// Starts a subset construction for `nfa`. Every later call must pass
    /// the same automaton.
    pub fn new(nfa: &Nfa) -> Self {
        let init = BitSet::singleton(nfa.n_states().max(1), nfa.initial().index());
        let mut ids = HashMap::new();
        ids.insert(init.clone(), 0);
        Self {
            accepting: nfa.accepting_set(),
            subsets: vec![init],
            ids,
            trans: vec![usize::MAX; nfa.n_symbols()],
            n_symbols: nfa.n_symbols(),
        }
    }

    /// The id of the initial subset `{q0}`.
    pub fn initial(&self) -> usize {
        0
    }

    /// Number of subset states materialized so far.
    pub fn n_materialized(&self) -> usize {
        self.subsets.len()
    }

    /// The subset of NFA states behind a determinized state.
    pub fn subset(&self, id: usize) -> &BitSet {
        &self.subsets[id]
    }

    /// Whether the determinized state is accepting (its subset contains an
    /// accepting NFA state).
    pub fn is_accepting(&self, id: usize) -> bool {
        self.subsets[id].intersects(&self.accepting)
    }

    /// Whether the determinized state is the dead (empty) subset.
    pub fn is_dead(&self, id: usize) -> bool {
        self.subsets[id].is_empty()
    }

    /// The successor of subset-state `id` under `symbol`. `nfa` must be
    /// the automaton this core was created from.
    pub fn step(&mut self, nfa: &Nfa, id: usize, symbol: SymbolId) -> usize {
        let slot = id * self.n_symbols + symbol.index();
        let cached = self.trans[slot];
        if cached != usize::MAX {
            return cached;
        }
        let next = nfa.step_set(&self.subsets[id], symbol);
        let next_id = match self.ids.get(&next) {
            Some(&i) => i,
            None => {
                let i = self.subsets.len();
                self.ids.insert(next.clone(), i);
                self.subsets.push(next);
                self.trans.extend((0..self.n_symbols).map(|_| usize::MAX));
                i
            }
        };
        self.trans[slot] = next_id;
        next_id
    }
}

/// Eager subset construction: the complete DFA for `L(nfa)`.
pub fn determinize(nfa: &Nfa) -> Dfa {
    let mut det = DetCore::new(nfa);
    let mut dfa = Dfa::new(nfa.n_symbols());
    // Subset ids are discovered in BFS order and coincide with DFA state
    // ids because DetCore interns subsets densely.
    let mut frontier = vec![0usize];
    dfa.add_state(det.is_accepting(0));
    let mut known = 1usize;
    while let Some(id) = frontier.pop() {
        for s in 0..nfa.n_symbols() {
            let sym = SymbolId(s as u32);
            let to = det.step(nfa, id, sym);
            while to >= known {
                dfa.add_state(det.is_accepting(known));
                frontier.push(known);
                known += 1;
            }
            dfa.set_transition(StateId(id as u32), sym, StateId(to as u32));
        }
    }
    dfa
}

// ---------------------------------------------------------------------------
// Boolean combinations of DFAs
// ---------------------------------------------------------------------------

/// How to combine acceptance in a [`product`] construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// Intersection of languages.
    And,
    /// Union of languages.
    Or,
    /// Symmetric difference (useful for equivalence checking).
    Xor,
}

/// The product DFA of `left` and `right`, accepting by `op`.
pub fn product(left: &Dfa, right: &Dfa, op: BoolOp) -> Result<Dfa, AutomataError> {
    if left.n_symbols() != right.n_symbols() {
        return Err(AutomataError::AlphabetMismatch {
            left: left.n_symbols(),
            right: right.n_symbols(),
        });
    }
    let (nl, nr) = (left.n_states(), right.n_states());
    let mut d = Dfa::new(left.n_symbols());
    for ql in 0..nl {
        for qr in 0..nr {
            let (al, ar) = (
                left.is_accepting(StateId(ql as u32)),
                right.is_accepting(StateId(qr as u32)),
            );
            let acc = match op {
                BoolOp::And => al && ar,
                BoolOp::Or => al || ar,
                BoolOp::Xor => al != ar,
            };
            d.add_state(acc);
        }
    }
    for ql in 0..nl {
        for qr in 0..nr {
            let from = StateId((ql * nr + qr) as u32);
            for s in 0..left.n_symbols() {
                let sym = SymbolId(s as u32);
                let tl = left.step(StateId(ql as u32), sym).index();
                let tr = right.step(StateId(qr as u32), sym).index();
                d.set_transition(from, sym, StateId((tl * nr + tr) as u32));
            }
        }
    }
    d.set_initial(StateId(
        (left.initial().index() * nr + right.initial().index()) as u32,
    ));
    Ok(d)
}

/// The complement DFA (complete DFAs only, so this is just flipping the
/// accepting set).
pub fn complement(dfa: &Dfa) -> Dfa {
    let mut d = dfa.clone();
    for q in 0..d.n_states() {
        let id = StateId(q as u32);
        let acc = d.is_accepting(id);
        d.set_accepting(id, !acc);
    }
    d
}

/// Whether two DFAs accept the same language (via emptiness of the XOR
/// product).
pub fn equivalent(left: &Dfa, right: &Dfa) -> Result<bool, AutomataError> {
    let xor = product(left, right, BoolOp::Xor)?;
    Ok(is_empty_dfa(&xor))
}

/// Whether `L(dfa)` is empty.
pub fn is_empty_dfa(dfa: &Dfa) -> bool {
    let reach = dfa.reachable();
    !(0..dfa.n_states()).any(|q| reach[q] && dfa.is_accepting(StateId(q as u32)))
}

/// Whether `L(nfa)` is empty.
pub fn is_empty_nfa(nfa: &Nfa) -> bool {
    let mut seen = vec![false; nfa.n_states()];
    let mut stack = vec![nfa.initial()];
    if nfa.n_states() == 0 {
        return true;
    }
    seen[nfa.initial().index()] = true;
    while let Some(q) = stack.pop() {
        if nfa.is_accepting(q) {
            return false;
        }
        for s in 0..nfa.n_symbols() {
            for &to in nfa.successors(q, SymbolId(s as u32)) {
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push(to);
                }
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// NFA constructions
// ---------------------------------------------------------------------------

/// Concatenation `L(first)·L(second)` as an epsilon-free NFA.
///
/// States are the disjoint union. Every transition of `first` that enters
/// an accepting state of `first` is duplicated to also enter (a copy of)
/// `second`'s initial state — i.e. we may "hand over" exactly when a prefix
/// of the input lies in `L(first)`. If `ε ∈ L(first)`, the combined initial
/// state is `second`'s behaviour merged into `first`'s initial state.
pub fn concat_nfa(first: &Nfa, second: &Nfa) -> Result<Nfa, AutomataError> {
    if first.n_symbols() != second.n_symbols() {
        return Err(AutomataError::AlphabetMismatch {
            left: first.n_symbols(),
            right: second.n_symbols(),
        });
    }
    let k = first.n_symbols();
    let eps_in_second = second.is_accepting(second.initial());
    let mut out = Nfa::new(k);
    // First block: accepting only if the second machine accepts ε and the
    // first state is accepting (a split right after this prefix).
    for q in 0..first.n_states() {
        out.add_state(eps_in_second && first.is_accepting(StateId(q as u32)));
    }
    // Second block.
    let off = first.n_states() as u32;
    for q in 0..second.n_states() {
        out.add_state(second.is_accepting(StateId(q as u32)));
    }
    out.set_initial(first.initial());
    for (from, sym, to) in first.transitions() {
        out.add_transition(from, sym, to);
    }
    for (from, sym, to) in second.transitions() {
        out.add_transition(StateId(from.0 + off), sym, StateId(to.0 + off));
    }
    // Hand-over edges: from any accepting state q of `first` (the prefix
    // ending at q is in L(first)), reading symbol s can also act as the
    // first symbol of the second machine. ε ∈ L(first) is the q = initial
    // case of the same rule.
    for q in 0..first.n_states() {
        let qs = StateId(q as u32);
        if !first.is_accepting(qs) {
            continue;
        }
        for s in 0..k {
            let sym = SymbolId(s as u32);
            for &to in second.successors(second.initial(), sym) {
                out.add_transition(qs, sym, StateId(to.0 + off));
            }
        }
    }
    Ok(out)
}

/// Union `L(first) ∪ L(second)` as an epsilon-free NFA (fresh initial state
/// simulating both initial states).
pub fn union_nfa(first: &Nfa, second: &Nfa) -> Result<Nfa, AutomataError> {
    if first.n_symbols() != second.n_symbols() {
        return Err(AutomataError::AlphabetMismatch {
            left: first.n_symbols(),
            right: second.n_symbols(),
        });
    }
    let k = first.n_symbols();
    let mut out = Nfa::new(k);
    let init_acc = first.is_accepting(first.initial()) || second.is_accepting(second.initial());
    let init = out.add_state(init_acc);
    let off1 = 1u32;
    for q in 0..first.n_states() {
        out.add_state(first.is_accepting(StateId(q as u32)));
    }
    let off2 = 1 + first.n_states() as u32;
    for q in 0..second.n_states() {
        out.add_state(second.is_accepting(StateId(q as u32)));
    }
    out.set_initial(init);
    for (from, sym, to) in first.transitions() {
        out.add_transition(StateId(from.0 + off1), sym, StateId(to.0 + off1));
    }
    for (from, sym, to) in second.transitions() {
        out.add_transition(StateId(from.0 + off2), sym, StateId(to.0 + off2));
    }
    for s in 0..k {
        let sym = SymbolId(s as u32);
        for &to in first.successors(first.initial(), sym) {
            out.add_transition(init, sym, StateId(to.0 + off1));
        }
        for &to in second.successors(second.initial(), sym) {
            out.add_transition(init, sym, StateId(to.0 + off2));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Minimization (Moore's algorithm)
// ---------------------------------------------------------------------------

/// Minimizes a complete DFA with Moore's partition-refinement algorithm.
///
/// Unreachable states are dropped first. `O(n² |Σ|)` — fine for the query
/// automata this engine deals with (constraint DFAs are small).
pub fn minimize(dfa: &Dfa) -> Dfa {
    // 1. Keep only reachable states.
    let reach = dfa.reachable();
    let reachable: Vec<usize> = (0..dfa.n_states()).filter(|&q| reach[q]).collect();
    let dense: HashMap<usize, usize> = reachable.iter().enumerate().map(|(i, &q)| (q, i)).collect();

    // 2. Moore refinement over reachable states.
    let n = reachable.len();
    let mut class: Vec<usize> = reachable
        .iter()
        .map(|&q| usize::from(dfa.is_accepting(StateId(q as u32))))
        .collect();
    loop {
        // Signature of a state: (class, classes of successors).
        let mut sig_ids: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut next_class = vec![0usize; n];
        for i in 0..n {
            let q = reachable[i];
            let mut sig = Vec::with_capacity(dfa.n_symbols() + 1);
            sig.push(class[i]);
            for s in 0..dfa.n_symbols() {
                let to = dfa.step(StateId(q as u32), SymbolId(s as u32));
                sig.push(class[dense[&to.index()]]);
            }
            let next_id = sig_ids.len();
            next_class[i] = *sig_ids.entry(sig).or_insert(next_id);
        }
        if next_class == class {
            break;
        }
        class = next_class;
    }

    // 3. Build the quotient.
    let n_classes = class.iter().copied().max().map_or(0, |m| m + 1);
    let mut out = Dfa::new(dfa.n_symbols());
    let mut rep: Vec<Option<usize>> = vec![None; n_classes];
    for i in 0..n {
        if rep[class[i]].is_none() {
            rep[class[i]] = Some(reachable[i]);
        }
    }
    for c in 0..n_classes {
        let q = rep[c].expect("every class has a representative");
        out.add_state(dfa.is_accepting(StateId(q as u32)));
    }
    for c in 0..n_classes {
        let q = rep[c].expect("every class has a representative");
        for s in 0..dfa.n_symbols() {
            let to = dfa.step(StateId(q as u32), SymbolId(s as u32));
            let to_class = class[dense[&to.index()]];
            out.set_transition(
                StateId(c as u32),
                SymbolId(s as u32),
                StateId(to_class as u32),
            );
        }
    }
    out.set_initial(StateId(class[dense[&dfa.initial().index()]] as u32));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// NFA over {a,b}: strings ending in "ab".
    fn ends_ab() -> Nfa {
        let mut n = Nfa::new(2);
        let q0 = n.add_state(false);
        let q1 = n.add_state(false);
        let q2 = n.add_state(true);
        n.add_transition(q0, sym(0), q0);
        n.add_transition(q0, sym(1), q0);
        n.add_transition(q0, sym(0), q1);
        n.add_transition(q1, sym(1), q2);
        n
    }

    fn all_strings(n_symbols: usize, max_len: usize) -> Vec<Vec<SymbolId>> {
        let mut out = vec![vec![]];
        let mut layer: Vec<Vec<SymbolId>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for s in &layer {
                for c in 0..n_symbols {
                    let mut t = s.clone();
                    t.push(sym(c as u32));
                    next.push(t);
                }
            }
            out.extend(next.iter().cloned());
            layer = next;
        }
        out
    }

    #[test]
    fn determinize_preserves_language() {
        let n = ends_ab();
        let d = determinize(&n);
        assert!(d.validate().is_ok());
        for s in all_strings(2, 6) {
            assert_eq!(n.accepts(&s), d.accepts(&s), "mismatch on {s:?}");
        }
    }

    #[test]
    fn on_the_fly_matches_eager() {
        let n = ends_ab();
        let d = determinize(&n);
        let mut det = DetCore::new(&n);
        for s in all_strings(2, 5) {
            let mut id = det.initial();
            for &c in &s {
                id = det.step(&n, id, c);
            }
            assert_eq!(det.is_accepting(id), d.accepts(&s), "mismatch on {s:?}");
        }
    }

    #[test]
    fn product_and_or_xor() {
        let ends = determinize(&ends_ab());
        // "contains b" DFA
        let mut has_b = Dfa::new(2);
        let q0 = has_b.add_state(false);
        let q1 = has_b.add_sink_state(true);
        has_b.set_transition(q0, sym(0), q0);
        has_b.set_transition(q0, sym(1), q1);

        let and = product(&ends, &has_b, BoolOp::And).unwrap();
        let or = product(&ends, &has_b, BoolOp::Or).unwrap();
        let xor = product(&ends, &has_b, BoolOp::Xor).unwrap();
        for s in all_strings(2, 5) {
            let (l, r) = (ends.accepts(&s), has_b.accepts(&s));
            assert_eq!(and.accepts(&s), l && r);
            assert_eq!(or.accepts(&s), l || r);
            assert_eq!(xor.accepts(&s), l != r);
        }
    }

    #[test]
    fn complement_flips_membership() {
        let d = determinize(&ends_ab());
        let c = complement(&d);
        for s in all_strings(2, 5) {
            assert_eq!(d.accepts(&s), !c.accepts(&s));
        }
    }

    #[test]
    fn emptiness_checks() {
        assert!(is_empty_dfa(&Dfa::empty_language(2)));
        assert!(!is_empty_dfa(&Dfa::universal(2)));
        assert!(!is_empty_nfa(&ends_ab()));
        let mut dead = Nfa::new(2);
        dead.add_state(false);
        assert!(is_empty_nfa(&dead));
    }

    #[test]
    fn concat_word_languages() {
        // L1 = {ab}, L2 = {b, bb}
        let l1 = Dfa::word(2, &[sym(0), sym(1)]).to_nfa();
        let mut l2 = Nfa::new(2);
        let p0 = l2.add_state(false);
        let p1 = l2.add_state(true);
        let p2 = l2.add_state(true);
        l2.add_transition(p0, sym(1), p1);
        l2.add_transition(p1, sym(1), p2);
        let cat = concat_nfa(&l1, &l2).unwrap();
        for s in all_strings(2, 5) {
            let expect = s == [sym(0), sym(1), sym(1)] || s == [sym(0), sym(1), sym(1), sym(1)];
            assert_eq!(cat.accepts(&s), expect, "mismatch on {s:?}");
        }
    }

    #[test]
    fn concat_with_epsilon_languages() {
        // L1 = {ε, a}, L2 = {b}
        let mut l1 = Nfa::new(2);
        let a0 = l1.add_state(true);
        let a1 = l1.add_state(true);
        l1.add_transition(a0, sym(0), a1);
        let l2 = Dfa::word(2, &[sym(1)]).to_nfa();
        let cat = concat_nfa(&l1, &l2).unwrap();
        for s in all_strings(2, 4) {
            let expect = s == [sym(1)] || s == [sym(0), sym(1)];
            assert_eq!(cat.accepts(&s), expect, "mismatch on {s:?}");
        }
        // L2 = {ε, b}: concat = {ε, a, b, ab}
        let mut l2e = Nfa::new(2);
        let b0 = l2e.add_state(true);
        let b1 = l2e.add_state(true);
        l2e.add_transition(b0, sym(1), b1);
        let cat2 = concat_nfa(&l1, &l2e).unwrap();
        for s in all_strings(2, 4) {
            let expect = s.is_empty() || s == [sym(0)] || s == [sym(1)] || s == [sym(0), sym(1)];
            assert_eq!(cat2.accepts(&s), expect, "mismatch on {s:?}");
        }
    }

    #[test]
    fn union_of_word_languages() {
        let l1 = Dfa::word(2, &[sym(0)]).to_nfa();
        let l2 = Dfa::word(2, &[sym(1), sym(1)]).to_nfa();
        let u = union_nfa(&l1, &l2).unwrap();
        for s in all_strings(2, 4) {
            let expect = s == [sym(0)] || s == [sym(1), sym(1)];
            assert_eq!(u.accepts(&s), expect, "mismatch on {s:?}");
        }
    }

    #[test]
    fn minimize_produces_equivalent_smaller_dfa() {
        // Build a redundant DFA for "even number of a's" with duplicated states.
        let mut d = Dfa::new(2);
        let e0 = d.add_state(true);
        let o0 = d.add_state(false);
        let e1 = d.add_state(true);
        let o1 = d.add_state(false);
        let unreachable = d.add_sink_state(true);
        let _ = unreachable;
        for (q, (on_a, on_b)) in [
            (e0, (o1, e1)),
            (o0, (e1, o1)),
            (e1, (o0, e0)),
            (o1, (e0, o0)),
        ] {
            d.set_transition(q, sym(0), on_a);
            d.set_transition(q, sym(1), on_b);
        }
        let m = minimize(&d);
        assert_eq!(m.n_states(), 2);
        assert!(equivalent(&d, &m).unwrap());
    }

    #[test]
    fn alphabet_mismatch_is_reported() {
        let a = Dfa::universal(2);
        let b = Dfa::universal(3);
        assert!(matches!(
            product(&a, &b, BoolOp::And),
            Err(AutomataError::AlphabetMismatch { .. })
        ));
    }
}
