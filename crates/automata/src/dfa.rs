//! Deterministic finite automata.
//!
//! A [`Dfa`] here is a *complete* DFA, matching the paper's definition:
//! `|δ(q, s)| = 1` for every state and symbol. Completeness is what makes
//! the s-projector constructions of §5 well-defined (prefix/suffix
//! constraints must classify *every* string).

use crate::alphabet::SymbolId;
use crate::error::AutomataError;
use crate::nfa::{Nfa, StateId};

/// Sentinel for "transition not yet set" inside the builder.
const UNSET: StateId = StateId(u32::MAX);

/// A complete deterministic finite automaton over `0..n_symbols`.
#[derive(Debug, Clone)]
pub struct Dfa {
    n_symbols: usize,
    initial: StateId,
    accepting: Vec<bool>,
    /// Flat table indexed by `state * n_symbols + symbol`.
    delta: Vec<StateId>,
}

impl Dfa {
    /// Creates a DFA with no states. All transitions start out unset; call
    /// [`Dfa::validate`] (or any run method, which validates in debug
    /// builds) after construction.
    pub fn new(n_symbols: usize) -> Self {
        Self {
            n_symbols,
            initial: StateId(0),
            accepting: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Adds a state and returns its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        let id = StateId(u32::try_from(self.accepting.len()).expect("too many states"));
        self.accepting.push(accepting);
        self.delta.extend((0..self.n_symbols).map(|_| UNSET));
        id
    }

    /// Adds a state whose transitions all point at itself (a sink).
    pub fn add_sink_state(&mut self, accepting: bool) -> StateId {
        let id = self.add_state(accepting);
        for s in 0..self.n_symbols {
            self.set_transition(id, SymbolId(s as u32), id);
        }
        id
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, state: StateId) {
        assert!(
            state.index() < self.n_states(),
            "initial state out of range"
        );
        self.initial = state;
    }

    /// Marks or unmarks a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state.index()] = accepting;
    }

    /// Sets `δ(from, symbol) = to`.
    pub fn set_transition(&mut self, from: StateId, symbol: SymbolId, to: StateId) {
        assert!(from.index() < self.n_states(), "source state out of range");
        assert!(to.index() < self.n_states(), "target state out of range");
        assert!(symbol.index() < self.n_symbols, "symbol out of range");
        self.delta[from.index() * self.n_symbols + symbol.index()] = to;
    }

    /// Number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.accepting.len()
    }

    /// Alphabet size.
    #[inline]
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether `state` is accepting.
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state.index()]
    }

    /// The unique successor `δ(state, symbol)`.
    #[inline]
    pub fn step(&self, state: StateId, symbol: SymbolId) -> StateId {
        let to = self.delta[state.index() * self.n_symbols + symbol.index()];
        debug_assert!(to != UNSET, "transition ({}, {}) unset", state.0, symbol.0);
        to
    }

    /// Runs the DFA on `string` from the initial state, returning the final
    /// state.
    pub fn run(&self, string: &[SymbolId]) -> StateId {
        debug_assert!(self.validate().is_ok(), "running an invalid DFA");
        let mut q = self.initial;
        for &s in string {
            q = self.step(q, s);
        }
        q
    }

    /// Whether the DFA accepts `string`.
    pub fn accepts(&self, string: &[SymbolId]) -> bool {
        self.is_accepting(self.run(string))
    }

    /// Checks that the DFA is complete and all ids are in range.
    pub fn validate(&self) -> Result<(), AutomataError> {
        if self.n_states() == 0 {
            return Err(AutomataError::InvalidState {
                state: 0,
                n_states: 0,
            });
        }
        if self.initial.index() >= self.n_states() {
            return Err(AutomataError::InvalidState {
                state: self.initial.index(),
                n_states: self.n_states(),
            });
        }
        for q in 0..self.n_states() {
            for s in 0..self.n_symbols {
                let to = self.delta[q * self.n_symbols + s];
                if to == UNSET {
                    return Err(AutomataError::NotDeterministic {
                        state: q,
                        symbol: s,
                        arity: 0,
                    });
                }
                if to.index() >= self.n_states() {
                    return Err(AutomataError::InvalidState {
                        state: to.index(),
                        n_states: self.n_states(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Which states a run from the initial state can reach, indexed by
    /// state. `O(|Q|·|Σ|)`.
    pub(crate) fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.n_states()];
        let mut stack = vec![self.initial];
        seen[self.initial.index()] = true;
        while let Some(q) = stack.pop() {
            for s in 0..self.n_symbols {
                let to = self.step(q, SymbolId(s as u32));
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// Which states can reach an accepting state, indexed by state.
    /// `O(|Q|·|Σ|)`.
    fn coreachable(&self) -> Vec<bool> {
        let n = self.n_states();
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for q in 0..n {
            for s in 0..self.n_symbols {
                preds[self.step(StateId(q as u32), SymbolId(s as u32)).index()]
                    .push(StateId(q as u32));
            }
        }
        let mut seen = self.accepting.clone();
        let mut stack: Vec<usize> = (0..n).filter(|&q| seen[q]).collect();
        while let Some(q) = stack.pop() {
            for p in &preds[q] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p.index());
                }
            }
        }
        seen
    }

    /// The *live slots*: the pairs `(c, q)` such that `q` is entered by
    /// reading `c` from a state reachable from the initial state, and `q`
    /// can reach an accepting state. These are exactly the
    /// (last symbol, state) pairs that a run on a nonempty accepted
    /// string passes through. Sorted by symbol, then state.
    /// `O(|Q|·|Σ|)`.
    pub fn live_slots(&self) -> Vec<(SymbolId, StateId)> {
        let (reach, coreach) = (self.reachable(), self.coreachable());
        let n = self.n_states();
        let mut live = vec![false; self.n_symbols * n];
        for p in (0..n).filter(|&p| reach[p]) {
            for c in 0..self.n_symbols {
                let q = self.step(StateId(p as u32), SymbolId(c as u32)).index();
                live[c * n + q] |= coreach[q];
            }
        }
        (0..live.len())
            .filter(|&i| live[i])
            .map(|i| (SymbolId((i / n) as u32), StateId((i % n) as u32)))
            .collect()
    }

    /// Views this DFA as an [`Nfa`] (singleton transition sets).
    pub fn to_nfa(&self) -> Nfa {
        let mut n = Nfa::new(self.n_symbols);
        for q in 0..self.n_states() {
            n.add_state(self.accepting[q]);
        }
        n.set_initial(self.initial);
        for q in 0..self.n_states() {
            for s in 0..self.n_symbols {
                let to = self.delta[q * self.n_symbols + s];
                if to != UNSET {
                    n.add_transition(StateId(q as u32), SymbolId(s as u32), to);
                }
            }
        }
        n
    }

    // ---- Common language constructors ----------------------------------

    /// The DFA accepting every string of `Σ*` (the `[*]` constraint of
    /// simple s-projectors).
    pub fn universal(n_symbols: usize) -> Self {
        let mut d = Self::new(n_symbols);
        d.add_sink_state(true);
        d
    }

    /// The DFA accepting no string.
    pub fn empty_language(n_symbols: usize) -> Self {
        let mut d = Self::new(n_symbols);
        d.add_sink_state(false);
        d
    }

    /// The DFA accepting only the empty string.
    pub fn epsilon_only(n_symbols: usize) -> Self {
        let mut d = Self::new(n_symbols);
        let ok = d.add_state(true);
        let dead = d.add_sink_state(false);
        for s in 0..n_symbols {
            d.set_transition(ok, SymbolId(s as u32), dead);
        }
        d
    }

    /// The DFA accepting exactly `word`.
    pub fn word(n_symbols: usize, word: &[SymbolId]) -> Self {
        let mut d = Self::new(n_symbols);
        let states: Vec<StateId> = (0..=word.len())
            .map(|i| d.add_state(i == word.len()))
            .collect();
        let dead = d.add_sink_state(false);
        for (i, q) in states.iter().enumerate() {
            for s in 0..n_symbols {
                let sym = SymbolId(s as u32);
                let to = if i < word.len() && word[i] == sym {
                    states[i + 1]
                } else {
                    dead
                };
                d.set_transition(*q, sym, to);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA over {a, b} accepting strings with an even number of `a`s.
    fn even_as() -> Dfa {
        let mut d = Dfa::new(2);
        let even = d.add_state(true);
        let odd = d.add_state(false);
        let (a, b) = (SymbolId(0), SymbolId(1));
        d.set_transition(even, a, odd);
        d.set_transition(even, b, even);
        d.set_transition(odd, a, even);
        d.set_transition(odd, b, odd);
        d
    }

    #[test]
    fn accepts_even_as() {
        let d = even_as();
        let (a, b) = (SymbolId(0), SymbolId(1));
        assert!(d.accepts(&[]));
        assert!(d.accepts(&[a, a]));
        assert!(d.accepts(&[b, a, b, a]));
        assert!(!d.accepts(&[a]));
        assert!(!d.accepts(&[a, b, b]));
    }

    #[test]
    fn validate_catches_incomplete() {
        let mut d = Dfa::new(2);
        let q = d.add_state(true);
        d.set_transition(q, SymbolId(0), q);
        assert!(matches!(
            d.validate(),
            Err(AutomataError::NotDeterministic { symbol: 1, .. })
        ));
        d.set_transition(q, SymbolId(1), q);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn universal_and_empty_and_epsilon() {
        let u = Dfa::universal(3);
        let e = Dfa::empty_language(3);
        let eps = Dfa::epsilon_only(3);
        let s = [SymbolId(0), SymbolId(2)];
        assert!(u.accepts(&s) && u.accepts(&[]));
        assert!(!e.accepts(&s) && !e.accepts(&[]));
        assert!(eps.accepts(&[]) && !eps.accepts(&s) && !eps.accepts(&[SymbolId(1)]));
    }

    #[test]
    fn word_dfa_accepts_only_the_word() {
        let w = [SymbolId(1), SymbolId(0), SymbolId(1)];
        let d = Dfa::word(2, &w);
        assert!(d.accepts(&w));
        assert!(!d.accepts(&[]));
        assert!(!d.accepts(&w[..2]));
        assert!(!d.accepts(&[SymbolId(1), SymbolId(0), SymbolId(1), SymbolId(0)]));
        assert!(!d.accepts(&[SymbolId(0), SymbolId(0), SymbolId(1)]));
        assert!(d.validate().is_ok());
    }

    #[test]
    fn live_slots_skip_dead_and_unentered_states() {
        let (a, b) = (SymbolId(0), SymbolId(1));
        // "ab": states 0 -a-> 1 -b-> 2 (accepting), 3 = dead sink. State 0
        // is never entered and the sink never reaches acceptance.
        let d = Dfa::word(2, &[a, b]);
        assert_eq!(d.reachable(), vec![true; 4]);
        assert_eq!(d.coreachable(), vec![true, true, true, false]);
        assert_eq!(d.live_slots(), vec![(a, StateId(1)), (b, StateId(2))]);
        // Every state of `even_as` is live; each is entered by both
        // symbols from some reachable state.
        let e = even_as();
        assert_eq!(
            e.live_slots(),
            vec![
                (a, StateId(0)),
                (a, StateId(1)),
                (b, StateId(0)),
                (b, StateId(1))
            ]
        );
        // An unreachable accepting state contributes no slot.
        let mut u = Dfa::word(2, &[a]);
        let island = u.add_sink_state(true);
        assert!(!u.reachable()[island.index()]);
        assert_eq!(u.live_slots(), vec![(a, StateId(1))]);
        assert!(Dfa::empty_language(2).live_slots().is_empty());
    }

    #[test]
    fn to_nfa_preserves_language() {
        let d = even_as();
        let n = d.to_nfa();
        assert!(n.is_deterministic());
        let (a, b) = (SymbolId(0), SymbolId(1));
        for s in [
            vec![],
            vec![a],
            vec![a, a],
            vec![b, a, a, b],
            vec![a, b, a, a],
        ] {
            assert_eq!(d.accepts(&s), n.accepts(&s), "mismatch on {s:?}");
        }
    }
}
