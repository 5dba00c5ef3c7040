//! Prefix constraints over output strings, and their enforcement.
//!
//! Both enumeration results of §4 (Theorems 4.1 and 4.3) rest on one
//! technical device the paper calls *prefix constraints*: restricting the
//! answer space to output strings of the form
//!
//! ```text
//! { p }                      (if `allow_exact`)
//!   ∪ { p·d·w : d ∉ forbidden, w ∈ Δ* }
//! ```
//!
//! i.e. "everything extending the prefix `p`, except continuations that
//! start with a forbidden symbol — optionally including `p` itself".
//! This single family expresses the whole Lawler–Murty partition of
//! Theorem 4.3 as well as the trie descent of Theorem 4.1:
//!
//! * "answers with prefix `p`" = `(p, ∅, true)`;
//! * "exactly `p`" = `(p, Δ, true)`;
//! * "proper extensions of `p`" = `(p, ∅, false)`.
//!
//! A constraint is *enforced* by a product construction
//! ([`constrain`]): the transducer is crossed with the constraint's DFA
//! over the output alphabet, where the DFA consumes each transition's
//! emission string. The constrained machine accepts exactly the
//! (string, run) pairs whose output satisfies the constraint, so
//! answer-nonemptiness and `E_max` optimization apply unchanged.

use std::sync::Arc;

use transmark_automata::{Dfa, StateId, SymbolId};
use transmark_kernel::StepGraph;

use crate::error::EngineError;
use crate::transducer::{TEdge, Transducer, TransducerBuilder};

/// A prefix constraint over the output language (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrefixConstraint {
    /// The required prefix `p`.
    pub prefix: Vec<SymbolId>,
    /// Symbols that must not immediately follow `p`.
    pub forbidden_next: Vec<SymbolId>,
    /// Whether the answer `p` itself is in the subspace.
    pub allow_exact: bool,
}

impl PrefixConstraint {
    /// The unconstrained space: every output string.
    pub fn all() -> Self {
        Self {
            prefix: Vec::new(),
            forbidden_next: Vec::new(),
            allow_exact: true,
        }
    }

    /// All outputs with prefix `p` (including `p`).
    pub fn with_prefix(p: Vec<SymbolId>) -> Self {
        Self {
            prefix: p,
            forbidden_next: Vec::new(),
            allow_exact: true,
        }
    }

    /// Exactly the output `p`.
    pub fn exactly(p: Vec<SymbolId>, n_output_symbols: usize) -> Self {
        Self {
            prefix: p,
            forbidden_next: (0..n_output_symbols as u32).map(SymbolId).collect(),
            allow_exact: true,
        }
    }

    /// Whether a concrete output satisfies the constraint.
    pub fn matches(&self, o: &[SymbolId]) -> bool {
        if o.len() < self.prefix.len() || o[..self.prefix.len()] != self.prefix[..] {
            return false;
        }
        match o.get(self.prefix.len()) {
            None => self.allow_exact,
            Some(d) => !self.forbidden_next.contains(d),
        }
    }

    /// Compiles the constraint to a complete DFA over the output alphabet
    /// (`n_output_symbols` symbols): `|p| + 3` states — the `|p|+1` match
    /// positions, an accept-all sink and a dead sink.
    pub fn to_dfa(&self, n_output_symbols: usize) -> Dfa {
        let mut d = Dfa::new(n_output_symbols);
        let positions: Vec<StateId> = (0..=self.prefix.len())
            .map(|j| d.add_state(j == self.prefix.len() && self.allow_exact))
            .collect();
        let accept = d.add_sink_state(true);
        let dead = d.add_sink_state(false);
        for (j, &q) in positions.iter().enumerate() {
            for s in 0..n_output_symbols {
                let sym = SymbolId(s as u32);
                let to = if j < self.prefix.len() {
                    if self.prefix[j] == sym {
                        positions[j + 1]
                    } else {
                        dead
                    }
                } else if self.forbidden_next.contains(&sym) {
                    dead
                } else {
                    accept
                };
                d.set_transition(q, sym, to);
            }
        }
        d
    }

    /// The Lawler–Murty partition of `self ∖ {answer}` (the answer must
    /// satisfy `self`). The returned constraints are pairwise disjoint and
    /// together cover every satisfying output except `answer`.
    pub fn split_around(&self, answer: &[SymbolId]) -> Vec<PrefixConstraint> {
        debug_assert!(self.matches(answer), "answer must satisfy the constraint");
        let p_len = self.prefix.len();
        if answer.len() == p_len {
            // `answer == p`: drop the exact answer, keep all extensions.
            return vec![PrefixConstraint {
                prefix: self.prefix.clone(),
                forbidden_next: self.forbidden_next.clone(),
                allow_exact: false,
            }];
        }
        let mut out = Vec::with_capacity(answer.len() - p_len + 2);
        // Outputs that deviate from `answer` immediately after `p`: the
        // original constraint with the answer's continuation also
        // forbidden.
        let mut forbidden = self.forbidden_next.clone();
        forbidden.push(answer[p_len]);
        out.push(PrefixConstraint {
            prefix: self.prefix.clone(),
            forbidden_next: forbidden,
            allow_exact: self.allow_exact,
        });
        // Outputs sharing a longer proper prefix with `answer`, grouped by
        // the exact length of the shared prefix.
        for j in p_len + 1..answer.len() {
            out.push(PrefixConstraint {
                prefix: answer[..j].to_vec(),
                forbidden_next: vec![answer[j]],
                allow_exact: true,
            });
        }
        // Strict extensions of `answer`.
        out.push(PrefixConstraint {
            prefix: answer.to_vec(),
            forbidden_next: Vec::new(),
            allow_exact: false,
        });
        out
    }
}

/// The output automaton of one Lawler–Murty split: the children of
/// `parent.split_around(answer)` run side by side, so one product (and
/// one Viterbi pass over it) serves them all. The product is compiled
/// straight to a step graph ([`SplitDfa::step_graph`]): a split is
/// probed once, so building the product transducer first would only add
/// cost.
///
/// States are `pos_0..=pos_|a|` — "emitted exactly `answer[..c]`" — then
/// one accept-all sink `free_i` per child, in `split_around` order. Child
/// `i` requires the prefix `answer[..j]` with `j = |p| + i` and forbids
/// `answer[j]` next (plus the parent's forbidden set when `i = 0`); its
/// accepting states are `free_i`, which `pos_j` enters on any permitted
/// deviation, and `pos_j` itself when the child admits its prefix
/// exactly. There is no dead state: an emission that leaves every child
/// has no successor, and the product drops its edge.
///
/// Restricted to child `i`'s states, the automaton is that child's own
/// [`PrefixConstraint::to_dfa`] with `free_i` as its accept sink and the
/// dead sink removed, in the same relative state order.
pub(crate) struct SplitDfa {
    n_symbols: usize,
    /// `δ(c, d)` at `c * n_symbols + d`; `None` drops the edge.
    delta: Vec<Option<StateId>>,
    /// Per child, its accepting states, ascending.
    classes: Vec<Vec<StateId>>,
}

impl SplitDfa {
    /// Builds the automaton of `parent.split_around(answer)` over
    /// `n_output_symbols` symbols (`answer` must satisfy `parent`).
    pub(crate) fn new(
        parent: &PrefixConstraint,
        answer: &[SymbolId],
        n_output_symbols: usize,
    ) -> Self {
        debug_assert!(parent.matches(answer), "answer must satisfy the constraint");
        let (p, a) = (parent.prefix.len(), answer.len());
        let n_states = 2 * (a + 1) - p;
        let pos = |c: usize| StateId(c as u32);
        let free = |j: usize| StateId((a + 1 + j - p) as u32);
        let mut delta = vec![None; n_states * n_output_symbols];
        for c in 0..=a {
            for d in 0..n_output_symbols {
                let sym = SymbolId(d as u32);
                delta[c * n_output_symbols + d] = if answer.get(c) == Some(&sym) {
                    Some(pos(c + 1))
                } else if c < p || (c == p && parent.forbidden_next.contains(&sym)) {
                    None
                } else {
                    Some(free(c))
                };
            }
        }
        for j in p..=a {
            let f = free(j).index();
            delta[f * n_output_symbols..(f + 1) * n_output_symbols].fill(Some(free(j)));
        }
        let classes = (p..=a)
            .map(|j| {
                let exact = j < a && (j > p || parent.allow_exact);
                exact
                    .then_some(pos(j))
                    .into_iter()
                    .chain([free(j)])
                    .collect()
            })
            .collect();
        Self {
            n_symbols: n_output_symbols,
            delta,
            classes,
        }
    }

    /// The product of `t` with this automaton as a step graph, built
    /// straight from `t` rather than through [`constrain`] and
    /// `state_step_graph`. Row `(q, c)` is `q · |states| + c`. A row's
    /// edges come in `t`'s edge order, which is the order the product
    /// transducer's edges would take, and carry `t`'s emission ids. Also
    /// returns the initial row and, per child, its accepting rows in
    /// ascending order (`q` accepting, `c` in the child's class).
    pub(crate) fn step_graph(&self, t: &Transducer) -> (StepGraph, u32, Vec<Vec<StateId>>) {
        let nc = self.delta.len() / self.n_symbols;
        let nq = t.n_states();
        // Where each interned emission drives each automaton state.
        let mut em_step = vec![None; t.n_emissions() * nc];
        for em in 0..t.n_emissions() {
            let string = t.emission(crate::transducer::EmissionId(em as u32));
            for c in 0..nc {
                em_step[em * nc + c] = string.iter().try_fold(c, |cur, d| {
                    self.delta[cur * self.n_symbols + d.index()].map(StateId::index)
                });
            }
        }
        let mut b = StepGraph::builder(t.n_input_symbols(), nq * nc);
        for sym in 0..t.n_input_symbols() {
            for q in 0..nq {
                let edges = t.edges(StateId(q as u32), SymbolId(sym as u32));
                for c in 0..nc {
                    for e in edges {
                        if let Some(c2) = em_step[e.emission.index() * nc + c] {
                            b.add_edge(
                                sym as u32,
                                (q * nc + c) as u32,
                                (e.target.index() * nc + c2) as u32,
                                e.emission.0,
                            );
                        }
                    }
                }
            }
        }
        let classes = self
            .classes
            .iter()
            .map(|class| {
                (0..nq)
                    .filter(|&q| t.is_accepting(StateId(q as u32)))
                    .flat_map(|q| {
                        class
                            .iter()
                            .map(move |c| StateId((q * nc + c.index()) as u32))
                    })
                    .collect()
            })
            .collect();
        (b.build(), (t.initial().index() * nc) as u32, classes)
    }
}

/// Enforces an output-language DFA on a transducer: the product machine
/// accepts `(s, run)` iff the original machine accepts it *and* the run's
/// output is accepted by `dfa`. Emissions are preserved, so the product is
/// again a transducer producing the same outputs.
///
/// State space is `Q_A × Q_dfa`; the construction is
/// `O(|Q_A| · |Q_dfa| · |Σ| · branching · max_emission)`.
pub fn constrain(t: &Transducer, dfa: &Dfa) -> Result<Transducer, EngineError> {
    if dfa.n_symbols() != t.n_output_symbols() {
        return Err(EngineError::AlphabetMismatch {
            transducer: t.n_output_symbols(),
            sequence: dfa.n_symbols(),
        });
    }
    let nq = t.n_states();
    let nc = dfa.n_states();
    let mut b = TransducerBuilder::new(
        Arc::clone(&t.input_alphabet_arc()),
        Arc::clone(&t.output_alphabet_arc()),
    );
    let state = |q: StateId, c: StateId| StateId((q.index() * nc + c.index()) as u32);
    for q in 0..nq {
        for c in 0..nc {
            b.add_state(t.is_accepting(StateId(q as u32)) && dfa.is_accepting(StateId(c as u32)));
        }
    }
    b.set_initial(state(t.initial(), dfa.initial()));

    // Precompute where each interned emission drives each DFA state.
    let mut em_step = vec![StateId(0); t.n_emissions() * nc];
    for em in 0..t.n_emissions() {
        let string = t
            .emission(crate::transducer::EmissionId(em as u32))
            .to_vec();
        for c in 0..nc {
            let mut cur = StateId(c as u32);
            for &d in &string {
                cur = dfa.step(cur, d);
            }
            em_step[em * nc + c] = cur;
        }
    }

    for (from, sym, TEdge { target, emission }) in t.transitions() {
        let em_string = t.emission(emission).to_vec();
        for c in 0..nc {
            let c2 = em_step[emission.index() * nc + c];
            b.add_transition(
                state(from, StateId(c as u32)),
                sym,
                state(target, c2),
                &em_string,
            )?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::Alphabet;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    fn all_outputs(n_symbols: usize, max_len: usize) -> Vec<Vec<SymbolId>> {
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
    fn dfa_agrees_with_matches() {
        let cases = vec![
            PrefixConstraint::all(),
            PrefixConstraint::with_prefix(vec![sym(0), sym(1)]),
            PrefixConstraint::exactly(vec![sym(1)], 2),
            PrefixConstraint {
                prefix: vec![sym(0)],
                forbidden_next: vec![sym(0)],
                allow_exact: false,
            },
            PrefixConstraint {
                prefix: vec![],
                forbidden_next: vec![sym(1)],
                allow_exact: true,
            },
        ];
        for c in cases {
            let dfa = c.to_dfa(2);
            assert!(dfa.validate().is_ok());
            for o in all_outputs(2, 5) {
                assert_eq!(
                    dfa.accepts(&o),
                    c.matches(&o),
                    "constraint {c:?} on output {o:?}"
                );
            }
        }
    }

    #[test]
    fn split_partitions_the_space() {
        // Constraint: prefix [0], nothing forbidden, exact allowed.
        let c = PrefixConstraint::with_prefix(vec![sym(0)]);
        let answer = vec![sym(0), sym(1), sym(0)];
        let parts = c.split_around(&answer);
        for o in all_outputs(2, 5) {
            let in_parent = c.matches(&o) && o != answer;
            let count = parts.iter().filter(|p| p.matches(&o)).count();
            assert_eq!(
                count,
                usize::from(in_parent),
                "output {o:?} covered {count} times (parent={in_parent})"
            );
        }
    }

    #[test]
    fn split_around_exact_answer() {
        let c = PrefixConstraint::with_prefix(vec![sym(1)]);
        let answer = vec![sym(1)];
        let parts = c.split_around(&answer);
        assert_eq!(parts.len(), 1);
        for o in all_outputs(2, 4) {
            let in_parent = c.matches(&o) && o != answer;
            let count = parts.iter().filter(|p| p.matches(&o)).count();
            assert_eq!(count, usize::from(in_parent), "output {o:?}");
        }
    }

    #[test]
    fn split_respects_existing_forbidden_set() {
        let c = PrefixConstraint {
            prefix: vec![sym(0)],
            forbidden_next: vec![sym(0)],
            allow_exact: false,
        };
        let answer = vec![sym(0), sym(1), sym(1)];
        let parts = c.split_around(&answer);
        for o in all_outputs(2, 5) {
            let in_parent = c.matches(&o) && o != answer;
            let count = parts.iter().filter(|p| p.matches(&o)).count();
            assert_eq!(count, usize::from(in_parent), "output {o:?}");
        }
    }

    /// Class `i` of the split automaton accepts exactly the outputs of
    /// child `i` of `split_around`, and every output of the parent other
    /// than the answer lands in exactly one class.
    #[test]
    fn split_dfa_classes_recognize_the_split_children() {
        let parents = [
            PrefixConstraint::all(),
            PrefixConstraint::with_prefix(vec![sym(0)]),
            PrefixConstraint {
                prefix: vec![sym(1)],
                forbidden_next: vec![sym(0)],
                allow_exact: false,
            },
            PrefixConstraint {
                prefix: vec![],
                forbidden_next: vec![sym(2)],
                allow_exact: true,
            },
        ];
        for parent in &parents {
            for answer in all_outputs(3, 3).into_iter().filter(|o| parent.matches(o)) {
                let children = parent.split_around(&answer);
                let split = SplitDfa::new(parent, &answer, 3);
                assert_eq!(split.classes.len(), children.len());
                for o in all_outputs(3, 5) {
                    let end = o
                        .iter()
                        .try_fold(StateId(0), |c, &d| split.delta[c.index() * 3 + d.index()]);
                    for (child, class) in children.iter().zip(&split.classes) {
                        assert_eq!(
                            end.is_some_and(|c| class.contains(&c)),
                            child.matches(&o),
                            "parent {parent:?}, answer {answer:?}, output {o:?}"
                        );
                    }
                }
            }
        }
    }

    /// Transducer over Σ=Δ={a,b} copying its input (identity, accepts all).
    fn identity_transducer() -> Transducer {
        let a = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(a.clone(), a);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn constrain_filters_outputs() {
        let t = identity_transducer();
        let c = PrefixConstraint::with_prefix(vec![sym(0), sym(0)]);
        let ct = constrain(&t, &c.to_dfa(2)).unwrap();
        // Input "aab" → output "aab" satisfies the prefix [a,a].
        let s = [sym(0), sym(0), sym(1)];
        assert_eq!(ct.transduce_all(&s), vec![s.to_vec()]);
        // Input "aba" → output "aba" violates it: no accepted run.
        let s2 = [sym(0), sym(1), sym(0)];
        assert!(ct.transduce_all(&s2).is_empty());
        // Too-short input "a": output "a" is a proper prefix of the
        // required prefix, rejected.
        assert!(ct.transduce_all(&[sym(0)]).is_empty());
    }

    #[test]
    fn constrain_preserves_emissions_with_multi_symbol_outputs() {
        // Machine emitting two symbols per step: Σ={a}, Δ={x,y},
        // ω = "xy" each step.
        let input = Alphabet::of_chars("a");
        let output = Alphabet::of_chars("xy");
        let mut b = Transducer::builder(input, output);
        let q = b.add_state(true);
        b.add_transition(q, sym(0), q, &[sym(0), sym(1)]).unwrap();
        let t = b.build().unwrap();

        // Constraint: outputs starting "xy x" — satisfied after 2 steps.
        let c = PrefixConstraint::with_prefix(vec![sym(0), sym(1), sym(0)]);
        let ct = constrain(&t, &c.to_dfa(2)).unwrap();
        assert!(ct.transduce_all(&[sym(0)]).is_empty());
        assert_eq!(
            ct.transduce_all(&[sym(0), sym(0)]),
            vec![vec![sym(0), sym(1), sym(0), sym(1)]]
        );
    }

    #[test]
    fn constrain_rejects_alphabet_mismatch() {
        let t = identity_transducer();
        let dfa = Dfa::universal(3);
        assert!(matches!(
            constrain(&t, &dfa),
            Err(EngineError::AlphabetMismatch { .. })
        ));
    }
}
