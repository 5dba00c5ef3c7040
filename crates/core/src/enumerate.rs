//! Answer enumeration: unranked (Theorem 4.1) and ranked by `E_max`
//! (Theorem 4.3).
//!
//! **Unranked (Theorem 4.1).** [`enumerate_unranked`] walks the trie of
//! output prefixes depth-first, descending into `p·d` only when the
//! prefix-constrained query still has an answer and emitting `p` whenever
//! `p` itself is an answer. Both facts come from *one* boolean
//! reachability DP per visited trie node — a kernel pass over the
//! [`crate::kernelize::prefix_step_graph`], whose saturating
//! matched-length row distinguishes "emitted exactly `p`" from "emitted a
//! proper extension" — replacing the constrained-product construction and
//! the two dense DPs per node this used to cost. Every visited trie node
//! has an answer below it, answers are at depth ≤ `n · max_emission`, and
//! each step costs one polynomial nonemptiness test — polynomial delay;
//! the DFS stack is the only state — polynomial space. Answers appear in
//! lexicographic order.
//!
//! **Ranked by `E_max` (Theorem 4.3).** [`enumerate_by_emax`] instantiates
//! the Lawler–Murty framework of `transmark-kbest` with
//! [`PrefixConstraint`] subspaces: the constrained optimizer is the
//! Viterbi of [`crate::emax::top_by_emax`] run on the constraint-product
//! machine, and splitting partitions the subspace by longest common
//! prefix with the emitted answer. Polynomial delay; space grows with the
//! number of answers emitted, exactly as the paper notes.

use std::sync::Arc;

use transmark_automata::{StateId, SymbolId};
use transmark_kbest::{LawlerMurty, PartitionSpace};
use transmark_kernel::{advance, count_layers, Bool, SharedSparseSteps, Workspace};
use transmark_markov::MarkovSequence;

use crate::constraints::PrefixConstraint;
use crate::emax::top_by_emax_impl;
use crate::error::EngineError;
use crate::plan::PreparedQuery;
use crate::transducer::Transducer;

// ---------------------------------------------------------------------------
// Theorem 4.1 — unranked, polynomial delay, polynomial space
// ---------------------------------------------------------------------------

/// Lazily enumerates `A^ω(μ)` in lexicographic order with polynomial delay
/// and polynomial space (Theorem 4.1).
pub struct UnrankedAnswers<'a> {
    t: &'a Transducer,
    /// The Markov side of every per-trie-node DP, flattened once (or
    /// shared with the bind that spawned this enumeration).
    steps: SharedSparseSteps,
    /// The plan serving per-trie-node prefix step graphs from its
    /// bounded memo cache.
    graphs: Arc<PreparedQuery>,
    /// Layer buffers reused across every visited trie node.
    ws: Workspace<bool>,
    n: usize,
    /// DFS stack: the current prefix is implicit in `frames`; each frame
    /// remembers which continuation symbol to try next.
    frames: Vec<Frame>,
    prefix: Vec<SymbolId>,
    /// Upper bound on answer length, after which no descent can succeed.
    max_len: usize,
    done: bool,
}

struct Frame {
    /// Next output symbol (as a raw index) to try extending with.
    next_symbol: usize,
    /// Whether the current prefix still needs to be tested/emitted.
    emit_pending: bool,
    /// Whether the prefix at this frame is itself an answer — computed by
    /// the same DP that justified descending into it.
    exact: bool,
}

/// Starts the Theorem 4.1 enumeration. Fails fast on alphabet mismatch.
///
/// Legacy convenience: compiles a one-shot [`PreparedQuery`] internally,
/// so the enumeration is the same code path as
/// [`BoundQuery::unranked`](crate::plan::BoundQuery::unranked) — prefer
/// the prepared flow when enumerating over several sequences.
pub fn enumerate_unranked<'a>(
    t: &'a Transducer,
    m: &'a MarkovSequence,
) -> Result<UnrankedAnswers<'a>, EngineError> {
    crate::confidence::check_inputs(t, m, None)?;
    Ok(enumerate_unranked_with(
        t,
        m,
        m.sparse_steps().into_shared(),
        crate::plan::prepare(t),
    ))
}

/// The enumeration over caller-supplied artifacts (the prepared path
/// passes its shared CSR and its graph cache). Inputs must already be
/// validated.
pub(crate) fn enumerate_unranked_with<'a>(
    t: &'a Transducer,
    m: &MarkovSequence,
    steps: SharedSparseSteps,
    graphs: Arc<PreparedQuery>,
) -> UnrankedAnswers<'a> {
    let mut it = UnrankedAnswers {
        t,
        steps,
        graphs,
        ws: Workspace::new(),
        n: m.len(),
        frames: Vec::new(),
        prefix: Vec::new(),
        max_len: m.len() * t.max_emission_len(),
        done: true,
    };
    let (nonempty, exact) = it.query_prefix();
    if nonempty {
        it.frames.push(Frame {
            next_symbol: 0,
            emit_pending: true,
            exact,
        });
        it.done = false;
    }
    it
}

impl UnrankedAnswers<'_> {
    /// Current DFS stack depth (the enumeration's entire state — the
    /// polynomial-space half of Theorem 4.1, measured by the experiment
    /// harness).
    pub fn stack_depth(&self) -> usize {
        self.frames.len()
    }

    /// One boolean kernel DP over the current prefix's step graph:
    /// returns `(some answer extends the prefix, the prefix itself is an
    /// answer)`. Rows `(q, matched)` saturate at `matched = len + 1`, so
    /// the final layer separates exact emission (`matched == len`) from
    /// proper extension (`matched == len + 1`).
    fn query_prefix(&mut self) -> (bool, bool) {
        let t = self.t;
        let nq = t.n_states();
        let l = self.prefix.len();
        let width = l + 2;
        let graph = self.graphs.prefix_graph(&self.prefix);
        let nr = graph.n_rows();
        let n_nodes = self.steps.n_nodes();
        self.ws.reset(n_nodes * nr, false);
        let init_row = (t.initial().index() * width) as u32;
        for &(node, _) in self.steps.initial() {
            for e in graph.edges(node, init_row) {
                self.ws.cur_mut()[node as usize * nr + e.to as usize] = true;
            }
        }
        for i in 0..self.n - 1 {
            self.ws.clear_next(false);
            let (cur, next) = self.ws.buffers();
            advance::<Bool, _>(&self.steps.at(i), &graph, cur, next);
            self.ws.swap();
        }
        count_layers((self.n - 1) as u64);
        let cur = self.ws.cur();
        let (mut any, mut exact) = (false, false);
        for node in 0..n_nodes {
            for q in 0..nq {
                if !t.is_accepting(StateId(q as u32)) {
                    continue;
                }
                let base = node * nr + q * width;
                exact |= cur[base + l];
                any |= cur[base + l] | cur[base + l + 1];
            }
        }
        (any, exact)
    }
}

impl Iterator for UnrankedAnswers<'_> {
    type Item = Vec<SymbolId>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let Some(top) = self.frames.len().checked_sub(1) else {
                self.done = true;
                return None;
            };
            if self.frames[top].emit_pending {
                self.frames[top].emit_pending = false;
                if self.frames[top].exact {
                    return Some(self.prefix.clone());
                }
                continue;
            }
            // Try the next continuation symbol.
            let d = self.frames[top].next_symbol;
            if d >= self.t.n_output_symbols() || self.prefix.len() >= self.max_len {
                // Exhausted this node.
                self.frames.pop();
                self.prefix.pop();
                continue;
            }
            self.frames[top].next_symbol += 1;
            self.prefix.push(SymbolId(d as u32));
            let (any, exact) = self.query_prefix();
            if any {
                self.frames.push(Frame {
                    next_symbol: 0,
                    emit_pending: true,
                    exact,
                });
            } else {
                self.prefix.pop();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Theorem 4.3 — ranked by E_max, polynomial delay
// ---------------------------------------------------------------------------

/// An answer produced by the ranked enumerations, with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedAnswer {
    /// The output string.
    pub output: Vec<SymbolId>,
    /// `ln` of the score under which the enumeration is ordered
    /// (`E_max` here; confidence or `I_max` in the s-projector engines).
    pub log_score: f64,
}

impl RankedAnswer {
    /// The score in linear space.
    pub fn score(&self) -> f64 {
        self.log_score.exp()
    }
}

/// The [`PartitionSpace`] behind Theorem 4.3: the Lawler–Murty framework
/// with the constraint-product machines served from the plan's memo cache
/// (shared across subspace probes *and* across binds) and the Viterbi
/// probes running over a shared CSR instead of re-flattening the sequence
/// per subspace.
struct PlanEmaxSpace {
    plan: Arc<PreparedQuery>,
    steps: SharedSparseSteps,
}

impl PartitionSpace for PlanEmaxSpace {
    type Answer = Vec<SymbolId>;
    type Constraint = PrefixConstraint;

    fn root(&self) -> PrefixConstraint {
        PrefixConstraint::all()
    }

    fn best(&mut self, constraint: &PrefixConstraint) -> Option<(Vec<SymbolId>, f64)> {
        let cm = self.plan.constrained(constraint);
        top_by_emax_impl(
            &cm.t,
            transmark_kernel::ExecSteps::Sparse(&self.steps),
            &cm.graph,
        )
        .map(|r| (r.output, r.log_prob))
    }

    fn split(
        &mut self,
        constraint: &PrefixConstraint,
        answer: &Vec<SymbolId>,
    ) -> Vec<PrefixConstraint> {
        constraint.split_around(answer)
    }
}

/// The Theorem 4.3 enumeration, as a concrete iterator exposing its
/// frontier size (the space that, as the paper notes, "can grow
/// proportionally to the number of printed answers" — measured by the
/// experiment harness). The lifetime ties a legacy
/// [`enumerate_by_emax`] call to its borrowed inputs; the prepared path
/// owns its artifacts and is `'static`.
pub struct EmaxEnumeration<'a> {
    inner: LawlerMurty<PlanEmaxSpace>,
    _borrow: std::marker::PhantomData<&'a MarkovSequence>,
}

impl EmaxEnumeration<'_> {
    /// Number of probed subspaces waiting in the Lawler–Murty frontier
    /// (the last emitted answer's subspaces are probed by the next call,
    /// so they are not counted yet).
    pub fn frontier_len(&self) -> usize {
        self.inner.frontier_len()
    }
}

impl Iterator for EmaxEnumeration<'_> {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        self.inner
            .next()
            .map(|(output, log_score)| RankedAnswer { output, log_score })
    }
}

/// Enumerates `A^ω(μ)` in decreasing `E_max` with polynomial delay
/// (Theorem 4.3). Yields [`RankedAnswer`]s whose `log_score` is
/// `ln E_max(output)`.
///
/// Legacy convenience: compiles a one-shot [`PreparedQuery`] internally,
/// so it is the same code path as
/// [`BoundQuery::ranked`](crate::plan::BoundQuery::ranked) — prefer the
/// prepared flow when enumerating over several sequences.
pub fn enumerate_by_emax<'a>(
    t: &'a Transducer,
    m: &'a MarkovSequence,
) -> Result<EmaxEnumeration<'a>, EngineError> {
    // Validate alphabets once up front.
    crate::confidence::check_inputs(t, m, None)?;
    Ok(enumerate_by_emax_planned(
        crate::plan::prepare(t),
        m.sparse_steps().into_shared(),
    ))
}

/// The Theorem 4.3 enumeration over a prepared plan and a shared CSR.
/// Inputs must already be validated (the bind did).
pub(crate) fn enumerate_by_emax_planned(
    plan: Arc<PreparedQuery>,
    steps: SharedSparseSteps,
) -> EmaxEnumeration<'static> {
    EmaxEnumeration {
        inner: LawlerMurty::new(PlanEmaxSpace { plan, steps }),
        _borrow: std::marker::PhantomData,
    }
}

/// The top-k answers by `E_max` (stop the Theorem 4.3 enumeration after
/// `k` outputs — the §2.3.1 top-k reduction).
pub fn top_k_by_emax(
    t: &Transducer,
    m: &MarkovSequence,
    k: usize,
) -> Result<Vec<RankedAnswer>, EngineError> {
    Ok(enumerate_by_emax(t, m)?.take(k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::Alphabet;
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// Identity transducer over {a,b} and a chain whose support is
    /// {aa, ab, ba} with probabilities 0.42, 0.18, 0.40.
    fn setup() -> (Transducer, MarkovSequence) {
        let alphabet = Alphabet::of_chars("ab");
        let (a, b) = (alphabet.sym("a"), alphabet.sym("b"));
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 2)
            .initial(a, 0.6)
            .initial(b, 0.4)
            .transition(0, a, a, 0.7)
            .transition(0, a, b, 0.3)
            .transition(0, b, a, 1.0)
            .build()
            .unwrap();
        let mut tb = Transducer::builder(alphabet.clone(), alphabet);
        let q = tb.add_state(true);
        for s in 0..2u32 {
            tb.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        (tb.build().unwrap(), m)
    }

    #[test]
    fn unranked_is_lexicographic_and_complete() {
        let (t, m) = setup();
        let got: Vec<_> = enumerate_unranked(&t, &m).unwrap().collect();
        assert_eq!(
            got,
            vec![
                vec![sym(0), sym(0)],
                vec![sym(0), sym(1)],
                vec![sym(1), sym(0)],
            ]
        );
    }

    #[test]
    fn emax_ranked_matches_hand_computation() {
        let (t, m) = setup();
        let got: Vec<_> = enumerate_by_emax(&t, &m).unwrap().collect();
        // Identity: E_max(o) = p(o). Order: aa (0.42), ba (0.40), ab (0.18).
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].output, vec![sym(0), sym(0)]);
        assert!((got[0].score() - 0.42).abs() < 1e-12);
        assert_eq!(got[1].output, vec![sym(1), sym(0)]);
        assert!((got[1].score() - 0.40).abs() < 1e-12);
        assert_eq!(got[2].output, vec![sym(0), sym(1)]);
        assert!((got[2].score() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn top_k_stops_early() {
        let (t, m) = setup();
        let got = top_k_by_emax(&t, &m, 2).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].output, vec![sym(0), sym(0)]);
        // Asking for more than exist returns everything.
        assert_eq!(top_k_by_emax(&t, &m, 99).unwrap().len(), 3);
    }

    #[test]
    fn empty_query_enumerates_nothing() {
        let alphabet = Alphabet::of_chars("a");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 2)
            .uniform_all()
            .build()
            .unwrap();
        // Selective machine rejecting everything reachable.
        let mut tb = Transducer::builder(alphabet.clone(), alphabet);
        let q = tb.add_state(false);
        tb.add_transition(q, sym(0), q, &[]).unwrap();
        let t = tb.build().unwrap();
        assert_eq!(enumerate_unranked(&t, &m).unwrap().count(), 0);
        assert_eq!(enumerate_by_emax(&t, &m).unwrap().count(), 0);
    }

    #[test]
    fn epsilon_answer_is_enumerated_first_lexicographically() {
        // Transducer that drops everything: the only answer is ε.
        let alphabet = Alphabet::of_chars("ab");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 2)
            .uniform_all()
            .build()
            .unwrap();
        let mut tb = Transducer::builder(alphabet.clone(), alphabet);
        let q = tb.add_state(true);
        for s in 0..2u32 {
            tb.add_transition(q, sym(s), q, &[]).unwrap();
        }
        let t = tb.build().unwrap();
        let got: Vec<_> = enumerate_unranked(&t, &m).unwrap().collect();
        assert_eq!(got, vec![Vec::<SymbolId>::new()]);
        let ranked: Vec<_> = enumerate_by_emax(&t, &m).unwrap().collect();
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].output.is_empty());
        // E_max(ε) = most likely world = 0.25.
        assert!((ranked[0].score() - 0.25).abs() < 1e-12);
    }
}
