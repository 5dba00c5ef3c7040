//! Answer enumeration: unranked (Theorem 4.1) and ranked by `E_max`
//! (Theorem 4.3).
//!
//! Both run through a bind:
//! [`BoundQuery::unranked`](crate::plan::BoundQuery::unranked) and
//! [`BoundQuery::ranked`](crate::plan::BoundQuery::ranked).
//!
//! **Unranked (Theorem 4.1).** The enumeration walks the trie of
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
//! **Ranked by `E_max` (Theorem 4.3).** The enumeration instantiates
//! the Lawler–Murty framework of `transmark-kbest` with
//! [`PrefixConstraint`] subspaces: the constrained optimizer is the
//! `E_max` Viterbi ([`crate::emax`]) run on the constraint-product
//! machine, and splitting partitions the subspace by longest common
//! prefix with the emitted answer. The children of one split all share
//! a prefix of that answer, so they are probed together: one product
//! over the answer's prefixes with an accept sink per child (the split
//! automaton of `constraints`) and one Viterbi pass that reads off every
//! child's best answer, bit-identical to probing each child alone. A
//! split of answer `a` costs about `2|a|·|Q|` product rows instead of
//! `Σⱼ(|pⱼ|+3)·|Q|`, and `top_k(k)` runs `k` passes in all. Polynomial
//! delay; space grows with the number of answers emitted, exactly as the
//! paper notes.

use std::sync::Arc;

use transmark_automata::{StateId, SymbolId};
use transmark_kbest::{LawlerMurty, PartitionSpace};
use transmark_kernel::{advance, count_layers, Bool, ExecSteps, SharedSparseSteps, Workspace};
use transmark_markov::MarkovSequence;

use crate::constraints::{PrefixConstraint, SplitDfa};
use crate::emax::{top_by_emax, top_by_emax_impl};
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

/// Starts the Theorem 4.1 enumeration over a bind's shared CSR and its
/// plan's graph cache. Inputs must already be validated (the bind did).
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
/// with the Viterbi probes running over a shared CSR instead of
/// re-flattening the sequence per probe. The root product comes from the
/// plan's memo cache (shared across binds); each split is probed in one
/// pass over its own [`SplitDfa`] product, built per split and dropped
/// after it, since a split belongs to one posterior's answers.
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
        top_by_emax(&cm.t, ExecSteps::Sparse(&self.steps), &cm.graph)
            .map(|r| (r.output, r.log_prob))
    }

    fn split(
        &mut self,
        constraint: &PrefixConstraint,
        answer: &Vec<SymbolId>,
    ) -> Vec<PrefixConstraint> {
        constraint.split_around(answer)
    }

    fn best_of_split(
        &mut self,
        parent: &PrefixConstraint,
        answer: &Vec<SymbolId>,
        children: &[PrefixConstraint],
    ) -> Vec<Option<(Vec<SymbolId>, f64)>> {
        let t = self.plan.transducer();
        let split = SplitDfa::new(parent, answer, t.n_output_symbols());
        let (graph, initial, classes) = split.step_graph(t);
        debug_assert_eq!(classes.len(), children.len());
        top_by_emax_impl(t, ExecSteps::Sparse(&self.steps), &graph, initial, &classes)
            .into_iter()
            .map(|r| r.map(|r| (r.output, r.log_prob)))
            .collect()
    }
}

/// The Theorem 4.3 enumeration, as a concrete iterator exposing its
/// frontier size (the space that, as the paper notes, "can grow
/// proportionally to the number of printed answers" — measured by the
/// experiment harness). It owns its artifacts (the plan and the bind's
/// CSR), so it outlives the bind that started it.
pub struct EmaxEnumeration {
    inner: LawlerMurty<PlanEmaxSpace>,
}

impl EmaxEnumeration {
    /// Number of probed subspaces waiting in the Lawler–Murty frontier
    /// (the last emitted answer's subspaces are probed by the next call,
    /// so they are not counted yet).
    pub fn frontier_len(&self) -> usize {
        self.inner.frontier_len()
    }
}

impl Iterator for EmaxEnumeration {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        self.inner
            .next()
            .map(|(output, log_score)| RankedAnswer { output, log_score })
    }
}

/// The Theorem 4.3 enumeration over a prepared plan and a shared CSR.
/// Inputs must already be validated (the bind did).
pub(crate) fn enumerate_by_emax_planned(
    plan: Arc<PreparedQuery>,
    steps: SharedSparseSteps,
) -> EmaxEnumeration {
    EmaxEnumeration {
        inner: LawlerMurty::new(PlanEmaxSpace { plan, steps }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::prepare;
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
        let got: Vec<_> = prepare(&t).bind(&m).unwrap().unranked().unwrap().collect();
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
        let got: Vec<_> = prepare(&t).bind(&m).unwrap().ranked().unwrap().collect();
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
        let got = prepare(&t).bind(&m).unwrap().top_k(2).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].output, vec![sym(0), sym(0)]);
        // Asking for more than exist returns everything.
        assert_eq!(prepare(&t).bind(&m).unwrap().top_k(99).unwrap().len(), 3);
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
        assert_eq!(prepare(&t).bind(&m).unwrap().unranked().unwrap().count(), 0);
        assert_eq!(prepare(&t).bind(&m).unwrap().ranked().unwrap().count(), 0);
    }

    use std::cell::Cell;
    use std::rc::Rc;

    /// The per-child reference: probes every child of a split with the
    /// plain `best` (one constraint product and one Viterbi pass each),
    /// after asserting that the batched split pass returns the same
    /// outputs and the same score bits for every child, in split order.
    struct PerChildChecked {
        inner: PlanEmaxSpace,
        /// Split children probed so far, shared with the test.
        children: Rc<Cell<usize>>,
    }

    type Probe = Option<(Vec<SymbolId>, u64)>;

    fn probe_bits(v: &[Option<(Vec<SymbolId>, f64)>]) -> Vec<Probe> {
        v.iter()
            .map(|r| r.as_ref().map(|(o, s)| (o.clone(), s.to_bits())))
            .collect()
    }

    impl PartitionSpace for PerChildChecked {
        type Answer = Vec<SymbolId>;
        type Constraint = PrefixConstraint;

        fn root(&self) -> PrefixConstraint {
            self.inner.root()
        }

        fn best(&mut self, c: &PrefixConstraint) -> Option<(Vec<SymbolId>, f64)> {
            self.inner.best(c)
        }

        fn split(&mut self, c: &PrefixConstraint, a: &Vec<SymbolId>) -> Vec<PrefixConstraint> {
            self.inner.split(c, a)
        }

        fn best_of_split(
            &mut self,
            parent: &PrefixConstraint,
            answer: &Vec<SymbolId>,
            children: &[PrefixConstraint],
        ) -> Vec<Option<(Vec<SymbolId>, f64)>> {
            let batched = self.inner.best_of_split(parent, answer, children);
            let per_child: Vec<_> = children.iter().map(|c| self.inner.best(c)).collect();
            assert_eq!(
                probe_bits(&batched),
                probe_bits(&per_child),
                "split of {answer:?} under {parent:?}"
            );
            self.children.set(self.children.get() + children.len());
            per_child
        }
    }

    /// Ranks `(t, m)` to depth `k` twice — batched split passes, and the
    /// per-child reference — and asserts the same outputs, score bits and
    /// order. Returns how many split children the reference probed.
    fn assert_batched_matches_per_child(t: &Transducer, m: &MarkovSequence, k: usize) -> usize {
        let plan = prepare(t);
        let batched: Vec<_> = plan.bind(m).unwrap().ranked().unwrap().take(k).collect();
        let children = Rc::new(Cell::new(0));
        let want: Vec<_> = LawlerMurty::new(PerChildChecked {
            inner: PlanEmaxSpace {
                plan: Arc::clone(&plan),
                steps: m.sparse_steps().into_shared(),
            },
            children: Rc::clone(&children),
        })
        .take(k)
        .collect();
        let bits = |v: Vec<(Vec<SymbolId>, f64)>| -> Vec<(Vec<SymbolId>, u64)> {
            v.into_iter().map(|(o, s)| (o, s.to_bits())).collect()
        };
        assert_eq!(
            bits(
                batched
                    .into_iter()
                    .map(|r| (r.output, r.log_score))
                    .collect()
            ),
            bits(want)
        );
        children.get()
    }

    /// One Viterbi pass per split returns, for every child, exactly what
    /// probing that child alone returns: same outputs, same `E_max` bits,
    /// same ranked order, over every transducer class (nondeterministic
    /// machines, ε and multi-symbol emissions) to depth 40.
    #[test]
    fn batched_split_pass_matches_per_child_probes_bitwise() {
        use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

        let classes = [
            TransducerClass::General,
            TransducerClass::Deterministic,
            TransducerClass::Mealy,
            TransducerClass::Uniform(1),
            TransducerClass::Uniform(2),
            TransducerClass::Projector,
        ];
        let mut rng = StdRng::seed_from_u64(0x5e11_7a55);
        let mut children = 0;
        for case in 0..240 {
            let n_symbols = rng.random_range(2..4usize);
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: rng.random_range(1..7usize),
                    n_symbols,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let t = random_transducer(
                &RandomTransducerSpec {
                    n_states: rng.random_range(1..5usize),
                    n_input_symbols: n_symbols,
                    n_output_symbols: rng.random_range(1..4usize),
                    class: classes[case % classes.len()],
                    branching: 1.6,
                },
                &mut rng,
            );
            children += assert_batched_matches_per_child(&t, &m, 40);
        }
        assert!(children > 5_000, "only {children} split children probed");
    }

    /// The same pin on the benchmark's hardest E_max instances: n = 192
    /// RFID posteriors under the tracker that waits for the lab.
    #[test]
    fn batched_split_pass_matches_per_child_probes_on_lab_posteriors() {
        use rand::{rngs::StdRng, SeedableRng};
        use transmark_workloads::rfid;

        let dep = rfid::deployment(&rfid::RfidSpec::default());
        // `transmark-workloads` links its own build of this crate, so its
        // machine is rebuilt here transition by transition.
        let lab = dep.room_tracker(Some(2));
        let mut b = Transducer::builder(lab.input_alphabet_arc(), lab.output_alphabet_arc());
        for q in 0..lab.n_states() as u32 {
            b.add_state(lab.is_accepting(StateId(q)));
        }
        b.set_initial(lab.initial());
        for (from, symbol, e) in lab.transitions() {
            b.add_transition(from, symbol, e.target, lab.emission(e.emission))
                .unwrap();
        }
        let t = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(192);
        for _ in 0..3 {
            let (m, _) = dep.sample_posterior(192, &mut rng);
            assert!(assert_batched_matches_per_child(&t, &m, 4) > 0);
        }
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
        let got: Vec<_> = prepare(&t).bind(&m).unwrap().unranked().unwrap().collect();
        assert_eq!(got, vec![Vec::<SymbolId>::new()]);
        let ranked: Vec<_> = prepare(&t).bind(&m).unwrap().ranked().unwrap().collect();
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].output.is_empty());
        // E_max(ε) = most likely world = 0.25.
        assert!((ranked[0].score() - 0.25).abs() < 1e-12);
    }
}
