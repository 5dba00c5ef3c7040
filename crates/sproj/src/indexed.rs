//! Indexed s-projectors `[B]↓A[E]` (§5.1).
//!
//! An indexed answer is a pair `(o, i)`: the matched substring together
//! with the (1-based) position where the match starts. Fixing the
//! position removes the union over occurrences that makes plain
//! s-projector confidence #P-hard (Thm 5.4), so both problems become
//! polynomial:
//!
//! * **Theorem 5.8** — [`IndexedEvaluator::confidence`]: the confidence of
//!   `(o, i)` factorizes as
//!   `W_pre(i, o₁) · ∏ⱼ μ(oⱼ, oⱼ₊₁) · W_suf(i+|o|-1, o_|o|)` where
//!   `W_pre` aggregates prefix strings in `L(B)` and `W_suf` aggregates
//!   suffix strings in `L(E)`. Both tables come from one forward DP over
//!   `(position, node, Q_B)` and one backward DP over
//!   `(position, Q_E, node)` — `O(n·|Σ|²·|Q|)` total, then `O(|o|)` per
//!   query.
//! * **Theorem 5.7** — [`enumerate_indexed`]: answers are in bijection
//!   with source→sink paths of a layered DAG whose path weights are
//!   exactly the confidences (`A` is deterministic, so each `(o, i)` has
//!   one path), and the k-best-paths enumerator of `transmark-kbest`
//!   yields them in decreasing confidence with polynomial delay. The DAG
//!   is built only over `A`'s *live slots* ([`Dfa::live_slots`]): the
//!   `(symbol, state)` pairs a match can pass through. Every other node
//!   is unreachable from the source or cannot reach the sink, so leaving
//!   it out changes no emitted bit and shrinks the DAG to
//!   `O(n·|live slots|)` nodes.

use transmark_automata::{Dfa, StateId, SymbolId};
use transmark_core::error::EngineError;
use transmark_kbest::{Dag, KBestPaths};
use transmark_kernel::{advance, count_layers, Prob, StepGraph, Workspace};
use transmark_markov::numeric::KahanSum;
use transmark_markov::MarkovSequence;

use crate::projector::SProjector;

/// Precompiles a DFA's transition function into a kernel step graph:
/// rows are DFA states, one edge per `(symbol, state)`. Machine-side —
/// a [`crate::plan::PreparedProjector`] compiles it once and shares it
/// across binds.
pub(crate) fn dfa_step_graph(d: &Dfa, n_symbols: usize) -> StepGraph {
    let nq = d.n_states();
    let mut b = StepGraph::builder(n_symbols, nq);
    for sym in 0..n_symbols {
        for q in 0..nq {
            b.add_edge(
                sym as u32,
                q as u32,
                d.step(StateId(q as u32), SymbolId(sym as u32)).0,
                0,
            );
        }
    }
    b.build()
}

/// An answer of an indexed s-projector.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedAnswer {
    /// The matched substring `o`.
    pub output: Vec<SymbolId>,
    /// The 1-based start position `i` of the match
    /// (`s = b·o·e` with `|b| = i - 1`).
    pub index: usize,
    /// `ln Pr(S →[B]↓A[E]→ (o, i))`.
    pub log_confidence: f64,
}

impl IndexedAnswer {
    /// The confidence in linear space.
    pub fn confidence(&self) -> f64 {
        self.log_confidence.exp()
    }
}

/// Precomputed prefix/suffix probability tables for one
/// `(projector, Markov sequence)` pair — the engine behind Theorems 5.7
/// and 5.8.
pub struct IndexedEvaluator<'a> {
    p: &'a SProjector,
    m: &'a MarkovSequence,
    /// `prefix_b[l-1][x]` = `Pr(S[1..l] ∈ L(B) ∧ S_l = x)`, `l = 1..=n`.
    prefix_b: Vec<Vec<f64>>,
    /// `g[l-2][qE·|Σ| + y]` = `Pr(S[l..n] drives E from qE to acceptance
    /// | S_{l-1} = y)`, `l = 2..=n+1`.
    g: Vec<Vec<f64>>,
    /// `g_start[qE]` = `Pr(S[1..n] drives E from qE to acceptance)`.
    g_start: Vec<f64>,
    eps_in_b: bool,
    eps_in_e: bool,
}

impl<'a> IndexedEvaluator<'a> {
    /// Builds the tables: `O(n·|Σ|²·(|Q_B| + |Q_E|))`.
    pub fn new(p: &'a SProjector, m: &'a MarkovSequence) -> Result<Self, EngineError> {
        let bgraph = dfa_step_graph(p.prefix_dfa(), p.alphabet().len());
        Self::with_graph(p, m, &bgraph)
    }

    /// [`IndexedEvaluator::new`] over a precompiled B-DFA step graph
    /// (which must be `dfa_step_graph(p.prefix_dfa(), |Σ|)`). The graph is
    /// only read during construction; the prepared-projector path shares
    /// one graph across binds.
    pub(crate) fn with_graph(
        p: &'a SProjector,
        m: &'a MarkovSequence,
        bgraph: &StepGraph,
    ) -> Result<Self, EngineError> {
        if p.alphabet().len() != m.n_symbols() {
            return Err(EngineError::AlphabetMismatch {
                transducer: p.alphabet().len(),
                sequence: m.n_symbols(),
            });
        }
        let n = m.len();
        let k = m.n_symbols();
        let b: &Dfa = p.prefix_dfa();
        let e: &Dfa = p.suffix_dfa();
        let (nb, ne) = (b.n_states(), e.n_states());

        // Forward over (node, B-state): a kernel sum-product pass over the
        // B-DFA's step graph. Cells are fwd[x*nb + q].
        let steps = m.sparse_steps();
        let mut ws: Workspace<f64> = Workspace::new();
        ws.reset(k * nb, 0.0);
        for &(node, px) in steps.initial() {
            for e in bgraph.edges(node, b.initial().0) {
                ws.cur_mut()[node as usize * nb + e.to as usize] += px;
            }
        }
        let mut prefix_b = Vec::with_capacity(n);
        let collect_prefix = |fwd: &[f64]| -> Vec<f64> {
            (0..k)
                .map(|x| {
                    let mut acc = KahanSum::new();
                    for q in 0..nb {
                        if b.is_accepting(StateId(q as u32)) {
                            acc.add(fwd[x * nb + q]);
                        }
                    }
                    acc.total()
                })
                .collect()
        };
        prefix_b.push(collect_prefix(ws.cur()));
        for step in 0..n - 1 {
            ws.clear_next(0.0);
            let (cur, next) = ws.buffers();
            advance::<Prob, _>(&steps.at(step), bgraph, cur, next);
            ws.swap();
            prefix_b.push(collect_prefix(ws.cur()));
        }
        count_layers((n - 1) as u64);

        // Backward over (E-state, conditioning node). g[l-2][qE*k + y].
        // Base case l = n+1: acceptance indicator, no node dependence.
        let mut g: Vec<Vec<f64>> = vec![Vec::new(); n]; // slots for l = 2..=n+1
        let mut last = vec![0.0f64; ne * k];
        for q in 0..ne {
            let v = f64::from(u8::from(e.is_accepting(StateId(q as u32))));
            for y in 0..k {
                last[q * k + y] = v;
            }
        }
        g[n - 1] = last;
        for l in (2..=n).rev() {
            // g[l] from g[l+1]; transition 0-based index l-1 couples
            // 1-based positions l-1 → l... here: previous node y at l-1,
            // next node t at l, matrix index l-2.
            let mut cur = vec![0.0f64; ne * k];
            let nxt = &g[l - 1]; // slot of l+1 is (l+1)-2 = l-1
            for q in 0..ne {
                for y in 0..k {
                    let mut acc = KahanSum::new();
                    for (t, pt) in m.transitions_from(l - 2, SymbolId(y as u32)) {
                        let q2 = e.step(StateId(q as u32), t).index();
                        acc.add(pt * nxt[q2 * k + t.index()]);
                    }
                    cur[q * k + y] = acc.total();
                }
            }
            g[l - 2] = cur;
        }
        // g_start: suffix = whole string (l = 1), weighted by μ₀.
        let mut g_start = vec![0.0f64; ne];
        for q in 0..ne {
            let mut acc = KahanSum::new();
            for t in 0..k {
                let p0 = m.initial_prob(SymbolId(t as u32));
                if p0 > 0.0 {
                    let q2 = e.step(StateId(q as u32), SymbolId(t as u32)).index();
                    // value of "suffix from position 2 onwards" given node t:
                    let v = if n == 1 {
                        f64::from(u8::from(e.is_accepting(StateId(q2 as u32))))
                    } else {
                        g[0][q2 * k + t]
                    };
                    acc.add(p0 * v);
                }
            }
            g_start[q] = acc.total();
        }

        Ok(Self {
            eps_in_b: b.is_accepting(b.initial()),
            eps_in_e: e.is_accepting(e.initial()),
            p,
            m,
            prefix_b,
            g,
            g_start,
        })
    }

    /// The sequence length `n`.
    pub fn n(&self) -> usize {
        self.m.len()
    }

    /// `W_pre(i, c)` = `Pr(S[1..i-1] ∈ L(B) ∧ S_i = c)` — the probability
    /// mass of prefixes in `L(B)` followed by node `c` at position `i`
    /// (1-based).
    fn w_pre(&self, i: usize, c: SymbolId) -> f64 {
        if i == 1 {
            return if self.eps_in_b {
                self.m.initial_prob(c)
            } else {
                0.0
            };
        }
        let k = self.m.n_symbols();
        let mut acc = KahanSum::new();
        for x in 0..k {
            let pb = self.prefix_b[i - 2][x];
            if pb > 0.0 {
                acc.add(pb * self.m.transition_prob(i - 2, SymbolId(x as u32), c));
            }
        }
        acc.total()
    }

    /// `W_suf(l, y)` = `Pr(S[l..n] ∈ L(E) | S_{l-1} = y)` for `2 ≤ l ≤ n+1`
    /// (`l = n+1` means the suffix is empty).
    fn w_suf(&self, l: usize, y: SymbolId) -> f64 {
        debug_assert!(l >= 2);
        if l == self.m.len() + 1 {
            return f64::from(u8::from(self.eps_in_e));
        }
        let e0 = self.p.suffix_dfa().initial().index();
        self.g[l - 2][e0 * self.m.n_symbols() + y.index()]
    }

    /// **Theorem 5.8**: the confidence of the indexed answer `(o, i)`,
    /// in `O(|o| + |Σ|)` after table construction. Returns 0 for invalid
    /// indices or `o ∉ L(A)`.
    pub fn confidence(&self, o: &[SymbolId], i: usize) -> f64 {
        let n = self.m.len();
        let mlen = o.len();
        if i == 0 || !self.p.pattern_dfa().accepts(o) {
            return 0.0;
        }
        if mlen == 0 {
            return self.epsilon_confidence(i);
        }
        if i + mlen - 1 > n {
            return 0.0;
        }
        let mut prob = self.w_pre(i, o[0]);
        for j in 0..mlen - 1 {
            if prob == 0.0 {
                return 0.0;
            }
            prob *= self.m.transition_prob(i - 1 + j, o[j], o[j + 1]);
        }
        prob * self.w_suf(i + mlen, o[mlen - 1])
    }

    /// The confidence of `(ε, i)` given `ε ∈ L(A)`:
    /// `Pr(S[1..i-1] ∈ L(B) ∧ S[i..n] ∈ L(E))`, for `1 ≤ i ≤ n+1`
    /// (0 beyond).
    fn epsilon_confidence(&self, i: usize) -> f64 {
        let n = self.m.len();
        if i > n + 1 {
            return 0.0;
        }
        if i == 1 {
            if self.eps_in_b {
                self.g_start[self.p.suffix_dfa().initial().index()]
            } else {
                0.0
            }
        } else if i == n + 1 {
            if self.eps_in_e {
                self.prefix_b[n - 1]
                    .iter()
                    .copied()
                    .collect::<KahanSum>()
                    .total()
            } else {
                0.0
            }
        } else {
            let k = self.m.n_symbols();
            let e0 = self.p.suffix_dfa().initial().index();
            let mut acc = KahanSum::new();
            for x in 0..k {
                let pb = self.prefix_b[i - 2][x];
                if pb > 0.0 {
                    acc.add(pb * self.g[i - 2][e0 * k + x]);
                }
            }
            acc.total()
        }
    }
}

// ---------------------------------------------------------------------------
// Theorem 5.7 — ranked enumeration via k-best DAG paths
// ---------------------------------------------------------------------------

/// What each DAG edge encodes, for reconstructing `(o, i)` from a path.
#[derive(Debug, Clone, Copy)]
enum EdgeKind {
    /// Path start: the match begins at position `i` with symbol `c`.
    Start { i: usize, c: SymbolId },
    /// The match continues with symbol `c`.
    Continue { c: SymbolId },
    /// The match ends (suffix weight absorbed here).
    Finish,
    /// A whole `(ε, i)` answer.
    Epsilon { i: usize },
}

/// Iterator over the indexed answers in non-increasing confidence
/// (Theorem 5.7).
pub struct IndexedEnumeration {
    paths: KBestPaths,
    kinds: Vec<EdgeKind>,
}

impl Iterator for IndexedEnumeration {
    type Item = IndexedAnswer;

    fn next(&mut self) -> Option<Self::Item> {
        let (edges, w) = self.paths.next()?;
        let mut output = Vec::new();
        let mut index = 0usize;
        for eid in edges {
            match self.kinds[eid] {
                EdgeKind::Start { i, c } => {
                    index = i;
                    output.push(c);
                }
                EdgeKind::Continue { c } => output.push(c),
                EdgeKind::Finish => {}
                EdgeKind::Epsilon { i } => index = i,
            }
        }
        Some(IndexedAnswer {
            output,
            index,
            log_confidence: w,
        })
    }
}

/// **Theorem 5.7**: enumerates the answers of `[B]↓A[E]` over `μ` in
/// decreasing confidence with polynomial delay.
///
/// Builds a layered DAG whose source→sink paths are in weight-preserving
/// bijection with the indexed answers, then runs the best-first path
/// enumerator. Its nodes are `(position, live slot)` pairs, a live slot
/// being a `(symbol, Q_A-state)` pair that a match can pass through
/// ([`Dfa::live_slots`]). DAG size: `O(n·L)` nodes and
/// `O(n·L·|Σ| + n·|Σ|)` edges for `L ≤ |Σ|·|Q_A|` live slots.
pub fn enumerate_indexed(
    p: &SProjector,
    m: &MarkovSequence,
) -> Result<IndexedEnumeration, EngineError> {
    let ev = IndexedEvaluator::new(p, m)?;
    Ok(enumerate_indexed_from(&ev, p.pattern_dfa()))
}

/// [`enumerate_indexed`] over precomputed Theorem 5.8 tables and the
/// pattern DFA `a`. The tables depend only on `B`, `E` and `μ`, so one
/// build serves the projector's own pattern and every Lemma 5.10
/// `pattern ∩ constraint` probe. The returned iterator owns its DAG and
/// borrows nothing.
pub(crate) fn enumerate_indexed_from(ev: &IndexedEvaluator<'_>, a: &Dfa) -> IndexedEnumeration {
    let (dag, kinds) = build_dag(ev, a);
    IndexedEnumeration {
        paths: KBestPaths::new(dag, 0, 1),
        kinds,
    }
}

/// Appends an edge and its label, unless its weight is `-∞` (such an edge
/// could never lie on an emitted path).
fn add_edge(
    dag: &mut Dag,
    kinds: &mut Vec<EdgeKind>,
    from: usize,
    to: usize,
    w: f64,
    kind: EdgeKind,
) {
    if w > f64::NEG_INFINITY {
        let id = dag.add_edge(from, to, w);
        debug_assert_eq!(id, kinds.len());
        kinds.push(kind);
    }
}

/// The Theorem 5.7 DAG over `a`'s live slots, with each edge's label.
///
/// Node `(pos, c, q)` stands for "the match has read `c` at position
/// `pos` and `A` is in state `q`". A node whose `(c, q)` is not a live
/// slot is either unreachable from the source or has no path to the
/// sink, so it is never pushed by [`KBestPaths`] and never wins its
/// best-suffix maximum. Live nodes get the same start, continue and
/// finish edges, each node's out-edges in the same order, as over the
/// full `n·|Σ|·|Q_A|` grid, so the enumeration is bit-identical to it.
fn build_dag(ev: &IndexedEvaluator<'_>, a: &Dfa) -> (Dag, Vec<EdgeKind>) {
    let m = ev.m;
    let n = m.len();
    let k = m.n_symbols();
    let na = a.n_states();
    let slots = a.live_slots();
    let width = slots.len();
    let mut slot_of = vec![None; k * na];
    for (s, &(c, q)) in slots.iter().enumerate() {
        slot_of[c.index() * na + q.index()] = Some(s);
    }
    // The live slots entered by reading each symbol from `q`, in symbol
    // order.
    let entered = |q: StateId| -> Vec<(SymbolId, usize)> {
        (0..k)
            .filter_map(|c| {
                let sym = SymbolId(c as u32);
                slot_of[c * na + a.step(q, sym).index()].map(|s| (sym, s))
            })
            .collect()
    };
    let starts = entered(a.initial());
    let succ: Vec<Vec<(SymbolId, usize)>> = slots.iter().map(|&(_, q)| entered(q)).collect();

    // Node ids: 0 = source, 1 = sink, then (pos, slot) for pos = 1..=n,
    // then ε-answer nodes.
    let node_id = |pos: usize, s: usize| 2 + (pos - 1) * width + s;
    let n_main = 2 + n * width;
    let eps_in_a = a.is_accepting(a.initial());
    let n_eps = if eps_in_a { n + 1 } else { 0 };
    let mut dag = Dag::new(n_main + n_eps);
    let mut kinds: Vec<EdgeKind> = Vec::new();

    for pos in 1..=n {
        // Start edges: prefix mass ends just before `pos`, match begins
        // with `c`.
        for &(c, s) in &starts {
            add_edge(
                &mut dag,
                &mut kinds,
                0,
                node_id(pos, s),
                ev.w_pre(pos, c).ln(),
                EdgeKind::Start { i: pos, c },
            );
        }
        for (s, &(c, q)) in slots.iter().enumerate() {
            // Continue edges.
            if pos < n {
                for &(c2, s2) in &succ[s] {
                    add_edge(
                        &mut dag,
                        &mut kinds,
                        node_id(pos, s),
                        node_id(pos + 1, s2),
                        m.transition_prob(pos - 1, c, c2).ln(),
                        EdgeKind::Continue { c: c2 },
                    );
                }
            }
            // Finish edges (only from accepting pattern states).
            if a.is_accepting(q) {
                add_edge(
                    &mut dag,
                    &mut kinds,
                    node_id(pos, s),
                    1,
                    ev.w_suf(pos + 1, c).ln(),
                    EdgeKind::Finish,
                );
            }
        }
    }
    if eps_in_a {
        for i in 1..=n + 1 {
            let eps_node = n_main + (i - 1);
            add_edge(
                &mut dag,
                &mut kinds,
                0,
                eps_node,
                ev.epsilon_confidence(i).ln(),
                EdgeKind::Epsilon { i },
            );
            add_edge(&mut dag, &mut kinds, eps_node, 1, 0.0, EdgeKind::Finish);
        }
    }
    (dag, kinds)
}

/// Top-k indexed answers by confidence (stop Theorem 5.7 after `k`).
pub fn top_k_indexed(
    p: &SProjector,
    m: &MarkovSequence,
    k: usize,
) -> Result<Vec<IndexedAnswer>, EngineError> {
    Ok(enumerate_indexed(p, m)?.take(k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};
    use transmark_automata::Alphabet;
    use transmark_core::constraints::PrefixConstraint;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
    use transmark_markov::MarkovSequenceBuilder;

    use crate::plan::PreparedProjector;

    /// The Theorem 5.7 DAG over the full `n·|Σ|·|Q_A|` node grid, as the
    /// DAG was built before live slots: the reference [`build_dag`] must
    /// match bit for bit.
    fn full_dag(ev: &IndexedEvaluator<'_>, a: &Dfa) -> (Dag, Vec<EdgeKind>) {
        let m = ev.m;
        let n = m.len();
        let k = m.n_symbols();
        let na = a.n_states();
        let eps_in_a = a.is_accepting(a.initial());
        let node_id = |pos: usize, c: usize, q: usize| 2 + ((pos - 1) * k + c) * na + q;
        let n_main = 2 + n * k * na;
        let n_eps = if eps_in_a { n + 1 } else { 0 };
        let mut dag = Dag::new(n_main + n_eps);
        let mut kinds = Vec::new();
        for pos in 1..=n {
            for c in 0..k {
                let sym = SymbolId(c as u32);
                let q1 = a.step(a.initial(), sym);
                add_edge(
                    &mut dag,
                    &mut kinds,
                    0,
                    node_id(pos, c, q1.index()),
                    ev.w_pre(pos, sym).ln(),
                    EdgeKind::Start { i: pos, c: sym },
                );
                for q in 0..na {
                    if pos < n {
                        for c2 in 0..k {
                            let sym2 = SymbolId(c2 as u32);
                            let q2 = a.step(StateId(q as u32), sym2);
                            add_edge(
                                &mut dag,
                                &mut kinds,
                                node_id(pos, c, q),
                                node_id(pos + 1, c2, q2.index()),
                                m.transition_prob(pos - 1, sym, sym2).ln(),
                                EdgeKind::Continue { c: sym2 },
                            );
                        }
                    }
                    if a.is_accepting(StateId(q as u32)) {
                        add_edge(
                            &mut dag,
                            &mut kinds,
                            node_id(pos, c, q),
                            1,
                            ev.w_suf(pos + 1, sym).ln(),
                            EdgeKind::Finish,
                        );
                    }
                }
            }
        }
        if eps_in_a {
            for i in 1..=n + 1 {
                let eps_node = n_main + (i - 1);
                add_edge(
                    &mut dag,
                    &mut kinds,
                    0,
                    eps_node,
                    ev.confidence(&[], i).ln(),
                    EdgeKind::Epsilon { i },
                );
                add_edge(&mut dag, &mut kinds, eps_node, 1, 0.0, EdgeKind::Finish);
            }
        }
        (dag, kinds)
    }

    /// A whole enumeration, floats as bits.
    fn bits(e: IndexedEnumeration) -> Vec<(Vec<SymbolId>, usize, u64)> {
        e.map(|ia| (ia.output, ia.index, ia.log_confidence.to_bits()))
            .collect()
    }

    fn assert_matches_full_grid(ev: &IndexedEvaluator<'_>, a: &Dfa) {
        let (dag, kinds) = full_dag(ev, a);
        let full = IndexedEnumeration {
            paths: KBestPaths::new(dag, 0, 1),
            kinds,
        };
        assert_eq!(bits(enumerate_indexed_from(ev, a)), bits(full));
    }

    fn random_dfa<R: Rng + ?Sized>(k: usize, n_states: usize, rng: &mut R) -> Dfa {
        let mut d = Dfa::new(k);
        let states: Vec<StateId> = (0..n_states)
            .map(|_| d.add_state(rng.random_bool(0.4)))
            .collect();
        for &q in &states {
            for s in 0..k {
                d.set_transition(q, SymbolId(s as u32), states[rng.random_range(0..n_states)]);
            }
        }
        d
    }

    /// A chain whose rows are uniform over random supports: many answers
    /// tie exactly, so the pin below also fixes the order among ties.
    fn tied_chain<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> MarkovSequence {
        let names: String = "abcd".chars().take(k).collect();
        let mut b = MarkovSequenceBuilder::new(Alphabet::of_chars(&names), n).uniform_all();
        for i in 0..n - 1 {
            for from in 0..k {
                let support: Vec<usize> = (0..k).filter(|_| rng.random_bool(0.6)).collect();
                let support = if support.is_empty() {
                    vec![from]
                } else {
                    support
                };
                let mut row = vec![0.0; k];
                for &to in &support {
                    row[to] = 1.0 / support.len() as f64;
                }
                for (to, &p) in row.iter().enumerate() {
                    b = b.transition(i, SymbolId(from as u32), SymbolId(to as u32), p);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn live_slot_dag_enumerates_bitwise_like_the_full_grid() {
        let mut eps_accepting = 0;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(2..4);
            let n = rng.random_range(1..6);
            let m = if seed % 2 == 0 {
                random_markov_sequence(
                    &RandomChainSpec {
                        len: n,
                        n_symbols: k,
                        zero_prob: 0.3,
                    },
                    &mut rng,
                )
            } else {
                tied_chain(k, n, &mut rng)
            };
            let b = random_dfa(k, rng.random_range(1..4), &mut rng);
            let mut a = random_dfa(k, rng.random_range(1..5), &mut rng);
            if seed % 3 == 0 {
                a.set_accepting(a.initial(), true);
            }
            eps_accepting += usize::from(a.is_accepting(a.initial()));
            let e = random_dfa(k, rng.random_range(1..4), &mut rng);
            let p = SProjector::new(m.alphabet_arc(), b, a, e).unwrap();
            let ev = IndexedEvaluator::new(&p, &m).unwrap();
            assert_matches_full_grid(&ev, p.pattern_dfa());

            // Lemma 5.10 probes: the pattern ∩ constraint products over
            // the same tables, for the root and the subspaces around the
            // first few answers.
            let plan = PreparedProjector::new(&p);
            let mut constraints = vec![PrefixConstraint::all()];
            for ia in enumerate_indexed(&p, &m).unwrap().take(3) {
                constraints.extend(PrefixConstraint::all().split_around(&ia.output));
            }
            for c in &constraints {
                assert_matches_full_grid(&ev, &plan.constrained(c));
            }
        }
        assert!(eps_accepting >= 20, "too few ε-accepting patterns");
    }

    /// A seeded n-base uncertain read: each base is called right with
    /// probability 0.95 and as its transversion partner otherwise, so
    /// every position has two hypotheses and most transitions are zero.
    fn uncertain_read(n: usize, seed: u64) -> MarkovSequence {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth: Vec<SymbolId> = (0..n)
            .map(|_| SymbolId(rng.random_range(0..4u32)))
            .collect();
        let miscall = |b: SymbolId| SymbolId(b.0 ^ 1);
        let mut b = MarkovSequenceBuilder::new(Alphabet::of_chars("ACGT"), n)
            .initial(truth[0], 0.95)
            .initial(miscall(truth[0]), 0.05);
        for i in 0..n - 1 {
            let (good, bad) = (truth[i + 1], miscall(truth[i + 1]));
            for (from, p_err) in [(truth[i], 0.05), (miscall(truth[i]), 0.2)] {
                b = b
                    .transition(i, from, good, 1.0 - p_err)
                    .transition(i, from, bad, p_err);
            }
        }
        b.fill_dead_rows_self_loop().build().unwrap()
    }

    #[test]
    fn motif_dag_keeps_only_live_pattern_states() {
        let m = uncertain_read(4096, 5);
        let alphabet = m.alphabet_arc();
        let word: Vec<SymbolId> = "GATTACA"
            .chars()
            .map(|c| alphabet.sym(&c.to_string()))
            .collect();
        let p = SProjector::simple(Arc::clone(&alphabet), Dfa::word(4, &word)).unwrap();
        let a = p.pattern_dfa();
        let ev = IndexedEvaluator::new(&p, &m).unwrap();
        let (dag, _) = build_dag(&ev, a);
        let (full, _) = full_dag(&ev, a);

        // Every node (pos, c, q) of the DAG has a state q that reading c
        // enters from a reachable state and that can still accept. For a
        // word DFA these are the states 1..=7, each entered by its letter.
        let slots = a.live_slots();
        let expected: Vec<(SymbolId, StateId)> = word
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, StateId(i as u32 + 1)))
            .collect();
        let mut sorted = expected.clone();
        sorted.sort();
        assert_eq!(slots, sorted);
        assert_eq!(dag.n_nodes(), 2 + m.len() * expected.len());
        for eid in 0..dag.n_edges() {
            let (from, to) = dag.endpoints(eid);
            for v in [from, to].into_iter().filter(|&v| v >= 2) {
                let (c, q) = slots[(v - 2) % slots.len()];
                assert!(
                    expected.contains(&(c, q)),
                    "node {v} has a dead or unentered slot"
                );
            }
        }
        assert!(
            5 * dag.n_edges() <= full.n_edges(),
            "{} live-slot edges against {} on the full grid",
            dag.n_edges(),
            full.n_edges()
        );
        // Same answers, bit for bit, as over the full grid.
        assert_matches_full_grid(&ev, a);
    }
}
