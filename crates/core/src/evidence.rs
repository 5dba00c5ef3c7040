//! Enumerating the evidences behind an answer.
//!
//! `E_max(o)` (§4.2) is the probability of the single best evidence; this
//! module generalizes it: enumerate *all* possible worlds transduced into
//! a given answer `o`, in non-increasing probability. This is the
//! provenance view a probabilistic database owes its users — "*why* does
//! the engine believe the cart went Room 1 → Room 2?" — and it reuses the
//! same reduction style as Theorem 5.7: evidences are source→sink paths
//! of the layered product graph (position × node × state × output
//! position), enumerated by the k-best-paths machinery.
//!
//! For a deterministic transducer each world has a single run, so paths
//! and evidences are in bijection and the delay is polynomial. For a
//! nondeterministic machine a world may have several accepting runs
//! emitting `o`; duplicates are filtered (the first, maximal-probability
//! occurrence is kept), which degrades the guarantee to incremental
//! polynomial time — the same trade-off as Lemma 5.10's dedup variant.

use std::collections::HashSet;

use transmark_automata::{StateId, SymbolId};
use transmark_kbest::{Dag, KBestPaths};
use transmark_markov::MarkovSequence;

use crate::transducer::Transducer;

/// One evidence: a possible world and its probability.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The world `s` with `s →[A^ω]→ o`.
    pub world: Vec<SymbolId>,
    /// `ln p(s)`.
    pub log_prob: f64,
}

impl Evidence {
    /// `p(world)` in linear space.
    pub fn prob(&self) -> f64 {
        self.log_prob.exp()
    }
}

/// Iterator over the evidences of an answer in non-increasing
/// probability.
pub struct Evidences {
    paths: KBestPaths,
    /// For edge `e`: the node (Markov symbol) it enters, or `None` for
    /// the final sink edge.
    labels: Vec<Option<SymbolId>>,
    seen: HashSet<Vec<SymbolId>>,
}

impl Iterator for Evidences {
    type Item = Evidence;

    fn next(&mut self) -> Option<Evidence> {
        loop {
            let (edges, w) = self.paths.next()?;
            let world: Vec<SymbolId> = edges.iter().filter_map(|&e| self.labels[e]).collect();
            if self.seen.insert(world.clone()) {
                return Some(Evidence { world, log_prob: w });
            }
        }
    }
}

/// Enumerates all worlds transduced into `o`, most probable first — the
/// pass behind [`BoundQuery::evidences`](crate::plan::BoundQuery::evidences).
///
/// Graph: node `(i, x, q, j)` means "after reading position `i` ending at
/// Markov node `x`, the run is in state `q` having emitted `o[..j]`";
/// sink edges require `q ∈ F` and `j = |o|`. Graph size
/// `O(n·|Σ|·|Q|·|o|)` nodes. `graph` must be `output_step_graph(t, o)`
/// (the plan's memoized copy) for an `o` of length `o_len`.
pub(crate) fn enumerate_evidences_impl(
    t: &Transducer,
    m: &MarkovSequence,
    graph: &transmark_kernel::StepGraph,
    o_len: usize,
) -> Evidences {
    let n = m.len();
    let k = m.n_symbols();
    let nq = t.n_states();
    let width = o_len + 1;
    let nr = graph.n_rows();
    // Node ids: 0 = source, 1 = sink, then dense (i, x, row).
    let node_id = |i: usize, x: usize, row: usize| 2 + ((i - 1) * k + x) * nr + row;
    let mut dag = Dag::new(2 + n * k * nr);
    let mut labels: Vec<Option<SymbolId>> = Vec::new();
    let add = |dag: &mut Dag, labels: &mut Vec<Option<SymbolId>>, from, to, w: f64, label| {
        if w > f64::NEG_INFINITY {
            let id = dag.add_edge(from, to, w);
            debug_assert_eq!(id, labels.len());
            labels.push(label);
        }
    };

    // Source edges: position 1.
    let init_row = (t.initial().index() * width) as u32;
    for x in 0..k {
        let p = m.initial_prob(SymbolId(x as u32));
        if p == 0.0 {
            continue;
        }
        for e in graph.edges(x as u32, init_row) {
            add(
                &mut dag,
                &mut labels,
                0,
                node_id(1, x, e.to as usize),
                p.ln(),
                Some(SymbolId(x as u32)),
            );
        }
    }
    // Interior edges.
    for i in 1..n {
        for x in 0..k {
            for (y, pt) in m.transitions_from(i - 1, SymbolId(x as u32)) {
                let lw = pt.ln();
                for row in 0..nr {
                    for e in graph.edges(y.0, row as u32) {
                        add(
                            &mut dag,
                            &mut labels,
                            node_id(i, x, row),
                            node_id(i + 1, y.index(), e.to as usize),
                            lw,
                            Some(y),
                        );
                    }
                }
            }
        }
    }
    // Sink edges: accepting states with the full output.
    for x in 0..k {
        for q in 0..nq {
            if t.is_accepting(StateId(q as u32)) {
                add(
                    &mut dag,
                    &mut labels,
                    node_id(n, x, q * width + o_len),
                    1,
                    0.0,
                    None,
                );
            }
        }
    }
    Evidences {
        paths: KBestPaths::new(dag, 0, 1),
        labels,
        seen: HashSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::prepare;
    use transmark_automata::Alphabet;
    use transmark_markov::support::support;
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// Brute-force evidences: all worlds transduced to `o`, sorted by
    /// decreasing probability.
    fn brute_evidences(
        t: &Transducer,
        m: &MarkovSequence,
        o: &[SymbolId],
    ) -> Vec<(Vec<SymbolId>, f64)> {
        let mut v: Vec<(Vec<SymbolId>, f64)> = support(m)
            .into_iter()
            .filter(|(s, _)| t.transduce_all(s).iter().any(|out| out == o))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        v
    }

    fn check(t: &Transducer, m: &MarkovSequence, o: &[SymbolId]) {
        let got: Vec<_> = prepare(t).bind(m).unwrap().evidences(o).unwrap().collect();
        let want = brute_evidences(t, m, o);
        assert_eq!(got.len(), want.len(), "evidence count for {o:?}");
        // Same multiset of worlds; non-increasing probabilities that match.
        let mut prev = f64::INFINITY;
        for ev in &got {
            assert!(ev.log_prob <= prev + 1e-12);
            prev = ev.log_prob;
            let p = m.string_probability(&ev.world).unwrap();
            assert!((p - ev.prob()).abs() < 1e-12);
            assert!(t.transduce_all(&ev.world).iter().any(|out| out == o));
        }
        let mut gs: Vec<_> = got.iter().map(|e| e.world.clone()).collect();
        let mut ws: Vec<_> = want.iter().map(|(w, _)| w.clone()).collect();
        gs.sort();
        ws.sort();
        assert_eq!(gs, ws);
    }

    #[test]
    fn hospital_evidences_of_12_are_s_t_u() {
        // Use the paper's own example through the core crate's test-only
        // reconstruction: build it inline to avoid a dev-dependency cycle.
        // Simpler: a toy machine with known evidence sets.
        let alphabet = Alphabet::of_chars("ab");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 3)
            .initial(sym(0), 0.5)
            .initial(sym(1), 0.5)
            .transition(0, sym(0), sym(0), 0.9)
            .transition(0, sym(0), sym(1), 0.1)
            .transition(0, sym(1), sym(0), 0.5)
            .transition(0, sym(1), sym(1), 0.5)
            .transition(1, sym(0), sym(1), 1.0)
            .transition(1, sym(1), sym(1), 1.0)
            .build()
            .unwrap();
        // Collapse both symbols to "z": all worlds are evidences of "zzz".
        let out = Alphabet::of_chars("z");
        let mut b = Transducer::builder(alphabet, out.clone());
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[out.sym("z")]).unwrap();
        }
        let t = b.build().unwrap();
        let o = vec![out.sym("z"); 3];
        check(&t, &m, &o);
        // Top evidence is the Viterbi string.
        let top = prepare(&t)
            .bind(&m)
            .unwrap()
            .evidences(&o)
            .unwrap()
            .next()
            .unwrap();
        let (viterbi, p) = m.most_likely_string();
        assert_eq!(top.world, viterbi);
        assert!((top.prob() - p).abs() < 1e-12);
    }

    #[test]
    fn nondeterministic_machines_dedupe_worlds() {
        // Suffix guesser: a world can emit the same output via different
        // runs only for different outputs here, but the all-skip vs copy
        // paths can coincide on output ε… build a machine with genuinely
        // duplicate (world, run) pairs for one output.
        let alphabet = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(alphabet.clone(), alphabet.clone());
        let q0 = b.add_state(true);
        let q1 = b.add_state(true);
        // Two parallel edges with the same emission: every world has two
        // accepting runs emitting the same output.
        for s in 0..2u32 {
            b.add_transition(q0, sym(s), q0, &[sym(s)]).unwrap();
            b.add_transition(q0, sym(s), q1, &[sym(s)]).unwrap();
            b.add_transition(q1, sym(s), q0, &[sym(s)]).unwrap();
            b.add_transition(q1, sym(s), q1, &[sym(s)]).unwrap();
        }
        let t = b.build().unwrap();
        let m = MarkovSequenceBuilder::new(alphabet, 2)
            .uniform_all()
            .build()
            .unwrap();
        // Output "ab" has exactly one world, despite 4 runs.
        let o = vec![sym(0), sym(1)];
        let evs: Vec<_> = prepare(&t)
            .bind(&m)
            .unwrap()
            .evidences(&o)
            .unwrap()
            .collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].world, o);
        check(&t, &m, &o);
    }

    #[test]
    fn non_answers_have_no_evidence() {
        let alphabet = Alphabet::of_chars("a");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 2)
            .uniform_all()
            .build()
            .unwrap();
        let mut b = Transducer::builder(alphabet.clone(), alphabet);
        let q = b.add_state(true);
        b.add_transition(q, sym(0), q, &[sym(0)]).unwrap();
        let t = b.build().unwrap();
        assert_eq!(
            prepare(&t)
                .bind(&m)
                .unwrap()
                .evidences(&[sym(0)])
                .unwrap()
                .count(),
            0
        );
        assert_eq!(
            prepare(&t)
                .bind(&m)
                .unwrap()
                .top_evidences(&[sym(0), sym(0)], 5)
                .unwrap()
                .len(),
            1
        );
    }
}
