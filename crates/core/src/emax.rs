//! Best evidence: the `E_max` scoring function (§4.2).
//!
//! `E_max(o)` is the probability of the most likely possible world
//! (*evidence*) transduced into `o`. The paper's heuristic ranked
//! enumeration (Theorem 4.3) orders answers by decreasing `E_max`, which
//! approximates decreasing confidence within a factor `|Σ|ⁿ` — and
//! Theorem 4.4 shows that, up to sub-exponential factors, no polynomial
//! algorithm does better.
//!
//! [`BoundQuery::top`](crate::plan::BoundQuery::top) is the core
//! optimizer: a Viterbi pass over the layered
//! product graph (position × node × transducer state) that maximizes
//! `p(s)` over accepting (string, run) pairs and returns the run's output.
//! Because every evidence of the returned output lives in the same search
//! space, the returned score *is* `E_max` of the returned output, and it
//! is maximal among all answers. Prefix constraints are enforced upstream
//! by a product with the constraint's automaton, which is what Theorem
//! 4.3's Lawler–Murty instantiation does.
//!
//! The driver takes a list of *acceptance classes* and reads off the best
//! cell of each from one pass. `top()` and the root probe pass one class
//! (every accepting state of [`crate::constraints::constrain`]'s
//! product); a Lawler–Murty split passes one class per child of the
//! split, so all of an answer's subspaces are probed by a single Viterbi
//! pass over the split product.

use transmark_automata::{StateId, SymbolId};
use transmark_kernel::{count_layers, BackEdge, ExecSteps};

use crate::transducer::Transducer;

/// Result of an `E_max` optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct EmaxResult {
    /// The output string of the best (string, run) pair — the top answer.
    pub output: Vec<SymbolId>,
    /// The best evidence: the most likely string transduced into `output`.
    pub evidence: Vec<SymbolId>,
    /// `ln E_max(output)` (`= ln p(evidence)`).
    pub log_prob: f64,
}

impl EmaxResult {
    /// `E_max(output)` in linear space.
    pub fn prob(&self) -> f64 {
        self.log_prob.exp()
    }
}

/// The top answer by `E_max`: maximizes `p(s)` over all `(s, run)` with
/// `run` accepting, and returns the run's output (Theorem 4.3's
/// constrained optimizer, with constraints pre-applied via
/// [`crate::constraints::constrain`]). `None` when the (possibly
/// constrained) query has no answer. One acceptance class — every
/// accepting state of `t` — run through [`top_by_emax_impl`].
pub(crate) fn top_by_emax(
    t: &Transducer,
    steps: ExecSteps<'_>,
    graph: &transmark_kernel::StepGraph,
) -> Option<EmaxResult> {
    let accepting: Vec<StateId> = (0..t.n_states() as u32)
        .map(StateId)
        .filter(|&q| t.is_accepting(q))
        .collect();
    top_by_emax_impl(t, steps, graph, t.initial().0, &[accepting])
        .pop()
        .flatten()
}

/// The top answer by `E_max` of each acceptance class of one machine: the
/// best `(s, run)` whose run ends in a row of the class, for every class,
/// from one Viterbi pass.
///
/// A tracked (back-pointered) Viterbi pass of the kernel over a machine
/// step graph whose runs start in row `initial`; edge payloads are
/// emission ids of `t`, which the traceback concatenates into the output.
/// `O(n·|Σ|²·|Q|·b)` time, `O(n·|Σ|·|Q|)` space for the back-pointers,
/// with `|Q|` the graph's rows. `steps` is the bound execution view of
/// the sequence (sparse and dense advance bit-identically). Each class
/// lists rows in ascending order; its best cell is the first strict
/// maximum in (node, row) order, then one traceback recovers its output.
/// A class whose rows are all unreachable yields `None`.
///
/// `top()` and the root probe pass `state_step_graph` of their machine
/// and one class. A Lawler–Murty split passes its split product
/// ([`crate::constraints::SplitDfa`]) and one class per child: a child's
/// cells receive the same candidates, in the same order, as in that
/// child's own product, so its result is bit-identical to probing it
/// alone.
pub(crate) fn top_by_emax_impl(
    t: &Transducer,
    steps: ExecSteps<'_>,
    graph: &transmark_kernel::StepGraph,
    initial: u32,
    classes: &[Vec<StateId>],
) -> Vec<Option<EmaxResult>> {
    let n = steps.n_steps() + 1;
    let n_nodes = steps.n_nodes();
    let nq = graph.n_rows();
    let sz = n_nodes * nq;
    let idx = |node: usize, q: usize| node * nq + q;

    // One flat back-pointer buffer (layer i at `i·sz..`) and two score
    // layers swapped per step: the pass allocates once.
    let mut score = vec![f64::NEG_INFINITY; sz];
    let mut next = vec![f64::NEG_INFINITY; sz];
    let mut backs = vec![BackEdge::NONE; n * sz];
    let (first_back, rest) = backs.split_at_mut(sz);

    for &(node, p) in steps.initial() {
        let lp = p.ln();
        for e in graph.edges(node, initial) {
            let cell = idx(node as usize, e.to as usize);
            if lp > score[cell] {
                score[cell] = lp;
                first_back[cell] = BackEdge {
                    prev: u32::MAX,
                    payload: e.payload,
                };
            }
        }
    }

    for (i, back) in rest.chunks_exact_mut(sz).enumerate() {
        next.fill(f64::NEG_INFINITY);
        steps.advance_tracked(i, graph, &score, &mut next, back);
        std::mem::swap(&mut score, &mut next);
    }
    count_layers((n - 1) as u64);

    classes
        .iter()
        .map(|class| {
            // Best cell of the class in the last layer.
            let mut best_cell = None;
            let mut best = f64::NEG_INFINITY;
            for node in 0..n_nodes {
                for &q in class {
                    if score[idx(node, q.index())] > best {
                        best = score[idx(node, q.index())];
                        best_cell = Some((node, q.index()));
                    }
                }
            }
            let (node, q) = best_cell?;
            Some(trace_back(t, &backs, nq, sz, (node, q), best))
        })
        .collect()
}

/// Traceback from last-layer cell `(node, q)` of a pass over `nq` rows
/// (`sz` cells a layer): recovers the evidence string and the emission
/// sequence. A back-pointer's `prev` is the flat source cell
/// `node * nq + q`.
fn trace_back(
    t: &Transducer,
    backs: &[BackEdge],
    nq: usize,
    sz: usize,
    (mut node, mut q): (usize, usize),
    log_prob: f64,
) -> EmaxResult {
    let n = backs.len() / sz;
    let mut evidence_rev: Vec<SymbolId> = Vec::with_capacity(n);
    let mut emissions_rev: Vec<u32> = Vec::with_capacity(n);
    for layer in backs.chunks_exact(sz).rev() {
        let b = layer[node * nq + q];
        evidence_rev.push(SymbolId(node as u32));
        emissions_rev.push(b.payload);
        if b.prev == u32::MAX {
            break;
        }
        node = b.prev as usize / nq;
        q = b.prev as usize % nq;
    }
    evidence_rev.reverse();
    emissions_rev.reverse();
    let mut output = Vec::new();
    for em in emissions_rev {
        output.extend_from_slice(t.emission(crate::transducer::EmissionId(em)));
    }
    EmaxResult {
        output,
        evidence: evidence_rev,
        log_prob,
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

    /// Collapsing Mealy machine: both input symbols map to output "z",
    /// so E_max(zz…z) is the single most likely world.
    #[test]
    fn collapsing_machine_emax_is_viterbi() {
        let input = Alphabet::of_chars("ab");
        let output = Alphabet::of_chars("z");
        let m = MarkovSequenceBuilder::new(input.clone(), 3)
            .initial(sym(0), 0.9)
            .initial(sym(1), 0.1)
            .transition(0, sym(0), sym(0), 0.6)
            .transition(0, sym(0), sym(1), 0.4)
            .transition(0, sym(1), sym(1), 1.0)
            .transition(1, sym(0), sym(0), 1.0)
            .transition(1, sym(1), sym(0), 0.5)
            .transition(1, sym(1), sym(1), 0.5)
            .build()
            .unwrap();
        let mut b = Transducer::builder(input, output.clone());
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[output.sym("z")]).unwrap();
        }
        let t = b.build().unwrap();

        let top = prepare(&t).bind(&m).unwrap().top().unwrap().unwrap();
        // Only one answer: zzz. Its E_max is the Viterbi path of μ.
        assert_eq!(top.output, vec![output.sym("z"); 3]);
        let (viterbi, p) = m.most_likely_string();
        assert_eq!(top.evidence, viterbi);
        assert!((top.prob() - p).abs() < 1e-12);
        // And emax_of_output agrees.
        let e = prepare(&t)
            .bind(&m)
            .unwrap()
            .emax_of_output(&top.output)
            .unwrap()
            .exp();
        assert!((e - p).abs() < 1e-12);
    }

    #[test]
    fn emax_of_non_answer_is_zero() {
        let input = Alphabet::of_chars("a");
        let output = Alphabet::of_chars("xy");
        let m = MarkovSequenceBuilder::new(input.clone(), 2)
            .uniform_all()
            .build()
            .unwrap();
        let mut b = Transducer::builder(input, output.clone());
        let q = b.add_state(true);
        b.add_transition(q, sym(0), q, &[output.sym("x")]).unwrap();
        let t = b.build().unwrap();
        // "yy" can never be emitted.
        let e = prepare(&t)
            .bind(&m)
            .unwrap()
            .emax_of_output(&[output.sym("y"), output.sym("y")])
            .unwrap();
        assert_eq!(e, f64::NEG_INFINITY);
        // "xx" is the sole answer with E_max = 1.
        let e2 = prepare(&t)
            .bind(&m)
            .unwrap()
            .emax_of_output(&[output.sym("x"), output.sym("x")])
            .unwrap();
        assert!((e2.exp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_accepting_path_yields_none() {
        let input = Alphabet::of_chars("a");
        let m = MarkovSequenceBuilder::new(input.clone(), 1)
            .initial(sym(0), 1.0)
            .build()
            .unwrap();
        let mut b = Transducer::builder(input.clone(), input);
        let q = b.add_state(false);
        b.add_transition(q, sym(0), q, &[]).unwrap();
        let t = b.build().unwrap();
        assert!(prepare(&t).bind(&m).unwrap().top().unwrap().is_none());
    }
}
