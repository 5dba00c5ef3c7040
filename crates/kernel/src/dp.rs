//! The layer-advance drivers: one product-graph step per call.
//!
//! Cell layout is `node * graph.n_rows() + row` — the same linearization
//! as the hand-rolled passes (`(node * nq + q) * width + j` with
//! `row = q * width + j`). Iteration order is node-ascending, then
//! row-ascending, then Markov target ascending, then machine-edge
//! insertion order, with zero cells and zero transitions skipped — again
//! exactly the hand-rolled order, so per-cell float accumulation happens
//! in the same sequence and results are bit-identical.
//!
//! Every driver is generic over [`Semiring`] and monomorphizes fully at
//! each call site: no dynamic dispatch, no branching on semiring identity
//! inside the loops.
//!
//! # Execution strategies and numerics
//!
//! The sequential drivers here and the dense drivers in [`crate::dense`]
//! are **bit-identical** for all three semirings: a dense row visits
//! targets in the same ascending order the CSR stores them, skips exactly
//! the `p > 0` entries the CSR builder kept, and each lane product is the
//! same single IEEE-754 multiply as the scalar path.
//!
//! Operator composition ([`crate::incremental`], behind the engine
//! crate's sliding windows) is the one sanctioned exception to
//! bit-identity: composing per-step transfer operators associatively
//! reorders the sum-product accumulation relative to folding the steps
//! one by one. Reordering a correctly-rounded `f64` sum perturbs results
//! by at most a few ULPs per term, so windows are checked against a
//! from-scratch fold to a **relative tolerance of 1e-12** (orders of
//! magnitude above observed drift, orders below any decision threshold).
//! For a fixed input a composed result is itself deterministic.

use crate::dense::STAGE_CAP;
use crate::semiring::Semiring;
use crate::step_graph::StepGraph;
use crate::steps::StepRows;

/// Folds `n` layer advances into the `kernel.advance.layers` counter
/// and, when a profiler [`Recorder`](transmark_obs::Recorder) scope is
/// active on this thread, emits a layer-progress timeline sample.
///
/// The advance drivers themselves do not count: a per-layer atomic is
/// measurable against a degenerate layer (small machine, small
/// alphabet), so each DP pass reports its whole sweep with one call —
/// the overhead guard in `scripts/check.sh` holds the line. The
/// progress hook shares that batching, and its inactive fast path is a
/// single relaxed load.
#[inline]
pub fn count_layers(n: u64) {
    transmark_obs::counter!("kernel.advance.layers").add(n);
    transmark_obs::profile::progress(n);
}

/// Advances one layer: `next[(to, e.to)] ⊕= cur[(node, row)] ⊗ p` for every
/// nonzero transition `node →p to` in `steps` (one step's rows — see
/// [`StepRows`]) and every machine edge `e` enabled by reading `to` from
/// `row`. `next` must be zero-filled.
pub fn advance<S: Semiring, R: StepRows>(
    steps: &R,
    graph: &StepGraph,
    cur: &[S::Elem],
    next: &mut [S::Elem],
) {
    let nr = graph.n_rows();
    for node in 0..steps.n_nodes() {
        let base = node * nr;
        for row in 0..nr {
            let v = cur[base + row];
            if S::is_zero(v) {
                continue;
            }
            for &(to, p) in steps.row(node) {
                let w = S::mul(v, S::from_prob(p));
                let to_base = to as usize * nr;
                for e in graph.edges(to, row as u32) {
                    S::accum(&mut next[to_base + e.to as usize], w);
                }
            }
        }
    }
}

/// [`advance`], but an edge contributes only if its payload equals
/// `expected` — the k-uniform fast path, where the payload is the interned
/// emission id and `expected` is the id of the output k-gram this step
/// must emit (`u32::MAX`, never a valid id, when the gram is not interned).
pub fn advance_filtered<S: Semiring, R: StepRows>(
    steps: &R,
    graph: &StepGraph,
    expected: u32,
    cur: &[S::Elem],
    next: &mut [S::Elem],
) {
    let nr = graph.n_rows();
    for node in 0..steps.n_nodes() {
        let base = node * nr;
        for row in 0..nr {
            let v = cur[base + row];
            if S::is_zero(v) {
                continue;
            }
            for &(to, p) in steps.row(node) {
                let w = S::mul(v, S::from_prob(p));
                let to_base = to as usize * nr;
                for e in graph.edges(to, row as u32) {
                    if e.payload == expected {
                        S::accum(&mut next[to_base + e.to as usize], w);
                    }
                }
            }
        }
    }
}

/// Back-pointer of a tracked (Viterbi) step: the flat source cell and the
/// taken edge's payload. `prev == u32::MAX` marks a first-layer cell.
#[derive(Debug, Clone, Copy)]
pub struct BackEdge {
    pub prev: u32,
    pub payload: u32,
}

impl BackEdge {
    pub const NONE: BackEdge = BackEdge {
        prev: u32::MAX,
        payload: 0,
    };
}

/// Max-product advance in log space with back-pointer recording: a cell
/// updates only on strict improvement, so ties keep the first-visited
/// predecessor — the tie-breaking the traceback-based passes relied on.
/// `next` must be filled with `-∞` and `back` may hold arbitrary entries
/// (a cell's entry is meaningful only if its score is finite).
///
/// A transition's log-potential `ln p` does not depend on the machine
/// row, so each source node's log row is staged once, at its first live
/// row, and reused for every live row of that node: a layer takes at most
/// nnz logarithms instead of one per (live row × transition). Rows wider
/// than [`STAGE_CAP`] are staged `STAGE_CAP` targets at a time; a chunk's
/// targets reach cells no other chunk reaches, so every cell still sees
/// its candidates in the original order, with the same `ln` of the same
/// `p` and the same add — scores and back-pointers are bit-identical.
pub fn advance_tracked<R: StepRows>(
    steps: &R,
    graph: &StepGraph,
    cur: &[f64],
    next: &mut [f64],
    back: &mut [BackEdge],
) {
    let nr = graph.n_rows();
    let mut stage = [0.0f64; STAGE_CAP];
    for node in 0..steps.n_nodes() {
        let base = node * nr;
        for chunk in steps.row(node).chunks(STAGE_CAP) {
            let mut staged = false;
            for row in 0..nr {
                let v = cur[base + row];
                if v == f64::NEG_INFINITY {
                    continue;
                }
                if !staged {
                    for (lp, &(_, p)) in stage.iter_mut().zip(chunk) {
                        *lp = p.ln();
                    }
                    staged = true;
                }
                let prev = (base + row) as u32;
                for (&(to, _), &lp) in chunk.iter().zip(&stage) {
                    relax_tracked(graph, to as usize, row, prev, v + lp, next, back);
                }
            }
        }
    }
}

/// The tracked drivers' update: offers `cand`, reached from flat cell
/// `prev`, to every cell the machine edges out of `row` on symbol `to`
/// lead to, keeping the first strict maximum.
#[inline(always)]
pub(crate) fn relax_tracked(
    graph: &StepGraph,
    to: usize,
    row: usize,
    prev: u32,
    cand: f64,
    next: &mut [f64],
    back: &mut [BackEdge],
) {
    let to_base = to * graph.n_rows();
    for e in graph.edges(to as u32, row as u32) {
        let cell = to_base + e.to as usize;
        if cand > next[cell] {
            next[cell] = cand;
            back[cell] = BackEdge {
                prev,
                payload: e.payload,
            };
        }
    }
}

/// Machine-only advance over a concrete (already sampled) string: no
/// Markov factor, the machine reads `symbol`. Used per input position by
/// the Monte-Carlo membership test, which reuses one graph across tens of
/// thousands of samples. `next` must be zero-filled.
pub fn advance_string<S: Semiring>(
    graph: &StepGraph,
    symbol: u32,
    cur: &[S::Elem],
    next: &mut [S::Elem],
) {
    for (row, &v) in cur.iter().enumerate() {
        if S::is_zero(v) {
            continue;
        }
        for e in graph.edges(symbol, row as u32) {
            S::accum(&mut next[e.to as usize], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{Bool, MaxLog, Prob};
    use crate::steps::SparseSteps;

    /// 2 nodes, machine = 1 row (identity over states), chain:
    /// initial [0.6, 0.4], one step [[0.5, 0.5], [1.0, 0.0]].
    fn tiny() -> (SparseSteps, StepGraph) {
        let steps = SparseSteps::from_dense(2, &[0.6, 0.4], &[0.5, 0.5, 1.0, 0.0], 3);
        let mut g = StepGraph::builder(2, 1);
        g.add_edge(0, 0, 0, 10);
        g.add_edge(1, 0, 0, 11);
        (steps, g.build())
    }

    #[test]
    fn sum_product_matches_hand_computation() {
        let (steps, graph) = tiny();
        let mut cur = vec![0.0; 2];
        for &(node, p) in steps.initial() {
            cur[node as usize] += p;
        }
        let mut next = vec![0.0; 2];
        advance::<Prob, _>(&steps.at(0), &graph, &cur, &mut next);
        // P(X2 = a) = 0.6·0.5 + 0.4·1.0, P(X2 = b) = 0.6·0.5.
        assert_eq!(next, vec![0.6 * 0.5 + 0.4, 0.6 * 0.5]);
    }

    #[test]
    fn bool_and_prob_agree_on_support() {
        let (steps, graph) = tiny();
        let mut curp = vec![0.0; 2];
        let mut curb = vec![false; 2];
        for &(node, p) in steps.initial() {
            curp[node as usize] += p;
            curb[node as usize] = true;
        }
        let mut np = vec![0.0; 2];
        let mut nb = vec![false; 2];
        advance::<Prob, _>(&steps.at(0), &graph, &curp, &mut np);
        advance::<Bool, _>(&steps.at(0), &graph, &curb, &mut nb);
        for (p, b) in np.iter().zip(nb.iter()) {
            assert_eq!(*p > 0.0, *b);
        }
    }

    #[test]
    fn tracked_max_prefers_best_and_records_source() {
        let (steps, graph) = tiny();
        let mut cur = vec![f64::NEG_INFINITY; 2];
        for &(node, p) in steps.initial() {
            cur[node as usize] = p.ln();
        }
        let mut next = vec![f64::NEG_INFINITY; 2];
        let mut back = vec![BackEdge::NONE; 2];
        advance_tracked(&steps.at(0), &graph, &cur, &mut next, &mut back);
        // Best path into node 0: max(0.6·0.5, 0.4·1.0) = 0.4 via node 1.
        assert!((next[0] - (0.4f64).ln()).abs() < 1e-12);
        assert_eq!(back[0].prev, 1);
        assert_eq!(back[0].payload, 10);
        // Node 1 reachable only from node 0.
        assert!((next[1] - (0.3f64).ln()).abs() < 1e-12);
        assert_eq!(back[1].prev, 0);
        assert_eq!(back[1].payload, 11);
    }

    #[test]
    fn maxlog_advance_matches_tracked_scores() {
        let (steps, graph) = tiny();
        let mut cur = vec![f64::NEG_INFINITY; 2];
        for &(node, p) in steps.initial() {
            cur[node as usize] = p.ln();
        }
        let mut a = vec![f64::NEG_INFINITY; 2];
        advance::<MaxLog, _>(&steps.at(0), &graph, &cur, &mut a);
        let mut b = vec![f64::NEG_INFINITY; 2];
        let mut back = vec![BackEdge::NONE; 2];
        advance_tracked(&steps.at(0), &graph, &cur, &mut b, &mut back);
        assert_eq!(a, b);
    }

    #[test]
    fn filtered_advance_gates_on_payload() {
        let (steps, graph) = tiny();
        let cur = vec![1.0, 1.0];
        let mut next = vec![0.0; 2];
        advance_filtered::<Prob, _>(&steps.at(0), &graph, 11, &cur, &mut next);
        // Only the payload-11 edge (symbol 1, i.e. into node 1) survives.
        assert_eq!(next[0], 0.0);
        assert!(next[1] > 0.0);
        let mut none = vec![0.0; 2];
        advance_filtered::<Prob, _>(&steps.at(0), &graph, u32::MAX, &cur, &mut none);
        assert_eq!(none, vec![0.0, 0.0]);
    }

    #[test]
    fn string_advance_ignores_markov_factor() {
        let (_, graph) = tiny();
        let cur = vec![true];
        let mut next = vec![false];
        advance_string::<Bool>(&graph, 0, &cur, &mut next);
        assert!(next[0]);
    }
}
