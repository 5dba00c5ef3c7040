//! Bridges from [`Transducer`] to the `transmark-kernel` step graphs.
//!
//! Every layered DP in this crate steps a layer of `(Markov node, machine
//! row)` cells, where the machine row is either a transducer state `q` or
//! a `(q, output position)` pair. These builders precompile the machine
//! side of that product — including the per-edge emission/output-prefix
//! checks the hand-rolled loops re-derived on every layer — into the
//! kernel's CSR [`StepGraph`], once per query.
//!
//! Edge insertion order matters: buckets preserve it, and the builders add
//! edges in exactly the order the hand-rolled loops visited them
//! (state-ascending, then output-position-ascending, then the transducer's
//! edge order), so migrated passes accumulate floats in the same sequence
//! and reproduce their predecessors bit for bit.

use transmark_automata::{StateId, SymbolId};
use transmark_kernel::StepGraph;

use crate::transducer::Transducer;

/// Precompiles the `(state, output position)` machine of the
/// fixed-output DPs (`confidence_deterministic`, `is_answer`,
/// `emax_of_output`, `transduces_to`, …).
///
/// Rows are `q * (|o| + 1) + j`; reading input symbol `σ` from row
/// `(q, j)` enables one edge per transducer transition `q →σ/em→ q'`
/// whose emission `em` matches `o[j..]`, targeting `(q', j + |em|)`.
/// Edge payloads carry the interned emission id (used by Viterbi
/// traceback).
pub fn output_step_graph(t: &Transducer, o: &[SymbolId]) -> StepGraph {
    let nq = t.n_states();
    let width = o.len() + 1;
    let mut b = StepGraph::builder(t.n_input_symbols(), nq * width);
    for sym in 0..t.n_input_symbols() {
        for q in 0..nq {
            for j in 0..width {
                for e in t.edges(StateId(q as u32), SymbolId(sym as u32)) {
                    let em = t.emission(e.emission);
                    if j + em.len() <= o.len() && o[j..j + em.len()] == *em {
                        b.add_edge(
                            sym as u32,
                            (q * width + j) as u32,
                            (e.target.index() * width + j + em.len()) as u32,
                            e.emission.0,
                        );
                    }
                }
            }
        }
    }
    b.build()
}

/// Precompiles the state-only machine of the output-oblivious DPs
/// (`BoundQuery::answer_exists`, `BoundQuery::top`) and of the k-uniform fast paths,
/// which filter edges per step by the expected emission id instead of by
/// output position. Rows are transducer states; payloads are interned
/// emission ids.
pub fn state_step_graph(t: &Transducer) -> StepGraph {
    let nq = t.n_states();
    let mut b = StepGraph::builder(t.n_input_symbols(), nq);
    for sym in 0..t.n_input_symbols() {
        for q in 0..nq {
            for e in t.edges(StateId(q as u32), SymbolId(sym as u32)) {
                b.add_edge(sym as u32, q as u32, e.target.0, e.emission.0);
            }
        }
    }
    b.build()
}

/// Precompiles the machine of the Theorem 4.1 prefix-nonemptiness oracle:
/// rows are `(state, matched)` pairs where `matched ∈ 0..=|prefix|+1`
/// tracks how much of `prefix` the run has emitted, saturating at
/// `|prefix| + 1` once the emission strictly extends it (after which any
/// continuation is fine). A run ending in row `matched == |prefix|`
/// emitted exactly `prefix`; `matched == |prefix| + 1` emitted a proper
/// extension — so one reachability DP answers both "is the prefix an
/// answer?" and "does any answer extend it?".
pub fn prefix_step_graph(t: &Transducer, prefix: &[SymbolId]) -> StepGraph {
    let nq = t.n_states();
    let l = prefix.len();
    let width = l + 2;
    let mut b = StepGraph::builder(t.n_input_symbols(), nq * width);
    for sym in 0..t.n_input_symbols() {
        for q in 0..nq {
            for j in 0..width {
                for e in t.edges(StateId(q as u32), SymbolId(sym as u32)) {
                    if let Some(j2) = prefix_advance(t.emission(e.emission), j, prefix) {
                        b.add_edge(
                            sym as u32,
                            (q * width + j) as u32,
                            (e.target.index() * width + j2) as u32,
                            e.emission.0,
                        );
                    }
                }
            }
        }
    }
    b.build()
}

/// How far `prefix` is matched after emitting `em` from match position
/// `j`, or `None` if the emission contradicts the prefix.
#[inline]
fn prefix_advance(em: &[SymbolId], j: usize, prefix: &[SymbolId]) -> Option<usize> {
    let l = prefix.len();
    if j > l {
        return Some(l + 1);
    }
    let need = (l - j).min(em.len());
    if em[..need] != prefix[j..j + need] {
        return None;
    }
    Some((j + em.len()).min(l + 1))
}

/// The interned id of the emission string equal to `slice`, or `u32::MAX`
/// (never a valid id) if the transducer has no such emission. Interning is
/// injective, so comparing edge payloads against this id is equivalent to
/// the slice comparison the hand-rolled k-uniform loops performed.
pub fn emission_id_for(t: &Transducer, slice: &[SymbolId]) -> u32 {
    for id in 0..t.n_emissions() {
        if *t.emission(crate::transducer::EmissionId(id as u32)) == *slice {
            return id as u32;
        }
    }
    u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::Alphabet;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// One-state identity transducer over {a, b}.
    fn identity() -> Transducer {
        let a = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(a.clone(), a);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn output_graph_encodes_prefix_checks() {
        let t = identity();
        let o = [sym(0), sym(1)]; // "ab"
        let g = output_step_graph(&t, &o);
        assert_eq!(g.n_rows(), 3); // one state × width 3
                                   // Reading 'a' at j=0 advances to j=1; at j=1 the output wants 'b'.
        assert_eq!(g.edges(0, 0).len(), 1);
        assert_eq!(g.edges(0, 0)[0].to, 1);
        assert!(g.edges(0, 1).is_empty());
        assert_eq!(g.edges(1, 1)[0].to, 2);
        // Nothing fits past the end of the output.
        assert!(g.edges(0, 2).is_empty() && g.edges(1, 2).is_empty());
    }

    #[test]
    fn prefix_graph_saturates_past_the_prefix() {
        let t = identity();
        let p = [sym(1)]; // prefix "b", width 3
        let g = prefix_step_graph(&t, &p);
        assert_eq!(g.n_rows(), 3);
        // Emitting 'a' at matched=0 contradicts "b"; emitting 'b' matches.
        assert!(g.edges(0, 0).is_empty());
        assert_eq!(g.edges(1, 0)[0].to, 1);
        // Past the prefix anything goes and the match count saturates.
        assert_eq!(g.edges(0, 1)[0].to, 2);
        assert_eq!(g.edges(0, 2)[0].to, 2);
    }

    #[test]
    fn state_graph_and_emission_ids() {
        let t = identity();
        let g = state_step_graph(&t);
        assert_eq!(g.n_rows(), 1);
        assert_eq!(g.n_edges(), 2);
        let id_a = emission_id_for(&t, &[sym(0)]);
        assert_eq!(g.edges(0, 0)[0].payload, id_a);
        assert_eq!(emission_id_for(&t, &[sym(0), sym(0)]), u32::MAX);
    }
}
