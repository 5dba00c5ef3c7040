//! s-projector confidence via the concatenation language (Theorem 5.5).
//!
//! The confidence of an answer `o` of `P = [B]A[E]` is the probability of
//! the *union* over occurrence positions — which is just language
//! membership:
//!
//! ```text
//! Pr(S →[P]→ o) = [o ∈ L(A)] · Pr(S ∈ L(B)·{o}·L(E))
//! ```
//!
//! We build the epsilon-free concatenation NFA `B·o·E` and compute its
//! acceptance probability by the on-the-fly-determinized DP of
//! `transmark-core`. The reachable determinized state space factors as
//! (deterministic `B` part) × (match positions in `o`, limited by its
//! border structure) × (subsets of `Q_E`) — matching the paper's
//! `O(n·|o|²·|Σ|²·|Q_B|²·4^{|Q_E|})` bound, with the exponential living
//! only in `|Q_E|` exactly as Theorem 5.5 states (and Theorem 5.4 proves
//! unavoidable: the problem is FP^#P-hard even with trivial `B` and `A`).

use transmark_automata::{ops, Dfa, Nfa, SymbolId};
use transmark_core::error::EngineError;
use transmark_core::plan::PreparedEventQuery;
use transmark_markov::MarkovSequence;

use crate::projector::SProjector;

/// Validates the `(projector, sequence, output)` triple exactly as
/// [`sproj_confidence`] does.
pub(crate) fn validate(
    p: &SProjector,
    m: &MarkovSequence,
    o: &[SymbolId],
) -> Result<(), EngineError> {
    if p.alphabet().len() != m.n_symbols() {
        return Err(EngineError::AlphabetMismatch {
            transducer: p.alphabet().len(),
            sequence: m.n_symbols(),
        });
    }
    for &c in o {
        if c.index() >= p.alphabet().len() {
            return Err(EngineError::InvalidSymbol {
                symbol: c.index(),
                n_symbols: p.alphabet().len(),
                alphabet: "output",
            });
        }
    }
    Ok(())
}

/// The Theorem 5.5 concatenation NFA `B·o·E` — machine-side (depends only
/// on the projector and the answer), so a prepared projector memoizes it
/// per answer.
pub(crate) fn concat_nfa_for(p: &SProjector, o: &[SymbolId]) -> Nfa {
    let k = p.alphabet().len();
    let word = Dfa::word(k, o).to_nfa();
    let b_then_o = ops::concat_nfa(&p.prefix_dfa().to_nfa(), &word)
        .expect("projector components share the alphabet");
    ops::concat_nfa(&b_then_o, &p.suffix_dfa().to_nfa())
        .expect("projector components share the alphabet")
}

/// **Theorem 5.5**: `Pr(S →[P]→ o)` for an s-projector `P = [B]A[E]`.
///
/// Polynomial in everything except `|Q_E|` (see module docs).
pub fn sproj_confidence(
    p: &SProjector,
    m: &MarkovSequence,
    o: &[SymbolId],
) -> Result<f64, EngineError> {
    validate(p, m, o)?;
    if !p.pattern_dfa().accepts(o) {
        return Ok(0.0);
    }
    PreparedEventQuery::new(concat_nfa_for(p, o)).acceptance(m)
}
