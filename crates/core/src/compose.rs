//! Transducer composition: querying the output of another query.
//!
//! The related-work discussion (§6, Kempe \[29\]) raises composition of
//! transducers as the natural way to layer extractions. For machines in
//! our model (no empty transitions, deterministic emission), composition
//! `T₂ ∘ T₁` is well-defined whenever `T₁` is **1-uniform**: then `T₁`
//! emits exactly one `Δ₁` symbol per input symbol, `T₂` can consume that
//! symbol in lock-step, and the composite is again a transducer with
//! deterministic emission over `Σ₁ → Δ₂`:
//!
//! ```text
//! s →[T₂ ∘ T₁]→ o   ⇔   ∃d: s →[T₁]→ d  and  d →[T₂]→ o
//! ```
//!
//! A typical use: a Mealy machine first classifies raw locations into
//! rooms, and a second transducer extracts patterns over rooms — the
//! composite runs directly on the raw Markov sequence.

use std::sync::Arc;

use crate::error::EngineError;
use crate::transducer::{Transducer, TransducerBuilder};
use transmark_automata::StateId;

/// The composition `second ∘ first` (first runs on the input, second on
/// first's output). Requires `first` to be 1-uniform and the alphabets to
/// agree (`Δ₁ = Σ₂`); returns [`EngineError::NotUniform`] /
/// [`EngineError::AlphabetMismatch`] otherwise.
///
/// The state space is `Q₁ × Q₂` and the construction preserves
/// deterministic emission: the emission of a composite edge is
/// `ω₂(q₂, ω₁(q₁, σ, q₁'), q₂')`, fixed by the composite transition.
///
/// Why exactly 1-uniform? For `k ≥ 2` the second machine may have several
/// runs over one emitted block `d ∈ Δ₁ᵏ` that reach the *same* state with
/// *different* outputs; the composite transition `(q₁,q₂) → (q₁',q₂')`
/// would then need several emissions — i.e. **nondeterministic emission**,
/// the model the paper deliberately excludes (§3.1.1, §7: without
/// deterministic emission "almost every basic problem is computationally
/// hard"). Composing through a 1-uniform first stage is the fragment where
/// the composite stays inside the tractable model.
pub fn compose(first: &Transducer, second: &Transducer) -> Result<Transducer, EngineError> {
    if first.uniform_emission() != Some(1) {
        return Err(EngineError::NotUniform);
    }
    if first.n_output_symbols() != second.n_input_symbols() {
        return Err(EngineError::AlphabetMismatch {
            transducer: first.n_output_symbols(),
            sequence: second.n_input_symbols(),
        });
    }
    let (n1, n2) = (first.n_states(), second.n_states());
    let mut b = TransducerBuilder::new(
        first.input_alphabet_arc(),
        Arc::clone(&second.output_alphabet_arc()),
    );
    let state = |q1: StateId, q2: StateId| StateId((q1.index() * n2 + q2.index()) as u32);
    for q1 in 0..n1 {
        for q2 in 0..n2 {
            b.add_state(
                first.is_accepting(StateId(q1 as u32)) && second.is_accepting(StateId(q2 as u32)),
            );
        }
    }
    b.set_initial(state(first.initial(), second.initial()));
    for (from1, sym, e1) in first.transitions() {
        let mid = first.emission(e1.emission)[0];
        for q2 in 0..n2 {
            let from2 = StateId(q2 as u32);
            for e2 in second.edges(from2, mid) {
                let emission = second.emission(e2.emission).to_vec();
                b.add_transition(
                    state(from1, from2),
                    sym,
                    state(e1.target, e2.target),
                    &emission,
                )?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::prepare;
    use std::collections::BTreeSet;
    use transmark_automata::{Alphabet, SymbolId};

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    fn strings(k: usize, n: usize) -> Vec<Vec<SymbolId>> {
        let mut out: Vec<Vec<SymbolId>> = vec![vec![]];
        for _ in 0..n {
            out = out
                .into_iter()
                .flat_map(|s| {
                    (0..k).map(move |c| {
                        let mut t = s.clone();
                        t.push(sym(c as u32));
                        t
                    })
                })
                .collect();
        }
        out
    }

    /// Exhaustive semantic check: outputs of the composite equal the
    /// union over intermediate strings.
    fn assert_composition(first: &Transducer, second: &Transducer, max_len: usize) {
        let composite = compose(first, second).unwrap();
        for s in strings(first.n_input_symbols(), max_len) {
            let mut expected = BTreeSet::new();
            for d in first.transduce_all(&s) {
                for o in second.transduce_all(&d) {
                    expected.insert(o);
                }
            }
            let got: BTreeSet<_> = composite.transduce_all(&s).into_iter().collect();
            assert_eq!(got, expected, "composition diverges on {s:?}");
        }
    }

    /// Mealy: classify {r1a, r1b, r2a} into rooms {1, 2}.
    fn classifier() -> Transducer {
        let input = Alphabet::from_names(["r1a", "r1b", "r2a"]);
        let rooms = Alphabet::of_chars("12");
        let mut b = Transducer::builder(input, rooms.clone());
        let q = b.add_state(true);
        b.add_transition(q, sym(0), q, &[rooms.sym("1")]).unwrap();
        b.add_transition(q, sym(1), q, &[rooms.sym("1")]).unwrap();
        b.add_transition(q, sym(2), q, &[rooms.sym("2")]).unwrap();
        b.build().unwrap()
    }

    /// Deduplicate consecutive repeats of the room sequence.
    fn dedup_rooms() -> Transducer {
        let rooms = Alphabet::of_chars("12");
        let mut b = Transducer::builder(rooms.clone(), rooms.clone());
        let q0 = b.add_state(true);
        let q1 = b.add_state(true);
        let q2 = b.add_state(true);
        b.set_initial(q0);
        let one = [rooms.sym("1")];
        let two = [rooms.sym("2")];
        b.add_transition(q0, sym(0), q1, &one).unwrap();
        b.add_transition(q0, sym(1), q2, &two).unwrap();
        b.add_transition(q1, sym(0), q1, &[]).unwrap();
        b.add_transition(q1, sym(1), q2, &two).unwrap();
        b.add_transition(q2, sym(1), q2, &[]).unwrap();
        b.add_transition(q2, sym(0), q1, &one).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_pipeline_composes() {
        let c = classifier();
        let d = dedup_rooms();
        assert_composition(&c, &d, 4);
        // Concrete spot check: r1a r1b r2a r1a → rooms 1121 → dedup 121.
        let composite = compose(&c, &d).unwrap();
        let out = composite
            .transduce_deterministic(&[sym(0), sym(1), sym(2), sym(0)])
            .unwrap();
        assert_eq!(composite.render_output(&out, ""), "121");
    }

    /// Nondeterministic second stage.
    fn guessing_stage() -> Transducer {
        let rooms = Alphabet::of_chars("12");
        let out = Alphabet::of_chars("x");
        let mut b = Transducer::builder(rooms, out.clone());
        let q = b.add_state(true);
        let r = b.add_state(true);
        // On "1": either emit x or nothing (two nondeterministic edges).
        b.add_transition(q, sym(0), q, &[out.sym("x")]).unwrap();
        b.add_transition(q, sym(0), r, &[]).unwrap();
        b.add_transition(q, sym(1), q, &[]).unwrap();
        b.add_transition(r, sym(0), r, &[]).unwrap();
        b.add_transition(r, sym(1), r, &[]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn nondeterministic_composition_matches_definition() {
        assert_composition(&classifier(), &guessing_stage(), 4);
    }

    #[test]
    fn composition_requirements_are_enforced() {
        let rooms = Alphabet::of_chars("12");
        // Not 1-uniform first stage.
        let mut b = Transducer::builder(rooms.clone(), rooms.clone());
        let q = b.add_state(true);
        b.add_transition(q, sym(0), q, &[]).unwrap();
        b.add_transition(q, sym(1), q, &[sym(0)]).unwrap();
        let nonuniform = b.build().unwrap();
        assert!(matches!(
            compose(&nonuniform, &dedup_rooms()),
            Err(EngineError::NotUniform)
        ));

        // Alphabet mismatch: classifier outputs 2 symbols, a 3-symbol
        // second stage cannot consume them.
        let tri = Alphabet::of_chars("abc");
        let mut b = Transducer::builder(tri.clone(), tri);
        let q = b.add_state(true);
        for s in 0..3u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        let second = b.build().unwrap();
        assert!(matches!(
            compose(&classifier(), &second),
            Err(EngineError::AlphabetMismatch { .. })
        ));
    }

    /// Composition interacts correctly with the engine: confidence of the
    /// composite equals brute force through both stages.
    #[test]
    fn composite_confidence_matches_two_stage_brute_force() {
        use transmark_markov::MarkovSequenceBuilder;
        let c = classifier();
        let d = dedup_rooms();
        let composite = compose(&c, &d).unwrap();
        let alphabet = c.input_alphabet_arc();
        let m = MarkovSequenceBuilder::new(alphabet, 3)
            .uniform_all()
            .build()
            .unwrap();
        let truth = crate::brute::evaluate(&composite, &m).unwrap();
        assert!(!truth.is_empty());
        for (o, want) in truth {
            let got = prepare(&composite)
                .bind(&m)
                .unwrap()
                .confidence(&o)
                .unwrap();
            assert!((got - want).abs() < 1e-12, "output {o:?}");
        }
    }
}
