//! High-level s-projector evaluation: one entry point for the §5 engines.
//!
//! [`SprojEvaluation`] validates a `(projector, Markov sequence)` pair
//! once (building the Theorem 5.8 tables) and exposes §5's evaluation
//! modes as methods, mirroring [`transmark_core::plan::BoundQuery`] for
//! plain transducers.
//!
//! It is the bind of a [`PreparedProjector`]: construction compiles (or
//! adopts) the plan, builds the per-sequence Theorem 5.8 tables over the
//! plan's precompiled B-graph, and every method executes over those
//! shared artifacts without re-deriving machine-side work per call.

use std::sync::Arc;

use transmark_automata::{Dfa, SymbolId};
use transmark_core::enumerate::RankedAnswer;
use transmark_core::error::EngineError;
use transmark_markov::MarkovSequence;

use crate::enumerate::{distinct_outputs, enumerate_by_imax_lawler_planned, imax_of_output_from};
use crate::indexed::{enumerate_indexed_from, IndexedAnswer, IndexedEnumeration, IndexedEvaluator};
use crate::plan::{PreparedProjector, SprojExplain};
use crate::projector::SProjector;

/// A validated projector/data pair with evaluation methods — a compiled
/// plan bound to one sequence.
pub struct SprojEvaluation<'a> {
    m: &'a MarkovSequence,
    plan: Arc<PreparedProjector>,
    /// The Theorem 5.8 tables, shared with Lemma 5.10 enumerations.
    tables: Arc<IndexedEvaluator<'a>>,
}

impl<'a> SprojEvaluation<'a> {
    /// Validates alphabets, compiles a fresh plan, and precomputes the
    /// Theorem 5.8 tables.
    pub fn new(p: &'a SProjector, m: &'a MarkovSequence) -> Result<Self, EngineError> {
        let plan = Arc::new(PreparedProjector::new(p));
        let tables = Arc::new(IndexedEvaluator::with_graph(p, m, plan.bgraph())?);
        Ok(Self { m, plan, tables })
    }

    /// Binds an already-compiled plan to a sequence, skipping machine-side
    /// recompilation (only the per-sequence Theorem 5.8 tables are built).
    pub fn with_plan(
        plan: &'a Arc<PreparedProjector>,
        m: &'a MarkovSequence,
    ) -> Result<Self, EngineError> {
        let tables = Arc::new(IndexedEvaluator::with_graph(
            plan.projector(),
            m,
            plan.bgraph(),
        )?);
        Ok(Self {
            m,
            plan: Arc::clone(plan),
            tables,
        })
    }

    /// The pattern DFA `A` of the bound projector.
    fn pattern(&self) -> &Dfa {
        self.plan.projector().pattern_dfa()
    }

    /// The compiled plan behind this evaluation.
    pub fn plan(&self) -> &Arc<PreparedProjector> {
        &self.plan
    }

    /// EXPLAIN-style introspection: routes, machine shape, precompile
    /// cost, and plan-cache traffic so far.
    pub fn explain(&self) -> SprojExplain {
        self.plan.explain()
    }

    /// Exact confidence of the indexed answer `(o, i)` — Theorem 5.8,
    /// `O(|o|)` per call after table construction.
    pub fn indexed_confidence(&self, o: &[SymbolId], i: usize) -> f64 {
        self.tables.confidence(o, i)
    }

    /// `I_max(o)`: the best occurrence confidence.
    pub fn imax(&self, o: &[SymbolId]) -> Result<f64, EngineError> {
        Ok(imax_of_output_from(&self.tables, o))
    }

    /// Exact (plain) confidence `Pr(S →[P]→ o)` — Theorem 5.5
    /// (exponential only in `|Q_E|`; the concatenation NFA comes from the
    /// plan's memo cache).
    pub fn confidence(&self, o: &[SymbolId]) -> Result<f64, EngineError> {
        self.plan.confidence(self.m, o)
    }

    /// All indexed answers in exact decreasing confidence — Theorem 5.7,
    /// derived from this bind's tables.
    pub fn occurrences(&self) -> Result<IndexedEnumeration, EngineError> {
        Ok(enumerate_indexed_from(&self.tables, self.pattern()))
    }

    /// The top-k occurrences.
    pub fn top_k_occurrences(&self, k: usize) -> Result<Vec<IndexedAnswer>, EngineError> {
        Ok(self.occurrences()?.take(k).collect())
    }

    /// Distinct output strings in decreasing `I_max` — Theorem 5.2
    /// (the dedup implementation; incremental polynomial time).
    pub fn strings(&self) -> Result<impl Iterator<Item = RankedAnswer> + 'a, EngineError> {
        Ok(distinct_outputs(enumerate_indexed_from(
            &self.tables,
            self.pattern(),
        )))
    }

    /// Distinct output strings in decreasing `I_max` with guaranteed
    /// polynomial delay — Lemma 5.10's Lawler variant, over the plan's
    /// constraint-product cache and this bind's tables.
    pub fn strings_poly_delay(
        &self,
    ) -> Result<impl Iterator<Item = RankedAnswer> + 'a, EngineError> {
        Ok(enumerate_by_imax_lawler_planned(
            Arc::clone(&self.plan),
            Arc::clone(&self.tables),
        ))
    }

    /// The top-k distinct strings with their exact Theorem 5.5
    /// confidences attached (the recommended user-facing mode).
    pub fn top_k_scored(&self, k: usize) -> Result<Vec<(Vec<SymbolId>, f64, f64)>, EngineError> {
        let mut out = Vec::with_capacity(k);
        for r in self.strings()?.take(k) {
            let conf = self.confidence(&r.output)?;
            let imax = r.score();
            out.push((r.output, imax, conf));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::{Alphabet, Dfa};
    use transmark_markov::MarkovSequenceBuilder;

    fn setup() -> (SProjector, MarkovSequence) {
        let alphabet = Alphabet::of_chars("ab");
        let m = MarkovSequenceBuilder::new(alphabet.clone(), 4)
            .uniform_all()
            .build()
            .unwrap();
        let p = SProjector::simple(
            std::sync::Arc::new(alphabet.clone()),
            Dfa::word(2, &[alphabet.sym("a")]),
        )
        .unwrap();
        (p, m)
    }

    #[test]
    fn facade_modes_are_consistent() {
        let (p, m) = setup();
        let ev = SprojEvaluation::new(&p, &m).unwrap();
        let a = [m.alphabet().sym("a")];
        // 4 occurrence positions, each with confidence 1/2.
        let occ = ev.top_k_occurrences(10).unwrap();
        assert_eq!(occ.len(), 4);
        for o in &occ {
            assert!((o.confidence() - 0.5).abs() < 1e-12);
            assert!((ev.indexed_confidence(&o.output, o.index) - o.confidence()).abs() < 1e-12);
        }
        // One distinct string; I_max = 1/2; conf = 1 - (1/2)^4.
        let strings: Vec<_> = ev.strings().unwrap().collect();
        assert_eq!(strings.len(), 1);
        assert!((ev.imax(&a).unwrap() - 0.5).abs() < 1e-12);
        assert!((ev.confidence(&a).unwrap() - (1.0 - 0.0625)).abs() < 1e-12);
        // Scored mode bundles all three numbers.
        let scored = ev.top_k_scored(5).unwrap();
        assert_eq!(scored.len(), 1);
        let (out, imax, conf) = &scored[0];
        assert_eq!(out, &a.to_vec());
        assert!((imax - 0.5).abs() < 1e-12);
        assert!((conf - 0.9375).abs() < 1e-12);
        // Both I_max enumerations agree.
        let lawler: Vec<_> = ev.strings_poly_delay().unwrap().collect();
        assert_eq!(lawler.len(), 1);
        assert!((lawler[0].score() - strings[0].score()).abs() < 1e-12);
    }

    #[test]
    fn facade_rejects_mismatched_alphabets() {
        let (p, _) = setup();
        let m3 = MarkovSequenceBuilder::new(Alphabet::of_chars("abc"), 2)
            .uniform_all()
            .build()
            .unwrap();
        assert!(SprojEvaluation::new(&p, &m3).is_err());
    }
}
