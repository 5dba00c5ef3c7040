//! The prepared-projector layer: the §5 counterpart of
//! [`transmark_core::plan`].
//!
//! A [`PreparedProjector`] compiles once, per projector, everything the
//! §5 engines would otherwise rebuild per call:
//!
//! * the B-DFA step graph behind every Theorem 5.8 table construction
//!   (one per bound sequence, otherwise one per *call*),
//! * the compiled §5 "easy observation" transducer (on first use),
//! * the Theorem 5.5 concatenation NFAs `B·o·E`, memoized per answer,
//! * the Lemma 5.10 Lawler–Murty constraint products (pattern ∩
//!   constraint), memoized per [`PrefixConstraint`] and shared across
//!   subspace probes *and* across binds.
//!
//! Everything cached is machine-side; the per-sequence Theorem 5.8 tables
//! are built at bind time by [`crate::SprojEvaluation`]. As in the core
//! plan layer, the on-the-fly determinization inside
//! [`PreparedEventQuery::acceptance`] is deliberately *not* shared — a
//! fresh determinizer per evaluation keeps reduction order, and therefore
//! float output, bit-identical across evaluations.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use transmark_automata::{ops, Fingerprinter, SymbolId};
use transmark_core::constraints::PrefixConstraint;
use transmark_core::error::EngineError;
use transmark_core::plan::{BoundedCache, PlanKind, PreparedEventQuery};
use transmark_core::transducer::Transducer;
use transmark_kernel::StepGraph;
use transmark_markov::MarkovSequence;

use crate::compile::to_transducer;
use crate::confidence::{concat_nfa_for, validate};
use crate::evaluate::SprojEvaluation;
use crate::indexed::dfa_step_graph;
use crate::projector::SProjector;

/// How many answer-keyed concatenation NFAs / constraint products each
/// prepared projector memoizes.
const CONCAT_CACHE_CAP: usize = 64;
const CONSTRAINT_CACHE_CAP: usize = 256;

/// A compiled s-projector: machine-side artifacts precompiled or
/// memoized, shareable as `Arc<PreparedProjector>` across threads and
/// binds.
pub struct PreparedProjector {
    p: SProjector,
    /// The B-DFA step graph every Theorem 5.8 table build runs over.
    bgraph: StepGraph,
    /// The §5 "easy observation" transducer, compiled on first use.
    compiled: OnceLock<Transducer>,
    /// Theorem 5.5 concatenation NFAs `B·o·E`, per answer.
    concat_nfas: Mutex<BoundedCache<Vec<SymbolId>, PreparedEventQuery>>,
    /// Lemma 5.10 constraint products (pattern ∩ constraint DFA).
    constraint_products: Mutex<BoundedCache<PrefixConstraint, SProjector>>,
}

impl PreparedProjector {
    /// Compiles `p` (cloned into the plan, so the plan is self-contained).
    pub fn new(p: &SProjector) -> Self {
        Self::from_owned(p.clone())
    }

    /// Like [`PreparedProjector::new`] but takes ownership.
    pub fn from_owned(p: SProjector) -> Self {
        let bgraph = dfa_step_graph(p.prefix_dfa(), p.alphabet().len());
        Self {
            p,
            bgraph,
            compiled: OnceLock::new(),
            concat_nfas: Mutex::new(BoundedCache::new(CONCAT_CACHE_CAP)),
            constraint_products: Mutex::new(BoundedCache::new(CONSTRAINT_CACHE_CAP)),
        }
    }

    /// The compiled projector.
    pub fn projector(&self) -> &SProjector {
        &self.p
    }

    /// The Table 2 route for plain (non-indexed) evaluation.
    pub fn kind(&self) -> PlanKind {
        PlanKind::Sproj
    }

    /// The Table 2 route for indexed evaluation (Theorems 5.7/5.8).
    pub fn indexed_kind(&self) -> PlanKind {
        PlanKind::SprojIndexed
    }

    /// A structural fingerprint of the projector (domain-separated from
    /// transducer and automaton fingerprints).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        fp.write_bytes(b"sproj");
        fp.write_usize(self.p.alphabet().len());
        fp.write_u64(self.p.prefix_dfa().fingerprint());
        fp.write_u64(self.p.pattern_dfa().fingerprint());
        fp.write_u64(self.p.suffix_dfa().fingerprint());
        fp.finish()
    }

    /// The precompiled B-DFA step graph (machine-side input to every
    /// Theorem 5.8 table build).
    pub(crate) fn bgraph(&self) -> &StepGraph {
        &self.bgraph
    }

    /// The §5 compiled transducer, built on first use and cached. All the
    /// §4 machinery (unranked enumeration, `E_max`, membership) runs on
    /// it.
    pub fn compiled(&self) -> &Transducer {
        self.compiled.get_or_init(|| {
            to_transducer(&self.p).expect("projector components share the alphabet")
        })
    }

    /// The memoized Theorem 5.5 concatenation NFA `B·o·E`, as an event
    /// query.
    pub(crate) fn concat_query(&self, o: &[SymbolId]) -> Arc<PreparedEventQuery> {
        let mut cache = self.concat_nfas.lock().expect("plan cache poisoned");
        cache.get_or_insert_with(&o.to_vec(), || {
            PreparedEventQuery::new(concat_nfa_for(&self.p, o))
        })
    }

    /// The memoized Lemma 5.10 constraint product: the projector whose
    /// pattern is `pattern ∩ constraint`.
    pub(crate) fn constrained(&self, c: &PrefixConstraint) -> Arc<SProjector> {
        let mut cache = self
            .constraint_products
            .lock()
            .expect("plan cache poisoned");
        cache.get_or_insert_with(c, || {
            let pattern = ops::product(
                self.p.pattern_dfa(),
                &c.to_dfa(self.p.alphabet().len()),
                ops::BoolOp::And,
            )
            .expect("pattern and constraint share the alphabet");
            SProjector::new(
                self.p.alphabet_arc(),
                self.p.prefix_dfa().clone(),
                pattern,
                self.p.suffix_dfa().clone(),
            )
            .expect("constrained projector is valid")
        })
    }

    /// **Theorem 5.5** confidence over the memoized concatenation NFA
    /// (bit-identical to [`crate::sproj_confidence`]).
    pub fn confidence(&self, m: &MarkovSequence, o: &[SymbolId]) -> Result<f64, EngineError> {
        validate(&self.p, m, o)?;
        if !self.p.pattern_dfa().accepts(o) {
            return Ok(0.0);
        }
        self.concat_query(o).acceptance(m)
    }

    /// Binds one sequence: builds the Theorem 5.8 tables over the
    /// precompiled B-graph and returns the full evaluation facade.
    pub fn bind<'a>(
        self: &'a Arc<Self>,
        m: &'a MarkovSequence,
    ) -> Result<SprojEvaluation<'a>, EngineError> {
        SprojEvaluation::with_plan(self, m)
    }

    /// EXPLAIN-style introspection.
    pub fn explain(&self) -> SprojExplain {
        let (cn_len, cn_hits, cn_misses) = {
            let c = self.concat_nfas.lock().expect("plan cache poisoned");
            (c.len(), c.hits(), c.misses())
        };
        let (cp_len, cp_hits, cp_misses) = {
            let c = self
                .constraint_products
                .lock()
                .expect("plan cache poisoned");
            (c.len(), c.hits(), c.misses())
        };
        SprojExplain {
            kind: self.kind(),
            indexed_kind: self.indexed_kind(),
            n_symbols: self.p.alphabet().len(),
            n_prefix_states: self.p.prefix_dfa().n_states(),
            n_pattern_states: self.p.pattern_dfa().n_states(),
            n_suffix_states: self.p.suffix_dfa().n_states(),
            simple: self.p.is_simple(),
            bgraph_edges: self.bgraph.n_edges(),
            precompiled_bytes: self.bgraph.approx_bytes(),
            compiled_transducer_states: self.compiled.get().map(Transducer::n_states),
            cached_concat_nfas: cn_len,
            cached_constraint_products: cp_len,
            cache_hits: cn_hits + cp_hits,
            cache_misses: cn_misses + cp_misses,
        }
    }
}

// One Arc<PreparedProjector> serves concurrent binds.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedProjector>();
};

/// EXPLAIN output for a prepared projector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SprojExplain {
    /// The plain-evaluation Table 2 route ([`PlanKind::Sproj`]).
    pub kind: PlanKind,
    /// The indexed-evaluation route ([`PlanKind::SprojIndexed`]).
    pub indexed_kind: PlanKind,
    /// `|Σ_P|`.
    pub n_symbols: usize,
    /// `|Q_B|`.
    pub n_prefix_states: usize,
    /// `|Q_A|`.
    pub n_pattern_states: usize,
    /// `|Q_E|`.
    pub n_suffix_states: usize,
    /// Whether `B` and `E` are universal (`P = ↓A` up to indexing).
    pub simple: bool,
    /// Edges in the precompiled B-DFA step graph.
    pub bgraph_edges: usize,
    /// Approximate bytes of eagerly precompiled machine-side artifacts.
    pub precompiled_bytes: usize,
    /// States of the compiled §5 transducer, if it has been built.
    pub compiled_transducer_states: Option<usize>,
    /// Concatenation NFAs currently memoized.
    pub cached_concat_nfas: usize,
    /// Constraint products currently memoized.
    pub cached_constraint_products: usize,
    /// Total plan-cache hits so far.
    pub cache_hits: u64,
    /// Total plan-cache misses (= compilations) so far.
    pub cache_misses: u64,
}

impl fmt::Display for SprojExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {}  [{}]; indexed: {}  [{}]",
            self.kind,
            self.kind.table2_row(),
            self.indexed_kind,
            self.indexed_kind.table2_row()
        )?;
        writeln!(
            f,
            "machine: |Q_B|={} |Q_A|={} |Q_E|={} over {} symbols{}",
            self.n_prefix_states,
            self.n_pattern_states,
            self.n_suffix_states,
            self.n_symbols,
            if self.simple { " (simple)" } else { "" }
        )?;
        writeln!(
            f,
            "precompiled: B-graph {} edges (~{} bytes); compiled transducer: {}",
            self.bgraph_edges,
            self.precompiled_bytes,
            match self.compiled_transducer_states {
                Some(n) => format!("{n} states"),
                None => "not yet built".to_string(),
            }
        )?;
        write!(
            f,
            "caches: {} concat NFAs, {} constraint products ({} hits / {} misses)",
            self.cached_concat_nfas,
            self.cached_constraint_products,
            self.cache_hits,
            self.cache_misses
        )
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
            Arc::new(alphabet.clone()),
            Dfa::word(2, &[alphabet.sym("a")]),
        )
        .unwrap();
        (p, m)
    }

    #[test]
    fn prepared_confidence_matches_free_function_bitwise() {
        let (p, m) = setup();
        let plan = Arc::new(PreparedProjector::new(&p));
        let o = [m.alphabet().sym("a")];
        let free = crate::sproj_confidence(&p, &m, &o).unwrap();
        let planned = plan.confidence(&m, &o).unwrap();
        assert_eq!(free.to_bits(), planned.to_bits());
        // Second call hits the concat-NFA cache and stays identical.
        assert_eq!(
            plan.confidence(&m, &o).unwrap().to_bits(),
            planned.to_bits()
        );
        let e = plan.explain();
        assert_eq!(e.cached_concat_nfas, 1);
        assert_eq!(e.cache_hits, 1);
        assert_eq!(e.cache_misses, 1);
    }

    #[test]
    fn fingerprint_distinguishes_projectors() {
        let (p, _) = setup();
        let plan = PreparedProjector::new(&p);
        assert_eq!(plan.fingerprint(), PreparedProjector::new(&p).fingerprint());
        let alphabet = Alphabet::of_chars("ab");
        let other = SProjector::simple(
            Arc::new(alphabet.clone()),
            Dfa::word(2, &[alphabet.sym("b")]),
        )
        .unwrap();
        assert_ne!(
            plan.fingerprint(),
            PreparedProjector::new(&other).fingerprint()
        );
    }

    #[test]
    fn compiled_transducer_is_lazy_and_cached() {
        let (p, _) = setup();
        let plan = PreparedProjector::new(&p);
        assert_eq!(plan.explain().compiled_transducer_states, None);
        let n1 = plan.compiled().n_states();
        assert_eq!(plan.explain().compiled_transducer_states, Some(n1));
        assert!(std::ptr::eq(plan.compiled(), plan.compiled()));
    }

    #[test]
    fn explain_display_names_both_routes() {
        let (p, _) = setup();
        let text = format!("{}", PreparedProjector::new(&p).explain());
        assert!(text.contains("Thm 5.5"));
        assert!(text.contains("sproj-indexed"));
        assert!(text.contains("(simple)"));
    }
}
