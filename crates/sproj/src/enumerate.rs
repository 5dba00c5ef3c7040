//! Ranked enumeration for (non-indexed) s-projectors: the `I_max` order
//! (§5.2 — Lemma 5.10 and Theorem 5.2).
//!
//! For an answer `o`, `I_max(o)` is the best confidence among its
//! *occurrences*: `max_i Pr(S →[B]↓A[E]→ (o, i))`. Proposition 5.9
//! sandwiches the true confidence,
//! `I_max(o) ≤ Pr(S →[P]→ o) ≤ n·I_max(o)` (with `n+1` in place of `n`
//! when `ε`-matches are possible, since `ε` has `n+1` occurrence
//! positions), so enumerating by decreasing `I_max` is an enumeration in
//! `n`-approximately decreasing confidence — exponentially better than the
//! `|Σ|ⁿ` guarantee of the general `E_max` heuristic, and within reach of
//! the `√n` lower bound of Theorem 5.3.
//!
//! Two implementations, mirroring the two halves of §5.2:
//!
//! * [`enumerate_by_imax`] runs the exact indexed enumeration
//!   (Theorem 5.7) and deduplicates outputs; the first occurrence of each
//!   output carries its `I_max`. As the paper notes, deduplication alone
//!   guarantees only *incremental polynomial time* (a batch of duplicate
//!   outputs can intervene between two fresh answers).
//! * [`enumerate_by_imax_lawler`] restores *polynomial delay* the way
//!   Lemma 5.10 prescribes: combine "the strategy used for Theorem 4.3"
//!   (Lawler–Murty over output-prefix constraints) with the tractable
//!   constrained optimizer — the top indexed answer of the projector
//!   whose pattern is intersected with the constraint DFA. Each `best`
//!   call is one Theorem 5.7 DAG search on a machine of size
//!   `|Q_A|·(|prefix|+3)`, so the delay is polynomial regardless of how
//!   many occurrences each output has. The Theorem 5.8 tables under every
//!   probe are built once per enumeration (they do not depend on the
//!   pattern), and each probe's DAG covers only the product's live slots.

use std::collections::HashSet;
use std::sync::Arc;

use transmark_core::constraints::PrefixConstraint;
use transmark_core::enumerate::RankedAnswer;
use transmark_core::error::EngineError;
use transmark_kbest::{LawlerMurty, PartitionSpace};
use transmark_markov::MarkovSequence;

use crate::indexed::{enumerate_indexed, enumerate_indexed_from, IndexedEvaluator};
use crate::plan::PreparedProjector;
use crate::projector::SProjector;

/// Enumerates the distinct outputs of `P` over `μ` in decreasing `I_max`
/// (Lemma 5.10); by Proposition 5.9 this is an enumeration in
/// `n`-approximately decreasing confidence (Theorem 5.2).
///
/// Each yielded [`RankedAnswer`]'s `log_score` is `ln I_max(output)`.
pub fn enumerate_by_imax<'a>(
    p: &'a SProjector,
    m: &'a MarkovSequence,
) -> Result<impl Iterator<Item = RankedAnswer> + 'a, EngineError> {
    let inner = enumerate_indexed(p, m)?;
    let mut seen: HashSet<Vec<transmark_automata::SymbolId>> = HashSet::new();
    Ok(inner.filter_map(move |ia| {
        seen.insert(ia.output.clone()).then_some(RankedAnswer {
            output: ia.output,
            log_score: ia.log_confidence,
        })
    }))
}

/// The top-k distinct outputs by `I_max`.
pub fn top_k_by_imax(
    p: &SProjector,
    m: &MarkovSequence,
    k: usize,
) -> Result<Vec<RankedAnswer>, EngineError> {
    Ok(enumerate_by_imax(p, m)?.take(k).collect())
}

/// The [`PartitionSpace`] behind the polynomial-delay version of
/// Lemma 5.10: subspaces are output-prefix constraints; the constrained
/// optimizer takes the top indexed answer of the projector whose pattern
/// is intersected with the constraint DFA. The products come from the
/// plan's cache (shared across subspace probes and across binds). The
/// Theorem 5.8 tables depend only on `B`, `E` and `μ`, never on the
/// pattern, so every probe runs over the one build in `tables`.
struct ImaxSpace<'a> {
    plan: Arc<PreparedProjector>,
    tables: Arc<IndexedEvaluator<'a>>,
}

impl PartitionSpace for ImaxSpace<'_> {
    type Answer = Vec<transmark_automata::SymbolId>;
    type Constraint = PrefixConstraint;

    fn root(&self) -> PrefixConstraint {
        PrefixConstraint::all()
    }

    fn best(&mut self, constraint: &PrefixConstraint) -> Option<(Self::Answer, f64)> {
        // The top indexed answer of the constrained projector: its output
        // maximizes I_max within the constraint, and its confidence *is*
        // that I_max (every occurrence of the output is in the subspace,
        // since the constraint restricts only the output).
        let pattern = self.plan.constrained(constraint);
        enumerate_indexed_from(&self.tables, &pattern)
            .next()
            .map(|ia| (ia.output, ia.log_confidence))
    }

    fn split(
        &mut self,
        constraint: &PrefixConstraint,
        answer: &Self::Answer,
    ) -> Vec<PrefixConstraint> {
        constraint.split_around(answer)
    }
}

/// Lemma 5.10 with *polynomial delay*: enumerates the distinct outputs in
/// decreasing `I_max` via Lawler–Murty over prefix constraints (see the
/// module docs). Produces exactly the same sequence as
/// [`enumerate_by_imax`]; prefer this variant when outputs can have many
/// occurrences each.
pub fn enumerate_by_imax_lawler<'a>(
    p: &'a SProjector,
    m: &'a MarkovSequence,
) -> Result<impl Iterator<Item = RankedAnswer> + 'a, EngineError> {
    let plan = Arc::new(PreparedProjector::new(p));
    let tables = IndexedEvaluator::with_graph(p, m, plan.bgraph())?;
    Ok(enumerate_by_imax_lawler_planned(plan, Arc::new(tables)))
}

/// [`enumerate_by_imax_lawler`] over a prepared projector and Theorem 5.8
/// tables already built from its projector: same sequence, with
/// constraint products served from the plan's cache.
pub(crate) fn enumerate_by_imax_lawler_planned(
    plan: Arc<PreparedProjector>,
    tables: Arc<IndexedEvaluator<'_>>,
) -> impl Iterator<Item = RankedAnswer> + '_ {
    LawlerMurty::new(ImaxSpace { plan, tables })
        .map(|(output, log_score)| RankedAnswer { output, log_score })
}

/// `I_max(o)` over already-built Theorem 5.8 tables: the best occurrence
/// confidence across all valid indices, `O(n·|o|)`.
pub(crate) fn imax_of_output_from(
    ev: &IndexedEvaluator<'_>,
    o: &[transmark_automata::SymbolId],
) -> f64 {
    let n = ev.n();
    let hi = if o.is_empty() {
        n + 1
    } else {
        n.saturating_sub(o.len()) + 1
    };
    let mut best = 0.0f64;
    for i in 1..=hi {
        best = best.max(ev.confidence(o, i));
    }
    best
}

/// `I_max(o)` directly: the best occurrence confidence, via the
/// Theorem 5.8 evaluator over all valid indices. `O(n·|o|)` after table
/// construction.
pub fn imax_of_output(
    p: &SProjector,
    m: &MarkovSequence,
    o: &[transmark_automata::SymbolId],
) -> Result<f64, EngineError> {
    let ev = IndexedEvaluator::new(p, m)?;
    Ok(imax_of_output_from(&ev, o))
}
