//! Confidence computation: `Pr(S →[A^ω]→ o)` (§4.3) and acceptance
//! probability `Pr(S ∈ L(A))`.
//!
//! Four algorithms, matching the paper's complexity landscape (Table 2):
//!
//! * [`confidence_deterministic`] — Theorem 4.6: for deterministic
//!   transducers, a forward DP over (node, state, output position) in
//!   `O(|o|·n·|Σ|²·|Q|)`; a k-uniform fast path drops the output-position
//!   dimension (`O(k·n·|Σ|²·|Q|)`).
//! * [`confidence_uniform_nfa`] — Theorem 4.8: for nondeterministic
//!   transducers with k-uniform emission, a DP over (node, *exact set of
//!   reachable states*), i.e. on-the-fly subset construction;
//!   `O(n·k·|Σ|²·4^{|Q|})` worst case but only materializing reachable
//!   subsets.
//! * [`confidence_general`] — the general exact algorithm: the same
//!   exact-reachable-set idea over (state, output-position)
//!   *configurations*. Worst-case exponential — necessarily so, since the
//!   problem is FP^#P-complete (Prop. 4.7) and stays hard even for a fixed
//!   transducer (Thm 4.9) — but exact on any instance and polynomial
//!   whenever the reachable configuration sets stay polynomial (it
//!   degenerates gracefully to the deterministic case).
//! * the acceptance fold — `Pr(S ∈ L(A))` for an NFA, the engine behind
//!   0-uniform queries, Theorem 5.5, and the prefix series
//!   ([`PreparedEventQuery`](crate::plan::PreparedEventQuery)).
//!
//! The routes are run through a bind:
//! [`BoundQuery::confidence`](crate::plan::BoundQuery::confidence) takes
//! the plan's own Table 2 route; the three `confidence_*` functions here
//! force one route on any machine it applies to, which makes them the
//! cross-route references the Table 2 harness and the oracle suites
//! compare against.
//!
//! Each route is written once, as a seed/step/finish forward pass fed by
//! either layer kind — a bind's steps or a pulled source matrix (see
//! `crate::forward`). The Thm 4.6 routes advance a flat `(node, machine
//! row)` layer on the `transmark-kernel` drivers over step graphs
//! precompiled by [`crate::kernelize`]; the dynamic-state routes fold
//! their layers through [`SubsetLayer`]; acceptance runs the
//! [`EventSession`](crate::incremental::EventSession) fold through the one
//! series driver. All sums use compensated accumulation at the final
//! reduction; per-cell
//! accumulation is plain `f64` (additions of nonnegative numbers — no
//! cancellation).

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::sync::Arc;

use transmark_automata::{ops::DetCore, BitSet, Nfa, StateId, SymbolId};
use transmark_kernel::{count_layers, Neumaier, Prob, StepGraph, Strategy, SubsetLayer, Workspace};
use transmark_markov::{MarkovSequence, StepSource};

use crate::error::EngineError;
use crate::forward::{FlatPass, ForwardPass, Layer};
use crate::plan::{PlanKind, PreparedQuery};
use crate::transducer::Transducer;

// Every confidence route is one `ConfidencePass`: `BoundQuery` drives it
// over a bind's steps, `SourceBoundQuery` over pulled layers, and the
// checkpointable `ConfidenceSession` one pulled matrix at a time — so
// in-memory, streamed and suspended evaluations agree bit for bit.

/// Validates that the transducer and sequence share an input alphabet and
/// that `o` is over the output alphabet.
pub(crate) fn check_inputs(
    t: &Transducer,
    m: &MarkovSequence,
    o: Option<&[SymbolId]>,
) -> Result<(), EngineError> {
    if t.n_input_symbols() != m.n_symbols() {
        return Err(EngineError::AlphabetMismatch {
            transducer: t.n_input_symbols(),
            sequence: m.n_symbols(),
        });
    }
    if let Some(o) = o {
        check_output(t, o)?;
    }
    Ok(())
}

/// Validates that every symbol of `o` is in the output alphabet.
pub(crate) fn check_output(t: &Transducer, o: &[SymbolId]) -> Result<(), EngineError> {
    for &d in o {
        if d.index() >= t.n_output_symbols() {
            return Err(EngineError::InvalidSymbol {
                symbol: d.index(),
                n_symbols: t.n_output_symbols(),
                alphabet: "output",
            });
        }
    }
    Ok(())
}

/// The [`check_inputs`] counterpart for streamed passes: validates the
/// output symbols and that the source's node alphabet matches the
/// machine's input alphabet, and that the source's step cursor has not
/// already been advanced (every streamed pass is single left-to-right).
pub(crate) fn check_source_inputs<S: StepSource>(
    t: &Transducer,
    src: &S,
    o: Option<&[SymbolId]>,
) -> Result<(), EngineError> {
    if t.n_input_symbols() != src.alphabet().len() {
        return Err(EngineError::AlphabetMismatch {
            transducer: t.n_input_symbols(),
            sequence: src.alphabet().len(),
        });
    }
    if let Some(o) = o {
        check_output(t, o)?;
    }
    check_source_fresh(src)
}

/// Errors unless the source's cursor is at step 0.
pub(crate) fn check_source_fresh<S: StepSource>(src: &S) -> Result<(), EngineError> {
    if src.position() != 0 {
        return Err(EngineError::SourceConsumed {
            position: src.position(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The confidence routes
// ---------------------------------------------------------------------------

/// `Pr(S →[A^ω]→ o)` for a *deterministic* transducer (Theorem 4.6).
///
/// Dispatches to the k-uniform fast path when the emission is uniform.
/// Returns [`EngineError::NotDeterministic`] otherwise — use
/// [`BoundQuery::confidence`](crate::plan::BoundQuery::confidence) for
/// automatic algorithm selection. A deterministic machine's plan is one of
/// the two Thm 4.6 routes, so this is exactly the bind's confidence after
/// the check.
pub fn confidence_deterministic(
    t: &Transducer,
    m: &MarkovSequence,
    o: &[SymbolId],
) -> Result<f64, EngineError> {
    check_inputs(t, m, Some(o))?;
    if !t.is_deterministic() {
        return Err(EngineError::NotDeterministic);
    }
    crate::plan::prepare(t).bind(m)?.confidence(o)
}

/// `Pr(S →[A^ω]→ o)` for a k-uniform (possibly nondeterministic)
/// transducer (Theorem 4.8).
///
/// The DP state is `(node, T)` where `T` is the *exact* set of transducer
/// states reachable by runs on the string prefix whose emission matches
/// the corresponding prefix of `o`. `T` is a deterministic function of the
/// string prefix, so probability mass aggregates without double-counting —
/// this is the subset construction the paper combines with dynamic
/// programming (and the reason naive determinization fails: a transducer,
/// unlike an automaton, cannot be determinized).
pub fn confidence_uniform_nfa(
    t: &Transducer,
    m: &MarkovSequence,
    o: &[SymbolId],
) -> Result<f64, EngineError> {
    check_inputs(t, m, Some(o))?;
    let Some(k) = t.uniform_emission() else {
        return Err(EngineError::NotUniform);
    };
    confidence_via(t, m, o, PlanKind::UniformNfa { k })
}

/// `Pr(S →[A^ω]→ o)` for an arbitrary transducer.
///
/// Exact on every instance. The DP state is `(node, C)` where `C` is the
/// exact set of `(state, output position)` *configurations* reachable by
/// runs whose emission so far is a prefix of `o`. The number of distinct
/// reachable `C` can be exponential — unavoidably, by Prop. 4.7 and
/// Thm 4.9 — but the algorithm materializes only reachable ones, so it is
/// polynomial exactly on the easy fragments (deterministic: singleton
/// configurations; uniform: one output position per layer).
pub fn confidence_general(
    t: &Transducer,
    m: &MarkovSequence,
    o: &[SymbolId],
) -> Result<f64, EngineError> {
    check_inputs(t, m, Some(o))?;
    confidence_via(t, m, o, PlanKind::General)
}

/// Runs one subset route regardless of the machine's own plan kind. The
/// subset routes read each step's dense matrix, so a dense bind (no CSR
/// build) serves them.
fn confidence_via(
    t: &Transducer,
    m: &MarkovSequence,
    o: &[SymbolId],
    route: PlanKind,
) -> Result<f64, EngineError> {
    crate::plan::prepare(t)
        .bind_with_strategy(m, Some(Strategy::Dense))?
        .confidence_via(route, o)
}

/// Seeds the Thm 4.8 layer from a dense initial distribution: one
/// reachable-state set per positive-probability node, gated by the seed
/// emission id.
fn uniform_nfa_seed(
    t: &Transducer,
    graph: &StepGraph,
    initial: &[f64],
    seed_id: u32,
) -> SubsetLayer<(u32, BitSet)> {
    let nq = t.n_states();
    let mut layer: SubsetLayer<(u32, BitSet)> = SubsetLayer::new();
    for (node, &p) in initial.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let mut set = BitSet::new(nq.max(1));
        for e in graph.edges(node as u32, t.initial().0) {
            if e.payload == seed_id {
                set.insert(e.to as usize);
            }
        }
        if !set.is_empty() {
            layer.add((node as u32, set), p);
        }
    }
    layer
}

/// Advances the Thm 4.8 layer by one dense row-major `|Σ|²` matrix, gated
/// by the step's expected emission id. Scanning the dense row and skipping
/// zeros visits exactly the pairs `transitions_from` used to yield, in the
/// same ascending order, so the fold is bit-identical to the historical
/// sequence-walking loop.
fn uniform_nfa_step(
    t: &Transducer,
    graph: &StepGraph,
    layer: SubsetLayer<(u32, BitSet)>,
    matrix: &[f64],
    n_sym: usize,
    expected: u32,
) -> SubsetLayer<(u32, BitSet)> {
    let nq = t.n_states();
    let mut next: SubsetLayer<(u32, BitSet)> = SubsetLayer::with_capacity(layer.len());
    for ((node, set), p) in layer.sorted() {
        let row = &matrix[node as usize * n_sym..(node as usize + 1) * n_sym];
        for (to, &pt) in row.iter().enumerate() {
            if pt <= 0.0 {
                continue;
            }
            let mut set2 = BitSet::new(nq.max(1));
            for q in set.iter() {
                for e in graph.edges(to as u32, q as u32) {
                    if e.payload == expected {
                        set2.insert(e.to as usize);
                    }
                }
            }
            if !set2.is_empty() {
                next.add((to as u32, set2), p * pt);
            }
        }
    }
    next
}

/// Seeds the general configuration layer from a dense initial
/// distribution. `cap` is the configuration-bit capacity `|Q|·(|o|+1)`.
fn general_seed(
    graph: &StepGraph,
    initial: &[f64],
    init_row: u32,
    cap: usize,
) -> SubsetLayer<(u32, BitSet)> {
    let mut layer: SubsetLayer<(u32, BitSet)> = SubsetLayer::new();
    for (node, &p) in initial.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let mut set = BitSet::new(cap);
        for e in graph.edges(node as u32, init_row) {
            set.insert(e.to as usize);
        }
        if !set.is_empty() {
            layer.add((node as u32, set), p);
        }
    }
    layer
}

/// Advances the general configuration layer by one dense row-major
/// `|Σ|²` matrix (same zero-skipping walk as [`uniform_nfa_step`]).
fn general_step(
    graph: &StepGraph,
    layer: SubsetLayer<(u32, BitSet)>,
    matrix: &[f64],
    n_sym: usize,
    cap: usize,
) -> SubsetLayer<(u32, BitSet)> {
    let mut next: SubsetLayer<(u32, BitSet)> = SubsetLayer::with_capacity(layer.len());
    for ((node, set), p) in layer.sorted() {
        let row = &matrix[node as usize * n_sym..(node as usize + 1) * n_sym];
        for (to, &pt) in row.iter().enumerate() {
            if pt <= 0.0 {
                continue;
            }
            let mut set2 = BitSet::new(cap);
            for bit in set.iter() {
                for e in graph.edges(to as u32, bit as u32) {
                    set2.insert(e.to as usize);
                }
            }
            if !set2.is_empty() {
                next.add((to as u32, set2), p * pt);
            }
        }
    }
    next
}

/// The per-route layer of a [`ConfidencePass`].
pub(crate) enum ConfState<W> {
    /// Thm 4.6 k-uniform: `(node, state)` cells, each step gated by the
    /// interned id of the k-gram it must emit.
    DetUniform { k: usize, pass: FlatPass<Prob, W> },
    /// Thm 4.6 positional: `(node, state·width + j)` cells.
    Det { pass: FlatPass<Prob, W> },
    /// Thm 4.8: `(node, reachable-state set)` layer.
    UniformNfa {
        k: usize,
        layer: SubsetLayer<(u32, BitSet)>,
    },
    /// General exact: `(node, configuration set)` layer; configuration
    /// bits are the output graph's rows, `q·(|o|+1) + j`.
    General {
        graph: Arc<StepGraph>,
        cap: usize,
        layer: SubsetLayer<(u32, BitSet)>,
    },
}

impl<W> ConfState<W> {
    /// The route's checkpoint tag.
    pub(crate) fn tag(&self) -> u8 {
        match self {
            ConfState::DetUniform { .. } => 1,
            ConfState::Det { .. } => 2,
            ConfState::UniformNfa { .. } => 3,
            ConfState::General { .. } => 4,
        }
    }
}

/// `Pr(S →[A^ω]→ o)` along one Table 2 route, as a forward pass: seeded
/// from `μ₀→` ([`ConfidencePass::seed`]), stepped once per transition
/// matrix, reduced by [`ConfidencePass::confidence`]. The only
/// implementation of every confidence route — in memory, streamed and in
/// checkpointable sessions.
///
/// `W` holds the flat routes' double buffer: a bind lends its reused
/// workspace, a session owns one.
pub(crate) struct ConfidencePass<W> {
    pub(crate) plan: Arc<PreparedQuery>,
    pub(crate) o: Vec<SymbolId>,
    pub(crate) n_nodes: usize,
    /// Transition matrices folded in, including any folded before a
    /// checkpoint this pass was resumed from.
    pub(crate) consumed: u64,
    /// Set when a uniform route has outlived its output string (or, with
    /// a known stream length, can never match it): the confidence is
    /// necessarily 0 and stepping is a no-op.
    pub(crate) overrun: bool,
    pub(crate) state: ConfState<W>,
    /// Layers advanced by this pass and not yet reported to
    /// `kernel.advance.layers`; [`ConfidencePass::confidence`] reports
    /// them once.
    uncounted: Cell<u64>,
}

impl<W: BorrowMut<Workspace<f64>>> ConfidencePass<W> {
    /// Seeds `route` from the dense initial distribution. `len` is the
    /// stream length when known upfront: a uniform route whose output is
    /// not `k·len` symbols long is then overrun from the start. The
    /// caller has validated the alphabet and `o`.
    pub(crate) fn seed(
        plan: Arc<PreparedQuery>,
        route: PlanKind,
        ws: W,
        initial: &[f64],
        o: &[SymbolId],
        len: Option<usize>,
    ) -> Self {
        let t = plan.transducer();
        let overrun = |k: usize| o.len() < k || len.is_some_and(|n| o.len() != k * n);
        let (state, overrun) = match route {
            PlanKind::DeterministicUniform { k } => {
                let overrun = overrun(k);
                // `u32::MAX` is never an emission id: an overrun pass
                // seeds nothing.
                let gate = if overrun {
                    u32::MAX
                } else {
                    plan.emission_id(&o[..k])
                };
                let graph = Arc::clone(plan.state_graph());
                let pass = FlatPass::seed(t, graph, ws, initial, 1, Some(gate));
                (ConfState::DetUniform { k, pass }, overrun)
            }
            PlanKind::Deterministic => {
                let pass = FlatPass::seed(t, plan.output_graph(o), ws, initial, o.len() + 1, None);
                (ConfState::Det { pass }, false)
            }
            PlanKind::UniformNfa { k } => {
                let overrun = overrun(k);
                let layer = if overrun {
                    SubsetLayer::new()
                } else {
                    uniform_nfa_seed(t, plan.state_graph(), initial, plan.emission_id(&o[..k]))
                };
                (ConfState::UniformNfa { k, layer }, overrun)
            }
            PlanKind::General | PlanKind::Sproj | PlanKind::SprojIndexed => {
                let graph = plan.output_graph(o);
                let width = o.len() + 1;
                let cap = (t.n_states() * width).max(1);
                let init_row = (t.initial().index() * width) as u32;
                let layer = general_seed(&graph, initial, init_row, cap);
                (ConfState::General { graph, cap, layer }, false)
            }
        };
        ConfidencePass::resumed(plan, o, initial.len(), 0, overrun, state)
    }

    /// A pass around a restored layer that has folded `consumed` matrices.
    pub(crate) fn resumed(
        plan: Arc<PreparedQuery>,
        o: &[SymbolId],
        n_nodes: usize,
        consumed: u64,
        overrun: bool,
        state: ConfState<W>,
    ) -> Self {
        ConfidencePass {
            plan,
            o: o.to_vec(),
            n_nodes,
            consumed,
            overrun,
            state,
            uncounted: Cell::new(0),
        }
    }

    /// Marks a uniform route overrun once step `i` would need output
    /// symbols past the end of `o`; returns the step's expected k-gram id
    /// otherwise.
    fn gate(&mut self, k: usize, i: usize) -> Option<u32> {
        if !self.overrun && self.o.len() < k * (i + 2) {
            self.overrun = true;
        }
        (!self.overrun).then(|| self.plan.emission_id(&self.o[k * (i + 1)..k * (i + 2)]))
    }

    /// The confidence after the last folded position. Reductions run in
    /// ascending node/state (or subset key) order; the layers advanced
    /// since the previous call are reported once.
    pub(crate) fn confidence(&self) -> f64 {
        count_layers(self.uncounted.take());
        let t = self.plan.transducer();
        let o_len = self.o.len();
        let n_positions = self.consumed as usize + 1;
        match &self.state {
            ConfState::DetUniform { k, pass } => {
                if self.overrun || o_len != k * n_positions {
                    return 0.0;
                }
                pass.accepting(t, 0).collect::<Neumaier>().total()
            }
            ConfState::Det { pass } => pass.accepting(t, o_len).collect::<Neumaier>().total(),
            ConfState::UniformNfa { k, layer } => {
                if self.overrun || o_len != k * n_positions {
                    return 0.0;
                }
                let accepting = self.plan.accepting();
                layer.reduce(|(_, set)| set.intersects(accepting))
            }
            ConfState::General { layer, .. } => {
                let width = o_len + 1;
                layer.reduce(|(_, set)| {
                    (0..t.n_states()).any(|q| {
                        t.is_accepting(StateId(q as u32)) && set.contains(q * width + o_len)
                    })
                })
            }
        }
    }
}

impl<W: BorrowMut<Workspace<f64>>> ForwardPass for ConfidencePass<W> {
    type Output = f64;

    fn flat(&self) -> bool {
        matches!(
            self.state,
            ConfState::DetUniform { .. } | ConfState::Det { .. }
        )
    }

    fn step<L: Layer>(&mut self, step: &L) {
        let i = self.consumed as usize;
        self.consumed += 1;
        let gate = match self.state {
            ConfState::DetUniform { k, .. } | ConfState::UniformNfa { k, .. } => {
                match self.gate(k, i) {
                    None => return, // overrun: a no-op step
                    gate => gate,
                }
            }
            _ => None,
        };
        let (t, n) = (self.plan.transducer(), self.n_nodes);
        match &mut self.state {
            ConfState::DetUniform { pass, .. } => pass.step(step, gate),
            ConfState::Det { pass } => pass.step(step, None),
            ConfState::UniformNfa { layer, .. } => {
                let taken = std::mem::take(layer);
                let expected = gate.unwrap_or(u32::MAX);
                *layer = uniform_nfa_step(
                    t,
                    self.plan.state_graph(),
                    taken,
                    step.matrix(),
                    n,
                    expected,
                );
            }
            ConfState::General { graph, cap, layer } => {
                let taken = std::mem::take(layer);
                *layer = general_step(graph, taken, step.matrix(), n, *cap);
            }
        }
        self.uncounted.set(self.uncounted.get() + 1);
    }

    fn finish(&mut self) -> f64 {
        self.confidence()
    }
}

// ---------------------------------------------------------------------------
// Acceptance probability
// ---------------------------------------------------------------------------

/// The single acceptance-DP engine behind
/// [`EventSession`](crate::incremental::EventSession) — and so behind
/// [`PreparedEventQuery`](crate::plan::PreparedEventQuery)'s acceptance
/// and prefix series, the server's streams and the store's monitor:
/// a distribution over `(determinized subset, current node)` advanced one
/// dense row-major `|Σ|²` matrix at a time.
///
/// The determinization is a fresh [`DetCore`] per fold — subset ids are
/// interned in discovery order and the reduction orders by id, so sharing
/// one across evaluations would perturb float accumulation order (see
/// `crate::plan`'s module docs). The dead (empty) subset can never accept
/// again, so its mass is dropped eagerly; memory is bounded by reachable
/// subsets × `|Σ|`, independent of how many steps are folded in.
pub(crate) struct AcceptanceFold {
    det: DetCore,
    layer: SubsetLayer<(usize, u32)>,
    n_sym: usize,
}

impl AcceptanceFold {
    /// Seeds the fold from `μ₀→` (dense, length `|Σ|`). The caller has
    /// already checked `initial.len() == nfa.n_symbols()`.
    pub(crate) fn start(nfa: &Nfa, initial: &[f64]) -> Self {
        let mut det = DetCore::new(nfa);
        let mut layer: SubsetLayer<(usize, u32)> = SubsetLayer::new();
        for (node, &p) in initial.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let d = det.step(nfa, det.initial(), SymbolId(node as u32));
            if !det.is_dead(d) {
                layer.add((d, node as u32), p);
            }
        }
        AcceptanceFold {
            det,
            layer,
            n_sym: initial.len(),
        }
    }

    /// Folds in one dense row-major `|Σ|²` transition matrix. `nfa` must
    /// be the automaton this fold was started with. The dense scan skips
    /// zeros in ascending target order — the exact pairs (and order) the
    /// historical `transitions_from` walk yielded.
    pub(crate) fn step(&mut self, nfa: &Nfa, matrix: &[f64]) {
        let k = self.n_sym;
        debug_assert_eq!(matrix.len(), k * k, "step matrix must be |Σ|²");
        let mut next: SubsetLayer<(usize, u32)> = SubsetLayer::with_capacity(self.layer.len());
        for ((d, node), p) in self.layer.sorted() {
            let row = &matrix[node as usize * k..(node as usize + 1) * k];
            for (to, &pt) in row.iter().enumerate() {
                if pt <= 0.0 {
                    continue;
                }
                let d2 = self.det.step(nfa, d, SymbolId(to as u32));
                if !self.det.is_dead(d2) {
                    next.add((d2, to as u32), p * pt);
                }
            }
        }
        self.layer = next;
    }

    /// The current `Pr(S[1..t] ∈ L(A))`. Reduces in ascending key order,
    /// so the result is independent of HashMap iteration order.
    pub(crate) fn probability(&self) -> f64 {
        self.layer.reduce(|&(d, _)| self.det.is_accepting(d))
    }

    /// Serializes the fold's exact state: every materialized subset in id
    /// (discovery) order plus the layer's `(subset id, node) → p` entries.
    /// Restoring re-interns the subsets in the same order, so ids — and
    /// therefore every id-ordered reduction downstream — are reproduced
    /// bit for bit. The transition cache is deliberately not saved: it
    /// refills deterministically on demand.
    pub(crate) fn save(&self, w: &mut crate::incremental::ByteWriter) {
        w.put_u32(self.n_sym as u32);
        w.put_u64(self.det.n_materialized() as u64);
        for id in 0..self.det.n_materialized() {
            let set = self.det.subset(id);
            w.put_u32(set.capacity() as u32);
            let bits: Vec<usize> = set.iter().collect();
            w.put_u32(bits.len() as u32);
            for b in bits {
                w.put_u32(b as u32);
            }
        }
        let entries = self.layer.sorted();
        w.put_u64(entries.len() as u64);
        for ((d, node), p) in entries {
            w.put_u64(d as u64);
            w.put_u32(node);
            w.put_f64(p);
        }
    }

    /// Rebuilds a fold from [`AcceptanceFold::save`] output. `nfa` must be
    /// the automaton the fold was started with; a subset that does not
    /// re-intern to its original id means the blob belongs to a different
    /// query (or is corrupt).
    pub(crate) fn restore(
        nfa: &Nfa,
        r: &mut crate::incremental::ByteReader<'_>,
    ) -> Result<Self, EngineError> {
        let n_sym = r.get_u32()? as usize;
        if n_sym != nfa.n_symbols() {
            return Err(EngineError::BadCheckpoint(format!(
                "fold alphabet {} does not match query alphabet {}",
                n_sym,
                nfa.n_symbols()
            )));
        }
        let mut det = DetCore::new(nfa);
        let n_subsets = r.get_u64()? as usize;
        if n_subsets == 0 {
            return Err(EngineError::BadCheckpoint(
                "fold has no materialized subsets".into(),
            ));
        }
        for id in 0..n_subsets {
            let cap = r.get_u32()? as usize;
            let len = r.get_u32()? as usize;
            let mut bits = Vec::with_capacity(len);
            for _ in 0..len {
                let b = r.get_u32()? as usize;
                if b >= cap {
                    return Err(EngineError::BadCheckpoint(format!(
                        "subset bit {b} out of capacity {cap}"
                    )));
                }
                bits.push(b);
            }
            let set = BitSet::from_iter_with_capacity(cap.max(1), bits);
            let got = det.intern(set);
            if got != id {
                return Err(EngineError::BadCheckpoint(format!(
                    "subset {id} re-interned as {got}; checkpoint does not match this query"
                )));
            }
        }
        let mut layer: SubsetLayer<(usize, u32)> = SubsetLayer::new();
        let n_entries = r.get_u64()? as usize;
        for _ in 0..n_entries {
            let d = r.get_u64()? as usize;
            let node = r.get_u32()?;
            let p = r.get_f64()?;
            if d >= n_subsets || node as usize >= n_sym {
                return Err(EngineError::BadCheckpoint(format!(
                    "layer entry ({d}, {node}) out of range"
                )));
            }
            layer.add((d, node), p);
        }
        Ok(AcceptanceFold { det, layer, n_sym })
    }
}

pub(crate) fn check_nfa_alphabet(nfa: &Nfa, n_symbols: usize) -> Result<(), EngineError> {
    if nfa.n_symbols() != n_symbols {
        return Err(EngineError::AlphabetMismatch {
            transducer: nfa.n_symbols(),
            sequence: n_symbols,
        });
    }
    Ok(())
}

/// The accepting states of a transducer as a [`BitSet`].
pub(crate) fn accepting_bitset(t: &Transducer) -> BitSet {
    BitSet::from_iter_with_capacity(
        t.n_states().max(1),
        (0..t.n_states()).filter(|&q| t.is_accepting(StateId(q as u32))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{prepare, PreparedEventQuery};
    use transmark_automata::Alphabet;
    use transmark_markov::numeric::approx_eq;
    use transmark_markov::support::support;
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// μ over {a,b}, n = 3: P(a)=0.6 iid-ish with a slight twist at step 1.
    fn chain() -> MarkovSequence {
        let alphabet = Alphabet::of_chars("ab");
        let (a, b) = (alphabet.sym("a"), alphabet.sym("b"));
        MarkovSequenceBuilder::new(alphabet, 3)
            .initial(a, 0.6)
            .initial(b, 0.4)
            .transition(0, a, a, 0.6)
            .transition(0, a, b, 0.4)
            .transition(0, b, a, 0.6)
            .transition(0, b, b, 0.4)
            .transition(1, a, a, 0.5)
            .transition(1, a, b, 0.5)
            .transition(1, b, a, 0.9)
            .transition(1, b, b, 0.1)
            .build()
            .unwrap()
    }

    /// Identity transducer over {a,b}.
    fn identity() -> Transducer {
        let alphabet = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(alphabet.clone(), alphabet);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn identity_confidence_is_string_probability() {
        let m = chain();
        let t = identity();
        for (s, p) in support(&m) {
            assert!(approx_eq(
                prepare(&t).bind(&m).unwrap().confidence(&s).unwrap(),
                p,
                1e-15,
                1e-12
            ));
            assert!(approx_eq(
                confidence_deterministic(&t, &m, &s).unwrap(),
                p,
                1e-15,
                1e-12
            ));
            assert!(approx_eq(
                confidence_uniform_nfa(&t, &m, &s).unwrap(),
                p,
                1e-15,
                1e-12
            ));
            assert!(approx_eq(
                confidence_general(&t, &m, &s).unwrap(),
                p,
                1e-15,
                1e-12
            ));
        }
    }

    #[test]
    fn wrong_length_outputs_have_zero_confidence() {
        let m = chain();
        let t = identity();
        assert_eq!(
            prepare(&t).bind(&m).unwrap().confidence(&[sym(0)]).unwrap(),
            0.0
        );
        assert_eq!(
            prepare(&t)
                .bind(&m)
                .unwrap()
                .confidence(&[sym(0); 5])
                .unwrap(),
            0.0
        );
        assert_eq!(prepare(&t).bind(&m).unwrap().confidence(&[]).unwrap(), 0.0);
    }

    #[test]
    fn invalid_output_symbols_are_rejected() {
        let m = chain();
        let t = identity();
        assert!(matches!(
            prepare(&t).bind(&m).and_then(|b| b.confidence(&[sym(9)])),
            Err(EngineError::InvalidSymbol {
                alphabet: "output",
                ..
            })
        ));
    }

    #[test]
    fn prefix_acceptance_matches_brute_force() {
        let m = chain();
        // NFA: strings containing "b".
        let mut nfa = Nfa::new(2);
        let q0 = nfa.add_state(false);
        let q1 = nfa.add_state(true);
        nfa.add_transition(q0, sym(0), q0);
        nfa.add_transition(q0, sym(1), q1);
        nfa.add_transition(q1, sym(0), q1);
        nfa.add_transition(q1, sym(1), q1);

        let got = PreparedEventQuery::new(nfa.clone()).series(&m).unwrap();
        assert_eq!(got.len(), 3);
        for (i, &gi) in got.iter().enumerate() {
            let want: f64 = support(&m)
                .iter()
                .filter(|(s, _)| nfa.accepts(&s[..=i]))
                .map(|(_, p)| p)
                .sum();
            assert!(
                approx_eq(gi, want, 1e-12, 1e-10),
                "position {i}: {gi} vs {want}"
            );
        }
        // The last entry is the full acceptance probability, and the
        // series is monotone for this monotone ("ever saw b") property.
        let full = PreparedEventQuery::new(nfa.clone()).acceptance(&m).unwrap();
        assert!(approx_eq(got[2], full, 1e-15, 1e-12));
        assert!(got[0] <= got[1] && got[1] <= got[2]);
    }

    #[test]
    fn answer_exists_on_selective_machines() {
        let m = chain();
        let alphabet = Alphabet::of_chars("ab");
        // Accepts only strings of all-a.
        let mut b = Transducer::builder(alphabet.clone(), alphabet.clone());
        let q = b.add_state(true);
        let dead = b.add_state(false);
        b.add_transition(q, sym(0), q, &[]).unwrap();
        b.add_transition(q, sym(1), dead, &[]).unwrap();
        b.add_transition(dead, sym(0), dead, &[]).unwrap();
        b.add_transition(dead, sym(1), dead, &[]).unwrap();
        let t = b.build().unwrap();
        assert!(prepare(&t).bind(&m).unwrap().answer_exists().unwrap());
        assert!(approx_eq(
            prepare(&t).bind(&m).unwrap().confidence(&[]).unwrap(),
            0.6 * 0.6 * 0.5,
            1e-15,
            1e-12
        ));

        // Now make "all a" impossible: kill a→a at step 0.
        let (a, bb) = (sym(0), sym(1));
        let m2 = MarkovSequenceBuilder::new(Alphabet::of_chars("ab"), 2)
            .initial(a, 1.0)
            .transition(0, a, bb, 1.0)
            .fill_dead_rows_self_loop()
            .build()
            .unwrap();
        assert!(!prepare(&t).bind(&m2).unwrap().answer_exists().unwrap());
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
    use crate::plan::{prepare, PreparedEventQuery};
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    /// The subset/configuration DPs must be bit-reproducible: HashMap
    /// iteration order varies per map instance, so two calls in one
    /// process already exercise different orders.
    #[test]
    fn probabilities_are_bit_reproducible() {
        let mut rng = StdRng::seed_from_u64(321);
        for _ in 0..10 {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 8,
                    n_symbols: 3,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            let t = random_transducer(
                &RandomTransducerSpec {
                    n_states: 4,
                    n_input_symbols: 3,
                    n_output_symbols: 2,
                    class: TransducerClass::General,
                    branching: 1.6,
                },
                &mut rng,
            );
            let nfa = t.underlying_nfa();
            let a = PreparedEventQuery::new(nfa.clone()).acceptance(&m).unwrap();
            let b = PreparedEventQuery::new(nfa.clone()).acceptance(&m).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "acceptance probability drifted");
            let s1 = PreparedEventQuery::new(nfa.clone()).series(&m).unwrap();
            let s2 = PreparedEventQuery::new(nfa.clone()).series(&m).unwrap();
            for (x, y) in s1.iter().zip(s2.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "prefix series drifted");
            }
            if let Ok(Some(top)) = prepare(&t).bind(&m).and_then(|b| b.top()) {
                let c1 = confidence_general(&t, &m, &top.output).unwrap();
                let c2 = confidence_general(&t, &m, &top.output).unwrap();
                assert_eq!(c1.to_bits(), c2.to_bits(), "general confidence drifted");
            }
        }
    }
}
