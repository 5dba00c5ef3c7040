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
//! Each route is written once, as a seed/step/finish forward pass fed
//! one pulled transition matrix at a time (see `crate::forward`). The
//! Thm 4.6 routes advance a flat `(node, machine row)` layer on the
//! `transmark-kernel` drivers over step graphs precompiled by
//! [`crate::kernelize`]. The dynamic-state routes (Thm 4.8, the general
//! route) and acceptance step one engine: the lifted `(subset, node)`
//! cells of a lazily determinized table (`LiftedDfa`), which interns
//! each subset once and caches each successor once per pass. Acceptance
//! runs it as the [`EventSession`](crate::incremental::EventSession)
//! fold through the one series driver, the confidence routes as a
//! `SubsetFold`, whose cells are kept in `(node, subset)` order so that
//! no result depends on discovery ids. All sums use compensated
//! accumulation at the final reduction; per-cell accumulation is plain
//! `f64` (additions of nonnegative numbers — no cancellation).

use std::borrow::BorrowMut;
use std::cell::Cell;
use std::sync::Arc;

use transmark_automata::{BitSet, Nfa, StateId, SubsetTable, SymbolId};
use transmark_kernel::{count_layers, Neumaier, Prob, StepGraph, Strategy, Workspace};
use transmark_markov::{MarkovSequence, StepSource};

use crate::error::EngineError;
use crate::forward::{FlatPass, ForwardPass, PulledLayer};
use crate::plan::{PlanKind, PreparedQuery};
use crate::transducer::Transducer;
use transmark_markov::codec::{ByteReader, ByteWriter};

// Every confidence route is one `ConfidencePass`: both binds drive it
// over pulled layers (`BoundQuery` from its sequence, `SourceBoundQuery`
// from its source), and the checkpointable `ConfidenceSession` one
// pulled matrix at a time — so in-memory, streamed and suspended
// evaluations agree bit for bit.

/// Validates that the transducer's input alphabet is the sequence's
/// `n_symbols` nodes and that `o` is over the output alphabet.
pub(crate) fn check_inputs(
    t: &Transducer,
    n_symbols: usize,
    o: Option<&[SymbolId]>,
) -> Result<(), EngineError> {
    if t.n_input_symbols() != n_symbols {
        return Err(EngineError::AlphabetMismatch {
            transducer: t.n_input_symbols(),
            sequence: n_symbols,
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

/// [`check_inputs`] for a pass over `src`, which must also not have been
/// advanced yet (every pass is a single left-to-right scan).
pub(crate) fn check_source_inputs<S: StepSource>(
    t: &Transducer,
    src: &S,
    o: Option<&[SymbolId]>,
) -> Result<(), EngineError> {
    check_inputs(t, src.alphabet().len(), o)?;
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
    check_inputs(t, m.n_symbols(), Some(o))?;
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
    check_inputs(t, m.n_symbols(), Some(o))?;
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
    check_inputs(t, m.n_symbols(), Some(o))?;
    confidence_via(t, m, o, PlanKind::General)
}

/// Runs one subset route regardless of the machine's own plan kind. The
/// subset routes read each step's dense matrix, so a dense bind (no CSR
/// compaction) serves them.
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

/// The per-route layer of a [`ConfidencePass`].
pub(crate) enum ConfState<W> {
    /// Thm 4.6 k-uniform: `(node, state)` cells, each step gated by the
    /// interned id of the k-gram it must emit.
    DetUniform { k: usize, pass: FlatPass<Prob, W> },
    /// Thm 4.6 positional: `(node, state·width + j)` cells.
    Det { pass: FlatPass<Prob, W> },
    /// Thm 4.8: `(node, reachable-state set)` cells, each step's
    /// successors taken in the column of the k-gram it must emit.
    UniformNfa {
        k: usize,
        fold: LiftedFold<GraphRule>,
    },
    /// General exact: `(node, configuration set)` cells; configuration
    /// bits are the output graph's rows, `q·(|o|+1) + j`.
    General { fold: LiftedFold<GraphRule> },
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
                let mut fold = LiftedFold::uniform_nfa(&plan, o, k, initial.len());
                if !overrun {
                    fold.seed(fold.rule.column(plan.emission_id(&o[..k])), initial);
                }
                (ConfState::UniformNfa { k, fold }, overrun)
            }
            PlanKind::General | PlanKind::Sproj | PlanKind::SprojIndexed => {
                let mut fold = LiftedFold::general(&plan, o, initial.len());
                fold.seed(0, initial);
                (ConfState::General { fold }, false)
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
            ConfState::UniformNfa { k, fold } => {
                if self.overrun || o_len != k * n_positions {
                    return 0.0;
                }
                fold.probability()
            }
            ConfState::General { fold } => fold.probability(),
        }
    }
}

impl<W: BorrowMut<Workspace<f64>>> ForwardPass for ConfidencePass<W> {
    type Output = f64;

    fn step(&mut self, step: &mut PulledLayer<'_>) {
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
        match &mut self.state {
            ConfState::DetUniform { pass, .. } => pass.step(step, gate),
            ConfState::Det { pass } => pass.step(step, None),
            ConfState::UniformNfa { fold, .. } => {
                let col = fold
                    .rule
                    .column(gate.expect("a live uniform step has a gate"));
                fold.step(col, step.matrix());
            }
            ConfState::General { fold } => fold.step(0, step.matrix()),
        }
        self.uncounted.set(self.uncounted.get() + 1);
    }

    fn finish(&mut self) -> f64 {
        self.confidence()
    }
}

// ---------------------------------------------------------------------------
// The subset table: one engine behind events, windows, Thm 4.8 and general
// ---------------------------------------------------------------------------

/// A [`LiftedDfa`] successor slot not determinized yet.
const UNKNOWN: u32 = u32::MAX;
/// A [`LiftedDfa`] successor slot that leads to the dead (empty) subset.
pub(crate) const DEAD: u32 = u32::MAX - 1;

/// A lifted cell no mass has reached. The sign bit is the cell's presence
/// mark: every reached cell holds `+0.0` or more (a sum of products of
/// nonnegative numbers), and `-0.0 + x` is bitwise `0.0 + x` for any
/// `x ≥ +0.0`, so accumulating onto an absent cell is exactly
/// accumulating onto a fresh zero. A reached cell whose mass underflowed
/// to `+0.0` stays present and keeps driving discovery.
const ABSENT: f64 = -0.0;

/// How a [`LiftedDfa`] determinizes: the subset reached from `set` by
/// reading input symbol `symbol` in successor column `col`. A successor
/// depends on nothing else (not on the Markov node, not on the position),
/// so a table determinizes each one once per pass.
pub(crate) trait SubsetRule {
    /// Whether a [`LiftedFold`] over this rule orders its cells by
    /// `(node, subset)` rather than by `(subset id, node)`.
    const BY_SET: bool;

    fn successor(&self, set: &BitSet, symbol: usize, col: usize) -> BitSet;
}

/// Events and windows: the query NFA's subset step, in one column.
impl SubsetRule for Nfa {
    const BY_SET: bool = false;

    fn successor(&self, set: &BitSet, symbol: usize, _col: usize) -> BitSet {
        self.step_set(set, SymbolId(symbol as u32))
    }
}

/// The confidence routes' rule: the union of a step graph's edges over
/// the set's bits (machine rows). The general route steps the output
/// graph of `o`, whose rows are the configurations `q·(|o|+1) + j`, in one
/// column. Thm 4.8 steps the state graph with one column per distinct
/// k-gram of `o` (its gate), keeping the edges whose payload is the
/// column's emission id.
pub(crate) struct GraphRule {
    graph: Arc<StepGraph>,
    /// Every set's bit capacity: the graph's row count, at least 1.
    cap: usize,
    /// Thm 4.8: each column's emission id, ascending; empty for the
    /// general route.
    gates: Vec<u32>,
}

impl GraphRule {
    /// The column of the step that must emit the k-gram interned as `id`
    /// (Thm 4.8; every k-gram of `o` was numbered at seed).
    pub(crate) fn column(&self, id: u32) -> usize {
        self.gates
            .binary_search(&id)
            .expect("every k-gram of o has a column")
    }
}

impl SubsetRule for GraphRule {
    const BY_SET: bool = true;

    fn successor(&self, set: &BitSet, symbol: usize, col: usize) -> BitSet {
        let gate = self.gates.get(col).copied();
        let mut out = BitSet::new(self.cap);
        for row in set.iter() {
            for e in self.graph.edges(symbol as u32, row as u32) {
                if gate.is_none_or(|g| e.payload == g) {
                    out.insert(e.to as usize);
                }
            }
        }
        out
    }
}

/// A subset rule determinized into flat successor tables over the lifted
/// `(subset, node)` cells `d·|Σ| + node`: the state space of the
/// acceptance DP and of the Thm 4.8 and general confidence DPs. Subsets
/// are interned in a [`SubsetTable`], each stored once and numbered
/// densely in discovery order, the initial one first;
/// `succ[col][d·|Σ| + σ]` caches each successor (or [`DEAD`]), so a step
/// costs one table lookup and one multiply-add per positive transition.
///
/// The folds grow the table lazily, in the order their steps ask
/// ([`LiftedDfa::new`]); the sliding window builds it whole, breadth
/// first, under a cell budget ([`LiftedDfa::eager`]). Each table counts
/// the subsets it discovered into `kernel.subsets.discovered` once, when
/// it is dropped or finished.
pub(crate) struct LiftedDfa {
    k: usize,
    /// A subset accepts if it meets this set.
    finals: BitSet,
    /// Every subset found so far, by id (the dead one included, once
    /// found).
    sets: SubsetTable,
    /// One successor table per column; a column grows when a lookup
    /// first passes its end, so only the columns a pass uses grow.
    succ: Vec<Vec<u32>>,
    accepting: Vec<bool>,
    /// Subsets interned since the last report, restored ones excepted.
    fresh: u64,
}

impl LiftedDfa {
    /// An empty table over `k` symbols with `n_cols` successor columns,
    /// of sets of `finals`' capacity; every successor is found on demand.
    fn new(k: usize, n_cols: usize, finals: BitSet) -> Self {
        LiftedDfa {
            k,
            sets: SubsetTable::new(finals.capacity()),
            finals,
            succ: vec![Vec::new(); n_cols],
            accepting: Vec::new(),
            fresh: 0,
        }
    }

    /// The acceptance fold's table for `nfa`: `{q0}`, one column.
    pub(crate) fn lazy(nfa: &Nfa) -> Self {
        let mut table = LiftedDfa::new(nfa.n_symbols(), 1, nfa.accepting_set());
        table.intern(BitSet::singleton(
            nfa.n_states().max(1),
            nfa.initial().index(),
        ));
        table
    }

    /// The complete table, subsets in breadth-first order; `None` as soon
    /// as the cell count `subsets · |Σ|` would exceed `cap`.
    pub(crate) fn eager(nfa: &Nfa, cap: usize) -> Option<Self> {
        let mut table = LiftedDfa::lazy(nfa);
        let complete = table.with_column(0, |table, column| {
            let mut d = 0;
            while d < table.n_subsets() {
                if table.n_cells() > cap {
                    return false;
                }
                for s in 0..table.k {
                    table.successor(nfa, 0, column, d * table.k + s);
                }
                d += 1;
            }
            true
        });
        table.report();
        complete.then_some(table)
    }

    /// Subsets materialized so far (the dead one included, once found).
    pub(crate) fn n_subsets(&self) -> usize {
        self.sets.len()
    }

    /// The lifted cell count `subsets · |Σ|`.
    pub(crate) fn n_cells(&self) -> usize {
        self.n_subsets() * self.k
    }

    /// The successors of subset `d`, one per symbol; only complete for a
    /// [`LiftedDfa::eager`] table.
    pub(crate) fn successors(&self, d: usize) -> &[u32] {
        &self.succ[0][d * self.k..(d + 1) * self.k]
    }

    /// The id of `set`, interning it as the next id if it is new.
    fn intern(&mut self, set: BitSet) -> usize {
        let d = self.sets.intern(set);
        if d == self.accepting.len() {
            self.fresh += 1;
            self.accepting.push(self.sets[d].intersects(&self.finals));
        }
        d
    }

    /// Runs `f` on the table with column `col` taken out of it, so that
    /// a hot loop's hit is one bounds-checked load from a local vector.
    fn with_column<T>(&mut self, col: usize, f: impl FnOnce(&mut Self, &mut Vec<u32>) -> T) -> T {
        let mut column = std::mem::take(&mut self.succ[col]);
        let out = f(self, &mut column);
        self.succ[col] = column;
        out
    }

    /// The successor in `slot = d·|Σ| + σ` of `column` (column `col`,
    /// taken out by [`LiftedDfa::with_column`]), determinizing it on a
    /// miss.
    #[inline]
    fn successor<R: SubsetRule>(
        &mut self,
        rule: &R,
        col: usize,
        column: &mut Vec<u32>,
        slot: usize,
    ) -> u32 {
        match column.get(slot) {
            Some(&d) if d != UNKNOWN => d,
            _ => self.discover(rule, col, column, slot),
        }
    }

    #[cold]
    fn discover<R: SubsetRule>(
        &mut self,
        rule: &R,
        col: usize,
        column: &mut Vec<u32>,
        slot: usize,
    ) -> u32 {
        let set = rule.successor(&self.sets[slot / self.k], slot % self.k, col);
        let dead = set.is_empty();
        let d = self.intern(set);
        let next = if dead { DEAD } else { d as u32 };
        if column.len() <= slot {
            column.resize(self.n_cells(), UNKNOWN);
        }
        column[slot] = next;
        next
    }

    /// `μ₀→` (dense, length `|Σ|`) lifted into `v`: the first symbol read
    /// moves the initial subset, through column `col`. The caller orders
    /// the cells.
    pub(crate) fn seed<R: SubsetRule>(
        &mut self,
        rule: &R,
        col: usize,
        initial: &[f64],
        v: &mut LiftedVec,
    ) {
        let (k, cells) = (self.k, self.n_cells());
        self.with_column(col, |table, column| {
            lifted_seed(k, cells, initial, v, |slot| {
                table.successor(rule, col, column, slot)
            });
        });
    }

    /// [`LiftedDfa::seed`] over a complete table, into `v` (reused).
    pub(crate) fn seed_complete(&self, initial: &[f64], v: &mut LiftedVec) {
        lifted_seed(self.k, self.n_cells(), initial, v, |slot| self.known(slot));
        v.settle();
    }

    /// Folds one dense row-major `|Σ|²` matrix into `cur` through column
    /// `col`, writing `next` (listed if `sparse`). The caller orders the
    /// cells.
    pub(crate) fn step<R: SubsetRule>(
        &mut self,
        rule: &R,
        col: usize,
        matrix: &[f64],
        cur: &LiftedVec,
        next: &mut LiftedVec,
        sparse: bool,
    ) {
        let (k, cells) = (self.k, self.n_cells());
        self.with_column(col, |table, column| {
            lifted_step(k, cells, matrix, cur, next, sparse, |slot| {
                table.successor(rule, col, column, slot)
            });
        });
    }

    /// [`LiftedDfa::step`] over a complete table and plain dense cells
    /// ([`ABSENT`] where nothing arrived; `next` is overwritten), with no
    /// layout choice and no presence count: the same visit and summation
    /// order as the fold's dense layout, so the same bits.
    pub(crate) fn step_complete(&self, matrix: &[f64], cur: &[f64], next: &mut [f64]) {
        let k = self.k;
        debug_assert_eq!(matrix.len(), k * k, "step matrix must be |Σ|²");
        next.fill(ABSENT);
        for (c, &p) in cur.iter().enumerate() {
            if p.is_sign_negative() {
                continue;
            }
            let row = &matrix[(c % k) * k..(c % k + 1) * k];
            for (to, (&pt, &d2)) in row.iter().zip(self.successors(c / k)).enumerate() {
                if pt <= 0.0 || d2 == DEAD {
                    continue;
                }
                next[d2 as usize * k + to] += p * pt;
            }
        }
    }

    #[inline]
    fn known(&self, slot: usize) -> u32 {
        let d = self.succ[0][slot];
        debug_assert_ne!(d, UNKNOWN, "complete tables have every successor");
        d
    }

    /// Lists the present cells of a listed vector in ascending `(node,
    /// subset)` order, comparing the subsets themselves (`BitSet`'s
    /// derived order), never their discovery ids.
    fn settle_by_set(&self, v: &mut LiftedVec) {
        let (k, sets) = (self.k, &self.sets);
        v.live.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            (a % k)
                .cmp(&(b % k))
                .then_with(|| sets[a / k].cmp(&sets[b / k]))
        });
        v.present = v.live.len();
    }

    /// `Pr(prefix ∈ L(A))` of a lifted vector: the Neumaier sum of its
    /// present cells in accepting subsets, in the vector's cell order.
    pub(crate) fn probability(&self, v: &LiftedVec) -> f64 {
        let mut total = Neumaier::new();
        v.for_each_present(self.k, |d, _, p| {
            if self.accepting[d] {
                total.add(p);
            }
        });
        total.total()
    }

    /// Adds the subsets discovered since the last report to
    /// `kernel.subsets.discovered`.
    fn report(&mut self) {
        if self.fresh > 0 {
            transmark_obs::counter!("kernel.subsets.discovered")
                .add(std::mem::take(&mut self.fresh));
        }
    }
}

impl Drop for LiftedDfa {
    fn drop(&mut self) {
        self.report();
    }
}

/// A lifted vector with at most one cell in this many present is sparse:
/// it lists its present cells, sorted, and steps, reductions and resets
/// walk that list; a denser one is scanned whole. Every value from 4 to
/// 64 timed alike on the `tmk bench` `series_*` cases; scanning every
/// vector made `series_nth13_sparse` about 120× slower, and listing
/// every vector made `series_rand30_dense` 20–30% slower (EXPERIMENTS.md
/// STRATEGIES).
const SPARSE_FRACTION: usize = 16;

/// A vector over the lifted cells: one mass per cell ([`ABSENT`] where
/// nothing arrived) and, when sparse (see [`SPARSE_FRACTION`]), the
/// sorted list of its present cells.
#[derive(Default)]
pub(crate) struct LiftedVec {
    mass: Vec<f64>,
    /// The present cells, in the fold's order once built; empty unless
    /// `sparse`.
    live: Vec<u32>,
    /// How many cells are present, counted once the vector is built.
    present: usize,
    sparse: bool,
}

impl LiftedVec {
    /// Wraps dense cells: every cell whose sign bit is clear is present.
    pub(crate) fn dense(mass: Vec<f64>) -> Self {
        LiftedVec {
            present: count_present(&mass),
            mass,
            live: Vec::new(),
            sparse: false,
        }
    }

    /// The cells, [`ABSENT`] where nothing arrived.
    pub(crate) fn cells(&self) -> &[f64] {
        &self.mass
    }

    /// The cell buffer, for reuse.
    pub(crate) fn into_cells(self) -> Vec<f64> {
        self.mass
    }

    /// Whether the vector a step builds from this one should be sparse.
    fn next_sparse(&self) -> bool {
        self.present * SPARSE_FRACTION <= self.mass.len()
    }

    /// Makes every cell absent and sizes the vector to at least `cells`;
    /// the deposits that follow list the cells they reach if `sparse`.
    fn reset(&mut self, cells: usize, sparse: bool) {
        if self.sparse {
            for &c in &self.live {
                self.mass[c as usize] = ABSENT;
            }
            self.live.clear();
        } else {
            self.mass.fill(ABSENT);
        }
        if self.mass.len() < cells {
            self.mass.resize(cells, ABSENT);
        }
        self.sparse = sparse;
    }

    /// Adds `x` to cell `i`, growing the vector by whole subsets. A
    /// step inlines the same accumulation (see `lifted_step`).
    fn deposit(&mut self, k: usize, i: usize, x: f64) {
        if i >= self.mass.len() {
            self.mass.resize((i / k + 1) * k, ABSENT);
        }
        let cell = &mut self.mass[i];
        if self.sparse && cell.is_sign_negative() {
            self.live.push(i as u32);
        }
        *cell += x;
    }

    /// Sorts the present cells of a sparse vector once it is built, and
    /// counts them.
    fn settle(&mut self) {
        if self.sparse {
            self.live.sort_unstable();
            self.present = self.live.len();
        } else {
            self.present = count_present(&self.mass);
        }
    }

    /// Calls `f(subset, node, mass)` for every present cell, in ascending
    /// cell order.
    #[inline]
    fn for_each_present(&self, k: usize, mut f: impl FnMut(usize, usize, f64)) {
        if self.sparse {
            for &c in &self.live {
                let c = c as usize;
                f(c / k, c % k, self.mass[c]);
            }
        } else {
            // An empty alphabet has no cells; `max(1)` only keeps
            // `chunks_exact` from panicking on it.
            for (d, cells) in self.mass.chunks_exact(k.max(1)).enumerate() {
                for (node, &p) in cells.iter().enumerate() {
                    if !p.is_sign_negative() {
                        f(d, node, p);
                    }
                }
            }
        }
    }
}

/// The cells whose sign bit is clear, counted as a sum of sign bits so
/// the loop vectorizes.
fn count_present(mass: &[f64]) -> usize {
    mass.len()
        - mass
            .iter()
            .map(|p| (p.to_bits() >> 63) as usize)
            .sum::<usize>()
}

/// The lifted seed: `initial[node]` into cell `(succ(initial, node),
/// node)` for every positive node, skipping dead successors; the cells are
/// listed, in deposit order. `cells` sizes the vector; a lazy table's
/// discoveries grow it.
fn lifted_seed(
    k: usize,
    cells: usize,
    initial: &[f64],
    v: &mut LiftedVec,
    mut succ: impl FnMut(usize) -> u32,
) {
    v.reset(cells, true);
    for (node, &p) in initial.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let d = succ(node);
        if d != DEAD {
            v.deposit(k, d as usize * k + node, p);
        }
    }
}

/// One lifted step: present cells in `cur`'s order, targets ascending,
/// zero transitions and dead successors skipped; `next` lists the cells
/// it reaches, in deposit order, if `sparse`. The visit order fixes the
/// subsets' discovery ids and each cell's summation order, which the
/// checkpoint blobs and every result's bits depend on
/// (`tests/event_fold_pin.rs` and `tests/subset_fold_pin.rs` pin them).
fn lifted_step(
    k: usize,
    cells: usize,
    matrix: &[f64],
    cur: &LiftedVec,
    next: &mut LiftedVec,
    sparse: bool,
    mut succ: impl FnMut(usize) -> u32,
) {
    debug_assert_eq!(matrix.len(), k * k, "step matrix must be |Σ|²");
    next.reset(cells, sparse);
    // `LiftedVec::deposit`, inlined over borrowed fields so the layout
    // flag and the length stay in registers across the stores.
    let sparse = next.sparse;
    let LiftedVec { mass, live, .. } = &mut *next;
    cur.for_each_present(k, |d, node, p| {
        let row = &matrix[node * k..(node + 1) * k];
        for (to, &pt) in row.iter().enumerate() {
            if pt <= 0.0 {
                continue;
            }
            let d2 = succ(d * k + to);
            if d2 == DEAD {
                continue;
            }
            let cell = d2 as usize * k + to;
            if cell >= mass.len() {
                mass.resize((d2 as usize + 1) * k, ABSENT);
            }
            let m = &mut mass[cell];
            if sparse && m.is_sign_negative() {
                live.push(cell as u32);
            }
            *m += p * pt;
        }
    });
}

/// A subset fold: a rule, its lazily grown [`LiftedDfa`] and the layer
/// over its lifted cells, advanced one dense row-major `|Σ|²` matrix at a
/// time. Two folds run on it:
///
/// * `LiftedFold<Nfa>`, the single acceptance-DP engine behind
///   [`EventSession`](crate::incremental::EventSession) (and so behind
///   [`PreparedEventQuery`](crate::plan::PreparedEventQuery)'s acceptance
///   and prefix series, the server's streams and the store's monitor),
///   keeps its cells in ascending `(subset id, node)` order, dense or
///   listed. Its reductions order by discovery id, so its table is fresh
///   per fold (see `crate::plan`'s module docs).
/// * `LiftedFold<GraphRule>`, the Thm 4.8 and general confidence layer,
///   keeps its cells listed in ascending `(node, subset)` order, by
///   `BitSet`'s own order and never by id. Each cell sums its sources, and
///   each reduction its cells, in the order of the hashed `(node, BitSet)`
///   layer these routes folded through before, and its checkpoint lists
///   them in that order too, so discovery ids reach neither a result nor
///   a blob.
///
/// The dead (empty) subset can never accept again, so its mass is dropped
/// eagerly.
pub(crate) struct LiftedFold<R> {
    pub(crate) rule: R,
    table: LiftedDfa,
    cur: LiftedVec,
    next: LiftedVec,
}

impl<R: SubsetRule> LiftedFold<R> {
    fn new(rule: R, table: LiftedDfa) -> Self {
        LiftedFold {
            rule,
            table,
            cur: LiftedVec::default(),
            next: LiftedVec::default(),
        }
    }

    /// Orders a built layer's present cells (see [`SubsetRule::BY_SET`]).
    fn settle(table: &LiftedDfa, v: &mut LiftedVec) {
        if R::BY_SET {
            table.settle_by_set(v);
        } else {
            v.settle();
        }
    }

    /// Seeds the layer from `μ₀→` (dense, length `|Σ|`), through column
    /// `col`.
    pub(crate) fn seed(&mut self, col: usize, initial: &[f64]) {
        self.table.seed(&self.rule, col, initial, &mut self.cur);
        Self::settle(&self.table, &mut self.cur);
    }

    /// Folds in one dense row-major `|Σ|²` matrix through column `col`.
    pub(crate) fn step(&mut self, col: usize, matrix: &[f64]) {
        let sparse = R::BY_SET || self.cur.next_sparse();
        let table = &mut self.table;
        table.step(&self.rule, col, matrix, &self.cur, &mut self.next, sparse);
        Self::settle(table, &mut self.next);
        std::mem::swap(&mut self.cur, &mut self.next);
        if R::BY_SET && table.n_subsets() > COMPACT_AT.max(2 * self.cur.present) {
            self.compact();
        }
    }

    /// Moves the present cells into a table holding only their subsets.
    /// The general route's sets carry output positions, so they rarely
    /// recur, and its table would otherwise grow with the chain; the layer
    /// is ordered by set, never by id, so the new ids change no bit.
    fn compact(&mut self) {
        let (k, n_cols) = (self.table.k, self.table.succ.len());
        let table = LiftedDfa::new(k, n_cols, self.table.finals.clone());
        let old = std::mem::replace(&mut self.table, table);
        let cur = std::mem::take(&mut self.cur);
        self.cur.reset(0, true);
        cur.for_each_present(k, |d, node, p| {
            let d = self.table.intern(old.sets[d].clone());
            self.cur.deposit(k, d * k + node, p);
        });
        self.cur.present = cur.present;
        self.table.fresh = 0;
    }

    /// The Neumaier sum of the present cells in accepting subsets:
    /// `Pr(S[1..t] ∈ L(A))` for acceptance.
    pub(crate) fn probability(&self) -> f64 {
        self.table.probability(&self.cur)
    }
}

impl LiftedFold<Nfa> {
    /// The acceptance fold of `nfa`, seeded from `μ₀→`. The caller has
    /// already checked `initial.len() == nfa.n_symbols()`.
    pub(crate) fn acceptance(nfa: Nfa, initial: &[f64]) -> Self {
        let table = LiftedDfa::lazy(&nfa);
        let mut fold = LiftedFold::new(nfa, table);
        fold.seed(0, initial);
        fold
    }

    /// Serializes the fold's exact state: every materialized subset in id
    /// (discovery) order plus the present cells as `(subset id, node) → p`
    /// entries, ascending. Restoring re-interns the subsets in the same
    /// order, so ids — and therefore every id-ordered reduction downstream
    /// — are reproduced bit for bit. The successor table is deliberately
    /// not saved: it refills deterministically on demand.
    pub(crate) fn save(&self, w: &mut ByteWriter) {
        let k = self.table.k;
        w.u32(k as u32).u64(self.table.n_subsets() as u64);
        for set in self.table.sets.iter() {
            write_set(w, set);
        }
        w.u64(self.cur.present as u64);
        self.cur.for_each_present(k, |d, node, p| {
            w.u64(d as u64).u32(node as u32).f64(p);
        });
    }

    /// Rebuilds a fold of `nfa` from [`LiftedFold::save`] output; a subset
    /// that does not re-intern to its original id means the blob belongs
    /// to a different query (or is corrupt).
    pub(crate) fn restore(nfa: Nfa, r: &mut ByteReader<'_>) -> Result<Self, EngineError> {
        let k = r.u32("fold alphabet size")? as usize;
        if k != nfa.n_symbols() {
            return Err(EngineError::BadCheckpoint(format!(
                "fold alphabet {} does not match query alphabet {}",
                k,
                nfa.n_symbols()
            )));
        }
        let table = LiftedDfa::lazy(&nfa);
        let mut fold = LiftedFold::new(nfa, table);
        // A subset is at least its capacity and bit count.
        let n_subsets = r.count_u64(4 + 4, "subsets")?;
        if n_subsets == 0 {
            return Err(EngineError::BadCheckpoint(
                "fold has no materialized subsets".into(),
            ));
        }
        let cap = fold.table.sets.capacity();
        for id in 0..n_subsets {
            let got = fold.table.intern(read_set(r, cap)?);
            if got != id {
                return Err(EngineError::BadCheckpoint(format!(
                    "subset {id} re-interned as {got}; checkpoint does not match this query"
                )));
            }
        }
        fold.cur.reset(fold.table.n_cells(), true);
        // A cell is a subset id, a node and a mass.
        for _ in 0..r.count_u64(8 + 4 + 8, "layer cells")? {
            let d = r.u64("cell subset")? as usize;
            let node = r.u32("cell node")? as usize;
            let p = check_mass(r.f64("cell mass")?)?;
            if d >= n_subsets || node >= k {
                return Err(EngineError::BadCheckpoint(format!(
                    "layer entry ({d}, {node}) out of range"
                )));
            }
            fold.cur.deposit(k, d * k + node, p);
        }
        fold.cur.settle();
        fold.table.fresh = 0;
        Ok(fold)
    }
}

impl LiftedFold<GraphRule> {
    /// Thm 4.8 on `plan`'s state graph: sets of states, `{q0}` first, one
    /// column per distinct emission id among `o`'s k-grams.
    pub(crate) fn uniform_nfa(plan: &PreparedQuery, o: &[SymbolId], k: usize, n: usize) -> Self {
        let t = plan.transducer();
        let mut gates: Vec<u32> = if k == 0 {
            vec![plan.emission_id(&[])]
        } else {
            o.chunks_exact(k).map(|g| plan.emission_id(g)).collect()
        };
        gates.sort_unstable();
        gates.dedup();
        let graph = Arc::clone(plan.state_graph());
        let rule = GraphRule {
            graph,
            cap: t.n_states().max(1),
            gates,
        };
        LiftedFold::graph(rule, n, t.initial().index(), plan.accepting().clone())
    }

    /// The general route on `plan`'s output graph for `o`: sets of
    /// configurations, `{(q0, 0)}` first; a set accepts if it holds an
    /// accepting `(q, |o|)`.
    pub(crate) fn general(plan: &PreparedQuery, o: &[SymbolId], n: usize) -> Self {
        let t = plan.transducer();
        let width = o.len() + 1;
        let cap = (t.n_states() * width).max(1);
        let finals = plan.accepting().iter().map(|q| q * width + o.len());
        let finals = BitSet::from_iter_with_capacity(cap, finals);
        let rule = GraphRule {
            graph: plan.output_graph(o),
            cap,
            gates: Vec::new(),
        };
        LiftedFold::graph(rule, n, t.initial().index() * width, finals)
    }

    fn graph(rule: GraphRule, n_nodes: usize, initial: usize, finals: BitSet) -> Self {
        let mut table = LiftedDfa::new(n_nodes, rule.gates.len().max(1), finals);
        table.intern(BitSet::singleton(rule.cap, initial));
        LiftedFold::new(rule, table)
    }

    /// Serializes the layer: its present cells as `(node, capacity, bits,
    /// p)` entries, in the layer's `(node, subset)` order.
    pub(crate) fn save(&self, w: &mut ByteWriter) {
        w.u64(self.cur.present as u64);
        self.cur.for_each_present(self.table.k, |d, node, p| {
            w.u32(node as u32);
            write_set(w, &self.table.sets[d]);
            w.f64(p);
        });
    }

    /// Restores [`LiftedFold::save`] output into this fresh fold,
    /// interning the sets in blob order. The layer is ordered by set, so
    /// the resumed pass keeps its bits whatever ids the sets get.
    pub(crate) fn restore(mut self, r: &mut ByteReader<'_>) -> Result<Self, EngineError> {
        let k = self.table.k;
        self.cur.reset(self.table.n_cells(), true);
        // A cell is a node, a subset (at least 8 bytes) and a mass.
        for _ in 0..r.count_u64(4 + 8 + 8, "layer cells")? {
            let node = r.u32("cell node")? as usize;
            let set = read_set(r, self.rule.cap)?;
            let p = check_mass(r.f64("cell mass")?)?;
            if node >= k {
                return Err(EngineError::BadCheckpoint(format!(
                    "layer entry at node {node} does not fit this query"
                )));
            }
            let d = self.table.intern(set);
            self.cur.deposit(k, d * k + node, p);
        }
        self.table.settle_by_set(&mut self.cur);
        self.table.fresh = 0;
        Ok(self)
    }
}

/// A confidence table holding more subsets than this, and more than twice
/// its layer's present cells, keeps only the ones in use
/// ([`LiftedFold::compact`]), so its memory follows the layer.
const COMPACT_AT: usize = 1024;

fn write_set(w: &mut ByteWriter, set: &BitSet) {
    w.u32(set.capacity() as u32).u32(set.len() as u32);
    for b in set.iter() {
        w.u32(b as u32);
    }
}

/// Reads a [`write_set`] subset, refusing any capacity but the query's
/// `cap` before it sizes anything, and a bit outside it.
fn read_set(r: &mut ByteReader<'_>, cap: usize) -> Result<BitSet, EngineError> {
    let got = r.u32("subset capacity")? as usize;
    if got != cap {
        return Err(EngineError::BadCheckpoint(format!(
            "subset of capacity {got} does not fit this query (capacity {cap})"
        )));
    }
    let mut set = BitSet::new(cap);
    for _ in 0..r.count_u32(4, "subset bits")? {
        let b = r.u32("subset bit")? as usize;
        if b >= cap {
            return Err(EngineError::BadCheckpoint(format!(
                "subset bit {b} out of capacity {cap}"
            )));
        }
        set.insert(b);
    }
    Ok(set)
}

/// Passes a restored cell's mass only if it is a probability mass: a
/// cell's sign bit marks it present, so `-0.0` is refused with the
/// negative, NaN and infinite values.
pub(crate) fn check_mass(p: f64) -> Result<f64, EngineError> {
    if !(p.is_finite() && p.is_sign_positive()) {
        return Err(EngineError::BadCheckpoint(format!(
            "cell holds {p}, not a probability mass"
        )));
    }
    Ok(p)
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

    /// The subset/configuration DPs must be bit-reproducible: each call
    /// grows a fresh table, and nothing they sum in depends on a hash
    /// map's iteration order.
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
