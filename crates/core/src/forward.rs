//! One forward pass per Table 2 route, fed by either layer kind.
//!
//! Every forward-only pass of the engine has the shape Nuel & Dumas give
//! pattern probabilities on a Markov source: seed a layer from `μ₀→`,
//! advance it once per transition matrix through the automaton-lifted
//! chain, reduce the accepting cells. Each route is written once, as a
//! [`ForwardPass`] — seeded by its constructor, then [`ForwardPass::step`]
//! per layer and [`ForwardPass::finish`] once — generic over the [`Layer`]
//! it advances. Two layer kinds feed it:
//!
//! * [`BoundLayer`] — step `i` of a bind's [`ExecSteps`]: the dense
//!   (AVX2) advance or the prebuilt CSR, whichever the planner chose;
//! * [`PulledLayer`] — a matrix pulled off a
//!   [`StepSource`](transmark_markov::StepSource), compacted into the
//!   kernel's reusable [`LayerCsr`] (which presents exactly the rows a
//!   materialized CSR would, so both kinds accumulate the same floats in
//!   the same order).
//!
//! [`crate::plan::BoundQuery`] drives a pass over its bound steps,
//! [`run_source`] over a source, and the checkpointable
//! [`crate::incremental::ConfidenceSession`] one pulled matrix at a time.
//!
//! The flat-layer routes (Thm 4.6 positional and k-uniform confidence,
//! Boolean `is_answer`/`answer_exists`, max-product `emax_of_output`)
//! share [`FlatPass`], a `(node, machine row)` layer in one semiring; the
//! subset routes (Thm 4.8, the general configuration DP) live in
//! [`crate::confidence::ConfidencePass`] and read the layer's dense
//! matrix instead.

use std::borrow::BorrowMut;
use std::marker::PhantomData;
use std::sync::Arc;

use transmark_automata::StateId;
use transmark_kernel::{
    advance, advance_filtered, count_layers, Bool, ExecSteps, LayerCsr, MaxLog, Semiring,
    StepGraph, Workspace,
};
use transmark_markov::{MarkovSequence, StepSource};

use crate::error::EngineError;
use crate::transducer::Transducer;

/// One transition step, as a forward pass consumes it.
pub(crate) trait Layer {
    /// `next ⊕= cur ⊗ (this step × graph)` — [`transmark_kernel::advance`]
    /// semantics.
    fn advance<S: Semiring>(&self, graph: &StepGraph, cur: &[S::Elem], next: &mut [S::Elem]);

    /// [`Layer::advance`] restricted to edges whose payload is `expected`.
    fn advance_filtered<S: Semiring>(
        &self,
        graph: &StepGraph,
        expected: u32,
        cur: &[S::Elem],
        next: &mut [S::Elem],
    );

    /// The step's dense row-major `|Σ|²` matrix (the subset routes scan
    /// it directly).
    fn matrix(&self) -> &[f64];
}

/// Step `i` of a bind: its strategy-chosen [`ExecSteps`] plus the
/// sequence the steps were built from.
pub(crate) struct BoundLayer<'a> {
    pub(crate) steps: ExecSteps<'a>,
    pub(crate) m: &'a MarkovSequence,
    pub(crate) i: usize,
}

impl Layer for BoundLayer<'_> {
    #[inline]
    fn advance<S: Semiring>(&self, graph: &StepGraph, cur: &[S::Elem], next: &mut [S::Elem]) {
        self.steps.advance::<S>(self.i, graph, cur, next);
    }

    #[inline]
    fn advance_filtered<S: Semiring>(
        &self,
        graph: &StepGraph,
        expected: u32,
        cur: &[S::Elem],
        next: &mut [S::Elem],
    ) {
        self.steps
            .advance_filtered::<S>(self.i, graph, expected, cur, next);
    }

    #[inline]
    fn matrix(&self) -> &[f64] {
        self.m.transition_matrix(self.i)
    }
}

/// A pulled matrix and its [`LayerCsr`] compaction (loaded only when the
/// pass is flat — see [`PulledLayer::load`]).
pub(crate) struct PulledLayer<'a> {
    csr: &'a LayerCsr,
    matrix: &'a [f64],
}

impl<'a> PulledLayer<'a> {
    /// Wraps a pulled row-major `k × k` matrix, compacting it into `csr`
    /// when `flat` (the subset routes never read the CSR).
    pub(crate) fn load(csr: &'a mut LayerCsr, flat: bool, k: usize, matrix: &'a [f64]) -> Self {
        if flat {
            csr.load_dense(k, matrix);
        }
        PulledLayer { csr, matrix }
    }
}

impl Layer for PulledLayer<'_> {
    #[inline]
    fn advance<S: Semiring>(&self, graph: &StepGraph, cur: &[S::Elem], next: &mut [S::Elem]) {
        advance::<S, _>(self.csr, graph, cur, next);
    }

    #[inline]
    fn advance_filtered<S: Semiring>(
        &self,
        graph: &StepGraph,
        expected: u32,
        cur: &[S::Elem],
        next: &mut [S::Elem],
    ) {
        advance_filtered::<S, _>(self.csr, graph, expected, cur, next);
    }

    #[inline]
    fn matrix(&self) -> &[f64] {
        self.matrix
    }
}

/// A forward pass: seeded by its constructor from `μ₀→`, then one
/// [`ForwardPass::step`] per transition matrix and one
/// [`ForwardPass::finish`].
pub(crate) trait ForwardPass {
    /// What the pass computes.
    type Output;

    /// Whether [`ForwardPass::step`] reads the layer's CSR (the flat
    /// routes); a pulled matrix is compacted only for those.
    fn flat(&self) -> bool;

    /// Folds in one layer.
    fn step<L: Layer>(&mut self, layer: &L);

    /// Reduces the accepting cells (and reports the layers stepped).
    fn finish(&mut self) -> Self::Output;
}

/// Drives `pass` over every remaining layer of `src`. The caller has
/// validated the source and seeded the pass from `src.initial()`.
pub(crate) fn run_source<S: StepSource, P: ForwardPass>(
    src: &mut S,
    mut pass: P,
) -> Result<P::Output, EngineError> {
    let k = src.alphabet().len();
    let flat = pass.flat();
    let mut csr = LayerCsr::new();
    while let Some(matrix) = src.next_step()? {
        pass.step(&PulledLayer::load(&mut csr, flat, k, matrix));
    }
    Ok(pass.finish())
}

/// A `(node, machine row)` layer in semiring `S`, over one step graph
/// whose rows are `state · width + column` (`width = |o| + 1` for the
/// positional output graph, 1 for the state graph).
///
/// `W` is the double buffer: a bind lends its reused
/// [`Workspace`] (`&mut`), a session owns one.
pub(crate) struct FlatPass<S: Semiring, W> {
    graph: Arc<StepGraph>,
    ws: W,
    width: usize,
    _semiring: PhantomData<S>,
}

impl<S: Semiring, W: BorrowMut<Workspace<S::Elem>>> FlatPass<S, W> {
    /// Seeds the layer: every positive `μ₀→(node)` along the edges out
    /// of the initial state's row `q₀ · width` (column 0), restricted to
    /// payload `gate` when given.
    pub(crate) fn seed(
        t: &Transducer,
        graph: Arc<StepGraph>,
        mut ws: W,
        initial: &[f64],
        width: usize,
        gate: Option<u32>,
    ) -> Self {
        let nr = graph.n_rows();
        let buf = ws.borrow_mut();
        buf.reset(initial.len() * nr, S::zero());
        let init_row = (t.initial().index() * width) as u32;
        let cur = buf.cur_mut();
        for (node, &p) in initial.iter().enumerate() {
            if p > 0.0 {
                for e in graph.edges(node as u32, init_row) {
                    if gate.is_none_or(|g| e.payload == g) {
                        S::accum(&mut cur[node * nr + e.to as usize], S::from_prob(p));
                    }
                }
            }
        }
        FlatPass {
            graph,
            ws,
            width,
            _semiring: PhantomData,
        }
    }

    /// Rebuilds a pass around a saved layer (`cur.len()` must be
    /// `|Σ| · graph.n_rows()`).
    pub(crate) fn restore(graph: Arc<StepGraph>, mut ws: W, cur: &[S::Elem], width: usize) -> Self {
        let buf = ws.borrow_mut();
        buf.reset(cur.len(), S::zero());
        buf.cur_mut().copy_from_slice(cur);
        FlatPass {
            graph,
            ws,
            width,
            _semiring: PhantomData,
        }
    }

    /// Advances one layer, restricted to edges with payload `gate` when
    /// given (the k-uniform fast path).
    #[inline]
    pub(crate) fn step<L: Layer>(&mut self, layer: &L, gate: Option<u32>) {
        let buf = self.ws.borrow_mut();
        buf.clear_next(S::zero());
        let (cur, next) = buf.buffers();
        match gate {
            None => layer.advance::<S>(&self.graph, cur, next),
            Some(g) => layer.advance_filtered::<S>(&self.graph, g, cur, next),
        }
        buf.swap();
    }

    /// The current layer.
    pub(crate) fn cells(&self) -> &[S::Elem] {
        self.ws.borrow().cur()
    }

    /// The cells of accepting states at output column `col`, node-major
    /// then state-ascending — the order every reduction runs in.
    pub(crate) fn accepting<'a>(
        &'a self,
        t: &'a Transducer,
        col: usize,
    ) -> impl Iterator<Item = S::Elem> + 'a {
        let nr = self.graph.n_rows();
        let cur = self.cells();
        let n_nodes = cur.len() / nr.max(1);
        (0..n_nodes).flat_map(move |node| {
            (0..t.n_states())
                .filter(|&q| t.is_accepting(StateId(q as u32)))
                .map(move |q| cur[node * nr + q * self.width + col])
        })
    }
}

/// The output-independent flat routes reduced in their own semiring:
/// [`Bool`] reachability (`is_answer` over the output graph,
/// `answer_exists` over the state graph) and [`MaxLog`] `emax_of_output`.
pub(crate) struct FlatReduce<'t, S: Semiring, W> {
    t: &'t Transducer,
    pass: FlatPass<S, W>,
    /// The output column an accepting cell must have reached (`|o|`).
    col: usize,
    layers: u64,
}

impl<'t, S: Semiring, W: BorrowMut<Workspace<S::Elem>>> FlatReduce<'t, S, W> {
    /// Over `output_step_graph(t, o)` for an `o` of length `o_len`.
    pub(crate) fn output(
        t: &'t Transducer,
        graph: Arc<StepGraph>,
        ws: W,
        initial: &[f64],
        o_len: usize,
    ) -> Self {
        FlatReduce {
            t,
            pass: FlatPass::seed(t, graph, ws, initial, o_len + 1, None),
            col: o_len,
            layers: 0,
        }
    }

    /// Over `state_step_graph(t)`.
    pub(crate) fn states(t: &'t Transducer, graph: Arc<StepGraph>, ws: W, initial: &[f64]) -> Self {
        FlatReduce {
            t,
            pass: FlatPass::seed(t, graph, ws, initial, 1, None),
            col: 0,
            layers: 0,
        }
    }

    fn step_layer<L: Layer>(&mut self, layer: &L) {
        self.pass.step(layer, None);
        self.layers += 1;
    }
}

impl<W: BorrowMut<Workspace<bool>>> ForwardPass for FlatReduce<'_, Bool, W> {
    type Output = bool;

    fn flat(&self) -> bool {
        true
    }

    fn step<L: Layer>(&mut self, layer: &L) {
        self.step_layer(layer);
    }

    fn finish(&mut self) -> bool {
        count_layers(std::mem::take(&mut self.layers));
        self.pass.accepting(self.t, self.col).any(|b| b)
    }
}

impl<W: BorrowMut<Workspace<f64>>> ForwardPass for FlatReduce<'_, MaxLog, W> {
    type Output = f64;

    fn flat(&self) -> bool {
        true
    }

    fn step<L: Layer>(&mut self, layer: &L) {
        self.step_layer(layer);
    }

    fn finish(&mut self) -> f64 {
        count_layers(std::mem::take(&mut self.layers));
        self.pass
            .accepting(self.t, self.col)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}
