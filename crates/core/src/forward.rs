//! One forward pass per Table 2 route, fed one pulled matrix at a time.
//!
//! Every forward-only pass of the engine has the shape Nuel & Dumas give
//! pattern probabilities on a Markov source: seed a layer from `μ₀→`,
//! advance it once per transition matrix through the automaton-lifted
//! chain, reduce the accepting cells. Each route is written once, as a
//! [`ForwardPass`] — seeded by its constructor, then [`ForwardPass::step`]
//! per layer and [`ForwardPass::finish`] once — and every layer it sees
//! is a [`PulledLayer`]: a row-major matrix pulled off a
//! [`StepSource`](transmark_markov::StepSource). A flat route advances
//! on the matrix itself (the kernel's dense drivers, AVX2 where
//! available), or through its compaction into the kernel's reusable
//! [`LayerCsr`], or — when an enumeration has already built the bind's
//! whole-sequence CSR — through that CSR's step. All three visit the
//! same nonzero entries in the same order, so they agree bit for bit.
//!
//! [`run_source`] drives a pass over a source — the in-memory bind over
//! `m.step_source()`, the source bind over its own — and the
//! checkpointable [`crate::incremental::ConfidenceSession`] steps one
//! pulled matrix at a time. No pass builds the whole-sequence CSR.
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
    advance, advance_dense, advance_dense_filtered, advance_filtered, count_layers, DenseLayer,
    LayerCsr, Semiring, SparseSteps, StepGraph, StepView, Workspace,
};
use transmark_markov::StepSource;

use crate::error::EngineError;
use crate::transducer::Transducer;

/// One transition step as a forward pass consumes it: a pulled row-major
/// `|Σ|²` matrix, and the rows a flat route advances on.
pub(crate) struct PulledLayer<'a> {
    k: usize,
    matrix: &'a [f64],
    rows: Rows<'a>,
}

/// Where a flat route reads a layer's nonzero entries from. Every kind
/// presents the same entries in the same order, so all three agree bit
/// for bit.
enum Rows<'a> {
    /// The matrix itself, through the kernel's dense drivers.
    Dense,
    /// The rows of the live nodes, compacted into a reused CSR.
    Compact(&'a mut LayerCsr),
    /// This step of a whole-sequence CSR that is already built.
    Built(StepView<'a>),
}

impl<'a> PulledLayer<'a> {
    /// Wraps a pulled `k × k` matrix, to be advanced on through `csr`.
    pub(crate) fn compacting(csr: &'a mut LayerCsr, k: usize, matrix: &'a [f64]) -> Self {
        PulledLayer {
            k,
            matrix,
            rows: Rows::Compact(csr),
        }
    }

    /// `next ⊕= cur ⊗ (this step × graph)` — [`transmark_kernel::advance`]
    /// semantics.
    #[inline]
    pub(crate) fn advance<S: Semiring>(
        &mut self,
        graph: &StepGraph,
        cur: &[S::Elem],
        next: &mut [S::Elem],
    ) {
        let (k, matrix) = (self.k, self.matrix);
        match &mut self.rows {
            Rows::Dense => advance_dense::<S>(&DenseLayer::new(k, matrix), graph, cur, next),
            Rows::Compact(csr) => advance::<S, _>(
                compact_live::<S>(csr, k, matrix, graph, cur),
                graph,
                cur,
                next,
            ),
            Rows::Built(view) => advance::<S, _>(view, graph, cur, next),
        }
    }

    /// [`PulledLayer::advance`] restricted to edges whose payload is
    /// `expected`.
    #[inline]
    pub(crate) fn advance_filtered<S: Semiring>(
        &mut self,
        graph: &StepGraph,
        expected: u32,
        cur: &[S::Elem],
        next: &mut [S::Elem],
    ) {
        let (k, matrix) = (self.k, self.matrix);
        match &mut self.rows {
            Rows::Dense => {
                advance_dense_filtered::<S>(&DenseLayer::new(k, matrix), graph, expected, cur, next)
            }
            Rows::Compact(csr) => {
                let rows = compact_live::<S>(csr, k, matrix, graph, cur);
                advance_filtered::<S, _>(rows, graph, expected, cur, next)
            }
            Rows::Built(view) => advance_filtered::<S, _>(view, graph, expected, cur, next),
        }
    }

    /// The step's dense row-major `|Σ|²` matrix (the subset routes scan
    /// it directly).
    #[inline]
    pub(crate) fn matrix(&self) -> &[f64] {
        self.matrix
    }
}

/// Compacts into `csr` the rows of the nodes with a live cell in `cur`:
/// the CSR drivers skip every other row, and a pass with one live node
/// per layer then pays for one row, not `|Σ|`.
fn compact_live<'c, S: Semiring>(
    csr: &'c mut LayerCsr,
    k: usize,
    matrix: &[f64],
    graph: &StepGraph,
    cur: &[S::Elem],
) -> &'c LayerCsr {
    let nr = graph.n_rows();
    csr.load_dense(k, matrix, |node| {
        cur[node * nr..(node + 1) * nr]
            .iter()
            .any(|&v| !S::is_zero(v))
    });
    csr
}

/// A forward pass: seeded by its constructor from `μ₀→`, then one
/// [`ForwardPass::step`] per transition matrix and one
/// [`ForwardPass::finish`].
pub(crate) trait ForwardPass {
    /// What the pass computes.
    type Output;

    /// Folds in one layer.
    fn step(&mut self, layer: &mut PulledLayer<'_>);

    /// Reduces the accepting cells (and reports the layers stepped).
    fn finish(&mut self) -> Self::Output;
}

/// Drives `pass` over every remaining layer of `src`. The flat routes
/// advance on each matrix itself when `dense`; otherwise they walk
/// `built`, the whole-sequence CSR of `src` when one already exists, or
/// else compact each matrix into one reused [`LayerCsr`]. The caller has
/// validated the source and seeded the pass from `src.initial()`.
pub(crate) fn run_source<S: StepSource, P: ForwardPass>(
    src: &mut S,
    dense: bool,
    built: Option<&SparseSteps>,
    mut pass: P,
) -> Result<P::Output, EngineError> {
    let k = src.alphabet().len();
    let mut csr = LayerCsr::new();
    loop {
        let step = src.position();
        let Some(matrix) = src.next_step()? else {
            break;
        };
        let rows = match built {
            _ if dense => Rows::Dense,
            Some(steps) => Rows::Built(steps.at(step)),
            None => Rows::Compact(&mut csr),
        };
        pass.step(&mut PulledLayer { k, matrix, rows });
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
    pub(crate) fn step(&mut self, layer: &mut PulledLayer<'_>, gate: Option<u32>) {
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

/// The output-independent flat routes, each reduced in its own semiring
/// over the accepting cells: [`Bool`](transmark_kernel::Bool)
/// reachability (`is_answer` over the output graph, `answer_exists` over
/// the state graph) and [`MaxLog`](transmark_kernel::MaxLog)
/// `emax_of_output`.
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
}

impl<S: Semiring, W: BorrowMut<Workspace<S::Elem>>> ForwardPass for FlatReduce<'_, S, W> {
    type Output = S::Elem;

    fn step(&mut self, layer: &mut PulledLayer<'_>) {
        self.pass.step(layer, None);
        self.layers += 1;
    }

    fn finish(&mut self) -> S::Elem {
        count_layers(std::mem::take(&mut self.layers));
        self.pass
            .accepting(self.t, self.col)
            .fold(S::zero(), |mut acc, v| {
                S::accum(&mut acc, v);
                acc
            })
    }
}
