//! `transmark-kernel` — the shared substrate of every layered DP in the
//! engine.
//!
//! Each theorem-bearing pass in `transmark-core`, `transmark-sproj`, and
//! `transmark-markov` is the same computation: seed a layer of cells
//! indexed by `(Markov node, machine row)`, advance it once per sequence
//! position through the product of the Markov transitions and a
//! finite-state machine's edges, then reduce the accepting cells. The
//! passes differ only in the *semiring* (sum-product, max-product,
//! reachability) and in what a "machine row" is. This crate factors that
//! shape out:
//!
//! * [`Semiring`] with the three monomorphic instantiations [`Prob`],
//!   [`MaxLog`], and [`Bool`] — uninhabited type-parameter enums, so every
//!   driver compiles to straight-line `f64`/`bool` code with no dynamic
//!   dispatch;
//! * [`LayerCsr`] — the Markov side of a single pass: one pulled dense
//!   matrix compacted into CSR with zero transitions dropped, rebuilt in
//!   place per layer (O(|Σ|²) data-side memory regardless of sequence
//!   length); [`SparseSteps`] flattens the whole sequence the same way
//!   for the multi-pass enumerations, and the [`StepRows`] trait lets one
//!   set of drivers run against either;
//! * [`StepGraph`] — the machine side, the product transitions
//!   precompiled once per query into CSR buckets keyed by
//!   `(input symbol, machine row)`;
//! * [`Workspace`] — double-buffered layer vectors, reused across
//!   invocations instead of reallocated;
//! * the [`dp`] drivers — `advance`, `advance_filtered`,
//!   `advance_tracked` (Viterbi back-pointers), `advance_string`;
//! * the [`exec`] strategy layer — [`Strategy`] names how a bound
//!   query's layers advance (sparse CSR or blocked dense) and
//!   [`ExecSteps`] dispatches the tracked driver over either
//!   whole-sequence storage; [`DenseSteps`] in [`dense`] is the no-CSR
//!   storage with the SIMD multiply stage (AVX2 with a runtime-chosen
//!   scalar fallback — see [`exec::simd_enabled`] /
//!   `TRANSMARK_FORCE_SCALAR`);
//! * [`incremental`] — dense semiring [`StepOperator`]s with
//!   compose/apply plus the two-stack [`SlidingProduct`], the
//!   window-eviction primitive behind sliding-window queries (amortized
//!   one composition per tick, no source rewind);
//! * [`Neumaier`] — compensated summation for final reductions.
//!
//! # Machine side vs. data side
//!
//! The artifacts split cleanly by what they depend on, and the prepared
//! query layer in `transmark-core` is built on that split:
//!
//! * **Machine-side** (sequence-independent): [`StepGraph`]s and
//!   emission tables. Compiled once per *query*, immutable afterwards,
//!   `Send + Sync`, and shared across binds and threads as
//!   [`SharedStepGraph`] (`Arc<StepGraph>`).
//! * **Data-side** (per-sequence): [`LayerCsr`], [`SparseSteps`] and
//!   [`Workspace`]s. A bind owns its workspaces (mutable scratch,
//!   thread-local) and builds its `SparseSteps` at most once, when an
//!   enumeration first asks; it is immutable and shareable as
//!   [`SharedSparseSteps`].
//!
//! Migrated passes promise **bit-identical** results to their hand-rolled
//! predecessors: same cell linearization, same visit order (node, then
//! row, then Markov target, then edge insertion order), same zero skips,
//! same plain `+=` inside layers with compensation only at the final
//! reduction, and first-wins tie-breaking in the tracked max driver.
//! The brute-force oracles and golden Table 1 assertions in the dependent
//! crates pin this.

pub mod dense;
pub mod dp;
pub mod exec;
pub mod incremental;
pub mod numeric;
pub mod semiring;
pub mod step_graph;
pub mod steps;
pub mod workspace;

pub use dense::{
    advance_dense, advance_dense_filtered, advance_dense_tracked, DenseLayer, DenseSteps,
};
pub use dp::{advance, advance_filtered, advance_string, advance_tracked, count_layers, BackEdge};
pub use exec::{force_scalar, simd_enabled, ExecSteps, Strategy};
pub use incremental::{SlidingProduct, StepOperator};
pub use numeric::Neumaier;
pub use semiring::{Bool, MaxLog, Prob, Semiring};
pub use step_graph::{MachineEdge, SharedStepGraph, StepGraph, StepGraphBuilder};
pub use steps::{LayerCsr, SharedSparseSteps, SparseSteps, StepRows, StepView};
pub use workspace::Workspace;
