//! The execution-strategy layer: which inner loop advances a layer.
//!
//! Every DP pass used to run one hard-coded CSR loop regardless of layer
//! shape. This module names the alternatives and dispatches between them:
//!
//! * [`Strategy::Sparse`] — the CSR walk ([`crate::dp`] over any
//!   [`crate::StepRows`]): zero transitions dropped, per-row
//!   `(target, prob)` pairs decoded per visit. A single pass compacts
//!   each pulled matrix into a reused [`crate::LayerCsr`]; only the
//!   multi-pass enumerations flatten the whole sequence into a
//!   [`crate::SparseSteps`].
//! * [`Strategy::Dense`] — the blocked dense path ([`crate::dense`]):
//!   raw row-major `|Σ|²` matrices read in place, the per-row multiply
//!   staged through a SIMD lane loop; nothing is compacted.
//!
//! Sparse and dense advances are **bit-identical** for every semiring:
//! a dense row visits targets in the same ascending order the CSR stores
//! them, skips exactly the entries the CSR builder dropped (`p > 0`), and
//! a lane-wise `v·p` is the same IEEE-754 operation as the scalar one.
//! The strategies apply to bound transducer queries; the prefix series of
//! an event query has one evaluator, the engine crate's acceptance fold.
//!
//! [`ExecSteps`] is the dispatch handle of the tracked (Viterbi) passes,
//! which run over a whole materialized sequence: a thin enum over the two
//! storages, so the branch is one predictable jump per layer — not per
//! cell. The single-pass routes pick the dense or the CSR driver per
//! pulled layer instead (`transmark-core`'s `forward` module).

use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

use crate::dense::{advance_dense_tracked, DenseSteps};
use crate::dp::{advance_tracked, BackEdge};
use crate::step_graph::StepGraph;
use crate::steps::SparseSteps;

/// How a bound query's layer advances execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// CSR walk with zero transitions dropped at build time.
    Sparse,
    /// Blocked dense matrix–vector advance straight off the sequence's
    /// row-major transition buffer (no CSR build).
    Dense,
}

impl Strategy {
    /// Stable lowercase label (CLI values, metric names, explain rows).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Sparse => "sparse",
            Strategy::Dense => "dense",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sparse" => Ok(Strategy::Sparse),
            "dense" => Ok(Strategy::Dense),
            other => Err(format!(
                "unknown strategy {other:?} (expected sparse or dense)"
            )),
        }
    }
}

/// Whether the SIMD inner loop is disabled for this process via the
/// `TRANSMARK_FORCE_SCALAR` environment variable (any value except `0`
/// or the empty string). Checked once; the CI scalar leg sets it so the
/// fallback loop stays covered by the full test suite.
pub fn force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE.get_or_init(|| {
        std::env::var("TRANSMARK_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether the dense multiply stage runs its `core::arch` lane loop:
/// requires x86-64 AVX2 at runtime and no scalar override. The answer is
/// cached after the first call.
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if force_scalar() {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// A whole-sequence step storage for the tracked (Viterbi) passes, which
/// keep every layer's back-pointers and so run over the materialized
/// sequence: either its CSR or its dense matrices. The drivers branch on
/// the variant once per layer.
#[derive(Clone, Copy)]
pub enum ExecSteps<'a> {
    /// CSR rows (the [`Strategy::Sparse`] storage).
    Sparse(&'a SparseSteps),
    /// Row-major dense layers (the [`Strategy::Dense`] storage).
    Dense(&'a DenseSteps<'a>),
}

impl<'a> ExecSteps<'a> {
    /// `|Σ|` of the bound sequence.
    pub fn n_nodes(self) -> usize {
        match self {
            ExecSteps::Sparse(s) => s.n_nodes(),
            ExecSteps::Dense(d) => d.n_nodes(),
        }
    }

    /// Number of transition steps (`n - 1`).
    pub fn n_steps(self) -> usize {
        match self {
            ExecSteps::Sparse(s) => s.n_steps(),
            ExecSteps::Dense(d) => d.n_steps(),
        }
    }

    /// The nonzero initial entries `(node, μ₀→(node))`, ascending.
    pub fn initial(self) -> &'a [(u32, f64)] {
        match self {
            ExecSteps::Sparse(s) => s.initial(),
            ExecSteps::Dense(d) => d.initial(),
        }
    }

    /// Tracked (Viterbi) advance at step `i` ([`advance_tracked`] /
    /// [`advance_dense_tracked`]).
    #[inline]
    pub fn advance_tracked(
        self,
        i: usize,
        graph: &StepGraph,
        cur: &[f64],
        next: &mut [f64],
        back: &mut [BackEdge],
    ) {
        match self {
            ExecSteps::Sparse(s) => advance_tracked(&s.at(i), graph, cur, next, back),
            ExecSteps::Dense(d) => advance_dense_tracked(&d.layer(i), graph, cur, next, back),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels_round_trip() {
        for s in [Strategy::Sparse, Strategy::Dense] {
            assert_eq!(s.label().parse::<Strategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.label());
        }
        assert!("best".parse::<Strategy>().is_err());
    }
}
