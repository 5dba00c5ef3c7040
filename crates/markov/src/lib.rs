#![warn(missing_docs)]
// Index-based loops are the clearest way to write the layered DP kernels
// and matrix scans in this codebase; the clippy suggestion (iterators with
// enumerate/zip) obscures the (position, node, state) indexing.
#![allow(clippy::needless_range_loop)]

//! Markov sequences — the data model of `transmark`.
//!
//! A *Markov sequence* `μ[n]` (§3.1 of "Transducing Markov Sequences",
//! PODS 2010) is a time-inhomogeneous Markov chain over a finite set of
//! state nodes `Σ`: an initial distribution `μ₀→` and, for each position
//! `1 ≤ i < n`, a transition matrix `μᵢ→`. It defines the probability
//! space `(Σⁿ, p)` with
//!
//! ```text
//! p(s₁⋯sₙ) = μ₀→(s₁) · ∏ᵢ μᵢ→(sᵢ, sᵢ₊₁)              (Eq. 1)
//! ```
//!
//! The paper's Markov sequences are typically *produced* by statistical
//! models: an HMM conditioned on a sequence of observations (footnote 1)
//! or a linear-chain CRF. This crate provides:
//!
//! * [`MarkovSequence`] and [`MarkovSequenceBuilder`] — the core model
//!   with validation, Eq. (1) probabilities, sampling, and marginals.
//! * [`hmm`] — hidden Markov models and the exact posterior translation
//!   `HMM + observations → MarkovSequence`.
//! * [`factors`] — the general chain-Gibbs translation (nonnegative factor
//!   chains, e.g. linear-chain CRFs, → `MarkovSequence`).
//! * [`korder`] — k-order Markov sequences and their reduction to
//!   first-order ones over a window alphabet (footnote 3).
//! * [`source`] — the streaming data plane: the [`StepSource`] pull
//!   contract plus the in-memory cursor; [`textio`] adds a chunked text
//!   reader, [`binio`] the zero-copy binary `.tmsb` format, and [`fsio`]
//!   the path-based opener dispatching between the two. [`codec`] is the
//!   one byte reader and writer under every binary format of the
//!   workspace.
//! * [`support`] — exhaustive enumeration of the nonzero-probability
//!   strings, used as the brute-force oracle throughout the test suite.
//! * [`numeric`] — compensated summation and comparison helpers shared by
//!   the dynamic programs downstream.

pub mod binio;
pub mod codec;
pub mod error;
pub mod factors;
pub mod fsio;
pub mod generate;
pub mod hmm;
pub mod hmm_textio;
pub mod info;
pub mod korder;
pub mod numeric;
pub(crate) mod obs;
pub mod seqops;
pub mod sequence;
pub mod source;
pub mod support;
pub mod textio;

pub use error::MarkovError;
pub use fsio::FileStepSource;
pub use hmm::Hmm;
pub use korder::KOrderMarkovSequence;
pub use sequence::{MarkovSequence, MarkovSequenceBuilder};
pub use source::{RewindableStepSource, SequenceSource, SourceError, StepSource};

pub use transmark_automata::{Alphabet, SymbolId};
