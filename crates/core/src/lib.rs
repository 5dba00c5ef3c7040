#![warn(missing_docs)]
// The layered DP kernels live in `transmark-kernel`; what remains here are
// seed/reduce loops and graph builders over (position, node, state)
// indices, where the clippy suggestion (iterators with enumerate/zip)
// obscures the indexing the kernel's cell layout is defined by.
#![allow(clippy::needless_range_loop)]

//! The `transmark` query engine: evaluating finite-state transducers over
//! Markov sequences.
//!
//! This crate is the reproduction of the primary contribution of
//! "Transducing Markov Sequences" (Kimelfeld & Ré, PODS 2010). A query is
//! a [`Transducer`] `A^ω` — an NFA whose transitions each emit a fixed
//! output string ("deterministic emission", §3.1.1). Evaluating `A^ω` over
//! a Markov sequence `μ` follows the probabilistic-database semantics:
//! every output string `o` with `Pr(S →[A^ω]→ o) > 0` is an *answer*, and
//! that probability is its *confidence*.
//!
//! Every transducer query runs through one front door: [`prepare`] the
//! machine once (the Table 2 planner), [`PreparedQuery::bind`] it to a
//! sequence (or [`PreparedQuery::bind_source`] to a stream), and call the
//! evaluation mode on the [`BoundQuery`]. Boolean event queries run
//! through [`PreparedEventQuery`], or an [`EventSession`] when they are
//! fed one matrix at a time.
//!
//! The modules map onto the paper's results:
//!
//! | Module | Paper result |
//! |---|---|
//! | [`transducer`] | §3.1.1 — transducers, Mealy machines, projectors |
//! | [`constraints`] | §4 — prefix constraints as output-DFA products |
//! | [`mod@confidence`] | Thm 4.6 (deterministic, plus k-uniform fast path), Thm 4.8 (uniform NFA subset DP), the general exact algorithm (exponential, as Prop. 4.7 / Thm 4.9 force), and `Pr(S ∈ L(A))` |
//! | [`emax`] | §4.2 — best evidence `E_max`, constrained Viterbi |
//! | [`enumerate`] | Thm 4.1 (unranked, poly delay + poly space) and Thm 4.3 (decreasing `E_max`, poly delay) |
//! | [`montecarlo`] | additive-error confidence estimation by sampling |
//! | [`plan`] | Table 2 as an explicit planner — compile a [`plan::PreparedQuery`] once, bind it per sequence, execute every pass over cached machine-side artifacts |
//! | [`incremental`] | §6 streaming as first-class state — checkpointable [`incremental::EventSession`]/[`incremental::ConfidenceSession`] machines and the [`incremental::SlidingWindowQuery`] (operator-composition window eviction, no rewind) |
//! | [`kernelize`] | bridges to the shared `transmark-kernel` DP substrate (semirings, CSR step graphs, workspaces) |
//! | [`brute`] | brute-force oracles used by tests and the experiment harness |

pub mod brute;
pub mod certified;
pub mod compose;
pub mod confidence;
pub mod constraints;
pub mod emax;
pub mod enumerate;
pub mod error;
pub mod evidence;
pub(crate) mod forward;
pub mod generate;
pub mod incremental;
pub mod kernelize;
pub mod montecarlo;
pub mod plan;
pub mod scan;
pub mod textio;
pub mod transducer;

pub use certified::{
    certified_top_by_confidence, certified_top_k_by_confidence, CertifiedTop, CertifiedTopK,
};
pub use compose::compose;
pub use confidence::{confidence_deterministic, confidence_general, confidence_uniform_nfa};
pub use emax::EmaxResult;
pub use enumerate::{RankedAnswer, UnrankedAnswers};
pub use error::EngineError;
pub use evidence::{Evidence, Evidences};
pub use incremental::{
    CheckpointKind, ConfidenceSession, EventSession, SlidingWindowQuery, StreamCheckpoint,
    StreamSession, WindowSession,
};
pub use plan::{
    choose_strategy, prepare, BoundQuery, BoundedCache, ConfidenceCost, PlanExplain, PlanKind,
    PreparedEventQuery, PreparedQuery, ScoredAnswer, SourceBoundQuery, Strategy,
};
pub use transducer::{Transducer, TransducerBuilder};

/// Another name for [`BoundQuery`], kept so code that names its
/// evaluation handle `Evaluation` still compiles;
/// [`BoundQuery::with_plan`] is [`PreparedQuery::bind`].
pub type Evaluation<'m> = BoundQuery<'m>;

pub use transmark_automata::{Alphabet, BitSet, Dfa, Nfa, StateId, SymbolId};
pub use transmark_markov::{MarkovSequence, MarkovSequenceBuilder};
