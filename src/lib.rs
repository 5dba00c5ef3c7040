#![warn(missing_docs)]
//! # transmark — Transducing Markov Sequences
//!
//! A query engine for *Markov sequences* (time-inhomogeneous Markov
//! chains over a finite alphabet — the canonical output of HMM/CRF
//! inference) where queries are *finite-state transducers with
//! deterministic emission*, reproducing **"Transducing Markov Sequences"**
//! (Kimelfeld & Ré, PODS 2010).
//!
//! Every answer `o` of a query `A^ω` over a sequence `μ` is an output
//! string with positive probability of being produced by a random
//! possible world; its *confidence* is that probability. The engine
//! provides:
//!
//! * confidence computation — polynomial for deterministic transducers
//!   (Thm 4.6), uniform-emission NFAs (Thm 4.8, `4^{|Q|}`), s-projectors
//!   (Thm 5.5, `4^{|Q_E|}`) and indexed s-projectors (Thm 5.8); exact
//!   (exponential worst case, necessarily) for everything else;
//! * answer enumeration — unranked with polynomial delay and space
//!   (Thm 4.1), ranked by best evidence `E_max` (Thm 4.3), ranked by best
//!   occurrence `I_max` for s-projectors (Thm 5.2/Lemma 5.10), and in
//!   exact decreasing confidence for indexed s-projectors (Thm 5.7);
//! * model front-ends — HMM posteriors, linear-chain CRFs, k-order
//!   chains;
//! * workload generators reproducing the paper's running example
//!   bit-for-bit and its hardness-gadget families.
//!
//! ## Quickstart
//!
//! ```
//! use transmark::prelude::*;
//!
//! // A 3-step Markov sequence over {sunny, rainy}.
//! let alphabet = Alphabet::from_names(["sunny", "rainy"]);
//! let (s, r) = (alphabet.sym("sunny"), alphabet.sym("rainy"));
//! let weather = MarkovSequenceBuilder::new(alphabet.clone(), 3)
//!     .initial(s, 0.8)
//!     .initial(r, 0.2)
//!     .transition(0, s, s, 0.7).transition(0, s, r, 0.3)
//!     .transition(0, r, s, 0.4).transition(0, r, r, 0.6)
//!     .transition(1, s, s, 0.7).transition(1, s, r, 0.3)
//!     .transition(1, r, s, 0.4).transition(1, r, r, 0.6)
//!     .build()
//!     .unwrap();
//!
//! // A Mealy machine marking weather changes.
//! let marks = Alphabet::from_names(["same", "flip"]);
//! let mut b = Transducer::builder(alphabet, marks.clone());
//! let qs = b.add_state(true); // last was sunny
//! let qr = b.add_state(true); // last was rainy
//! let q0 = b.add_state(true);
//! b.set_initial(q0);
//! let same = [marks.sym("same")];
//! let flip = [marks.sym("flip")];
//! b.add_transition(q0, s, qs, &same).unwrap();
//! b.add_transition(q0, r, qr, &same).unwrap();
//! b.add_transition(qs, s, qs, &same).unwrap();
//! b.add_transition(qs, r, qr, &flip).unwrap();
//! b.add_transition(qr, r, qr, &same).unwrap();
//! b.add_transition(qr, s, qs, &flip).unwrap();
//! let t = b.build().unwrap();
//!
//! // Compile the query once, bind it to the sequence, then evaluate:
//! // the top-2 answers by best evidence, with exact confidences.
//! let bound = prepare(&t).bind(&weather).unwrap();
//! let top = bound.top_k(2).unwrap();
//! assert_eq!(top.len(), 2);
//! for answer in &top {
//!     let conf = bound.confidence(&answer.output).unwrap();
//!     assert!(conf >= answer.score() - 1e-12); // E_max lower-bounds confidence
//! }
//! ```
//!
//! The crates behind this facade: `transmark-automata` (NFA/DFA/regex),
//! `transmark-markov` (the data model and its statistical front-ends),
//! `transmark-kbest` (Lawler–Murty, k-best DAG paths), `transmark-core`
//! (the §3–§4 engine), `transmark-sproj` (the §5 engine) and
//! `transmark-workloads` (paper examples, synthetic scenarios, gadgets).

pub mod bench;
pub mod cli;
pub mod facade;
pub mod serve;
pub mod top;

pub use facade::Engine;

pub use transmark_automata as automata;
pub use transmark_core as engine;
pub use transmark_kbest as kbest;
pub use transmark_markov as markov;
pub use transmark_obs as obs;
pub use transmark_sproj as sproj;
pub use transmark_store as store;
pub use transmark_workloads as workloads;

/// The most common imports in one place.
///
/// Every query has one front door. Transducer queries compile to a plan
/// ([`prepare`](prelude::prepare), or [`Engine::prepare`] for a cached
/// one), bind it with `bind`/`bind_source`, and call the evaluation
/// method on the bind. Boolean event queries run through
/// [`PreparedEventQuery`](prelude::PreparedEventQuery), or an
/// [`EventSession`](prelude::EventSession) fed one matrix at a time.
/// [`Engine::metrics`] gives the observability snapshot.
pub mod prelude {
    pub use crate::facade::Engine;
    pub use transmark_automata::{Alphabet, Dfa, Nfa, SymbolId};
    pub use transmark_core::certified::{
        certified_top_by_confidence, certified_top_k_by_confidence, CertifiedTop, CertifiedTopK,
    };
    pub use transmark_core::compose::compose;
    pub use transmark_core::confidence::{
        confidence_deterministic, confidence_general, confidence_uniform_nfa,
    };
    pub use transmark_core::enumerate::RankedAnswer;
    pub use transmark_core::error::{EngineError, TmkError};
    pub use transmark_core::incremental::EventSession;
    pub use transmark_core::plan::{
        prepare, BoundQuery, ConfidenceCost, PlanExplain, PlanKind, PreparedEventQuery,
        PreparedQuery, ScoredAnswer, SourceBoundQuery,
    };
    pub use transmark_core::transducer::{Transducer, TransducerBuilder};
    pub use transmark_markov::info::{entropy, kl_divergence, perplexity};
    pub use transmark_markov::seqops::{condition, evidence_probability, window, Evidence};
    pub use transmark_markov::{
        FileStepSource, Hmm, MarkovSequence, MarkovSequenceBuilder, RewindableStepSource,
        SequenceSource, StepSource,
    };
    pub use transmark_obs::{ExecutionProfile, Recorder, Snapshot};
    pub use transmark_sproj::{
        enumerate_by_imax, enumerate_by_imax_lawler, enumerate_indexed, sproj_confidence,
        top_k_by_imax, IndexedAnswer, IndexedEvaluator, SProjector, SprojEvaluation,
    };
    pub use transmark_store::{PlanCache, SequenceStore};
}
