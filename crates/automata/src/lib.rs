#![warn(missing_docs)]
// Index-based loops are the clearest way to write the layered DP kernels
// and matrix scans in this codebase; the clippy suggestion (iterators with
// enumerate/zip) obscures the (position, node, state) indexing.
#![allow(clippy::needless_range_loop)]

//! Finite-automata toolkit for `transmark`.
//!
//! The paper ("Transducing Markov Sequences", PODS 2010) builds its query
//! language on nondeterministic finite automata (NFAs) without
//! epsilon-transitions: a transducer is an NFA plus an output function, and
//! substring projectors are triples of DFAs. This crate provides exactly
//! that automaton model, together with the constructions the query engine
//! needs:
//!
//! * [`Alphabet`] — interned symbol tables shared between Markov sequences
//!   and automata (the paper deliberately uses the same `Σ` for both).
//! * [`Nfa`] and [`Dfa`] — dense transition tables, single initial state,
//!   no epsilon transitions (matching §2.1 of the paper).
//! * [`regex`] — a compiler from a Perl-ish regular-expression subset (the
//!   syntax used by the paper's §5 examples, e.g. `".*Name:"`,
//!   `"[a-zA-Z,]+"`) into an [`Nfa`].
//! * [`ops`] — products, complement, concatenation, reversal, trimming,
//!   emptiness, and subset construction.
//! * [`bitset`] — a small fixed-capacity bit set, and [`SubsetTable`], the
//!   one interner of subsets, storing each set once: determinization and
//!   the query engine's subset DPs both number their subsets through it.
//!
//! Everything here is deterministic and allocation-conscious: transition
//! tables are flat `Vec`s indexed by `state * |Σ| + symbol`.

pub mod alphabet;
pub mod bitset;
pub mod dfa;
pub mod error;
pub mod fingerprint;
pub mod nfa;
pub mod ops;
pub mod regex;

pub use alphabet::{Alphabet, SymbolId};
pub use bitset::{BitSet, SubsetTable};
pub use dfa::Dfa;
pub use error::AutomataError;
pub use fingerprint::Fingerprinter;
pub use nfa::{Nfa, StateId};
