//! Error type for the query engine.

use std::fmt;

use transmark_automata::AutomataError;
use transmark_markov::MarkovError;

/// Errors produced while building transducers or evaluating queries.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The transducer's input alphabet does not match the Markov
    /// sequence's node alphabet (the paper assumes `Σ_A = Σ_μ`).
    AlphabetMismatch {
        /// Alphabet size on the query side.
        transducer: usize,
        /// Alphabet size on the data side.
        sequence: usize,
    },
    /// A `(q, σ, q')` transition was added twice with different emissions —
    /// deterministic emission requires `ω` to be a function of the triple.
    EmissionConflict {
        /// The source state.
        from: usize,
        /// The symbol read.
        symbol: usize,
        /// The target state.
        to: usize,
    },
    /// A state id was out of range.
    InvalidState {
        /// The offending state id.
        state: usize,
        /// The machine's state count.
        n_states: usize,
    },
    /// A symbol id was out of range for the given alphabet.
    InvalidSymbol {
        /// The offending symbol id.
        symbol: usize,
        /// The alphabet size.
        n_symbols: usize,
        /// Which alphabet: "input" or "output".
        alphabet: &'static str,
    },
    /// The operation requires a deterministic transducer.
    NotDeterministic,
    /// The operation requires uniform emission.
    NotUniform,
    /// The transducer has no states.
    EmptyTransducer,
    /// An underlying automata-toolkit error.
    Automata(AutomataError),
    /// An underlying Markov-sequence error.
    Markov(MarkovError),
    /// Pulling from a streamed step source failed (I/O, parse, or
    /// validation; the message carries the source's own diagnostic).
    Source(String),
    /// A single-pass streamed evaluation was started on a source whose
    /// cursor is not at step 0 — rewind it (or bind a fresh source) first.
    SourceConsumed {
        /// The cursor position the source was found at.
        position: usize,
    },
    /// An explicitly requested execution strategy cannot run the query
    /// shape it was asked to (e.g. a sliding window whose lifted state
    /// space exceeds the composition budget).
    UnsupportedStrategy {
        /// The requested strategy's label.
        strategy: &'static str,
        /// What it was asked to execute.
        query: &'static str,
    },
    /// A store-layer failure (unknown stream, persistence I/O, …) folded
    /// into the engine error so facade entry points return one type. The
    /// `From<StoreError>` impl lives in `transmark-store` (orphan rule);
    /// the message carries the store's own diagnostic.
    Store(String),
    /// A serialized [`crate::incremental::StreamCheckpoint`] blob could
    /// not be decoded or does not belong to the query it was resumed
    /// against (truncated, corrupted, wrong version, or fingerprint
    /// mismatch).
    BadCheckpoint(String),
}

/// The one error type of the public facade: every `transmark` entry point
/// returns `Result<_, TmkError>`. Automata, Markov, source, and store
/// errors all convert into it via `From`, so `?` composes across layers.
pub type TmkError = EngineError;

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::AlphabetMismatch { transducer, sequence } => write!(
                f,
                "transducer input alphabet ({transducer} symbols) does not match Markov sequence alphabet ({sequence} symbols)"
            ),
            EngineError::EmissionConflict { from, symbol, to } => write!(
                f,
                "transition ({from}, {symbol}, {to}) already exists with a different emission (deterministic emission violated)"
            ),
            EngineError::InvalidState { state, n_states } => {
                write!(f, "state {state} out of range ({n_states} states)")
            }
            EngineError::InvalidSymbol { symbol, n_symbols, alphabet } => {
                write!(f, "{alphabet} symbol {symbol} out of range ({n_symbols} symbols)")
            }
            EngineError::NotDeterministic => {
                write!(f, "this algorithm requires a deterministic transducer")
            }
            EngineError::NotUniform => {
                write!(f, "this algorithm requires uniform emission")
            }
            EngineError::EmptyTransducer => write!(f, "the transducer has no states"),
            EngineError::Automata(e) => write!(f, "{e}"),
            EngineError::Markov(e) => write!(f, "{e}"),
            EngineError::Source(m) => write!(f, "step source error: {m}"),
            EngineError::SourceConsumed { position } => write!(
                f,
                "step source already consumed ({position} steps pulled); rewind it before another pass"
            ),
            EngineError::UnsupportedStrategy { strategy, query } => write!(
                f,
                "execution strategy {strategy:?} cannot run {query}"
            ),
            EngineError::Store(m) => write!(f, "store error: {m}"),
            EngineError::BadCheckpoint(m) => write!(f, "bad checkpoint: {m}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Automata(e) => Some(e),
            EngineError::Markov(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AutomataError> for EngineError {
    fn from(e: AutomataError) -> Self {
        EngineError::Automata(e)
    }
}

impl From<MarkovError> for EngineError {
    fn from(e: MarkovError) -> Self {
        EngineError::Markov(e)
    }
}

// `SourceError` owns an `io::Error`, which is neither `Clone` nor
// `PartialEq`, so it is carried as its rendered message.
impl From<transmark_markov::SourceError> for EngineError {
    fn from(e: transmark_markov::SourceError) -> Self {
        EngineError::Source(e.to_string())
    }
}
