//! The streaming data plane: pull-based step sources.
//!
//! The engine's forward passes consume a Markov sequence strictly left to
//! right: the initial distribution once, then one `|Σ|×|Σ|` transition
//! matrix per step. [`StepSource`] abstracts exactly that access pattern,
//! so the same pass runs over an in-memory [`MarkovSequence`]
//! ([`SequenceSource`]), a chunked text reader
//! ([`crate::textio::TmsTextSource`]), or the zero-copy binary `.tmsb`
//! format ([`crate::binio`]) — holding only O(|Σ|²) of sequence data at a
//! time, independent of `n`.
//!
//! # Contract
//!
//! * `len()` is the sequence length `n ≥ 1`; exactly `n − 1` calls to
//!   [`StepSource::next_step`] yield `Some`, after which every call yields
//!   `None`.
//! * Step `i`'s matrix is row-major (`matrix[from · |Σ| + to]`), and every
//!   row is a validated probability distribution — sources validate on
//!   pull, so a consumer never sees malformed data.
//! * The matrices a source yields are **bitwise equal** to the in-memory
//!   sequence's [`MarkovSequence::transition_matrix`] slices. Combined
//!   with the kernel's `LayerCsr` (which compacts a dense layer into the
//!   exact rows a materialized CSR would hold), a forward DP driven off
//!   any source accumulates floats in the same order and reproduces the
//!   in-memory result bit for bit.
//!
//! # Forward-only vs. rewindable
//!
//! A plain [`StepSource`] supports a single left-to-right pass — enough
//! for acceptance, the confidence prefix series, evidence probability
//! (`E_max` of a fixed output), Monte-Carlo estimation, and event
//! monitoring. Passes with a backward sweep (forward–backward marginals,
//! `E_max` traceback re-runs) need either auxiliary per-step state saved
//! on the way forward (back-pointers) or a second pass; the latter take a
//! [`RewindableStepSource`], whose [`rewind`](RewindableStepSource::rewind)
//! restarts the step cursor at 0. In-memory and seekable binary sources
//! rewind; stdin-fed text sources do not.

use std::fmt;
use std::sync::Arc;

use transmark_automata::Alphabet;

use crate::error::MarkovError;
use crate::sequence::MarkovSequence;
use crate::textio::ParseError;

/// Everything that can go wrong pulling from a step source.
#[derive(Debug)]
pub enum SourceError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// Malformed text input, located at its line.
    Parse(ParseError),
    /// Malformed binary layout (bad magic, truncation, size mismatch).
    Format(String),
    /// The header's format version is one this reader does not speak —
    /// typed (rather than a generic [`SourceError::Format`]) so network
    /// peers can negotiate: a server seeing a future version can answer
    /// "speak version ≤ `supported`" instead of calling the frame
    /// garbage.
    Version {
        /// The version the header declares.
        found: u32,
        /// The newest version this reader understands.
        supported: u32,
    },
    /// A layer's byte run disagrees with the fixed `8·|Σ|²` stride the
    /// header implies — a partial layer mid-payload rather than a clean
    /// truncation at a layer boundary (which stays [`SourceError::Format`]).
    Stride {
        /// 0-based step at which the mismatch surfaced.
        step: usize,
        /// Bytes one layer must span (`8·|Σ|²`).
        expected: usize,
        /// Bytes actually present for that layer.
        actual: usize,
    },
    /// The data parsed but is not a valid Markov sequence.
    Model(MarkovError),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Io(e) => write!(f, "i/o error: {e}"),
            SourceError::Parse(e) => write!(f, "{e}"),
            SourceError::Format(m) => write!(f, "invalid tmsb data: {m}"),
            SourceError::Version { found, supported } => write!(
                f,
                "unsupported tmsb version {found} (this reader speaks versions up to {supported})"
            ),
            SourceError::Stride {
                step,
                expected,
                actual,
            } => write!(
                f,
                "invalid tmsb data: layer {step} violates the fixed stride: \
                 expected {expected} bytes, found {actual}"
            ),
            SourceError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e)
    }
}

impl From<ParseError> for SourceError {
    fn from(e: ParseError) -> Self {
        SourceError::Parse(e)
    }
}

impl From<MarkovError> for SourceError {
    fn from(e: MarkovError) -> Self {
        SourceError::Model(e)
    }
}

/// A pull-based reader of one Markov sequence: `initial()` once, then
/// `n − 1` step matrices in order. See the [module docs](self) for the
/// full contract.
pub trait StepSource {
    /// The shared node alphabet `Σ`.
    fn alphabet(&self) -> &Arc<Alphabet>;

    /// The sequence length `n` (positions, not steps).
    fn len(&self) -> usize;

    /// `n ≥ 1` always holds for a valid source, so this is `false`.
    fn is_empty(&self) -> bool {
        false
    }

    /// The initial distribution `μ₀→` (length `|Σ|`), available before,
    /// during, and after step consumption.
    fn initial(&self) -> &[f64];

    /// Number of step matrices already yielded.
    fn position(&self) -> usize;

    /// Pulls the next step's row-major `|Σ|²` matrix; `None` once all
    /// `n − 1` steps are consumed. The borrow ends before the next pull,
    /// so implementations may reuse one internal buffer.
    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError>;
}

/// A [`StepSource`] that can restart its step cursor, enabling multi-pass
/// (backward-sweep) algorithms over the same underlying data.
pub trait RewindableStepSource: StepSource {
    /// Resets the cursor so the next [`StepSource::next_step`] yields
    /// step 0 again.
    fn rewind(&mut self) -> Result<(), SourceError>;
}

// The trait is object-safe; delegate through `&mut` and `Box` so callers
// can hand `&mut dyn StepSource` / `Box<dyn StepSource>` to the generic
// consumers (the engine's `*_source` entry points take `S: StepSource`).
impl<S: StepSource + ?Sized> StepSource for &mut S {
    fn alphabet(&self) -> &Arc<Alphabet> {
        (**self).alphabet()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn initial(&self) -> &[f64] {
        (**self).initial()
    }
    fn position(&self) -> usize {
        (**self).position()
    }
    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        (**self).next_step()
    }
}

impl<S: StepSource + ?Sized> StepSource for Box<S> {
    fn alphabet(&self) -> &Arc<Alphabet> {
        (**self).alphabet()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn initial(&self) -> &[f64] {
        (**self).initial()
    }
    fn position(&self) -> usize {
        (**self).position()
    }
    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        (**self).next_step()
    }
}

impl<S: RewindableStepSource + ?Sized> RewindableStepSource for &mut S {
    fn rewind(&mut self) -> Result<(), SourceError> {
        (**self).rewind()
    }
}

impl<S: RewindableStepSource + ?Sized> RewindableStepSource for Box<S> {
    fn rewind(&mut self) -> Result<(), SourceError> {
        (**self).rewind()
    }
}

/// The in-memory source: a cursor over a borrowed [`MarkovSequence`].
/// Yields each [`MarkovSequence::transition_matrix`] slice directly (no
/// copy), so it is trivially bit-identical to the materialized path.
///
/// A pull here is a pointer offset, so the data-plane counters are fed in
/// one batch — when the source is exhausted, rewound or dropped — rather
/// than per step, where two atomic adds would be a measurable share of a
/// cheap per-tick fold.
#[derive(Debug)]
pub struct SequenceSource<'a> {
    m: &'a MarkovSequence,
    pos: usize,
    /// Steps yielded but not yet reported to the data-plane counters.
    unreported: usize,
}

impl<'a> SequenceSource<'a> {
    /// A cursor positioned before step 0.
    pub fn new(m: &'a MarkovSequence) -> Self {
        SequenceSource {
            m,
            pos: 0,
            unreported: 0,
        }
    }

    fn report(&mut self) {
        if self.unreported > 0 {
            let k = self.m.n_symbols();
            crate::obs::record_steps(std::mem::take(&mut self.unreported), k * k);
        }
    }
}

impl Clone for SequenceSource<'_> {
    /// A cursor at the same position; the steps pulled so far stay the
    /// original's to report.
    fn clone(&self) -> Self {
        SequenceSource {
            m: self.m,
            pos: self.pos,
            unreported: 0,
        }
    }
}

impl Drop for SequenceSource<'_> {
    fn drop(&mut self) {
        self.report();
    }
}

impl StepSource for SequenceSource<'_> {
    fn alphabet(&self) -> &Arc<Alphabet> {
        self.m.alphabet_ref()
    }

    fn len(&self) -> usize {
        self.m.len()
    }

    fn initial(&self) -> &[f64] {
        self.m.initial_dist()
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.m.len() {
            self.report();
            return Ok(None);
        }
        let i = self.pos;
        self.pos += 1;
        self.unreported += 1;
        Ok(Some(self.m.transition_matrix(i)))
    }
}

impl RewindableStepSource for SequenceSource<'_> {
    fn rewind(&mut self) -> Result<(), SourceError> {
        self.report();
        crate::obs::record_rewind();
        self.pos = 0;
        Ok(())
    }
}

/// Drains a source into a fully materialized [`MarkovSequence`] (the flat
/// SoA buffer). The inverse of [`MarkovSequence::step_source`]; used by
/// consumers that genuinely need random access, and the last step of
/// every whole-sequence decoder.
///
/// The buffer grows as the layers arrive: a source claiming a length its
/// data cannot back fails at its first missing layer, having sized
/// nothing from the claim.
pub fn materialize<S: StepSource>(src: &mut S) -> Result<MarkovSequence, SourceError> {
    let alphabet = Arc::clone(src.alphabet());
    let k = alphabet.len();
    let initial = src.initial().to_vec();
    let mut transitions = Vec::new();
    while let Some(m) = src.next_step()? {
        transitions.extend_from_slice(m);
    }
    let expected = src.len().saturating_sub(1).saturating_mul(k * k);
    if transitions.len() != expected {
        return Err(SourceError::Format(format!(
            "source yielded {} step entries, expected {expected}",
            transitions.len()
        )));
    }
    Ok(crate::sequence::from_validated_parts(
        alphabet,
        initial,
        transitions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_markov_sequence, RandomChainSpec};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sequence_source_yields_every_layer_then_none() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 6,
                n_symbols: 3,
                zero_prob: 0.2,
            },
            &mut rng,
        );
        let mut src = m.step_source();
        assert_eq!(src.len(), 6);
        assert_eq!(src.initial(), m.initial_dist());
        for i in 0..5 {
            assert_eq!(src.position(), i);
            let layer = src.next_step().unwrap().expect("step present");
            assert_eq!(layer, m.transition_matrix(i));
        }
        assert!(src.next_step().unwrap().is_none());
        assert!(src.next_step().unwrap().is_none());
        src.rewind().unwrap();
        assert_eq!(src.next_step().unwrap().unwrap(), m.transition_matrix(0));
    }

    #[test]
    fn materialize_round_trips() {
        let mut rng = StdRng::seed_from_u64(4);
        for len in [1usize, 2, 7] {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len,
                    n_symbols: 2,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let back = materialize(&mut m.step_source()).unwrap();
            assert_eq!(back.len(), m.len());
            assert_eq!(back.initial_dist(), m.initial_dist());
            assert_eq!(back.transitions_flat(), m.transitions_flat());
        }
    }
}
