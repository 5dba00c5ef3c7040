//! Incremental streaming state: checkpointable query sessions and
//! sliding windows at amortized one operator composition per tick.
//!
//! The streaming passes in this crate historically came in one shape:
//! fold left-to-right, and if you need a different view of the stream
//! (restart after a disconnect, slide a window), rewind the source and
//! recompute. This module makes the *state* of a streamed evaluation
//! first-class instead:
//!
//! * [`EventSession`] — the acceptance fold behind
//!   [`crate::plan::PreparedEventQuery`], fed one matrix at a time, with
//!   suspend/resume: serialize to
//!   a versioned [`StreamCheckpoint`] blob mid-stream, resume later (in
//!   another process) and continue **bit-identically** — the blob records
//!   the determinized subsets in discovery order, so resumed reductions
//!   accumulate in exactly the original order.
//! * [`ConfidenceSession`] — the streamed `Pr(S →[A^ω]→ o)` evaluation as
//!   an explicit seed/step/finish machine over every [`PlanKind`] route:
//!   the one confidence pass the bound and source-bound queries also
//!   drive, fed one pulled matrix at a time. Checkpoint/resume
//!   round-trips bit-identically on all four routes.
//! * [`SlidingWindowQuery`] — `Pr(window of the last w positions ∈ L(A))`
//!   at every tick. Each step's `|Σ|²` matrix lifts to an `m × m` operator
//!   on the acceptance fold's lifted `(subset, node)` cells, determinized
//!   upfront; a two-stack
//!   [`SlidingProduct`] keeps the product of the operators inside the
//!   window with amortized **one composition per tick**, so sliding the
//!   window never rewinds the source — the `dataplane.rewinds_avoided`
//!   counter tallies every slide that would have been a rewind+recompute
//!   under the old scheme. Window-start mass is a ring of node marginals
//!   that grows as positions arrive (O(min(w, t)·|Σ|) memory, O(|Σ|²)
//!   advance per tick), so the width sizes no allocation; once the
//!   window has filled, a tick allocates nothing.
//! * [`StreamQuery`] — the one map from a streamed query (confidence,
//!   prefix series or window) to the session it opens, fresh or from a
//!   checkpoint blob. Every caller outside this crate (the server's
//!   stream sessions, `tmk stream`, the store's monitor and file fleets)
//!   opens its sessions here.
//! * [`StreamSession`] — what a session is advanced through: any of the
//!   three behind one `advance` / `probability` / `position` /
//!   `checkpoint` interface, plus the one series driver every
//!   acceptance, prefix-series, monitor and window pass runs through.
//!
//! # Numerics contract
//!
//! Checkpoint/resume of [`EventSession`] and [`ConfidenceSession`] is
//! bit-identical to the uninterrupted run: the serialized state *is* the
//! fold state, and subset re-interning reproduces id order. The sliding
//! window carries a documented tolerance instead: operator composition
//! reassociates the per-step sums, so a window probability agrees with a
//! from-scratch recompute of the same window (the fold's step over the
//! window's table) to a relative `1e-12`, not bitwise.
//!
//! # Checkpoint wire format
//!
//! `"TMKC" | version u16 | kind u8 | fingerprint u64 | position u64 |
//! payload…`, all little-endian. `fingerprint` ties the blob to the query
//! structure it was suspended from; `position` is the number of
//! transition matrices consumed (= the stream layer offset to resume
//! from). Truncated or corrupted blobs decode to
//! [`EngineError::BadCheckpoint`], never a panic.

use std::cell::Cell;
use std::sync::Arc;

use transmark_automata::{Nfa, SymbolId};
use transmark_kernel::{LayerCsr, Prob, SlidingProduct, StepGraph, StepOperator, Workspace};
use transmark_markov::codec::{ByteReader, ByteWriter};
use transmark_markov::{MarkovSequence, StepSource};

use crate::confidence::{self, ConfState, ConfidencePass, LiftedDfa, LiftedFold, LiftedVec, DEAD};
use crate::error::EngineError;
use crate::forward::{FlatPass, ForwardPass, PulledLayer};
use crate::plan::{PlanKind, PreparedQuery};

/// Magic prefix of every checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"TMKC";
/// Current checkpoint wire version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Lifted-cell budget for the sliding window's upfront determinization:
/// the window keeps `O(w)` suffix-product operators of `m²` cells each,
/// so [`SlidingWindowQuery::new`] refuses a query whose `m = subsets ·
/// |Σ|` would exceed it.
const WINDOW_STATE_CAP: usize = 4096;

/// Which session a checkpoint blob suspends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// An [`EventSession`].
    Event,
    /// A [`ConfidenceSession`].
    Confidence,
    /// A [`WindowSession`].
    Window,
}

impl CheckpointKind {
    fn code(self) -> u8 {
        match self {
            CheckpointKind::Event => 1,
            CheckpointKind::Confidence => 2,
            CheckpointKind::Window => 3,
        }
    }

    fn from_code(c: u8) -> Result<Self, EngineError> {
        match c {
            1 => Ok(CheckpointKind::Event),
            2 => Ok(CheckpointKind::Confidence),
            3 => Ok(CheckpointKind::Window),
            _ => Err(EngineError::BadCheckpoint(format!(
                "unknown checkpoint kind {c}"
            ))),
        }
    }
}

/// The decoded header of a checkpoint blob — enough to route it without
/// rebuilding the query (the serve layer and `tmk` use this to validate
/// and to compute the stream byte offset to resume from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Which session kind the blob suspends.
    pub kind: CheckpointKind,
    /// Structural fingerprint of the suspended query.
    pub fingerprint: u64,
    /// Transition matrices consumed before suspension (= the stream layer
    /// offset to resume from).
    pub position: u64,
}

impl StreamCheckpoint {
    /// Decodes a blob's header without restoring any session state.
    pub fn inspect(blob: &[u8]) -> Result<StreamCheckpoint, EngineError> {
        StreamCheckpoint::read(&mut ByteReader::new(blob))
    }

    fn read(r: &mut ByteReader<'_>) -> Result<StreamCheckpoint, EngineError> {
        if r.take(4, "checkpoint magic")? != CHECKPOINT_MAGIC {
            return Err(EngineError::BadCheckpoint("bad magic".into()));
        }
        let version = r.u16("checkpoint version")?;
        if version != CHECKPOINT_VERSION {
            return Err(EngineError::BadCheckpoint(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        Ok(StreamCheckpoint {
            kind: CheckpointKind::from_code(r.u8("checkpoint kind")?)?,
            fingerprint: r.u64("fingerprint")?,
            position: r.u64("position")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Blob envelope
// ---------------------------------------------------------------------------

/// A blob's writer, holding its envelope.
fn envelope(kind: CheckpointKind, fingerprint: u64, position: u64) -> ByteWriter {
    let mut w = ByteWriter::with_capacity(64);
    w.raw(&CHECKPOINT_MAGIC).u16(CHECKPOINT_VERSION);
    w.u8(kind.code()).u64(fingerprint).u64(position);
    w
}

/// Opens a blob, validating magic/version/kind/fingerprint, and returns
/// the payload reader plus the recorded position.
fn open_envelope(
    blob: &[u8],
    kind: CheckpointKind,
    fingerprint: u64,
) -> Result<(ByteReader<'_>, u64), EngineError> {
    let mut r = ByteReader::new(blob);
    let head = StreamCheckpoint::read(&mut r)?;
    if head.kind != kind {
        return Err(EngineError::BadCheckpoint(format!(
            "checkpoint kind {:?} cannot resume a {kind:?} session",
            head.kind
        )));
    }
    if head.fingerprint != fingerprint {
        return Err(EngineError::BadCheckpoint(format!(
            "fingerprint {:#x} does not match this query ({fingerprint:#x})",
            head.fingerprint
        )));
    }
    Ok((r, head.position))
}

fn write_f64s(w: &mut ByteWriter, v: &[f64]) {
    w.u64(v.len() as u64).f64s(v);
}

fn read_f64s(r: &mut ByteReader<'_>, expected_len: usize) -> Result<Vec<f64>, EngineError> {
    let n = r.count_u64(8, "vector cells")?;
    if n != expected_len {
        return Err(EngineError::BadCheckpoint(format!(
            "vector length {n} does not match expected {expected_len}"
        )));
    }
    Ok(r.f64s(n, "vector cells")?)
}

// ---------------------------------------------------------------------------
// EventSession — the checkpointable acceptance fold
// ---------------------------------------------------------------------------

/// The streamed `Pr(S[1..t] ∈ L(A))` evaluation as a suspendable state
/// machine: [`EventSession::start`] from the stream's initial
/// distribution, [`EventSession::advance`] one transition matrix at a
/// time, [`EventSession::checkpoint`] / [`EventSession::resume`] across
/// processes. Memory is independent of the stream length (bounded by
/// reachable subsets × `|Σ|`).
pub struct EventSession {
    fold: LiftedFold<Nfa>,
    consumed: u64,
}

impl EventSession {
    /// Starts a session from the stream's `μ₀→` distribution.
    pub fn start(nfa: Nfa, initial: &[f64]) -> Result<EventSession, EngineError> {
        if nfa.n_symbols() != initial.len() {
            return Err(EngineError::AlphabetMismatch {
                transducer: nfa.n_symbols(),
                sequence: initial.len(),
            });
        }
        Ok(EventSession {
            fold: LiftedFold::acceptance(nfa, initial),
            consumed: 0,
        })
    }

    /// The query automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.fold.rule
    }

    /// Transition matrices consumed so far.
    pub fn position(&self) -> u64 {
        self.consumed
    }

    /// Stream positions covered so far (`position() + 1`).
    pub fn positions(&self) -> usize {
        self.consumed as usize + 1
    }

    /// The current `Pr(S[1..t] ∈ L(A))`.
    pub fn probability(&self) -> f64 {
        self.fold.probability()
    }

    /// Folds in the next row-major `|Σ|²` transition matrix and returns
    /// the updated probability.
    pub fn advance(&mut self, matrix: &[f64]) -> Result<f64, EngineError> {
        self.step(matrix)?;
        Ok(self.probability())
    }

    /// [`EventSession::advance`] without the reduction.
    pub(crate) fn step(&mut self, matrix: &[f64]) -> Result<(), EngineError> {
        let k = self.nfa().n_symbols();
        if matrix.len() != k * k {
            return Err(EngineError::AlphabetMismatch {
                transducer: k * k,
                sequence: matrix.len(),
            });
        }
        self.fold.step(0, matrix);
        self.consumed += 1;
        Ok(())
    }

    /// Suspends the session to a versioned blob. Resuming with
    /// [`EventSession::resume`] and feeding the remaining matrices yields
    /// bit-identical probabilities to the uninterrupted run.
    pub fn checkpoint(&self) -> Vec<u8> {
        transmark_obs::counter!("checkpoint.saves").inc();
        transmark_obs::profile::instant("checkpoint.save");
        let fingerprint = self.nfa().fingerprint();
        let mut w = envelope(CheckpointKind::Event, fingerprint, self.consumed);
        self.fold.save(&mut w);
        w.finish()
    }

    /// Restores a session suspended by [`EventSession::checkpoint`].
    /// `nfa` must be the same automaton (fingerprint-checked).
    pub fn resume(nfa: Nfa, blob: &[u8]) -> Result<EventSession, EngineError> {
        let (mut r, position) = open_envelope(blob, CheckpointKind::Event, nfa.fingerprint())?;
        let fold = LiftedFold::<Nfa>::restore(nfa, &mut r)?;
        r.finish("the fold")?;
        transmark_obs::counter!("checkpoint.resumes").inc();
        transmark_obs::profile::instant("checkpoint.resume");
        Ok(EventSession {
            fold,
            consumed: position,
        })
    }
}

// ---------------------------------------------------------------------------
// ConfidenceSession — streamed confidence as seed/step/finish
// ---------------------------------------------------------------------------

/// The streamed `Pr(S →[A^ω]→ o)` evaluation as an explicit state
/// machine: seed from the initial distribution
/// ([`PreparedQuery::begin_confidence`]), [`ConfidenceSession::step`] one
/// transition matrix at a time, [`ConfidenceSession::finish`] for the
/// probability. It runs the one confidence pass of every [`PlanKind`]
/// route (`crate::confidence::ConfidencePass`, the pass
/// [`crate::plan::BoundQuery::confidence`] and
/// [`crate::plan::SourceBoundQuery::confidence`] drive), fed each pulled
/// matrix compacted into a reusable [`LayerCsr`] — so a session driven
/// over a sequence is bit-identical to the one-shot passes.
///
/// Sessions suspend to a blob ([`ConfidenceSession::checkpoint`]) and
/// resume ([`PreparedQuery::resume_confidence`]) bit-identically: the
/// uniform routes' per-step output gating depends only on the step index,
/// which the blob records.
pub struct ConfidenceSession {
    pass: ConfidencePass<Workspace<f64>>,
    csr: LayerCsr,
}

fn confidence_fingerprint(plan: &PreparedQuery, o: &[SymbolId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ plan.fingerprint();
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &s in o {
        h ^= s.index() as u64 + 1;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (o.len() as u64)
}

impl PreparedQuery {
    /// Seeds a [`ConfidenceSession`] from a stream's `μ₀→` distribution
    /// (dense, one entry per node). Validation mirrors
    /// [`SourceBoundQuery::confidence`](crate::plan::SourceBoundQuery::confidence).
    pub fn begin_confidence(
        self: &Arc<Self>,
        initial: &[f64],
        o: &[SymbolId],
    ) -> Result<ConfidenceSession, EngineError> {
        let t = self.transducer();
        if t.n_input_symbols() != initial.len() {
            return Err(EngineError::AlphabetMismatch {
                transducer: t.n_input_symbols(),
                sequence: initial.len(),
            });
        }
        confidence::check_output(t, o)?;
        let pass = ConfidencePass::seed(
            Arc::clone(self),
            self.kind(),
            Workspace::new(),
            initial,
            o,
            None,
        );
        Ok(ConfidenceSession {
            pass,
            csr: LayerCsr::new(),
        })
    }

    /// Restores a [`ConfidenceSession`] suspended by
    /// [`ConfidenceSession::checkpoint`]. The plan and `o` must match the
    /// suspended query (fingerprint-checked).
    pub fn resume_confidence(
        self: &Arc<Self>,
        o: &[SymbolId],
        blob: &[u8],
    ) -> Result<ConfidenceSession, EngineError> {
        let fp = confidence_fingerprint(self, o);
        let (mut r, position) = open_envelope(blob, CheckpointKind::Confidence, fp)?;
        let t = self.transducer();
        let n_nodes = r.u32("alphabet size")? as usize;
        if n_nodes != t.n_input_symbols() {
            return Err(EngineError::BadCheckpoint(format!(
                "checkpoint alphabet {n_nodes} does not match query alphabet {}",
                t.n_input_symbols()
            )));
        }
        let overrun = r.u8("overrun flag")? != 0;
        let tag = r.u8("route tag")?;
        let flat = |graph: Arc<StepGraph>, width: usize, r: &mut ByteReader<'_>| {
            let cells = read_f64s(r, n_nodes * graph.n_rows())?;
            for &p in &cells {
                confidence::check_mass(p)?;
            }
            Ok::<_, EngineError>(FlatPass::restore(graph, Workspace::new(), &cells, width))
        };
        let state = match (self.kind(), tag) {
            (PlanKind::DeterministicUniform { k }, 1) => ConfState::DetUniform {
                k,
                pass: flat(Arc::clone(self.state_graph()), 1, &mut r)?,
            },
            (PlanKind::Deterministic, 2) => ConfState::Det {
                pass: flat(self.output_graph(o), o.len() + 1, &mut r)?,
            },
            (PlanKind::UniformNfa { k }, 3) => ConfState::UniformNfa {
                k,
                fold: LiftedFold::uniform_nfa(self, o, k, n_nodes).restore(&mut r)?,
            },
            (PlanKind::General | PlanKind::Sproj | PlanKind::SprojIndexed, 4) => {
                ConfState::General {
                    fold: LiftedFold::general(self, o, n_nodes).restore(&mut r)?,
                }
            }
            (kind, tag) => {
                return Err(EngineError::BadCheckpoint(format!(
                    "checkpoint route tag {tag} does not match plan kind {kind:?}"
                )))
            }
        };
        r.finish("the confidence pass")?;
        transmark_obs::counter!("checkpoint.resumes").inc();
        transmark_obs::profile::instant("checkpoint.resume");
        let pass = ConfidencePass::resumed(Arc::clone(self), o, n_nodes, position, overrun, state);
        Ok(ConfidenceSession {
            pass,
            csr: LayerCsr::new(),
        })
    }
}

impl ConfidenceSession {
    /// Transition matrices consumed so far.
    pub fn position(&self) -> u64 {
        self.pass.consumed
    }

    /// Folds in the next row-major `|Σ|²` transition matrix.
    pub fn step(&mut self, matrix: &[f64]) -> Result<(), EngineError> {
        let n = self.pass.n_nodes;
        if matrix.len() != n * n {
            return Err(EngineError::AlphabetMismatch {
                transducer: n * n,
                sequence: matrix.len(),
            });
        }
        self.pass
            .step(&mut PulledLayer::compacting(&mut self.csr, n, matrix));
        Ok(())
    }

    /// The confidence after the last consumed position. Reductions run in
    /// the same ascending order as the one-shot pass. The layers this
    /// session stepped are reported to `kernel.advance.layers` once, on
    /// the first call after they were stepped.
    pub fn finish(&self) -> f64 {
        self.pass.confidence()
    }

    /// Suspends the session to a versioned blob; resume with
    /// [`PreparedQuery::resume_confidence`].
    pub fn checkpoint(&self) -> Vec<u8> {
        transmark_obs::counter!("checkpoint.saves").inc();
        transmark_obs::profile::instant("checkpoint.save");
        let p = &self.pass;
        let fp = confidence_fingerprint(&p.plan, &p.o);
        let mut w = envelope(CheckpointKind::Confidence, fp, p.consumed);
        w.u32(p.n_nodes as u32)
            .u8(p.overrun as u8)
            .u8(p.state.tag());
        match &p.state {
            ConfState::DetUniform { pass, .. } | ConfState::Det { pass } => {
                write_f64s(&mut w, pass.cells());
            }
            ConfState::UniformNfa { fold, .. } | ConfState::General { fold } => fold.save(&mut w),
        }
        w.finish()
    }
}

// ---------------------------------------------------------------------------
// StreamSession — any streamed session behind one interface
// ---------------------------------------------------------------------------

/// One streamed query session of any kind, so a layer-driving loop (the
/// server's stream sessions, `tmk stream`, the store's monitor, the
/// engine's own series passes) is written once. Opened by
/// [`StreamQuery::start`] or [`StreamQuery::resume`].
pub enum StreamSession<'q> {
    /// `Pr(S →[A^ω]→ o)`, known once the stream ends.
    Confidence(ConfidenceSession),
    /// The prefix series `Pr(S[1..t] ∈ L(A))`.
    Event(EventSession),
    /// The sliding-window series `Pr(S[t−w+1..t] ∈ L(A))`.
    Window(WindowSession<'q>),
}

impl StreamSession<'_> {
    /// Folds in the next row-major `|Σ|²` transition matrix.
    pub fn advance(&mut self, matrix: &[f64]) -> Result<(), EngineError> {
        match self {
            StreamSession::Confidence(s) => s.step(matrix),
            StreamSession::Event(s) => s.step(matrix),
            StreamSession::Window(s) => s.step(matrix),
        }
    }

    /// Whether the session reports a probability at every position (the
    /// event and window series) rather than only at the end.
    pub fn is_series(&self) -> bool {
        !matches!(self, StreamSession::Confidence(_))
    }

    /// The current probability: the series value at the current
    /// position, or the confidence as if the stream ended here
    /// ([`ConfidenceSession::finish`]).
    pub fn probability(&self) -> f64 {
        match self {
            StreamSession::Confidence(s) => s.finish(),
            StreamSession::Event(s) => s.probability(),
            StreamSession::Window(s) => s.probability(),
        }
    }

    /// Transition matrices consumed so far.
    pub fn position(&self) -> u64 {
        match self {
            StreamSession::Confidence(s) => s.position(),
            StreamSession::Event(s) => s.position(),
            StreamSession::Window(s) => s.position(),
        }
    }

    /// Suspends the session to its kind's versioned checkpoint blob.
    pub fn checkpoint(&self) -> Vec<u8> {
        match self {
            StreamSession::Confidence(s) => s.checkpoint(),
            StreamSession::Event(s) => s.checkpoint(),
            StreamSession::Window(s) => s.checkpoint(),
        }
    }

    /// The one series driver: feeds every layer of a fresh `src` to the
    /// session. With `series`, returns the probability at position 1 and
    /// after every layer; otherwise only the final probability. In-memory
    /// callers pass the zero-copy [`MarkovSequence::step_source`].
    pub fn drain<S: StepSource>(
        &mut self,
        src: &mut S,
        series: bool,
    ) -> Result<Vec<f64>, EngineError> {
        confidence::check_source_fresh(src)?;
        // Grown as layers arrive: a source's length is only a claim until
        // its layers have been read.
        let mut out = Vec::new();
        if series {
            out.push(self.probability());
        }
        while let Some(matrix) = src.next_step()? {
            self.advance(matrix)?;
            if series {
                out.push(self.probability());
            }
        }
        if !series {
            out.push(self.probability());
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// StreamQuery — which session a streamed query opens
// ---------------------------------------------------------------------------

/// A streamed query, compiled before any layer arrives: the one place
/// that maps a query kind to the [`StreamSession`] it opens, fresh
/// ([`StreamQuery::start`]) or from a checkpoint blob
/// ([`StreamQuery::resume`]). The server's stream sessions, `tmk stream`,
/// the store's monitor and its file fleets all open sessions here; one
/// query may open any number of sessions, concurrently.
pub enum StreamQuery {
    /// `Pr(S →[A^ω]→ output)` under a prepared plan.
    Confidence {
        /// The transducer's prepared plan.
        plan: Arc<PreparedQuery>,
        /// The output string `o`.
        output: Vec<SymbolId>,
    },
    /// The prefix series `Pr(S[1..t] ∈ L(A))`.
    Series(Nfa),
    /// The sliding-window series `Pr(S[t−w+1..t] ∈ L(A))`.
    Window(SlidingWindowQuery),
}

impl StreamQuery {
    /// Opens a session from the stream's `μ₀→` distribution.
    pub fn start(&self, initial: &[f64]) -> Result<StreamSession<'_>, EngineError> {
        Ok(match self {
            StreamQuery::Confidence { plan, output } => {
                StreamSession::Confidence(plan.begin_confidence(initial, output)?)
            }
            StreamQuery::Series(nfa) => {
                StreamSession::Event(EventSession::start(nfa.clone(), initial)?)
            }
            StreamQuery::Window(q) => StreamSession::Window(q.start(initial)?),
        })
    }

    /// Reopens a session suspended by [`StreamSession::checkpoint`]. A
    /// blob of another kind or another query is refused with
    /// [`EngineError::BadCheckpoint`].
    pub fn resume(&self, blob: &[u8]) -> Result<StreamSession<'_>, EngineError> {
        Ok(match self {
            StreamQuery::Confidence { plan, output } => {
                StreamSession::Confidence(plan.resume_confidence(output, blob)?)
            }
            StreamQuery::Series(nfa) => {
                StreamSession::Event(EventSession::resume(nfa.clone(), blob)?)
            }
            StreamQuery::Window(q) => StreamSession::Window(q.resume(blob)?),
        })
    }
}

// ---------------------------------------------------------------------------
// SlidingWindowQuery — O(1)-composition-per-tick windows, no rewind
// ---------------------------------------------------------------------------

/// `Pr(S[t−w+1 .. t] ∈ L(A))` at every tick: the acceptance probability
/// of the window seen as a fresh sequence whose initial distribution is
/// the chain's marginal at the window start.
///
/// Built on the acceptance fold's lifted cells: the query NFA is
/// determinized upfront, breadth first, into the fold's table; each
/// step's matrix lifts to an `m × m` [`StepOperator`], and
/// a [`SlidingProduct`] two-stack holds the product of the operators
/// inside the window — evicting the oldest step is amortized one operator
/// composition, **not** a rewind of the source (compare the old scheme:
/// rewind + replay all `w` steps). `dataplane.rewinds_avoided` counts
/// every such slide; a recorded session summarises them in one
/// `window.slide` profiler event per 64 slides (count, first and last
/// tick) rather than one per tick.
pub struct SlidingWindowQuery {
    nfa: Nfa,
    window: usize,
    table: LiftedDfa,
}

impl SlidingWindowQuery {
    /// Compiles a window query. `window ≥ 1` is the number of stream
    /// positions a window covers. Fails when the lifted state space
    /// exceeds the composition budget (very large NFAs); such queries can
    /// still run windows by replay, they just don't fit the operator
    /// machinery.
    pub fn new(nfa: Nfa, window: usize) -> Result<SlidingWindowQuery, EngineError> {
        if window == 0 {
            return Err(EngineError::UnsupportedStrategy {
                strategy: "window",
                query: "zero-length window",
            });
        }
        let table =
            LiftedDfa::eager(&nfa, WINDOW_STATE_CAP).ok_or(EngineError::UnsupportedStrategy {
                strategy: "window",
                query: "sliding window (lifted state space exceeds the composition budget)",
            })?;
        Ok(SlidingWindowQuery { nfa, window, table })
    }

    /// The query automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The window length in stream positions.
    pub fn window(&self) -> usize {
        self.window
    }

    fn fingerprint(&self) -> u64 {
        self.nfa
            .fingerprint()
            .rotate_left(7)
            .wrapping_mul(0x0000_0100_0000_01b3)
            ^ self.window as u64
    }

    /// Starts a session from the stream's `μ₀→` distribution.
    pub fn start(&self, initial: &[f64]) -> Result<WindowSession<'_>, EngineError> {
        if self.nfa.n_symbols() != initial.len() {
            return Err(EngineError::AlphabetMismatch {
                transducer: self.nfa.n_symbols(),
                sequence: initial.len(),
            });
        }
        Ok(WindowSession {
            query: self,
            marginals: MarginalRing::new(initial),
            swag: SlidingProduct::new(self.table.n_cells()),
            consumed: 0,
            slides: SlideRun::default(),
            scratch: Default::default(),
        })
    }

    /// Restores a session suspended by [`WindowSession::checkpoint`].
    pub fn resume(&self, blob: &[u8]) -> Result<WindowSession<'_>, EngineError> {
        let (mut r, position) = open_envelope(blob, CheckpointKind::Window, self.fingerprint())?;
        let k = self.nfa.n_symbols();
        let md = self.table.n_cells();
        // A marginal is a vector of k cells; an operator one of md² cells.
        let n_marg = r.count_u64(8 + 8 * k, "window marginals")?;
        if n_marg == 0 || n_marg > self.window {
            return Err(EngineError::BadCheckpoint(format!(
                "marginal ring length {n_marg} outside 1..={}",
                self.window
            )));
        }
        let mut marginals = MarginalRing::new(&read_f64s(&mut r, k)?);
        for _ in 1..n_marg {
            marginals.push(&read_f64s(&mut r, k)?, n_marg);
        }
        // Composition skips no zero product, which leaves every cell's
        // bits alone only for finite, non-negative weights; refuse others.
        let read_op = |r: &mut ByteReader<'_>| -> Result<StepOperator<Prob>, EngineError> {
            let cells = read_f64s(r, md * md)?;
            if let Some(x) = cells.iter().find(|x| !(**x >= 0.0 && x.is_finite())) {
                return Err(EngineError::BadCheckpoint(format!(
                    "window operator cell holds {x}, not a probability weight"
                )));
            }
            Ok(StepOperator::from_cells(md, cells))
        };
        // The two stacks hold one operator per marginal past the first:
        // each list is refused before it reserves anything unless its
        // count fits both that total and the bytes behind it.
        let mut untaken = n_marg - 1;
        let mut read_ops = |r: &mut ByteReader<'_>, last: bool| {
            let n = r.count_u64(8 + 8 * md * md, "window operators")?;
            if n > untaken || (last && n != untaken) {
                return Err(EngineError::BadCheckpoint(format!(
                    "window product does not hold {} operators for {n_marg} marginals",
                    n_marg - 1
                )));
            }
            untaken -= n;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(read_op(r)?);
            }
            Ok::<_, EngineError>(ops)
        };
        let front = read_ops(&mut r, false)?;
        let back = read_ops(&mut r, true)?;
        let back_agg = read_op(&mut r)?;
        r.finish("the window product")?;
        let swag = SlidingProduct::from_parts(md, front, back, back_agg);
        transmark_obs::counter!("checkpoint.resumes").inc();
        transmark_obs::profile::instant("checkpoint.resume");
        Ok(WindowSession {
            query: self,
            marginals,
            swag,
            consumed: position,
            slides: SlideRun::default(),
            scratch: Default::default(),
        })
    }

    /// The windowed probability series of a stored sequence: entry `t−1`
    /// is `Pr(S[max(1, t−w+1) .. t] ∈ L(A))` (prefix semantics until the
    /// window fills).
    pub fn series(&self, m: &MarkovSequence) -> Result<Vec<f64>, EngineError> {
        self.series_source(&mut m.step_source())
    }

    /// [`SlidingWindowQuery::series`] over a streamed source — one
    /// forward pass, never rewinding.
    pub fn series_source<S: StepSource>(&self, src: &mut S) -> Result<Vec<f64>, EngineError> {
        StreamSession::Window(self.start(src.initial())?).drain(src, true)
    }

    /// The from-scratch oracle a slid window is compared against (tests,
    /// benches): seed from the window-start marginal and replay the
    /// window's matrices through the acceptance fold's step and reduction.
    /// O(w·m·|Σ|) per call where the incremental path pays amortized one
    /// `m³` composition.
    pub fn recompute(&self, start_marginal: &[f64], matrices: &[&[f64]]) -> f64 {
        let mut seed = LiftedVec::default();
        self.table.seed_complete(start_marginal, &mut seed);
        let mut cur = seed.into_cells();
        let mut next = vec![0.0; cur.len()];
        for m in matrices {
            self.table.step_complete(m, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        self.table.probability(&LiftedVec::dense(cur))
    }

    /// Lifts one dense `|Σ|²` matrix to an `m × m` operator over the
    /// lifted cells, written into `cells` (`m²` zeros): cell
    /// `(d·k+node, d2·k+to) = pt` for every positive transition
    /// `node→to`, where `d2` is `d`'s successor under `to`; dead
    /// successors are dropped. Applying it to a lifted vector visits the
    /// products one fold step would, in a different summation order.
    fn lift_into(&self, matrix: &[f64], cells: &mut [f64]) {
        let k = self.nfa.n_symbols();
        debug_assert_eq!(matrix.len(), k * k, "step matrix must be |Σ|²");
        let md = self.table.n_cells();
        for d in 0..self.table.n_subsets() {
            let successors = self.table.successors(d);
            for node in 0..k {
                let row = &matrix[node * k..(node + 1) * k];
                let from = (d * k + node) * md;
                for (to, (&pt, &d2)) in row.iter().zip(successors).enumerate() {
                    if pt > 0.0 && d2 != DEAD {
                        cells[from + d2 as usize * k + to] = pt;
                    }
                }
            }
        }
    }
}

/// The node marginals of the positions inside a window, oldest first, in
/// one flat buffer of `|Σ|`-wide slots. It grows by appending, so it never
/// holds more than the positions seen; once it holds the window's `w`
/// slots, each new marginal overwrites the oldest instead.
struct MarginalRing {
    k: usize,
    cells: Vec<f64>,
    /// Slots held (at least one).
    len: usize,
    /// The oldest slot; stays 0 while the ring is still growing.
    head: usize,
}

impl MarginalRing {
    fn new(first: &[f64]) -> Self {
        MarginalRing {
            k: first.len(),
            cells: first.to_vec(),
            len: 1,
            head: 0,
        }
    }

    fn slot(&self, i: usize) -> &[f64] {
        let at = (self.head + i) % self.len * self.k;
        &self.cells[at..at + self.k]
    }

    fn oldest(&self) -> &[f64] {
        self.slot(0)
    }

    fn newest(&self) -> &[f64] {
        self.slot(self.len - 1)
    }

    /// Appends `next` as the newest slot while fewer than `cap` are held,
    /// else overwrites the oldest. Returns whether a slot was dropped.
    fn push(&mut self, next: &[f64], cap: usize) -> bool {
        if self.len < cap {
            debug_assert_eq!(self.head, 0, "a growing ring has not wrapped");
            self.cells.extend_from_slice(next);
            self.len += 1;
            return false;
        }
        let at = self.head * self.k;
        self.cells[at..at + self.k].copy_from_slice(next);
        self.head = (self.head + 1) % self.len;
        true
    }
}

/// Slides since the last summary: the first one's tick and how many.
#[derive(Default)]
struct SlideRun {
    first: u64,
    count: u64,
}

/// Slides per `window.slide` summary: a recorded window emits one
/// profiler event per this many ticks (and one for the rest when the
/// session drops), not one per tick.
const SLIDES_PER_SUMMARY: u64 = 64;

impl SlideRun {
    fn add(&mut self, tick: u64) {
        if self.count == 0 {
            self.first = tick;
        }
        self.count += 1;
        if self.count == SLIDES_PER_SUMMARY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.count > 0 {
            transmark_obs::profile::summary(
                "window.slide",
                self.count,
                self.first + self.count - 1,
            );
            self.count = 0;
        }
    }
}

/// Per-session buffers the probability reduction reuses on every call.
#[derive(Default)]
struct WindowScratch {
    seed: LiftedVec,
    tmp: Vec<f64>,
    out: Vec<f64>,
    marginal: Vec<f64>,
}

/// A live sliding-window evaluation; see [`SlidingWindowQuery`].
pub struct WindowSession<'q> {
    query: &'q SlidingWindowQuery,
    /// Node marginals for every position currently inside the window,
    /// oldest first — the oldest is the window-start distribution.
    marginals: MarginalRing,
    /// Product of the lifted operators for the steps inside the window
    /// (`marginals.len − 1` of them).
    swag: SlidingProduct<Prob>,
    consumed: u64,
    slides: SlideRun,
    /// Taken and put back by [`WindowSession::probability`] (a `&self`
    /// call), so a steady-state tick allocates nothing.
    scratch: Cell<WindowScratch>,
}

impl Drop for WindowSession<'_> {
    fn drop(&mut self) {
        self.slides.flush();
    }
}

impl WindowSession<'_> {
    /// Transition matrices consumed so far.
    pub fn position(&self) -> u64 {
        self.consumed
    }

    /// Stream positions currently covered by the window (`≤ w`).
    pub fn span(&self) -> usize {
        self.marginals.len
    }

    /// The chain's marginal distribution at the window start.
    pub fn start_marginal(&self) -> &[f64] {
        self.marginals.oldest()
    }

    /// The current windowed probability.
    pub fn probability(&self) -> f64 {
        let table = &self.query.table;
        let mut s = self.scratch.take();
        table.seed_complete(self.start_marginal(), &mut s.seed);
        self.swag.apply_into(s.seed.cells(), &mut s.tmp, &mut s.out);
        let v = LiftedVec::dense(std::mem::take(&mut s.out));
        let p = table.probability(&v);
        s.out = v.into_cells();
        self.scratch.set(s);
        p
    }

    /// Slides the window by one tick: evict the oldest step (amortized
    /// one operator composition — never a source rewind), fold in the new
    /// matrix, and return the updated probability.
    pub fn advance(&mut self, matrix: &[f64]) -> Result<f64, EngineError> {
        self.step(matrix)?;
        Ok(self.probability())
    }

    /// [`WindowSession::advance`] without the reduction.
    pub(crate) fn step(&mut self, matrix: &[f64]) -> Result<(), EngineError> {
        let k = self.query.nfa.n_symbols();
        if matrix.len() != k * k {
            return Err(EngineError::AlphabetMismatch {
                transducer: k * k,
                sequence: matrix.len(),
            });
        }
        let w = self.query.window;
        if w > 1 {
            if self.swag.len() == w - 1 {
                self.swag.evict();
            }
            let query = self.query;
            self.swag.push_with(|cells| query.lift_into(matrix, cells));
        }
        let cur = self.marginals.newest();
        let next = &mut self.scratch.get_mut().marginal;
        next.clear();
        next.resize(k, 0.0);
        for (node, &p) in cur.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let row = &matrix[node * k..node * k + k];
            for (slot, &pt) in next.iter_mut().zip(row) {
                if pt > 0.0 {
                    *slot += p * pt;
                }
            }
        }
        self.consumed += 1;
        if self.marginals.push(next, w) {
            transmark_obs::counter!("dataplane.rewinds_avoided").inc();
            self.slides.add(self.consumed);
        }
        Ok(())
    }

    /// Suspends the session to a versioned blob; resume with
    /// [`SlidingWindowQuery::resume`]. The blob records the exact
    /// two-stack state, so a resumed window's probabilities are
    /// bit-identical to the uninterrupted session's.
    pub fn checkpoint(&self) -> Vec<u8> {
        transmark_obs::counter!("checkpoint.saves").inc();
        transmark_obs::profile::instant("checkpoint.save");
        let mut w = envelope(
            CheckpointKind::Window,
            self.query.fingerprint(),
            self.consumed,
        );
        w.u64(self.marginals.len as u64);
        for i in 0..self.marginals.len {
            write_f64s(&mut w, self.marginals.slot(i));
        }
        let (front, back, back_agg) = self.swag.parts();
        let write_ops = |w: &mut ByteWriter, ops: &[StepOperator<Prob>]| {
            w.u64(ops.len() as u64);
            for op in ops {
                write_f64s(w, op.cells());
            }
        };
        write_ops(&mut w, front);
        write_ops(&mut w, back);
        write_f64s(&mut w, back_agg.cells());
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    /// NFA over 3 symbols: has seen symbol 2.
    fn has_two() -> Nfa {
        let mut nfa = Nfa::new(3);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        for s in 0..3u32 {
            nfa.add_transition(q0, SymbolId(s), if s == 2 { acc } else { q0 });
            nfa.add_transition(acc, SymbolId(s), acc);
        }
        nfa
    }

    fn chain(len: usize, seed: u64) -> MarkovSequence {
        let mut rng = StdRng::seed_from_u64(seed);
        random_markov_sequence(
            &RandomChainSpec {
                len,
                n_symbols: 3,
                zero_prob: 0.3,
            },
            &mut rng,
        )
    }

    #[test]
    fn event_checkpoint_roundtrip_is_bit_identical() {
        let m = chain(9, 5);
        for split in 0..m.len() - 1 {
            let mut full = EventSession::start(has_two(), m.initial_dist()).unwrap();
            let mut ck = EventSession::start(has_two(), m.initial_dist()).unwrap();
            for i in 0..split {
                full.advance(m.transition_matrix(i)).unwrap();
                ck.advance(m.transition_matrix(i)).unwrap();
            }
            let blob = ck.checkpoint();
            assert_eq!(
                StreamCheckpoint::inspect(&blob).unwrap().position,
                split as u64
            );
            let mut resumed = EventSession::resume(has_two(), &blob).unwrap();
            for i in split..m.len() - 1 {
                let a = full.advance(m.transition_matrix(i)).unwrap();
                let b = resumed.advance(m.transition_matrix(i)).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "drift after resume at {split}");
            }
        }
    }

    #[test]
    fn event_resume_rejects_wrong_query_and_garbage() {
        let m = chain(6, 6);
        let mut s = EventSession::start(has_two(), m.initial_dist()).unwrap();
        s.advance(m.transition_matrix(0)).unwrap();
        let blob = s.checkpoint();
        // Different NFA (fingerprint mismatch).
        let mut other = Nfa::new(3);
        let q = other.add_state(true);
        for sy in 0..3u32 {
            other.add_transition(q, SymbolId(sy), q);
        }
        assert!(matches!(
            EventSession::resume(other, &blob),
            Err(EngineError::BadCheckpoint(_))
        ));
        // A byte past the fold is refused.
        let mut long = blob.clone();
        long.push(0);
        assert!(matches!(
            EventSession::resume(has_two(), &long),
            Err(EngineError::BadCheckpoint(_))
        ));
        // Truncations never panic.
        for cut in 0..blob.len() {
            assert!(matches!(
                EventSession::resume(has_two(), &blob[..cut]),
                Err(EngineError::BadCheckpoint(_))
            ));
        }
    }

    /// A cell's sign bit marks it present, so a blob entry holding a
    /// negative or NaN mass must be refused, never restored.
    #[test]
    fn event_resume_rejects_a_mass_that_is_not_a_probability() {
        let m = chain(6, 6);
        let mut s = EventSession::start(has_two(), m.initial_dist()).unwrap();
        for i in 0..3 {
            s.advance(m.transition_matrix(i)).unwrap();
        }
        let blob = s.checkpoint();
        assert!(EventSession::resume(has_two(), &blob).is_ok());
        // The payload ends with the last layer entry's mass.
        let at = blob.len() - 8;
        for bad in [-1.0, -0.0, f64::NAN] {
            let mut edited = blob.clone();
            edited[at..].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert!(
                matches!(
                    EventSession::resume(has_two(), &edited),
                    Err(EngineError::BadCheckpoint(_))
                ),
                "mass {bad} was restored"
            );
        }
    }

    /// Every confidence route restores its cells only if each holds a
    /// probability mass: a blob whose last mass is edited to a negative
    /// number, `-0.0` (a subset cell's absence mark), NaN or `+∞` is
    /// refused, while an edit to another probability resumes.
    #[test]
    fn confidence_resume_rejects_a_mass_that_is_not_a_probability() {
        use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
        let m = chain(6, 6);
        let mut rng = StdRng::seed_from_u64(41);
        let mut tags = Vec::new();
        for class in [
            TransducerClass::Mealy,
            TransducerClass::Deterministic,
            TransducerClass::Uniform(1),
            TransducerClass::General,
        ] {
            // The first machine of the class whose plan takes the class's
            // route and that has an answer.
            let (plan, o) = loop {
                let spec = RandomTransducerSpec {
                    n_states: 3,
                    n_input_symbols: 3,
                    n_output_symbols: 2,
                    class,
                    branching: 1.8,
                };
                let plan = crate::plan::prepare(&random_transducer(&spec, &mut rng));
                let tag = match plan.kind() {
                    PlanKind::DeterministicUniform { .. } => 1,
                    PlanKind::Deterministic => 2,
                    PlanKind::UniformNfa { .. } => 3,
                    _ => 4,
                };
                if tag == tags.len() + 1 {
                    if let Some(top) = plan.bind(&m).unwrap().top().unwrap() {
                        tags.push(tag);
                        break (plan, top.output);
                    }
                }
            };
            let mut s = plan.begin_confidence(m.initial_dist(), &o).unwrap();
            for i in 0..3 {
                s.step(m.transition_matrix(i)).unwrap();
            }
            let blob = s.checkpoint();
            // The payload ends with the last cell's mass.
            let at = blob.len() - 8;
            for x in [-1.0, -0.0, f64::NAN, f64::INFINITY, 0.5] {
                let mut edited = blob.clone();
                edited[at..].copy_from_slice(&x.to_bits().to_le_bytes());
                let r = plan.resume_confidence(&o, &edited);
                if x == 0.5 {
                    assert!(r.is_ok(), "{:?}", plan.kind());
                } else {
                    assert!(
                        matches!(r, Err(EngineError::BadCheckpoint(_))),
                        "{:?}: mass {x} was restored",
                        plan.kind()
                    );
                }
            }
        }
        assert_eq!(tags, [1, 2, 3, 4]);
    }

    #[test]
    fn window_series_matches_recompute_oracle() {
        let m = chain(20, 7);
        for w in [1usize, 2, 3, 5, 19, 40] {
            let q = SlidingWindowQuery::new(has_two(), w).unwrap();
            let series = q.series(&m).unwrap();
            assert_eq!(series.len(), m.len());
            for (t, &got) in series.iter().enumerate() {
                // Oracle: marginal at window start + replay of the window.
                let start = t + 1 - w.min(t + 1);
                let mut marg = m.initial_dist().to_vec();
                let k = m.n_symbols();
                for i in 0..start {
                    let mat = m.transition_matrix(i);
                    let mut nx = vec![0.0; k];
                    for (node, &p) in marg.iter().enumerate() {
                        if p == 0.0 {
                            continue;
                        }
                        for to in 0..k {
                            let pt = mat[node * k + to];
                            if pt > 0.0 {
                                nx[to] += p * pt;
                            }
                        }
                    }
                    marg = nx;
                }
                let mats: Vec<&[f64]> = (start..t).map(|i| m.transition_matrix(i)).collect();
                let want = q.recompute(&marg, &mats);
                let tol = 1e-12 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "w={w} t={t}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn window_checkpoint_roundtrip_is_bit_identical() {
        let m = chain(16, 8);
        let q = SlidingWindowQuery::new(has_two(), 4).unwrap();
        for split in 0..m.len() - 1 {
            let mut full = q.start(m.initial_dist()).unwrap();
            let mut ck = q.start(m.initial_dist()).unwrap();
            for i in 0..split {
                full.advance(m.transition_matrix(i)).unwrap();
                ck.advance(m.transition_matrix(i)).unwrap();
            }
            let blob = ck.checkpoint();
            let mut resumed = q.resume(&blob).unwrap();
            assert_eq!(resumed.position(), split as u64);
            for i in split..m.len() - 1 {
                let a = full.advance(m.transition_matrix(i)).unwrap();
                let b = resumed.advance(m.transition_matrix(i)).unwrap();
                assert_eq!(a.to_bits(), b.to_bits(), "window drift at split {split}");
            }
        }
    }

    /// Composition adds every product, zero or not, which keeps each
    /// cell's bits only for finite, non-negative weights: a blob whose
    /// operator cell holds anything else is refused.
    #[test]
    fn window_resume_rejects_a_weight_that_is_not_a_probability() {
        let m = chain(8, 8);
        let q = SlidingWindowQuery::new(has_two(), 4).unwrap();
        let mut s = q.start(m.initial_dist()).unwrap();
        for i in 0..5 {
            s.advance(m.transition_matrix(i)).unwrap();
        }
        let blob = s.checkpoint();
        // The blob ends with the back product's last cell.
        let last = blob.len() - 8;
        for x in [f64::NAN, -1.0, f64::INFINITY, 0.5] {
            let mut bad = blob.clone();
            bad[last..].copy_from_slice(&x.to_le_bytes());
            let r = q.resume(&bad);
            if x == 0.5 {
                assert!(r.is_ok());
            } else {
                assert!(matches!(r, Err(EngineError::BadCheckpoint(_))), "{x}");
            }
        }
    }

    #[test]
    fn window_stops_at_the_state_budget() {
        // "The 13th symbol from the end is s0": 2^13 reachable subsets,
        // past the budget long before determinization finishes.
        let mut n = Nfa::new(2);
        let states: Vec<_> = (0..14).map(|i| n.add_state(i == 13)).collect();
        for s in 0..2 {
            n.add_transition(states[0], SymbolId(s), states[0]);
        }
        n.add_transition(states[0], SymbolId(0), states[1]);
        for w in states[1..].windows(2) {
            for s in 0..2 {
                n.add_transition(w[0], SymbolId(s), w[1]);
            }
        }
        assert!(matches!(
            SlidingWindowQuery::new(n, 8),
            Err(EngineError::UnsupportedStrategy {
                strategy: "window",
                ..
            })
        ));
    }

    /// A window width sizes nothing up front: a width of 2^32 − 1 over a
    /// 9-position chain holds nine marginals, gives the width-9 series bit
    /// for bit, and checkpoints and resumes like any other width.
    #[test]
    fn window_reserves_nothing_the_stream_cannot_back() {
        let m = chain(9, 8);
        let wide = SlidingWindowQuery::new(has_two(), u32::MAX as usize).unwrap();
        let exact = SlidingWindowQuery::new(has_two(), m.len()).unwrap();
        let want = exact.series(&m).unwrap();
        let mut s = wide.start(m.initial_dist()).unwrap();
        let mut got = vec![s.probability()];
        for i in 0..4 {
            got.push(s.advance(m.transition_matrix(i)).unwrap());
        }
        let mut s = wide.resume(&s.checkpoint()).unwrap();
        for i in 4..m.len() - 1 {
            got.push(s.advance(m.transition_matrix(i)).unwrap());
        }
        assert_eq!(s.span(), m.len());
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    /// A source's claimed length sizes no series: a `.tms` holding one
    /// step but claiming 10^14 positions gives both series drivers a
    /// typed error when the text runs out.
    #[test]
    fn series_source_reserves_nothing_the_stream_cannot_back() {
        let text = transmark_markov::textio::to_text(&chain(2, 10))
            .replace("length 2\n", "length 100000000000000\n");
        let lying = || transmark_markov::textio::TmsTextSource::new(text.as_bytes()).unwrap();
        let event = crate::plan::PreparedEventQuery::new(has_two());
        assert!(event.series_source(&mut lying()).is_err());
        let window = SlidingWindowQuery::new(has_two(), 2).unwrap();
        assert!(window.series_source(&mut lying()).is_err());
    }

    /// A checkpoint subset as `write_set` lays it out: capacity, bit
    /// count, bits.
    fn subset_bytes(cap: u32, bits: &[u32]) -> Vec<u8> {
        let mut out = [cap, bits.len() as u32].map(u32::to_le_bytes).concat();
        for b in bits {
            out.extend(b.to_le_bytes());
        }
        out
    }

    /// An event blob for `has_two` (2 states, 3 symbols) listing `{q0}`,
    /// then `subsets`, then one cell `(subset 1, node 0)`.
    fn event_blob(subsets: &[Vec<u8>]) -> Vec<u8> {
        let m = chain(6, 6);
        let fresh = EventSession::start(has_two(), m.initial_dist()).unwrap();
        // The envelope (23 bytes) and |Σ|.
        let mut blob = fresh.checkpoint()[..27].to_vec();
        blob.extend((1 + subsets.len() as u64).to_le_bytes());
        blob.extend(subset_bytes(2, &[0]));
        blob.extend(subsets.concat());
        blob.extend(1u64.to_le_bytes());
        blob.extend(1u64.to_le_bytes());
        blob.extend(0u32.to_le_bytes());
        blob.extend(0.5f64.to_bits().to_le_bytes());
        blob
    }

    /// A subset's claimed capacity sizes nothing: an event blob whose four
    /// distinct subsets claim 2^32 − 1 bits each (512 MiB of words apiece,
    /// from 12 bytes of blob) is refused before any of them is allocated, and so
    /// is a general-route confidence cell claiming it.
    #[test]
    fn resume_sizes_no_subset_the_query_cannot_back() {
        let huge: Vec<_> = (1..5).map(|b| subset_bytes(u32::MAX, &[b])).collect();
        assert!(matches!(
            EventSession::resume(has_two(), &event_blob(&huge)),
            Err(EngineError::BadCheckpoint(_))
        ));

        use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
        let m = chain(6, 6);
        let mut rng = StdRng::seed_from_u64(41);
        let plan = loop {
            let spec = RandomTransducerSpec {
                n_states: 3,
                n_input_symbols: 3,
                n_output_symbols: 2,
                class: TransducerClass::General,
                branching: 1.8,
            };
            let plan = crate::plan::prepare(&random_transducer(&spec, &mut rng));
            if plan.kind() == PlanKind::General {
                break plan;
            }
        };
        let o = [SymbolId(0)];
        let fresh = plan.begin_confidence(m.initial_dist(), &o).unwrap();
        // The envelope, |Σ|, the overrun flag and the route tag; then one
        // cell at node 0.
        let mut blob = fresh.checkpoint()[..29].to_vec();
        blob.extend(1u64.to_le_bytes());
        blob.extend(0u32.to_le_bytes());
        blob.extend(subset_bytes(u32::MAX, &[]));
        blob.extend(0.5f64.to_bits().to_le_bytes());
        assert!(matches!(
            plan.resume_confidence(&o, &blob),
            Err(EngineError::BadCheckpoint(_))
        ));
    }

    /// A subset whose bits the query cannot back is refused at resume: a
    /// capacity-1000 subset holding bit 999, on a 2-state NFA, must not
    /// reach the next step.
    #[test]
    fn resume_refuses_subset_bits_the_query_cannot_back() {
        let blob = event_blob(&[subset_bytes(1000, &[999])]);
        assert!(matches!(
            EventSession::resume(has_two(), &blob),
            Err(EngineError::BadCheckpoint(_))
        ));
        // The same blob with subset 1 = {q1} is a valid checkpoint.
        let blob = event_blob(&[subset_bytes(2, &[1])]);
        let mut s = EventSession::resume(has_two(), &blob).unwrap();
        s.advance(chain(6, 6).transition_matrix(0)).unwrap();
    }

    /// A window blob's operator counts size nothing: a real `w = 4` blob
    /// whose front list claims 2^26 operators, with 64 MiB behind the
    /// claim (what a rule of one byte per operator asks), is refused with
    /// a typed error before either list reserves its 2 GiB.
    #[test]
    fn window_resume_reserves_no_operators_the_blob_cannot_back() {
        let m = chain(9, 8);
        let q = SlidingWindowQuery::new(has_two(), 4).unwrap();
        let mut s = q.start(m.initial_dist()).unwrap();
        for i in 0..6 {
            s.advance(m.transition_matrix(i)).unwrap();
        }
        let blob = s.checkpoint();
        assert!(q.resume(&blob).is_ok());
        // Past the envelope: the marginal ring, then the front count.
        let mut r = transmark_markov::codec::ByteReader::new(&blob[23..]);
        let n_marg = r.u64("marginals").unwrap() as usize;
        let at = 23 + 8 + n_marg * (8 + 8 * 3);
        let claim: u64 = 1 << 26;
        let mut bad = blob[..at].to_vec();
        bad.extend(claim.to_le_bytes());
        bad.extend(&blob[at + 8..]);
        bad.resize(bad.len() + claim as usize, 0);
        assert!(matches!(q.resume(&bad), Err(EngineError::BadCheckpoint(_))));
        // Operator counts that fit the bytes but not the marginal ring
        // are refused too.
        let mut bad = blob.clone();
        bad[at..at + 8].copy_from_slice(&(n_marg as u64).to_le_bytes());
        assert!(matches!(q.resume(&bad), Err(EngineError::BadCheckpoint(_))));
    }

    #[test]
    fn window_one_is_per_position_marginal_acceptance() {
        let m = chain(10, 9);
        let q = SlidingWindowQuery::new(has_two(), 1).unwrap();
        let series = q.series(&m).unwrap();
        // w = 1: probability that the single current position's symbol is
        // accepted as a 1-length string.
        for (t, &got) in series.iter().enumerate() {
            let mut marg = m.initial_dist().to_vec();
            let k = m.n_symbols();
            for i in 0..t {
                let mat = m.transition_matrix(i);
                let mut nx = vec![0.0; k];
                for (node, &p) in marg.iter().enumerate() {
                    for to in 0..k {
                        nx[to] += p * mat[node * k + to];
                    }
                }
                marg = nx;
            }
            let want = q.recompute(&marg, &[]);
            assert!((got - want).abs() <= 1e-12, "t={t}: {got} vs {want}");
        }
    }

    /// Brute-force prefix series: `Pr(S[1..i] ∈ L(A))` as the mass of the
    /// support's worlds whose length-`i` prefix is accepted.
    fn brute_series(nfa: &Nfa, m: &MarkovSequence) -> Vec<f64> {
        let worlds = transmark_markov::support::support(m);
        (0..m.len())
            .map(|i| {
                worlds
                    .iter()
                    .filter(|(s, _)| nfa.accepts(&s[..=i]))
                    .map(|(_, p)| p)
                    .sum()
            })
            .collect()
    }

    /// The series of a session fed one stored matrix at a time.
    fn stepwise_series(nfa: Nfa, m: &MarkovSequence) -> Vec<f64> {
        let mut sess = EventSession::start(nfa, m.initial_dist()).unwrap();
        let mut out = vec![sess.probability()];
        for i in 0..m.len() - 1 {
            out.push(sess.advance(m.transition_matrix(i)).unwrap());
        }
        out
    }

    fn assert_matches_brute(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= 1e-12 * w.max(1.0), "{g} vs brute {w}");
        }
    }

    #[test]
    fn drained_series_matches_brute_force_and_the_stepwise_session() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 6,
                    n_symbols: 3,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let mut sess =
                StreamSession::Event(EventSession::start(has_two(), m.initial_dist()).unwrap());
            let drained = sess.drain(&mut m.step_source(), true).unwrap();
            assert_matches_brute(&drained, &brute_series(&has_two(), &m));
            let stepwise = stepwise_series(has_two(), &m);
            for (d, s) in drained.iter().zip(&stepwise) {
                // The series driver and a hand-fed session share one fold,
                // so they agree bit for bit, not just approximately.
                assert_eq!(d.to_bits(), s.to_bits(), "{d} vs {s}");
            }
        }
    }

    #[test]
    fn series_source_matches_brute_force_and_the_stepwise_session() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 7,
                    n_symbols: 3,
                    zero_prob: 0.3,
                },
                &mut rng,
            );
            let streamed = crate::plan::PreparedEventQuery::new(has_two())
                .series_source(&mut m.step_source())
                .unwrap();
            assert_matches_brute(&streamed, &brute_series(&has_two(), &m));
            for (a, b) in streamed.iter().zip(&stepwise_series(has_two(), &m)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn event_session_runs_without_storing_the_stream() {
        // Feed matrices one at a time; state size stays bounded.
        let k = 3;
        let uniform = vec![1.0 / k as f64; k * k];
        let mut sess = EventSession::start(has_two(), &[1.0, 0.0, 0.0]).unwrap();
        assert_eq!(sess.probability(), 0.0); // first node is 0, not 2
        let mut last = 0.0;
        for _ in 0..1000 {
            let p = sess.advance(&uniform).unwrap();
            assert!(p >= last - 1e-12, "monotone for a monotone property");
            last = p;
        }
        assert_eq!(sess.positions(), 1001);
        // After 1000 uniform steps the pattern has almost surely appeared.
        assert!(last > 0.999999);
    }

    #[test]
    fn event_session_start_and_advance_validate_shapes() {
        assert!(EventSession::start(has_two(), &[1.0]).is_err());
        let mut s = EventSession::start(has_two(), &[1.0, 0.0, 0.0]).unwrap();
        assert!(s.advance(&[1.0, 0.0]).is_err());
    }

    /// Uniform chains make every reachable subset appear; two drains of
    /// the same sequence agree bitwise.
    #[test]
    fn event_series_is_bit_reproducible() {
        let mut rng = StdRng::seed_from_u64(77);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 9,
                n_symbols: 3,
                zero_prob: 0.4,
            },
            &mut rng,
        );
        let q = crate::plan::PreparedEventQuery::new(has_two());
        let a = q.series(&m).unwrap();
        let b = q.series(&m).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
