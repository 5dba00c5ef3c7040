//! Incremental streaming state: checkpointable query sessions and
//! O(window²)-per-tick sliding windows.
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
//!   on the scan state space (see [`crate::scan`]); a two-stack
//!   [`SlidingProduct`] keeps the product of the operators inside the
//!   window with amortized **one composition per tick**, so sliding the
//!   window never rewinds the source — the `dataplane.rewinds_avoided`
//!   counter tallies every slide that would have been a rewind+recompute
//!   under the old scheme. Window-start mass is a ring of node marginals
//!   (O(w·|Σ|) memory, O(|Σ|²) advance per tick).
//! * [`StreamSession`] — any of the three behind one `advance` /
//!   `probability` / `position` / `checkpoint` interface, plus the one
//!   series driver every acceptance, prefix-series, monitor and window
//!   pass runs through.
//!
//! # Numerics contract
//!
//! Checkpoint/resume of [`EventSession`] and [`ConfidenceSession`] is
//! bit-identical to the uninterrupted run: the serialized state *is* the
//! fold state, and subset re-interning reproduces id order. The sliding
//! window inherits the scan path's documented tolerance instead: operator
//! composition reassociates the per-step sums, so a window probability
//! agrees with a from-scratch recompute of the same window to a relative
//! `1e-12`, not bitwise (same contract as `Strategy::Scan` vs. the fold).
//!
//! # Checkpoint wire format
//!
//! `"TMKC" | version u16 | kind u8 | fingerprint u64 | position u64 |
//! payload…`, all little-endian. `fingerprint` ties the blob to the query
//! structure it was suspended from; `position` is the number of
//! transition matrices consumed (= the stream layer offset to resume
//! from). Truncated or corrupted blobs decode to
//! [`EngineError::BadCheckpoint`], never a panic.

use std::collections::VecDeque;
use std::sync::Arc;

use transmark_automata::BitSet;
use transmark_automata::{Nfa, SymbolId};
use transmark_kernel::{
    LayerCsr, Prob, SlidingProduct, StepGraph, StepOperator, SubsetLayer, Workspace,
};
use transmark_markov::{MarkovSequence, StepSource};

use crate::confidence::{self, AcceptanceFold, ConfState, ConfidencePass};
use crate::error::EngineError;
use crate::forward::{FlatPass, ForwardPass, PulledLayer};
use crate::plan::{PlanKind, PreparedQuery};
use crate::scan::ScanDfa;

/// Magic prefix of every checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"TMKC";
/// Current checkpoint wire version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Lifted-state budget for the sliding window's upfront determinization
/// (same cap family as the scan strategy's `MATRIX_STATE_CAP`; the window
/// keeps `O(w)` suffix-product operators of `m²` cells each).
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
        let mut r = ByteReader::new(blob);
        r.expect_magic()?;
        let kind = CheckpointKind::from_code(r.get_u8()?)?;
        let fingerprint = r.get_u64()?;
        let position = r.get_u64()?;
        Ok(StreamCheckpoint {
            kind,
            fingerprint,
            position,
        })
    }
}

// ---------------------------------------------------------------------------
// Little-endian blob codec
// ---------------------------------------------------------------------------

/// Appends little-endian primitives to a growing blob.
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn envelope(kind: CheckpointKind, fingerprint: u64, position: u64) -> ByteWriter {
        let mut w = ByteWriter {
            buf: Vec::with_capacity(64),
        };
        w.buf.extend_from_slice(&CHECKPOINT_MAGIC);
        w.buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        w.put_u8(kind.code());
        w.put_u64(fingerprint);
        w.put_u64(position);
        w
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads little-endian primitives back out of a blob; every read past the
/// end is a loud [`EngineError::BadCheckpoint`], never a panic.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.buf.len() - self.at < n {
            return Err(EngineError::BadCheckpoint(format!(
                "truncated blob: needed {n} bytes at offset {}, have {}",
                self.at,
                self.buf.len() - self.at
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_u32(&mut self) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn get_u64(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn get_f64(&mut self) -> Result<f64, EngineError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an element count and rejects it unless `count ·
    /// min_elem_bytes` still fits in the unread remainder — a corrupted
    /// length then errors instead of attempting a giant allocation.
    pub(crate) fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, EngineError> {
        let n = self.get_u64()? as usize;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|total| total > self.buf.len() - self.at)
        {
            return Err(EngineError::BadCheckpoint(format!(
                "implausible element count {n} at offset {}",
                self.at
            )));
        }
        Ok(n)
    }

    fn expect_magic(&mut self) -> Result<(), EngineError> {
        if self.take(4)? != CHECKPOINT_MAGIC {
            return Err(EngineError::BadCheckpoint("bad magic".into()));
        }
        let version = u16::from_le_bytes(self.take(2)?.try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(EngineError::BadCheckpoint(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        Ok(())
    }
}

/// Opens a blob, validating magic/version/kind/fingerprint, and returns
/// the payload reader plus the recorded position.
fn open_envelope<'a>(
    blob: &'a [u8],
    kind: CheckpointKind,
    fingerprint: u64,
) -> Result<(ByteReader<'a>, u64), EngineError> {
    let mut r = ByteReader::new(blob);
    r.expect_magic()?;
    let got_kind = CheckpointKind::from_code(r.get_u8()?)?;
    if got_kind != kind {
        return Err(EngineError::BadCheckpoint(format!(
            "checkpoint kind {got_kind:?} cannot resume a {kind:?} session"
        )));
    }
    let got_fp = r.get_u64()?;
    if got_fp != fingerprint {
        return Err(EngineError::BadCheckpoint(format!(
            "fingerprint {got_fp:#x} does not match this query ({fingerprint:#x})"
        )));
    }
    let position = r.get_u64()?;
    Ok((r, position))
}

fn write_f64s(w: &mut ByteWriter, v: &[f64]) {
    w.put_u64(v.len() as u64);
    for &x in v {
        w.put_f64(x);
    }
}

fn read_f64s(r: &mut ByteReader<'_>, expected_len: usize) -> Result<Vec<f64>, EngineError> {
    let n = r.get_count(8)?;
    if n != expected_len {
        return Err(EngineError::BadCheckpoint(format!(
            "vector length {n} does not match expected {expected_len}"
        )));
    }
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(r.get_f64()?);
    }
    Ok(v)
}

fn write_subset_layer(w: &mut ByteWriter, layer: &SubsetLayer<(u32, BitSet)>) {
    let entries = layer.sorted();
    w.put_u64(entries.len() as u64);
    for ((node, set), p) in entries {
        w.put_u32(node);
        w.put_u32(set.capacity() as u32);
        let bits: Vec<usize> = set.iter().collect();
        w.put_u32(bits.len() as u32);
        for b in bits {
            w.put_u32(b as u32);
        }
        w.put_f64(p);
    }
}

fn read_subset_layer(
    r: &mut ByteReader<'_>,
    n_nodes: usize,
    cap: usize,
) -> Result<SubsetLayer<(u32, BitSet)>, EngineError> {
    let n = r.get_count(17)?;
    let mut layer: SubsetLayer<(u32, BitSet)> = SubsetLayer::with_capacity(n);
    for _ in 0..n {
        let node = r.get_u32()?;
        if node as usize >= n_nodes {
            return Err(EngineError::BadCheckpoint(format!(
                "layer node {node} out of range"
            )));
        }
        let got_cap = r.get_u32()? as usize;
        if got_cap != cap.max(1) {
            return Err(EngineError::BadCheckpoint(format!(
                "subset capacity {got_cap} does not match query capacity {cap}"
            )));
        }
        let len = r.get_u32()? as usize;
        let mut bits = Vec::with_capacity(len.min(got_cap));
        for _ in 0..len {
            let b = r.get_u32()? as usize;
            if b >= got_cap {
                return Err(EngineError::BadCheckpoint(format!(
                    "subset bit {b} out of capacity {got_cap}"
                )));
            }
            bits.push(b);
        }
        let p = r.get_f64()?;
        layer.add((node, BitSet::from_iter_with_capacity(got_cap, bits)), p);
    }
    Ok(layer)
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
    nfa: Nfa,
    fold: AcceptanceFold,
    n_symbols: usize,
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
        let fold = AcceptanceFold::start(&nfa, initial);
        Ok(EventSession {
            n_symbols: initial.len(),
            nfa,
            fold,
            consumed: 0,
        })
    }

    /// The query automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
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
        let k = self.n_symbols;
        if matrix.len() != k * k {
            return Err(EngineError::AlphabetMismatch {
                transducer: k * k,
                sequence: matrix.len(),
            });
        }
        self.fold.step(&self.nfa, matrix);
        self.consumed += 1;
        Ok(())
    }

    /// Suspends the session to a versioned blob. Resuming with
    /// [`EventSession::resume`] and feeding the remaining matrices yields
    /// bit-identical probabilities to the uninterrupted run.
    pub fn checkpoint(&self) -> Vec<u8> {
        transmark_obs::counter!("checkpoint.saves").inc();
        transmark_obs::profile::instant("checkpoint.save");
        let mut w =
            ByteWriter::envelope(CheckpointKind::Event, self.nfa.fingerprint(), self.consumed);
        self.fold.save(&mut w);
        w.finish()
    }

    /// Restores a session suspended by [`EventSession::checkpoint`].
    /// `nfa` must be the same automaton (fingerprint-checked).
    pub fn resume(nfa: Nfa, blob: &[u8]) -> Result<EventSession, EngineError> {
        let (mut r, position) = open_envelope(blob, CheckpointKind::Event, nfa.fingerprint())?;
        let fold = AcceptanceFold::restore(&nfa, &mut r)?;
        transmark_obs::counter!("checkpoint.resumes").inc();
        transmark_obs::profile::instant("checkpoint.resume");
        Ok(EventSession {
            n_symbols: nfa.n_symbols(),
            nfa,
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
        let n_nodes = r.get_u32()? as usize;
        if n_nodes != t.n_input_symbols() {
            return Err(EngineError::BadCheckpoint(format!(
                "checkpoint alphabet {n_nodes} does not match query alphabet {}",
                t.n_input_symbols()
            )));
        }
        let overrun = r.get_u8()? != 0;
        let tag = r.get_u8()?;
        let nq = t.n_states();
        let flat = |graph: Arc<StepGraph>, width: usize, r: &mut ByteReader<'_>| {
            let cells = read_f64s(r, n_nodes * graph.n_rows())?;
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
                layer: read_subset_layer(&mut r, n_nodes, nq)?,
            },
            (PlanKind::General | PlanKind::Sproj | PlanKind::SprojIndexed, 4) => {
                let graph = self.output_graph(o);
                let cap = (nq * (o.len() + 1)).max(1);
                ConfState::General {
                    graph,
                    cap,
                    layer: read_subset_layer(&mut r, n_nodes, cap)?,
                }
            }
            (kind, tag) => {
                return Err(EngineError::BadCheckpoint(format!(
                    "checkpoint route tag {tag} does not match plan kind {kind:?}"
                )))
            }
        };
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
        let flat = self.pass.flat();
        self.pass
            .step(&PulledLayer::load(&mut self.csr, flat, n, matrix));
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
        let mut w = ByteWriter::envelope(CheckpointKind::Confidence, fp, p.consumed);
        w.put_u32(p.n_nodes as u32);
        w.put_u8(p.overrun as u8);
        w.put_u8(p.state.tag());
        match &p.state {
            ConfState::DetUniform { pass, .. } | ConfState::Det { pass } => {
                write_f64s(&mut w, pass.cells());
            }
            ConfState::UniformNfa { layer, .. } | ConfState::General { layer, .. } => {
                write_subset_layer(&mut w, layer);
            }
        }
        w.finish()
    }
}

// ---------------------------------------------------------------------------
// StreamSession — any streamed session behind one interface
// ---------------------------------------------------------------------------

/// One streamed query session of any kind, so a layer-driving loop (the
/// server's stream sessions, `tmk stream`, the store's monitor, the
/// engine's own series passes) is written once.
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
        let mut out = Vec::with_capacity(if series { src.len() } else { 1 });
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
// SlidingWindowQuery — O(1)-composition-per-tick windows, no rewind
// ---------------------------------------------------------------------------

/// `Pr(S[t−w+1 .. t] ∈ L(A))` at every tick: the acceptance probability
/// of the window seen as a fresh sequence whose initial distribution is
/// the chain's marginal at the window start.
///
/// Built on the scan state space: the query NFA is BFS-determinized
/// upfront, each step's matrix lifts to an `m × m` [`StepOperator`], and
/// a [`SlidingProduct`] two-stack holds the product of the operators
/// inside the window — evicting the oldest step is amortized one operator
/// composition, **not** a rewind of the source (compare the old scheme:
/// rewind + replay all `w` steps). `dataplane.rewinds_avoided` counts
/// every such slide.
pub struct SlidingWindowQuery {
    nfa: Nfa,
    window: usize,
    dfa: ScanDfa,
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
        let dfa =
            ScanDfa::build(&nfa, WINDOW_STATE_CAP).ok_or(EngineError::UnsupportedStrategy {
                strategy: "window",
                query: "sliding window (lifted state space exceeds the composition budget)",
            })?;
        Ok(SlidingWindowQuery { nfa, window, dfa })
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
        let mut marginals = VecDeque::with_capacity(self.window);
        marginals.push_back(initial.to_vec());
        Ok(WindowSession {
            query: self,
            marginals,
            swag: SlidingProduct::new(self.dfa.m_dim()),
            consumed: 0,
        })
    }

    /// Restores a session suspended by [`WindowSession::checkpoint`].
    pub fn resume(&self, blob: &[u8]) -> Result<WindowSession<'_>, EngineError> {
        let (mut r, position) = open_envelope(blob, CheckpointKind::Window, self.fingerprint())?;
        let k = self.nfa.n_symbols();
        let md = self.dfa.m_dim();
        let n_marg = r.get_count(8 * k)?;
        if n_marg == 0 || n_marg > self.window {
            return Err(EngineError::BadCheckpoint(format!(
                "marginal ring length {n_marg} outside 1..={}",
                self.window
            )));
        }
        let mut marginals = VecDeque::with_capacity(self.window);
        for _ in 0..n_marg {
            marginals.push_back(read_f64s(&mut r, k)?);
        }
        let read_ops = |r: &mut ByteReader<'_>| -> Result<Vec<StepOperator<Prob>>, EngineError> {
            let n = r.get_count(1)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(StepOperator::from_cells(md, read_f64s(r, md * md)?));
            }
            Ok(ops)
        };
        let front = read_ops(&mut r)?;
        let back = read_ops(&mut r)?;
        let back_agg = StepOperator::from_cells(md, read_f64s(&mut r, md * md)?);
        let swag = SlidingProduct::from_parts(md, front, back, back_agg);
        if swag.len() != n_marg - 1 {
            return Err(EngineError::BadCheckpoint(format!(
                "window product holds {} operators for {} marginals",
                swag.len(),
                n_marg
            )));
        }
        transmark_obs::counter!("checkpoint.resumes").inc();
        transmark_obs::profile::instant("checkpoint.resume");
        Ok(WindowSession {
            query: self,
            marginals,
            swag,
            consumed: position,
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
    /// window's matrices. O(w·m·|Σ|) per call where the incremental path
    /// pays amortized one `m³` composition.
    pub fn recompute(&self, start_marginal: &[f64], matrices: &[&[f64]]) -> f64 {
        let mut cur = self.dfa.lift_initial(start_marginal);
        let mut next = vec![0.0; cur.len()];
        for m in matrices {
            self.dfa.step_vector(m, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        self.dfa.probability_of(&cur)
    }
}

/// A live sliding-window evaluation; see [`SlidingWindowQuery`].
pub struct WindowSession<'q> {
    query: &'q SlidingWindowQuery,
    /// Node marginals for every position currently inside the window,
    /// oldest first — `front()` is the window-start distribution.
    marginals: VecDeque<Vec<f64>>,
    /// Product of the lifted operators for the steps inside the window
    /// (`marginals.len() − 1` of them).
    swag: SlidingProduct<Prob>,
    consumed: u64,
}

impl WindowSession<'_> {
    /// Transition matrices consumed so far.
    pub fn position(&self) -> u64 {
        self.consumed
    }

    /// Stream positions currently covered by the window (`≤ w`).
    pub fn span(&self) -> usize {
        self.marginals.len()
    }

    /// The chain's marginal distribution at the window start.
    pub fn start_marginal(&self) -> &[f64] {
        self.marginals.front().expect("window ring never empty")
    }

    /// The current windowed probability.
    pub fn probability(&self) -> f64 {
        let v0 = self.query.dfa.lift_initial(self.start_marginal());
        let v = self.swag.apply_to(&v0);
        self.query.dfa.probability_of(&v)
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
            self.swag.push(self.query.dfa.lift_operator(matrix));
        }
        let cur = self.marginals.back().expect("window ring never empty");
        let mut next = vec![0.0; k];
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
        self.marginals.push_back(next);
        if self.marginals.len() > w {
            self.marginals.pop_front();
            transmark_obs::counter!("dataplane.rewinds_avoided").inc();
            transmark_obs::profile::instant("window.slide");
        }
        self.consumed += 1;
        Ok(())
    }

    /// Suspends the session to a versioned blob; resume with
    /// [`SlidingWindowQuery::resume`]. The blob records the exact
    /// two-stack state, so a resumed window's probabilities are
    /// bit-identical to the uninterrupted session's.
    pub fn checkpoint(&self) -> Vec<u8> {
        transmark_obs::counter!("checkpoint.saves").inc();
        transmark_obs::profile::instant("checkpoint.save");
        let mut w = ByteWriter::envelope(
            CheckpointKind::Window,
            self.query.fingerprint(),
            self.consumed,
        );
        w.put_u64(self.marginals.len() as u64);
        for m in &self.marginals {
            write_f64s(&mut w, m);
        }
        let (front, back, back_agg) = self.swag.parts();
        let write_ops = |w: &mut ByteWriter, ops: &[StepOperator<Prob>]| {
            w.put_u64(ops.len() as u64);
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
        // Truncations never panic.
        for cut in 0..blob.len() {
            assert!(matches!(
                EventSession::resume(has_two(), &blob[..cut]),
                Err(EngineError::BadCheckpoint(_))
            ));
        }
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
