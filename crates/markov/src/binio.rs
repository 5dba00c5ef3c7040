//! `.tmsb` — the zero-copy binary interchange format for Markov
//! sequences.
//!
//! The text format ([`crate::textio`]) is human-diffable but demands a
//! full parse; `.tmsb` stores the same model as fixed-stride
//! little-endian `f64` payload so readers can stream layers with no
//! parsing, and memory-mapped (or otherwise byte-sliced) consumers can
//! view each layer as a `&[f64]` without copying.
//!
//! # Layout (version 1)
//!
//! ```text
//! offset  size      field
//! 0       4         magic "TMSB"
//! 4       4         version        u32 LE = 1
//! 8       4         k = |Σ|        u32 LE, ≥ 1
//! 12      4         reserved       u32 LE = 0
//! 16      8         n (length)     u64 LE, ≥ 1
//! 24      8         names_len      u64 LE (bytes, multiple of 8)
//! 32      names_len names block:   per symbol, u32 LE byte-length +
//!                                  UTF-8 bytes; zero-padded to 8
//! …       8·k       initial        k × f64 LE
//! …       8·k²·(n−1) layers        fixed stride k² × f64 LE per step
//! ```
//!
//! The header is 32 bytes and the names block is padded to a multiple of
//! 8, so in any 8-aligned buffer (mmap pages, most allocations) the
//! payload is `f64`-aligned and [`TmsbSlice`] serves true zero-copy
//! views; unaligned or big-endian hosts fall back to a per-layer copy,
//! bit-identical either way.
//!
//! Distributions are validated on read, layer by layer — a `.tmsb` that
//! streams to completion is a valid Markov sequence, exactly like a
//! `.tms` that parses. Size fields are checked against the bytes that
//! back them before anything is sized from them: a streaming reader
//! grows the names block as its bytes arrive, up to a cap of 16 MiB
//! (room for a million 12-byte symbol names), and a byte-slice view
//! requires the whole block to be in the slice. A streaming reader
//! likewise grows its layer buffer as the layer's bytes arrive, so the
//! `8·|Σ|²` stride a large names block implies is never allocated
//! before the peer sends it.

use std::io::{Read, Seek, SeekFrom, Write};
use std::sync::Arc;

use transmark_automata::Alphabet;

use crate::error::MarkovError;
use crate::sequence::{from_validated_parts, validate_matrix, validate_vector, MarkovSequence};
use crate::source::{RewindableStepSource, SourceError, StepSource};

/// File magic: `"TMSB"`.
pub const MAGIC: [u8; 4] = *b"TMSB";
/// Current format version.
pub const VERSION: u32 = 1;
const HEADER_LEN: usize = 32;
/// The largest names block a streaming reader accepts (see the module
/// docs).
const MAX_NAMES_LEN: usize = 1 << 24;

fn ferr(message: impl Into<String>) -> SourceError {
    SourceError::Format(message.into())
}

/// Serializes the names block (length-prefixed UTF-8, zero-padded to a
/// multiple of 8).
fn names_block(alphabet: &Alphabet) -> Vec<u8> {
    let mut block = Vec::new();
    for (_, name) in alphabet.iter() {
        block.extend_from_slice(&(name.len() as u32).to_le_bytes());
        block.extend_from_slice(name.as_bytes());
    }
    while block.len() % 8 != 0 {
        block.push(0);
    }
    block
}

/// Streams a source to `w` in `.tmsb` form without materializing it:
/// header and initial first, then one fixed-stride layer per pull. This
/// is the `tms → tmsb` converter's core; the source validates layers as
/// they are pulled, so the written file is valid by construction.
pub fn write_tmsb<W: Write, S: StepSource>(w: &mut W, src: &mut S) -> Result<(), SourceError> {
    let alphabet = Arc::clone(src.alphabet());
    let k = alphabet.len();
    let n = src.len();
    if k == 0 || k > u32::MAX as usize {
        return Err(ferr(format!("alphabet size {k} not representable")));
    }
    let names = names_block(&alphabet);

    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(k as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&(names.len() as u64).to_le_bytes())?;
    w.write_all(&names)?;

    let initial = src.initial();
    if initial.len() != k {
        return Err(ferr(format!(
            "initial distribution has {} entries, expected {k}",
            initial.len()
        )));
    }
    for &p in initial {
        w.write_all(&p.to_le_bytes())?;
    }

    let mut written = 0usize;
    while let Some(matrix) = src.next_step()? {
        for &p in matrix {
            w.write_all(&p.to_le_bytes())?;
        }
        written += 1;
    }
    if written != n - 1 {
        return Err(ferr(format!(
            "source yielded {written} layers, expected {}",
            n - 1
        )));
    }
    Ok(())
}

/// Serializes an in-memory sequence to `.tmsb` bytes.
pub fn to_tmsb_bytes(m: &MarkovSequence) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(HEADER_LEN + 8 * m.n_symbols() * (1 + m.n_symbols() * (m.len() - 1)));
    write_tmsb(&mut out, &mut m.step_source()).expect("in-memory write cannot fail");
    out
}

/// Parsed `.tmsb` header fields.
struct Header {
    alphabet: Arc<Alphabet>,
    k: usize,
    n: usize,
}

/// The names block length a header claims, checked to be a multiple of 8
/// (claimed only: callers compare it against the bytes they hold).
fn names_len(header: &[u8; HEADER_LEN]) -> Result<usize, SourceError> {
    let len = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    if !len.is_multiple_of(8) {
        return Err(ferr("names block length must be a multiple of 8"));
    }
    usize::try_from(len).map_err(|_| ferr(format!("names block of {len} bytes overflows")))
}

fn parse_header(header: &[u8; HEADER_LEN], names: &[u8]) -> Result<Header, SourceError> {
    if header[0..4] != MAGIC {
        return Err(ferr("bad magic (not a .tmsb file)"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        // Typed, not a generic format error: a peer streaming a
        // future-versioned file over the wire gets a negotiable
        // "I speak up to VERSION" answer instead of a decode panic or
        // garbage layers.
        return Err(SourceError::Version {
            found: version,
            supported: VERSION,
        });
    }
    let k = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
    if k == 0 {
        return Err(ferr("alphabet size must be ≥ 1"));
    }
    let n = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes")) as usize;
    if n == 0 {
        return Err(SourceError::Model(MarkovError::EmptySequence));
    }

    let mut at = 0usize;
    // Each name takes at least its 4-byte length prefix, so the block
    // bounds how many a header's `k` can truthfully claim.
    let mut names_vec = Vec::with_capacity(k.min(names.len() / 4));
    for i in 0..k {
        if at + 4 > names.len() {
            return Err(ferr(format!("names block truncated at symbol {i}")));
        }
        let len = u32::from_le_bytes(names[at..at + 4].try_into().expect("4 bytes")) as usize;
        at += 4;
        if at + len > names.len() {
            return Err(ferr(format!("name {i} overruns names block")));
        }
        let name = std::str::from_utf8(&names[at..at + len])
            .map_err(|_| ferr(format!("name {i} is not valid UTF-8")))?;
        names_vec.push(name.to_string());
        at += len;
    }
    let alphabet = Arc::new(Alphabet::from_names(names_vec.iter().map(String::as_str)));
    if alphabet.len() != k {
        return Err(ferr("duplicate symbol names"));
    }
    Ok(Header { alphabet, k, n })
}

fn decode_f64s(bytes: &[u8], out: &mut Vec<f64>) {
    out.clear();
    for chunk in bytes.chunks_exact(8) {
        out.push(f64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
}

/// `Read`-backed streaming `.tmsb` reader: pulls one fixed-stride layer
/// per [`StepSource::next_step`], holding O(|Σ|²) memory. Rewindable when
/// the underlying reader is seekable (files, in-memory cursors).
pub struct TmsbReader<R> {
    reader: R,
    alphabet: Arc<Alphabet>,
    n: usize,
    initial: Vec<f64>,
    pos: usize,
    /// Byte offset of the first layer, for rewinding.
    layers_start: u64,
    /// `8·|Σ|²`, the byte span of one layer.
    stride: usize,
    raw: Vec<u8>,
    buf: Vec<f64>,
}

impl<R: Read> TmsbReader<R> {
    /// Reads and validates the header, names, and initial distribution.
    pub fn new(mut reader: R) -> Result<Self, SourceError> {
        let p = read_prelude(&mut reader)?;
        let k = p.alphabet.len();
        Ok(TmsbReader {
            reader,
            stride: layer_stride(k)?,
            raw: Vec::new(),
            buf: Vec::new(),
            alphabet: p.alphabet,
            n: p.n,
            initial: p.initial,
            pos: 0,
            layers_start: p.layers_start,
        })
    }
}

/// `8·|Σ|²`, the byte span of one layer, with the multiplication checked
/// so a hostile header cannot wrap the stride into a short buffer (and,
/// downstream, a short `&[f64]` layer slice).
fn layer_stride(k: usize) -> Result<usize, SourceError> {
    k.checked_mul(k)
        .and_then(|kk| kk.checked_mul(8))
        .ok_or_else(|| ferr(format!("layer stride 8·{k}² overflows")))
}

/// The first size of a layer buffer; it doubles from here as bytes
/// arrive, up to the layer's stride.
const FILL_START: usize = 1 << 16;

/// Reads the rest of one `stride`-byte layer into `raw`, resuming at
/// `*filled`. `raw` grows only as bytes arrive (doubling from
/// [`FILL_START`], never past `stride`), so a claimed `|Σ|` sizes no
/// allocation on its own: a peer must send the bytes it claims. An I/O
/// error keeps the partial fill. Counting the bytes that arrived before
/// an end of input tells a payload that ends at a layer boundary (clean
/// truncation) from one that ends mid-layer — the header's `|Σ|`
/// disagrees with the actual stride, reported as the typed
/// [`SourceError::Stride`] rather than a short decode.
fn fill_layer<R: Read>(
    reader: &mut R,
    raw: &mut Vec<u8>,
    filled: &mut usize,
    stride: usize,
    step: usize,
) -> Result<(), SourceError> {
    while *filled < stride {
        if *filled == raw.len() {
            raw.resize(stride.min(raw.len().saturating_mul(2).max(FILL_START)), 0);
        }
        match reader.read(&mut raw[*filled..]) {
            Ok(0) => break,
            Ok(nread) => *filled += nread,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(SourceError::Io(e)),
        }
    }
    if *filled < stride {
        return Err(if *filled == 0 {
            ferr(format!("layer {step} truncated"))
        } else {
            SourceError::Stride {
                step,
                expected: stride,
                actual: *filled,
            }
        });
    }
    Ok(())
}

impl<R: Read> StepSource for TmsbReader<R> {
    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    fn len(&self) -> usize {
        self.n
    }

    fn initial(&self) -> &[f64] {
        &self.initial
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.n {
            return Ok(None);
        }
        let step = self.pos;
        let t = transmark_obs::Timer::start();
        fill_layer(&mut self.reader, &mut self.raw, &mut 0, self.stride, step)?;
        decode_f64s(&self.raw, &mut self.buf);
        validate_matrix(&self.buf, self.alphabet.len(), "transition", step)?;
        self.pos += 1;
        t.observe(transmark_obs::histogram!("dataplane.tmsb.decode_ns"));
        crate::obs::record_step(self.buf.len());
        Ok(Some(&self.buf))
    }
}

impl<R: Read + Seek> RewindableStepSource for TmsbReader<R> {
    fn rewind(&mut self) -> Result<(), SourceError> {
        crate::obs::record_rewind();
        self.reader.seek(SeekFrom::Start(self.layers_start))?;
        self.pos = 0;
        Ok(())
    }
}

/// The `.tmsb` prelude — everything before the layer payload — parsed
/// without consuming any layers.
///
/// This is the resume-oriented split of [`TmsbReader::new`]: a session
/// that checkpoints after `p` layers records only `p`; the peer that
/// resumes it re-reads the prelude, seeks (or slices) to
/// [`TmsbPrelude::layer_offset`]`(p)`, and feeds the remaining layers
/// through a [`RawLayerReader`].
pub struct TmsbPrelude {
    alphabet: Arc<Alphabet>,
    n: usize,
    initial: Vec<f64>,
    layers_start: u64,
}

impl TmsbPrelude {
    /// The sequence alphabet.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Sequence length `n` (number of positions; layers are `n − 1`).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (`n ≥ 1` is validated on parse).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The validated initial distribution (`|Σ|` entries).
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// Byte offset of the first layer in the file.
    pub fn layers_start(&self) -> u64 {
        self.layers_start
    }

    /// Byte offset of layer `step` (0-based): where a resumed session
    /// that has already consumed `step` layers continues reading.
    pub fn layer_offset(&self, step: u64) -> u64 {
        let k = self.alphabet.len() as u64;
        self.layers_start + step * 8 * k * k
    }
}

/// Reads and validates the `.tmsb` prelude (header, names, initial)
/// from `reader`, leaving it positioned at the first layer.
pub fn read_prelude<R: Read>(reader: &mut R) -> Result<TmsbPrelude, SourceError> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ferr("truncated header")
        } else {
            SourceError::Io(e)
        }
    })?;
    let names_len = names_len(&header)?;
    if names_len > MAX_NAMES_LEN {
        return Err(ferr(format!(
            "names block of {names_len} bytes exceeds the {MAX_NAMES_LEN}-byte cap"
        )));
    }
    // Grown as the bytes arrive, never sized from the claim alone.
    let mut names = Vec::new();
    reader
        .by_ref()
        .take(names_len as u64)
        .read_to_end(&mut names)?;
    if names.len() < names_len {
        return Err(ferr("truncated names block"));
    }
    let h = parse_header(&header, &names)?;
    layer_stride(h.k)?;

    let mut raw = vec![0u8; 8 * h.k];
    reader.read_exact(&mut raw)?;
    let mut initial = Vec::with_capacity(h.k);
    decode_f64s(&raw, &mut initial);
    validate_vector(&initial, "initial", 0)?;

    Ok(TmsbPrelude {
        alphabet: h.alphabet,
        n: h.n,
        initial,
        layers_start: (HEADER_LEN + names_len + 8 * h.k) as u64,
    })
}

/// A layer puller with *persisted fill state*, for byte streams that can
/// be interrupted mid-layer and retried.
///
/// [`TmsbReader`] owns its reader and treats any I/O error as fatal. A
/// serving loop multiplexing control frames into a data stream instead
/// surfaces an out-of-band request as a marker `io::Error` from `read` —
/// possibly in the middle of a layer. `RawLayerReader` keeps the bytes
/// already filled across that error, so the caller can service the
/// request (e.g. emit a checkpoint) and call
/// [`RawLayerReader::next_layer`] again; the retried call resumes the
/// fill exactly where it stopped and the decoded stream stays
/// bit-identical to an uninterrupted one.
pub struct RawLayerReader {
    k: usize,
    n: usize,
    pos: usize,
    stride: usize,
    raw: Vec<u8>,
    filled: usize,
    buf: Vec<f64>,
}

impl RawLayerReader {
    /// A reader positioned at layer 0 of `prelude`'s stream.
    pub fn new(prelude: &TmsbPrelude) -> Result<Self, SourceError> {
        Self::resume(prelude, 0)
    }

    /// A reader positioned at layer `consumed` — the continuation point
    /// of a session that checkpointed after consuming that many layers.
    /// The byte stream it is fed must start at
    /// [`TmsbPrelude::layer_offset`]`(consumed)`.
    pub fn resume(prelude: &TmsbPrelude, consumed: u64) -> Result<Self, SourceError> {
        Self::from_dims(prelude.alphabet.len(), prelude.n, consumed)
    }

    /// [`RawLayerReader::resume`] from recorded dimensions alone — for a
    /// resuming peer that checkpointed `(|Σ|, n, consumed)` and receives
    /// the byte stream already sliced past the prelude.
    pub fn from_dims(k: usize, n: usize, consumed: u64) -> Result<Self, SourceError> {
        let stride = layer_stride(k)?;
        if k == 0 {
            return Err(ferr("alphabet size must be ≥ 1"));
        }
        if n == 0 || consumed as usize > n - 1 {
            return Err(ferr(format!(
                "cannot resume at layer {consumed}: stream has {}",
                n.saturating_sub(1)
            )));
        }
        Ok(RawLayerReader {
            k,
            n,
            pos: consumed as usize,
            stride,
            raw: Vec::new(),
            filled: 0,
            buf: Vec::new(),
        })
    }

    /// Layers fully consumed so far (counting any resume offset).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether an interrupted fill is pending — the last
    /// [`RawLayerReader::next_layer`] stopped mid-layer on an I/O error
    /// and must be retried before the state is at a layer boundary.
    pub fn mid_layer(&self) -> bool {
        self.filled != 0
    }

    /// Pulls the next validated layer from `reader`, or `None` when all
    /// `n − 1` layers have been consumed.
    ///
    /// On a non-[`Interrupted`] I/O error the partial fill is kept; a
    /// subsequent call with a reader that continues the same byte stream
    /// completes the layer.
    ///
    /// [`Interrupted`]: std::io::ErrorKind::Interrupted
    pub fn next_layer<R: Read>(&mut self, reader: &mut R) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.n {
            return Ok(None);
        }
        let step = self.pos;
        let t = transmark_obs::Timer::start();
        fill_layer(reader, &mut self.raw, &mut self.filled, self.stride, step)?;
        self.filled = 0;
        decode_f64s(&self.raw, &mut self.buf);
        validate_matrix(&self.buf, self.k, "transition", step)?;
        self.pos += 1;
        t.observe(transmark_obs::histogram!("dataplane.tmsb.decode_ns"));
        crate::obs::record_step(self.buf.len());
        Ok(Some(&self.buf))
    }
}

/// Zero-copy `.tmsb` view over a byte slice (e.g. a memory map).
///
/// When the slice is 8-aligned and the host is little-endian, each layer
/// is served as a direct `&[f64]` reinterpretation of the payload bytes —
/// no copy, no decode. Otherwise pulls fall back to decoding into an
/// internal buffer; results are bit-identical either way (the payload
/// *is* the IEEE-754 bit pattern).
pub struct TmsbSlice<'a> {
    alphabet: Arc<Alphabet>,
    n: usize,
    k: usize,
    initial: Vec<f64>,
    /// Layer payload bytes (`8·k²·(n−1)`, fixed stride).
    layers: &'a [u8],
    pos: usize,
    buf: Vec<f64>,
}

/// Reinterprets little-endian `f64` payload bytes in place when the
/// platform allows it.
fn cast_f64s(bytes: &[u8]) -> Option<&[f64]> {
    if cfg!(target_endian = "little")
        && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>())
        && bytes.len().is_multiple_of(8)
    {
        // SAFETY: the pointer is checked to be 8-aligned, the length is a
        // multiple of 8, the returned slice borrows `bytes` (same
        // lifetime), and any bit pattern is a valid f64.
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, bytes.len() / 8) })
    } else {
        None
    }
}

impl<'a> TmsbSlice<'a> {
    /// Parses the header and validates the initial distribution; layers
    /// are validated lazily as they are pulled.
    pub fn new(data: &'a [u8]) -> Result<Self, SourceError> {
        if data.len() < HEADER_LEN {
            return Err(ferr("truncated header"));
        }
        let header: &[u8; HEADER_LEN] = data[..HEADER_LEN].try_into().expect("checked");
        let names_len = names_len(header)?;
        if data.len() - HEADER_LEN < names_len {
            return Err(ferr("truncated names block"));
        }
        let h = parse_header(header, &data[HEADER_LEN..HEADER_LEN + names_len])?;

        let initial_start = HEADER_LEN + names_len;
        let layers_start = initial_start + 8 * h.k;
        let stride = layer_stride(h.k)?;
        let layers_len = stride
            .checked_mul(h.n - 1)
            .and_then(|l| l.checked_add(layers_start))
            .ok_or_else(|| ferr(format!("layer payload for n = {} overflows", h.n)))?
            - layers_start;
        let expected_len = layers_start + layers_len;
        if data.len() != expected_len {
            // A mismatch that is a whole number of layers is a clean
            // truncation (or surplus); anything else means the payload's
            // stride disagrees with the header's |Σ| — typed so callers
            // can tell corruption from a short copy, and so no short
            // `&[f64]` layer view is ever produced.
            let actual_layers = data.len().saturating_sub(layers_start);
            if !actual_layers.is_multiple_of(stride) {
                return Err(SourceError::Stride {
                    step: actual_layers / stride,
                    expected: stride,
                    actual: actual_layers % stride,
                });
            }
            return Err(ferr(format!(
                "payload is {} bytes, expected {expected_len}",
                data.len()
            )));
        }

        let mut initial = Vec::with_capacity(h.k);
        decode_f64s(&data[initial_start..layers_start], &mut initial);
        validate_vector(&initial, "initial", 0)?;

        Ok(TmsbSlice {
            alphabet: h.alphabet,
            n: h.n,
            k: h.k,
            initial,
            layers: &data[layers_start..],
            pos: 0,
            buf: Vec::new(),
        })
    }

    /// Whether pulls are served zero-copy on this host/buffer.
    pub fn is_zero_copy(&self) -> bool {
        self.n == 1 || cast_f64s(self.layers).is_some()
    }

    /// Random access to step `i`'s raw (unvalidated) matrix view; `None`
    /// when the platform requires the copy fallback.
    pub fn matrix(&self, i: usize) -> Option<&[f64]> {
        let stride = 8 * self.k * self.k;
        cast_f64s(&self.layers[i * stride..(i + 1) * stride])
    }
}

impl StepSource for TmsbSlice<'_> {
    fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    fn len(&self) -> usize {
        self.n
    }

    fn initial(&self) -> &[f64] {
        &self.initial
    }

    fn position(&self) -> usize {
        self.pos
    }

    fn next_step(&mut self) -> Result<Option<&[f64]>, SourceError> {
        if self.pos + 1 >= self.n {
            return Ok(None);
        }
        let step = self.pos;
        let stride = 8 * self.k * self.k;
        let bytes = &self.layers[step * stride..(step + 1) * stride];
        self.pos += 1;
        crate::obs::record_step(self.k * self.k);
        if let Some(view) = cast_f64s(bytes) {
            validate_matrix(view, self.k, "transition", step)?;
            Ok(Some(view))
        } else {
            decode_f64s(bytes, &mut self.buf);
            validate_matrix(&self.buf, self.k, "transition", step)?;
            Ok(Some(&self.buf))
        }
    }
}

impl RewindableStepSource for TmsbSlice<'_> {
    fn rewind(&mut self) -> Result<(), SourceError> {
        crate::obs::record_rewind();
        self.pos = 0;
        Ok(())
    }
}

/// Materializes a `.tmsb` byte buffer into a [`MarkovSequence`],
/// validating every distribution (the round-trip check of the
/// `tms ↔ tmsb` converter).
pub fn from_tmsb_bytes(data: &[u8]) -> Result<MarkovSequence, SourceError> {
    let mut slice = TmsbSlice::new(data)?;
    let alphabet = Arc::clone(slice.alphabet());
    let k = alphabet.len();
    let n = slice.len();
    let initial = slice.initial().to_vec();
    let mut transitions = Vec::with_capacity((n - 1) * k * k);
    while let Some(m) = slice.next_step()? {
        transitions.extend_from_slice(m);
    }
    Ok(from_validated_parts(alphabet, initial, transitions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_markov_sequence, RandomChainSpec};
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::SymbolId;

    fn chains() -> Vec<MarkovSequence> {
        let mut rng = StdRng::seed_from_u64(99);
        let mut out = Vec::new();
        for len in [1usize, 2, 3, 9] {
            for k in [1usize, 2, 4] {
                out.push(random_markov_sequence(
                    &RandomChainSpec {
                        len,
                        n_symbols: k,
                        zero_prob: 0.3,
                    },
                    &mut rng,
                ));
            }
        }
        out
    }

    #[test]
    fn bytes_round_trip_bitwise() {
        for m in chains() {
            let bytes = to_tmsb_bytes(&m);
            let back = from_tmsb_bytes(&bytes).expect("round trip");
            assert_eq!(back.len(), m.len());
            assert_eq!(back.n_symbols(), m.n_symbols());
            for s in 0..m.n_symbols() as u32 {
                assert_eq!(
                    back.alphabet().name(SymbolId(s)),
                    m.alphabet().name(SymbolId(s))
                );
            }
            assert_eq!(back.initial_dist(), m.initial_dist());
            assert_eq!(back.transitions_flat(), m.transitions_flat());
        }
    }

    #[test]
    fn reader_streams_layers_and_rewinds() {
        let m = chains().pop().expect("nonempty");
        let bytes = to_tmsb_bytes(&m);
        let mut r = TmsbReader::new(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(r.len(), m.len());
        assert_eq!(r.initial(), m.initial_dist());
        for i in 0..m.len() - 1 {
            let layer = r.next_step().unwrap().expect("layer");
            assert_eq!(layer, m.transition_matrix(i));
        }
        assert!(r.next_step().unwrap().is_none());
        r.rewind().unwrap();
        assert_eq!(r.next_step().unwrap().unwrap(), m.transition_matrix(0));
    }

    #[test]
    fn slice_view_matches_and_reports_zero_copy() {
        let m = chains().pop().expect("nonempty");
        let bytes = to_tmsb_bytes(&m);
        let mut s = TmsbSlice::new(&bytes).unwrap();
        let zero_copy = s.is_zero_copy();
        for i in 0..m.len() - 1 {
            let layer = s.next_step().unwrap().expect("layer");
            assert_eq!(layer, m.transition_matrix(i));
        }
        assert!(s.next_step().unwrap().is_none());
        // Vec<u8> from to_tmsb_bytes is at least 8-aligned on common
        // allocators; only assert consistency, not alignment.
        if zero_copy {
            assert!(s.matrix(0).is_some() || m.len() == 1);
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let m = chains().pop().expect("nonempty");
        let bytes = to_tmsb_bytes(&m);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(TmsbSlice::new(&bad), Err(SourceError::Format(_))));

        // Payload cut at a layer boundary: clean truncation.
        let stride = 8 * m.n_symbols() * m.n_symbols();
        assert!(matches!(
            TmsbSlice::new(&bytes[..bytes.len() - stride]),
            Err(SourceError::Format(_))
        ));

        // Payload cut mid-layer: the stride no longer matches the
        // header's |Σ| — typed stride error, never a short layer slice.
        match TmsbSlice::new(&bytes[..bytes.len() - 3]) {
            Err(SourceError::Stride {
                step,
                expected,
                actual,
            }) => {
                assert_eq!(step, m.len() - 2);
                assert_eq!(expected, stride);
                assert_eq!(actual, stride - 3);
            }
            Err(other) => panic!("expected stride error, got {other:?}"),
            Ok(_) => panic!("mid-layer cut accepted"),
        }

        // Surplus bytes that are not whole layers: also a stride error.
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 11]);
        assert!(matches!(
            TmsbSlice::new(&padded),
            Err(SourceError::Stride { .. })
        ));

        // A layer row that no longer sums to 1.
        let mut invalid = bytes.clone();
        let len = invalid.len();
        invalid[len - 8..].copy_from_slice(&5.0f64.to_le_bytes());
        let mut s = TmsbSlice::new(&invalid).unwrap();
        let mut saw_model_error = false;
        loop {
            match s.next_step() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(SourceError::Model(_)) => {
                    saw_model_error = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_model_error || m.len() == 1);
    }

    /// A `.tmsb` header claiming `k` symbols, length `n` and a names
    /// block of `names_len` bytes.
    fn hostile_header(k: u32, n: u64, names_len: u64) -> Vec<u8> {
        let mut h = MAGIC.to_vec();
        h.extend_from_slice(&VERSION.to_le_bytes());
        h.extend_from_slice(&k.to_le_bytes());
        h.extend_from_slice(&0u32.to_le_bytes());
        h.extend_from_slice(&n.to_le_bytes());
        h.extend_from_slice(&names_len.to_le_bytes());
        h
    }

    #[test]
    fn claimed_symbol_count_is_bounded_by_the_names_block() {
        // 40 bytes claiming |Σ| = u32::MAX: one 8-byte name, then the
        // block runs out — an error, not a 100 GB reservation.
        let mut bytes = hostile_header(u32::MAX, 2, 8);
        bytes.extend_from_slice(&[1, 0, 0, 0, b'a', 0, 0, 0]);
        assert_eq!(bytes.len(), 40);
        assert!(matches!(
            TmsbSlice::new(&bytes),
            Err(SourceError::Format(_))
        ));
        assert!(from_tmsb_bytes(&bytes).is_err());
        assert!(read_prelude(&mut &bytes[..]).is_err());
    }

    #[test]
    fn claimed_names_length_is_capped_and_read_as_it_arrives() {
        // A 32-byte prelude claiming a 1 TiB names block, then nothing.
        let bytes = hostile_header(2, 2, 1 << 40);
        assert!(matches!(
            read_prelude(&mut &bytes[..]),
            Err(SourceError::Format(_))
        ));
        assert!(matches!(
            TmsbReader::new(&bytes[..]),
            Err(SourceError::Format(_))
        ));
        assert!(TmsbSlice::new(&bytes).is_err());
        // A claim under the cap but past the bytes present is truncated.
        let short = hostile_header(2, 2, 64);
        assert!(read_prelude(&mut &short[..]).is_err());
        // The largest claim a u64 holds cannot overflow the slice checks.
        assert!(TmsbSlice::new(&hostile_header(2, 2, u64::MAX - 7)).is_err());
    }

    /// A prelude of `k` distinct 4-byte names and an initial
    /// distribution with all its mass on the first symbol.
    fn wide_prelude(k: usize) -> Vec<u8> {
        let mut bytes = hostile_header(k as u32, 2, 8 * k as u64);
        for i in 0..k {
            bytes.extend_from_slice(&4u32.to_le_bytes());
            bytes.extend((0..4).map(|j| b'0' + ((i >> (6 * j)) & 63) as u8));
        }
        for i in 0..k {
            bytes.extend_from_slice(&f64::from(u8::from(i == 0)).to_le_bytes());
        }
        bytes
    }

    #[test]
    fn claimed_layer_stride_is_read_as_it_arrives() {
        // |Σ| = 2^16 needs 1 MiB of prelude but claims 32 GiB per layer;
        // the layer buffer grows only with the bytes that follow.
        let k = 1 << 16;
        let stride = 8 * k * k;
        let mut bytes = wide_prelude(k);
        bytes.extend_from_slice(&[0; 100]);
        let reader = TmsbReader::new(&bytes[..]).expect("a valid prelude");
        assert!(matches!(
            drain_until_error(reader),
            SourceError::Stride { step: 0, expected, actual: 100 } if expected == stride
        ));

        let mut r = &bytes[..];
        let prelude = read_prelude(&mut r).expect("a valid prelude");
        let mut raw = RawLayerReader::new(&prelude).expect("dims are in range");
        assert!(matches!(
            raw.next_layer(&mut r),
            Err(SourceError::Stride {
                step: 0,
                actual: 100,
                ..
            })
        ));

        // Dimensions recorded in a resume envelope are not trusted either.
        let mut raw = RawLayerReader::from_dims(1 << 24, 2, 0).expect("dims are in range");
        assert!(matches!(
            raw.next_layer(&mut &[][..]),
            Err(SourceError::Format(_))
        ));
    }

    /// Drains a reader until it errors (panics if it finishes cleanly).
    fn drain_until_error<R: Read>(mut r: TmsbReader<R>) -> SourceError {
        loop {
            match r.next_step() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("malformed input streamed cleanly"),
                Err(e) => return e,
            }
        }
    }

    #[test]
    fn truncated_reader_errors_cleanly() {
        let m = chains().pop().expect("nonempty");
        let bytes = to_tmsb_bytes(&m);
        let stride = 8 * m.n_symbols() * m.n_symbols();

        // Missing whole layers: clean truncation at a layer boundary.
        let cut = &bytes[..bytes.len() - stride];
        match TmsbReader::new(std::io::Cursor::new(cut)) {
            Ok(r) => assert!(matches!(drain_until_error(r), SourceError::Format(_))),
            Err(e) => assert!(matches!(e, SourceError::Format(_) | SourceError::Io(_))),
        }

        // A partial final layer: the stream's stride disagrees with the
        // header's |Σ| — the reader reports how many bytes it did see
        // instead of decoding a short layer.
        let cut = &bytes[..bytes.len() - 5];
        match TmsbReader::new(std::io::Cursor::new(cut)) {
            Ok(r) => match drain_until_error(r) {
                SourceError::Stride {
                    step,
                    expected,
                    actual,
                } => {
                    assert_eq!(step, m.len() - 2);
                    assert_eq!(expected, stride);
                    assert_eq!(actual, stride - 5);
                }
                other => panic!("expected stride error, got {other:?}"),
            },
            Err(e) => assert!(matches!(e, SourceError::Format(_) | SourceError::Io(_))),
        }
    }

    #[test]
    fn future_version_is_a_typed_negotiable_error() {
        let m = chains().pop().expect("nonempty");
        let mut bytes = to_tmsb_bytes(&m);
        // Stamp a future format version into the header.
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        for result in [
            TmsbSlice::new(&bytes).map(|_| ()),
            TmsbReader::new(std::io::Cursor::new(&bytes)).map(|_| ()),
            from_tmsb_bytes(&bytes).map(|_| ()),
        ] {
            match result {
                Err(SourceError::Version { found, supported }) => {
                    assert_eq!(found, VERSION + 1);
                    assert_eq!(supported, VERSION);
                }
                Err(other) => panic!("expected typed version error, got {other:?}"),
                Ok(()) => panic!("future version accepted"),
            }
        }
        // Version 0 (pre-release garbage) is equally negotiable.
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            TmsbSlice::new(&bytes),
            Err(SourceError::Version { found: 0, .. })
        ));
    }

    #[test]
    fn prelude_and_raw_layers_match_reader() {
        for m in chains() {
            let bytes = to_tmsb_bytes(&m);
            let mut cursor = std::io::Cursor::new(&bytes);
            let prelude = read_prelude(&mut cursor).expect("prelude");
            assert_eq!(prelude.len(), m.len());
            assert_eq!(prelude.initial(), m.initial_dist());
            assert_eq!(prelude.alphabet().len(), m.n_symbols());
            assert_eq!(cursor.position(), prelude.layers_start());

            let mut raw = RawLayerReader::new(&prelude).unwrap();
            for i in 0..m.len() - 1 {
                assert_eq!(raw.position(), i);
                let layer = raw.next_layer(&mut cursor).unwrap().expect("layer");
                assert_eq!(layer, m.transition_matrix(i));
            }
            assert!(raw.next_layer(&mut cursor).unwrap().is_none());
            assert!(!raw.mid_layer());
        }
    }

    #[test]
    fn resume_slices_at_layer_offset() {
        let m = chains().pop().expect("nonempty");
        let bytes = to_tmsb_bytes(&m);
        let prelude = read_prelude(&mut std::io::Cursor::new(&bytes)).unwrap();
        for consumed in 0..m.len() as u64 {
            if consumed as usize > m.len() - 1 {
                break;
            }
            let mut raw = RawLayerReader::resume(&prelude, consumed).unwrap();
            let mut tail = std::io::Cursor::new(&bytes[prelude.layer_offset(consumed) as usize..]);
            for i in consumed as usize..m.len() - 1 {
                let layer = raw.next_layer(&mut tail).unwrap().expect("layer");
                assert_eq!(layer, m.transition_matrix(i), "resume {consumed} layer {i}");
            }
            assert!(raw.next_layer(&mut tail).unwrap().is_none());
        }
        // Resuming past the last layer is a typed error, not a panic.
        assert!(RawLayerReader::resume(&prelude, m.len() as u64).is_err());
    }

    /// A reader that yields a marker error after serving `until` bytes,
    /// then continues — the shape a serving loop's control-frame
    /// interruption presents to [`RawLayerReader`].
    struct InterruptOnce<'a> {
        bytes: &'a [u8],
        at: usize,
        until: usize,
        fired: bool,
    }

    impl Read for InterruptOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.fired && self.at >= self.until {
                self.fired = true;
                return Err(std::io::Error::other("checkpoint requested"));
            }
            let cap = if self.fired {
                self.bytes.len()
            } else {
                self.until
            };
            let n = (cap - self.at).min(buf.len()).min(2);
            if n == 0 {
                return Ok(0);
            }
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn interrupted_fill_is_retryable_mid_layer() {
        let m = chains().pop().expect("nonempty");
        if m.len() < 2 {
            return;
        }
        let bytes = to_tmsb_bytes(&m);
        let prelude = read_prelude(&mut std::io::Cursor::new(&bytes)).unwrap();
        let payload = &bytes[prelude.layers_start() as usize..];
        // Interrupt at every byte offset inside the first layer.
        let stride = 8 * m.n_symbols() * m.n_symbols();
        for cut in [0usize, 1, 3, stride - 1, stride, stride + 5] {
            if cut > payload.len() {
                break;
            }
            let mut r = InterruptOnce {
                bytes: payload,
                at: 0,
                until: cut,
                fired: false,
            };
            let mut raw = RawLayerReader::new(&prelude).unwrap();
            let mut layers = Vec::new();
            loop {
                match raw.next_layer(&mut r) {
                    Ok(Some(layer)) => layers.push(layer.to_vec()),
                    Ok(None) => break,
                    Err(SourceError::Io(_)) => {
                        // The marker error: state is preserved; retry.
                        assert_eq!(raw.position(), layers.len());
                        continue;
                    }
                    Err(other) => panic!("cut {cut}: unexpected error {other}"),
                }
            }
            assert_eq!(layers.len(), m.len() - 1, "cut {cut}");
            for (i, layer) in layers.iter().enumerate() {
                assert_eq!(layer.as_slice(), m.transition_matrix(i), "cut {cut}");
            }
        }
    }

    /// A network-ish peer: serves its bytes in dribbles (1..=3 bytes per
    /// `read`), optionally cutting the connection after `limit` bytes —
    /// the shape a slow or dying TCP sender presents to `TmsbReader`.
    struct SlowPeer<'a> {
        bytes: &'a [u8],
        at: usize,
        limit: usize,
        calls: usize,
    }

    impl<'a> SlowPeer<'a> {
        fn new(bytes: &'a [u8], limit: usize) -> Self {
            SlowPeer {
                bytes,
                at: 0,
                limit,
                calls: 0,
            }
        }
    }

    impl Read for SlowPeer<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let end = self.bytes.len().min(self.limit);
            if self.at >= end {
                return Ok(0);
            }
            // Deterministic 1/2/3-byte dribble, exercising every
            // partial-fill path in the reader's layer loop.
            let n = (self.calls % 3 + 1).min(end - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn slow_peer_streams_bitwise_identically() {
        for m in chains() {
            let bytes = to_tmsb_bytes(&m);
            let mut r =
                TmsbReader::new(SlowPeer::new(&bytes, bytes.len())).expect("header assembles");
            assert_eq!(r.initial(), m.initial_dist());
            for i in 0..m.len() - 1 {
                assert_eq!(
                    r.next_step().unwrap().expect("layer"),
                    m.transition_matrix(i)
                );
            }
            assert!(r.next_step().unwrap().is_none());
        }
    }

    #[test]
    fn slow_peer_truncation_is_typed_at_every_cut() {
        let m = chains().pop().expect("nonempty");
        let bytes = to_tmsb_bytes(&m);
        let stride = 8 * m.n_symbols() * m.n_symbols();
        for cut in [
            3usize,                      // inside the fixed header
            HEADER_LEN.min(bytes.len()), // header only, no payload
            bytes.len() - stride,        // clean layer-boundary truncation
            bytes.len() - 5,             // mid-layer, mid-dribble
        ] {
            match TmsbReader::new(SlowPeer::new(&bytes, cut)) {
                Ok(r) => {
                    let e = drain_until_error(r);
                    assert!(
                        matches!(
                            e,
                            SourceError::Format(_)
                                | SourceError::Stride { .. }
                                | SourceError::Io(_)
                        ),
                        "cut at {cut}: unexpected error {e:?}"
                    );
                }
                Err(e) => assert!(
                    matches!(e, SourceError::Format(_) | SourceError::Io(_)),
                    "cut at {cut}: unexpected header error {e:?}"
                ),
            }
        }
    }
}
