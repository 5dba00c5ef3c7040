//! The `tmkp` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 LE payload length][u8 opcode][payload]`. The
//! first client frame must be [`OP_HELLO`] carrying the `"TMKP"` magic,
//! the protocol version, and a tenant name; the server answers
//! [`OP_HELLO_OK`] (or a typed [`OP_ERROR`] with [`ERR_VERSION`] naming
//! the newest version it speaks — version negotiation, not garbage).
//!
//! Results are binary, not decimal text: confidences, series, and
//! `E_max` scores travel as little-endian IEEE-754 bit patterns, so a
//! served answer is **bit-identical** to the in-process engine path —
//! the property the serve test suite pins per
//! [`PlanKind`](transmark_core::plan::PlanKind).
//!
//! Streamed sessions ([`OP_STREAM_BEGIN`] → [`OP_STREAM_DATA`]* →
//! [`OP_STREAM_END`]) carry a raw `.tmsb` byte stream, chunked however
//! the client likes; the server acknowledges each chunk
//! ([`OP_STREAM_ACK`]) only after the evaluation has fully consumed it
//! (stop-and-wait backpressure: at most one unacknowledged chunk is in
//! flight, so a slow query propagates to a slow sender instead of an
//! unbounded server buffer). See `PROTOCOL.md` for the normative spec.

use std::io::{ErrorKind, Read, Write};

use transmark_markov::codec::{ByteError, ByteReader, ByteWriter};

/// Leading bytes of the [`OP_HELLO`] payload.
pub const WIRE_MAGIC: [u8; 4] = *b"TMKP";
/// The newest protocol version this build speaks. Version 2 adds
/// wire-propagated trace context ([`FLAG_TRACE`]) and structured
/// profile returns; servers still accept [`WIRE_VERSION_MIN`] peers,
/// and HELLO_OK carries the negotiated (minimum of the two) version.
pub const WIRE_VERSION: u32 = 2;
/// The oldest protocol version this build still serves.
pub const WIRE_VERSION_MIN: u32 = 1;
/// Hard ceiling on a single frame's payload (64 MiB); larger
/// length-prefixes are treated as garbage, not allocation requests.
pub const MAX_FRAME: usize = 64 << 20;

// ---- Opcodes: client → server ---------------------------------------------

/// First frame on every connection: magic + version + tenant name.
pub const OP_HELLO: u8 = 0x01;
/// One self-contained query: kind, query text, output, sequence payload.
pub const OP_QUERY: u8 = 0x02;
/// Opens a streamed `.tmsb` session: kind, query text, output.
pub const OP_STREAM_BEGIN: u8 = 0x03;
/// One chunk of the streamed `.tmsb` byte stream (any chunking).
pub const OP_STREAM_DATA: u8 = 0x04;
/// Ends the streamed byte stream; the result frame follows.
pub const OP_STREAM_END: u8 = 0x05;
/// Requests a metrics snapshot (payload: 0 = text, 1 = JSON).
pub const OP_METRICS: u8 = 0x06;
/// Asks the server to shut down gracefully (acked, then drained).
pub const OP_SHUTDOWN: u8 = 0x07;
/// Inside a stream session, sent in place of a DATA frame (after an
/// ACK): asks the server to suspend the session to a checkpoint blob.
/// The server answers [`OP_CHECKPOINT`], then re-acks; the session
/// continues. Empty payload.
pub const OP_STREAM_CHECKPOINT: u8 = 0x08;

// ---- Opcodes: server → client ---------------------------------------------

/// Accepts the HELLO; payload: the negotiated protocol version — the
/// minimum of the client's and the server's ([`WIRE_VERSION`]). Both
/// sides must speak only that version's features for the rest of the
/// connection.
pub const OP_HELLO_OK: u8 = 0x81;
/// A query result (see the `RESULT_*` kinds).
pub const OP_RESULT: u8 = 0x82;
/// Acknowledges one fully-consumed stream chunk; payload: u64 LE total
/// bytes consumed so far.
pub const OP_STREAM_ACK: u8 = 0x83;
/// Acknowledges a shutdown request.
pub const OP_SHUTDOWN_OK: u8 = 0x84;
/// Answers [`OP_STREAM_CHECKPOINT`]: u64 LE layers consumed, then a
/// u32-length-prefixed opaque checkpoint blob. Present the blob to a
/// fresh session via [`FLAG_RESUME`] to continue where it left off.
pub const OP_CHECKPOINT: u8 = 0x85;
/// A typed failure: u16 LE error code + UTF-8 message.
pub const OP_ERROR: u8 = 0xFF;

// ---- Flags (second byte of QUERY / STREAM_BEGIN payloads) ------------------

/// Run the query under a query-scoped profiler; the RESULT carries the
/// rendered profile text.
pub const FLAG_PROFILE: u8 = 0x1;
/// STREAM_BEGIN only: the payload carries a checkpoint blob
/// ([`OP_CHECKPOINT`]) after the output string; the session resumes from
/// it, and DATA frames must start at the blob's recorded layer offset
/// (past the `.tmsb` prelude).
pub const FLAG_RESUME: u8 = 0x2;
/// Version ≥ 2 only: a u64 LE client-generated trace id follows the
/// flags byte (QUERY) or the window length (STREAM_BEGIN). The server
/// installs the id into the query's profiler so the capture it ships
/// back is stitchable to the client's; combined with [`FLAG_PROFILE`],
/// the RESULT's profile string is the structured JSON form
/// (`ExecutionProfile::to_json`) instead of rendered text. A client
/// MUST NOT set this flag when the negotiated version is 1.
pub const FLAG_TRACE: u8 = 0x4;

// ---- Query kinds -----------------------------------------------------------

/// `Pr(stream →[query]→ o)` — exact confidence of one output string.
pub const KIND_CONFIDENCE: u8 = 1;
/// Top-k answers by `E_max` with exact confidences.
pub const KIND_TOP_K: u8 = 2;
/// Prefix acceptance series of the query's underlying NFA.
pub const KIND_SERIES: u8 = 3;
/// Sliding-window series of the query's underlying NFA: the
/// STREAM_BEGIN payload gains a u32 window length after the flags byte,
/// and the RESULT is a series frame of per-position window
/// probabilities.
pub const KIND_WINDOW: u8 = 4;

// ---- Result kinds ----------------------------------------------------------

/// Payload: f64 LE bit pattern.
pub const RESULT_CONFIDENCE: u8 = 1;
/// Payload: u32 count, then per answer u32 len + len×u32 symbol ids +
/// f64 `E_max` + f64 confidence (all LE bit patterns).
pub const RESULT_TOP_K: u8 = 2;
/// Payload: u64 count + count×f64 LE bit patterns.
pub const RESULT_SERIES: u8 = 3;
/// Payload: UTF-8 text (metrics snapshots).
pub const RESULT_TEXT: u8 = 4;

// ---- Error codes -----------------------------------------------------------

/// Malformed frame or payload.
pub const ERR_BAD_FRAME: u16 = 1;
/// The peer speaks a protocol (or `.tmsb`) version this server does not;
/// the message names the newest supported version.
pub const ERR_VERSION: u16 = 2;
/// Admission control: the worker pool's bounded queue is full.
pub const ERR_SATURATED: u16 = 3;
/// The tenant named in HELLO is at its in-flight quota.
pub const ERR_QUOTA: u16 = 4;
/// The query itself failed (parse, alphabet mismatch, evaluation).
pub const ERR_QUERY: u16 = 5;
/// A frame arrived that this connection state does not allow.
pub const ERR_STATE: u16 = 6;
/// The server is shutting down.
pub const ERR_SHUTDOWN: u16 = 7;
/// A [`FLAG_RESUME`] checkpoint blob could not be decoded or belongs to
/// a different query.
pub const ERR_BAD_CHECKPOINT: u16 = 8;

/// One decoded frame: opcode plus owned payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's opcode (`OP_*`).
    pub op: u8,
    /// The frame's payload bytes.
    pub payload: Vec<u8>,
}

/// Errors of the wire layer itself (not query failures — those travel
/// as [`OP_ERROR`] frames).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed or closed mid-frame.
    Io(std::io::Error),
    /// The peer sent bytes that are not a well-formed frame.
    Malformed(String),
    /// The peer reported a typed failure ([`OP_ERROR`]).
    Remote {
        /// The `ERR_*` code.
        code: u16,
        /// The human-readable message.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A payload the codec refuses is a malformed frame.
impl From<ByteError> for WireError {
    fn from(e: ByteError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame and flushes it.
pub fn write_frame(w: &mut impl Write, op: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| WireError::Malformed("payload exceeds u32 length".into()))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[op])?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` means the peer closed cleanly *between*
/// frames; closing mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, WireError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        Eof::Clean => return Ok(None),
        Eof::Data => {}
    }
    read_frame_after_len(r, len_buf)
}

/// Finishes reading a frame whose 4-byte length prefix was already
/// consumed (the server peeks those bytes to sniff HTTP scrapes).
pub fn read_frame_after_len(
    r: &mut impl Read,
    len_buf: [u8; 4],
) -> Result<Option<Frame>, WireError> {
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte ceiling"
        )));
    }
    let mut op = [0u8; 1];
    r.read_exact(&mut op).map_err(|e| truncated("opcode", e))?;
    // Past its first `PAYLOAD_PREALLOC` bytes the buffer grows as payload
    // bytes arrive: a header that merely claims a large frame costs at
    // most that much.
    let mut payload = vec![0u8; len.min(PAYLOAD_PREALLOC)];
    r.read_exact(&mut payload)
        .map_err(|e| truncated("payload", e))?;
    let rest = len - payload.len();
    if rest > 0 {
        let got = r
            .take(rest as u64)
            .read_to_end(&mut payload)
            .map_err(|e| truncated("payload", e))?;
        if got < rest {
            return Err(truncated("payload", ErrorKind::UnexpectedEof.into()));
        }
    }
    Ok(Some(Frame { op: op[0], payload }))
}

/// Payload bytes allocated before any arrive (see
/// [`read_frame_after_len`]): a frame up to this size is read with one
/// `read_exact`, a larger one grows its buffer as the bytes come in.
const PAYLOAD_PREALLOC: usize = 64 << 10;

enum Eof {
    Clean,
    Data,
}

/// Fills `buf` completely, distinguishing "no bytes at all" (a clean
/// close between frames) from a mid-prefix cut.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<Eof, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(Eof::Clean),
            Ok(0) => {
                return Err(WireError::Malformed(format!(
                    "peer closed {filled} bytes into a frame's length prefix"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(Eof::Data)
}

fn truncated(what: &str, e: std::io::Error) -> WireError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        WireError::Malformed(format!("peer closed mid-frame (reading {what})"))
    } else {
        WireError::Io(e)
    }
}

/// Sends a typed [`OP_ERROR`] frame.
pub fn write_error(w: &mut impl Write, code: u16, message: &str) -> Result<(), WireError> {
    let payload = ByteWriter::with_capacity(2 + message.len())
        .u16(code)
        .raw(message.as_bytes())
        .finish();
    write_frame(w, OP_ERROR, &payload)
}

/// Parses an [`OP_ERROR`] payload into its code and message.
pub fn parse_error(payload: &[u8]) -> (u16, String) {
    let mut r = ByteReader::new(payload);
    match r.u16("error code") {
        Ok(code) => (code, String::from_utf8_lossy(r.rest()).into_owned()),
        Err(e) => (ERR_BAD_FRAME, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_QUERY, b"hello").unwrap();
        write_frame(&mut wire, OP_STREAM_END, b"").unwrap();
        let mut r = std::io::Cursor::new(&wire);
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            (f1.op, f1.payload.as_slice()),
            (OP_QUERY, b"hello".as_slice())
        );
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((f2.op, f2.payload.len()), (OP_STREAM_END, 0));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn mid_frame_close_is_malformed_not_clean() {
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_QUERY, b"payload").unwrap();
        // Cut inside the payload.
        let cut = &wire[..wire.len() - 3];
        let mut r = std::io::Cursor::new(cut);
        assert!(matches!(read_frame(&mut r), Err(WireError::Malformed(_))));
        // Cut inside the length prefix.
        let mut r = std::io::Cursor::new(&wire[..2]);
        assert!(matches!(read_frame(&mut r), Err(WireError::Malformed(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.push(OP_QUERY);
        let mut r = std::io::Cursor::new(&wire);
        assert!(matches!(read_frame(&mut r), Err(WireError::Malformed(_))));
    }

    #[test]
    fn ceiling_sized_header_with_a_short_payload_is_malformed() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        wire.push(OP_STREAM_DATA);
        wire.extend_from_slice(b"abc");
        let mut r = std::io::Cursor::new(&wire);
        assert!(matches!(read_frame(&mut r), Err(WireError::Malformed(_))));
        // A normal frame still round-trips through the growing buffer.
        let payload = vec![7u8; 3 * PAYLOAD_PREALLOC + 5];
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_STREAM_DATA, &payload).unwrap();
        let f = read_frame(&mut std::io::Cursor::new(&wire))
            .unwrap()
            .unwrap();
        assert_eq!((f.op, f.payload), (OP_STREAM_DATA, payload));
    }
}
