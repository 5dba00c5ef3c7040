//! A blocking `tmkp` client for [`tmk serve`](super): the counterpart
//! the CLI's `tmk client` subcommand and the serve test/bench suites
//! drive. One [`Client`] is one connection; queries are issued
//! sequentially on it. Results arrive as little-endian bit patterns, so
//! a decoded confidence is bit-identical to the in-process engine path.

use std::io::BufReader;
use std::net::TcpStream;

use transmark_markov::binio::read_prelude;
use transmark_markov::codec::{ByteReader, ByteWriter};

use super::protocol::{
    parse_error, read_frame, write_frame, Frame, WireError, FLAG_PROFILE, FLAG_RESUME, FLAG_TRACE,
    KIND_CONFIDENCE, KIND_SERIES, KIND_TOP_K, KIND_WINDOW, OP_CHECKPOINT, OP_ERROR, OP_HELLO,
    OP_HELLO_OK, OP_METRICS, OP_QUERY, OP_RESULT, OP_SHUTDOWN, OP_SHUTDOWN_OK, OP_STREAM_ACK,
    OP_STREAM_BEGIN, OP_STREAM_CHECKPOINT, OP_STREAM_DATA, OP_STREAM_END, RESULT_CONFIDENCE,
    RESULT_SERIES, RESULT_TEXT, RESULT_TOP_K, WIRE_MAGIC, WIRE_VERSION,
};

/// A sequence payload for self-contained queries: `.tms` text or
/// `.tmsb` bytes.
#[derive(Debug, Clone, Copy)]
pub enum Sequence<'a> {
    /// `markov-sequence v1` text (`.tms`).
    Text(&'a str),
    /// Binary `.tmsb` bytes.
    Binary(&'a [u8]),
}

/// One answer of a served top-k query. Symbol ids index the query's
/// output alphabet; scores are the engine's exact values, bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// The output string as symbol ids of the query's output alphabet.
    pub output: Vec<u32>,
    /// `E_max(output)`.
    pub emax: f64,
    /// Exact confidence.
    pub confidence: f64,
}

/// A suspended streamed session as handed back by the server: the number
/// of complete layers it had consumed plus an opaque state blob. Persist
/// it (e.g. with [`StreamCheckpoint::to_bytes`]) and a later session —
/// even on a fresh connection after a disconnect — can continue from it
/// bit-identically via [`StreamOptions::resume`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// Complete `.tmsb` layers the server had consumed.
    pub position: u64,
    /// The server's opaque session state. Empty means the server had
    /// made no progress yet: resuming it is starting over.
    pub blob: Vec<u8>,
}

impl StreamCheckpoint {
    /// No server progress: resuming this streams from scratch.
    pub fn is_empty(&self) -> bool {
        self.blob.is_empty()
    }

    /// Serializes for a checkpoint file: 8-byte LE position, then the
    /// opaque blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        ByteWriter::with_capacity(8 + self.blob.len())
            .u64(self.position)
            .raw(&self.blob)
            .finish()
    }

    /// Inverse of [`StreamCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<StreamCheckpoint, WireError> {
        let mut r = ByteReader::new(bytes);
        Ok(StreamCheckpoint {
            position: r.u64("checkpoint file position")?,
            blob: r.rest().to_vec(),
        })
    }
}

/// Checkpoint/resume behavior for a streamed session. The default is the
/// plain fire-and-forget stream.
#[derive(Default)]
pub struct StreamOptions<'a> {
    /// Ask the server for a checkpoint after every `n` DATA chunks
    /// (`None` = never). Each arriving checkpoint is handed to
    /// [`StreamOptions::on_checkpoint`].
    pub checkpoint_every: Option<usize>,
    /// Invoked with every checkpoint the server returns; persist the
    /// latest one to survive disconnects.
    pub on_checkpoint: Option<&'a mut dyn FnMut(&StreamCheckpoint)>,
    /// Continue a suspended session instead of starting fresh. The local
    /// `.tmsb` bytes must be the same ones the original session streamed:
    /// the client slices them at the checkpoint's layer offset. An empty
    /// checkpoint falls back to a fresh stream.
    pub resume: Option<&'a StreamCheckpoint>,
}

/// A decoded query result plus the optional per-query profile text.
#[derive(Debug, Clone)]
pub struct Response<T> {
    /// The decoded result value.
    pub value: T,
    /// The server-side profile ([`Engine::profiled`](crate::Engine::profiled)
    /// rendering: text, or
    /// [`ExecutionProfile::to_json`](transmark_obs::ExecutionProfile::to_json) when the request
    /// carried a trace id), when the query asked for one.
    pub profile: Option<String>,
    /// Nanoseconds since the *client* profiler's epoch at which the
    /// request frame was written — `Some` only when a profiler was
    /// recording. This is the time offset at which a wire-traced remote
    /// profile merges into the local one
    /// ([`ExecutionProfile::merge_remote`](transmark_obs::ExecutionProfile::merge_remote)).
    pub sent_at_ns: Option<u64>,
}

/// A connected `tmkp` client (HELLO already exchanged).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Negotiated protocol version (the minimum of both peers').
    version: u32,
    /// Trace id attached to subsequent requests (0 = none); only sent
    /// on the wire when the negotiated version supports it.
    trace_id: u64,
}

impl Client {
    /// Connects to `addr` and performs the HELLO handshake under
    /// `tenant` (empty = `"anonymous"`).
    pub fn connect(addr: &str, tenant: &str) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        // The stream session is stop-and-wait: Nagle + delayed ACK would
        // add a round-trip stall per chunk.
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            version: WIRE_VERSION,
            trace_id: 0,
        };
        let hello = ByteWriter::new()
            .raw(&WIRE_MAGIC)
            .u32(WIRE_VERSION)
            .str(tenant)
            .finish();
        write_frame(&mut client.writer, OP_HELLO, &hello)?;
        let frame = client.read_reply()?;
        if frame.op != OP_HELLO_OK {
            return Err(WireError::Malformed(format!(
                "expected HELLO_OK, got opcode {:#04x}",
                frame.op
            )));
        }
        client.version = ByteReader::new(&frame.payload).u32("negotiated version")?;
        Ok(client)
    }

    /// The protocol version negotiated at HELLO (the minimum of both
    /// peers'). Trace context requires version ≥ 2.
    pub fn negotiated_version(&self) -> u32 {
        self.version
    }

    /// Attaches a trace id to every subsequent request (0 clears it).
    /// Against a version-1 server the id is silently not sent — the
    /// queries still run, just without cross-process stitching.
    pub fn set_trace(&mut self, trace_id: u64) {
        self.trace_id = trace_id;
    }

    /// The trace id that will actually go on the wire.
    fn effective_trace(&self) -> u64 {
        if self.version >= 2 {
            self.trace_id
        } else {
            0
        }
    }

    /// Reads one frame, converting [`OP_ERROR`] into
    /// [`WireError::Remote`] and clean close into an error (a reply was
    /// expected).
    fn read_reply(&mut self) -> Result<Frame, WireError> {
        match read_frame(&mut self.reader)? {
            Some(f) if f.op == OP_ERROR => {
                let (code, message) = parse_error(&f.payload);
                Err(WireError::Remote { code, message })
            }
            Some(f) => Ok(f),
            None => Err(WireError::Malformed(
                "server closed before replying".to_string(),
            )),
        }
    }

    fn query_payload(
        &self,
        kind: u8,
        profile: bool,
        k: u32,
        query: &str,
        output: &str,
        seq: &Sequence<'_>,
    ) -> Vec<u8> {
        let trace_id = self.effective_trace();
        let mut flags = 0u8;
        if profile {
            flags |= FLAG_PROFILE;
        }
        if trace_id != 0 {
            flags |= FLAG_TRACE;
        }
        let mut w = ByteWriter::new();
        w.u8(kind).u8(flags);
        if trace_id != 0 {
            w.u64(trace_id);
        }
        w.u32(k).str(query).str(output);
        match seq {
            Sequence::Text(text) => w.u8(0).bytes(text.as_bytes()),
            Sequence::Binary(bytes) => w.u8(1).bytes(bytes),
        }
        .finish()
    }

    /// Issues one self-contained query and returns the raw RESULT
    /// payload (result kind + body + profile) plus the profiler
    /// timestamp at which the request was written (when recording).
    fn query(&mut self, payload: &[u8]) -> Result<(Vec<u8>, Option<u64>), WireError> {
        // On a profiled run the round trip shows up as one span on the
        // client lane; the server's own lanes slot in under it once the
        // remote profile is merged at `sent_at_ns`.
        let _span = transmark_obs::span::enter("client.request");
        let sent_at_ns = transmark_obs::profile::now_ns();
        write_frame(&mut self.writer, OP_QUERY, payload)?;
        let frame = self.read_reply()?;
        if frame.op != OP_RESULT {
            return Err(WireError::Malformed(format!(
                "expected RESULT, got opcode {:#04x}",
                frame.op
            )));
        }
        Ok((frame.payload, sent_at_ns))
    }

    /// `Pr(sequence →[query]→ output)` — exact confidence of one output
    /// string (space-separated symbol names).
    pub fn confidence(
        &mut self,
        query: &str,
        seq: &Sequence<'_>,
        output: &str,
        profile: bool,
    ) -> Result<Response<f64>, WireError> {
        let payload = self.query_payload(KIND_CONFIDENCE, profile, 0, query, output, seq);
        let (result, sent_at_ns) = self.query(&payload)?;
        let mut r = decode_result(&result, RESULT_CONFIDENCE, |r| Ok(r.f64("confidence")?))?;
        r.sent_at_ns = sent_at_ns;
        Ok(r)
    }

    /// Top-k answers by `E_max` with exact confidences.
    pub fn top_k(
        &mut self,
        query: &str,
        seq: &Sequence<'_>,
        k: u32,
        profile: bool,
    ) -> Result<Response<Vec<WireAnswer>>, WireError> {
        let payload = self.query_payload(KIND_TOP_K, profile, k, query, "", seq);
        let (result, sent_at_ns) = self.query(&payload)?;
        let mut r = decode_result(&result, RESULT_TOP_K, decode_answers)?;
        r.sent_at_ns = sent_at_ns;
        Ok(r)
    }

    /// The prefix acceptance series of the query's underlying NFA.
    pub fn series(
        &mut self,
        query: &str,
        seq: &Sequence<'_>,
        profile: bool,
    ) -> Result<Response<Vec<f64>>, WireError> {
        let payload = self.query_payload(KIND_SERIES, profile, 0, query, "", seq);
        let (result, sent_at_ns) = self.query(&payload)?;
        let mut r = decode_result(&result, RESULT_SERIES, decode_series)?;
        r.sent_at_ns = sent_at_ns;
        Ok(r)
    }

    /// Streams `.tmsb` bytes in `chunk`-sized DATA frames under
    /// stop-and-wait acks and returns the confidence of `output`. The
    /// server runs the same forward-only
    /// [`SourceBoundQuery`](transmark_core::plan::SourceBoundQuery) pass
    /// a local `.tmsb` file would get.
    pub fn stream_confidence(
        &mut self,
        query: &str,
        output: &str,
        tmsb: &[u8],
        chunk: usize,
    ) -> Result<Response<f64>, WireError> {
        self.stream_confidence_with(query, output, tmsb, chunk, StreamOptions::default())
    }

    /// [`Client::stream_confidence`] with checkpoint/resume control.
    pub fn stream_confidence_with(
        &mut self,
        query: &str,
        output: &str,
        tmsb: &[u8],
        chunk: usize,
        opts: StreamOptions<'_>,
    ) -> Result<Response<f64>, WireError> {
        let (result, sent_at_ns) =
            self.stream(KIND_CONFIDENCE, query, output, 0, tmsb, chunk, opts)?;
        let mut r = decode_result(&result, RESULT_CONFIDENCE, |r| Ok(r.f64("confidence")?))?;
        r.sent_at_ns = sent_at_ns;
        Ok(r)
    }

    /// Streamed counterpart of [`Client::series`].
    pub fn stream_series(
        &mut self,
        query: &str,
        tmsb: &[u8],
        chunk: usize,
    ) -> Result<Response<Vec<f64>>, WireError> {
        self.stream_series_with(query, tmsb, chunk, StreamOptions::default())
    }

    /// [`Client::stream_series`] with checkpoint/resume control.
    pub fn stream_series_with(
        &mut self,
        query: &str,
        tmsb: &[u8],
        chunk: usize,
        opts: StreamOptions<'_>,
    ) -> Result<Response<Vec<f64>>, WireError> {
        let (result, sent_at_ns) = self.stream(KIND_SERIES, query, "", 0, tmsb, chunk, opts)?;
        let mut r = decode_result(&result, RESULT_SERIES, decode_series)?;
        r.sent_at_ns = sent_at_ns;
        Ok(r)
    }

    /// Streams a sliding-window acceptance query: the returned series
    /// holds, per position, the probability the last `window` symbols
    /// land in the query's language (the server evaluates it with one
    /// operator composition per tick, never rewinding).
    pub fn stream_window(
        &mut self,
        query: &str,
        tmsb: &[u8],
        window: u32,
        chunk: usize,
        opts: StreamOptions<'_>,
    ) -> Result<Response<Vec<f64>>, WireError> {
        let (result, sent_at_ns) =
            self.stream(KIND_WINDOW, query, "", window, tmsb, chunk, opts)?;
        let mut r = decode_result(&result, RESULT_SERIES, decode_series)?;
        r.sent_at_ns = sent_at_ns;
        Ok(r)
    }

    /// Runs one streamed session: BEGIN, then one DATA chunk per ACK,
    /// then END, then the RESULT. At most one unacknowledged chunk is
    /// ever in flight. With [`StreamOptions::checkpoint_every`], every
    /// n-th ack is answered with a checkpoint request instead of data;
    /// the server replies with its suspended state (forwarded to
    /// [`StreamOptions::on_checkpoint`]) and re-acks. With
    /// [`StreamOptions::resume`], BEGIN carries the prior state and the
    /// data restarts at the first unconsumed layer.
    #[allow(clippy::too_many_arguments)]
    fn stream(
        &mut self,
        kind: u8,
        query: &str,
        output: &str,
        window: u32,
        tmsb: &[u8],
        chunk: usize,
        mut opts: StreamOptions<'_>,
    ) -> Result<(Vec<u8>, Option<u64>), WireError> {
        let chunk = chunk.max(1);
        let resume = opts.resume.filter(|ck| !ck.is_empty());
        let trace_id = self.effective_trace();
        let mut flags = if resume.is_some() { FLAG_RESUME } else { 0 };
        if trace_id != 0 {
            // A traced stream wants the server timeline back for
            // merging, so the trace flag implies the profile flag.
            flags |= FLAG_TRACE | FLAG_PROFILE;
        }
        let mut w = ByteWriter::new();
        w.u8(kind).u8(flags);
        if kind == KIND_WINDOW {
            w.u32(window);
        }
        if trace_id != 0 {
            w.u64(trace_id);
        }
        w.str(query).str(output);
        if let Some(ck) = resume {
            w.bytes(&ck.blob);
        }
        let _span = transmark_obs::span::enter("client.stream");
        let sent_at_ns = transmark_obs::profile::now_ns();
        write_frame(&mut self.writer, OP_STREAM_BEGIN, &w.finish())?;

        // On resume the server rebuilds its layer reader from the
        // checkpoint, so the wire skips the prelude and every layer it
        // already consumed.
        let mut sent = match resume {
            Some(ck) => layer_byte_offset(tmsb, ck.position)?,
            None => 0,
        };
        let mut end_sent = false;
        let mut since_checkpoint = 0usize;
        let mut awaiting_checkpoint = false;
        loop {
            let frame = match read_frame(&mut self.reader)? {
                Some(f) => f,
                None => {
                    return Err(WireError::Malformed(
                        "server closed mid-session".to_string(),
                    ))
                }
            };
            match frame.op {
                OP_STREAM_ACK => {
                    let want_checkpoint = opts
                        .checkpoint_every
                        .is_some_and(|n| since_checkpoint >= n.max(1));
                    if sent < tmsb.len() && want_checkpoint && !awaiting_checkpoint {
                        write_frame(&mut self.writer, OP_STREAM_CHECKPOINT, &[])?;
                        since_checkpoint = 0;
                        awaiting_checkpoint = true;
                    } else if sent < tmsb.len() {
                        let n = chunk.min(tmsb.len() - sent);
                        write_frame(&mut self.writer, OP_STREAM_DATA, &tmsb[sent..sent + n])?;
                        sent += n;
                        since_checkpoint += 1;
                    } else if !end_sent {
                        write_frame(&mut self.writer, OP_STREAM_END, &[])?;
                        end_sent = true;
                    } else {
                        return Err(WireError::Malformed("ack after stream end".to_string()));
                    }
                }
                OP_CHECKPOINT => {
                    if !awaiting_checkpoint {
                        return Err(WireError::Malformed(
                            "unsolicited checkpoint frame".to_string(),
                        ));
                    }
                    awaiting_checkpoint = false;
                    let ck = decode_checkpoint(&frame.payload)?;
                    if let Some(cb) = opts.on_checkpoint.as_mut() {
                        cb(&ck);
                    }
                    // The server re-acks next; the loop continues.
                }
                OP_RESULT => return Ok((frame.payload, sent_at_ns)),
                OP_ERROR => {
                    let (code, message) = parse_error(&frame.payload);
                    // The server drains to STREAM_END before continuing;
                    // close our half of the session if still open.
                    if !end_sent {
                        let _ = write_frame(&mut self.writer, OP_STREAM_END, &[]);
                    }
                    return Err(WireError::Remote { code, message });
                }
                other => {
                    return Err(WireError::Malformed(format!(
                        "unexpected opcode {other:#04x} during stream session"
                    )))
                }
            }
        }
    }

    /// Fetches the server's metrics snapshot (diffed against its start
    /// baseline) as text or JSON.
    pub fn metrics(&mut self, json: bool) -> Result<String, WireError> {
        self.metrics_format(if json { 1 } else { 0 })
    }

    /// [`Client::metrics`] with the raw format byte: `0` text, `1`
    /// JSON, `2` Prometheus exposition.
    pub fn metrics_format(&mut self, format: u8) -> Result<String, WireError> {
        let payload = [format];
        write_frame(&mut self.writer, OP_METRICS, &payload)?;
        let frame = self.read_reply()?;
        if frame.op != OP_RESULT {
            return Err(WireError::Malformed(format!(
                "expected RESULT, got opcode {:#04x}",
                frame.op
            )));
        }
        let mut r = ByteReader::new(&frame.payload);
        let kind = r.u8("result kind")?;
        if kind != RESULT_TEXT {
            return Err(WireError::Malformed(format!(
                "expected text result, got kind {kind}"
            )));
        }
        Ok(String::from_utf8_lossy(r.rest()).into_owned())
    }

    /// Asks the server to shut down gracefully; returns once it acks.
    pub fn shutdown(&mut self) -> Result<(), WireError> {
        write_frame(&mut self.writer, OP_SHUTDOWN, &[])?;
        let frame = self.read_reply()?;
        if frame.op != OP_SHUTDOWN_OK {
            return Err(WireError::Malformed(format!(
                "expected SHUTDOWN_OK, got opcode {:#04x}",
                frame.op
            )));
        }
        Ok(())
    }
}

/// Translates a checkpoint's layer position into a byte offset of the
/// local `.tmsb` bytes (prelude + `position` complete layers).
fn layer_byte_offset(tmsb: &[u8], position: u64) -> Result<usize, WireError> {
    let mut r = tmsb;
    let prelude = read_prelude(&mut r)
        .map_err(|e| WireError::Malformed(format!("local .tmsb bytes: {e}")))?;
    let off = prelude.layer_offset(position);
    if off > tmsb.len() as u64 {
        return Err(WireError::Malformed(format!(
            "checkpoint position {position} lies beyond the local .tmsb data"
        )));
    }
    Ok(off as usize)
}

/// Decodes an [`OP_CHECKPOINT`] payload: the layers consumed, then the
/// length-prefixed blob.
fn decode_checkpoint(payload: &[u8]) -> Result<StreamCheckpoint, WireError> {
    let mut r = ByteReader::new(payload);
    let position = r.u64("checkpoint position")?;
    let blob = r.bytes("checkpoint blob")?.to_vec();
    r.finish("checkpoint blob")?;
    Ok(StreamCheckpoint { position, blob })
}

/// Decodes a RESULT payload: checks the result kind, decodes the body
/// with `f`, and splits off the trailing profile text.
fn decode_result<T>(
    payload: &[u8],
    expected_kind: u8,
    f: impl FnOnce(&mut ByteReader<'_>) -> Result<T, WireError>,
) -> Result<Response<T>, WireError> {
    let mut r = ByteReader::new(payload);
    let kind = r.u8("result kind")?;
    if kind != expected_kind {
        return Err(WireError::Malformed(format!(
            "expected result kind {expected_kind}, got {kind}"
        )));
    }
    let value = f(&mut r)?;
    let profile = r.str("profile")?;
    r.finish("profile")?;
    Ok(Response {
        value,
        profile: (!profile.is_empty()).then(|| profile.to_string()),
        sent_at_ns: None,
    })
}

fn decode_answers(r: &mut ByteReader<'_>) -> Result<Vec<WireAnswer>, WireError> {
    // An answer is at least its output length, `E_max` and confidence.
    let count = r.count_u32(4 + 8 + 8, "answers")?;
    let mut answers = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.count_u32(4, "output symbols")?;
        let mut output = Vec::with_capacity(len);
        for _ in 0..len {
            output.push(r.u32("output symbol")?);
        }
        answers.push(WireAnswer {
            output,
            emax: r.f64("emax")?,
            confidence: r.f64("confidence")?,
        });
    }
    Ok(answers)
}

fn decode_series(r: &mut ByteReader<'_>) -> Result<Vec<f64>, WireError> {
    let count = r.count_u64(8, "series values")?;
    Ok(r.f64s(count, "series values")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that `decode` refuses every cut of `payload` short of its
    /// whole, and the whole plus one byte, with [`WireError::Malformed`],
    /// and accepts the whole.
    fn refuses_every_cut<T>(payload: &[u8], decode: impl Fn(&[u8]) -> Result<T, WireError>) {
        assert!(decode(payload).is_ok(), "the whole payload decodes");
        let long = [payload, &[0]].concat();
        assert!(matches!(decode(&long), Err(WireError::Malformed(_))));
        for cut in 0..payload.len() {
            assert!(
                matches!(decode(&payload[..cut]), Err(WireError::Malformed(_))),
                "cut at byte {cut} of {}",
                payload.len()
            );
        }
    }

    /// A RESULT payload as the server writes it: kind, body, profile.
    fn result(kind: u8, body: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(kind);
        body(&mut w);
        w.str("profile text").finish()
    }

    #[test]
    fn result_decoders_refuse_every_truncation() {
        let confidence = result(RESULT_CONFIDENCE, |w| {
            w.f64(0.4038);
        });
        refuses_every_cut(&confidence, |p| {
            decode_result(p, RESULT_CONFIDENCE, |r| Ok(r.f64("confidence")?))
        });
        let answers = result(RESULT_TOP_K, |w| {
            w.u32(2);
            for (output, p) in [(&[1u32, 2][..], 0.3969), (&[][..], 0.25)] {
                w.u32(output.len() as u32);
                for &s in output {
                    w.u32(s);
                }
                w.f64(p).f64(p + 0.01);
            }
        });
        refuses_every_cut(&answers, |p| decode_result(p, RESULT_TOP_K, decode_answers));
        let series = result(RESULT_SERIES, |w| {
            w.u64(3).f64(0.25).f64(0.5).f64(0.8180000000000001);
        });
        refuses_every_cut(&series, |p| decode_result(p, RESULT_SERIES, decode_series));
        let decoded = decode_result(&series, RESULT_SERIES, decode_series).unwrap();
        assert_eq!(decoded.value, [0.25, 0.5, 0.8180000000000001]);
        assert_eq!(decoded.profile.as_deref(), Some("profile text"));
    }

    /// An answer or series count past what the payload holds is refused
    /// before anything is reserved for it.
    #[test]
    fn result_counts_reserve_only_what_the_payload_backs() {
        let answers = result(RESULT_TOP_K, |w| {
            w.u32(u32::MAX);
        });
        assert!(decode_result(&answers, RESULT_TOP_K, decode_answers).is_err());
        let series = result(RESULT_SERIES, |w| {
            w.u64(u64::MAX);
        });
        assert!(decode_result(&series, RESULT_SERIES, decode_series).is_err());
    }

    #[test]
    fn checkpoint_frame_and_file_refuse_every_truncation() {
        let ck = StreamCheckpoint {
            position: 3,
            blob: b"TMKC opaque state".to_vec(),
        };
        let frame = ByteWriter::new().u64(ck.position).bytes(&ck.blob).finish();
        refuses_every_cut(&frame, decode_checkpoint);
        assert_eq!(decode_checkpoint(&frame).unwrap(), ck);

        // The file is the position, then the blob to its end: a cut inside
        // the position is refused, and a cut inside the blob leaves a
        // shorter opaque blob, which the server refuses on resume.
        let file = ck.to_bytes();
        assert_eq!(StreamCheckpoint::from_bytes(&file).unwrap(), ck);
        for cut in 0..file.len() {
            match StreamCheckpoint::from_bytes(&file[..cut]) {
                Err(WireError::Malformed(_)) => assert!(cut < 8, "cut at byte {cut}"),
                Ok(got) => {
                    assert!(cut >= 8, "cut at byte {cut}");
                    assert_eq!((got.position, &got.blob[..]), (3, &ck.blob[..cut - 8]));
                }
                Err(other) => panic!("cut at byte {cut}: {other}"),
            }
        }
    }
}
