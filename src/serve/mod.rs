//! `tmk serve`: the engine as a persistent query service.
//!
//! One process, process-lifetime resources, many connections. The
//! ownership ladder (see DESIGN.md "Service layer"):
//!
//! * **process** — the [`Engine`] (and its LRU
//!   [`PlanCache`](transmark_store::PlanCache)), the
//!   [`WorkerPool`] draining connections,
//!   the obs registry, and the metrics baseline;
//! * **per connection** — one pool worker running the frame loop, the
//!   tenant identity from HELLO, stream buffers;
//! * **per query** — bound plans, layer buffers, the optional
//!   query-scoped profiler [`Recorder`].
//!
//! The wire format is the length-prefixed `tmkp` protocol
//! ([`protocol`]); a connection whose first bytes are `GET ` is served
//! as a plain HTTP/1.1 metrics scrape instead (`/metrics`,
//! `/metrics.json`, `/metrics.prom`). Admission control is the pool's
//! bounded queue
//! (typed [`protocol::ERR_SATURATED`] at the door);
//! per-tenant fairness is an in-flight quota keyed by the HELLO tenant
//! name. Streamed `.tmsb` sessions drive an incremental core
//! [`StreamSession`](transmark_core::incremental::StreamSession)
//! (confidence, event series or sliding window), opened by a
//! [`StreamQuery`], layer by layer with stop-and-wait backpressure —
//! server memory stays O(|Σ|² + one chunk) no matter how long the
//! sequence is — and the client can suspend any session to an opaque
//! checkpoint blob ([`protocol::OP_STREAM_CHECKPOINT`]) and resume it
//! later, even on a different connection ([`protocol::FLAG_RESUME`]).

pub mod client;
pub mod protocol;

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use transmark_automata::SymbolId;
use transmark_core::error::EngineError;
use transmark_core::incremental::{SlidingWindowQuery, StreamQuery};
use transmark_core::transducer::Transducer;
use transmark_markov::binio::{read_prelude, RawLayerReader};
use transmark_markov::{MarkovSequence, SourceError};
use transmark_obs::log::RecordKind;
use transmark_obs::{ExecutionProfile, Recorder};
use transmark_store::{PoolError, WorkerPool};

use crate::facade::Engine;
use protocol::{
    read_frame, read_frame_after_len, write_error, write_frame, Cursor, Frame, PayloadBuilder,
    WireError, ERR_BAD_CHECKPOINT, ERR_BAD_FRAME, ERR_QUERY, ERR_QUOTA, ERR_SATURATED, ERR_STATE,
    ERR_VERSION, FLAG_PROFILE, FLAG_RESUME, FLAG_TRACE, KIND_CONFIDENCE, KIND_SERIES, KIND_TOP_K,
    KIND_WINDOW, OP_CHECKPOINT, OP_HELLO, OP_HELLO_OK, OP_METRICS, OP_QUERY, OP_RESULT,
    OP_SHUTDOWN, OP_SHUTDOWN_OK, OP_STREAM_ACK, OP_STREAM_BEGIN, OP_STREAM_CHECKPOINT,
    OP_STREAM_DATA, OP_STREAM_END, RESULT_CONFIDENCE, RESULT_SERIES, RESULT_TEXT, RESULT_TOP_K,
    WIRE_MAGIC, WIRE_VERSION, WIRE_VERSION_MIN,
};

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Pool worker threads (`0` = one per core).
    pub threads: usize,
    /// Bounded backlog of accepted-but-unhandled connections; beyond it
    /// new connections are refused with a typed saturation error.
    pub queue_cap: usize,
    /// Max concurrent in-flight queries per tenant (HELLO name).
    pub tenant_quota: usize,
    /// Plan-cache capacity of the server's process-lifetime [`Engine`].
    pub plan_capacity: usize,
    /// Slow-query threshold in milliseconds: any query (unary or
    /// streamed) whose wall time meets it is recorded in the structured
    /// event log with its plan explain and phase timings. `None`
    /// disables the slow-query log (and its always-on profiling).
    pub slow_ms: Option<u64>,
    /// Structured event-log sink: `Some("-")` drains
    /// [`transmark_obs::log`] to stderr as JSON lines, any other value
    /// is a file path. `None` leaves records in the in-process ring for
    /// tests and embedders to drain themselves.
    pub log: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_cap: 64,
            tenant_quota: 4,
            plan_capacity: transmark_store::DEFAULT_PLAN_CACHE_CAP,
            slow_ms: None,
            log: None,
        }
    }
}

struct Shared {
    engine: Arc<Engine>,
    addr: SocketAddr,
    stop: AtomicBool,
    tenant_quota: usize,
    slow_ms: Option<u64>,
    tenants: Mutex<HashMap<String, usize>>,
    /// Read-half clones of live connections, closed on shutdown so
    /// handlers blocked in `read` unblock and drain.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    /// Latches the stop flag, unblocks every parked connection read, and
    /// wakes the accept loop. Responses in flight still flush: only the
    /// read half of each connection is shut down.
    fn trigger_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, s) in self
            .conns
            .lock()
            .expect("conn registry lock is not poisoned")
            .drain()
        {
            let _ = s.shutdown(Shutdown::Read);
        }
        // A throwaway connection unblocks `TcpListener::accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running `tmk serve` instance: accept loop + worker pool + shared
/// process-lifetime [`Engine`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
    /// Event-log drain thread (`--log`): stopped *after* the pool has
    /// drained so records published by in-flight work are not lost.
    log_stop: Arc<AtomicBool>,
    log_drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the accept loop, and returns. The
    /// server runs until [`Server::shutdown`] or a client sends
    /// [`OP_SHUTDOWN`].
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(Engine::with_plan_capacity(config.plan_capacity));
        let shared = Arc::new(Shared {
            engine,
            addr,
            stop: AtomicBool::new(false),
            tenant_quota: config.tenant_quota.max(1),
            slow_ms: config.slow_ms,
            tenants: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let pool = Arc::new(WorkerPool::named("serve", config.threads, config.queue_cap));
        let log_stop = Arc::new(AtomicBool::new(false));
        let log_drain = match &config.log {
            Some(target) => Some(spawn_log_drain(target, Arc::clone(&log_stop))?),
            None => None,
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("tmk-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &pool))?
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            pool: Some(pool),
            log_stop,
            log_drain,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's process-lifetime engine (plan cache + metrics
    /// baseline), shared with every connection.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Blocks until some client requests shutdown ([`OP_SHUTDOWN`]), then
    /// drains workers and returns.
    pub fn wait(mut self) {
        self.finish();
    }

    /// Initiates a graceful shutdown (stop accepting, unblock parked
    /// reads, drain in-flight work, join every thread) and blocks until
    /// it completes.
    pub fn shutdown(mut self) {
        self.shared.trigger_stop();
        self.finish();
    }

    fn finish(&mut self) {
        if let Some(h) = self.accept.take() {
            h.join().expect("accept loop does not panic");
        }
        // The accept thread has dropped its pool handle; dropping ours
        // drains the queue and joins the workers.
        if let Some(pool) = self.pool.take() {
            drop(pool);
        }
        // Only now — with every in-flight request finished — is the
        // event log quiescent; the drain thread flushes the tail.
        self.log_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.log_drain.take() {
            h.join().expect("log drain loop does not panic");
        }
    }
}

/// Spawns the `--log` drain thread: polls the process-global event ring
/// and appends each record as one JSON line to stderr (`"-"`) or the
/// given file. A final drain after `stop` flips catches the tail.
fn spawn_log_drain(
    target: &str,
    stop: Arc<AtomicBool>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let mut out: Box<dyn Write + Send> = if target == "-" {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::fs::File::create(target)?)
    };
    std::thread::Builder::new()
        .name("tmk-log".to_string())
        .spawn(move || loop {
            let records = transmark_obs::log::drain();
            for r in &records {
                let _ = writeln!(out, "{}", r.to_json_line());
            }
            if !records.is_empty() {
                let _ = out.flush();
            }
            if stop.load(Ordering::SeqCst) {
                for r in transmark_obs::log::drain() {
                    let _ = writeln!(out, "{}", r.to_json_line());
                }
                let _ = out.flush();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.trigger_stop();
        self.finish();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, pool: &Arc<WorkerPool>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        transmark_obs::counter!("serve.connections").inc();
        // Acks and small result frames must not sit in Nagle's buffer:
        // the stream session is stop-and-wait, so every stall is a full
        // round trip added to each chunk.
        let _ = stream.set_nodelay(true);
        // A clone for the shutdown path (close parked reads) and one for
        // rejecting at the door if the pool is saturated.
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .expect("conn registry lock is not poisoned")
                .insert(conn_id, clone);
        }
        let reject_handle = stream.try_clone();
        let job_shared = Arc::clone(shared);
        // Started here, read when a worker picks the job up: the gap is
        // the pool queue wait, surfaced as a leading lane in wire-traced
        // profiles so clients see where the latency went.
        let queued = transmark_obs::Timer::start();
        let submitted = pool.try_execute(move || {
            let queue_wait_ns = queued.elapsed_ns();
            handle_connection(stream, &job_shared, conn_id, queue_wait_ns)
        });
        match submitted {
            Ok(()) => {}
            Err(PoolError::Saturated) => {
                transmark_obs::counter!("serve.rejected.admission").inc();
                transmark_obs::log::publish(
                    RecordKind::RejectSaturated,
                    "",
                    "connection shed at admission: pool queue full",
                    0,
                );
                if let Ok(mut s) = reject_handle {
                    let _ =
                        write_error(&mut s, ERR_SATURATED, "server is at capacity, retry later");
                }
                deregister(shared, conn_id);
            }
            Err(PoolError::ShuttingDown) => {
                deregister(shared, conn_id);
                break;
            }
        }
    }
}

fn deregister(shared: &Shared, conn_id: u64) {
    shared
        .conns
        .lock()
        .expect("conn registry lock is not poisoned")
        .remove(&conn_id);
}

/// Holds one in-flight slot of a tenant's quota; releases it on drop.
struct TenantSlot<'a> {
    shared: &'a Shared,
    tenant: String,
}

fn admit<'a>(shared: &'a Shared, tenant: &str) -> Result<TenantSlot<'a>, ()> {
    let mut tenants = shared
        .tenants
        .lock()
        .expect("tenant table lock is not poisoned");
    let n = tenants.entry(tenant.to_string()).or_insert(0);
    if *n >= shared.tenant_quota {
        transmark_obs::counter!("serve.rejected.quota").inc();
        transmark_obs::log::publish(
            RecordKind::RejectQuota,
            tenant,
            "in-flight quota reached",
            0,
        );
        return Err(());
    }
    *n += 1;
    Ok(TenantSlot {
        shared,
        tenant: tenant.to_string(),
    })
}

impl Drop for TenantSlot<'_> {
    fn drop(&mut self) {
        let mut tenants = self
            .shared
            .tenants
            .lock()
            .expect("tenant table lock is not poisoned");
        if let Some(n) = tenants.get_mut(&self.tenant) {
            *n -= 1;
            if *n == 0 {
                tenants.remove(&self.tenant);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, conn_id: u64, queue_wait_ns: u64) {
    run_connection(stream, shared, queue_wait_ns);
    deregister(shared, conn_id);
}

fn run_connection(stream: TcpStream, shared: &Arc<Shared>, queue_wait_ns: u64) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    // Sniff the first four bytes: an HTTP scrape ("GET ") or a frame's
    // length prefix.
    let mut first4 = [0u8; 4];
    if read_fully(&mut reader, &mut first4).is_err() {
        return;
    }
    if first4 == *b"GET " {
        serve_http(&mut reader, &mut writer, shared);
        return;
    }

    // Frame mode: HELLO first.
    let (tenant, version) = match hello(&mut reader, &mut writer, first4) {
        Some(t) => t,
        None => return,
    };
    let ctx = QueryCtx {
        tenant: &tenant,
        version,
        queue_wait_ns,
        slow_ms: shared.slow_ms,
    };

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(WireError::Malformed(m)) => {
                let _ = write_error(&mut writer, ERR_BAD_FRAME, &m);
                return;
            }
            Err(_) => return,
        };
        let t = transmark_obs::Timer::start();
        let keep_going = match frame.op {
            OP_QUERY => handle_query(&mut writer, shared, &ctx, &frame.payload),
            OP_STREAM_BEGIN => {
                handle_stream(&mut reader, &mut writer, shared, &ctx, &frame.payload)
            }
            OP_METRICS => {
                transmark_obs::counter!("serve.requests", tenant = tenant, kind = "metrics").inc();
                handle_metrics(&mut writer, shared, &frame.payload)
            }
            OP_SHUTDOWN => {
                let _ = write_frame(&mut writer, OP_SHUTDOWN_OK, &[]);
                shared.trigger_stop();
                false
            }
            other => {
                let _ = write_error(
                    &mut writer,
                    ERR_STATE,
                    &format!("unexpected opcode {other:#04x}"),
                );
                false
            }
        };
        t.observe(transmark_obs::histogram!("serve.request_ns"));
        if !keep_going || shared.stop.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Validates the HELLO frame; returns the tenant name and the
/// negotiated protocol version (the minimum of both peers'), or `None`
/// after writing the appropriate error. Version-1 peers are accepted
/// and simply never see the version-2 trace-context extension.
fn hello(
    reader: &mut impl Read,
    writer: &mut impl Write,
    len_prefix: [u8; 4],
) -> Option<(String, u32)> {
    let frame = match read_frame_after_len(reader, len_prefix) {
        Ok(Some(f)) => f,
        _ => return None,
    };
    if frame.op != OP_HELLO {
        let _ = write_error(writer, ERR_STATE, "first frame must be HELLO");
        return None;
    }
    if frame.payload.len() < 4 || frame.payload[..4] != WIRE_MAGIC {
        let _ = write_error(writer, ERR_BAD_FRAME, "bad magic (not a tmkp peer)");
        return None;
    }
    let mut c = Cursor::new(&frame.payload[4..]);
    let decoded = c
        .u32("protocol version")
        .and_then(|version| Ok((version, c.string("tenant")?)));
    let (version, tenant) = match decoded {
        Ok(d) => d,
        Err(e) => {
            let _ = write_error(writer, ERR_BAD_FRAME, &e.to_string());
            return None;
        }
    };
    if !(WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
        // Version negotiation: name the versions we do speak.
        let _ = write_error(
            writer,
            ERR_VERSION,
            &format!(
                "unsupported tmkp version {version}; this server speaks versions \
                 {WIRE_VERSION_MIN} through {WIRE_VERSION}"
            ),
        );
        return None;
    }
    let negotiated = version.min(WIRE_VERSION);
    let tenant = if tenant.is_empty() {
        "anonymous".to_string()
    } else {
        tenant
    };
    let ok = PayloadBuilder::new().u32(negotiated).build();
    if write_frame(writer, OP_HELLO_OK, &ok).is_err() {
        return None;
    }
    Some((tenant, negotiated))
}

/// Per-connection request context threaded into the query handlers:
/// who is asking, what protocol extensions they negotiated, and the
/// server-side observability policy in force.
struct QueryCtx<'a> {
    tenant: &'a str,
    /// Negotiated tmkp version; trace context requires ≥ 2.
    version: u32,
    /// How long this connection sat in the pool queue before a worker
    /// picked it up (prepended to wire-traced profiles).
    queue_wait_ns: u64,
    slow_ms: Option<u64>,
}

/// Stable label for a query-kind byte (metric label values, log detail).
fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_CONFIDENCE => "confidence",
        KIND_TOP_K => "top_k",
        KIND_SERIES => "series",
        KIND_WINDOW => "window",
        _ => "unknown",
    }
}

fn handle_query(writer: &mut impl Write, shared: &Shared, ctx: &QueryCtx, payload: &[u8]) -> bool {
    let tenant = ctx.tenant;
    let _slot = match admit(shared, tenant) {
        Ok(s) => s,
        Err(()) => {
            return write_error(
                writer,
                ERR_QUOTA,
                &format!("tenant {tenant:?} is at its in-flight quota"),
            )
            .is_ok();
        }
    };
    transmark_obs::counter!("serve.queries").inc();
    let kind = kind_name(payload.first().copied().unwrap_or(0));
    transmark_obs::counter!("serve.requests", tenant = tenant, kind = kind).inc();
    transmark_obs::log::publish(RecordKind::RequestStart, tenant, kind, 0);
    let t = transmark_obs::Timer::start();
    let outcome = execute_query(&shared.engine, payload, ctx);
    let dur_ns = t.elapsed_ns();
    transmark_obs::histogram!("serve.request_ns", tenant = tenant, kind = kind).record(dur_ns);
    transmark_obs::log::publish(RecordKind::RequestFinish, tenant, kind, dur_ns);
    match outcome {
        Ok(result) => write_frame(writer, OP_RESULT, &result).is_ok(),
        Err((code, message)) => write_error(writer, code, &message).is_ok(),
    }
}

/// Decodes and runs one self-contained query, returning the RESULT
/// payload. All arithmetic rides the same prepare → bind → execute path
/// as the in-process facade, so results are bit-identical to it.
fn execute_query(
    engine: &Engine,
    payload: &[u8],
    ctx: &QueryCtx,
) -> Result<Vec<u8>, (u16, String)> {
    let mut c = Cursor::new(payload);
    let kind = c.u8("kind").map_err(bad_frame)?;
    let flags = c.u8("flags").map_err(bad_frame)?;
    let trace_id = parse_trace_id(&mut c, flags, ctx.version)?;
    let k = c.u32("k").map_err(bad_frame)?;
    let query_text = c.string("query").map_err(bad_frame)?;
    let output_text = c.string("output").map_err(bad_frame)?;
    let seq_format = c.u8("sequence format").map_err(bad_frame)?;
    let seq_bytes = c.bytes("sequence").map_err(bad_frame)?;

    let t = transmark_core::textio::from_text(&query_text)
        .map_err(|e| (ERR_QUERY, format!("query parse: {e}")))?;
    let m = decode_sequence(seq_format, seq_bytes)?;

    let with_profile = flags & FLAG_PROFILE != 0;
    // The bound plan's explain, captured for the slow-query log; the
    // closure fills it in once binding has chosen a strategy.
    let explain = std::cell::RefCell::new(String::new());
    let run = || -> Result<(u8, PayloadBuilder), (u16, String)> {
        match kind {
            KIND_CONFIDENCE => {
                let o = parse_output(&t, &output_text)?;
                let plan = engine.prepare(&t);
                let b = plan.bind(&m).map_err(query_err)?;
                *explain.borrow_mut() = b.explain().to_string();
                let v = b.confidence(&o).map_err(query_err)?;
                Ok((RESULT_CONFIDENCE, PayloadBuilder::new().f64(v)))
            }
            KIND_TOP_K => {
                let plan = engine.prepare(&t);
                let bound = plan.bind(&m).map_err(query_err)?;
                *explain.borrow_mut() = bound.explain().to_string();
                let answers = bound.top_k_scored(k as usize).map_err(query_err)?;
                let mut b = PayloadBuilder::new().u32(answers.len() as u32);
                for a in &answers {
                    b = b.u32(a.output.len() as u32);
                    for s in &a.output {
                        b = b.u32(s.0);
                    }
                    b = b.f64(a.emax).f64(a.confidence);
                }
                Ok((RESULT_TOP_K, b))
            }
            KIND_SERIES => {
                let event = engine.prepare_event(&t.underlying_nfa());
                let series = event.series(&m).map_err(query_err)?;
                let mut b = PayloadBuilder::new().u64(series.len() as u64);
                for v in &series {
                    b = b.f64(*v);
                }
                Ok((RESULT_SERIES, b))
            }
            other => Err((ERR_BAD_FRAME, format!("unknown query kind {other}"))),
        }
    };

    finish_result(engine, ctx, kind, with_profile, trace_id, &explain, run)
}

/// Consumes the optional version-2 trace id: present exactly when
/// [`FLAG_TRACE`] is set, which a version-1 peer must not do.
fn parse_trace_id(c: &mut Cursor, flags: u8, version: u32) -> Result<u64, (u16, String)> {
    if flags & FLAG_TRACE == 0 {
        return Ok(0);
    }
    if version < 2 {
        return Err((
            ERR_BAD_FRAME,
            "trace context requires negotiated tmkp version >= 2".to_string(),
        ));
    }
    c.u64("trace id").map_err(bad_frame)
}

/// Runs `run` (under a query-scoped profiler when the request asked for
/// one, carries a trace id, or the slow-query log is armed) and
/// assembles the RESULT payload: result kind, body, length-prefixed
/// profile (text, or [`ExecutionProfile::to_json`] when wire-traced).
fn finish_result(
    engine: &Engine,
    ctx: &QueryCtx,
    kind: u8,
    with_profile: bool,
    trace_id: u64,
    explain: &std::cell::RefCell<String>,
    run: impl FnOnce() -> Result<(u8, PayloadBuilder), (u16, String)>,
) -> Result<Vec<u8>, (u16, String)> {
    let need_profile = with_profile || trace_id != 0 || ctx.slow_ms.is_some();
    if !need_profile {
        let (result_kind, body) = run()?;
        return Ok(PayloadBuilder::new()
            .u8(result_kind)
            .raw(&body.build())
            .string("")
            .build());
    }
    let rec = Arc::new(Recorder::new());
    if trace_id != 0 {
        rec.set_trace(trace_id);
    }
    let t = transmark_obs::Timer::start();
    let outcome = engine.profiled_with(&rec, run);
    let dur_ns = t.elapsed_ns();
    let mut profile = rec.finish();
    if trace_id != 0 && ctx.queue_wait_ns > 0 {
        profile.prepend_wait("pool-queue", "pool.queue_wait", ctx.queue_wait_ns);
    }
    maybe_log_slow(ctx, kind, dur_ns, &explain.borrow(), &profile);
    let (result_kind, body) = outcome?;
    let profile_text = if with_profile {
        if trace_id != 0 {
            profile.to_json()
        } else {
            profile.to_text()
        }
    } else {
        String::new()
    };
    Ok(PayloadBuilder::new()
        .u8(result_kind)
        .raw(&body.build())
        .string(&profile_text)
        .build())
}

/// Publishes a [`RecordKind::SlowQuery`] record when the wall time
/// meets `--slow-ms`: the detail is the (flattened) bound-plan explain
/// plus the profiler's per-phase timings, slowest first.
fn maybe_log_slow(ctx: &QueryCtx, kind: u8, dur_ns: u64, explain: &str, p: &ExecutionProfile) {
    let Some(slow_ms) = ctx.slow_ms else { return };
    if dur_ns < slow_ms.saturating_mul(1_000_000) {
        return;
    }
    transmark_obs::counter!("serve.slow_queries").inc();
    let mut detail = format!("kind={}", kind_name(kind));
    let flat = explain.trim().replace('\n', "; ");
    if !flat.is_empty() {
        detail.push_str(" | ");
        detail.push_str(&flat);
    }
    let mut phases: Vec<_> = p.phases.iter().collect();
    phases.sort_by_key(|(_, stat)| std::cmp::Reverse(stat.total_ns));
    if !phases.is_empty() {
        detail.push_str(" | phases:");
        for (name, stat) in phases {
            detail.push_str(&format!(" {name}={}", transmark_obs::fmt_ns(stat.total_ns)));
        }
    }
    transmark_obs::log::publish(RecordKind::SlowQuery, ctx.tenant, &detail, dur_ns);
}

fn bad_frame(e: WireError) -> (u16, String) {
    (ERR_BAD_FRAME, e.to_string())
}

fn query_err(e: transmark_core::error::EngineError) -> (u16, String) {
    (ERR_QUERY, e.to_string())
}

fn source_err(e: &SourceError) -> (u16, String) {
    match e {
        SourceError::Version { found, supported } => (
            ERR_VERSION,
            format!(
                "unsupported tmsb version {found}; this server speaks versions up to {supported}"
            ),
        ),
        other => (ERR_QUERY, other.to_string()),
    }
}

fn decode_sequence(format: u8, bytes: &[u8]) -> Result<MarkovSequence, (u16, String)> {
    match format {
        0 => {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| (ERR_BAD_FRAME, "sequence text is not UTF-8".to_string()))?;
            transmark_markov::textio::from_text(text)
                .map_err(|e| (ERR_QUERY, format!("sequence parse: {e}")))
        }
        1 => transmark_markov::binio::from_tmsb_bytes(bytes).map_err(|e| source_err(&e)),
        other => Err((ERR_BAD_FRAME, format!("unknown sequence format {other}"))),
    }
}

fn parse_output(t: &Transducer, output_text: &str) -> Result<Vec<SymbolId>, (u16, String)> {
    output_text
        .split_whitespace()
        .map(|name| {
            t.output_alphabet().get(name).ok_or_else(|| {
                (
                    ERR_QUERY,
                    format!("output symbol {name:?} is not in the query's output alphabet"),
                )
            })
        })
        .collect()
}

// ---- Streamed `.tmsb` sessions --------------------------------------------

/// Presents the STREAM_DATA frames of one session as a contiguous byte
/// stream (`impl Read`) for [`TmsbReader`], acknowledging each chunk
/// only after the evaluation has fully consumed it: at most one
/// unacknowledged chunk exists, so the sender is throttled to the
/// query's own pace (stop-and-wait backpressure).
struct FrameByteStream<'a, R: Read, W: Write> {
    reader: &'a mut R,
    writer: &'a mut W,
    buf: Vec<u8>,
    at: usize,
    consumed: u64,
    ended: bool,
    /// Set when the wire itself failed (vs. the evaluation); the session
    /// cannot be drained afterwards.
    broken: bool,
    /// Once the query session exists, a checkpoint request surfaces to
    /// the drive loop (as a marker I/O error + `pending_checkpoint`) so
    /// it can serialize the session. Before that — mid-prelude — the
    /// stream answers with an empty checkpoint itself.
    allow_checkpoint: bool,
    /// Set when the last read error was a checkpoint request, not a real
    /// failure; the drive loop services it and retries the read.
    pending_checkpoint: bool,
}

impl<'a, R: Read, W: Write> FrameByteStream<'a, R, W> {
    fn new(reader: &'a mut R, writer: &'a mut W) -> Self {
        FrameByteStream {
            reader,
            writer,
            buf: Vec::new(),
            at: 0,
            consumed: 0,
            ended: false,
            broken: false,
            allow_checkpoint: false,
            pending_checkpoint: false,
        }
    }

    /// Sends an [`OP_CHECKPOINT`] frame (position + opaque blob).
    fn send_checkpoint(&mut self, position: u64, blob: &[u8]) -> bool {
        let payload = PayloadBuilder::new().u64(position).bytes(blob).build();
        match write_frame(self.writer, OP_CHECKPOINT, &payload) {
            Ok(()) => {
                transmark_obs::counter!("serve.stream_checkpoints").inc();
                true
            }
            Err(_) => {
                self.broken = true;
                false
            }
        }
    }

    /// Acks the consumed prefix and pulls the next DATA frame.
    fn refill(&mut self) -> std::io::Result<()> {
        loop {
            let ack = PayloadBuilder::new().u64(self.consumed).build();
            write_frame(self.writer, OP_STREAM_ACK, &ack).map_err(|e| {
                self.broken = true;
                wire_to_io(e)
            })?;
            return match read_frame(self.reader) {
                Ok(Some(Frame {
                    op: OP_STREAM_DATA,
                    payload,
                })) => {
                    self.buf = payload;
                    self.at = 0;
                    Ok(())
                }
                Ok(Some(Frame {
                    op: OP_STREAM_END, ..
                })) => {
                    self.ended = true;
                    Ok(())
                }
                Ok(Some(Frame {
                    op: OP_STREAM_CHECKPOINT,
                    ..
                })) => {
                    if self.allow_checkpoint {
                        // Surface to the drive loop, which owns the
                        // session state; the partial layer fill persists
                        // in the RawLayerReader, so the retried read
                        // continues bit-identically.
                        self.pending_checkpoint = true;
                        return Err(std::io::Error::other("checkpoint requested"));
                    }
                    // Still inside the prelude — no session exists. An
                    // empty blob at position 0 means "no progress yet":
                    // resuming it is starting over.
                    if !self.send_checkpoint(0, &[]) {
                        return Err(std::io::Error::other(
                            "connection failed while sending checkpoint",
                        ));
                    }
                    continue;
                }
                Ok(Some(f)) => {
                    self.broken = true;
                    Err(std::io::Error::other(format!(
                        "unexpected opcode {:#04x} inside a stream session",
                        f.op
                    )))
                }
                Ok(None) => {
                    self.broken = true;
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-stream",
                    ))
                }
                Err(e) => {
                    self.broken = true;
                    Err(wire_to_io(e))
                }
            };
        }
    }

    /// After the evaluation, runs the ack loop to the session's
    /// STREAM_END so the connection is frame-aligned again. Surplus
    /// chunks are acknowledged and discarded.
    fn drain(mut self) -> bool {
        if self.broken {
            return false;
        }
        // The session is over; a straggling checkpoint request gets the
        // inline "no state" reply instead of breaking frame alignment.
        self.allow_checkpoint = false;
        while !self.ended {
            self.at = self.buf.len();
            if self.refill().is_err() {
                return false;
            }
        }
        true
    }
}

fn wire_to_io(e: WireError) -> std::io::Error {
    match e {
        WireError::Io(e) => e,
        other => std::io::Error::other(other.to_string()),
    }
}

impl<R: Read, W: Write> Read for FrameByteStream<'_, R, W> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.at == self.buf.len() {
            if self.ended {
                return Ok(0);
            }
            self.refill()?;
        }
        let n = out.len().min(self.buf.len() - self.at);
        out[..n].copy_from_slice(&self.buf[self.at..self.at + n]);
        self.at += n;
        self.consumed += n as u64;
        Ok(n)
    }
}

fn handle_stream<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    shared: &Shared,
    ctx: &QueryCtx,
    payload: &[u8],
) -> bool {
    let tenant = ctx.tenant;
    let _slot = match admit(shared, tenant) {
        Ok(s) => s,
        Err(()) => {
            // The client has not sent any DATA yet (it waits for the
            // first ack), so the error frame arrives in its place and
            // the session never starts.
            let ok = write_error(
                writer,
                ERR_QUOTA,
                &format!("tenant {tenant:?} is at its in-flight quota"),
            )
            .is_ok();
            return ok && drain_until_end(reader);
        }
    };
    transmark_obs::counter!("serve.stream_sessions").inc();

    let mut c = Cursor::new(payload);
    type StreamHeader = (u8, bool, u64, u32, Transducer, String, Option<Vec<u8>>);
    let parsed = (|| -> Result<StreamHeader, (u16, String)> {
        let kind = c.u8("kind").map_err(bad_frame)?;
        let flags = c.u8("flags").map_err(bad_frame)?;
        let window = if kind == KIND_WINDOW {
            c.u32("window").map_err(bad_frame)?
        } else {
            0
        };
        let trace_id = parse_trace_id(&mut c, flags, ctx.version)?;
        let query_text = c.string("query").map_err(bad_frame)?;
        let output_text = c.string("output").map_err(bad_frame)?;
        let resume = if flags & FLAG_RESUME != 0 {
            Some(c.bytes("resume checkpoint").map_err(bad_frame)?.to_vec())
        } else {
            None
        };
        let t = transmark_core::textio::from_text(&query_text)
            .map_err(|e| (ERR_QUERY, format!("query parse: {e}")))?;
        Ok((
            kind,
            flags & FLAG_PROFILE != 0,
            trace_id,
            window,
            t,
            output_text,
            resume,
        ))
    })();
    let (kind, with_profile, trace_id, window, t, output_text, resume) = match parsed {
        Ok(p) => p,
        Err((code, message)) => {
            let ok = write_error(writer, code, &message).is_ok();
            return ok && drain_until_end(reader);
        }
    };

    let kind_str = kind_name(kind);
    transmark_obs::counter!("serve.requests", tenant = tenant, kind = kind_str).inc();
    transmark_obs::log::publish(RecordKind::RequestStart, tenant, kind_str, 0);
    let timer = transmark_obs::Timer::start();
    let engine = &shared.engine;
    let mut src = FrameByteStream::new(reader, writer);
    let outcome = run_stream_query(
        engine,
        ctx,
        kind,
        with_profile,
        trace_id,
        window,
        &t,
        &output_text,
        resume.as_deref(),
        &mut src,
    );
    let aligned = src.drain();
    let dur_ns = timer.elapsed_ns();
    transmark_obs::histogram!("serve.request_ns", tenant = tenant, kind = kind_str).record(dur_ns);
    transmark_obs::log::publish(RecordKind::RequestFinish, tenant, kind_str, dur_ns);
    match outcome {
        Ok(result) => aligned && write_frame(writer, OP_RESULT, &result).is_ok(),
        Err((code, message)) => write_error(writer, code, &message).is_ok() && aligned,
    }
}

/// Maps session-resume failures onto the wire: malformed/mismatched
/// checkpoints get their own code so clients can distinguish "start
/// over" from "query is wrong".
fn checkpoint_err(e: transmark_core::error::EngineError) -> (u16, String) {
    match e {
        EngineError::BadCheckpoint(_) => (ERR_BAD_CHECKPOINT, e.to_string()),
        other => (ERR_QUERY, other.to_string()),
    }
}

/// The server-side checkpoint envelope carried (opaquely, from the
/// client's point of view) inside [`OP_CHECKPOINT`] / `FLAG_RESUME`
/// blobs: enough to rebuild the layer reader (`k`, `n`), the progress
/// already streamed back on resume-less kinds (`series`), and the core
/// session's own versioned checkpoint (`core`).
struct ServeCheckpoint {
    k: usize,
    n: usize,
    position: u64,
    series: Vec<f64>,
    core: Vec<u8>,
}

fn encode_serve_checkpoint(
    kind: u8,
    k: usize,
    n: usize,
    position: u64,
    series: &[f64],
    core: &[u8],
) -> Vec<u8> {
    let mut b = PayloadBuilder::new()
        .u8(kind)
        .u32(k as u32)
        .u64(n as u64)
        .u64(position)
        .u64(series.len() as u64);
    for v in series {
        b = b.f64(*v);
    }
    b.bytes(core).build()
}

fn parse_serve_checkpoint(kind: u8, blob: &[u8]) -> Result<ServeCheckpoint, (u16, String)> {
    let bad = |m: String| (ERR_BAD_CHECKPOINT, format!("resume checkpoint: {m}"));
    let mut c = Cursor::new(blob);
    let ck = c.u8("kind").map_err(|e| bad(e.to_string()))?;
    if ck != kind {
        return Err(bad(format!(
            "blob was taken from a kind-{ck} session, not kind {kind}"
        )));
    }
    let k = c.u32("alphabet size").map_err(|e| bad(e.to_string()))? as usize;
    let n = c.u64("sequence length").map_err(|e| bad(e.to_string()))?;
    let n = usize::try_from(n).map_err(|_| bad(format!("implausible sequence length {n}")))?;
    let position = c.u64("position").map_err(|e| bad(e.to_string()))?;
    let series_len = c.u64("series length").map_err(|e| bad(e.to_string()))?;
    // Plausibility before allocating: every recorded probability cost 8
    // bytes of blob, and the series never outruns the stream position
    // (it holds at most one entry per consumed layer plus position 0).
    if series_len > blob.len() as u64 / 8 || series_len > position.saturating_add(1) {
        return Err(bad(format!("implausible series length {series_len}")));
    }
    let mut series = Vec::with_capacity(series_len as usize);
    for _ in 0..series_len {
        series.push(c.f64("series entry").map_err(|e| bad(e.to_string()))?);
    }
    let core = c
        .bytes("session state")
        .map_err(|e| bad(e.to_string()))?
        .to_vec();
    if !c.is_exhausted() {
        return Err(bad("trailing bytes after session state".to_string()));
    }
    Ok(ServeCheckpoint {
        k,
        n,
        position,
        series,
        core,
    })
}

/// Runs one streamed query over the session's byte stream as an
/// incremental state machine: `.tmsb` prelude negotiation comes from
/// [`read_prelude`]/[`RawLayerReader`], so version and stride/truncation
/// typing still belong to the binio layer, while every decoded layer is
/// fed to the core
/// [`StreamSession`](transmark_core::incremental::StreamSession) that the
/// query's [`StreamQuery`] opens, fresh or from the resume blob. Between
/// any two layers — including mid-layer, since the raw reader's partial
/// fill survives the interrupting marker error — the client may swap a
/// DATA frame for [`OP_STREAM_CHECKPOINT`] and get the suspended session
/// back as an opaque blob; presenting that blob with `FLAG_RESUME` (and
/// the remaining layers) continues bit-identically. The RESULT is assembled
/// by [`finish_result`], with no bound plan to explain.
#[allow(clippy::too_many_arguments)]
fn run_stream_query<R: Read, W: Write>(
    engine: &Engine,
    ctx: &QueryCtx,
    kind: u8,
    with_profile: bool,
    trace_id: u64,
    window: u32,
    t: &Transducer,
    output_text: &str,
    resume: Option<&[u8]>,
    src: &mut FrameByteStream<'_, R, W>,
) -> Result<Vec<u8>, (u16, String)> {
    let run = || -> Result<(u8, PayloadBuilder), (u16, String)> {
        // Machine-side compilation happens before the wire is touched.
        let query = match kind {
            KIND_CONFIDENCE => StreamQuery::Confidence {
                plan: engine.prepare(t),
                output: parse_output(t, output_text)?,
            },
            KIND_SERIES => StreamQuery::Series(t.underlying_nfa()),
            KIND_WINDOW => StreamQuery::Window(
                SlidingWindowQuery::new(t.underlying_nfa(), window as usize).map_err(query_err)?,
            ),
            _ => {
                return Err((
                    ERR_BAD_FRAME,
                    format!("query kind {kind} cannot run over a stream session"),
                ))
            }
        };

        let (mut sess, mut raw, mut series, dims) = match resume {
            None => {
                // Fresh session: the prelude arrives over the wire first.
                // Checkpoint requests during this phase are answered by
                // the stream itself (position 0 = "start over"), so the
                // prelude's `read_exact`s never see an interruption.
                let prelude = read_prelude(src).map_err(|e| source_err(&e))?;
                let raw = RawLayerReader::new(&prelude).map_err(|e| source_err(&e))?;
                let dims = (prelude.alphabet().len(), prelude.len());
                let sess = query.start(prelude.initial()).map_err(query_err)?;
                // Series kinds report the position-0 probability before
                // any layer is consumed (matching `series_source`).
                let mut series = Vec::new();
                if sess.is_series() {
                    series.push(sess.probability());
                }
                (sess, raw, series, dims)
            }
            Some(blob) => {
                // Resumed session: the client slices its data past the
                // prelude, so the layer reader is rebuilt from the dims
                // recorded in the envelope rather than re-read.
                let env = parse_serve_checkpoint(kind, blob)?;
                let sess = query.resume(&env.core).map_err(checkpoint_err)?;
                let raw = RawLayerReader::from_dims(env.k, env.n, env.position)
                    .map_err(|e| (ERR_BAD_CHECKPOINT, format!("resume checkpoint: {e}")))?;
                transmark_obs::counter!("serve.stream_resumes").inc();
                transmark_obs::log::publish(
                    RecordKind::CheckpointResume,
                    ctx.tenant,
                    &format!(
                        "kind={} resumed at position {} of {} layers",
                        kind_name(kind),
                        env.position,
                        env.n
                    ),
                    0,
                );
                (sess, raw, env.series, (env.k, env.n))
            }
        };
        src.allow_checkpoint = true;

        loop {
            match raw.next_layer(src) {
                Ok(Some(matrix)) => {
                    sess.advance(matrix).map_err(query_err)?;
                    if sess.is_series() {
                        series.push(sess.probability());
                    }
                }
                Ok(None) => break,
                Err(SourceError::Io(_)) if src.pending_checkpoint => {
                    // The client swapped a DATA frame for a checkpoint
                    // request. The raw reader holds any partial layer
                    // fill, so after replying we simply retry the read.
                    src.pending_checkpoint = false;
                    let position = raw.position() as u64;
                    let blob = encode_serve_checkpoint(
                        kind,
                        dims.0,
                        dims.1,
                        position,
                        &series,
                        &sess.checkpoint(),
                    );
                    if !src.send_checkpoint(position, &blob) {
                        return Err((
                            ERR_QUERY,
                            "connection failed while sending checkpoint".to_string(),
                        ));
                    }
                }
                Err(e) => return Err(source_err(&e)),
            }
        }

        if !sess.is_series() {
            return Ok((
                RESULT_CONFIDENCE,
                PayloadBuilder::new().f64(sess.probability()),
            ));
        }
        let mut b = PayloadBuilder::new().u64(series.len() as u64);
        for v in &series {
            b = b.f64(*v);
        }
        Ok((RESULT_SERIES, b))
    };

    let no_explain = std::cell::RefCell::new(String::new());
    finish_result(engine, ctx, kind, with_profile, trace_id, &no_explain, run)
}

/// Consumes session frames up to STREAM_END after an error was sent in
/// place of an ack; under stop-and-wait the client sends at most its
/// closing STREAM_END, so this terminates immediately.
fn drain_until_end(reader: &mut impl Read) -> bool {
    loop {
        match read_frame(reader) {
            Ok(Some(Frame {
                op: OP_STREAM_END, ..
            })) => return true,
            Ok(Some(Frame {
                op: OP_STREAM_DATA, ..
            })) => continue,
            _ => return false,
        }
    }
}

fn handle_metrics(writer: &mut impl Write, shared: &Shared, payload: &[u8]) -> bool {
    let snap = shared.engine.metrics();
    let text = match payload.first().copied().unwrap_or(0) {
        1 => snap.to_json(),
        2 => snap.to_prometheus(),
        _ => snap.to_text(),
    };
    let result = PayloadBuilder::new()
        .u8(RESULT_TEXT)
        .raw(text.as_bytes())
        .build();
    write_frame(writer, OP_RESULT, &result).is_ok()
}

// ---- HTTP metrics scrape ---------------------------------------------------

/// Serves one `GET /metrics[.json|.prom]` scrape as a proper HTTP/1.1
/// response (status line, `Content-Type`, `Content-Length`, one
/// response per connection). The `"GET "` prefix has already been
/// consumed by the sniffer.
fn serve_http(reader: &mut impl Read, writer: &mut impl Write, shared: &Shared) {
    // Read the request head (bounded), extract the path.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(_) => return,
        }
    }
    let line = String::from_utf8_lossy(&head);
    let path = line.split_whitespace().next().unwrap_or("/").to_string();
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; charset=utf-8",
            shared.engine.metrics().to_text(),
        ),
        "/metrics.json" => (
            "200 OK",
            "application/json",
            shared.engine.metrics().to_json(),
        ),
        "/metrics.prom" => (
            "200 OK",
            // The Prometheus text exposition format, version 0.0.4.
            "text/plain; version=0.0.4; charset=utf-8",
            shared.engine.metrics().to_prometheus(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; try /metrics, /metrics.json, or /metrics.prom\n".to_string(),
        ),
    };
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

/// Fills `buf` or reports failure (clean close included — the sniffer
/// needs all four bytes to do anything useful).
fn read_fully(reader: &mut impl Read, buf: &mut [u8]) -> Result<(), ()> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    Ok(())
}
