//! The `tmk` command-line interface.
//!
//! All command logic lives here and returns the rendered output as a
//! `String`, so the integration tests can drive it without spawning
//! processes; `src/bin/tmk.rs` is a thin wrapper.
//!
//! ```text
//! tmk show <sequence.tms>
//! tmk map <sequence.tms>
//! tmk sample <sequence.tms> [--count N] [--seed S]
//! tmk top <sequence.tms> <query.tmt> [--k N]
//! tmk enumerate <sequence.tms> <query.tmt> [--limit N]
//! tmk confidence <sequence.tms> <query.tmt> <output-symbol>...
//! tmk evidences <sequence.tms> <query.tmt> [--k N] <output-symbol>...
//! tmk batch <query.tmt> <sequence>... [--k N] [--confidence SYMS]
//! tmk stream <query.tmt> [steps.tms|steps.tmsb|-] [--window W] [--resume F]
//! tmk monitor <query.tmt> <stream>... [--window W] [--batch N] [--series]
//! tmk convert <in.tms|in.tmsb> <out.tms|out.tmsb>
//! tmk extract <sequence.tms> <query.tmp> [--k N]
//! tmk occurrences <sequence.tms> <query.tmp> [--k N]
//! tmk posterior <model.tmh> --out <file.tms> <observation>...
//! tmk export-example <directory>
//! tmk bench [--json FILE] [--runs N] [--iters N]
//! tmk bench --diff <base.json> <new.json>
//! ```
//!
//! Every subcommand additionally accepts the shared options parsed once
//! into [`CommonOpts`]: `--explain` (print the compiled plan — its
//! Table 2 route, machine shape, and precompile cost — before the
//! results), `--threads N` (fleet parallelism for `batch`),
//! `--metrics[=json]` (append an observability report covering exactly
//! this invocation: plan kind, cache hit rates, per-phase timings,
//! kernel and data-plane counters, and fleet statistics — see
//! [`transmark_obs`]), and the query-scoped profiler flags
//! `--profile[=FILE.json]` (timeline summary, or a Chrome `trace_event`
//! file for `chrome://tracing`/Perfetto) and `--flame[=FILE.folded]`
//! (folded stacks for `flamegraph.pl`/inferno) — see
//! [`transmark_obs::profile`].
//!
//! Transducer and s-projector commands compile the query into a
//! prepared plan first. `batch` compiles the query once and binds the
//! one shared plan to every sequence file in turn.
//!
//! Sequences are accepted in either on-disk format, chosen by extension:
//! `.tms` text ([`transmark_markov::textio`]) or `.tmsb` zero-copy binary
//! ([`transmark_markov::binio`]); `tmk convert` maps between them.
//! Forward-only commands (`stream`, `batch --confidence`) fold the file
//! as a [`transmark_markov::StepSource`], one `|Σ|²` layer at a time, so
//! they never materialize the sequence — `tmk stream` also reads step
//! records from stdin (`-`), printing the running acceptance probability
//! after each folded layer. Queries use `transducer v1`
//! ([`transmark_core::textio`]).

use std::fmt::Write as _;
use std::path::Path;

use transmark_core::plan::{prepare, PreparedEventQuery};
use transmark_core::transducer::Transducer;
use transmark_core::Strategy;
use transmark_markov::MarkovSequence;
use transmark_obs::{fmt_ns, Snapshot};
use transmark_sproj::SprojEvaluation;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code (2 = usage, 1 = runtime).
    pub exit_code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

// Engine-layer failures carry their own context (the unified
// `TmkError` Display), so they convert straight into runtime CLI errors
// and `?` works throughout the command arms; file operations keep
// explicit `map_err` wrappers to attach the offending path.
impl From<transmark_core::error::EngineError> for CliError {
    fn from(e: transmark_core::error::EngineError) -> Self {
        run_err(e)
    }
}

impl From<transmark_store::StoreError> for CliError {
    fn from(e: transmark_store::StoreError) -> Self {
        run_err(e)
    }
}

impl From<transmark_markov::SourceError> for CliError {
    fn from(e: transmark_markov::SourceError) -> Self {
        run_err(e)
    }
}

impl From<transmark_markov::MarkovError> for CliError {
    fn from(e: transmark_markov::MarkovError) -> Self {
        run_err(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        run_err(e)
    }
}

pub(crate) fn usage_err(message: impl Into<String>) -> CliError {
    CliError {
        message: format!("{}\n\n{}", message.into(), USAGE),
        exit_code: 2,
    }
}

pub(crate) fn run_err(message: impl std::fmt::Display) -> CliError {
    CliError {
        message: message.to_string(),
        exit_code: 1,
    }
}

/// The usage text.
pub const USAGE: &str = "tmk — query Markov sequences with finite-state transducers

USAGE:
  tmk show <sequence.tms>                               model summary + marginals
  tmk map <sequence.tms>                                most likely world
  tmk sample <sequence.tms> [--count N] [--seed S]      draw random worlds
  tmk top <sequence.tms> <query.tmt> [--k N]            ranked answers + confidence
  tmk top <host:port> [--interval MS] [--count N]       live service dashboard: per-tenant /
                                                        per-kind q/s and p50/p95/p99 from
                                                        /metrics.json snapshot diffs; --count N
                                                        renders N frames and exits
  tmk enumerate <sequence.tms> <query.tmt> [--limit N]  all answers, lexicographic
  tmk confidence <sequence.tms> <query.tmt> <sym>...    confidence of one output
  tmk evidences <sequence.tms> <query.tmt> [--k N] <sym>...
                                                        most likely worlds behind an output
  tmk batch <query.tmt> <seq>... [--k N]                one query, many sequences, one shared plan
  tmk stream <query.tmt> [steps|-]                      fold steps from file or stdin, printing the
                                                        running acceptance probability
        [--window W]                                    sliding window of width W: Pr over the last
                                                        W symbols only (O(k^2) per slide)
        [--checkpoint-at N --checkpoint-out F]          suspend after folding N steps, session
                                                        state to F
        [--resume F]                                    continue a suspended session from F
                                                        (bit-identical to an uninterrupted run)
  tmk monitor <query.tmt> <stream>... [--window W] [--batch N] [--series]
                                                        multiplex many streams over one query on a
                                                        --threads worker pool; per-stream final
                                                        probability (or full series with --series)
  tmk convert <in> <out>                                convert .tms <-> .tmsb (validated round trip)
  tmk extract <sequence.tms> <query.tmp> [--k N]        s-projector: distinct strings by I_max
  tmk occurrences <sequence.tms> <query.tmp> [--k N]    s-projector: (string, position) by confidence
  tmk posterior <model.tmh> --out <f.tms> <obs>...      condition an HMM, write the posterior
  tmk export-example <dir>                              write the paper's running example
  tmk bench [--json FILE] [--runs N] [--iters N]        built-in perf micro-suite (fixed seeds,
                                                        min-of-N); --json writes the machine-
                                                        readable snapshot
  tmk bench --diff <base.json> <new.json>               compare two bench snapshots; exits
                                                        non-zero on a >15% regression
  tmk serve [ADDR] [--workers N] [--queue N] [--tenant-quota N] [--plan-cache N]
                                                        run the persistent query service: tmkp
                                                        protocol plus HTTP GET /metrics[.json|.prom]
                                                        on the same port; ADDR defaults to
                                                        127.0.0.1:0 (the resolved address is
                                                        printed on start)
        [--slow-ms MS]                                  log any query slower than MS (plan explain
                                                        + phase timings) to the structured event log
        [--log FILE|-]                                  drain the structured event log (request,
                                                        rejection, checkpoint, eviction, and slow-
                                                        query records) as JSON lines to FILE or
                                                        stderr (-)
  tmk client <addr> confidence <query.tmt> <seq> <sym>...
                                                        remote confidence of one output
  tmk client <addr> top <query.tmt> <seq> [--k N]       remote ranked answers + confidence
  tmk client <addr> series <query.tmt> <seq>            remote prefix acceptance series
  tmk client <addr> stream <query.tmt> <seq> [<sym>...] [--chunk BYTES] [--window W]
                                                        stream the sequence to the server in
                                                        chunked frames (stop-and-wait); with
                                                        symbols = confidence, without = series,
                                                        --window W = sliding-window series
        [--resume FILE [--checkpoint-every N]]          persist server checkpoints to FILE every N
                                                        chunks (default 8) and, if FILE holds one,
                                                        continue the suspended session from it —
                                                        rerun the same command after a disconnect
  tmk client <addr> metrics [--json|--prom]             scrape the server's live metrics snapshot
  tmk client <addr> shutdown                            ask the server to shut down gracefully

COMMON OPTIONS (accepted by every command):
  --explain            print the compiled query plan — its Table 2 route, machine
                       shape, and precompile cost — before the results
  --threads N          (batch) evaluate the fleet on N OS threads; 0 = one per
                       available core (default 1); also the worker count of
                       the scan strategy (stream)
  --strategy S         force the execution strategy: sparse (CSR layer walk),
                       dense (blocked matrix rows, SIMD when available), or
                       scan (parallel-prefix over the series; stream only).
                       Default: planner choice from layer density and length
  --metrics[=json]     append a metrics report for this invocation: plan kind,
                       cache hit rates, per-phase timings, kernel/data-plane
                       counters, and fleet statistics; =json emits the raw
                       snapshot diff instead
  --profile[=FILE]     record a query-scoped timeline; bare flag appends the
                       profile summary (phases, lanes, throughput), =FILE writes
                       a Chrome trace_event JSON for chrome://tracing / Perfetto
  --flame[=FILE]       folded stacks (lane;phase;... self_ns) for flamegraph.pl
                       or inferno; bare flag appends them, =FILE writes the file

OPTIONS:
  --confidence SYMS    (batch) instead of top-k, stream the confidence of the
                       comma-separated output SYMS over each file without
                       materializing it

FILES:
  .tms  — markov-sequence v1, text   (see transmark_markov::textio)
  .tmsb — markov-sequence v1, binary (zero-copy; see transmark_markov::binio)
  .tmt  — transducer v1              (see transmark_core::textio)
  .tmp  — sprojector v1              (see transmark_sproj::textio)
  .tmh  — hmm v1                     (see transmark_markov::hmm_textio)

Sequence arguments accept either format, dispatched on the extension.";

/// Parses `--flag value` style options out of an argument list, returning
/// the remaining positional arguments.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(usage_err(format!("{flag} requires a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Removes a boolean `--flag` from the argument list, reporting whether
/// it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// How `--metrics` renders its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable summary plus the full snapshot.
    Text,
    /// The raw snapshot diff as compact JSON.
    Json,
}

/// Options shared by every `tmk` subcommand, parsed once up front.
#[derive(Debug, Clone)]
pub struct CommonOpts {
    /// `--threads N` — fleet parallelism (`batch`); 0 = one per core.
    pub threads: usize,
    /// `--strategy sparse|dense|scan` — force the execution strategy
    /// instead of the planner's density/length heuristic.
    pub strategy: Option<Strategy>,
    /// `--explain` — print the compiled plan before the results.
    pub explain: bool,
    /// `--metrics[=json]` — append an observability report.
    pub metrics: Option<MetricsFormat>,
    /// `--profile[=FILE]` — record a query-scoped timeline; bare flag
    /// appends the profile summary, `=FILE` writes a Chrome trace.
    pub profile: Option<Option<String>>,
    /// `--flame[=FILE]` — folded stacks for flamegraph.pl/inferno; bare
    /// flag appends them, `=FILE` writes them to a file.
    pub flame: Option<Option<String>>,
}

/// Strips `--flag` (→ `Some(None)`) or `--flag=VALUE` (→
/// `Some(Some(VALUE))`) out of `args`.
fn take_flag_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<Option<String>>, CliError> {
    if take_flag(args, flag) {
        return Ok(Some(None));
    }
    let prefix = format!("{flag}=");
    if let Some(pos) = args.iter().position(|a| a.starts_with(&prefix)) {
        let value = args.remove(pos)[prefix.len()..].to_string();
        if value.is_empty() {
            return Err(usage_err(format!("{flag}= needs a file path")));
        }
        return Ok(Some(Some(value)));
    }
    Ok(None)
}

impl CommonOpts {
    /// Strips the shared options out of `args`, leaving the
    /// command-specific arguments behind.
    fn take(args: &mut Vec<String>) -> Result<CommonOpts, CliError> {
        let threads = take_opt(args, "--threads")?
            .map(|v| parse_usize(&v, "--threads"))
            .transpose()?
            .unwrap_or(1);
        let strategy = take_opt(args, "--strategy")?
            .map(|v| v.parse::<Strategy>().map_err(usage_err))
            .transpose()?;
        let explain = take_flag(args, "--explain");
        let metrics = if take_flag(args, "--metrics=json") {
            Some(MetricsFormat::Json)
        } else if take_flag(args, "--metrics=text") || take_flag(args, "--metrics") {
            Some(MetricsFormat::Text)
        } else if let Some(pos) = args.iter().position(|a| a.starts_with("--metrics=")) {
            return Err(usage_err(format!(
                "bad --metrics format {:?} (expected text or json)",
                &args[pos]["--metrics=".len()..]
            )));
        } else {
            None
        };
        let profile = take_flag_opt(args, "--profile")?;
        let flame = take_flag_opt(args, "--flame")?;
        Ok(CommonOpts {
            threads,
            strategy,
            explain,
            metrics,
            profile,
            flame,
        })
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, CliError> {
    s.parse()
        .map_err(|e| usage_err(format!("bad {what} {s:?}: {e}")))
}

fn load_sequence(path: &str) -> Result<MarkovSequence, CliError> {
    transmark_markov::fsio::read_sequence_path(Path::new(path)).map_err(|e| match e {
        transmark_markov::SourceError::Io(e) => run_err(format!("cannot read {path}: {e}")),
        e => run_err(format!("{path}: {e}")),
    })
}

fn load_sprojector(path: &str) -> Result<transmark_sproj::SProjector, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))?;
    transmark_sproj::textio::from_text(&text).map_err(|e| run_err(format!("{path}: {e}")))
}

fn load_transducer(path: &str) -> Result<Transducer, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))?;
    transmark_core::textio::from_text(&text).map_err(|e| run_err(format!("{path}: {e}")))
}

fn parse_output(
    t: &Transducer,
    names: &[String],
) -> Result<Vec<transmark_automata::SymbolId>, CliError> {
    names
        .iter()
        .map(|n| {
            t.output_alphabet()
                .get(n)
                .ok_or_else(|| run_err(format!("unknown output symbol {n:?}")))
        })
        .collect()
}

fn render(t: &Transducer, o: &[transmark_automata::SymbolId]) -> String {
    if o.is_empty() {
        "ε".to_string()
    } else {
        t.render_output(o, " ")
    }
}

fn read_file_text(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))
}

/// Reads a sequence argument for `tmk client`: `.tmsb` bytes travel
/// verbatim (the server sees exactly what a local reader would), `.tms`
/// travels as text.
fn read_sequence_payload(path: &str) -> Result<(Vec<u8>, bool), CliError> {
    let bytes = std::fs::read(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))?;
    Ok((bytes, path.ends_with(".tmsb")))
}

fn sequence_payload(
    bytes: &[u8],
    binary: bool,
) -> Result<crate::serve::client::Sequence<'_>, CliError> {
    if binary {
        Ok(crate::serve::client::Sequence::Binary(bytes))
    } else {
        std::str::from_utf8(bytes)
            .map(crate::serve::client::Sequence::Text)
            .map_err(|e| run_err(format!("sequence is not valid UTF-8 text: {e}")))
    }
}

/// Loads a sequence argument as `.tmsb` bytes for a streamed session:
/// `.tmsb` files verbatim, `.tms` files converted.
fn read_tmsb_bytes(path: &str) -> Result<Vec<u8>, CliError> {
    if path.ends_with(".tmsb") {
        std::fs::read(path).map_err(|e| run_err(format!("cannot read {path}: {e}")))
    } else {
        Ok(transmark_markov::binio::to_tmsb_bytes(&load_sequence(
            path,
        )?))
    }
}

/// The incremental `tmk stream` path: a checkpointable session folding
/// one layer at a time — plain acceptance or a sliding window, as a core
/// `StreamSession` — with suspend (`--checkpoint-at`/
/// `--checkpoint-out`) and resume (`--resume`) at any step boundary.
/// The checkpoint file holds the core session's versioned blob verbatim.
fn run_incremental_stream<S: transmark_markov::StepSource>(
    out: &mut String,
    nfa: transmark_automata::Nfa,
    src: &mut S,
    window: Option<usize>,
    checkpoint_at: Option<u64>,
    checkpoint_out: Option<&str>,
    resume_blob: Option<&[u8]>,
) -> Result<(), CliError> {
    use transmark_core::incremental::{EventSession, SlidingWindowQuery, StreamSession};

    let wq_storage;
    let mut sess = match window {
        Some(w) => {
            wq_storage = SlidingWindowQuery::new(nfa, w)?;
            match resume_blob {
                Some(b) => StreamSession::Window(wq_storage.resume(b)?),
                None => StreamSession::Window(wq_storage.start(src.initial())?),
            }
        }
        None => match resume_blob {
            Some(b) => StreamSession::Event(EventSession::resume(nfa, b)?),
            None => StreamSession::Event(EventSession::start(nfa, src.initial())?),
        },
    };

    match resume_blob {
        Some(_) => {
            // Skip the source forward to the suspension point; the state
            // itself comes from the checkpoint, not from replaying.
            let _ = writeln!(out, "resumed at t={}", sess.position() + 1);
            for _ in 0..sess.position() {
                if src.next_step()?.is_none() {
                    return Err(run_err(format!(
                        "checkpoint is at position {} but the stream is shorter",
                        sess.position()
                    )));
                }
            }
        }
        None => {
            let _ = writeln!(out, "t={:<6} {}", 1, sess.probability());
        }
    }

    loop {
        if let (Some(at), Some(path)) = (checkpoint_at, checkpoint_out) {
            if sess.position() >= at {
                std::fs::write(path, sess.checkpoint())
                    .map_err(|e| run_err(format!("write {path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "checkpoint written to {path} at t={}",
                    sess.position() + 1
                );
                return Ok(());
            }
        }
        match src.next_step()? {
            Some(m) => {
                sess.advance(m)?;
                let _ = writeln!(out, "t={:<6} {}", sess.position() + 1, sess.probability());
            }
            None => return Ok(()),
        }
    }
}

fn append_remote_profile(out: &mut String, profile: Option<String>) {
    if let Some(p) = profile {
        out.push_str("== server profile ==\n");
        out.push_str(&p);
        if !p.ends_with('\n') {
            out.push('\n');
        }
    }
}

/// Handles the profile attached to a `tmk client` response. When the
/// request carried a trace id, the server serializes its timeline as
/// JSON — parse it and queue it (with the request's send offset) for
/// merging into the local recorder's profile, so `--profile=FILE`
/// writes ONE Chrome trace spanning client and server. Anything else
/// (a v1 peer's text profile) appends verbatim.
fn absorb_remote_profile(
    out: &mut String,
    remotes: &mut Vec<(transmark_obs::ExecutionProfile, u64)>,
    traced: bool,
    profile: Option<String>,
    sent_at_ns: Option<u64>,
) {
    let Some(p) = profile else { return };
    if traced {
        if let Ok(remote) = transmark_obs::ExecutionProfile::from_json(&p) {
            remotes.push((remote, sent_at_ns.unwrap_or(0)));
            return;
        }
    }
    append_remote_profile(out, Some(p));
}

/// A fresh wire trace id: wall-clock nanoseconds mixed with the pid,
/// forced nonzero (zero means "no trace" on the wire).
fn new_trace_id() -> u64 {
    let ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed);
    (ns ^ ((std::process::id() as u64) << 32)).max(1)
}

/// Renders the `--metrics` text report from a snapshot diff: a structured
/// summary (plan kinds and phase timings, cache hit rates, kernel and
/// data-plane traffic, fleet statistics) followed by the full snapshot.
fn metrics_report(s: &Snapshot) -> String {
    if !transmark_obs::enabled() {
        return "== metrics ==\n(metrics disabled: built with feature obs-off)\n".to_string();
    }
    let mut out = String::from("== metrics ==\n");

    // Plan kinds are recovered from the per-kind phase histograms the
    // planner records (`planner.<phase>_ns.<kind>`).
    const PHASES: [(&str, &str); 3] = [
        ("prepare", "planner.prepare_ns."),
        ("bind", "planner.bind_ns."),
        ("execute", "planner.execute_ns."),
    ];
    let mut kinds: Vec<&str> = Vec::new();
    for name in s.histograms.keys() {
        for (_, prefix) in PHASES {
            if let Some(kind) = name.strip_prefix(prefix) {
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
        }
    }
    if !kinds.is_empty() {
        let _ = writeln!(out, "plan kind(s): {}", kinds.join(", "));
        out.push_str("phases (count / total / mean / p50 / p99):\n");
        for kind in &kinds {
            for (phase, prefix) in PHASES {
                if let Some(h) = s.histogram(&format!("{prefix}{kind}")) {
                    let _ = writeln!(
                        out,
                        "  {:<34} {} / {} / {} / {} / {}",
                        format!("{kind} {phase}"),
                        h.count,
                        fmt_ns(h.sum),
                        fmt_ns(h.mean() as u64),
                        fmt_ns(h.quantile(0.50)),
                        fmt_ns(h.quantile(0.99))
                    );
                }
            }
        }
    }

    // Execution strategies the planner picked (or was forced into) in
    // this window.
    let strategies: Vec<String> = ["sparse", "dense", "scan"]
        .iter()
        .filter_map(|name| {
            let n = s.counter(&format!("planner.strategy.{name}"));
            (n > 0).then(|| format!("{name} x{n}"))
        })
        .collect();
    if !strategies.is_empty() {
        let _ = writeln!(out, "strategies: {}", strategies.join(", "));
    }

    for (label, hits_name, misses_name, evictions_name) in [
        (
            "planner cache",
            "planner.cache.hits",
            "planner.cache.misses",
            Some("planner.cache.evictions"),
        ),
        (
            "store plan cache",
            "store.plan_cache.hits",
            "store.plan_cache.misses",
            None,
        ),
    ] {
        let (hits, misses) = (s.counter(hits_name), s.counter(misses_name));
        if hits + misses > 0 {
            let rate = 100.0 * hits as f64 / (hits + misses) as f64;
            let evictions = evictions_name
                .map(|n| format!(", {} evictions", s.counter(n)))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{label}: {hits} hits / {misses} misses ({rate:.1}% hit rate{evictions})"
            );
        }
    }

    let layers = s.counter("kernel.advance.layers");
    let csr = s.counter("kernel.csr.builds");
    let dense = s.counter("kernel.dense.binds");
    if layers + csr + dense > 0 {
        let csr_ns = s.histogram("kernel.csr.build_ns").map_or(0, |h| h.sum);
        let _ = writeln!(
            out,
            "kernel: {layers} layers advanced, {csr} CSR builds ({}), {dense} dense binds, workspace {} reuse / {} realloc",
            fmt_ns(csr_ns),
            s.counter("kernel.workspace.reuse"),
            s.counter("kernel.workspace.realloc"),
        );
    }

    let steps = s.counter("dataplane.steps");
    if steps > 0 {
        let mut decode = String::new();
        for format in ["tms", "tmsb"] {
            if let Some(h) = s.histogram(&format!("dataplane.{format}.decode_ns")) {
                let _ = write!(decode, ", decode {format} {}x {}", h.count, fmt_ns(h.sum));
            }
        }
        let _ = writeln!(
            out,
            "data plane: {steps} steps, {} bytes, {} rewinds ({} avoided){decode}",
            s.counter("dataplane.bytes"),
            s.counter("dataplane.rewinds"),
            s.counter("dataplane.rewinds_avoided"),
        );
    }

    let (saves, resumes) = (
        s.counter("checkpoint.saves"),
        s.counter("checkpoint.resumes"),
    );
    if saves + resumes > 0 {
        let _ = writeln!(out, "checkpoints: {saves} saved, {resumes} resumed");
    }

    if s.counter("store.monitor.runs") > 0 {
        let wall = s.histogram("store.monitor.wall_ns").map_or(0, |h| h.sum);
        let _ = writeln!(
            out,
            "monitor: {} runs, {} workers, {} streams, {} ticks, wall {}",
            s.counter("store.monitor.runs"),
            s.gauge("store.monitor.workers"),
            s.counter("store.monitor.streams"),
            s.counter("store.monitor.ticks"),
            fmt_ns(wall),
        );
    }

    if s.counter("store.fleet.runs") > 0 {
        let tasks = s.counter("store.fleet.tasks");
        let per_worker = s
            .histogram("store.fleet.tasks_per_worker")
            .map_or(0.0, |h| h.mean());
        let task_mean = s
            .histogram("store.fleet.task_ns")
            .map_or(0, |h| h.mean() as u64);
        let wait = s
            .histogram("store.fleet.queue_wait_ns")
            .map_or(0, |h| h.mean() as u64);
        let wall = s.histogram("store.fleet.wall_ns").map_or(0, |h| h.sum);
        let cpu = s.histogram("store.fleet.cpu_ns").map_or(0, |h| h.sum);
        let _ = writeln!(
            out,
            "fleet: {} runs, {} workers, {tasks} tasks ({per_worker:.1}/worker), task mean {}, queue wait mean {}",
            s.counter("store.fleet.runs"),
            s.gauge("store.fleet.workers"),
            fmt_ns(task_mean),
            fmt_ns(wait),
        );
        if wall > 0 {
            let _ = writeln!(
                out,
                "fleet time: wall {}, cpu {}, speedup {:.2}x",
                fmt_ns(wall),
                fmt_ns(cpu),
                cpu as f64 / wall as f64
            );
        }
    }

    out.push_str("-- full snapshot --\n");
    out.push_str(&s.to_text());
    out
}

/// Runs a CLI invocation (excluding the program name) and returns its
/// stdout text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut args: Vec<String> = args.to_vec();
    if args.is_empty() {
        return Err(usage_err("missing command"));
    }
    let command = args.remove(0);
    let opts = CommonOpts::take(&mut args)?;
    // The metrics window covers exactly this invocation: diff against the
    // process-global registry state captured before dispatch.
    let baseline = transmark_obs::registry().snapshot();
    // --profile / --flame: record a query-scoped timeline around the
    // whole dispatch; fleet commands propagate the recorder into their
    // workers, so each worker shows up as its own lane.
    let recorder = if opts.profile.is_some() || opts.flame.is_some() {
        Some(std::sync::Arc::new(transmark_obs::Recorder::new()))
    } else {
        None
    };
    let scope = recorder.as_ref().map(|r| r.install("main"));
    let mut out = String::new();
    // Server-side timelines returned by `tmk client` requests that
    // carried a trace id, with the send offset of each request; merged
    // into the local profile after the recorder finishes.
    let mut remote_profiles: Vec<(transmark_obs::ExecutionProfile, u64)> = Vec::new();
    match command.as_str() {
        "show" => {
            let [seq_path] = positional::<1>(args)?;
            let m = load_sequence(&seq_path)?;
            let _ = writeln!(
                out,
                "markov sequence: length {}, {} symbols",
                m.len(),
                m.n_symbols()
            );
            let names: Vec<&str> = m.alphabet().iter().map(|(_, n)| n).collect();
            let _ = writeln!(out, "alphabet: {}", names.join(" "));
            let _ = writeln!(out, "marginals:");
            for (i, dist) in m.marginals().iter().enumerate() {
                let cells: Vec<String> = dist.iter().map(|p| format!("{p:.4}")).collect();
                let _ = writeln!(out, "  t={:<3} {}", i + 1, cells.join(" "));
            }
        }
        "map" => {
            let [seq_path] = positional::<1>(args)?;
            let m = load_sequence(&seq_path)?;
            let (s, p) = m.most_likely_string();
            let _ = writeln!(out, "{}  (p = {p:.6})", m.alphabet().render(&s, " "));
        }
        "sample" => {
            use rand::{rngs::StdRng, SeedableRng};
            let count = take_opt(&mut args, "--count")?
                .map(|v| parse_usize(&v, "--count"))
                .transpose()?
                .unwrap_or(1);
            let seed = take_opt(&mut args, "--seed")?
                .map(|v| parse_usize(&v, "--seed"))
                .transpose()?
                .unwrap_or(0) as u64;
            let [seq_path] = positional::<1>(args)?;
            let m = load_sequence(&seq_path)?;
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..count {
                let s = m.sample(&mut rng);
                let _ = writeln!(out, "{}", m.alphabet().render(&s, " "));
            }
        }
        "top" => {
            let k = take_opt(&mut args, "--k")?
                .map(|v| parse_usize(&v, "--k"))
                .transpose()?
                .unwrap_or(10);
            let interval = take_opt(&mut args, "--interval")?
                .map(|v| parse_usize(&v, "--interval"))
                .transpose()?
                .unwrap_or(1000) as u64;
            let count = take_opt(&mut args, "--count")?
                .map(|v| parse_usize(&v, "--count"))
                .transpose()?;
            // One positional = a server address: the live service
            // dashboard. Two = the classic ranked-answers query.
            if args.len() == 1 {
                let addr = args.remove(0);
                crate::top::run_dashboard(&mut out, &addr, interval, count)?;
            } else {
                let [seq_path, query_path] = positional::<2>(args)?;
                let m = load_sequence(&seq_path)?;
                let t = load_transducer(&query_path)?;
                let bound = prepare(&t).bind_with_strategy(&m, opts.strategy)?;
                if opts.explain {
                    let _ = writeln!(out, "{}", bound.explain());
                }
                let answers = bound.top_k_scored(k)?;
                if answers.is_empty() {
                    let _ = writeln!(out, "(no answers)");
                }
                for a in answers {
                    let _ = writeln!(
                        out,
                        "{:<30} E_max = {:.6}  confidence = {:.6}",
                        render(&t, &a.output),
                        a.emax,
                        a.confidence
                    );
                }
            }
        }
        "enumerate" => {
            let limit = take_opt(&mut args, "--limit")?
                .map(|v| parse_usize(&v, "--limit"))
                .transpose()?
                .unwrap_or(usize::MAX);
            let [seq_path, query_path] = positional::<2>(args)?;
            let m = load_sequence(&seq_path)?;
            let t = load_transducer(&query_path)?;
            let bound = prepare(&t).bind_with_strategy(&m, opts.strategy)?;
            if opts.explain {
                let _ = writeln!(out, "{}", bound.explain());
            }
            for o in bound.unranked()?.take(limit) {
                let _ = writeln!(out, "{}", render(&t, &o));
            }
        }
        "confidence" => {
            if args.len() < 2 {
                return Err(usage_err("confidence needs <sequence> <query> <symbols…>"));
            }
            let seq_path = args.remove(0);
            let query_path = args.remove(0);
            let m = load_sequence(&seq_path)?;
            let t = load_transducer(&query_path)?;
            let o = parse_output(&t, &args)?;
            let bound = prepare(&t).bind_with_strategy(&m, opts.strategy)?;
            if opts.explain {
                let _ = writeln!(out, "{}", bound.explain());
            }
            let c = bound.confidence(&o)?;
            let _ = writeln!(out, "{c}");
        }
        "batch" => {
            let k = take_opt(&mut args, "--k")?
                .map(|v| parse_usize(&v, "--k"))
                .transpose()?
                .unwrap_or(10);
            let conf_syms = take_opt(&mut args, "--confidence")?;
            if args.len() < 2 {
                return Err(usage_err("batch needs <query.tmt> <sequence>…"));
            }
            let query_path = args.remove(0);
            let t = load_transducer(&query_path)?;
            // Compile once; every sequence file binds the same plan.
            let plan = prepare(&t);
            if opts.explain {
                let _ = writeln!(out, "{}", plan.explain());
            }
            let paths: Vec<std::path::PathBuf> =
                args.iter().map(std::path::PathBuf::from).collect();
            match conf_syms {
                // Forward-only fleet: stream each file through the shared
                // plan, one layer at a time — nothing is materialized.
                Some(syms) => {
                    if let Some(s) = opts.strategy {
                        if s != Strategy::Sparse {
                            return Err(run_err(format!(
                                "--strategy {s} cannot run batch --confidence: streamed \
                                 evaluation compacts each pulled layer (sparse only)"
                            )));
                        }
                    }
                    let names: Vec<String> = syms
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect();
                    let o = parse_output(&t, &names)?;
                    let results = transmark_store::par_map_paths(&paths, opts.threads, |path| {
                        let src = transmark_markov::fsio::open_step_source(path).map_err(|e| {
                            transmark_store::StoreError::Io(format!("{}: {e}", path.display()))
                        })?;
                        Ok(plan.bind_source(src)?.confidence(&o)?)
                    })?;
                    for seq_path in &args {
                        let c = results.get(seq_path.as_str()).ok_or_else(|| {
                            run_err(format!("no result for {seq_path} (duplicate argument?)"))
                        })?;
                        let _ = writeln!(out, "{seq_path}  {c}");
                    }
                }
                // Ranked answers need random access (backward sweeps), so
                // each worker materializes its own file.
                None => {
                    let results = transmark_store::par_map_paths(&paths, opts.threads, |path| {
                        let m = transmark_markov::fsio::read_sequence_path(path).map_err(|e| {
                            transmark_store::StoreError::Io(format!("{}: {e}", path.display()))
                        })?;
                        let bound = plan.bind_with_strategy(&m, opts.strategy)?;
                        Ok(bound.top_k_scored(k)?)
                    })?;
                    for seq_path in &args {
                        let _ = writeln!(out, "== {seq_path}");
                        let answers = results.get(seq_path.as_str()).ok_or_else(|| {
                            run_err(format!("no result for {seq_path} (duplicate argument?)"))
                        })?;
                        if answers.is_empty() {
                            let _ = writeln!(out, "(no answers)");
                        }
                        for a in answers {
                            let _ = writeln!(
                                out,
                                "{:<30} E_max = {:.6}  confidence = {:.6}",
                                render(&t, &a.output),
                                a.emax,
                                a.confidence
                            );
                        }
                    }
                }
            }
        }
        "stream" => {
            let window = take_opt(&mut args, "--window")?
                .map(|v| parse_usize(&v, "--window"))
                .transpose()?;
            let checkpoint_at = take_opt(&mut args, "--checkpoint-at")?
                .map(|v| parse_usize(&v, "--checkpoint-at"))
                .transpose()?
                .map(|v| v as u64);
            let checkpoint_out = take_opt(&mut args, "--checkpoint-out")?;
            let resume_path = take_opt(&mut args, "--resume")?;
            if checkpoint_at.is_some() != checkpoint_out.is_some() {
                return Err(usage_err(
                    "--checkpoint-at and --checkpoint-out go together",
                ));
            }
            if args.is_empty() || args.len() > 2 {
                return Err(usage_err(
                    "stream needs <query.tmt> [steps.tms|steps.tmsb|-]",
                ));
            }
            let query_path = args.remove(0);
            let t = load_transducer(&query_path)?;
            // The running Boolean event query: Pr(S[1..t] ∈ L(A)) for the
            // query's underlying input automaton. Default is the one-pass
            // fold, one layer at a time (memory independent of stream
            // length); `--strategy scan` materializes a file input and
            // runs the parallel-prefix scan on `--threads` workers.
            let nfa = t.underlying_nfa();
            if window.is_some() || checkpoint_at.is_some() || resume_path.is_some() {
                // Incremental session path: checkpointable, resumable,
                // optionally windowed. Strictly one layer at a time, so
                // only the sparse fold applies.
                if let Some(s) = opts.strategy {
                    if s != Strategy::Sparse {
                        return Err(run_err(format!(
                            "--strategy {s} cannot run the incremental stream path \
                             (checkpoints and windows fold one layer at a time)"
                        )));
                    }
                }
                let resume_blob = resume_path
                    .as_deref()
                    .map(std::fs::read)
                    .transpose()
                    .map_err(|e| run_err(format!("read checkpoint: {e}")))?;
                match args.first().map(String::as_str) {
                    Some(path) if path != "-" => {
                        let mut src = transmark_markov::fsio::open_step_source(Path::new(path))
                            .map_err(|e| run_err(format!("{path}: {e}")))?;
                        run_incremental_stream(
                            &mut out,
                            nfa,
                            &mut src,
                            window,
                            checkpoint_at,
                            checkpoint_out.as_deref(),
                            resume_blob.as_deref(),
                        )?;
                    }
                    _ => {
                        let stdin = std::io::stdin();
                        let mut src = transmark_markov::textio::TmsTextSource::new(stdin.lock())
                            .map_err(|e| run_err(format!("stdin: {e}")))?;
                        run_incremental_stream(
                            &mut out,
                            nfa,
                            &mut src,
                            window,
                            checkpoint_at,
                            checkpoint_out.as_deref(),
                            resume_blob.as_deref(),
                        )?;
                    }
                }
            } else {
                let series = match (args.first().map(String::as_str), opts.strategy) {
                    (Some(path), Some(Strategy::Scan)) if path != "-" => {
                        let m = load_sequence(path)?;
                        PreparedEventQuery::new(nfa).series_with(
                            &m,
                            opts.threads,
                            Some(Strategy::Scan),
                        )?
                    }
                    (_, Some(s)) if s != Strategy::Sparse => {
                        return Err(run_err(format!(
                            "--strategy {s} cannot run stream from stdin: the scan needs a \
                         materialized file input (and dense applies to transducer queries)"
                        )));
                    }
                    (Some(path), _) if path != "-" => {
                        let mut src = transmark_markov::fsio::open_step_source(Path::new(path))
                            .map_err(|e| run_err(format!("{path}: {e}")))?;
                        PreparedEventQuery::new(nfa).series_source(&mut src)?
                    }
                    _ => {
                        let stdin = std::io::stdin();
                        let mut src = transmark_markov::textio::TmsTextSource::new(stdin.lock())
                            .map_err(|e| run_err(format!("stdin: {e}")))?;
                        PreparedEventQuery::new(nfa).series_source(&mut src)?
                    }
                };
                for (i, p) in series.iter().enumerate() {
                    let _ = writeln!(out, "t={:<6} {p}", i + 1);
                }
            }
        }
        "monitor" => {
            use transmark_store::{Monitor, MonitorConfig, DEFAULT_TICK_BATCH};
            let window = take_opt(&mut args, "--window")?
                .map(|v| parse_usize(&v, "--window"))
                .transpose()?;
            let batch = take_opt(&mut args, "--batch")?
                .map(|v| parse_usize(&v, "--batch"))
                .transpose()?
                .unwrap_or(DEFAULT_TICK_BATCH);
            let series = take_flag(&mut args, "--series");
            if args.len() < 2 {
                return Err(usage_err(
                    "monitor needs <query.tmt> <stream>… [--window W] [--batch N] [--series]",
                ));
            }
            let query_path = args.remove(0);
            let t = load_transducer(&query_path)?;
            // One query, many independent streams, one worker pool: each
            // stream is an incremental session advanced in tick batches,
            // so memory stays O(streams · k) regardless of stream length.
            let monitor = Monitor::new(
                t.underlying_nfa(),
                MonitorConfig {
                    window,
                    threads: opts.threads,
                    batch,
                },
            );
            let paths: Vec<std::path::PathBuf> =
                args.iter().map(std::path::PathBuf::from).collect();
            let reports = monitor.run_paths(&paths)?;
            for r in &reports {
                let _ = writeln!(out, "== {}", r.name);
                if series {
                    for (i, p) in r.series.iter().enumerate() {
                        let _ = writeln!(out, "t={:<6} {p}", i + 1);
                    }
                } else {
                    let _ = writeln!(
                        out,
                        "p = {}  ({} positions)",
                        r.final_probability(),
                        r.positions
                    );
                }
            }
        }
        "convert" => {
            use transmark_markov::fsio::{is_binary_path, open_step_source};
            use transmark_markov::StepSource as _;
            let [in_path, out_path] = positional::<2>(args)?;
            let (src_bin, dst_bin) = (
                is_binary_path(Path::new(&in_path)),
                is_binary_path(Path::new(&out_path)),
            );
            if src_bin == dst_bin {
                return Err(usage_err(
                    "convert maps between formats: one path must end in .tms, the other in .tmsb",
                ));
            }
            if dst_bin {
                // tms → tmsb streams layer-at-a-time; nothing materializes.
                let mut src = open_step_source(Path::new(&in_path))
                    .map_err(|e| run_err(format!("{in_path}: {e}")))?;
                let file = std::fs::File::create(&out_path)
                    .map_err(|e| run_err(format!("create {out_path}: {e}")))?;
                let mut w = std::io::BufWriter::new(file);
                transmark_markov::binio::write_tmsb(&mut w, &mut src)
                    .map_err(|e| run_err(format!("{out_path}: {e}")))?;
                std::io::Write::flush(&mut w).map_err(|e| run_err(format!("{out_path}: {e}")))?;
            } else {
                // tmsb → tms: the text writer needs the whole model.
                let m = load_sequence(&in_path)?;
                std::fs::write(&out_path, transmark_markov::textio::to_text(&m))
                    .map_err(|e| run_err(format!("write {out_path}: {e}")))?;
            }
            // Round-trip validation: both files must stream identical
            // alphabets, initials, and layers (two O(|Σ|²) cursors).
            let mut a = open_step_source(Path::new(&in_path))
                .map_err(|e| run_err(format!("{in_path}: {e}")))?;
            let mut b = open_step_source(Path::new(&out_path))
                .map_err(|e| run_err(format!("{out_path}: {e}")))?;
            let names_match = a.alphabet().len() == b.alphabet().len()
                && a.alphabet()
                    .iter()
                    .zip(b.alphabet().iter())
                    .all(|((_, x), (_, y))| x == y);
            if !names_match || a.len() != b.len() || a.initial() != b.initial() {
                return Err(run_err(format!(
                    "round-trip mismatch between {in_path} and {out_path}"
                )));
            }
            loop {
                let step = a.position();
                let la = a
                    .next_step()
                    .map_err(|e| run_err(format!("{in_path}: {e}")))?;
                let lb = b
                    .next_step()
                    .map_err(|e| run_err(format!("{out_path}: {e}")))?;
                match (la, lb) {
                    (None, None) => break,
                    (Some(x), Some(y)) if x == y => continue,
                    _ => {
                        return Err(run_err(format!(
                            "round-trip mismatch at step {step} between {in_path} and {out_path}"
                        )))
                    }
                }
            }
            let _ = writeln!(
                out,
                "wrote {out_path} ({} positions, {} symbols, round trip verified)",
                b.len(),
                b.alphabet().len()
            );
        }
        "evidences" => {
            let k = take_opt(&mut args, "--k")?
                .map(|v| parse_usize(&v, "--k"))
                .transpose()?
                .unwrap_or(5);
            if args.len() < 2 {
                return Err(usage_err("evidences needs <sequence> <query> <symbols…>"));
            }
            let seq_path = args.remove(0);
            let query_path = args.remove(0);
            let m = load_sequence(&seq_path)?;
            let t = load_transducer(&query_path)?;
            let o = parse_output(&t, &args)?;
            for e in prepare(&t).bind(&m)?.top_evidences(&o, k)? {
                let _ = writeln!(
                    out,
                    "{}  (p = {:.6})",
                    m.alphabet().render(&e.world, " "),
                    e.prob()
                );
            }
        }
        "extract" => {
            let k = take_opt(&mut args, "--k")?
                .map(|v| parse_usize(&v, "--k"))
                .transpose()?
                .unwrap_or(10);
            let [seq_path, query_path] = positional::<2>(args)?;
            let m = load_sequence(&seq_path)?;
            let p = load_sprojector(&query_path)?;
            let ev = SprojEvaluation::new(&p, &m)?;
            if opts.explain {
                let _ = writeln!(out, "{}", ev.explain());
            }
            for r in ev.strings()?.take(k) {
                let text = m.alphabet().render(&r.output, "");
                let rendered = if text.is_empty() {
                    "ε".to_string()
                } else {
                    text
                };
                let exact = ev.confidence(&r.output)?;
                let _ = writeln!(
                    out,
                    "{rendered:<24} I_max = {:.6}  confidence = {exact:.6}",
                    r.score()
                );
            }
        }
        "occurrences" => {
            let k = take_opt(&mut args, "--k")?
                .map(|v| parse_usize(&v, "--k"))
                .transpose()?
                .unwrap_or(10);
            let [seq_path, query_path] = positional::<2>(args)?;
            let m = load_sequence(&seq_path)?;
            let p = load_sprojector(&query_path)?;
            let ev = SprojEvaluation::new(&p, &m)?;
            if opts.explain {
                let _ = writeln!(out, "{}", ev.explain());
            }
            for ia in ev.occurrences()?.take(k) {
                let text = m.alphabet().render(&ia.output, "");
                let rendered = if text.is_empty() {
                    "ε".to_string()
                } else {
                    text
                };
                let _ = writeln!(
                    out,
                    "{rendered:<24} at {:<4} confidence = {:.6}",
                    ia.index,
                    ia.confidence()
                );
            }
        }
        "posterior" => {
            let out_path = take_opt(&mut args, "--out")?;
            if args.len() < 2 {
                return Err(usage_err("posterior needs <model.tmh> <observations…>"));
            }
            let model_path = args.remove(0);
            let text = std::fs::read_to_string(&model_path)
                .map_err(|e| run_err(format!("cannot read {model_path}: {e}")))?;
            let hmm = transmark_markov::hmm_textio::from_text(&text)
                .map_err(|e| run_err(format!("{model_path}: {e}")))?;
            let obs: Vec<transmark_automata::SymbolId> = args
                .iter()
                .map(|n| {
                    hmm.observation_alphabet()
                        .get(n)
                        .ok_or_else(|| run_err(format!("unknown observation {n:?}")))
                })
                .collect::<Result<_, _>>()?;
            let posterior = hmm.posterior(&obs)?;
            let rendered = transmark_markov::textio::to_text(&posterior);
            match out_path {
                Some(path) => {
                    std::fs::write(&path, rendered)
                        .map_err(|e| run_err(format!("write {path}: {e}")))?;
                    let _ = writeln!(out, "wrote {path}");
                }
                None => out.push_str(&rendered),
            }
        }
        "export-example" => {
            let [dir] = positional::<1>(args)?;
            let dir = Path::new(&dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| run_err(format!("cannot create {}: {e}", dir.display())))?;
            let m = transmark_workloads::hospital::hospital_sequence();
            let t = transmark_workloads::hospital::room_tracker();
            let seq_path = dir.join("hospital.tms");
            let query_path = dir.join("room_tracker.tmt");
            std::fs::write(&seq_path, transmark_markov::textio::to_text(&m))
                .map_err(|e| run_err(format!("write {}: {e}", seq_path.display())))?;
            std::fs::write(&query_path, transmark_core::textio::to_text(&t))
                .map_err(|e| run_err(format!("write {}: {e}", query_path.display())))?;
            let _ = writeln!(out, "wrote {}", seq_path.display());
            let _ = writeln!(out, "wrote {}", query_path.display());
            let _ = writeln!(
                out,
                "try: tmk top {} {}",
                seq_path.display(),
                query_path.display()
            );
        }
        "serve" => {
            let workers = take_opt(&mut args, "--workers")?
                .map(|v| parse_usize(&v, "--workers"))
                .transpose()?
                .unwrap_or(0);
            let queue_cap = take_opt(&mut args, "--queue")?
                .map(|v| parse_usize(&v, "--queue"))
                .transpose()?
                .unwrap_or(64);
            let tenant_quota = take_opt(&mut args, "--tenant-quota")?
                .map(|v| parse_usize(&v, "--tenant-quota"))
                .transpose()?
                .unwrap_or(4);
            let plan_capacity = take_opt(&mut args, "--plan-cache")?
                .map(|v| parse_usize(&v, "--plan-cache"))
                .transpose()?
                .unwrap_or(transmark_store::DEFAULT_PLAN_CACHE_CAP);
            let slow_ms = take_opt(&mut args, "--slow-ms")?
                .map(|v| parse_usize(&v, "--slow-ms"))
                .transpose()?
                .map(|v| v as u64);
            let log = take_opt(&mut args, "--log")?;
            let addr = match args.len() {
                0 => "127.0.0.1:0".to_string(),
                1 => args.remove(0),
                _ => return Err(usage_err("serve takes at most one address")),
            };
            let server = crate::serve::Server::start(crate::serve::ServeConfig {
                addr,
                threads: workers,
                queue_cap,
                tenant_quota,
                plan_capacity,
                slow_ms,
                log,
            })
            .map_err(|e| run_err(format!("cannot start server: {e}")))?;
            // Printed (and flushed) before blocking: supervisors and the
            // CI smoke test discover the resolved ephemeral port here.
            println!("tmk serve listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            server.wait();
            let _ = writeln!(out, "tmk serve stopped");
        }
        "client" => {
            use crate::serve::client::Client;
            let tenant = take_opt(&mut args, "--tenant")?.unwrap_or_else(|| "cli".to_string());
            if args.len() < 2 {
                return Err(usage_err(
                    "client needs <addr> <confidence|top|series|stream|metrics|shutdown> …",
                ));
            }
            let addr = args.remove(0);
            let sub = args.remove(0);
            // Any profiling output (--profile, --profile=FILE, --flame)
            // requests the server-side profile too; with a v2 peer the
            // request also carries a fresh trace id, so the server's
            // timeline comes back as JSON and is stitched into the local
            // recorder's — one trace spanning both processes.
            let profile = opts.profile.is_some() || opts.flame.is_some();
            let traced = recorder.is_some();
            let wire = |e: crate::serve::protocol::WireError| run_err(e);
            let mut client = Client::connect(&addr, &tenant).map_err(wire)?;
            if let Some(rec) = &recorder {
                let trace_id = new_trace_id();
                rec.set_trace(trace_id);
                client.set_trace(trace_id);
            }
            match sub.as_str() {
                "confidence" => {
                    if args.len() < 2 {
                        return Err(usage_err(
                            "client confidence needs <query.tmt> <seq> <sym>…",
                        ));
                    }
                    let query_text = read_file_text(&args.remove(0))?;
                    let (seq_bytes, binary) = read_sequence_payload(&args.remove(0))?;
                    let seq = sequence_payload(&seq_bytes, binary)?;
                    let resp = client
                        .confidence(&query_text, &seq, &args.join(" "), profile)
                        .map_err(wire)?;
                    let _ = writeln!(out, "{}", resp.value);
                    absorb_remote_profile(
                        &mut out,
                        &mut remote_profiles,
                        traced,
                        resp.profile,
                        resp.sent_at_ns,
                    );
                }
                "top" => {
                    let k = take_opt(&mut args, "--k")?
                        .map(|v| parse_usize(&v, "--k"))
                        .transpose()?
                        .unwrap_or(10);
                    let [query_path, seq_path] = positional::<2>(args)?;
                    let query_text = read_file_text(&query_path)?;
                    // Parse the query locally too, to render symbol names.
                    let t = transmark_core::textio::from_text(&query_text)
                        .map_err(|e| run_err(format!("{query_path}: {e}")))?;
                    let (seq_bytes, binary) = read_sequence_payload(&seq_path)?;
                    let seq = sequence_payload(&seq_bytes, binary)?;
                    let resp = client
                        .top_k(&query_text, &seq, k as u32, profile)
                        .map_err(wire)?;
                    if resp.value.is_empty() {
                        let _ = writeln!(out, "(no answers)");
                    }
                    for a in &resp.value {
                        let o: Vec<transmark_automata::SymbolId> = a
                            .output
                            .iter()
                            .map(|&s| transmark_automata::SymbolId(s))
                            .collect();
                        let _ = writeln!(
                            out,
                            "{:<30} E_max = {:.6}  confidence = {:.6}",
                            render(&t, &o),
                            a.emax,
                            a.confidence
                        );
                    }
                    absorb_remote_profile(
                        &mut out,
                        &mut remote_profiles,
                        traced,
                        resp.profile,
                        resp.sent_at_ns,
                    );
                }
                "series" => {
                    let [query_path, seq_path] = positional::<2>(args)?;
                    let query_text = read_file_text(&query_path)?;
                    let (seq_bytes, binary) = read_sequence_payload(&seq_path)?;
                    let seq = sequence_payload(&seq_bytes, binary)?;
                    let resp = client.series(&query_text, &seq, profile).map_err(wire)?;
                    for (i, p) in resp.value.iter().enumerate() {
                        let _ = writeln!(out, "t={:<4} {p}", i + 1);
                    }
                    absorb_remote_profile(
                        &mut out,
                        &mut remote_profiles,
                        traced,
                        resp.profile,
                        resp.sent_at_ns,
                    );
                }
                "stream" => {
                    use crate::serve::client::{StreamCheckpoint, StreamOptions};
                    let chunk = take_opt(&mut args, "--chunk")?
                        .map(|v| parse_usize(&v, "--chunk"))
                        .transpose()?
                        .unwrap_or(4096);
                    let window = take_opt(&mut args, "--window")?
                        .map(|v| parse_usize(&v, "--window"))
                        .transpose()?;
                    let every = take_opt(&mut args, "--checkpoint-every")?
                        .map(|v| parse_usize(&v, "--checkpoint-every"))
                        .transpose()?;
                    let state_path = take_opt(&mut args, "--resume")?;
                    if every.is_some() && state_path.is_none() {
                        return Err(usage_err(
                            "--checkpoint-every needs --resume FILE to persist the checkpoints",
                        ));
                    }
                    if args.len() < 2 {
                        return Err(usage_err(
                            "client stream needs <query.tmt> <seq> [<sym>…] [--chunk BYTES] \
                             [--window W] [--resume FILE [--checkpoint-every N]]",
                        ));
                    }
                    let query_text = read_file_text(&args.remove(0))?;
                    let tmsb = read_tmsb_bytes(&args.remove(0))?;
                    if window.is_some() && !args.is_empty() {
                        return Err(usage_err(
                            "--window streams the window series; it takes no output symbols",
                        ));
                    }
                    // `--resume FILE` makes the session durable: checkpoints
                    // taken every `--checkpoint-every` chunks (default 8) are
                    // persisted to FILE as the stream runs, and if FILE
                    // already holds one (a previous run died mid-stream) the
                    // session continues from it instead of starting over.
                    let resume_ck = match state_path.as_deref() {
                        Some(p) if Path::new(p).exists() => {
                            let bytes =
                                std::fs::read(p).map_err(|e| run_err(format!("read {p}: {e}")))?;
                            let ck = StreamCheckpoint::from_bytes(&bytes).map_err(wire)?;
                            let _ = writeln!(out, "resuming from position {}", ck.position);
                            Some(ck)
                        }
                        _ => None,
                    };
                    let mut save_err: Option<String> = None;
                    let save_path = state_path.clone();
                    let mut on_ck = |ck: &StreamCheckpoint| {
                        if let Some(p) = &save_path {
                            if let Err(e) = std::fs::write(p, ck.to_bytes()) {
                                save_err = Some(format!("write {p}: {e}"));
                            }
                        }
                    };
                    let stream_opts = StreamOptions {
                        checkpoint_every: state_path.as_ref().map(|_| every.unwrap_or(8)),
                        on_checkpoint: state_path
                            .as_ref()
                            .map(|_| &mut on_ck as &mut dyn FnMut(&StreamCheckpoint)),
                        resume: resume_ck.as_ref(),
                    };
                    let (profile_text, sent_at) = if let Some(w) = window {
                        let resp = client
                            .stream_window(&query_text, &tmsb, w as u32, chunk, stream_opts)
                            .map_err(wire)?;
                        for (i, p) in resp.value.iter().enumerate() {
                            let _ = writeln!(out, "t={:<4} {p}", i + 1);
                        }
                        (resp.profile, resp.sent_at_ns)
                    } else if args.is_empty() {
                        let resp = client
                            .stream_series_with(&query_text, &tmsb, chunk, stream_opts)
                            .map_err(wire)?;
                        for (i, p) in resp.value.iter().enumerate() {
                            let _ = writeln!(out, "t={:<4} {p}", i + 1);
                        }
                        (resp.profile, resp.sent_at_ns)
                    } else {
                        let resp = client
                            .stream_confidence_with(
                                &query_text,
                                &args.join(" "),
                                &tmsb,
                                chunk,
                                stream_opts,
                            )
                            .map_err(wire)?;
                        let _ = writeln!(out, "{}", resp.value);
                        (resp.profile, resp.sent_at_ns)
                    };
                    absorb_remote_profile(
                        &mut out,
                        &mut remote_profiles,
                        traced,
                        profile_text,
                        sent_at,
                    );
                    if let Some(e) = save_err {
                        return Err(run_err(e));
                    }
                    // The stream completed: a leftover checkpoint would make
                    // the next run resume past the end, so clear it.
                    if let Some(p) = &state_path {
                        let _ = std::fs::remove_file(p);
                    }
                }
                "metrics" => {
                    let json = take_flag(&mut args, "--json");
                    let prom = take_flag(&mut args, "--prom");
                    if !args.is_empty() || (json && prom) {
                        return Err(usage_err("client metrics takes --json or --prom"));
                    }
                    let format = if json {
                        1
                    } else if prom {
                        2
                    } else {
                        0
                    };
                    out.push_str(&client.metrics_format(format).map_err(wire)?);
                }
                "shutdown" => {
                    if !args.is_empty() {
                        return Err(usage_err("client shutdown takes no arguments"));
                    }
                    client.shutdown().map_err(wire)?;
                    let _ = writeln!(out, "server acknowledged shutdown");
                }
                other => return Err(usage_err(format!("unknown client subcommand {other:?}"))),
            }
        }
        "bench" => {
            out.push_str(&crate::bench::run_command(args)?);
        }
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{USAGE}");
        }
        other => return Err(usage_err(format!("unknown command {other:?}"))),
    }
    drop(scope);
    if let Some(rec) = recorder {
        let mut profile = rec.finish();
        // Stitch in server timelines returned by traced client
        // requests: each remote profile merges at the offset its
        // request frame was written, under a `server/` lane prefix,
        // sharing the one client-generated trace id.
        for (remote, offset_ns) in &remote_profiles {
            profile.merge_remote(remote, *offset_ns, "server/");
        }
        if let Some(dest) = &opts.profile {
            let trace = transmark_obs::trace::chrome_trace(&profile);
            match dest {
                Some(path) => {
                    std::fs::write(path, trace)
                        .map_err(|e| run_err(format!("write {path}: {e}")))?;
                    let events: usize = profile.lanes.iter().map(|l| l.events.len()).sum();
                    let _ = writeln!(
                        out,
                        "wrote {path} ({events} events, {} lanes)",
                        profile.lanes.len()
                    );
                }
                None => {
                    out.push_str("== profile ==\n");
                    if transmark_obs::enabled() {
                        out.push_str(&profile.to_text());
                    } else {
                        out.push_str("(profiling disabled: built with feature obs-off)\n");
                    }
                }
            }
        }
        if let Some(dest) = &opts.flame {
            let flame = transmark_obs::trace::folded(&profile);
            match dest {
                Some(path) => {
                    std::fs::write(path, &flame)
                        .map_err(|e| run_err(format!("write {path}: {e}")))?;
                    let _ = writeln!(out, "wrote {path} ({} stacks)", flame.lines().count());
                }
                None => {
                    out.push_str("== flame ==\n");
                    if transmark_obs::enabled() {
                        out.push_str(&flame);
                    } else {
                        out.push_str("(profiling disabled: built with feature obs-off)\n");
                    }
                }
            }
        }
    }
    if let Some(format) = opts.metrics {
        let diff = transmark_obs::registry().snapshot().diff(&baseline);
        match format {
            MetricsFormat::Json => {
                out.push_str(&diff.to_json());
                out.push('\n');
            }
            MetricsFormat::Text => out.push_str(&metrics_report(&diff)),
        }
    }
    Ok(out)
}

/// Exactly-N positional arguments, or a usage error.
fn positional<const N: usize>(args: Vec<String>) -> Result<[String; N], CliError> {
    if args.len() != N {
        return Err(usage_err(format!(
            "expected {N} argument(s), found {}",
            args.len()
        )));
    }
    Ok(args.try_into().expect("length checked"))
}
