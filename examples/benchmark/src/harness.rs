//! What every workload shares: the closed-loop driver, set-up timing,
//! peak memory, the result record, and reading layer timings back out of
//! an [`ExecutionProfile`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use transmark::obs::{ExecutionProfile, Recorder, SpanGuard};

use crate::stats;

/// The layers of this repository, as the benchmark attributes time to them.
/// A benchmark span is named `<layer>.<call>`.
pub const LAYERS: [&str; 9] = [
    "serve",
    "store",
    "planner",
    "dataplane",
    "kernel",
    "enumerate",
    "sproj",
    "incremental",
    "obs",
];

/// Segments of an untraced run, each on its own set-up; `setup_s` is the
/// median of their set-up times.
pub const SEGMENTS: usize = 5;

/// Length of the traced phase of a traced run, and of the untraced phase
/// it is compared against.
pub const TRACE_SECONDS: f64 = 5.0;

/// Length of the traced phase when a workload only fills in the per-layer
/// metrics of layers another workload's traced run does not reach.
pub const PROBE_SECONDS: f64 = 1.0;

/// One workload invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
}

/// What a traced run asks of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// The workload under study: its load traced, between two untraced
    /// halves, then the measurements that split its ops into their calls.
    Full,
    /// A short traced phase plus the extra measurements, for the
    /// per-layer metrics this workload owns.
    Probe,
}

impl TraceMode {
    pub fn seconds(self, cfg: &Config) -> f64 {
        match self {
            TraceMode::Full => cfg.seconds.min(TRACE_SECONDS),
            TraceMode::Probe => PROBE_SECONDS,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Correctness bookkeeping for one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// A workload's result: its correctness record and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Traced runs only: the profile of the traced load, and of the
    /// measurements that split its ops into their calls.
    pub profiles: Option<(ExecutionProfile, ExecutionProfile)>,
}

/// Opens a benchmark span around a call into a layer, only when tracing:
/// untraced runs add nothing to the program's own instrumentation.
pub fn span(traced: bool, name: &'static str) -> Option<SpanGuard> {
    traced.then(|| transmark::obs::span::enter(name))
}

/// An untraced run's measurements.
pub struct Measured {
    pub window: Window,
    /// Median set-up time over the segments, in seconds.
    pub setup_s: f64,
    /// Median over the segments of each segment's peak resident set, MiB.
    pub peak_rss_mb: f64,
}

/// The untraced measurement: `seconds` split over [`SEGMENTS`]
/// segments, each on a fresh set-up (`start`) that is dropped, servers and
/// all, before the next. Fresh threads land on the machine's cores anew,
/// so one unlucky placement sets only a fifth of the run. Op numbering
/// continues from segment to segment, so every slot of the op cycle is
/// visited alike. The peak resident set is reset before each segment, so
/// each set-up and window has a peak of its own.
pub fn segmented<R>(
    seconds: f64,
    mut start: impl FnMut() -> Result<R, String>,
    mut window: impl FnMut(&mut R, u64, f64) -> Window,
) -> Result<Measured, String> {
    let mut total = Window::default();
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        reset_peak_rss();
        let t0 = Instant::now();
        let mut ready = start()?;
        setups.push(t0.elapsed().as_secs_f64());
        let first = total.ops.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        let w = window(&mut ready, first, seconds / SEGMENTS as f64);
        drop(ready);
        peaks.push(peak_rss_mb());
        total.ops.extend(w.ops);
        total.wall += w.wall;
        total.callers = w.callers;
        total.checks.absorb(w.checks);
    }
    Ok(Measured {
        window: total,
        setup_s: stats::median(&setups).expect("SEGMENTS > 0"),
        peak_rss_mb: stats::median(&peaks).expect("SEGMENTS > 0"),
    })
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// `(op sequence number, latency in ns)` of every completed op.
    pub ops: Vec<(u64, u64)>,
    pub wall: Duration,
    pub callers: usize,
    pub checks: Checks,
}

/// A window reduced to its end-to-end numbers (see [`Window::summary`]).
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

impl Window {
    /// Every op's latency in ns, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self.ops.iter().map(|&(_, ns)| ns).collect();
        l.sort_unstable();
        l
    }

    /// A workload's ops repeat with `period`: op `i` does the same work
    /// as op `i + period` (same op kind, same input). Each slot `i mod
    /// period` is taken at the fastest of its visits: other tenants of a
    /// shared machine only ever slow an op down, and they do so in phases
    /// of seconds, so the fastest visit tracks the program's own cost as
    /// long as one visit fell in a quiet phase. The slots together make
    /// one typical turn of the cycle. Throughput is that turn's ops over
    /// its time (divided among the callers, each of which is busy all the
    /// time in a closed loop), and p50 and p90 are quantiles over its ops.
    pub fn summary(&self, period: u64) -> Summary {
        let mut slots: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(i, ns) in &self.ops {
            slots.entry(i % period).or_default().push(ns as f64);
        }
        let typical: Vec<f64> = slots
            .values()
            .filter_map(|v| v.iter().copied().reduce(f64::min))
            .collect();
        let turn_s = typical.iter().sum::<f64>() / 1e9;
        let callers = self.callers.max(1) as f64;
        Summary {
            ops_per_s: callers * typical.len() as f64 / turn_s.max(1e-12),
            p50_ms: stats::quantile(&typical, 0.50).unwrap_or(0.0) / 1e6,
            p90_ms: stats::quantile(&typical, 0.90).unwrap_or(0.0) / 1e6,
        }
    }
}

/// A closed loop: each caller issues its next op only after the previous
/// one returned, until `seconds` have passed. Ops are numbered from
/// `first`; op `i` (so the inputs rotate deterministically) runs on
/// whichever caller takes it. With a recorder, each caller thread records
/// into it under the lane `caller-<n>`. One caller runs on the current
/// thread.
pub fn closed_loop<C: Send>(
    callers: &mut [C],
    first: u64,
    seconds: f64,
    recorder: Option<&Arc<Recorder>>,
    op: impl Fn(&mut C, u64) -> Result<(), String> + Sync,
) -> Window {
    let next = AtomicU64::new(first);
    let merged = Mutex::new(Window::default());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let drive = |lane: usize, ctx: &mut C| {
        let _scope = recorder.map(|r| r.install(format!("caller-{lane}")));
        let mut local = Window::default();
        while Instant::now() < deadline {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let outcome = op(ctx, i);
            local.ops.push((i, t0.elapsed().as_nanos() as u64));
            local.checks.record(outcome);
        }
        let mut m = merged.lock().expect("no caller panicked");
        m.ops.extend(local.ops);
        m.checks.absorb(local.checks);
    };
    if let [only] = callers {
        drive(0, only);
    } else {
        std::thread::scope(|s| {
            for (lane, ctx) in callers.iter_mut().enumerate() {
                let drive = &drive;
                s.spawn(move || drive(lane, ctx));
            }
        });
    }
    let mut w = merged.into_inner().expect("no caller panicked");
    w.wall = start.elapsed();
    w.callers = callers.len();
    w
}

/// The end-to-end metrics every workload reports; `period` is the length
/// of the workload's op cycle.
pub fn end_to_end(m: &Measured, period: u64) -> Vec<Metric> {
    let s = m.window.summary(period);
    vec![
        metric("ops_per_s", s.ops_per_s, "ops/s"),
        metric("op_p50_ms", s.p50_ms, "ms"),
        metric("op_p90_ms", s.p90_ms, "ms"),
        metric("setup_s", m.setup_s, "s"),
        metric("peak_rss_mb", m.peak_rss_mb, "MiB"),
    ]
}

/// Returns the allocator's free pages to the system, then restarts the
/// kernel's peak-resident-set count (`VmHWM`) from the current resident
/// set, so the next peak counts what is live from here on rather than
/// what earlier work freed but the allocator kept. Where the kernel does
/// not allow the reset the peak keeps counting from process start.
fn reset_peak_rss() {
    trim_allocator();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Hands every glibc malloc arena's free pages back to the system (a
/// no-op elsewhere).
fn trim_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: malloc_trim takes a plain integer and only releases
        // pages the allocator holds free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A traced run's load. `window(recorder, seconds)` runs the workload's
/// closed loop, recording spans when given a recorder. With
/// [`TraceMode::Full`] half the phase length runs untraced before the
/// traced window and half after it, so drift over the run cancels in
/// `obs.trace_overhead` (`untraced ÷ traced` throughput; 1.0 = free).
/// Every window's checks go into `checks`. Returns the traced window, its
/// profile, and the overhead metric (full mode only).
pub fn trace_phases(
    mode: TraceMode,
    cfg: &Config,
    period: u64,
    checks: &mut Checks,
    mut window: impl FnMut(Option<&Arc<Recorder>>, f64) -> Window,
) -> (Window, ExecutionProfile, Vec<Metric>) {
    let seconds = mode.seconds(cfg);
    let full = mode == TraceMode::Full;
    let mut untraced = Window::default();
    if full {
        untraced = window(None, seconds / 2.0);
    }
    let rec = Arc::new(Recorder::new());
    let mut traced = window(Some(&rec), seconds);
    let mut metrics = Vec::new();
    if full {
        let after = window(None, seconds / 2.0);
        untraced.ops.extend(after.ops);
        untraced.callers = after.callers;
        checks.absorb(after.checks);
        metrics.push(metric(
            "obs.trace_overhead",
            untraced.summary(period).ops_per_s / traced.summary(period).ops_per_s.max(1e-9),
            "ratio",
        ));
    }
    checks.absorb(std::mem::take(&mut untraced.checks));
    checks.absorb(std::mem::take(&mut traced.checks));
    (traced, rec.finish(), metrics)
}

/// Every completed occurrence of the span `name`, in ns, across the
/// profile's lanes (server lanes merged from the wire included).
pub fn span_durations(profile: &ExecutionProfile, name: &str) -> Vec<u64> {
    use transmark::obs::profile::EventKind;
    let mut out = Vec::new();
    for lane in &profile.lanes {
        let mut open: Vec<(&str, u64)> = Vec::new();
        for e in &lane.events {
            match e.kind {
                EventKind::Begin => open.push((e.name, e.t_ns)),
                EventKind::End => {
                    if let Some((n, t0)) = open.pop() {
                        if n == name {
                            out.push(e.t_ns.saturating_sub(t0));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Mean duration of the span `name` in ns (0 when it never closed).
pub fn span_mean_ns(profile: &ExecutionProfile, name: &str) -> f64 {
    let d = span_durations(profile, name);
    d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
}

/// Total duration of the span `name` in ns.
pub fn span_total_ns(profile: &ExecutionProfile, name: &str) -> f64 {
    span_durations(profile, name).iter().sum::<u64>() as f64
}

/// Self time per layer in ns: each folded stack's self time goes to the
/// innermost benchmark span (`<layer>.<call>`) on it, so the program's own
/// spans count toward the layer call that entered them. Lanes merged from
/// the server overlap the caller's `serve` spans and are left out.
pub fn layer_self_ns(profile: &ExecutionProfile) -> BTreeMap<&'static str, u64> {
    let folded = transmark::obs::trace::folded(profile);
    let stacks = transmark::obs::trace::parse_folded(&folded).expect("own folded output parses");
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (frames, self_ns) in stacks {
        let Some((lane, spans)) = frames.split_first() else {
            continue;
        };
        if lane.starts_with("server/") {
            continue;
        }
        let layer = spans
            .iter()
            .rev()
            .find_map(|f| {
                let prefix = f.split('.').next()?;
                LAYERS.iter().copied().find(|&l| l == prefix)
            })
            .unwrap_or("unattributed");
        *out.entry(layer).or_insert(0) += self_ns;
    }
    out
}

/// Thins per-layer and per-tick events (the kernel's progress and
/// data-plane byte counters, and instants) to one per name per lane per
/// millisecond, counters carrying the counts of the events they replace,
/// so a long chain's Chrome trace stays loadable. Spans are kept.
pub fn thin_counters(profile: &mut ExecutionProfile) {
    use transmark::obs::profile::EventKind;
    const GAP_NS: u64 = 1_000_000;
    for lane in &mut profile.lanes {
        let mut kept: Vec<transmark::obs::profile::TimelineEvent> =
            Vec::with_capacity(lane.events.len());
        let mut last: BTreeMap<(u8, &str), usize> = BTreeMap::new();
        for e in lane.events.drain(..) {
            let kind = match e.kind {
                EventKind::Progress => 0,
                EventKind::Bytes => 1,
                EventKind::Instant => 2,
                EventKind::Begin | EventKind::End => {
                    kept.push(e);
                    continue;
                }
            };
            match last.get(&(kind, e.name)) {
                Some(&k) if e.t_ns.saturating_sub(kept[k].t_ns) < GAP_NS => {
                    kept[k].value += e.value;
                }
                _ => {
                    last.insert((kind, e.name), kept.len());
                    kept.push(e);
                }
            }
        }
        lane.events = kept;
    }
}

/// Runs `f` and returns the mean duration in ns of the span `name` (a
/// root span) over it, read from the process-wide span aggregates. For
/// calls timed with no recorder installed, because recording every event
/// would change what they measure: the monitor's window sessions emit an
/// instant per tick.
pub fn unrecorded_mean_ns(
    name: &str,
    f: impl FnOnce() -> Result<(), String>,
) -> Result<f64, String> {
    let before = transmark::obs::registry().snapshot();
    f()?;
    let during = transmark::obs::registry().snapshot().diff(&before);
    Ok(during
        .span(name)
        .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64))
}

/// A deterministic per-seed RNG for one input family, so adding a family
/// never shifts another family's inputs.
pub fn rng(seed: u64, family: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ family)
}

/// A scratch directory for one run's files, inside the working directory
/// and removed on drop.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let dir =
            std::path::Path::new(".bench_out").join(format!("tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Bit-for-bit equality of two f64 series.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
