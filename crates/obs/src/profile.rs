//! Query-scoped timeline profiling.
//!
//! The global [`Registry`](crate::Registry) answers "how much, overall";
//! this module answers "where did *this* query's time go". A
//! [`Recorder`] is a query-scoped context: while a thread holds a
//! [`RecorderScope`] (via [`Recorder::install`] or [`Recorder::scope`]),
//! every span begin/end, instant event (cache hit/miss, plan-kind
//! decision), kernel layer-progress batch, and data-plane byte count on
//! that thread is captured as a timestamped [`TimelineEvent`] in a
//! per-thread append-only buffer. Fleet code clones the `Arc<Recorder>`
//! into its workers (see [`current`]) and installs one scope per worker,
//! so each worker becomes its own lane; queue-wait shows up as the gap
//! before a lane's first event. [`Recorder::finish`] merges the buffers
//! into an [`ExecutionProfile`]: per-phase breakdown, per-worker lanes,
//! and derived throughput.
//!
//! Scoping rules:
//! - Scopes nest per thread; the innermost scope receives the events.
//! - A scope must drop on the thread that installed it (`RecorderScope`
//!   is `!Send`); dropping flushes the thread's buffer into the recorder.
//! - Threads without an installed scope record nothing — the fast path
//!   is a single relaxed atomic load, so idle cost is negligible and the
//!   whole module compiles to no-ops under `obs-off`.
//!
//! Nothing here touches query data: like the metrics layer, the recorder
//! observes clocks and counts only, so profiled runs are bit-identical
//! to unprofiled ones (asserted in `crates/core/tests/observability.rs`).

use crate::snapshot::{Snapshot, SpanSnapshot};
use std::collections::BTreeMap;
use std::sync::Arc;

#[cfg(not(feature = "obs-off"))]
use std::cell::RefCell;
#[cfg(not(feature = "obs-off"))]
use std::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(feature = "obs-off"))]
use std::sync::Mutex;
#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// What a [`TimelineEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`name` is the span name; depth comes from pairing).
    Begin,
    /// The innermost open span closed.
    End,
    /// A point event: cache hit/miss, plan-kind decision, rewind, ….
    Instant,
    /// `value` DP layers were advanced since the previous sample.
    Progress,
    /// `value` data-plane bytes were consumed since the previous sample.
    Bytes,
}

/// One timestamped event in a lane. All payloads are `&'static str`s or
/// integers so recording never allocates.
#[derive(Debug, Clone, Copy)]
pub struct TimelineEvent {
    /// Nanoseconds since the recorder's epoch ([`Recorder::new`]).
    pub t_ns: u64,
    pub kind: EventKind,
    /// Event (or span) name; empty for [`EventKind::End`].
    pub name: &'static str,
    /// Secondary label (e.g. the plan-kind label on a decision event).
    pub detail: &'static str,
    /// Payload for [`EventKind::Progress`]/[`EventKind::Bytes`]; for an
    /// [`EventKind::Instant`], 0, or the number of repeated events a
    /// [`summary`] stands for.
    pub value: u64,
    /// The last tick a [`summary`] covers (its first is
    /// `tick + 1 − value`); 0 for every other event.
    pub tick: u64,
}

/// A finished lane: the events one scope captured, in order.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The label passed to [`Recorder::install`] (e.g. `"worker-3"`).
    pub label: String,
    pub events: Vec<TimelineEvent>,
}

/// A query-scoped event recorder. Create one per query (or per batch),
/// wrap the work in [`Recorder::scope`], share the `Arc` with any worker
/// threads, then [`Recorder::finish`] to get the [`ExecutionProfile`].
#[derive(Debug)]
pub struct Recorder {
    #[cfg(not(feature = "obs-off"))]
    epoch: Instant,
    #[cfg(not(feature = "obs-off"))]
    lanes: Mutex<Vec<Lane>>,
    /// Wire-propagated trace id (0 = none); see [`Recorder::set_trace`].
    #[cfg(not(feature = "obs-off"))]
    trace_id: std::sync::atomic::AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

#[cfg(not(feature = "obs-off"))]
struct ActiveLane {
    recorder: Arc<Recorder>,
    label: String,
    buf: Vec<TimelineEvent>,
}

#[cfg(not(feature = "obs-off"))]
thread_local! {
    /// Stack of scopes installed on this thread; the top receives events.
    static ACTIVE: RefCell<Vec<ActiveLane>> = const { RefCell::new(Vec::new()) };
}

/// Count of installed scopes across all threads: the recording fast path
/// checks this single relaxed atomic before touching any thread-local.
#[cfg(not(feature = "obs-off"))]
static ANY_ACTIVE: AtomicUsize = AtomicUsize::new(0);

impl Recorder {
    /// A fresh recorder; its creation instant is the timeline epoch.
    pub fn new() -> Recorder {
        Recorder {
            #[cfg(not(feature = "obs-off"))]
            epoch: Instant::now(),
            #[cfg(not(feature = "obs-off"))]
            lanes: Mutex::new(Vec::new()),
            #[cfg(not(feature = "obs-off"))]
            trace_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Tags this recorder (and the profile it will produce) with a
    /// wire-propagated trace id, so a server-side capture can be
    /// stitched to the client-side capture that requested it. `0` means
    /// untraced; a no-op under `obs-off`.
    pub fn set_trace(&self, trace_id: u64) {
        #[cfg(not(feature = "obs-off"))]
        self.trace_id.store(trace_id, Ordering::Relaxed);
        #[cfg(feature = "obs-off")]
        let _ = trace_id;
    }

    /// The trace id set via [`Recorder::set_trace`] (0 when untraced).
    pub fn trace_id(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        {
            self.trace_id.load(Ordering::Relaxed)
        }
        #[cfg(feature = "obs-off")]
        0
    }

    /// Installs this recorder on the current thread under `label` until
    /// the returned scope drops. Scopes nest; the innermost wins.
    pub fn install(self: &Arc<Self>, label: impl Into<String>) -> RecorderScope {
        #[cfg(not(feature = "obs-off"))]
        {
            ACTIVE.with(|a| {
                a.borrow_mut().push(ActiveLane {
                    recorder: Arc::clone(self),
                    label: label.into(),
                    buf: Vec::new(),
                });
            });
            ANY_ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        #[cfg(feature = "obs-off")]
        let _ = label.into();
        RecorderScope {
            _not_send: std::marker::PhantomData,
        }
    }

    /// Runs `f` with this recorder installed under the `"main"` label.
    pub fn scope<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _scope = self.install("main");
        f()
    }

    /// Merges every flushed lane into an [`ExecutionProfile`]. Call
    /// after all scopes have dropped; events from still-installed scopes
    /// are not visible yet.
    pub fn finish(&self) -> ExecutionProfile {
        #[cfg(not(feature = "obs-off"))]
        {
            let lanes = self.lanes.lock().unwrap_or_else(|e| e.into_inner());
            let mut profile = ExecutionProfile::build(elapsed_ns(self.epoch), &lanes);
            profile.trace_id = self.trace_id();
            profile
        }
        #[cfg(feature = "obs-off")]
        ExecutionProfile::default()
    }
}

/// Uninstalls its recorder (and flushes the thread's event buffer into
/// it) on drop. `!Send`: a scope must drop on the thread it was
/// installed on, or lane buffers would interleave.
#[must_use = "a recorder scope stops capturing when its guard drops"]
#[derive(Debug)]
pub struct RecorderScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

#[cfg(not(feature = "obs-off"))]
impl Drop for RecorderScope {
    fn drop(&mut self) {
        ANY_ACTIVE.fetch_sub(1, Ordering::Relaxed);
        let lane = ACTIVE.with(|a| a.borrow_mut().pop());
        if let Some(lane) = lane {
            let mut lanes = lane
                .recorder
                .lanes
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            lanes.push(Lane {
                label: lane.label,
                events: lane.buf,
            });
        }
    }
}

#[cfg(feature = "obs-off")]
impl Drop for RecorderScope {
    fn drop(&mut self) {}
}

#[cfg(not(feature = "obs-off"))]
fn elapsed_ns(epoch: Instant) -> u64 {
    let e = epoch.elapsed().as_nanos();
    if e > u64::MAX as u128 {
        u64::MAX
    } else {
        e as u64
    }
}

/// Nanoseconds since the innermost active recorder's epoch on this
/// thread, or `None` when no scope is installed. Lets callers timestamp
/// external milestones (e.g. "request sent") on the same clock the
/// profile's events use.
pub fn now_ns() -> Option<u64> {
    #[cfg(not(feature = "obs-off"))]
    {
        if ANY_ACTIVE.load(Ordering::Relaxed) == 0 {
            return None;
        }
        ACTIVE.with(|a| a.borrow().last().map(|l| elapsed_ns(l.recorder.epoch)))
    }
    #[cfg(feature = "obs-off")]
    None
}

/// The recorder installed innermost on this thread, if any. Fleet code
/// calls this before spawning workers and hands each worker a clone to
/// [`Recorder::install`] under its own lane label.
pub fn current() -> Option<Arc<Recorder>> {
    #[cfg(not(feature = "obs-off"))]
    {
        if ANY_ACTIVE.load(Ordering::Relaxed) == 0 {
            return None;
        }
        ACTIVE.with(|a| a.borrow().last().map(|l| Arc::clone(&l.recorder)))
    }
    #[cfg(feature = "obs-off")]
    None
}

/// Records one event into the innermost scope on this thread, if any.
#[inline]
fn record(kind: EventKind, name: &'static str, detail: &'static str, value: u64, tick: u64) {
    #[cfg(not(feature = "obs-off"))]
    {
        if ANY_ACTIVE.load(Ordering::Relaxed) == 0 {
            return;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if let Some(top) = a.last_mut() {
                let t_ns = elapsed_ns(top.recorder.epoch);
                top.buf.push(TimelineEvent {
                    t_ns,
                    kind,
                    name,
                    detail,
                    value,
                    tick,
                });
            }
        });
    }
    #[cfg(feature = "obs-off")]
    {
        let _ = (kind, name, detail, value, tick);
    }
}

/// Marks a span opening (called by [`span::enter`](crate::span::enter)).
#[inline]
pub fn span_begin(name: &'static str) {
    record(EventKind::Begin, name, "", 0, 0);
}

/// Marks the innermost open span closing.
#[inline]
pub fn span_end() {
    record(EventKind::End, "", "", 0, 0);
}

/// Records a point event (cache hit/miss, rewind, …).
#[inline]
pub fn instant(name: &'static str) {
    record(EventKind::Instant, name, "", 0, 0);
}

/// Records `count` repeated point events of one kind, over the
/// consecutive ticks ending at `last_tick`, as one summary instant — for
/// events that happen on every tick of a stream (window slides), where
/// one event each would cost more than the tick.
#[inline]
pub fn summary(name: &'static str, count: u64, last_tick: u64) {
    record(EventKind::Instant, name, "", count, last_tick);
}

/// Records a point event with a secondary label (e.g. the plan kind).
#[inline]
pub fn instant_detail(name: &'static str, detail: &'static str) {
    record(EventKind::Instant, name, detail, 0, 0);
}

/// Records that `layers` DP layers were advanced (the kernel calls this
/// once per batched sweep, so timelines sample layer progress for free).
#[inline]
pub fn progress(layers: u64) {
    record(EventKind::Progress, "kernel.layers", "", layers, 0);
}

/// Records that `n` data-plane bytes were consumed.
#[inline]
pub fn bytes(n: u64) {
    record(EventKind::Bytes, "dataplane.bytes", "", n, 0);
}

/// One lane of a finished profile.
#[derive(Debug, Clone, Default)]
pub struct LaneProfile {
    /// The scope label (`"main"`, `"worker-0"`, …).
    pub label: String,
    /// The lane's events, in timestamp order.
    pub events: Vec<TimelineEvent>,
    /// Total wall time inside top-level spans on this lane.
    pub busy_ns: u64,
}

/// A merged, query-scoped execution profile: what [`Recorder::finish`]
/// returns. Render with [`ExecutionProfile::to_snapshot`] (text/JSON),
/// [`trace::chrome_trace`](crate::trace::chrome_trace) (Perfetto), or
/// [`trace::folded`](crate::trace::folded) (flamegraphs).
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    /// Wire-propagated trace id this capture belongs to (0 = untraced).
    pub trace_id: u64,
    /// Wall-clock span of the recorder, epoch to `finish`.
    pub wall_ns: u64,
    /// One lane per recorder scope, merged by label, label-sorted.
    pub lanes: Vec<LaneProfile>,
    /// Inclusive per-phase aggregates keyed by "/"-joined span path
    /// (same keying as the global span aggregates).
    pub phases: BTreeMap<String, SpanSnapshot>,
    /// Counts of instant events, keyed `name` or `name/detail`.
    pub instants: BTreeMap<String, u64>,
    /// Total DP layers advanced while recorded.
    pub layers: u64,
    /// Total data-plane bytes consumed while recorded.
    pub bytes: u64,
}

impl ExecutionProfile {
    #[cfg(not(feature = "obs-off"))]
    fn build(wall_ns: u64, raw: &[Lane]) -> ExecutionProfile {
        // Merge scopes that share a label (e.g. a worker index reused
        // across fleet calls) into one lane, then sort events by time.
        let mut by_label: BTreeMap<&str, Vec<TimelineEvent>> = BTreeMap::new();
        for lane in raw {
            by_label
                .entry(lane.label.as_str())
                .or_default()
                .extend_from_slice(&lane.events);
        }
        let mut profile = ExecutionProfile {
            wall_ns,
            ..ExecutionProfile::default()
        };
        for (label, mut events) in by_label {
            events.sort_by_key(|e| e.t_ns);
            let mut lane = LaneProfile {
                label: label.to_string(),
                events,
                busy_ns: 0,
            };
            for e in &lane.events {
                match e.kind {
                    EventKind::Progress => profile.layers += e.value,
                    EventKind::Bytes => profile.bytes += e.value,
                    EventKind::Instant => {
                        let key = if e.detail.is_empty() {
                            e.name.to_string()
                        } else {
                            format!("{}/{}", e.name, e.detail)
                        };
                        *profile.instants.entry(key).or_insert(0) += e.value.max(1);
                    }
                    EventKind::Begin | EventKind::End => {}
                }
            }
            walk_spans(&lane.events, wall_ns, |path, frame| {
                let stat = profile.phases.entry(path.join("/")).or_default();
                stat.count += 1;
                stat.total_ns = stat.total_ns.saturating_add(frame.inclusive_ns);
                stat.max_ns = stat.max_ns.max(frame.inclusive_ns);
                if path.len() == 1 {
                    lane.busy_ns = lane.busy_ns.saturating_add(frame.inclusive_ns);
                }
            });
            profile.lanes.push(lane);
        }
        profile
    }

    /// Layer throughput over the recorded wall-clock window.
    pub fn layers_per_sec(&self) -> f64 {
        per_sec(self.layers, self.wall_ns)
    }

    /// Data-plane byte throughput over the recorded wall-clock window.
    pub fn bytes_per_sec(&self) -> f64 {
        per_sec(self.bytes, self.wall_ns)
    }

    /// Renders the profile through the existing snapshot machinery:
    /// phases become spans, instants and totals become counters. The
    /// result supports [`Snapshot::to_text`] and [`Snapshot::to_json`].
    pub fn to_snapshot(&self) -> Snapshot {
        let mut counters = BTreeMap::new();
        counters.insert("profile.wall_ns".to_string(), self.wall_ns);
        counters.insert("profile.lanes".to_string(), self.lanes.len() as u64);
        counters.insert("profile.layers".to_string(), self.layers);
        counters.insert("profile.bytes".to_string(), self.bytes);
        for (name, n) in &self.instants {
            counters.insert(format!("profile.instant.{name}"), *n);
        }
        counters.retain(|_, v| *v != 0);
        Snapshot {
            counters,
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: self.phases.clone(),
        }
    }

    /// Serializes the full profile (lanes, events, phases, instants) to
    /// compact JSON so it can cross the wire — `tmk serve` ships traced
    /// captures back to the client this way. Round-trips via
    /// [`ExecutionProfile::from_json`].
    pub fn to_json(&self) -> String {
        use crate::json::Value;
        let kind_code = |k: EventKind| -> u64 {
            match k {
                EventKind::Begin => 0,
                EventKind::End => 1,
                EventKind::Instant => 2,
                EventKind::Progress => 3,
                EventKind::Bytes => 4,
            }
        };
        let mut root = BTreeMap::new();
        root.insert("trace_id".to_string(), Value::Int(self.trace_id));
        root.insert("wall_ns".to_string(), Value::Int(self.wall_ns));
        root.insert("layers".to_string(), Value::Int(self.layers));
        root.insert("bytes".to_string(), Value::Int(self.bytes));
        root.insert(
            "lanes".to_string(),
            Value::Array(
                self.lanes
                    .iter()
                    .map(|lane| {
                        let mut o = BTreeMap::new();
                        o.insert("label".to_string(), Value::Str(lane.label.clone()));
                        o.insert("busy_ns".to_string(), Value::Int(lane.busy_ns));
                        o.insert(
                            "events".to_string(),
                            Value::Array(
                                lane.events
                                    .iter()
                                    .map(|e| {
                                        let mut v = vec![
                                            Value::Int(e.t_ns),
                                            Value::Int(kind_code(e.kind)),
                                            Value::Str(e.name.to_string()),
                                            Value::Str(e.detail.to_string()),
                                            Value::Int(e.value),
                                        ];
                                        // Only summaries carry a tick.
                                        if e.tick != 0 {
                                            v.push(Value::Int(e.tick));
                                        }
                                        Value::Array(v)
                                    })
                                    .collect(),
                            ),
                        );
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "phases".to_string(),
            Value::Object(
                self.phases
                    .iter()
                    .map(|(k, s)| {
                        let mut o = BTreeMap::new();
                        o.insert("count".to_string(), Value::Int(s.count));
                        o.insert("total_ns".to_string(), Value::Int(s.total_ns));
                        o.insert("max_ns".to_string(), Value::Int(s.max_ns));
                        (k.clone(), Value::Object(o))
                    })
                    .collect(),
            ),
        );
        root.insert(
            "instants".to_string(),
            Value::Object(
                self.instants
                    .iter()
                    .map(|(k, &n)| (k.clone(), Value::Int(n)))
                    .collect(),
            ),
        );
        Value::Object(root).to_json()
    }

    /// Parses a profile produced by [`ExecutionProfile::to_json`].
    ///
    /// Event names and details in the timeline are `&'static str` (so
    /// recording never allocates); deserialized names are interned by
    /// leaking, deduplicated within the call. That bounds the leak at
    /// one copy of each distinct name per parsed profile — fine for the
    /// intended consumer (a short-lived `tmk client --profile` stitching
    /// one server capture per request), not for a long-lived loop.
    pub fn from_json(text: &str) -> Result<ExecutionProfile, crate::json::JsonError> {
        use crate::json::Value;
        let bad = |message: &str| crate::json::JsonError {
            offset: 0,
            message: message.to_string(),
        };
        let mut interned: BTreeMap<String, &'static str> = BTreeMap::new();
        let mut intern = |s: &str| -> &'static str {
            if s.is_empty() {
                return "";
            }
            if let Some(&known) = interned.get(s) {
                return known;
            }
            let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
            interned.insert(s.to_string(), leaked);
            leaked
        };
        let root = crate::json::parse(text)?;
        let root = root
            .as_object()
            .ok_or_else(|| bad("profile root must be an object"))?;
        let int = |name: &str| -> u64 { root.get(name).and_then(Value::as_int).unwrap_or(0) };
        let mut profile = ExecutionProfile {
            trace_id: int("trace_id"),
            wall_ns: int("wall_ns"),
            layers: int("layers"),
            bytes: int("bytes"),
            ..ExecutionProfile::default()
        };
        if let Some(lanes) = root.get("lanes") {
            for lane in lanes
                .as_array()
                .ok_or_else(|| bad("\"lanes\" must be an array"))?
            {
                let o = lane
                    .as_object()
                    .ok_or_else(|| bad("lane entries must be objects"))?;
                let mut out = LaneProfile {
                    label: match o.get("label") {
                        Some(Value::Str(s)) => s.clone(),
                        _ => return Err(bad("lane \"label\" must be a string")),
                    },
                    busy_ns: o.get("busy_ns").and_then(Value::as_int).unwrap_or(0),
                    events: Vec::new(),
                };
                if let Some(events) = o.get("events") {
                    for e in events
                        .as_array()
                        .ok_or_else(|| bad("\"events\" must be an array"))?
                    {
                        let parts = e
                            .as_array()
                            .ok_or_else(|| bad("event entries must be arrays"))?;
                        let ([t_ns, kind, name, detail, value], tick) = match parts {
                            [a, b, c, d, e] => ([a, b, c, d, e], None),
                            [a, b, c, d, e, f] => ([a, b, c, d, e], Some(f)),
                            _ => {
                                return Err(bad(
                                    "events must be [t_ns, kind, name, detail, value(, tick)]",
                                ))
                            }
                        };
                        let kind = match kind.as_int() {
                            Some(0) => EventKind::Begin,
                            Some(1) => EventKind::End,
                            Some(2) => EventKind::Instant,
                            Some(3) => EventKind::Progress,
                            Some(4) => EventKind::Bytes,
                            _ => return Err(bad("unknown event kind code")),
                        };
                        let (Value::Str(name), Value::Str(detail)) = (name, detail) else {
                            return Err(bad("event name/detail must be strings"));
                        };
                        out.events.push(TimelineEvent {
                            t_ns: t_ns.as_int().ok_or_else(|| bad("event t_ns"))?,
                            kind,
                            name: intern(name),
                            detail: intern(detail),
                            value: value.as_int().ok_or_else(|| bad("event value"))?,
                            tick: match tick {
                                Some(t) => t.as_int().ok_or_else(|| bad("event tick"))?,
                                None => 0,
                            },
                        });
                    }
                }
                profile.lanes.push(out);
            }
        }
        if let Some(phases) = root.get("phases") {
            let phases = phases
                .as_object()
                .ok_or_else(|| bad("\"phases\" must be an object"))?;
            for (k, v) in phases {
                let o = v
                    .as_object()
                    .ok_or_else(|| bad("phase entries must be objects"))?;
                let field = |name: &str| o.get(name).and_then(Value::as_int).unwrap_or(0);
                profile.phases.insert(
                    k.clone(),
                    SpanSnapshot {
                        count: field("count"),
                        total_ns: field("total_ns"),
                        max_ns: field("max_ns"),
                    },
                );
            }
        }
        if let Some(instants) = root.get("instants") {
            let instants = instants
                .as_object()
                .ok_or_else(|| bad("\"instants\" must be an object"))?;
            for (k, v) in instants {
                profile
                    .instants
                    .insert(k.clone(), v.as_int().ok_or_else(|| bad("instant counts"))?);
            }
        }
        Ok(profile)
    }

    /// Grafts a remote capture (e.g. a server-side profile shipped back
    /// over `tmkp`) into this one: remote lanes are appended with their
    /// labels prefixed by `prefix`, their event clocks shifted by
    /// `offset_ns` (the local timestamp at which the remote work was
    /// requested), and phases/instants merged under prefixed keys. The
    /// merged wall clock extends to cover the remote window; a zero
    /// local trace id adopts the remote one.
    pub fn merge_remote(&mut self, remote: &ExecutionProfile, offset_ns: u64, prefix: &str) {
        for lane in &remote.lanes {
            let mut events = lane.events.clone();
            for e in &mut events {
                e.t_ns = e.t_ns.saturating_add(offset_ns);
            }
            self.lanes.push(LaneProfile {
                label: format!("{prefix}{}", lane.label),
                events,
                busy_ns: lane.busy_ns,
            });
        }
        for (path, s) in &remote.phases {
            let stat = self.phases.entry(format!("{prefix}{path}")).or_default();
            stat.count += s.count;
            stat.total_ns = stat.total_ns.saturating_add(s.total_ns);
            stat.max_ns = stat.max_ns.max(s.max_ns);
        }
        for (name, n) in &remote.instants {
            *self.instants.entry(format!("{prefix}{name}")).or_insert(0) += n;
        }
        self.layers += remote.layers;
        self.bytes += remote.bytes;
        self.wall_ns = self.wall_ns.max(offset_ns.saturating_add(remote.wall_ns));
        if self.trace_id == 0 {
            self.trace_id = remote.trace_id;
        }
    }

    /// Prepends a synthetic wait lane: one `name` span covering
    /// `[0, wait_ns)` under `label`, with every existing lane shifted
    /// right by `wait_ns`. `tmk serve` uses this to surface the worker
    /// pool's queue wait (which elapses before any recorder exists) as a
    /// first-class span in traced captures.
    pub fn prepend_wait(&mut self, label: &str, name: &'static str, wait_ns: u64) {
        if wait_ns == 0 {
            return;
        }
        for lane in &mut self.lanes {
            for e in &mut lane.events {
                e.t_ns = e.t_ns.saturating_add(wait_ns);
            }
        }
        self.lanes.insert(
            0,
            LaneProfile {
                label: label.to_string(),
                events: vec![
                    TimelineEvent {
                        t_ns: 0,
                        kind: EventKind::Begin,
                        name,
                        detail: "",
                        value: 0,
                        tick: 0,
                    },
                    TimelineEvent {
                        t_ns: wait_ns,
                        kind: EventKind::End,
                        name: "",
                        detail: "",
                        value: 0,
                        tick: 0,
                    },
                ],
                busy_ns: wait_ns,
            },
        );
        self.wall_ns = self.wall_ns.saturating_add(wait_ns);
        let stat = self.phases.entry(name.to_string()).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(wait_ns);
        stat.max_ns = stat.max_ns.max(wait_ns);
    }

    /// A compact human-readable summary (used by bare `--profile`).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall {}  lanes {}  layers {} ({:.0}/s)  bytes {} ({:.0}/s)",
            crate::snapshot::fmt_ns(self.wall_ns),
            self.lanes.len(),
            self.layers,
            self.layers_per_sec(),
            self.bytes,
            self.bytes_per_sec(),
        );
        for lane in &self.lanes {
            let _ = writeln!(
                out,
                "lane {:<12} {:>6} events  busy {}",
                lane.label,
                lane.events.len(),
                crate::snapshot::fmt_ns(lane.busy_ns),
            );
        }
        out.push_str(&self.to_snapshot().to_text());
        out
    }
}

fn per_sec(n: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        n as f64 / (wall_ns as f64 / 1e9)
    }
}

/// A reconstructed span occurrence inside one lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// Wall time between the span's begin and end events. (Only read by
    /// `ExecutionProfile::build`, which `obs-off` compiles out.)
    #[cfg_attr(feature = "obs-off", allow(dead_code))]
    pub inclusive_ns: u64,
    /// Inclusive time minus the inclusive time of direct children.
    pub self_ns: u64,
}

/// Replays a lane's Begin/End events, invoking `f` once per completed
/// span with its full path (outermost first). Spans still open at the
/// end of the lane are closed at `wall_ns` so partial captures degrade
/// gracefully instead of losing frames.
#[cfg_attr(feature = "obs-off", allow(dead_code))]
pub(crate) fn walk_spans(
    events: &[TimelineEvent],
    wall_ns: u64,
    mut f: impl FnMut(&[&'static str], Frame),
) {
    struct Open {
        name: &'static str,
        begin_ns: u64,
        child_ns: u64,
    }
    let mut stack: Vec<Open> = Vec::new();
    let close = |stack: &mut Vec<Open>, end_ns: u64, f: &mut dyn FnMut(&[&'static str], Frame)| {
        let top = match stack.pop() {
            Some(t) => t,
            None => return,
        };
        let inclusive_ns = end_ns.saturating_sub(top.begin_ns);
        let mut path: Vec<&'static str> = stack.iter().map(|o| o.name).collect();
        path.push(top.name);
        f(
            &path,
            Frame {
                inclusive_ns,
                self_ns: inclusive_ns.saturating_sub(top.child_ns),
            },
        );
        if let Some(parent) = stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(inclusive_ns);
        }
    };
    for e in events {
        match e.kind {
            EventKind::Begin => stack.push(Open {
                name: e.name,
                begin_ns: e.t_ns,
                child_ns: 0,
            }),
            EventKind::End => close(&mut stack, e.t_ns, &mut f),
            _ => {}
        }
    }
    while !stack.is_empty() {
        close(&mut stack, wall_ns, &mut f);
    }
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn scope_captures_spans_and_instants() {
        let rec = Arc::new(Recorder::new());
        rec.scope(|| {
            let _s = crate::span::enter("profile_test_outer");
            {
                let _i = crate::span::enter("inner");
                instant_detail("cache", "miss");
                progress(42);
                bytes(1024);
            }
        });
        let p = rec.finish();
        assert_eq!(p.lanes.len(), 1);
        assert_eq!(p.lanes[0].label, "main");
        assert_eq!(p.layers, 42);
        assert_eq!(p.bytes, 1024);
        assert_eq!(p.instants["cache/miss"], 1);
        assert_eq!(p.phases["profile_test_outer"].count, 1);
        let inner = &p.phases["profile_test_outer/inner"];
        assert_eq!(inner.count, 1);
        assert!(p.phases["profile_test_outer"].total_ns >= inner.total_ns);
    }

    #[test]
    fn lanes_merge_by_label_and_threads_need_scopes() {
        let rec = Arc::new(Recorder::new());
        {
            let _a = rec.install("w");
            instant("one");
        }
        {
            let _b = rec.install("w");
            instant("two");
        }
        let unscoped = std::thread::spawn(|| {
            // No scope installed on this thread: nothing recorded.
            instant("dropped");
        });
        unscoped.join().unwrap();
        let p = rec.finish();
        assert_eq!(p.lanes.len(), 1, "same label merges into one lane");
        assert_eq!(p.lanes[0].events.len(), 2);
        assert!(!p.instants.contains_key("dropped"));
    }

    #[test]
    fn nested_scopes_innermost_wins() {
        let outer = Arc::new(Recorder::new());
        let inner = Arc::new(Recorder::new());
        outer.scope(|| {
            instant("outer.before");
            inner.scope(|| instant("inner.only"));
            instant("outer.after");
        });
        let po = outer.finish();
        let pi = inner.finish();
        assert_eq!(po.instants.get("inner.only"), None);
        assert_eq!(pi.instants["inner.only"], 1);
        assert_eq!(po.instants["outer.before"], 1);
        assert_eq!(po.instants["outer.after"], 1);
    }

    #[test]
    fn unbalanced_spans_close_at_wall() {
        let events = [TimelineEvent {
            t_ns: 10,
            kind: EventKind::Begin,
            name: "open",
            detail: "",
            value: 0,
            tick: 0,
        }];
        let mut seen = Vec::new();
        walk_spans(&events, 100, |path, frame| {
            seen.push((path.join("/"), frame.inclusive_ns));
        });
        assert_eq!(seen, vec![("open".to_string(), 90)]);
    }

    #[test]
    fn profile_json_round_trips_and_merges() {
        let rec = Arc::new(Recorder::new());
        rec.set_trace(0xabcd);
        rec.scope(|| {
            let _s = crate::span::enter("remote_phase_test");
            instant_detail("cache", "hit");
            progress(3);
            summary("slides", 5, 9);
        });
        let remote = rec.finish();
        assert_eq!(remote.trace_id, 0xabcd);
        let back = ExecutionProfile::from_json(&remote.to_json()).unwrap();
        assert_eq!(back.trace_id, 0xabcd);
        assert_eq!(back.lanes.len(), remote.lanes.len());
        assert_eq!(back.lanes[0].events.len(), remote.lanes[0].events.len());
        assert_eq!(back.phases["remote_phase_test"].count, 1);
        assert_eq!((back.layers, back.instants["cache/hit"]), (3, 1));
        assert_eq!(
            back.instants["slides"], 5,
            "a summary counts what it stands for"
        );
        let s = back.lanes[0].events.iter().find(|e| e.name == "slides");
        assert_eq!(s.map(|e| (e.value, e.tick)), Some((5, 9)));

        let mut local = ExecutionProfile {
            wall_ns: 500,
            ..ExecutionProfile::default()
        };
        local.merge_remote(&back, 100, "server/");
        assert_eq!(local.trace_id, 0xabcd, "zero local id adopts remote");
        assert!(local.phases.contains_key("server/remote_phase_test"));
        assert_eq!(local.lanes[0].label, "server/main");
        assert!(local.lanes[0].events.iter().all(|e| e.t_ns >= 100));
        assert!(local.wall_ns >= 100 + back.wall_ns);
    }

    #[test]
    fn prepend_wait_adds_a_leading_lane() {
        let rec = Arc::new(Recorder::new());
        rec.scope(|| {
            let _s = crate::span::enter("queued_work_test");
        });
        let mut p = rec.finish();
        let wall = p.wall_ns;
        let first_t = p.lanes[0].events[0].t_ns;
        p.prepend_wait("pool-queue", "pool.queue_wait", 250);
        assert_eq!(p.lanes[0].label, "pool-queue");
        assert_eq!(p.lanes[0].events[0].t_ns, 0);
        assert_eq!(p.lanes[0].events[1].t_ns, 250);
        assert_eq!(p.lanes[1].events[0].t_ns, first_t + 250);
        assert_eq!(p.wall_ns, wall + 250);
        assert_eq!(p.phases["pool.queue_wait"].total_ns, 250);
    }

    #[test]
    fn snapshot_rendering_round_trips() {
        let rec = Arc::new(Recorder::new());
        rec.scope(|| {
            let _s = crate::span::enter("profile_snap_phase");
            progress(7);
        });
        let snap = rec.finish().to_snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.counter("profile.layers"), 7);
        assert!(back.span("profile_snap_phase").is_some());
    }
}
