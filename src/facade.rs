//! The [`Engine`] facade: one front door for prepared queries and
//! observability.
//!
//! The layered crates each expose their own entry points (the plan
//! layer's `prepare`/`bind`, the store's fleets). The facade ties the
//! blessed path together:
//!
//! 1. [`Engine::new`] — construct once per application;
//! 2. [`Engine::prepare`] — compile a [`Transducer`] into a shared
//!    [`PreparedQuery`] through the engine's LRU plan cache, so repeated
//!    preparations of structurally identical machines are free;
//! 3. [`PreparedQuery::bind`] / [`PreparedQuery::bind_source`] — bind the
//!    plan to an in-memory sequence or a streamed source and execute;
//! 4. [`Engine::metrics`] — a [`Snapshot`] of everything the layers
//!    recorded since this engine was created (plan-cache traffic,
//!    per-phase timings, kernel and data-plane counters).
//!
//! Every fallible step returns [`TmkError`](transmark_core::error::TmkError),
//! the engine-wide error type.
//!
//! ```
//! use transmark::prelude::*;
//!
//! let alphabet = Alphabet::of_chars("ab");
//! let m = MarkovSequenceBuilder::new(alphabet.clone(), 3)
//!     .uniform_all()
//!     .build()?;
//! let mut b = Transducer::builder(alphabet.clone(), alphabet);
//! let q = b.add_state(true);
//! b.add_transition(q, SymbolId(0), q, &[SymbolId(0)])?;
//! b.add_transition(q, SymbolId(1), q, &[SymbolId(1)])?;
//! let t = b.build()?;
//!
//! let engine = Engine::new();
//! let plan = engine.prepare(&t);
//! let conf = plan.bind(&m)?.confidence(&[SymbolId(0); 3])?;
//! assert!(conf > 0.0);
//!
//! let metrics = engine.metrics();
//! if transmark::obs::enabled() {
//!     assert_eq!(metrics.counter("store.plan_cache.misses"), 1);
//! }
//! # Ok::<(), TmkError>(())
//! ```

use std::sync::Arc;

use transmark_core::plan::{PreparedEventQuery, PreparedQuery};
use transmark_core::transducer::Transducer;
use transmark_obs::{ExecutionProfile, Recorder, Snapshot};
use transmark_store::{PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_CAP};

/// The front door of the `transmark` engine: a plan cache plus a metrics
/// baseline. See the [module docs](self) for the prepare → bind → execute
/// flow.
///
/// `Engine` is internally synchronized: `prepare` and `metrics` take
/// `&self`, so one engine can be shared across threads (e.g. behind an
/// `Arc`) and all workers reuse the same compiled plans.
pub struct Engine {
    plans: PlanCache,
    baseline: Snapshot,
}

impl Engine {
    /// An engine whose plan cache retains [`DEFAULT_PLAN_CACHE_CAP`]
    /// compiled queries. Metrics reported by [`Engine::metrics`] are
    /// relative to this moment.
    pub fn new() -> Engine {
        Engine::with_plan_capacity(DEFAULT_PLAN_CACHE_CAP)
    }

    /// An engine retaining at most `cap` compiled plans (minimum 1).
    pub fn with_plan_capacity(cap: usize) -> Engine {
        Engine {
            plans: PlanCache::new(cap),
            baseline: transmark_obs::registry().snapshot(),
        }
    }

    /// The process-lifetime engine: one shared instance, created on first
    /// use with the default plan capacity, living until process exit.
    ///
    /// This is the service-mode entry point — every connection of a
    /// long-running process (`tmk serve`, embedded daemons) prepares
    /// through the same LRU [`PlanCache`], so a query fleet arriving over
    /// hours keeps hitting plans compiled once. Its metrics baseline is
    /// the moment of first use; prefer a dedicated [`Engine::new`] when
    /// an isolated observation window matters more than plan reuse.
    pub fn process() -> &'static Engine {
        static PROCESS: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
        PROCESS.get_or_init(Engine::new)
    }

    /// Compiles `t` into a [`PreparedQuery`] (Table 2 plan selection,
    /// machine-side artifacts), served from the engine's LRU cache when a
    /// structurally identical machine was prepared before. Compilation
    /// itself is infallible; errors surface at bind/execute time.
    pub fn prepare(&self, t: &Transducer) -> Arc<PreparedQuery> {
        self.plans.get_or_prepare(t)
    }

    /// Wraps a Boolean event query (an NFA over the node alphabet) for
    /// acceptance/series/monitor evaluation. Event queries carry no
    /// compiled artifacts, so they are not cached.
    pub fn prepare_event(&self, query: &transmark_automata::Nfa) -> Arc<PreparedEventQuery> {
        Arc::new(PreparedEventQuery::new(query.clone()))
    }

    /// Everything the instrumented layers recorded since this engine was
    /// created: counters, gauges, histograms, and span timings, as a
    /// serializable [`Snapshot`] (see [`Snapshot::to_text`] /
    /// [`Snapshot::to_json`]).
    ///
    /// The underlying registry is process-global; the snapshot is
    /// baseline-diffed so activity from before `Engine::new()` is
    /// excluded, but recordings by *other* engines and threads in the
    /// window are visible — observability is about the process doing the
    /// work, not about attribution.
    pub fn metrics(&self) -> Snapshot {
        transmark_obs::registry().snapshot().diff(&self.baseline)
    }

    /// Moves the metrics baseline to now: the next [`Engine::metrics`]
    /// call reports only activity after this point.
    pub fn reset_metrics(&mut self) {
        self.baseline = transmark_obs::registry().snapshot();
    }

    /// Accounting for the engine's plan cache (size, capacity, hits,
    /// misses).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Runs `f` under a fresh query-scoped [`Recorder`] and returns its
    /// result together with the merged [`ExecutionProfile`] — phase
    /// breakdown, per-worker lanes (fleet ops propagate the recorder
    /// into their workers automatically), and layer/byte throughput.
    /// Export the profile with [`transmark_obs::trace::chrome_trace`],
    /// [`transmark_obs::trace::folded`], or
    /// [`ExecutionProfile::to_snapshot`]. Under `obs-off` the profile is
    /// empty and `f` runs unobserved.
    pub fn profiled<R>(&self, f: impl FnOnce() -> R) -> (R, ExecutionProfile) {
        let rec = Arc::new(Recorder::new());
        let out = self.profiled_with(&rec, f);
        (out, rec.finish())
    }

    /// Like [`Engine::profiled`], but records into a caller-supplied
    /// [`Recorder`] — use this to accumulate several executions into one
    /// profile before calling [`Recorder::finish`] yourself.
    pub fn profiled_with<R>(&self, recorder: &Arc<Recorder>, f: impl FnOnce() -> R) -> R {
        recorder.scope(f)
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmark_automata::{Alphabet, SymbolId};
    use transmark_markov::MarkovSequenceBuilder;

    /// The registry is process-global, so tests that assert on global
    /// counters (rather than engine-local [`PlanCacheStats`]) serialize
    /// behind this lock to keep their observation windows clean.
    static GLOBAL_METRICS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn identity() -> Transducer {
        let alphabet = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(alphabet.clone(), alphabet);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, SymbolId(s), q, &[SymbolId(s)]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn prepare_is_cached_and_shared() {
        let _serial = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
        let engine = Engine::new();
        let p1 = engine.prepare(&identity());
        let p2 = engine.prepare(&identity());
        assert!(Arc::ptr_eq(&p1, &p2));
        let stats = engine.plan_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn facade_matches_brute_force_oracle() {
        let m = MarkovSequenceBuilder::new(Alphabet::of_chars("ab"), 4)
            .uniform_all()
            .build()
            .unwrap();
        let t = identity();
        let o = [SymbolId(0), SymbolId(1), SymbolId(0), SymbolId(1)];
        let engine = Engine::new();
        let via_facade = engine.prepare(&t).bind(&m).unwrap().confidence(&o).unwrap();
        let via_oracle = transmark_core::brute::evaluate(&t, &m).unwrap()[&o[..]];
        // Identity over a uniform 4-step chain: every string has mass 1/16.
        assert_eq!(via_oracle, 0.0625);
        assert!((via_facade - via_oracle).abs() < 1e-15);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn profiled_returns_phase_breakdown() {
        // No GLOBAL_METRICS lock needed: the profile is query-scoped,
        // so concurrent tests cannot bleed into it.
        let m = MarkovSequenceBuilder::new(Alphabet::of_chars("ab"), 4)
            .uniform_all()
            .build()
            .unwrap();
        let t = identity();
        let o = [SymbolId(0), SymbolId(1), SymbolId(0), SymbolId(1)];
        let engine = Engine::new();
        let (conf, profile) =
            engine.profiled(|| engine.prepare(&t).bind(&m).unwrap().confidence(&o).unwrap());
        assert!(conf > 0.0);
        assert!(profile.phases.contains_key("prepare"));
        assert!(profile.phases.contains_key("bind"));
        assert!(profile.phases.contains_key("execute"));
        assert_eq!(profile.instants["store.plan_cache.miss"], 1);
        assert!(
            profile.layers >= 1,
            "kernel progress flows into the profile"
        );
        assert!(profile.wall_ns > 0);
    }

    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn metrics_window_starts_at_engine_creation() {
        let _serial = GLOBAL_METRICS.lock().unwrap_or_else(|e| e.into_inner());
        let m = MarkovSequenceBuilder::new(Alphabet::of_chars("ab"), 3)
            .uniform_all()
            .build()
            .unwrap();
        let t = identity();
        // Warm-up traffic that must not leak into the engine's window.
        transmark_core::plan::prepare(&t).bind(&m).unwrap();
        let engine = Engine::new();
        let before = engine.metrics();
        assert_eq!(before.counter("store.plan_cache.misses"), 0);
        engine.prepare(&t).bind(&m).unwrap();
        let after = engine.metrics();
        assert_eq!(after.counter("store.plan_cache.misses"), 1);
    }
}
