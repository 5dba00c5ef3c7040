#![warn(missing_docs)]
//! A Markov-sequence store, in the spirit of Lahar.
//!
//! The paper studies querying a *single* Markov sequence "with the goal
//! of introducing strong querying capabilities into Lahar" — a
//! Markov-sequence *database* holding a collection of streams (one per
//! tracked object) and answering queries across them (§1, §6). This
//! crate supplies that system layer: a [`SequenceStore`] keyed by stream
//! name, sharing one node alphabet, with
//!
//! * **Boolean event queries** (Lahar's native query class, §6: "at each
//!   time period it returns the probability that it is evaluated to
//!   true") — [`SequenceStore::event_probability`],
//!   [`SequenceStore::event_series`], [`SequenceStore::detect`];
//! * **transducer queries** per stream — [`SequenceStore::top_k`];
//! * **s-projector extraction** per stream —
//!   [`SequenceStore::extract_top_k`];
//! * **cross-stream conjunctions** under the store's independence
//!   assumption (streams are separate objects, e.g. different carts) —
//!   [`SequenceStore::joint_event_probability`].
//!
//! Transducer queries compile through the plan layer: the store keeps an
//! LRU [`PlanCache`] keyed by the machine's structural fingerprint, so a
//! query fleet-evaluated across many streams (or re-issued later) reuses
//! one shared [`PreparedQuery`] — including across the worker threads of
//! [`SequenceStore::top_k_parallel`].

pub mod monitor;
pub mod pool;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

pub use monitor::{Monitor, MonitorConfig, StreamReport, DEFAULT_TICK_BATCH};
pub use pool::{resolve_threads, scoped_map, PoolError, WorkerPool};

use transmark_automata::{Alphabet, Nfa, SymbolId};
use transmark_core::error::EngineError;
use transmark_core::incremental::StreamQuery;
use transmark_core::plan::{PreparedEventQuery, PreparedQuery, ScoredAnswer};
use transmark_core::transducer::Transducer;
use transmark_markov::{MarkovSequence, StepSource};
use transmark_obs::log::RecordKind;
use transmark_sproj::{PreparedProjector, SProjector, SprojEvaluation};

/// Errors of the store layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A stream with this name already exists (use [`SequenceStore::replace`]).
    DuplicateStream(String),
    /// No stream with this name.
    UnknownStream(String),
    /// The stream's alphabet differs from the store's.
    AlphabetMismatch {
        /// The store's alphabet size.
        store: usize,
        /// The offending stream's alphabet size.
        stream: usize,
    },
    /// An engine error while evaluating a query.
    Engine(EngineError),
    /// A filesystem or format error during persistence.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DuplicateStream(n) => write!(f, "stream {n:?} already exists"),
            StoreError::UnknownStream(n) => write!(f, "no stream named {n:?}"),
            StoreError::AlphabetMismatch { store, stream } => {
                write!(f, "stream alphabet has {stream} symbols, store has {store}")
            }
            StoreError::Engine(e) => write!(f, "{e}"),
            StoreError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<EngineError> for StoreError {
    fn from(e: EngineError) -> Self {
        StoreError::Engine(e)
    }
}

// The reverse direction lives here too (the orphan rule requires the
// local type): a store failure folds into the facade's single error
// type. An engine error that merely round-tripped through the store
// unwraps back to itself rather than being stringified.
impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Engine(inner) => inner,
            other => EngineError::Store(other.to_string()),
        }
    }
}

/// Default number of prepared plans a store retains ([`PlanCache`]).
pub const DEFAULT_PLAN_CACHE_CAP: usize = 16;

/// A point-in-time snapshot of [`PlanCache`] accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans currently cached.
    pub len: usize,
    /// Maximum number of plans retained before LRU eviction.
    pub capacity: usize,
    /// Lookups served by an already-compiled plan.
    pub hits: u64,
    /// Lookups that had to compile a fresh plan.
    pub misses: u64,
    /// Plans dropped to make room at capacity (LRU policy).
    pub evictions: u64,
}

struct PlanCacheEntry {
    key: u64,
    plan: Arc<PreparedQuery>,
    last_used: u64,
}

struct PlanCacheInner {
    entries: Vec<PlanCacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    tick: u64,
}

/// An LRU cache of compiled transducer plans, keyed by the machine's
/// structural fingerprint ([`Transducer::fingerprint`]).
///
/// The fingerprint is a 64-bit hash, so distinct machines can in
/// principle share a key; a lookup only counts as a hit after the
/// cached machine passes full structural equality
/// ([`Transducer::same_structure`]) against the query. Colliding
/// machines therefore coexist in the cache under the same key rather
/// than poisoning each other's results. At capacity the
/// least-recently-used plan is evicted.
///
/// All methods take `&self`; the cache is internally synchronized and
/// safe to consult from the fleet-evaluation worker threads.
pub struct PlanCache {
    cap: usize,
    inner: Mutex<PlanCacheInner>,
}

impl PlanCache {
    /// Creates a cache retaining at most `cap` plans (minimum 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            inner: Mutex::new(PlanCacheInner {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                tick: 0,
            }),
        }
    }

    /// Returns the cached plan for `t`, compiling and inserting one on a
    /// miss. The returned `Arc` is shared: repeated calls with
    /// structurally identical machines get the same allocation.
    pub fn get_or_prepare(&self, t: &Transducer) -> Arc<PreparedQuery> {
        self.get_or_prepare_keyed(t.fingerprint(), t)
    }

    /// [`PlanCache::get_or_prepare`] with a caller-supplied key, exposed
    /// so collision handling is testable: structurally different
    /// machines forced onto one key still resolve to different plans.
    pub fn get_or_prepare_keyed(&self, key: u64, t: &Transducer) -> Arc<PreparedQuery> {
        let mut inner = self.inner.lock().expect("plan cache lock is not poisoned");
        inner.tick += 1;
        let now = inner.tick;
        if let Some(e) = inner
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.plan.transducer().same_structure(t))
        {
            e.last_used = now;
            let plan = Arc::clone(&e.plan);
            inner.hits += 1;
            transmark_obs::counter!("store.plan_cache.hits").inc();
            transmark_obs::profile::instant("store.plan_cache.hit");
            return plan;
        }
        inner.misses += 1;
        transmark_obs::counter!("store.plan_cache.misses").inc();
        transmark_obs::profile::instant("store.plan_cache.miss");
        let plan = transmark_core::plan::prepare(t);
        if inner.entries.len() >= self.cap {
            let lru = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("cache at capacity is non-empty");
            let evicted = inner.entries.swap_remove(lru);
            inner.evictions += 1;
            transmark_obs::counter!("store.plan_cache.evictions").inc();
            transmark_obs::log::publish(
                RecordKind::PlanCacheEvict,
                "",
                &format!(
                    "evicted plan {:016x} (lru of {} at capacity)",
                    evicted.key, self.cap
                ),
                0,
            );
        }
        inner.entries.push(PlanCacheEntry {
            key,
            plan: Arc::clone(&plan),
            last_used: now,
        });
        plan
    }

    /// Current accounting: size, capacity, hits, misses, evictions.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().expect("plan cache lock is not poisoned");
        PlanCacheStats {
            len: inner.entries.len(),
            capacity: self.cap,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Drops every cached plan (accounting is kept).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("plan cache lock is not poisoned")
            .entries
            .clear();
    }
}

/// A named collection of Markov sequences over one shared alphabet.
pub struct SequenceStore {
    alphabet: Arc<Alphabet>,
    streams: BTreeMap<String, MarkovSequence>,
    plans: PlanCache,
}

impl SequenceStore {
    /// Creates an empty store over `alphabet`.
    pub fn new(alphabet: impl Into<Arc<Alphabet>>) -> Self {
        Self::with_plan_capacity(alphabet, DEFAULT_PLAN_CACHE_CAP)
    }

    /// Creates an empty store whose plan cache retains at most `cap`
    /// compiled queries.
    pub fn with_plan_capacity(alphabet: impl Into<Arc<Alphabet>>, cap: usize) -> Self {
        Self {
            alphabet: alphabet.into(),
            streams: BTreeMap::new(),
            plans: PlanCache::new(cap),
        }
    }

    /// The shared node alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The store's cache of compiled transducer plans.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the store holds no streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Stream names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.streams.keys().map(String::as_str)
    }

    /// Inserts a new stream; errors on duplicates or alphabet mismatch.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        seq: MarkovSequence,
    ) -> Result<(), StoreError> {
        let name = name.into();
        if seq.n_symbols() != self.alphabet.len() {
            return Err(StoreError::AlphabetMismatch {
                store: self.alphabet.len(),
                stream: seq.n_symbols(),
            });
        }
        if self.streams.contains_key(&name) {
            return Err(StoreError::DuplicateStream(name));
        }
        self.streams.insert(name, seq);
        Ok(())
    }

    /// Inserts or replaces a stream.
    pub fn replace(
        &mut self,
        name: impl Into<String>,
        seq: MarkovSequence,
    ) -> Result<(), StoreError> {
        let name = name.into();
        if seq.n_symbols() != self.alphabet.len() {
            return Err(StoreError::AlphabetMismatch {
                store: self.alphabet.len(),
                stream: seq.n_symbols(),
            });
        }
        self.streams.insert(name, seq);
        Ok(())
    }

    /// Removes a stream, returning it.
    pub fn remove(&mut self, name: &str) -> Result<MarkovSequence, StoreError> {
        self.streams
            .remove(name)
            .ok_or_else(|| StoreError::UnknownStream(name.to_string()))
    }

    /// Fetches a stream.
    pub fn get(&self, name: &str) -> Result<&MarkovSequence, StoreError> {
        self.streams
            .get(name)
            .ok_or_else(|| StoreError::UnknownStream(name.to_string()))
    }

    // ---- Boolean event queries ------------------------------------------

    /// `Pr(stream ∈ L(query))` for every stream.
    pub fn event_probability(&self, query: &Nfa) -> Result<BTreeMap<String, f64>, StoreError> {
        let q = PreparedEventQuery::new(query.clone());
        self.streams
            .iter()
            .map(|(n, m)| Ok((n.clone(), q.acceptance(m)?)))
            .collect()
    }

    /// The per-time-period truth-probability series for every stream
    /// (Lahar's query mode: `series[i]` is the probability that the
    /// prefix up to time `i+1` satisfies the query).
    pub fn event_series(&self, query: &Nfa) -> Result<BTreeMap<String, Vec<f64>>, StoreError> {
        let q = PreparedEventQuery::new(query.clone());
        self.streams
            .iter()
            .map(|(n, m)| Ok((n.clone(), q.series(m)?)))
            .collect()
    }

    /// Streams whose event probability reaches `threshold`, most probable
    /// first — the "which carts were (probably) in the contaminated lab"
    /// detection query.
    pub fn detect(&self, query: &Nfa, threshold: f64) -> Result<Vec<(String, f64)>, StoreError> {
        let mut hits: Vec<(String, f64)> = self
            .event_probability(query)?
            .into_iter()
            .filter(|(_, p)| *p >= threshold)
            .collect();
        hits.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("probabilities are not NaN"));
        Ok(hits)
    }

    /// Under stream independence, the probability that *every* named
    /// stream satisfies its query (product rule). Duplicate stream names
    /// are allowed only with identical queries (conjunction on the same
    /// stream is not independent); they are rejected.
    pub fn joint_event_probability(&self, queries: &[(&str, &Nfa)]) -> Result<f64, StoreError> {
        let mut seen = std::collections::BTreeSet::new();
        let mut p = 1.0;
        for (name, q) in queries {
            if !seen.insert(*name) {
                return Err(StoreError::DuplicateStream((*name).to_string()));
            }
            p *= PreparedEventQuery::new((*q).clone()).acceptance(self.get(name)?)?;
        }
        Ok(p)
    }

    // ---- Uncertainty profiling ----------------------------------------------

    /// Streams ranked by per-position perplexity, most uncertain first —
    /// "which objects does the sensor network track worst?". Perplexity is
    /// `2^{H/n}` (1 = deterministic, `|Σ|` = uniform noise).
    pub fn rank_by_uncertainty(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .streams
            .iter()
            .map(|(n, m)| (n.clone(), transmark_markov::info::perplexity(m)))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("perplexities are not NaN"));
        v
    }

    // ---- Parallel evaluation ----------------------------------------------

    /// Maps `f` over all streams on `n_threads` OS threads (queries are
    /// read-only and independent per stream, so fleet evaluation is
    /// embarrassingly parallel). `n_threads == 0` means one worker per
    /// available core ([`resolve_threads`]). Results come back in name
    /// order; the first error wins.
    pub fn par_map_streams<T, F>(
        &self,
        n_threads: usize,
        f: F,
    ) -> Result<BTreeMap<String, T>, StoreError>
    where
        T: Send,
        F: Fn(&str, &MarkovSequence) -> Result<T, StoreError> + Sync,
    {
        let streams: Vec<(&String, &MarkovSequence)> = self.streams.iter().collect();
        let pairs = pool::scoped_map(
            &streams,
            n_threads,
            |(name, m)| -> Result<(String, T), StoreError> { Ok(((*name).clone(), f(name, m)?)) },
        )?;
        Ok(pairs.into_iter().collect())
    }

    /// Parallel [`SequenceStore::event_probability`].
    pub fn event_probability_parallel(
        &self,
        query: &Nfa,
        n_threads: usize,
    ) -> Result<BTreeMap<String, f64>, StoreError> {
        let q = PreparedEventQuery::new(query.clone());
        self.par_map_streams(n_threads, |_, m| Ok(q.acceptance(m)?))
    }

    /// Parallel [`SequenceStore::top_k`]. All workers bind the same
    /// cached `Arc<PreparedQuery>`; the machine is compiled at most once
    /// for the whole fleet.
    pub fn top_k_parallel(
        &self,
        query: &Transducer,
        k: usize,
        n_threads: usize,
    ) -> Result<BTreeMap<String, Vec<ScoredAnswer>>, StoreError> {
        let plan = self.plans.get_or_prepare(query);
        self.par_map_streams(n_threads, |_, m| Ok(plan.bind(m)?.top_k_scored(k)?))
    }

    // ---- Persistence ------------------------------------------------------

    /// Saves every stream to `dir` as `<name>.tms` files in the
    /// `markov-sequence v1` text format, plus a `store.manifest` listing
    /// them. Stream names must be valid file stems (no path separators).
    pub fn save_dir(&self, dir: &std::path::Path) -> Result<(), StoreError> {
        self.save_dir_with(dir, false)
    }

    /// [`SequenceStore::save_dir`] in the zero-copy binary `.tmsb` format
    /// ([`transmark_markov::binio`]) — the layout [`SequenceStore::load_dir`]
    /// and the streaming fleet helpers ([`event_probability_files`],
    /// [`confidence_files`]) consume without a text parse.
    pub fn save_dir_binary(&self, dir: &std::path::Path) -> Result<(), StoreError> {
        self.save_dir_with(dir, true)
    }

    fn save_dir_with(&self, dir: &std::path::Path, binary: bool) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let mut manifest = String::new();
        for (name, m) in &self.streams {
            if name.contains(['/', '\\']) {
                return Err(StoreError::Io(format!(
                    "stream name {name:?} is not a file stem"
                )));
            }
            let (ext, bytes) = if binary {
                ("tmsb", transmark_markov::binio::to_tmsb_bytes(m))
            } else {
                ("tms", transmark_markov::textio::to_text(m).into_bytes())
            };
            let path = dir.join(format!("{name}.{ext}"));
            std::fs::write(&path, bytes)
                .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
            manifest.push_str(name);
            manifest.push('\n');
        }
        std::fs::write(dir.join("store.manifest"), manifest)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(())
    }

    /// Loads a store previously written by [`SequenceStore::save_dir`] or
    /// [`SequenceStore::save_dir_binary`]: each manifest entry resolves to
    /// `<name>.tms` or, failing that, `<name>.tmsb`. The alphabet is taken
    /// from the first stream; all streams must agree on it.
    pub fn load_dir(dir: &std::path::Path) -> Result<SequenceStore, StoreError> {
        let manifest = std::fs::read_to_string(dir.join("store.manifest"))
            .map_err(|e| StoreError::Io(format!("{}: {e}", dir.display())))?;
        let names: Vec<&str> = manifest.lines().filter(|l| !l.is_empty()).collect();
        let mut store: Option<SequenceStore> = None;
        for name in names {
            let text_path = dir.join(format!("{name}.tms"));
            let path = if text_path.exists() {
                text_path
            } else {
                dir.join(format!("{name}.tmsb"))
            };
            let m = transmark_markov::fsio::read_sequence_path(&path)
                .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
            let s = store.get_or_insert_with(|| SequenceStore::new(m.alphabet_arc()));
            s.insert(name, m)?;
        }
        store.ok_or_else(|| StoreError::Io("manifest lists no streams".to_string()))
    }

    // ---- Transducer and s-projector queries ------------------------------

    /// Top-k transducer answers (by `E_max`, with exact confidences) for
    /// every stream. The query compiles once through the store's
    /// [`PlanCache`] and the shared plan is bound per stream.
    pub fn top_k(
        &self,
        query: &Transducer,
        k: usize,
    ) -> Result<BTreeMap<String, Vec<ScoredAnswer>>, StoreError> {
        let plan = self.plans.get_or_prepare(query);
        self.streams
            .iter()
            .map(|(n, m)| Ok((n.clone(), plan.bind(m)?.top_k_scored(k)?)))
            .collect()
    }

    /// Batch confidence: `Pr(stream →[query]→ o)` for every stream,
    /// through one shared plan from the [`PlanCache`].
    pub fn confidence_all(
        &self,
        query: &Transducer,
        o: &[SymbolId],
    ) -> Result<BTreeMap<String, f64>, StoreError> {
        let plan = self.plans.get_or_prepare(query);
        self.streams
            .iter()
            .map(|(n, m)| Ok((n.clone(), plan.bind(m)?.confidence(o)?)))
            .collect()
    }

    /// Parallel [`SequenceStore::confidence_all`].
    pub fn confidence_all_parallel(
        &self,
        query: &Transducer,
        o: &[SymbolId],
        n_threads: usize,
    ) -> Result<BTreeMap<String, f64>, StoreError> {
        let plan = self.plans.get_or_prepare(query);
        self.par_map_streams(n_threads, |_, m| Ok(plan.bind(m)?.confidence(o)?))
    }

    /// Top-k distinct s-projector extractions (by `I_max`) per stream.
    /// The projector compiles to a [`PreparedProjector`] once; each
    /// stream binds the shared plan.
    pub fn extract_top_k(
        &self,
        query: &SProjector,
        k: usize,
    ) -> Result<BTreeMap<String, Vec<transmark_core::enumerate::RankedAnswer>>, StoreError> {
        let plan = Arc::new(PreparedProjector::new(query));
        self.streams
            .iter()
            .map(|(n, m)| {
                let ev = SprojEvaluation::with_plan(&plan, m)?;
                Ok((n.clone(), ev.strings()?.take(k).collect()))
            })
            .collect()
    }
}

// ---- Streaming file fleets ------------------------------------------------
//
// The fleet helpers below run forward-only queries directly over `.tms` /
// `.tmsb` files: every worker opens its file as a streaming
// [`StepSource`](transmark_markov::StepSource) and folds it layer at a
// time, so per-worker memory is O(|Σ|² + reachable subsets) regardless of
// sequence length — no stream is ever materialized. Results are
// bit-identical to loading the file and running the in-memory pass.

/// Maps `f` over sequence-file paths on `n_threads` OS threads
/// (`0` = auto, see [`resolve_threads`]). Results are keyed by the path's
/// display string, in sorted order; the first error wins. The fan-out
/// body is the shared [`pool::scoped_map`].
pub fn par_map_paths<T, F>(
    paths: &[std::path::PathBuf],
    n_threads: usize,
    f: F,
) -> Result<BTreeMap<String, T>, StoreError>
where
    T: Send,
    F: Fn(&std::path::Path) -> Result<T, StoreError> + Sync,
{
    let pairs = pool::scoped_map(
        paths,
        n_threads,
        |path| -> Result<(String, T), StoreError> { Ok((path.display().to_string(), f(path)?)) },
    )?;
    Ok(pairs.into_iter().collect())
}

fn open_source(path: &std::path::Path) -> Result<transmark_markov::FileStepSource, StoreError> {
    transmark_markov::fsio::open_step_source(path)
        .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))
}

/// `Pr(stream ∈ L(query))` for every sequence file, streamed — the
/// on-disk counterpart of [`SequenceStore::event_probability_parallel`].
pub fn event_probability_files(
    query: &Nfa,
    paths: &[std::path::PathBuf],
    n_threads: usize,
) -> Result<BTreeMap<String, f64>, StoreError> {
    let query = StreamQuery::Series(query.clone());
    par_map_paths(paths, n_threads, |path| {
        let mut src = open_source(path)?;
        Ok(query.start(src.initial())?.drain(&mut src, false)?[0])
    })
}

/// `Pr(stream →[query]→ o)` for every sequence file, streamed through one
/// shared compiled plan — the on-disk counterpart of
/// [`SequenceStore::confidence_all_parallel`].
pub fn confidence_files(
    query: &Transducer,
    o: &[SymbolId],
    paths: &[std::path::PathBuf],
    n_threads: usize,
) -> Result<BTreeMap<String, f64>, StoreError> {
    let plan = transmark_core::plan::prepare(query);
    par_map_paths(paths, n_threads, |path| {
        let src = open_source(path)?;
        Ok(plan.bind_source(src)?.confidence(o)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::SymbolId;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
    use transmark_markov::support::support;
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    fn store_with_streams(k: usize) -> SequenceStore {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..k {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 3 + i % 2,
                    n_symbols: 2,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            store.insert(format!("cart{i}"), m).unwrap();
        }
        store
    }

    /// NFA: contains symbol b.
    fn has_b() -> Nfa {
        let mut nfa = Nfa::new(2);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        nfa.add_transition(q0, sym(0), q0);
        nfa.add_transition(q0, sym(1), acc);
        nfa.add_transition(acc, sym(0), acc);
        nfa.add_transition(acc, sym(1), acc);
        nfa
    }

    #[test]
    fn crud_and_validation() {
        let mut store = store_with_streams(2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.names().collect::<Vec<_>>(), vec!["cart0", "cart1"]);
        assert!(matches!(
            store.insert("cart0", store.get("cart1").unwrap().clone()),
            Err(StoreError::DuplicateStream(_))
        ));
        let wrong = MarkovSequenceBuilder::new(Alphabet::of_chars("abc"), 2)
            .uniform_all()
            .build()
            .unwrap();
        assert!(matches!(
            store.insert("cart9", wrong),
            Err(StoreError::AlphabetMismatch { .. })
        ));
        assert!(store.get("nope").is_err());
        let removed = store.remove("cart0").unwrap();
        assert!(store.replace("cart0", removed).is_ok());
    }

    #[test]
    fn event_probabilities_match_brute_force() {
        let store = store_with_streams(3);
        let q = has_b();
        let probs = store.event_probability(&q).unwrap();
        for (name, p) in &probs {
            let m = store.get(name).unwrap();
            let want: f64 = support(m)
                .iter()
                .filter(|(s, _)| q.accepts(s))
                .map(|(_, pp)| pp)
                .sum();
            assert!((p - want).abs() < 1e-10, "stream {name}");
        }
        // Series last element equals the total probability.
        for (name, series) in store.event_series(&q).unwrap() {
            assert!((series.last().unwrap() - probs[&name]).abs() < 1e-12);
        }
    }

    #[test]
    fn detection_filters_and_sorts() {
        let store = store_with_streams(4);
        let q = has_b();
        let all = store.detect(&q, 0.0).unwrap();
        assert_eq!(all.len(), 4);
        for w in all.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let none = store.detect(&q, 1.1).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn joint_probability_is_the_product() {
        let store = store_with_streams(2);
        let q = has_b();
        let probs = store.event_probability(&q).unwrap();
        let joint = store
            .joint_event_probability(&[("cart0", &q), ("cart1", &q)])
            .unwrap();
        assert!((joint - probs["cart0"] * probs["cart1"]).abs() < 1e-12);
        // Same stream twice is rejected.
        assert!(matches!(
            store.joint_event_probability(&[("cart0", &q), ("cart0", &q)]),
            Err(StoreError::DuplicateStream(_))
        ));
    }

    #[test]
    fn per_stream_transducer_query() {
        let store = store_with_streams(2);
        // Identity transducer.
        let alphabet = Arc::clone(&store.alphabet);
        let mut b = Transducer::builder(Arc::clone(&alphabet), alphabet);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        let t = b.build().unwrap();
        let results = store.top_k(&t, 2).unwrap();
        assert_eq!(results.len(), 2);
        for (name, answers) in results {
            assert!(!answers.is_empty(), "stream {name}");
            for a in &answers {
                // Identity: confidence = world probability = E_max.
                assert!((a.confidence - a.emax).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn per_stream_extraction() {
        let store = store_with_streams(2);
        let pattern = transmark_automata::Dfa::word(2, &[sym(1)]);
        // Make pattern complete (Dfa::word already is).
        assert!(pattern.validate().is_ok());
        let p = SProjector::simple(Arc::clone(&store.alphabet), pattern).unwrap();
        let results = store.extract_top_k(&p, 3).unwrap();
        for (name, answers) in results {
            let m = store.get(&name).unwrap();
            for a in &answers {
                // Every extraction really occurs with its I_max score.
                let want = transmark_sproj::enumerate::imax_of_output(&p, m, &a.output).unwrap();
                assert!((a.score() - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn empty_store_behaves() {
        let store = SequenceStore::new(Alphabet::of_chars("ab"));
        assert!(store.is_empty());
        assert!(store.event_probability(&has_b()).unwrap().is_empty());
        assert_eq!(store.joint_event_probability(&[]).unwrap(), 1.0);
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    #[test]
    fn save_and_load_round_trip() {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet);
        let mut rng = StdRng::seed_from_u64(99);
        for name in ["alpha", "beta", "gamma"] {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 4,
                    n_symbols: 2,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            store.insert(name, m).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("transmark-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store.save_dir(&dir).unwrap();
        let loaded = SequenceStore::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 3);
        for name in ["alpha", "beta", "gamma"] {
            let (a, b) = (store.get(name).unwrap(), loaded.get(name).unwrap());
            assert_eq!(a.len(), b.len());
            assert_eq!(a.initial_dist(), b.initial_dist());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_save_and_load_round_trip() {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet);
        let mut rng = StdRng::seed_from_u64(123);
        for name in ["alpha", "beta"] {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 5,
                    n_symbols: 2,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            store.insert(name, m).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("transmark-store-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store.save_dir_binary(&dir).unwrap();
        assert!(dir.join("alpha.tmsb").exists());
        assert!(!dir.join("alpha.tms").exists());
        let loaded = SequenceStore::load_dir(&dir).unwrap();
        for name in ["alpha", "beta"] {
            let (a, b) = (store.get(name).unwrap(), loaded.get(name).unwrap());
            assert_eq!(a.initial_dist(), b.initial_dist());
            assert_eq!(a.transitions_flat(), b.transitions_flat());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_stream_names_are_rejected() {
        let alphabet = Alphabet::of_chars("a");
        let mut store = SequenceStore::new(alphabet.clone());
        let m = transmark_markov::MarkovSequenceBuilder::new(alphabet, 1)
            .initial(transmark_automata::SymbolId(0), 1.0)
            .build()
            .unwrap();
        store.insert("evil/name", m).unwrap();
        let dir = std::env::temp_dir().join(format!("transmark-store-bad-{}", std::process::id()));
        assert!(matches!(store.save_dir(&dir), Err(StoreError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_rejects_sizes_the_files_cannot_back() {
        let dir =
            std::env::temp_dir().join(format!("transmark-store-claims-{}", std::process::id()));
        for (file, bytes) in transmark_workloads::hostile::files() {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let stem = file.split('.').next().expect("a file name");
            std::fs::write(dir.join("store.manifest"), format!("{stem}\n")).unwrap();
            std::fs::write(dir.join(file), bytes).unwrap();
            assert!(
                matches!(SequenceStore::load_dir(&dir), Err(StoreError::Io(_))),
                "{file}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_missing_dir_fails_cleanly() {
        let missing = std::path::Path::new("/nonexistent/transmark-store");
        assert!(matches!(
            SequenceStore::load_dir(missing),
            Err(StoreError::Io(_))
        ));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::SymbolId;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    fn big_store(streams: usize) -> SequenceStore {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet);
        let mut rng = StdRng::seed_from_u64(77);
        for i in 0..streams {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 6,
                    n_symbols: 2,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            store.insert(format!("s{i:03}"), m).unwrap();
        }
        store
    }

    fn has_b() -> Nfa {
        let mut nfa = Nfa::new(2);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        nfa.add_transition(q0, SymbolId(0), q0);
        nfa.add_transition(q0, SymbolId(1), acc);
        nfa.add_transition(acc, SymbolId(0), acc);
        nfa.add_transition(acc, SymbolId(1), acc);
        nfa
    }

    #[test]
    fn parallel_matches_sequential() {
        let store = big_store(23); // deliberately not a multiple of threads
        let q = has_b();
        let seq = store.event_probability(&q).unwrap();
        for threads in [1usize, 2, 4, 7, 64] {
            let par = store.event_probability_parallel(&q, threads).unwrap();
            assert_eq!(seq.len(), par.len(), "threads = {threads}");
            for (name, p_seq) in &seq {
                // The DP sums in HashMap iteration order, which varies
                // between runs, so values agree only up to rounding.
                let p_par = par[name];
                assert!(
                    (p_seq - p_par).abs() < 1e-12,
                    "threads = {threads}, stream {name}: {p_seq} vs {p_par}"
                );
            }
        }
    }

    #[test]
    fn parallel_top_k_matches_sequential() {
        let store = big_store(6);
        let alphabet = Arc::clone(&store.alphabet);
        let mut b = Transducer::builder(Arc::clone(&alphabet), alphabet);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, SymbolId(s), q, &[SymbolId(s)]).unwrap();
        }
        let t = b.build().unwrap();
        let seq = store.top_k(&t, 3).unwrap();
        let par = store.top_k_parallel(&t, 3, 3).unwrap();
        assert_eq!(seq.len(), par.len());
        for (name, answers) in seq {
            let pars = &par[&name];
            assert_eq!(answers.len(), pars.len(), "stream {name}");
            for (a, b) in answers.iter().zip(pars.iter()) {
                assert_eq!(a.output, b.output, "stream {name}");
                assert!((a.confidence - b.confidence).abs() < 1e-12);
                assert!((a.emax - b.emax).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn parallel_on_empty_store() {
        let store = SequenceStore::new(Alphabet::of_chars("ab"));
        assert!(store
            .event_probability_parallel(&has_b(), 4)
            .unwrap()
            .is_empty());
    }
}

#[cfg(test)]
mod plan_cache_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_core::prepare;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    fn store_with_streams(k: usize) -> SequenceStore {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet);
        let mut rng = StdRng::seed_from_u64(41);
        for i in 0..k {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 5,
                    n_symbols: 2,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            store.insert(format!("s{i:03}"), m).unwrap();
        }
        store
    }

    /// Identity transducer over the two-symbol alphabet.
    fn identity(alphabet: &Arc<Alphabet>) -> Transducer {
        let mut b = Transducer::builder(Arc::clone(alphabet), Arc::clone(alphabet));
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, SymbolId(s), q, &[SymbolId(s)]).unwrap();
        }
        b.build().unwrap()
    }

    /// Swap transducer (a→b, b→a): structurally distinct from identity.
    fn swap(alphabet: &Arc<Alphabet>) -> Transducer {
        let mut b = Transducer::builder(Arc::clone(alphabet), Arc::clone(alphabet));
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, SymbolId(s), q, &[SymbolId(1 - s)])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let store = store_with_streams(3);
        let alphabet = Arc::clone(&store.alphabet);
        let t = identity(&alphabet);
        assert_eq!(store.plan_cache().stats().misses, 0);
        store.top_k(&t, 2).unwrap();
        let s1 = store.plan_cache().stats();
        assert_eq!((s1.len, s1.hits, s1.misses), (1, 0, 1));
        // Re-issuing the same query (even via a fresh, structurally
        // identical machine) hits.
        store.top_k(&identity(&alphabet), 2).unwrap();
        let s2 = store.plan_cache().stats();
        assert_eq!((s2.len, s2.hits, s2.misses), (1, 1, 1));
        // A different machine misses and coexists.
        store.top_k(&swap(&alphabet), 2).unwrap();
        let s3 = store.plan_cache().stats();
        assert_eq!((s3.len, s3.hits, s3.misses), (2, 1, 2));
    }

    #[test]
    fn forced_key_collisions_resolve_by_structure() {
        let alphabet = Arc::new(Alphabet::of_chars("ab"));
        let cache = PlanCache::new(8);
        let (t1, t2) = (identity(&alphabet), swap(&alphabet));
        assert!(!t1.same_structure(&t2));
        // Same 64-bit key, different machines: both get (and keep) their
        // own plan.
        let p1 = cache.get_or_prepare_keyed(42, &t1);
        let p2 = cache.get_or_prepare_keyed(42, &t2);
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert!(p1.transducer().same_structure(&t1));
        assert!(p2.transducer().same_structure(&t2));
        // Lookups under the colliding key route to the structurally
        // matching entry.
        assert!(Arc::ptr_eq(&cache.get_or_prepare_keyed(42, &t1), &p1));
        assert!(Arc::ptr_eq(&cache.get_or_prepare_keyed(42, &t2), &p2));
        let s = cache.stats();
        assert_eq!((s.len, s.hits, s.misses), (2, 2, 2));
    }

    #[test]
    fn eviction_at_capacity_is_lru() {
        let alphabet = Arc::new(Alphabet::of_chars("ab"));
        let cache = PlanCache::new(2);
        let (t1, t2) = (identity(&alphabet), swap(&alphabet));
        // A third structurally distinct machine: two states.
        let t3 = {
            let mut b = Transducer::builder(Arc::clone(&alphabet), Arc::clone(&alphabet));
            let q0 = b.add_state(false);
            let q1 = b.add_state(true);
            for s in 0..2u32 {
                b.add_transition(q0, SymbolId(s), q1, &[SymbolId(s)])
                    .unwrap();
                b.add_transition(q1, SymbolId(s), q1, &[SymbolId(s)])
                    .unwrap();
            }
            b.build().unwrap()
        };
        let p1 = cache.get_or_prepare(&t1);
        cache.get_or_prepare(&t2);
        // Touch t1 so t2 becomes least recently used, then overflow.
        assert!(Arc::ptr_eq(&cache.get_or_prepare(&t1), &p1));
        cache.get_or_prepare(&t3);
        assert_eq!(cache.stats().len, 2);
        // t1 survived (hit), t2 was evicted (fresh miss recompiles).
        assert!(Arc::ptr_eq(&cache.get_or_prepare(&t1), &p1));
        let before = cache.stats().misses;
        cache.get_or_prepare(&t2);
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn fleet_evaluation_shares_one_plan() {
        let store = store_with_streams(17);
        let alphabet = Arc::clone(&store.alphabet);
        let t = identity(&alphabet);
        let seq = store.top_k(&t, 3).unwrap();
        let par = store.top_k_parallel(&t, 3, 4).unwrap();
        // One compile total across both fleet passes; results bitwise
        // identical (same plan artifacts, same accumulation order).
        let s = store.plan_cache().stats();
        assert_eq!((s.len, s.misses), (1, 1));
        assert!(s.hits >= 1);
        assert_eq!(seq.len(), par.len());
        for (name, answers) in &seq {
            let pars = &par[name];
            assert_eq!(answers.len(), pars.len(), "stream {name}");
            for (a, b) in answers.iter().zip(pars.iter()) {
                assert_eq!(a.output, b.output);
                assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
                assert_eq!(a.emax.to_bits(), b.emax.to_bits());
            }
        }
    }

    #[test]
    fn batch_confidence_matches_per_stream_evaluation() {
        let store = store_with_streams(8);
        let alphabet = Arc::clone(&store.alphabet);
        let t = identity(&alphabet);
        let o = [SymbolId(0), SymbolId(1)];
        let batch = store.confidence_all(&t, &o).unwrap();
        let batch_par = store.confidence_all_parallel(&t, &o, 3).unwrap();
        assert_eq!(batch, batch_par);
        for (name, c) in &batch {
            let m = store.get(name).unwrap();
            let want = prepare(&t).bind(m).unwrap().confidence(&o).unwrap();
            assert_eq!(c.to_bits(), want.to_bits(), "stream {name}");
        }
    }
}

#[cfg(test)]
mod file_fleet_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_core::prepare;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    fn store_with_streams(k: usize) -> SequenceStore {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet);
        let mut rng = StdRng::seed_from_u64(55);
        for i in 0..k {
            let m = random_markov_sequence(
                &RandomChainSpec {
                    len: 6,
                    n_symbols: 2,
                    zero_prob: 0.2,
                },
                &mut rng,
            );
            store.insert(format!("s{i}"), m).unwrap();
        }
        store
    }

    fn has_b() -> Nfa {
        let mut nfa = Nfa::new(2);
        let q0 = nfa.add_state(false);
        let acc = nfa.add_state(true);
        nfa.add_transition(q0, SymbolId(0), q0);
        nfa.add_transition(q0, SymbolId(1), acc);
        nfa.add_transition(acc, SymbolId(0), acc);
        nfa.add_transition(acc, SymbolId(1), acc);
        nfa
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        // And the fleet path accepts 0 end to end.
        let store = store_with_streams(3);
        let seq = store.event_probability(&has_b()).unwrap();
        let auto = store.event_probability_parallel(&has_b(), 0).unwrap();
        assert_eq!(seq, auto);
    }

    /// Mixed-format file fleet, streamed: bitwise equal to the in-memory
    /// passes, for both the Boolean and the transducer query.
    #[test]
    fn streamed_file_fleet_matches_in_memory_bitwise() {
        let store = store_with_streams(5);
        let dir =
            std::env::temp_dir().join(format!("transmark-store-fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Alternate text and binary files across the fleet.
        let mut paths = Vec::new();
        for (i, name) in store.names().enumerate() {
            let m = store.get(name).unwrap();
            let path = if i % 2 == 0 {
                let p = dir.join(format!("{name}.tms"));
                std::fs::write(&p, transmark_markov::textio::to_text(m)).unwrap();
                p
            } else {
                let p = dir.join(format!("{name}.tmsb"));
                std::fs::write(&p, transmark_markov::binio::to_tmsb_bytes(m)).unwrap();
                p
            };
            paths.push(path);
        }

        let q = has_b();
        let streamed = event_probability_files(&q, &paths, 2).unwrap();
        for (name, path) in store.names().zip(paths.iter()) {
            let want = PreparedEventQuery::new(q.clone())
                .acceptance(store.get(name).unwrap())
                .unwrap();
            let got = streamed[&path.display().to_string()];
            assert_eq!(got.to_bits(), want.to_bits(), "stream {name}");
        }

        // Identity transducer; confidence of output "a b".
        let alphabet = Arc::new(store.alphabet().clone());
        let mut b = Transducer::builder(Arc::clone(&alphabet), Arc::clone(&alphabet));
        let st = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(st, SymbolId(s), st, &[SymbolId(s)])
                .unwrap();
        }
        let t = b.build().unwrap();
        let o = [SymbolId(0), SymbolId(1)];
        let streamed = confidence_files(&t, &o, &paths, 0).unwrap();
        for (name, path) in store.names().zip(paths.iter()) {
            let want = prepare(&t)
                .bind(store.get(name).unwrap())
                .unwrap()
                .confidence(&o)
                .unwrap();
            let got = streamed[&path.display().to_string()];
            assert_eq!(got.to_bits(), want.to_bits(), "stream {name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_fails_cleanly() {
        let paths = vec![std::path::PathBuf::from("/nonexistent/x.tms")];
        assert!(matches!(
            event_probability_files(&has_b(), &paths, 1),
            Err(StoreError::Io(_))
        ));
    }
}

#[cfg(test)]
mod uncertainty_tests {
    use super::*;
    use transmark_markov::MarkovSequenceBuilder;

    #[test]
    fn uncertainty_ranking_orders_by_perplexity() {
        let alphabet = Alphabet::of_chars("xy");
        let mut store = SequenceStore::new(alphabet.clone());
        let noisy = MarkovSequenceBuilder::new(alphabet.clone(), 4)
            .uniform_all()
            .build()
            .unwrap();
        let sharp =
            MarkovSequence::homogeneous(alphabet.clone(), 4, &[1.0, 0.0], &[0.9, 0.1, 0.1, 0.9])
                .unwrap();
        store.insert("noisy", noisy).unwrap();
        store.insert("sharp", sharp).unwrap();
        let ranked = store.rank_by_uncertainty();
        assert_eq!(ranked[0].0, "noisy");
        assert!((ranked[0].1 - 2.0).abs() < 1e-12);
        assert!(ranked[1].1 < 2.0);
    }
}

#[cfg(test)]
mod error_propagation_tests {
    use super::*;

    #[test]
    fn par_map_propagates_the_first_error() {
        let alphabet = Alphabet::of_chars("ab");
        let mut store = SequenceStore::new(alphabet.clone());
        for i in 0..8 {
            let m = transmark_markov::MarkovSequenceBuilder::new(alphabet.clone(), 2)
                .uniform_all()
                .build()
                .unwrap();
            store.insert(format!("s{i}"), m).unwrap();
        }
        // A worker that fails on one specific stream.
        let result = store.par_map_streams(3, |name, _| {
            if name == "s5" {
                Err(StoreError::UnknownStream("injected".into()))
            } else {
                Ok(name.len())
            }
        });
        assert!(matches!(result, Err(StoreError::UnknownStream(_))));
        // And a query with the wrong alphabet fails cleanly in parallel.
        let bad_query = Nfa::new(3); // zero states + wrong alphabet width
        assert!(store.event_probability_parallel(&bad_query, 2).is_err());
    }
}
