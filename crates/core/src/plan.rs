//! The prepared-query layer: compile once, bind per sequence, execute
//! many times. It is the engine's only entry point for transducer
//! queries; Boolean event queries have theirs in [`PreparedEventQuery`].
//!
//! The paper's Table 2 is a query planner in prose: for each machine
//! class it names the algorithm that evaluates it. A [`PreparedQuery`]
//! makes that choice once per machine:
//!
//! 1. **compile** ([`prepare`] / [`PreparedQuery::new`]): classify the
//!    machine (deterministic? k-uniform? Mealy?), select the Table 2 route
//!    as a [`PlanKind`], precompile the state step graph, the
//!    accepting-state bitset, and an emission index (a hash lookup
//!    replacing the linear scans of `emission_id_for` — interning is
//!    injective, so lookups are equivalent); output-dependent artifacts
//!    (output/prefix step graphs) are compiled on first use and memoized
//!    in bounded caches, and the Lawler–Murty root constraint product is
//!    built once, on first use.
//! 2. **bind** ([`PreparedQuery::bind`]): validate one sequence, pick
//!    its execution strategy ([`choose_strategy`]) and allocate reusable
//!    workspaces — O(|Σ|), nothing the size of the sequence.
//! 3. **execute**: every pass of the engine, as a method on
//!    [`BoundQuery`]. Each single-pass route is one seed/step/finish pass
//!    (see `crate::forward`) pulled one matrix at a time off a
//!    [`StepSource`], and written once for both binds: a [`BoundQuery`]
//!    pulls `m.step_source()`, a [`SourceBoundQuery`] its own source, and
//!    a [`crate::incremental::ConfidenceSession`] takes one matrix per
//!    call, so every form agrees bit for bit (pinned by the golden Table
//!    1, oracle, and parity suites). Only the enumerating methods (`top`
//!    on a sparse bind, `ranked`, `top_k*`, `unranked`) need the
//!    whole-sequence CSR ([`SparseSteps`](transmark_kernel::SparseSteps));
//!    the bind builds it on first use, once, and a sparse single pass
//!    after that walks it rather than compacting each matrix again (the
//!    exact confidences of `top_k_scored`, for one).
//!
//! The machine side is immutable after compilation and `Send + Sync`, so
//! one `Arc<PreparedQuery>` serves a whole fleet of threads (the store's
//! parallel evaluation binds the same plan per stream per thread).
//!
//! What is deliberately **not** cached: the on-the-fly determinizations
//! behind [`PreparedEventQuery`] and the streaming sessions. The prefix
//! series has one evaluator, the acceptance fold, whose lifted table's
//! subset ids are interned in discovery order; the reduction order
//! follows those ids, so sharing a table across sequences (or even across
//! repeated evaluations) would perturb float accumulation order and break
//! bit-reproducibility. Each evaluation grows a fresh table. (A
//! [`SlidingWindowQuery`](crate::SlidingWindowQuery) builds its table
//! whole, breadth first, so its ids do not depend on the data and one
//! table serves all of its sessions.) The Thm 4.8 and general confidence
//! passes step the same kind of table, also grown fresh per pass: their
//! cells are ordered by subset rather than by id, but their successor
//! rules depend on the output string.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;
use transmark_automata::{BitSet, Nfa, SymbolId};
pub use transmark_kernel::Strategy;
use transmark_kernel::{
    Bool, ExecSteps, MaxLog, SharedSparseSteps, SharedStepGraph, StepGraph, Workspace,
};
use transmark_markov::{MarkovSequence, StepSource};

use crate::confidence::{self, check_inputs, check_source_inputs, ConfidencePass};
use crate::constraints::{constrain, PrefixConstraint};
use crate::emax::{self, EmaxResult};
use crate::enumerate::{
    enumerate_by_emax_planned, enumerate_unranked_with, EmaxEnumeration, RankedAnswer,
    UnrankedAnswers,
};
use crate::error::EngineError;
use crate::evidence::{self, Evidence, Evidences};
use crate::forward::{run_source, FlatReduce, ForwardPass};
use crate::incremental::{EventSession, StreamSession};
use crate::kernelize::{output_step_graph, prefix_step_graph, state_step_graph};
use crate::montecarlo::{self, McEstimate};
use crate::transducer::Transducer;

/// The Table 2 route a prepared query executes — one variant per machine
/// class the paper distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// Deterministic and k-uniform: the positional dimension collapses
    /// (Theorem 4.6, fast path).
    DeterministicUniform {
        /// The uniform emission length `k`.
        k: usize,
    },
    /// Deterministic, non-uniform emission: forward DP over
    /// `(node, state, output position)` (Theorem 4.6).
    Deterministic,
    /// Nondeterministic but k-uniform: subset DP over
    /// `(node, reachable state set)` (Theorem 4.8).
    UniformNfa {
        /// The uniform emission length `k`.
        k: usize,
    },
    /// General: exact configuration-set DP, worst-case exponential —
    /// necessarily, the problem is FP^#P-complete (Prop. 4.7, Thm 4.9).
    General,
    /// An s-projector evaluated through the concatenation language
    /// `L(B)·o·L(E)` (Theorem 5.5).
    Sproj,
    /// An indexed s-projector with precomputed prefix/suffix weight
    /// tables (Theorems 5.7/5.8).
    SprojIndexed,
}

impl PlanKind {
    /// Classifies a transducer into its Table 2 row.
    pub fn for_transducer(t: &Transducer) -> PlanKind {
        if t.is_deterministic() {
            match t.uniform_emission() {
                Some(k) => PlanKind::DeterministicUniform { k },
                None => PlanKind::Deterministic,
            }
        } else if let Some(k) = t.uniform_emission() {
            PlanKind::UniformNfa { k }
        } else {
            PlanKind::General
        }
    }

    /// The Table 2 row this plan executes, for EXPLAIN output.
    pub fn table2_row(&self) -> &'static str {
        match self {
            PlanKind::DeterministicUniform { .. } => "deterministic, k-uniform (Thm 4.6 fast path)",
            PlanKind::Deterministic => "deterministic (Thm 4.6)",
            PlanKind::UniformNfa { .. } => "k-uniform NFA subset DP (Thm 4.8)",
            PlanKind::General => "general NFA configuration DP (Prop 4.7 / Thm 4.9)",
            PlanKind::Sproj => "s-projector via L(B)·o·L(E) (Thm 5.5)",
            PlanKind::SprojIndexed => "indexed s-projector tables (Thm 5.7 / 5.8)",
        }
    }

    /// A short static identifier for this route, used to compose
    /// per-kind metric names (`planner.bind_ns.<label>`, …).
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::DeterministicUniform { .. } => "deterministic-uniform",
            PlanKind::Deterministic => "deterministic",
            PlanKind::UniformNfa { .. } => "uniform-nfa",
            PlanKind::General => "general",
            PlanKind::Sproj => "sproj",
            PlanKind::SprojIndexed => "sproj-indexed",
        }
    }

    /// The exact-confidence cost class this route implies.
    pub fn confidence_cost(&self) -> ConfidenceCost {
        match self {
            PlanKind::DeterministicUniform { .. }
            | PlanKind::Deterministic
            | PlanKind::SprojIndexed => ConfidenceCost::Polynomial,
            PlanKind::UniformNfa { .. } | PlanKind::Sproj => ConfidenceCost::ExponentialInStates,
            PlanKind::General => ConfidenceCost::ExponentialWorstCase,
        }
    }
}

/// How expensive exact confidence computation is for a machine
/// (the columns of Table 2 that apply to plain transducers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceCost {
    /// Deterministic: polynomial (Theorem 4.6).
    Polynomial,
    /// Nondeterministic but k-uniform: `O(4^{|Q|})` (Theorem 4.8).
    ExponentialInStates,
    /// General: exponential in reachable configurations (Prop. 4.7).
    ExponentialWorstCase,
}

/// A fully scored answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredAnswer {
    /// The output string.
    pub output: Vec<SymbolId>,
    /// `E_max(output)` — the best-evidence score the ranking used.
    pub emax: f64,
    /// The exact confidence `Pr(S →[A^ω]→ output)`.
    pub confidence: f64,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanKind::DeterministicUniform { k } => write!(f, "deterministic-uniform(k={k})"),
            PlanKind::Deterministic => write!(f, "deterministic"),
            PlanKind::UniformNfa { k } => write!(f, "uniform-nfa(k={k})"),
            PlanKind::General => write!(f, "general"),
            PlanKind::Sproj => write!(f, "sproj"),
            PlanKind::SprojIndexed => write!(f, "sproj-indexed"),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution-strategy selection
// ---------------------------------------------------------------------------

/// Layer density at or above which the dense advance is selected: at half
/// full, the dense loop touches at most 2× the CSR's entries but reads
/// them straight out of the sequence's contiguous buffer (no indirection,
/// no compaction, SIMD multiply stage). Hand-set: no committed sweep
/// records the break-even yet (ROADMAP item 8 calibrates it).
const DENSE_DENSITY_THRESHOLD: f64 = 0.5;

/// Total transition cells (`(n−1)·|Σ|²`) under which the bind is "tiny":
/// compacting its layers (and, for an enumeration, flattening its CSR)
/// costs more than the sparse walk saves, so the dense path wins
/// regardless of density. Hand-set, like the density threshold.
const TINY_QUERY_CELLS: usize = 4096;

/// The planner's bind-time choice between the sparse CSR walk and the
/// dense in-place advance for a materialized sequence, from the density
/// tallied at sequence construction and the bind size.
pub fn choose_strategy(m: &MarkovSequence) -> Strategy {
    let k = m.n_symbols();
    let cells = m.len().saturating_sub(1).saturating_mul(k * k);
    if m.density() >= DENSE_DENSITY_THRESHOLD || cells <= TINY_QUERY_CELLS {
        Strategy::Dense
    } else {
        Strategy::Sparse
    }
}

/// Bumps the per-strategy planner counter and drops a profiler instant,
/// so `--metrics` and traces show which inner loop ran.
fn record_strategy(s: Strategy) {
    match s {
        Strategy::Sparse => transmark_obs::counter!("planner.strategy.sparse").inc(),
        Strategy::Dense => transmark_obs::counter!("planner.strategy.dense").inc(),
    }
    transmark_obs::profile::instant_detail("planner.strategy", s.label());
}

/// A bounded memo cache with LRU eviction and hit/miss accounting.
/// Small (tens of entries), so the `VecDeque` order bookkeeping is cheap.
/// Shared by the plan layers of this crate and `transmark-sproj`; callers
/// wrap it in a `Mutex`.
pub struct BoundedCache<K: Eq + std::hash::Hash + Clone, V> {
    cap: usize,
    map: HashMap<K, Arc<V>>,
    order: VecDeque<K>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + std::hash::Hash + Clone, V> BoundedCache<K, V> {
    /// An empty cache holding at most `cap` entries (minimum 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build (= compilations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The cached value for `key`, building (and possibly evicting the
    /// least-recently-used entry) on miss.
    pub fn get_or_insert_with(&mut self, key: &K, build: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.map.get(key) {
            self.hits += 1;
            transmark_obs::counter!("planner.cache.hits").inc();
            transmark_obs::profile::instant("planner.cache.hit");
            let v = Arc::clone(v);
            if let Some(pos) = self.order.iter().position(|k| k == key) {
                self.order.remove(pos);
                self.order.push_back(key.clone());
            }
            return v;
        }
        self.misses += 1;
        transmark_obs::counter!("planner.cache.misses").inc();
        transmark_obs::profile::instant("planner.cache.miss");
        if self.map.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                transmark_obs::counter!("planner.cache.evictions").inc();
            }
        }
        let v = Arc::new(build());
        self.map.insert(key.clone(), Arc::clone(&v));
        self.order.push_back(key.clone());
        v
    }
}

/// A constraint product: the machine constrained by a
/// [`PrefixConstraint`] and its state step graph. The plan keeps the root
/// product ([`PrefixConstraint::all`]), shared across binds (the product
/// is purely machine-side); it is the only one the Theorem 4.3
/// enumeration asks for, since its split products are built per split
/// and never cached.
pub(crate) struct ConstrainedMachine {
    pub(crate) t: Transducer,
    pub(crate) graph: StepGraph,
}

/// A compiled query: machine classified, Table 2 route selected, every
/// sequence-independent artifact precompiled or memoized. Immutable and
/// `Send + Sync`; share it as `Arc<PreparedQuery>` and
/// [`PreparedQuery::bind`] it once per sequence.
pub struct PreparedQuery {
    t: Transducer,
    kind: PlanKind,
    state_graph: SharedStepGraph,
    accepting: BitSet,
    /// Interned emission string → id; replaces the O(#emissions) scans of
    /// `emission_id_for` with an equivalent (interning is injective) hash
    /// lookup.
    emission_index: HashMap<Box<[SymbolId]>, u32>,
    output_graphs: Mutex<BoundedCache<Vec<SymbolId>, StepGraph>>,
    prefix_graphs: Mutex<BoundedCache<Vec<SymbolId>, StepGraph>>,
    root_product: OnceLock<Arc<ConstrainedMachine>>,
    /// Root lookups of [`PreparedQuery::constrained`] that found it built
    /// (hits) or built it (misses), reported with the caches' counts.
    root_product_hits: AtomicU64,
    root_product_misses: AtomicU64,
    /// Per-kind phase histograms, resolved once at compile time so the
    /// bind/execute paths record through a plain `Arc` (no registry
    /// lookup on the hot path).
    bind_ns: Arc<transmark_obs::Histogram>,
    execute_ns: Arc<transmark_obs::Histogram>,
}

thread_local! {
    /// Execute-phase reentrancy depth: composite passes (`top_k_scored`
    /// calls `confidence` per answer) must count as ONE execute.
    static EXEC_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Times one top-level execute: records the plan's `execute_ns`
/// histogram and the `"execute"` span only at depth 0, so nested
/// execute-phase methods neither double-count nor produce
/// `execute/execute` span paths.
struct ExecGuard {
    hist: Option<Arc<transmark_obs::Histogram>>,
    timer: transmark_obs::Timer,
    _span: Option<transmark_obs::SpanGuard>,
}

impl ExecGuard {
    fn enter(plan: &PreparedQuery) -> ExecGuard {
        let depth = EXEC_DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        if depth == 0 {
            ExecGuard {
                hist: Some(Arc::clone(&plan.execute_ns)),
                timer: transmark_obs::Timer::start(),
                _span: Some(transmark_obs::span::enter("execute")),
            }
        } else {
            ExecGuard {
                hist: None,
                timer: transmark_obs::Timer::start(),
                _span: None,
            }
        }
    }
}

impl Drop for ExecGuard {
    fn drop(&mut self) {
        EXEC_DEPTH.with(|d| d.set(d.get() - 1));
        if let Some(h) = &self.hist {
            h.record(self.timer.elapsed_ns());
        }
    }
}

/// How many output-keyed graphs each prepared query memoizes. Answers a
/// fleet evaluation touches repeatedly (top-k outputs, enumeration
/// prefixes) fit comfortably; unbounded growth over adversarial output
/// streams does not happen.
const GRAPH_CACHE_CAP: usize = 64;

/// Compiles `t` into a shareable plan (convenience for
/// `Arc::new(PreparedQuery::new(t))`).
pub fn prepare(t: &Transducer) -> Arc<PreparedQuery> {
    Arc::new(PreparedQuery::new(t))
}

impl PreparedQuery {
    /// Analyzes and compiles the machine. The transducer is cloned into
    /// the plan, so the plan is self-contained and `'static`.
    pub fn new(t: &Transducer) -> Self {
        Self::from_owned(t.clone())
    }

    /// Like [`PreparedQuery::new`] but takes ownership.
    pub fn from_owned(t: Transducer) -> Self {
        let _span = transmark_obs::span::enter("prepare");
        let timer = transmark_obs::Timer::start();
        let kind = PlanKind::for_transducer(&t);
        // The route decision, visible as a point event on the timeline.
        transmark_obs::profile::instant_detail("planner.plan", kind.label());
        let state_graph = state_step_graph(&t).into_shared();
        let accepting = confidence::accepting_bitset(&t);
        let mut emission_index = HashMap::with_capacity(t.n_emissions());
        for id in 0..t.n_emissions() {
            let em: Box<[SymbolId]> = t.emission(crate::transducer::EmissionId(id as u32)).into();
            emission_index.entry(em).or_insert(id as u32);
        }
        let obs = transmark_obs::registry();
        let plan = Self {
            t,
            kind,
            state_graph,
            accepting,
            emission_index,
            output_graphs: Mutex::new(BoundedCache::new(GRAPH_CACHE_CAP)),
            prefix_graphs: Mutex::new(BoundedCache::new(GRAPH_CACHE_CAP)),
            root_product: OnceLock::new(),
            root_product_hits: AtomicU64::new(0),
            root_product_misses: AtomicU64::new(0),
            bind_ns: obs.histogram_dyn(&format!("planner.bind_ns.{}", kind.label())),
            execute_ns: obs.histogram_dyn(&format!("planner.execute_ns.{}", kind.label())),
        };
        timer.observe(&obs.histogram_dyn(&format!("planner.prepare_ns.{}", kind.label())));
        plan
    }

    /// The selected Table 2 route.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// The compiled machine.
    pub fn transducer(&self) -> &Transducer {
        &self.t
    }

    /// The machine's structural fingerprint (the store's plan-cache key).
    pub fn fingerprint(&self) -> u64 {
        self.t.fingerprint()
    }

    /// The interned id of an emission string, `u32::MAX` if the machine
    /// never emits it. Equivalent to `kernelize::emission_id_for`.
    pub(crate) fn emission_id(&self, slice: &[SymbolId]) -> u32 {
        self.emission_index.get(slice).copied().unwrap_or(u32::MAX)
    }

    /// The shared `(node, state)` step graph.
    pub(crate) fn state_graph(&self) -> &SharedStepGraph {
        &self.state_graph
    }

    /// The accepting-state bitset.
    pub(crate) fn accepting(&self) -> &BitSet {
        &self.accepting
    }

    /// The memoized `output_step_graph(t, o)`.
    pub(crate) fn output_graph(&self, o: &[SymbolId]) -> Arc<StepGraph> {
        let mut cache = self.output_graphs.lock().expect("plan cache poisoned");
        cache.get_or_insert_with(&o.to_vec(), || output_step_graph(&self.t, o))
    }

    /// The memoized `prefix_step_graph(t, prefix)`.
    pub(crate) fn prefix_graph(&self, prefix: &[SymbolId]) -> Arc<StepGraph> {
        let mut cache = self.prefix_graphs.lock().expect("plan cache poisoned");
        cache.get_or_insert_with(&prefix.to_vec(), || prefix_step_graph(&self.t, prefix))
    }

    /// The constraint product of `c`. The root product
    /// ([`PrefixConstraint::all`]) is built on first use and kept; any
    /// other constraint's is built per call.
    pub(crate) fn constrained(&self, c: &PrefixConstraint) -> Arc<ConstrainedMachine> {
        let build = || {
            let ct = constrain(&self.t, &c.to_dfa(self.t.n_output_symbols()))
                .expect("constraint DFA is over the output alphabet by construction");
            let graph = state_step_graph(&ct);
            Arc::new(ConstrainedMachine { t: ct, graph })
        };
        if *c != PrefixConstraint::all() {
            return build();
        }
        let mut built = false;
        let cm = self.root_product.get_or_init(|| {
            built = true;
            build()
        });
        let lookups = if built {
            &self.root_product_misses
        } else {
            &self.root_product_hits
        };
        lookups.fetch_add(1, Ordering::Relaxed);
        Arc::clone(cm)
    }

    /// EXPLAIN-style introspection: the selected route, machine shape, and
    /// precompile / cache statistics.
    pub fn explain(&self) -> PlanExplain {
        let (og_len, og_hits, og_misses) = {
            let c = self.output_graphs.lock().expect("plan cache poisoned");
            (c.len(), c.hits(), c.misses())
        };
        let (pg_len, pg_hits, pg_misses) = {
            let c = self.prefix_graphs.lock().expect("plan cache poisoned");
            (c.len(), c.hits(), c.misses())
        };
        let cp_len = self.root_product.get().is_some() as usize;
        let cp_hits = self.root_product_hits.load(Ordering::Relaxed);
        let cp_misses = self.root_product_misses.load(Ordering::Relaxed);
        PlanExplain {
            kind: self.kind,
            n_states: self.t.n_states(),
            n_input_symbols: self.t.n_input_symbols(),
            n_output_symbols: self.t.n_output_symbols(),
            n_emissions: self.t.n_emissions(),
            deterministic: self.t.is_deterministic(),
            uniform_k: self.t.uniform_emission(),
            mealy: self.t.is_mealy(),
            selective: self.t.is_selective(),
            state_graph_edges: self.state_graph.n_edges(),
            precompiled_bytes: self.state_graph.approx_bytes(),
            cached_output_graphs: og_len,
            cached_prefix_graphs: pg_len,
            cached_constraint_products: cp_len,
            cache_hits: og_hits + pg_hits + cp_hits,
            cache_misses: og_misses + pg_misses + cp_misses,
            strategy: None,
        }
    }

    /// Binds one sequence: validates alphabets, picks the execution
    /// strategy, allocates the reusable workspaces. Nothing the size of
    /// the sequence is built: the single-pass methods pull its matrices
    /// one at a time, and only the enumerating ones build its
    /// whole-sequence CSR, on first use. The returned [`BoundQuery`] is
    /// cheap to use repeatedly and thread-local (the plan itself is the
    /// shareable part).
    pub fn bind<'m>(
        self: &Arc<Self>,
        m: &'m MarkovSequence,
    ) -> Result<BoundQuery<'m>, EngineError> {
        self.bind_with_strategy(m, None)
    }

    /// [`PreparedQuery::bind`] with the execution strategy forced (`None`
    /// = planner choice via [`choose_strategy`]). Sparse and dense binds
    /// produce bit-identical results.
    pub fn bind_with_strategy<'m>(
        self: &Arc<Self>,
        m: &'m MarkovSequence,
        strategy: Option<Strategy>,
    ) -> Result<BoundQuery<'m>, EngineError> {
        let _span = transmark_obs::span::enter("bind");
        let timer = transmark_obs::Timer::start();
        check_inputs(&self.t, m.n_symbols(), None)?;
        let chosen = strategy.unwrap_or_else(|| choose_strategy(m));
        record_strategy(chosen);
        let bound = BoundQuery {
            core: BindCore::new(self, chosen),
            m,
        };
        timer.observe(&self.bind_ns);
        Ok(bound)
    }

    /// Binds a streamed [`StepSource`]: the data side is never
    /// materialized, so only the forward-only passes are available — each
    /// one a single left-to-right scan holding O(|Σ|²) of sequence data
    /// (plus the pass's own layer). They are the same code
    /// [`PreparedQuery::bind`] runs, so results are bit-identical.
    ///
    /// Each evaluation consumes the source; rewind it (a
    /// [`SourceBoundQuery::rewind`] exists when `S` is rewindable) before
    /// the next pass, or the pass reports
    /// [`EngineError::SourceConsumed`].
    pub fn bind_source<S: StepSource>(
        self: &Arc<Self>,
        src: S,
    ) -> Result<SourceBoundQuery<S>, EngineError> {
        let _span = transmark_obs::span::enter("bind");
        let timer = transmark_obs::Timer::start();
        check_inputs(&self.t, src.alphabet().len(), None)?;
        timer.observe(&self.bind_ns);
        Ok(SourceBoundQuery {
            core: BindCore::new(self, Strategy::Sparse),
            src,
        })
    }
}

// One Arc<PreparedQuery> serves the parallel fleet; this fails to compile
// if the plan ever grows a non-thread-safe field.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedQuery>();
};

/// What both binds run their single-pass methods on: the plan, the
/// strategy pulled layers advance under, and the reused layer workspaces.
/// Each single-pass method is written once here, generic over the
/// [`StepSource`] it pulls — [`BoundQuery`] hands it `m.step_source()`,
/// [`SourceBoundQuery`] its own source.
struct BindCore {
    plan: Arc<PreparedQuery>,
    strategy: Strategy,
    ws_f: RefCell<Workspace<f64>>,
    ws_b: RefCell<Workspace<bool>>,
    /// The whole-sequence CSR of a [`BoundQuery`], built at most once, by
    /// `top` (sparse binds), `ranked`, `top_k*` or `unranked`. Once it
    /// exists, a sparse single pass walks it instead of compacting each
    /// pulled matrix again. A [`SourceBoundQuery`] never builds one.
    csr: OnceLock<SharedSparseSteps>,
}

impl BindCore {
    fn new(plan: &Arc<PreparedQuery>, strategy: Strategy) -> Self {
        BindCore {
            plan: Arc::clone(plan),
            strategy,
            ws_f: RefCell::new(Workspace::new()),
            ws_b: RefCell::new(Workspace::new()),
            csr: OnceLock::new(),
        }
    }

    fn explain(&self) -> PlanExplain {
        let mut e = self.plan.explain();
        e.strategy = Some(self.strategy);
        e
    }

    /// Drives a pass over the rest of `src`.
    fn run<S: StepSource, P: ForwardPass>(
        &self,
        mut src: S,
        pass: P,
    ) -> Result<P::Output, EngineError> {
        let built = self.csr.get().map(|steps| &**steps);
        run_source(&mut src, self.strategy == Strategy::Dense, built, pass)
    }

    fn confidence_via<S: StepSource>(
        &self,
        src: S,
        route: PlanKind,
        o: &[SymbolId],
    ) -> Result<f64, EngineError> {
        let plan = &self.plan;
        let _exec = ExecGuard::enter(plan);
        check_source_inputs(&plan.t, &src, Some(o))?;
        let mut ws = self.ws_f.borrow_mut();
        let len = Some(src.len());
        let pass = ConfidencePass::seed(Arc::clone(plan), route, &mut *ws, src.initial(), o, len);
        self.run(src, pass)
    }

    fn is_answer<S: StepSource>(&self, src: S, o: &[SymbolId]) -> Result<bool, EngineError> {
        let _exec = ExecGuard::enter(&self.plan);
        let t = &self.plan.t;
        check_source_inputs(t, &src, Some(o))?;
        let mut ws = self.ws_b.borrow_mut();
        let graph = self.plan.output_graph(o);
        let pass = FlatReduce::<Bool, _>::output(t, graph, &mut *ws, src.initial(), o.len());
        self.run(src, pass)
    }

    fn answer_exists<S: StepSource>(&self, src: S) -> Result<bool, EngineError> {
        let _exec = ExecGuard::enter(&self.plan);
        let t = &self.plan.t;
        check_source_inputs(t, &src, None)?;
        let mut ws = self.ws_b.borrow_mut();
        let graph = Arc::clone(self.plan.state_graph());
        let pass = FlatReduce::<Bool, _>::states(t, graph, &mut *ws, src.initial());
        self.run(src, pass)
    }

    fn emax_of_output<S: StepSource>(&self, src: S, o: &[SymbolId]) -> Result<f64, EngineError> {
        let _exec = ExecGuard::enter(&self.plan);
        let t = &self.plan.t;
        check_source_inputs(t, &src, Some(o))?;
        let mut ws = self.ws_f.borrow_mut();
        let graph = self.plan.output_graph(o);
        let pass = FlatReduce::<MaxLog, _>::output(t, graph, &mut *ws, src.initial(), o.len());
        self.run(src, pass)
    }
}

/// One plan bound to one sequence: a handle on the shared machine side
/// plus the data-side state — the layer workspaces and, for the
/// enumerating methods, a whole-sequence CSR built on first use. Every
/// evaluation mode of §3.2 is a method here, and repeated calls reuse
/// every precompiled artifact.
pub struct BoundQuery<'m> {
    core: BindCore,
    m: &'m MarkovSequence,
}

impl<'m> BoundQuery<'m> {
    /// Binds `plan` to `m` under the planner's strategy: the same call as
    /// [`PreparedQuery::bind`], kept under the [`crate::Evaluation`] name.
    pub fn with_plan(
        plan: &Arc<PreparedQuery>,
        m: &'m MarkovSequence,
    ) -> Result<Self, EngineError> {
        plan.bind(m)
    }

    /// The plan this bind executes.
    pub fn plan(&self) -> &Arc<PreparedQuery> {
        &self.core.plan
    }

    /// The bound sequence.
    pub fn sequence(&self) -> &'m MarkovSequence {
        self.m
    }

    /// The execution strategy this bind runs its layer advances under.
    pub fn strategy(&self) -> Strategy {
        self.core.strategy
    }

    /// [`PreparedQuery::explain`] plus this bind's execution-strategy row.
    pub fn explain(&self) -> PlanExplain {
        self.core.explain()
    }

    /// The whole-sequence CSR, built on first use.
    fn csr(&self) -> &SharedSparseSteps {
        self.core
            .csr
            .get_or_init(|| self.m.sparse_steps().into_shared())
    }

    /// `Pr(S →[A^ω]→ o)` along the plan's Table 2 route: deterministic →
    /// Thm 4.6 (uniform fast path included); uniform NFA → Thm 4.8;
    /// otherwise the general exact algorithm.
    ///
    /// ```
    /// use transmark_automata::Alphabet;
    /// use transmark_core::{prepare, Transducer};
    /// use transmark_markov::MarkovSequenceBuilder;
    ///
    /// // A 2-step chain over {a, b} and the identity transducer.
    /// let alphabet = Alphabet::of_chars("ab");
    /// let (a, b) = (alphabet.sym("a"), alphabet.sym("b"));
    /// let chain = MarkovSequenceBuilder::new(alphabet.clone(), 2)
    ///     .initial(a, 0.6).initial(b, 0.4)
    ///     .transition(0, a, a, 0.5).transition(0, a, b, 0.5)
    ///     .transition(0, b, b, 1.0)
    ///     .build()?;
    /// let mut builder = Transducer::builder(alphabet.clone(), alphabet);
    /// let q = builder.add_state(true);
    /// builder.add_transition(q, a, q, &[a])?;
    /// builder.add_transition(q, b, q, &[b])?;
    /// let identity = builder.build()?;
    ///
    /// // Identity ⇒ conf(o) = p(o): conf("ab") = 0.6·0.5.
    /// let conf = prepare(&identity).bind(&chain)?.confidence(&[a, b])?;
    /// assert!((conf - 0.3).abs() < 1e-12);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn confidence(&self, o: &[SymbolId]) -> Result<f64, EngineError> {
        self.confidence_via(self.core.plan.kind, o)
    }

    /// `Pr(S →[A^ω]→ o)` along an explicit `route` (the per-theorem
    /// entry points such as [`crate::confidence::confidence_general`]
    /// force theirs).
    pub(crate) fn confidence_via(
        &self,
        route: PlanKind,
        o: &[SymbolId],
    ) -> Result<f64, EngineError> {
        self.core.confidence_via(self.m.step_source(), route, o)
    }

    /// Whether `o` is an answer, i.e. `Pr(S →[A^ω]→ o) > 0` (§3.2:
    /// "whether a string is an answer can be decided efficiently").
    /// Boolean reachability over the output graph — polynomial for every
    /// transducer, `O(n·|Σ|²·|Q|·|o|)`.
    pub fn is_answer(&self, o: &[SymbolId]) -> Result<bool, EngineError> {
        self.core.is_answer(self.m.step_source(), o)
    }

    /// Whether the query has any answer (`Pr(S ∈ L(A)) > 0`): Boolean
    /// reachability over the state graph, `O(n·|Σ|²·|Q|·b)`.
    pub fn answer_exists(&self) -> Result<bool, EngineError> {
        self.core.answer_exists(self.m.step_source())
    }

    /// The top answer by `E_max`: a tracked Viterbi pass maximizing
    /// `p(s)` over accepting `(s, run)` pairs, returning the run's output
    /// and its best evidence (§4.2; see [`crate::emax`]). `None` when the
    /// query has no answer.
    pub fn top(&self) -> Result<Option<EmaxResult>, EngineError> {
        let plan = &self.core.plan;
        let _exec = ExecGuard::enter(plan);
        let graph = plan.state_graph();
        Ok(match self.core.strategy {
            Strategy::Dense => {
                emax::top_by_emax(&plan.t, ExecSteps::Dense(&self.m.dense_steps()), graph)
            }
            _ => emax::top_by_emax(&plan.t, ExecSteps::Sparse(self.csr()), graph),
        })
    }

    /// `ln E_max(o)`: the best evidence transduced into exactly `o`
    /// (`-∞` if `o` is not an answer), by max-product over the output
    /// graph.
    pub fn emax_of_output(&self, o: &[SymbolId]) -> Result<f64, EngineError> {
        self.core.emax_of_output(self.m.step_source(), o)
    }

    /// Monte-Carlo estimate of `Pr(S →[A^ω]→ o)` from `samples`
    /// independent worlds (see [`crate::montecarlo`]).
    pub fn estimate_confidence<R: Rng + ?Sized>(
        &self,
        o: &[SymbolId],
        samples: usize,
        rng: &mut R,
    ) -> Result<McEstimate, EngineError> {
        let plan = &self.core.plan;
        let _exec = ExecGuard::enter(plan);
        let t = &plan.t;
        check_inputs(t, self.m.n_symbols(), Some(o))?;
        let graph = if t.is_deterministic() {
            None
        } else {
            Some(plan.output_graph(o))
        };
        Ok(montecarlo::estimate_confidence_impl(
            t,
            self.m,
            graph.as_deref(),
            o,
            samples,
            rng,
        ))
    }

    /// All evidences of `o` — the worlds transduced into it — most
    /// probable first (see [`crate::evidence`]).
    pub fn evidences(&self, o: &[SymbolId]) -> Result<Evidences, EngineError> {
        let plan = &self.core.plan;
        let _exec = ExecGuard::enter(plan);
        let t = &plan.t;
        check_inputs(t, self.m.n_symbols(), Some(o))?;
        Ok(evidence::enumerate_evidences_impl(
            t,
            self.m,
            &plan.output_graph(o),
            o.len(),
        ))
    }

    /// The `k` most probable evidences of `o`.
    pub fn top_evidences(&self, o: &[SymbolId], k: usize) -> Result<Vec<Evidence>, EngineError> {
        Ok(self.evidences(o)?.take(k).collect())
    }

    /// Theorem 4.1 lexicographic enumeration with polynomial delay and
    /// space; per-prefix graphs come from the plan's memo cache. The
    /// iterator borrows the bind.
    pub fn unranked(&self) -> Result<UnrankedAnswers<'_>, EngineError> {
        let plan = &self.core.plan;
        Ok(enumerate_unranked_with(
            &plan.t,
            self.m,
            Arc::clone(self.csr()),
            Arc::clone(plan),
        ))
    }

    /// Theorem 4.3 enumeration in decreasing `E_max` with polynomial
    /// delay: the root probe's product comes from the plan's memo cache,
    /// each later answer costs one Viterbi pass over its split's product,
    /// and every pass shares this bind's CSR.
    pub fn ranked(&self) -> Result<EmaxEnumeration, EngineError> {
        Ok(enumerate_by_emax_planned(
            Arc::clone(&self.core.plan),
            Arc::clone(self.csr()),
        ))
    }

    /// The top-k answers by `E_max`, each with its exact confidence.
    ///
    /// This is the paper's recommended practical mode: the ranking is the
    /// provably-best polynomial heuristic, and the confidence attached to
    /// each reported answer is exact (polynomial when the plan's
    /// [`PlanKind::confidence_cost`] is `Polynomial`). `k` only bounds
    /// the answers taken; the result grows as they arrive.
    pub fn top_k_scored(&self, k: usize) -> Result<Vec<ScoredAnswer>, EngineError> {
        let _exec = ExecGuard::enter(&self.core.plan);
        let mut out = Vec::new();
        for r in self.ranked()?.take(k) {
            let conf = self.confidence(&r.output)?;
            out.push(ScoredAnswer {
                emax: r.score(),
                confidence: conf,
                output: r.output,
            });
        }
        Ok(out)
    }

    /// The top-k answers by `E_max` without confidences (the §2.3.1
    /// top-k reduction: stop the Theorem 4.3 enumeration after `k`).
    pub fn top_k(&self, k: usize) -> Result<Vec<RankedAnswer>, EngineError> {
        let _exec = ExecGuard::enter(&self.core.plan);
        Ok(self.ranked()?.take(k).collect())
    }
}

/// One plan bound to a streamed [`StepSource`]: the forward-only subset
/// of [`BoundQuery`], running the same single-pass code over the
/// source's layers. Memory is O(|Σ|² + pass state) regardless of the
/// stream length; results are bit-identical to the materialized path
/// (pinned by the streaming parity suite).
///
/// Every method is a full left-to-right scan, so each consumes the
/// source. For rewindable sources, [`SourceBoundQuery::rewind`] restarts
/// the cursor between passes.
pub struct SourceBoundQuery<S: StepSource> {
    core: BindCore,
    src: S,
}

impl<S: StepSource> SourceBoundQuery<S> {
    /// The plan this bind executes.
    pub fn plan(&self) -> &Arc<PreparedQuery> {
        &self.core.plan
    }

    /// The bound source.
    pub fn source(&self) -> &S {
        &self.src
    }

    /// Releases the source (e.g. to rewind it externally).
    pub fn into_source(self) -> S {
        self.src
    }

    /// Streamed binds always run sparse: each pulled layer is compacted
    /// to CSR in place, never materialized whole.
    pub fn strategy(&self) -> Strategy {
        self.core.strategy
    }

    /// [`PreparedQuery::explain`] plus this bind's execution-strategy row.
    pub fn explain(&self) -> PlanExplain {
        self.core.explain()
    }

    /// `Pr(S →[A^ω]→ o)` along the plan's Table 2 route, streamed
    /// (the code [`BoundQuery::confidence`] runs).
    pub fn confidence(&mut self, o: &[SymbolId]) -> Result<f64, EngineError> {
        let route = self.core.plan.kind;
        self.core.confidence_via(&mut self.src, route, o)
    }

    /// Whether `o` is an answer, streamed (the code
    /// [`BoundQuery::is_answer`] runs).
    pub fn is_answer(&mut self, o: &[SymbolId]) -> Result<bool, EngineError> {
        self.core.is_answer(&mut self.src, o)
    }

    /// Whether the query has any answer, streamed (the code
    /// [`BoundQuery::answer_exists`] runs).
    pub fn answer_exists(&mut self) -> Result<bool, EngineError> {
        self.core.answer_exists(&mut self.src)
    }

    /// `ln E_max(o)`, streamed (the code [`BoundQuery::emax_of_output`]
    /// runs). Unlike [`BoundQuery::top`], the score of a fixed output
    /// needs no back-pointers, so it streams.
    pub fn emax_of_output(&mut self, o: &[SymbolId]) -> Result<f64, EngineError> {
        self.core.emax_of_output(&mut self.src, o)
    }

    /// Streamed Monte-Carlo confidence estimate: all samples advance one
    /// layer per pulled step (see
    /// [`crate::montecarlo::estimate_confidence_source`] for how its draw
    /// order relates to the in-memory estimator's).
    pub fn estimate_confidence<R: Rng + ?Sized>(
        &mut self,
        o: &[SymbolId],
        samples: usize,
        rng: &mut R,
    ) -> Result<McEstimate, EngineError> {
        let plan = &self.core.plan;
        let _exec = ExecGuard::enter(plan);
        montecarlo::estimate_confidence_source(&plan.t, &mut self.src, o, samples, rng)
    }
}

impl<S: transmark_markov::RewindableStepSource> SourceBoundQuery<S> {
    /// Restarts the source's step cursor so another pass can run.
    pub fn rewind(&mut self) -> Result<(), EngineError> {
        self.src.rewind()?;
        Ok(())
    }
}

/// EXPLAIN output: the selected route and what compiling it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// The selected Table 2 route.
    pub kind: PlanKind,
    /// `|Q_A|`.
    pub n_states: usize,
    /// `|Σ_A|`.
    pub n_input_symbols: usize,
    /// `|Δ_ω|`.
    pub n_output_symbols: usize,
    /// Distinct interned emissions (including ε).
    pub n_emissions: usize,
    /// Whether the underlying automaton is deterministic.
    pub deterministic: bool,
    /// `Some(k)` when every emission has length exactly `k`.
    pub uniform_k: Option<usize>,
    /// Whether the machine is Mealy (1-uniform).
    pub mealy: bool,
    /// Whether the machine is selective (`F_A ≠ Q_A`).
    pub selective: bool,
    /// Edges in the precompiled `(node, state)` step graph.
    pub state_graph_edges: usize,
    /// Approximate bytes of eagerly precompiled machine-side artifacts.
    pub precompiled_bytes: usize,
    /// Output-keyed step graphs currently memoized.
    pub cached_output_graphs: usize,
    /// Prefix-keyed step graphs currently memoized.
    pub cached_prefix_graphs: usize,
    /// Lawler–Murty constraint products currently memoized: 1 once the
    /// root product is built, 0 before.
    pub cached_constraint_products: usize,
    /// Total plan-cache hits so far.
    pub cache_hits: u64,
    /// Total plan-cache misses (= compilations) so far.
    pub cache_misses: u64,
    /// The execution strategy of the bind this explain came from —
    /// `None` for an unbound plan (strategy is chosen per bind).
    pub strategy: Option<Strategy>,
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {}  [{}]", self.kind, self.kind.table2_row())?;
        if let Some(s) = self.strategy {
            writeln!(f, "strategy: {s}")?;
        }
        writeln!(
            f,
            "machine: {} states, {} input symbols, {} output symbols, {} emissions",
            self.n_states, self.n_input_symbols, self.n_output_symbols, self.n_emissions
        )?;
        writeln!(
            f,
            "class: deterministic={} uniform_k={} mealy={} selective={}",
            self.deterministic,
            match self.uniform_k {
                Some(k) => k.to_string(),
                None => "-".to_string(),
            },
            self.mealy,
            self.selective
        )?;
        writeln!(
            f,
            "precompiled: state graph {} edges (~{} bytes)",
            self.state_graph_edges, self.precompiled_bytes
        )?;
        write!(
            f,
            "caches: {} output graphs, {} prefix graphs, {} constraint products ({} hits / {} misses)",
            self.cached_output_graphs,
            self.cached_prefix_graphs,
            self.cached_constraint_products,
            self.cache_hits,
            self.cache_misses
        )
    }
}

/// The prepared form of a Boolean event query (an NFA over the sequence
/// alphabet): the entry point for `Pr(S ∈ L(A))` and the Lahar-style
/// prefix series. For one-matrix-at-a-time monitoring with checkpoints,
/// drive an [`EventSession`] directly.
///
/// The only machine-side artifact worth caching here is the validated NFA
/// itself — the subset determinization is rebuilt per evaluation *on
/// purpose* (see the module docs: sharing it would reorder reductions and
/// break bit-reproducibility).
pub struct PreparedEventQuery {
    nfa: Nfa,
}

impl PreparedEventQuery {
    /// Wraps a query NFA.
    pub fn new(nfa: Nfa) -> Self {
        Self { nfa }
    }

    /// The query automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The query's structural fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.nfa.fingerprint()
    }

    /// `Pr(S ∈ L(A))` by on-the-fly determinization: the DP state is
    /// `(node, determinized subset)`, so only subsets actually reachable
    /// while scanning `μ` are materialized (this gives Theorem 5.5 its
    /// `4^{|Q_E|}`-only blow-up downstream).
    pub fn acceptance(&self, m: &MarkovSequence) -> Result<f64, EngineError> {
        let sess = EventSession::start(self.nfa.clone(), m.initial_dist())?;
        Ok(StreamSession::Event(sess).drain(&mut m.step_source(), false)?[0])
    }

    /// The Lahar-style streaming Boolean query: for every position `i`,
    /// `Pr(S[1..i] ∈ L(A))` (§6). `result[i-1]` is the probability at time
    /// `i`, and `result[n-1]` equals [`PreparedEventQuery::acceptance`].
    pub fn series(&self, m: &MarkovSequence) -> Result<Vec<f64>, EngineError> {
        self.series_source(&mut m.step_source())
    }

    /// The per-prefix probability series over a streamed source
    /// (bit-identical to [`PreparedEventQuery::series`]). The output
    /// vector is the only O(n) state.
    pub fn series_source<S: StepSource>(&self, src: &mut S) -> Result<Vec<f64>, EngineError> {
        let sess = EventSession::start(self.nfa.clone(), src.initial())?;
        StreamSession::Event(sess).drain(src, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::Alphabet;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
    use transmark_markov::MarkovSequenceBuilder;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    fn identity() -> Transducer {
        let alphabet = Alphabet::of_chars("ab");
        let mut b = Transducer::builder(alphabet.clone(), alphabet);
        let q = b.add_state(true);
        for s in 0..2u32 {
            b.add_transition(q, sym(s), q, &[sym(s)]).unwrap();
        }
        b.build().unwrap()
    }

    fn chain() -> MarkovSequence {
        let alphabet = Alphabet::of_chars("ab");
        MarkovSequenceBuilder::new(alphabet, 3)
            .uniform_all()
            .build()
            .unwrap()
    }

    /// `k` bounds the answers taken and sizes nothing: a `k` of 2^32 − 1
    /// returns all eight answers of a length-3 binary chain, as `k = 8`
    /// does.
    #[test]
    fn top_k_scored_reserves_nothing_the_answers_cannot_back() {
        let m = chain();
        let bound = prepare(&identity()).bind(&m).unwrap();
        let huge = bound.top_k_scored(u32::MAX as usize).unwrap();
        let eight = bound.top_k_scored(8).unwrap();
        assert_eq!(huge.len(), 8);
        for (a, b) in huge.iter().zip(&eight) {
            assert_eq!(a.output, b.output);
            assert_eq!(a.emax.to_bits(), b.emax.to_bits());
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }

    #[test]
    fn kind_classification_matches_table2() {
        assert_eq!(
            PlanKind::for_transducer(&identity()),
            PlanKind::DeterministicUniform { k: 1 }
        );
        let mut rng = StdRng::seed_from_u64(5);
        let general = random_transducer(
            &RandomTransducerSpec {
                n_states: 3,
                n_input_symbols: 2,
                n_output_symbols: 2,
                class: TransducerClass::General,
                branching: 1.7,
            },
            &mut rng,
        );
        if !general.is_deterministic() && general.uniform_emission().is_none() {
            assert_eq!(PlanKind::for_transducer(&general), PlanKind::General);
        }
    }

    #[test]
    fn bound_results_match_brute_force() {
        let t = identity();
        let m = chain();
        let plan = prepare(&t);
        let bound = plan.bind(&m).unwrap();
        let answers = crate::brute::evaluate(&t, &m).unwrap();
        let o = [sym(0), sym(1), sym(0)];
        let planned = bound.confidence(&o).unwrap();
        assert!((planned - answers[&o[..]]).abs() < 1e-12);
        // Repeated calls reuse the cached artifacts and stay identical.
        assert_eq!(bound.confidence(&o).unwrap().to_bits(), planned.to_bits());
        assert!(bound.is_answer(&o).unwrap());
        assert!(!bound.is_answer(&o[..2]).unwrap());
        let top = bound.top().unwrap().unwrap();
        let want = crate::brute::emax(&t, &m, &top.output).unwrap();
        assert!((top.prob() - want).abs() < 1e-12);
        let best = answers.values().cloned().fold(0.0, f64::max);
        assert!((top.prob() - best).abs() < 1e-12, "identity: E_max = conf");
    }

    #[test]
    fn explain_reports_route_and_cache_traffic() {
        let t = identity();
        let m = chain();
        let plan = prepare(&t);
        let e0 = plan.explain();
        assert_eq!(e0.kind, PlanKind::DeterministicUniform { k: 1 });
        assert!(e0.deterministic);
        assert_eq!(e0.uniform_k, Some(1));
        assert!(e0.state_graph_edges > 0);
        assert_eq!(e0.cache_hits + e0.cache_misses, 0);

        let bound = plan.bind(&m).unwrap();
        let o = [sym(0), sym(0), sym(0)];
        // is_answer uses the output-graph cache: first call misses…
        bound.is_answer(&o).unwrap();
        let e1 = plan.explain();
        assert_eq!(e1.cache_misses, 1);
        assert_eq!(e1.cached_output_graphs, 1);
        // …second call hits.
        bound.is_answer(&o).unwrap();
        let e2 = plan.explain();
        assert_eq!(e2.cache_hits, 1);
        // Display renders without panicking and names the route.
        let text = format!("{e2}");
        assert!(text.contains("deterministic-uniform"));
        assert!(text.contains("Thm 4.6"));
    }

    #[test]
    fn bound_query_works_end_to_end() {
        let (t, m) = (identity(), chain());
        let bound = prepare(&t).bind(&m).unwrap();
        let answers = crate::brute::evaluate(&t, &m).unwrap();
        assert_eq!(
            bound.plan().kind().confidence_cost(),
            ConfidenceCost::Polynomial
        );
        assert!(bound.answer_exists().unwrap());
        let scored = bound.top_k_scored(3).unwrap();
        assert_eq!(scored.len(), 3);
        for s in &scored {
            // Identity over a uniform chain: every answer has conf = 1/8,
            // and E_max = conf (single evidence each).
            assert!((s.confidence - answers[&s.output]).abs() < 1e-12);
            let emax = crate::brute::emax(&t, &m, &s.output).unwrap();
            assert!((s.emax - emax).abs() < 1e-12);
            assert!(bound.is_answer(&s.output).unwrap());
        }
        assert_eq!(bound.unranked().unwrap().count(), answers.len());
        assert_eq!(bound.ranked().unwrap().count(), answers.len());
        let top = bound.top().unwrap().unwrap();
        assert!((top.prob() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn cost_classification() {
        let alphabet = Alphabet::of_chars("a");
        // Nondeterministic 1-uniform.
        let mut b = Transducer::builder(alphabet.clone(), alphabet.clone());
        let q0 = b.add_state(true);
        let q1 = b.add_state(true);
        b.add_transition(q0, sym(0), q0, &[sym(0)]).unwrap();
        b.add_transition(q0, sym(0), q1, &[sym(0)]).unwrap();
        let t = b.build().unwrap();
        let m = MarkovSequenceBuilder::new(alphabet, 1)
            .initial(sym(0), 1.0)
            .build()
            .unwrap();
        let bound = prepare(&t).bind(&m).unwrap();
        assert_eq!(
            bound.plan().kind().confidence_cost(),
            ConfidenceCost::ExponentialInStates
        );
    }

    #[test]
    fn bind_rejects_alphabet_mismatch() {
        let t = identity();
        let m3 = MarkovSequenceBuilder::new(Alphabet::of_chars("abc"), 2)
            .uniform_all()
            .build()
            .unwrap();
        assert!(prepare(&t).bind(&m3).is_err());
    }

    #[test]
    fn output_graph_cache_evicts_at_capacity() {
        let t = identity();
        let plan = prepare(&t);
        for len in 0..(GRAPH_CACHE_CAP + 5) {
            let o = vec![sym(0); len];
            let _ = plan.output_graph(&o);
        }
        let e = plan.explain();
        assert_eq!(e.cached_output_graphs, GRAPH_CACHE_CAP);
        assert_eq!(e.cache_misses as usize, GRAPH_CACHE_CAP + 5);
    }

    #[test]
    fn prepared_event_query_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = random_markov_sequence(
            &RandomChainSpec {
                len: 6,
                n_symbols: 2,
                zero_prob: 0.2,
            },
            &mut rng,
        );
        let nfa = identity().underlying_nfa();
        let q = PreparedEventQuery::new(nfa.clone());
        let worlds = transmark_markov::support::support(&m);
        let a = q.acceptance(&m).unwrap();
        let want: f64 = worlds
            .iter()
            .filter(|(s, _)| nfa.accepts(s))
            .map(|(_, p)| p)
            .sum();
        assert!((a - want).abs() < 1e-12, "{a} vs brute {want}");
        let series = q.series(&m).unwrap();
        assert_eq!(series.len(), m.len());
        // The final-only and the series drains run one fold.
        assert_eq!(series[m.len() - 1].to_bits(), a.to_bits());
    }
}
