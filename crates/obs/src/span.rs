//! Lightweight phase spans: named, nested wall-clock scopes aggregated
//! process-wide.
//!
//! `span!("bind")` opens a scope that closes when the enclosing block
//! does. Each thread keeps a stack of active span names; a span's
//! aggregation key is the "/"-joined path of that stack (`"prepare"`,
//! `"bind/csr"`, …), so nesting is visible in the snapshot without any
//! per-event storage. On close, the elapsed time folds into global
//! per-path aggregates — spans are for coarse phases (prepare / bind /
//! execute), not per-layer work, so that lock is touched a handful of
//! times per query.
//!
//! Paths are **interned**: the first time a `(parent, name)` pair is
//! seen the joined `String` is built once and assigned a small id;
//! every later [`enter`] on the same path resolves the id from a
//! thread-local cache without allocating or taking the global lock.
//! (`examples/obs_overhead.rs` asserts the interner stops growing once
//! the hot paths are warm.)
//!
//! Spans also feed the query-scoped profiler: when a
//! [`Recorder`](crate::profile::Recorder) scope is installed on the
//! thread, `enter`/drop emit timeline begin/end events, so phase
//! breakdowns appear in Chrome traces and flamegraphs for free.
//!
//! There is no external `tracing` dependency: the container is offline,
//! and this is the whole feature we need from one.

use crate::snapshot::SpanSnapshot;
use std::collections::BTreeMap;

#[cfg(not(feature = "obs-off"))]
use std::cell::RefCell;
#[cfg(not(feature = "obs-off"))]
use std::collections::HashMap;
#[cfg(not(feature = "obs-off"))]
use std::sync::Mutex;

/// Index into the global interner's `paths`/`stats` tables.
#[cfg(not(feature = "obs-off"))]
type PathId = u32;

/// Sentinel parent id for root (depth-1) spans.
#[cfg(not(feature = "obs-off"))]
const ROOT: PathId = PathId::MAX;

#[cfg(not(feature = "obs-off"))]
#[derive(Default)]
struct Interner {
    /// `(parent id, name ptr, name len) → id`. Keying by pointer keeps
    /// lookups allocation-free; distinct `&'static str`s with equal text
    /// get distinct ids, and [`collect`] merges them by path string.
    table: HashMap<(PathId, usize, usize), PathId>,
    /// `id → "/"-joined path`, built once at interning time.
    paths: Vec<String>,
    /// `id → aggregate`, updated on every span close.
    stats: Vec<SpanSnapshot>,
}

#[cfg(not(feature = "obs-off"))]
static GLOBAL: Mutex<Option<Interner>> = Mutex::new(None);

#[cfg(not(feature = "obs-off"))]
thread_local! {
    /// This thread's active span stack: `(name, interned path id)`.
    static STACK: RefCell<Vec<(&'static str, PathId)>> = const { RefCell::new(Vec::new()) };
    /// Thread-local mirror of the interner's key table, so the steady
    /// state never takes the global lock on enter.
    static LOCAL_IDS: RefCell<HashMap<(PathId, usize, usize), PathId>> =
        RefCell::new(HashMap::new());
}

#[cfg(not(feature = "obs-off"))]
fn intern(parent: PathId, name: &'static str) -> PathId {
    let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let interner = guard.get_or_insert_with(Interner::default);
    let key = (parent, name.as_ptr() as usize, name.len());
    if let Some(&id) = interner.table.get(&key) {
        return id;
    }
    let path = if parent == ROOT {
        name.to_string()
    } else {
        format!("{}/{}", interner.paths[parent as usize], name)
    };
    let id = interner.paths.len() as PathId;
    interner.paths.push(path);
    interner.stats.push(SpanSnapshot::default());
    interner.table.insert(key, id);
    id
}

/// Opens a span; the returned guard closes it on drop. Prefer the
/// [`span!`](crate::span!) macro, which ties the guard to the enclosing
/// scope without naming it.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    #[cfg(not(feature = "obs-off"))]
    {
        let id = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map(|&(_, id)| id).unwrap_or(ROOT);
            let key = (parent, name.as_ptr() as usize, name.len());
            let id = LOCAL_IDS.with(|cache| {
                if let Some(&id) = cache.borrow().get(&key) {
                    return id;
                }
                let id = intern(parent, name);
                cache.borrow_mut().insert(key, id);
                id
            });
            s.push((name, id));
            id
        });
        crate::profile::span_begin(name);
        SpanGuard {
            id,
            start: std::time::Instant::now(),
        }
    }
    #[cfg(feature = "obs-off")]
    {
        let _ = name;
        SpanGuard { _priv: () }
    }
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops; an unbound guard closes immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(not(feature = "obs-off"))]
    id: PathId,
    #[cfg(not(feature = "obs-off"))]
    start: std::time::Instant,
    #[cfg(feature = "obs-off")]
    _priv: (),
}

#[cfg(not(feature = "obs-off"))]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = {
            let e = self.start.elapsed().as_nanos();
            if e > u64::MAX as u128 {
                u64::MAX
            } else {
                e as u64
            }
        };
        crate::profile::span_end();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let mut guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(interner) = guard.as_mut() {
            if let Some(stat) = interner.stats.get_mut(self.id as usize) {
                stat.count += 1;
                stat.total_ns = stat.total_ns.saturating_add(ns);
                stat.max_ns = stat.max_ns.max(ns);
            }
        }
    }
}

/// A copy of the global span aggregates, keyed by "/"-joined path.
/// Distinct interned ids that render the same path (same text at two
/// call sites) are merged here.
pub fn collect() -> BTreeMap<String, SpanSnapshot> {
    #[cfg(not(feature = "obs-off"))]
    {
        let guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: BTreeMap<String, SpanSnapshot> = BTreeMap::new();
        if let Some(interner) = guard.as_ref() {
            for (path, stat) in interner.paths.iter().zip(&interner.stats) {
                if stat.count == 0 {
                    continue;
                }
                let merged = out.entry(path.clone()).or_default();
                merged.count += stat.count;
                merged.total_ns = merged.total_ns.saturating_add(stat.total_ns);
                merged.max_ns = merged.max_ns.max(stat.max_ns);
            }
        }
        out
    }
    #[cfg(feature = "obs-off")]
    BTreeMap::new()
}

/// The depth of the current thread's span stack (for tests).
pub fn current_depth() -> usize {
    #[cfg(not(feature = "obs-off"))]
    {
        STACK.with(|s| s.borrow().len())
    }
    #[cfg(feature = "obs-off")]
    0
}

/// How many distinct span paths have been interned so far. The overhead
/// guard asserts this stops growing once a workload's paths are warm —
/// i.e. repeated enters allocate nothing.
pub fn interned_paths() -> usize {
    #[cfg(not(feature = "obs-off"))]
    {
        GLOBAL
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |i| i.paths.len())
    }
    #[cfg(feature = "obs-off")]
    0
}

#[cfg(all(test, not(feature = "obs-off")))]
mod tests {
    use super::*;

    #[test]
    fn paths_nest_per_thread() {
        {
            let _outer = enter("outer_span_test");
            assert_eq!(current_depth(), 1);
            {
                let _inner = enter("inner");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        let agg = collect();
        assert!(agg["outer_span_test"].count >= 1);
        assert!(agg["outer_span_test/inner"].count >= 1);
    }

    /// The paths this thread has interned. Other tests intern into the
    /// process-global table in parallel, so only this count is stable
    /// within one test.
    fn this_threads_paths() -> usize {
        LOCAL_IDS.with(|ids| ids.borrow().len())
    }

    #[test]
    fn repeat_enters_do_not_grow_the_interner() {
        // Warm the path once, then re-enter many times: the interner
        // must not grow (no per-enter allocation).
        {
            let _g = enter("intern_warm_test");
        }
        let warm = this_threads_paths();
        assert!(warm >= 1);
        for _ in 0..100 {
            let _g = enter("intern_warm_test");
        }
        assert_eq!(this_threads_paths(), warm);
    }

    #[test]
    fn same_text_different_sites_merge_in_collect() {
        // Two distinct statics with equal text intern separately (keyed
        // by pointer) but must merge under one path in collect().
        static A: &str = "intern_merge_test";
        let b: &'static str = Box::leak("intern_merge_test".to_string().into_boxed_str());
        assert_ne!(A.as_ptr(), b.as_ptr());
        {
            let _g = enter(A);
        }
        {
            let _g = enter(b);
        }
        let agg = collect();
        assert!(agg["intern_merge_test"].count >= 2);
    }
}
