//! The process-lifetime [`PlanCache`] under concurrency: N threads
//! hammering one shared cache with a mixed hit/miss/eviction workload
//! (including forced fingerprint collisions) must keep *exact*
//! accounting — `stats()` and the process-global `store.plan_cache.*`
//! counters agree to the unit (in an `obs-off` build, which compiles the
//! counters out, they stay at 0) — and every thread's query results must
//! be bit-identical to a single-threaded reference.
//!
//! This lives in its own integration binary on purpose: the obs
//! counters are process-global, so sharing a process with unrelated
//! plan-cache traffic would break exact accounting.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::transducer::Transducer;
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;
use transmark_store::PlanCache;

fn machine(seed: u64) -> Transducer {
    let mut rng = StdRng::seed_from_u64(seed);
    random_transducer(
        &RandomTransducerSpec {
            n_states: 3,
            n_input_symbols: 2,
            n_output_symbols: 2,
            class: TransducerClass::Deterministic,
            branching: 1.5,
        },
        &mut rng,
    )
}

fn sequence(seed: u64, len: usize) -> MarkovSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    random_markov_sequence(
        &RandomChainSpec {
            len,
            n_symbols: 2,
            zero_prob: 0.2,
        },
        &mut rng,
    )
}

/// Distinct machines (pairwise different structure), each with at least
/// one answer over `m` so every thread has a confidence to check.
fn distinct_machines(n: usize, m: &MarkovSequence) -> Vec<Transducer> {
    let mut out: Vec<Transducer> = Vec::new();
    let mut seed = 0u64;
    while out.len() < n {
        let t = machine(seed);
        seed += 1;
        let has_answer = transmark_core::plan::prepare(&t)
            .bind(m)
            .and_then(|b| b.top())
            .ok()
            .flatten()
            .is_some();
        if has_answer && out.iter().all(|u| !u.same_structure(&t)) {
            out.push(t);
        }
    }
    out
}

/// Asserts that a registry counter moved by `stat`, the cache's own
/// count — or, in a build whose counters are compiled out (`obs-off`),
/// that it did not move.
fn assert_registry_delta(before: u64, after: u64, stat: u64, what: &str) {
    let want = if transmark_obs::enabled() { stat } else { 0 };
    assert_eq!(after - before, want, "registry {what} delta");
}

/// The `store.plan_cache.*` counters as (hits, misses, evictions),
/// straight from the process-global registry.
fn global_counters() -> (u64, u64, u64) {
    let snap = transmark_obs::registry().snapshot();
    (
        snap.counter("store.plan_cache.hits"),
        snap.counter("store.plan_cache.misses"),
        snap.counter("store.plan_cache.evictions"),
    )
}

#[test]
fn concurrent_mixed_workload_keeps_exact_accounting() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 50;
    const CAP: usize = 4;

    let m = sequence(99, 4);
    let machines = distinct_machines(6, &m);
    // Single-threaded reference: each machine's top output and its
    // confidence, bit-for-bit.
    let reference: Vec<(Vec<transmark_automata::SymbolId>, u64)> = machines
        .iter()
        .map(|t| {
            let plan = transmark_core::plan::prepare(t);
            let bound = plan.bind(&m).expect("bind");
            let top = bound.top().expect("top query").expect("an answer exists");
            let bits = bound.confidence(&top.output).expect("confidence").to_bits();
            (top.output, bits)
        })
        .collect();

    let (hits0, misses0, evictions0) = global_counters();
    let cache = Arc::new(PlanCache::new(CAP));

    // ---- Phase 1: the working set fits (machines[0..CAP]) -----------------
    // The cache lock covers compile + insert, so each machine misses
    // exactly once no matter the interleaving; everything else hits.
    std::thread::scope(|scope| {
        for ti in 0..THREADS {
            let cache = Arc::clone(&cache);
            let machines = &machines;
            let m = &m;
            let reference = &reference;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let i = (ti + r) % CAP;
                    let plan = cache.get_or_prepare(&machines[i]);
                    assert!(plan.transducer().same_structure(&machines[i]));
                    let bound = plan.bind(m).expect("bind");
                    let (o, expect) = &reference[i];
                    let bits = bound.confidence(o).expect("confidence").to_bits();
                    assert_eq!(bits, *expect, "thread {ti} round {r} machine {i}");
                }
            });
        }
    });

    let stats = cache.stats();
    let total = (THREADS * ROUNDS) as u64;
    assert_eq!(stats.misses, CAP as u64, "one miss per machine, exactly");
    assert_eq!(stats.hits, total - CAP as u64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.len, CAP);
    let (hits1, misses1, evictions1) = global_counters();
    assert_registry_delta(hits0, hits1, stats.hits, "hits");
    assert_registry_delta(misses0, misses1, stats.misses, "misses");
    assert_registry_delta(evictions0, evictions1, stats.evictions, "evictions");

    // ---- Phase 2: working set exceeds capacity (all 6 machines) -----------
    // Miss counts depend on interleaving, but the invariants are exact:
    // every lookup is a hit or a miss, and at capacity every miss evicts
    // exactly one plan.
    std::thread::scope(|scope| {
        for ti in 0..THREADS {
            let cache = Arc::clone(&cache);
            let machines = &machines;
            let m = &m;
            let reference = &reference;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let i = (ti + r) % machines.len();
                    let plan = cache.get_or_prepare(&machines[i]);
                    let bound = plan.bind(m).expect("bind");
                    let (o, expect) = &reference[i];
                    let bits = bound.confidence(o).expect("confidence").to_bits();
                    assert_eq!(bits, *expect, "thread {ti} round {r} machine {i}");
                }
            });
        }
    });

    let stats2 = cache.stats();
    let new_hits = stats2.hits - stats.hits;
    let new_misses = stats2.misses - stats.misses;
    let new_evictions = stats2.evictions - stats.evictions;
    assert_eq!(
        new_hits + new_misses,
        total,
        "every lookup is a hit or a miss"
    );
    assert!(new_misses >= 2, "two machines were cold at phase start");
    assert_eq!(
        new_evictions, new_misses,
        "at capacity, every miss evicts exactly one plan"
    );
    assert_eq!(stats2.len, CAP, "the cache never outgrows its capacity");
    let (hits2, misses2, evictions2) = global_counters();
    assert_registry_delta(hits0, hits2, stats2.hits, "hits");
    assert_registry_delta(misses0, misses2, stats2.misses, "misses");
    assert_registry_delta(evictions0, evictions2, stats2.evictions, "evictions");

    // ---- Phase 3: forced fingerprint collisions ---------------------------
    // Two structurally different machines on one key, from every thread
    // at once: they coexist under the key (no eviction ping-pong), each
    // misses exactly once, and each thread always gets the plan whose
    // machine it asked for.
    let cache3 = Arc::new(PlanCache::new(CAP));
    let colliders = &machines[..2];
    const KEY: u64 = 0xDEAD_BEEF_DEAD_BEEF;
    let (hits0, misses0, evictions0) = global_counters();
    std::thread::scope(|scope| {
        for ti in 0..THREADS {
            let cache = Arc::clone(&cache3);
            let reference = &reference;
            let m = &m;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let i = (ti + r) % colliders.len();
                    let plan = cache.get_or_prepare_keyed(KEY, &colliders[i]);
                    assert!(
                        plan.transducer().same_structure(&colliders[i]),
                        "a collision must never return the other machine's plan"
                    );
                    let bound = plan.bind(m).expect("bind");
                    let (o, expect) = &reference[i];
                    let bits = bound.confidence(o).expect("confidence").to_bits();
                    assert_eq!(bits, *expect);
                }
            });
        }
    });
    let stats3 = cache3.stats();
    assert_eq!(stats3.misses, 2, "each collider compiles exactly once");
    assert_eq!(stats3.hits, total - 2);
    assert_eq!(stats3.evictions, 0);
    assert_eq!(stats3.len, 2, "both colliders coexist under one key");
    let (hits3, misses3, evictions3) = global_counters();
    assert_registry_delta(hits0, hits3, stats3.hits, "hits");
    assert_registry_delta(misses0, misses3, stats3.misses, "misses");
    assert_registry_delta(evictions0, evictions3, stats3.evictions, "evictions");
}
