//! Criterion benches for Table 2 row 1: confidence computation across
//! the paper's transducer classes (experiment id TAB2-r1 in DESIGN.md).
//!
//! One group per column:
//! * `confidence/deterministic` — Thm 4.6, sweeping n (polynomial; the
//!   k-uniform fast path is benched separately via a Mealy machine);
//! * `confidence/uniform_nfa` — Thm 4.8, sweeping |Q| (the `4^{|Q|}`
//!   subset DP);
//! * `confidence/general` — the exact exponential algorithm, sweeping |Q|;
//! * `confidence/sproj` — Thm 5.5, sweeping |Q_E|;
//! * `confidence/indexed` — Thm 5.8 table build + query, sweeping n;
//! * `confidence/acceptance` — `Pr(S ∈ L(A))`, sweeping n.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transmark_bench::{chain, instance_with_answer, sproj_instance};
use transmark_core::confidence::{
    confidence_deterministic, confidence_general, confidence_uniform_nfa,
};
use transmark_core::generate::TransducerClass;
use transmark_core::plan::prepare;
use transmark_core::PreparedEventQuery;
use transmark_sproj::indexed::IndexedEvaluator;
use transmark_sproj::sproj_confidence;

fn bench_deterministic(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/deterministic");
    for n in [32usize, 128, 512] {
        let (t, m, o) = instance_with_answer(TransducerClass::Deterministic, n, 8, 3, 1);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| confidence_deterministic(black_box(&t), black_box(&m), black_box(&o)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("confidence/mealy_uniform_fast_path");
    for n in [32usize, 128, 512] {
        let (t, m, o) = instance_with_answer(TransducerClass::Mealy, n, 8, 3, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| confidence_deterministic(black_box(&t), black_box(&m), black_box(&o)))
        });
    }
    g.finish();
}

/// The prepared-query counterparts of `confidence/deterministic` and
/// `confidence/mealy_uniform_fast_path`: the same call, but executed
/// over a pre-bound plan, so the per-call CSR + step-graph build is
/// amortized away (compare the `/512` points against the unprepared
/// groups above).
fn bench_prepared(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/deterministic_prepared");
    for n in [32usize, 128, 512] {
        let (t, m, o) = instance_with_answer(TransducerClass::Deterministic, n, 8, 3, 1);
        let plan = prepare(&t);
        let bound = plan.bind(&m).expect("bind");
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| bound.confidence(black_box(&o)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("confidence/mealy_uniform_fast_path_prepared");
    for n in [32usize, 128, 512] {
        let (t, m, o) = instance_with_answer(TransducerClass::Mealy, n, 8, 3, 2);
        let plan = prepare(&t);
        let bound = plan.bind(&m).expect("bind");
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| bound.confidence(black_box(&o)))
        });
    }
    g.finish();

    // One query over a fleet of 128 sequences: the per-call path
    // recompiles the machine-side artifacts (accepting sets, emission
    // interning, the (state × output-position) step graph) for every
    // sequence; the prepared path compiles once and only binds.
    let mut g = c.benchmark_group("confidence/fleet_128_sequences");
    g.sample_size(20);
    let (t, _, o) = instance_with_answer(TransducerClass::Deterministic, 32, 8, 3, 1);
    let chains: Vec<_> = (0..128).map(|i| chain(32, 3, 100 + i)).collect();
    g.bench_function("per_call", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for m in &chains {
                acc += prepare(black_box(&t))
                    .bind(black_box(m))
                    .unwrap()
                    .confidence(black_box(&o))
                    .expect("confidence");
            }
            acc
        })
    });
    g.bench_function("prepared", |b| {
        b.iter(|| {
            let plan = prepare(black_box(&t));
            let mut acc = 0.0;
            for m in &chains {
                acc += plan
                    .bind(black_box(m))
                    .expect("bind")
                    .confidence(black_box(&o))
                    .expect("confidence");
            }
            acc
        })
    });
    g.finish();
}

fn bench_uniform_nfa(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/uniform_nfa");
    for nq in [2usize, 4, 6, 8] {
        let (t, m, o) = instance_with_answer(TransducerClass::Uniform(1), 32, nq, 3, 7);
        g.bench_with_input(BenchmarkId::from_parameter(nq), &nq, |b, _| {
            b.iter(|| confidence_uniform_nfa(black_box(&t), black_box(&m), black_box(&o)))
        });
    }
    g.finish();
}

fn bench_general(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/general");
    g.sample_size(20);
    for nq in [2usize, 3, 4, 5] {
        let (t, m, o) = instance_with_answer(TransducerClass::General, 12, nq, 3, 42);
        g.bench_with_input(BenchmarkId::from_parameter(nq), &nq, |b, _| {
            b.iter(|| confidence_general(black_box(&t), black_box(&m), black_box(&o)))
        });
    }
    g.finish();
}

fn bench_sproj(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/sproj");
    for qe in [2usize, 4, 6, 8] {
        let (p, m, o) = sproj_instance(48, 3, 3, qe, 19);
        g.bench_with_input(BenchmarkId::from_parameter(qe), &qe, |b, _| {
            b.iter(|| sproj_confidence(black_box(&p), black_box(&m), black_box(&o)))
        });
    }
    g.finish();
}

fn bench_indexed(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/indexed_tables");
    for n in [64usize, 256, 1024] {
        let (p, m, _) = sproj_instance(n, 3, 4, 4, 23);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| IndexedEvaluator::new(black_box(&p), black_box(&m)))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("confidence/indexed_query");
    for n in [64usize, 256, 1024] {
        let (p, m, o) = sproj_instance(n, 3, 4, 4, 23);
        let ev = IndexedEvaluator::new(&p, &m).expect("evaluator");
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ev.confidence(black_box(&o), black_box(n / 2)))
        });
    }
    g.finish();
}

fn bench_acceptance(c: &mut Criterion) {
    let mut g = c.benchmark_group("confidence/acceptance_probability");
    for n in [32usize, 128, 512] {
        let (t, m, _) = instance_with_answer(TransducerClass::General, n, 4, 3, 13);
        let q = PreparedEventQuery::new(t.underlying_nfa());
        let _ = chain(2, 2, 0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(&q).acceptance(black_box(&m)))
        });
    }
    g.finish();
}

/// Short sampling windows: these benches confirm complexity *shapes*
/// (what grows in which parameter), for which Criterion's default 5-second
/// windows are overkill; `cargo bench --workspace` stays minutes, not hours.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_deterministic, bench_prepared, bench_uniform_nfa, bench_general, bench_sproj, bench_indexed, bench_acceptance
}
criterion_main!(benches);
