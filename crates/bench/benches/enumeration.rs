//! Criterion benches for Table 2 row 2: per-answer delay of every ranked
//! evaluation mode (experiment id TAB2-r2 in DESIGN.md).
//!
//! Each bench takes the first `K` answers of the corresponding
//! enumeration, so the reported time divided by `K` is the average delay
//! the theorems bound:
//! * Thm 4.1 — unranked, polynomial delay and space;
//! * Thm 4.3 — decreasing `E_max`;
//! * Thm 5.2/Lemma 5.10 — decreasing `I_max`;
//! * Thm 5.7 — decreasing exact confidence (indexed).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transmark_bench::{instance_with_answer, sproj_instance};
use transmark_core::generate::TransducerClass;
use transmark_core::prepare;
use transmark_sproj::{enumerate_by_imax, enumerate_indexed};

const K: usize = 10;

fn bench_unranked(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate/unranked_thm41");
    g.sample_size(10);
    for n in [8usize, 16, 24] {
        let (t, m, _) = instance_with_answer(TransducerClass::Deterministic, n, 3, 3, 5);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                prepare(black_box(&t))
                    .bind(black_box(&m))
                    .unwrap()
                    .unranked()
                    .expect("enumerate")
                    .take(K)
                    .count()
            })
        });
    }
    g.finish();
}

fn bench_emax_ranked(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate/emax_thm43");
    g.sample_size(10);
    for n in [8usize, 16, 24] {
        let (t, m, _) = instance_with_answer(TransducerClass::Deterministic, n, 3, 3, 5);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                prepare(black_box(&t))
                    .bind(black_box(&m))
                    .unwrap()
                    .ranked()
                    .expect("enumerate")
                    .take(K)
                    .count()
            })
        });
    }
    g.finish();
}

fn bench_imax_ranked(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate/imax_thm52");
    for n in [16usize, 48, 96] {
        let (p, m, _) = sproj_instance(n, 3, 3, 3, 29);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                enumerate_by_imax(black_box(&p), black_box(&m))
                    .expect("enumerate")
                    .take(K)
                    .count()
            })
        });
    }
    g.finish();
}

fn bench_indexed_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("enumerate/indexed_thm57");
    for n in [16usize, 48, 96] {
        let (p, m, _) = sproj_instance(n, 3, 3, 3, 29);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                enumerate_indexed(black_box(&p), black_box(&m))
                    .expect("enumerate")
                    .take(K)
                    .count()
            })
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
    targets = bench_unranked, bench_emax_ranked, bench_imax_ranked, bench_indexed_exact
}
criterion_main!(benches);
