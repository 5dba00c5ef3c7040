//! Baseline comparison motivating ranked evaluation (§1, §3.2).
//!
//! The paper argues the naive two-step plan — "enumerate all possible
//! answers, then compute the confidence of each" — is impractical because
//! the answer set can be enormous and mostly uninteresting; ranked
//! enumeration produces the valuable answers first. This bench pits the
//! two plans against each other on the same instances:
//!
//! * `baseline/two_step_full` — Theorem 4.1 enumeration of *all* answers,
//!   each scored with the Theorem 4.6 confidence DP (the naive plan);
//! * `baseline/ranked_top5` — Theorem 4.3 enumeration stopped after 5
//!   answers, each scored the same way (the paper's plan).
//!
//! As `n` grows the answer count explodes and the gap widens — the
//! measured form of "the cost of producing even one valuable answer may
//! be prohibitively high".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transmark_bench::instance_with_answer;
use transmark_core::generate::TransducerClass;
use transmark_core::prepare;

fn bench_plans(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline");
    g.sample_size(10);
    for n in [6usize, 10, 14] {
        let (t, m, _) = instance_with_answer(TransducerClass::Deterministic, n, 3, 3, 77);
        g.bench_with_input(BenchmarkId::new("two_step_full", n), &n, |b, _| {
            b.iter(|| {
                let mut total = 0.0;
                for o in prepare(black_box(&t))
                    .bind(black_box(&m))
                    .unwrap()
                    .unranked()
                    .expect("enumerate")
                {
                    total += prepare(&t)
                        .bind(&m)
                        .unwrap()
                        .confidence(&o)
                        .expect("confidence");
                }
                total
            })
        });
        g.bench_with_input(BenchmarkId::new("ranked_top5", n), &n, |b, _| {
            b.iter(|| {
                let mut total = 0.0;
                for r in prepare(black_box(&t))
                    .bind(black_box(&m))
                    .unwrap()
                    .ranked()
                    .expect("enumerate")
                    .take(5)
                {
                    total += prepare(&t)
                        .bind(&m)
                        .unwrap()
                        .confidence(&r.output)
                        .expect("confidence");
                }
                total
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
    targets = bench_plans
}
criterion_main!(benches);
