//! Criterion benches for Table 2 row 3 (experiment id TAB2-r3): the cost
//! of computing the heuristic top answers on the hardness-gadget
//! families, plus the Figure-1/2 running example as a fixed anchor.
//!
//! These complement `--bin approx_ratios` (which reports the *ratios*):
//! here we confirm the heuristics themselves stay polynomial on the very
//! instances where beating them is NP-hard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transmark_core::prepare;
use transmark_sproj::indexed::enumerate_indexed;
use transmark_workloads::gadgets::{emax_gap, imax_gap};
use transmark_workloads::hospital::{hospital_sequence, places, room_tracker};

fn bench_emax_on_gadget(c: &mut Criterion) {
    let mut g = c.benchmark_group("approx/emax_top_on_mealy_gadget");
    for n in [8usize, 32, 128] {
        let (t, m) = emax_gap(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                prepare(black_box(&t))
                    .bind(black_box(&m))
                    .and_then(|b| b.top())
            })
        });
    }
    g.finish();
}

fn bench_imax_on_gadget(c: &mut Criterion) {
    let mut g = c.benchmark_group("approx/imax_top_on_sproj_gadget");
    for n in [8usize, 32, 128] {
        let (p, m) = imax_gap(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                enumerate_indexed(black_box(&p), black_box(&m))
                    .expect("enumerate")
                    .next()
            })
        });
    }
    g.finish();
}

fn bench_running_example(c: &mut Criterion) {
    let m = hospital_sequence();
    let t = room_tracker();
    let twelve = places(&["1", "2"]);
    c.bench_function("approx/hospital_conf_12", |b| {
        b.iter(|| {
            prepare(black_box(&t))
                .bind(black_box(&m))
                .and_then(|b| b.confidence(black_box(&twelve)))
        })
    });
    c.bench_function("approx/hospital_top_emax", |b| {
        b.iter(|| {
            prepare(black_box(&t))
                .bind(black_box(&m))
                .and_then(|b| b.top())
        })
    });
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
    targets = bench_emax_on_gadget, bench_imax_on_gadget, bench_running_example
}
criterion_main!(benches);
