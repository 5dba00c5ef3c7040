//! Ablation benches for the design choices called out in DESIGN.md.
//!
//! * `ablation/uniform_fast_path` — Theorem 4.6's k-uniform fast path vs.
//!   the general output-position DP on behaviourally identical machines
//!   (the general machine carries one unreachable non-uniform emission so
//!   the dispatcher cannot take the fast path).
//! * `ablation/sproj_confidence_route` — Theorem 5.5's concatenation-
//!   language route vs. running the general exact algorithm on the
//!   compiled transducer (both exact; the paper's route is the one that
//!   confines the blow-up to `|Q_E|`).
//! * `ablation/top_answer_route` — first answer of an s-projector query
//!   three ways: exact indexed DAG (Thm 5.7), Lawler `I_max`
//!   (Lemma 5.10), and `E_max` on the compiled transducer (Thm 4.3's
//!   generic machinery).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use transmark_bench::{instance_with_answer, sproj_instance};
use transmark_core::confidence::{confidence_deterministic, confidence_general};
use transmark_core::generate::TransducerClass;
use transmark_core::prepare;
use transmark_core::transducer::Transducer;
use transmark_sproj::compile::to_transducer;
use transmark_sproj::{enumerate_by_imax_lawler, enumerate_indexed, sproj_confidence};

/// Clones a transducer, appending one unreachable state with an emission
/// of a different length, so `uniform_emission()` returns `None` and the
/// general DP is exercised on identical reachable behaviour.
fn defeat_uniformity(t: &Transducer) -> Transducer {
    let mut b = Transducer::builder(t.input_alphabet_arc(), t.output_alphabet_arc());
    for q in 0..t.n_states() {
        b.add_state(t.is_accepting(transmark_automata::StateId(q as u32)));
    }
    let ghost = b.add_state(false);
    b.set_initial(t.initial());
    for (from, sym, e) in t.transitions() {
        let em = t.emission(e.emission).to_vec();
        b.add_transition(from, sym, e.target, &em)
            .expect("copy is valid");
    }
    // Unreachable ghost edges (no incoming transitions): one long emission
    // defeats uniformity; the rest keep the machine a complete DFA, since
    // `confidence_deterministic` (rightly) rejects partial machines.
    let long = vec![transmark_automata::SymbolId(0); t.max_emission_len() + 1];
    b.add_transition(ghost, transmark_automata::SymbolId(0), ghost, &long)
        .expect("ghost edge is valid");
    for s in 1..t.n_input_symbols() {
        b.add_transition(ghost, transmark_automata::SymbolId(s as u32), ghost, &[])
            .expect("ghost edge is valid");
    }
    let out = b.build().expect("ghost copy builds");
    assert_eq!(out.uniform_emission(), None);
    assert!(
        out.is_deterministic(),
        "ablation needs the deterministic path"
    );
    out
}

fn bench_uniform_fast_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/uniform_fast_path");
    for n in [64usize, 256] {
        let (t, m, o) = instance_with_answer(TransducerClass::Mealy, n, 6, 3, 3);
        let slow = defeat_uniformity(&t);
        g.bench_with_input(BenchmarkId::new("fast_k_uniform", n), &n, |b, _| {
            b.iter(|| confidence_deterministic(black_box(&t), black_box(&m), black_box(&o)))
        });
        g.bench_with_input(BenchmarkId::new("general_position_dp", n), &n, |b, _| {
            b.iter(|| confidence_deterministic(black_box(&slow), black_box(&m), black_box(&o)))
        });
    }
    g.finish();
}

fn bench_sproj_confidence_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/sproj_confidence_route");
    g.sample_size(20);
    for n in [16usize, 32] {
        let (p, m, o) = sproj_instance(n, 3, 3, 3, 41);
        let compiled = to_transducer(&p).expect("compiles");
        g.bench_with_input(BenchmarkId::new("thm55_concat_language", n), &n, |b, _| {
            b.iter(|| sproj_confidence(black_box(&p), black_box(&m), black_box(&o)))
        });
        g.bench_with_input(BenchmarkId::new("general_on_compiled", n), &n, |b, _| {
            b.iter(|| confidence_general(black_box(&compiled), black_box(&m), black_box(&o)))
        });
    }
    g.finish();
}

fn bench_top_answer_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/top_answer_route");
    g.sample_size(20);
    for n in [16usize, 32] {
        let (p, m, _) = sproj_instance(n, 3, 3, 3, 53);
        let compiled = to_transducer(&p).expect("compiles");
        g.bench_with_input(BenchmarkId::new("indexed_dag_thm57", n), &n, |b, _| {
            b.iter(|| {
                enumerate_indexed(black_box(&p), black_box(&m))
                    .unwrap()
                    .next()
            })
        });
        g.bench_with_input(BenchmarkId::new("lawler_imax_lemma510", n), &n, |b, _| {
            b.iter(|| {
                enumerate_by_imax_lawler(black_box(&p), black_box(&m))
                    .unwrap()
                    .next()
            })
        });
        g.bench_with_input(BenchmarkId::new("emax_on_compiled_thm43", n), &n, |b, _| {
            b.iter(|| {
                prepare(black_box(&compiled))
                    .bind(black_box(&m))
                    .and_then(|b| b.top())
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
    targets = bench_uniform_fast_path, bench_sproj_confidence_route, bench_top_answer_route
}
criterion_main!(benches);
