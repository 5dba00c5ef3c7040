//! Cross-semiring consistency of the kernel drivers.
//!
//! The three `transmark-kernel` semirings are meant to be views of the
//! same layered product DP: `Bool` computes reachability, `Prob` the
//! sum-product mass, and `MaxLog` the Viterbi best path. Over identical
//! sparse step graphs they must therefore agree on support — a cell is
//! `Bool`-reachable iff its `Prob` mass is positive iff its `MaxLog`
//! score is finite — and the best single path can never exceed the total:
//! `exp(MaxLog best) ≤ Prob total`. These invariants are checked per
//! layer and at the final accepting reduction, on the paper's hospital
//! workload, the synthetic RFID deployment, and proptest-seeded random
//! instances.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use transmark::engine::prepare;
use transmark_core::generate::{random_transducer, RandomTransducerSpec, TransducerClass};
use transmark_core::kernelize::{output_step_graph, state_step_graph};
use transmark_core::transducer::Transducer;
use transmark_core::SymbolId;
use transmark_kernel::{advance, Bool, MaxLog, Neumaier, Prob, SparseSteps, StepGraph};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::MarkovSequence;
use transmark_workloads::rfid::{deployment, RfidSpec};
use transmark_workloads::{hospital_sequence, room_tracker};

/// Runs the same DP under all three semirings and checks the support and
/// best-vs-total invariants at every layer. Returns the accepting-cell
/// reductions `(prob_total, maxlog_best, bool_any)` for `rows_accepting`.
fn run_and_check(
    steps: &SparseSteps,
    graph: &StepGraph,
    init_row: u32,
    rows_accepting: &dyn Fn(usize) -> bool,
) -> (f64, f64, bool) {
    let nr = graph.n_rows();
    let n_cells = steps.n_nodes() * nr;
    let mut prob = vec![0.0f64; n_cells];
    let mut logp = vec![f64::NEG_INFINITY; n_cells];
    let mut reach = vec![false; n_cells];

    for &(node, p) in steps.initial() {
        for e in graph.edges(node, init_row) {
            let cell = node as usize * nr + e.to as usize;
            prob[cell] += p;
            logp[cell] = logp[cell].max(p.ln());
            reach[cell] = true;
        }
    }

    let n_steps = steps.n_steps();
    for step in 0..n_steps {
        check_support(&prob, &logp, &reach, step);
        let mut prob2 = vec![0.0f64; n_cells];
        let mut logp2 = vec![f64::NEG_INFINITY; n_cells];
        let mut reach2 = vec![false; n_cells];
        advance::<Prob, _>(&steps.at(step), graph, &prob, &mut prob2);
        advance::<MaxLog, _>(&steps.at(step), graph, &logp, &mut logp2);
        advance::<Bool, _>(&steps.at(step), graph, &reach, &mut reach2);
        prob = prob2;
        logp = logp2;
        reach = reach2;
    }
    check_support(&prob, &logp, &reach, n_steps);

    let mut total = Neumaier::new();
    let mut best = f64::NEG_INFINITY;
    let mut any = false;
    for node in 0..steps.n_nodes() {
        for row in 0..nr {
            if !rows_accepting(row) {
                continue;
            }
            let cell = node * nr + row;
            total.add(prob[cell]);
            best = best.max(logp[cell]);
            any |= reach[cell];
        }
    }
    (total.total(), best, any)
}

/// Per-cell: `Bool` reachable ⟺ `Prob` mass > 0 ⟺ `MaxLog` finite, and
/// the best path through a cell is bounded by its total mass.
fn check_support(prob: &[f64], logp: &[f64], reach: &[bool], layer: usize) {
    for (cell, &r) in reach.iter().enumerate() {
        let p = prob[cell];
        let l = logp[cell];
        assert_eq!(r, p > 0.0, "layer {layer} cell {cell}: Bool vs Prob ({p})");
        assert_eq!(
            r,
            l > f64::NEG_INFINITY,
            "layer {layer} cell {cell}: Bool vs MaxLog ({l})"
        );
        if r {
            assert!(
                l <= p.ln() + 1e-9,
                "layer {layer} cell {cell}: best {l} > ln(total {p})"
            );
        }
    }
}

/// Checks the invariants for one `(transducer, sequence, output)` query
/// over the fixed-output product graph, and the final reductions against
/// the engine's own `confidence` answer.
fn check_output_query(t: &Transducer, m: &MarkovSequence, o: &[SymbolId]) {
    let steps = m.sparse_steps();
    let graph = output_step_graph(t, o);
    let width = o.len() + 1;
    let accepting: Vec<bool> = (0..graph.n_rows())
        .map(|row| {
            row % width == o.len() && t.is_accepting(transmark_core::StateId((row / width) as u32))
        })
        .collect();
    let init_row = (t.initial().index() * width) as u32;
    let (total, best, any) = run_and_check(&steps, &graph, init_row, &|row| accepting[row]);

    assert_eq!(
        any,
        total > 0.0,
        "Bool reachable ⟺ Prob mass > 0 at the reduction"
    );
    assert_eq!(
        any,
        best > f64::NEG_INFINITY,
        "Bool reachable ⟺ MaxLog path exists"
    );
    if any {
        assert!(
            best <= total.ln() + 1e-9,
            "MaxLog best {best} > ln(Prob total) {}",
            total.ln()
        );
    }

    // For a deterministic machine runs are unique, so the raw path mass
    // is exactly the engine's confidence. A nondeterministic machine may
    // accept one world through several runs, so the path mass only
    // upper-bounds the (run-deduplicated) confidence. The Bool reduction
    // is exactly `is_answer` either way.
    let conf = prepare(t).bind(m).unwrap().confidence(o).unwrap();
    if t.is_deterministic() {
        assert!(
            (total - conf).abs() <= 1e-9 * conf.max(1.0),
            "kernel {total} vs engine {conf}"
        );
    } else {
        assert!(
            total >= conf - 1e-9,
            "path mass {total} below confidence {conf}"
        );
        assert_eq!(total > 0.0, conf > 0.0);
    }
    assert_eq!(any, prepare(t).bind(m).unwrap().is_answer(o).unwrap());
    if any {
        let emax = prepare(t).bind(m).unwrap().emax_of_output(o).unwrap();
        assert!(
            (best - emax).abs() <= 1e-9,
            "kernel best {best} vs engine E_max {emax}"
        );
    }
}

/// Same invariants over the output-oblivious state graph ("does any
/// answer exist", total acceptance mass, best accepting run).
fn check_state_query(t: &Transducer, m: &MarkovSequence) {
    let steps = m.sparse_steps();
    let graph = state_step_graph(t);
    let (total, best, any) = run_and_check(&steps, &graph, t.initial().0, &|row| {
        t.is_accepting(transmark_core::StateId(row as u32))
    });
    assert_eq!(any, total > 0.0);
    if any {
        assert!(best <= total.ln() + 1e-9);
    }
    // For selective machines mass can legitimately be < 1; it can never
    // exceed 1 (each world contributes its probability at most once per
    // run, and runs of a deterministic machine are unique).
    if t.is_deterministic() {
        assert!(
            total <= 1.0 + 1e-9,
            "deterministic acceptance mass {total} > 1"
        );
    }
}

#[test]
fn hospital_workload_semirings_agree() {
    let m = hospital_sequence();
    let t = room_tracker();
    check_state_query(&t, &m);
    // Table 1's answers plus a non-answer.
    for row in transmark_workloads::table1_rows() {
        if let Some(names) = row.output {
            check_output_query(&t, &m, &transmark_workloads::hospital::places(names));
        }
    }
    let bogus = transmark_workloads::hospital::places(&["2", "2", "2", "2"]);
    check_output_query(&t, &m, &bogus);
}

#[test]
fn rfid_workload_semirings_agree() {
    let dep = deployment(&RfidSpec::default());
    let t = dep.room_tracker(Some(2));
    let mut rng = StdRng::seed_from_u64(2026);
    for n in [3usize, 5] {
        let (m, _) = dep.sample_posterior(n, &mut rng);
        check_state_query(&t, &m);
        // Probe a handful of short candidate outputs.
        let k_out = t.n_output_symbols();
        for a in 0..k_out {
            check_output_query(&t, &m, &[SymbolId(a as u32)]);
            for b in 0..k_out {
                check_output_query(&t, &m, &[SymbolId(a as u32), SymbolId(b as u32)]);
            }
        }
    }
}

fn arb_class() -> impl Strategy<Value = TransducerClass> {
    prop_oneof![
        Just(TransducerClass::General),
        Just(TransducerClass::Uniform(1)),
        Just(TransducerClass::Uniform(2)),
        Just(TransducerClass::Deterministic),
        Just(TransducerClass::Mealy),
        Just(TransducerClass::Projector),
    ]
}

fn instance(class: TransducerClass, seed: u64, n: usize) -> (Transducer, MarkovSequence) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = random_markov_sequence(
        &RandomChainSpec {
            len: n,
            n_symbols: 2,
            zero_prob: 0.3,
        },
        &mut rng,
    );
    let t = random_transducer(
        &RandomTransducerSpec {
            n_states: 2,
            n_input_symbols: 2,
            n_output_symbols: 2,
            class,
            branching: 1.5,
        },
        &mut rng,
    );
    (t, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_instances_semirings_agree(
        class in arb_class(),
        seed in any::<u64>(),
        n in 1usize..4,
    ) {
        let (t, m) = instance(class, seed, n);
        check_state_query(&t, &m);
        // Short outputs, including the empty one for selective machines.
        check_output_query(&t, &m, &[]);
        for a in 0..t.n_output_symbols() {
            check_output_query(&t, &m, &[SymbolId(a as u32)]);
            for b in 0..t.n_output_symbols() {
                check_output_query(&t, &m, &[SymbolId(a as u32), SymbolId(b as u32)]);
            }
        }
    }
}
