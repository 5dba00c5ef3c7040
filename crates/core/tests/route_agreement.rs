//! Route agreement at scale: on a deterministic k-uniform machine, the
//! Thm 4.6 fast path (the plan's own route, on the flat kernel drivers),
//! Thm 4.8 and the general route (both on the subset table) compute the
//! same confidence, at lengths where brute force cannot run.
//!
//! Tolerance, derived rather than tuned. Each route sums the same path
//! products `μ₀(s₁)·Π pᵢ(sᵢ, sᵢ₊₁)`, grouped differently. On a
//! deterministic machine every cell of every route is one `(node, state)`
//! (the subset routes' sets are singletons), so a target cell sums at most
//! `A = |Σ|·|Q|` products of a source cell and a transition. With unit
//! roundoff `u = 2⁻⁵³`, one layer's multiply and sum of at most `A`
//! nonnegative terms adds at most `(A + 1)·u` relative error to each cell,
//! so after `n` layers each route is within `n·(A + 1)·u` of the exact
//! value (to first order; the final compensated reduction adds `2u`).
//! Two routes then differ by at most `2·(n·(A + 1) + 2)·u` relative to the
//! larger. The chains are peaked so that the answer stays in the normal
//! range, where this relative bound holds; the test asserts that it does.

use rand::{rngs::StdRng, RngExt, SeedableRng};

use transmark_core::{
    confidence_general, confidence_uniform_nfa, prepare, Alphabet, MarkovSequence,
    MarkovSequenceBuilder, PlanKind, SymbolId, Transducer,
};

/// A chain over `k` symbols whose every row puts `1 − ε` (ε < 0.02) on
/// one random target and spreads `ε` over the rest.
fn peaked_chain(n: usize, k: usize, rng: &mut StdRng) -> MarkovSequence {
    let alphabet = Alphabet::from_names((0..k).map(|i| format!("s{i}")));
    let row = |rng: &mut StdRng| {
        let favored = rng.random_range(0..k);
        let eps = rng.random_range(0.001..0.02);
        (0..k)
            .map(|j| {
                if j == favored {
                    1.0 - eps
                } else {
                    eps / (k - 1) as f64
                }
            })
            .collect::<Vec<f64>>()
    };
    let mut b = MarkovSequenceBuilder::new(alphabet, n);
    for (s, p) in row(rng).into_iter().enumerate() {
        b = b.initial(SymbolId(s as u32), p);
    }
    for i in 0..n - 1 {
        for from in 0..k {
            for (to, p) in row(rng).into_iter().enumerate() {
                b = b.transition(i, SymbolId(from as u32), SymbolId(to as u32), p);
            }
        }
    }
    b.build().unwrap()
}

/// A random complete deterministic machine on `nq` states, every edge
/// emitting a random `k`-gram over two output symbols.
fn uniform_dfa(nq: usize, n_in: usize, k: usize, rng: &mut StdRng) -> Transducer {
    let input = Alphabet::from_names((0..n_in).map(|i| format!("s{i}")));
    let output = Alphabet::of_chars("xy");
    let mut b = Transducer::builder(input, output);
    let states: Vec<_> = (0..nq)
        .map(|q| b.add_state(q == 0 || rng.random_bool(0.5)))
        .collect();
    for &q in &states {
        for s in 0..n_in as u32 {
            let to = states[rng.random_range(0..nq)];
            let em: Vec<SymbolId> = (0..k).map(|_| SymbolId(rng.random_range(0..2))).collect();
            b.add_transition(q, SymbolId(s), to, &em).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn deterministic_uniform_routes_agree_at_n_2_to_the_10() {
    const N: usize = 1 << 10;
    let mut rng = StdRng::seed_from_u64(0x2_0ad5);
    let mut compared = 0;
    for case in 0..8 {
        let k = 1 + case % 2;
        let n_in = 3;
        let nq = rng.random_range(2..=4);
        let t = uniform_dfa(nq, n_in, k, &mut rng);
        let m = peaked_chain(N, n_in, &mut rng);
        let plan = prepare(&t);
        assert_eq!(plan.kind(), PlanKind::DeterministicUniform { k });
        let bound = plan.bind(&m).unwrap();
        let Some(top) = bound.top().unwrap() else {
            continue;
        };
        let o = top.output;
        let fast = bound.confidence(&o).unwrap();
        assert!(
            fast.is_normal(),
            "case {case}: answer {fast} left the normal range"
        );
        let a = (n_in * nq) as f64;
        let tol = 2.0 * (N as f64 * (a + 1.0) + 2.0) * f64::EPSILON / 2.0;
        for (route, got) in [
            ("Thm 4.8", confidence_uniform_nfa(&t, &m, &o).unwrap()),
            ("general", confidence_general(&t, &m, &o).unwrap()),
        ] {
            let rel = (got - fast).abs() / got.max(fast);
            assert!(
                rel <= tol,
                "case {case}, k = {k}: {route} {got} vs Thm 4.6 {fast} (relative {rel:e} > {tol:e})"
            );
        }
        compared += 1;
    }
    assert!(compared >= 6, "only {compared} machines had an answer");
}
