//! `dataplane.validate.exact_rows` counts exactly the rows whose check
//! falls back from the fast pass to the exact Neumaier loop: none on a
//! valid chain, every one on a chain whose rows sit at the tolerance edge.
//!
//! The counter is process-global, so the tests in this binary take turns.

use std::io::Cursor;
use std::sync::{Arc, Mutex};

use rand::{rngs::StdRng, RngExt, SeedableRng};
use transmark_automata::Alphabet;
use transmark_markov::binio::{from_tmsb_bytes, to_tmsb_bytes, TmsbReader};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::numeric::{approx_eq, KahanSum, DIST_TOLERANCE};
use transmark_markov::source::materialize;
use transmark_markov::textio::{from_text, to_text};
use transmark_markov::{MarkovError, MarkovSequenceBuilder, SourceError};

static TURN: Mutex<()> = Mutex::new(());

fn exact_rows() -> u64 {
    transmark_obs::registry()
        .snapshot()
        .counter("dataplane.validate.exact_rows")
}

/// Exact rows counted while `f` runs; what a build without metrics
/// would count if it could.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = exact_rows();
    let out = f();
    let delta = exact_rows() - before;
    (out, transmark_obs::enabled().then_some(delta))
}

#[test]
fn a_valid_chain_decodes_with_no_exact_rows() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(10);
    let m = random_markov_sequence(
        &RandomChainSpec {
            len: 1 << 10,
            n_symbols: 16,
            zero_prob: 0.3,
        },
        &mut rng,
    );
    let (tmsb, text) = (to_tmsb_bytes(&m), to_text(&m));
    let (decoded, exact) = counted(|| {
        let slice = from_tmsb_bytes(&tmsb).expect("valid tmsb");
        let reader = materialize(&mut TmsbReader::new(Cursor::new(&tmsb)).expect("valid prelude"))
            .expect("valid tmsb");
        let text = from_text(&text).expect("valid text");
        [slice, reader, text]
    });
    for d in &decoded {
        assert_eq!(d.transitions_flat(), m.transitions_flat());
    }
    if let Some(exact) = exact {
        assert_eq!(exact, 0, "a valid chain fell back to the exact check");
    }
}

/// A random row of length `k` whose Neumaier sum lies about `offset` from 1.
fn edge_row(k: usize, offset: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut row: Vec<f64> = (0..k).map(|_| rng.random::<f64>() + 0.01).collect();
    let sum: f64 = row.iter().sum();
    row.iter_mut().for_each(|p| *p /= sum);
    let total = row.iter().copied().collect::<KahanSum>().total();
    row[k - 1] += 1.0 + offset - total;
    row
}

/// The exact check's verdict on one row, as before the fast pass.
fn within_tolerance(row: &[f64]) -> bool {
    let total = row.iter().copied().collect::<KahanSum>().total();
    approx_eq(total, 1.0, DIST_TOLERANCE, DIST_TOLERANCE)
}

#[test]
fn rows_at_the_tolerance_edge_all_take_the_exact_check() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (k, n) = (16, 64);
    let eps = f64::EPSILON;
    let mut rng = StdRng::seed_from_u64(64);
    let alphabet = Arc::new(Alphabet::from_names((0..k).map(|i| format!("s{i}"))));
    // Every transition row a few ulps inside one edge or the other; the
    // initial vector well inside, so it takes the fast pass.
    let mut b = MarkovSequenceBuilder::new(alphabet, n).uniform_all();
    for step in 0..n - 1 {
        let mut matrix = Vec::with_capacity(k * k);
        for from in 0..k {
            let side = if (step + from) % 2 == 0 { 1.0 } else { -1.0 };
            let row = edge_row(k, side * (DIST_TOLERANCE - 4.0 * eps), &mut rng);
            assert!(within_tolerance(&row));
            matrix.extend(row);
        }
        b = b.transition_matrix(step, &matrix);
    }
    let rows = (k * (n - 1)) as u64;
    let (m, exact) = counted(|| b.build().expect("every row is within the tolerance"));
    assert_eq!(exact.unwrap_or(rows), rows);
    let tmsb = to_tmsb_bytes(&m);
    let (decoded, exact) = counted(|| from_tmsb_bytes(&tmsb).expect("accepted as before"));
    assert_eq!(decoded.transitions_flat(), m.transitions_flat());
    assert_eq!(exact.unwrap_or(rows), rows);

    // The same file with its very last row a few ulps outside the upper
    // edge: rejected there, with the exact check's sum, after every row
    // took the exact check.
    let last = edge_row(k, DIST_TOLERANCE + 4.0 * eps, &mut rng);
    assert!(!within_tolerance(&last));
    let mut bad = tmsb.clone();
    let tail = bad.len() - 8 * k;
    for (chunk, p) in bad[tail..].chunks_exact_mut(8).zip(&last) {
        chunk.copy_from_slice(&p.to_le_bytes());
    }
    let (err, exact) = counted(|| from_tmsb_bytes(&bad).expect_err("outside the tolerance"));
    let sum = last.iter().copied().collect::<KahanSum>().total();
    match err {
        SourceError::Model(MarkovError::NotADistribution {
            what: "transition",
            position,
            row,
            sum: got,
        }) => {
            assert_eq!((position, row), (n - 2, k - 1));
            assert_eq!(got.to_bits(), sum.to_bits());
        }
        other => panic!("unexpected error {other:?}"),
    }
    assert_eq!(exact.unwrap_or(rows), rows);
}
