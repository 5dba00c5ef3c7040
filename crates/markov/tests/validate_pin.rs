//! Pins the row check and the CSR build to the serial code they replaced.
//!
//! Every row is validated by a branch-free certain-accept pass with the
//! serial Neumaier check as its fallback, and `sparse_steps` fills an
//! exactly sized entry array with a branch-free cursor. These tests keep a
//! copy of the serial row check and of the push-per-positive CSR loop and
//! require the same decision, the same error fields (sums and values by
//! their bits) and the same CSR, bit for bit, on seeded adversarial rows
//! and random chains.

use std::sync::Arc;

use rand::{rngs::StdRng, RngExt, SeedableRng};
use transmark_automata::{Alphabet, SymbolId};
use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};
use transmark_markov::numeric::{approx_eq, KahanSum, DIST_TOLERANCE};
use transmark_markov::{MarkovError, MarkovSequence, MarkovSequenceBuilder};

/// The serial row check every row went through before the fast pass.
fn serial_row(
    row: &[f64],
    what: &'static str,
    position: usize,
    index: usize,
) -> Result<(), MarkovError> {
    let mut sum = KahanSum::new();
    for &p in row {
        if !p.is_finite() || p < 0.0 {
            return Err(MarkovError::InvalidProbability {
                what,
                position,
                value: p,
            });
        }
        sum.add(p);
    }
    let total = sum.total();
    if !approx_eq(total, 1.0, DIST_TOLERANCE, DIST_TOLERANCE) {
        return Err(MarkovError::NotADistribution {
            what,
            position,
            row: index,
            sum: total,
        });
    }
    Ok(())
}

/// A result with its floats as bits, so `-0.0`, NaN payloads and the last
/// ulp of a sum all count.
fn bits(r: &Result<(), MarkovError>) -> String {
    match r {
        Ok(()) => "ok".to_string(),
        Err(MarkovError::InvalidProbability {
            what,
            position,
            value,
        }) => format!("invalid {what} {position} {:#x}", value.to_bits()),
        Err(MarkovError::NotADistribution {
            what,
            position,
            row,
            sum,
        }) => format!(
            "not-a-distribution {what} {position} {row} {:#x}",
            sum.to_bits()
        ),
        Err(e) => format!("other {e}"),
    }
}

fn alphabet(k: usize) -> Arc<Alphabet> {
    Arc::new(Alphabet::from_names((0..k).map(|i| format!("s{i}"))))
}

/// A random distribution of length `len` (exponential draws, normalized).
fn random_row(len: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut row: Vec<f64> = (0..len)
        .map(|_| -(rng.random::<f64>().max(f64::MIN_POSITIVE)).ln())
        .collect();
    let sum: f64 = row.iter().sum();
    row.iter_mut().for_each(|p| *p /= sum);
    row
}

/// `row` with its last entry moved so that its Neumaier sum lands on
/// (about) `target`.
fn with_sum(mut row: Vec<f64>, target: f64) -> Vec<f64> {
    let total = row.iter().copied().collect::<KahanSum>().total();
    let last = row.len() - 1;
    row[last] += target - total;
    row
}

/// `p` moved by `steps` ulps (toward +∞ for positive steps).
fn ulps(p: f64, steps: i64) -> f64 {
    f64::from_bits((p.to_bits() as i64 + steps) as u64)
}

/// Seeded adversarial rows of length `len`: sums on both sides of both
/// tolerance edges, by ulps and by the fast pass's own error margin;
/// a non-finite or negative value at every position; `-0.0`,
/// subnormals and a single 1.0.
fn adversarial_rows(len: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let eps = f64::EPSILON;
    let mut rows = Vec::new();
    let margin = (len + 4) as i64;
    let mut offsets: Vec<i64> = (-12..=12).collect();
    offsets.extend([margin - 2, margin, margin + 2, 2 * margin, 3 * margin + 8]);
    offsets.extend(offsets.clone().iter().map(|t| -t));
    for side in [1.0, -1.0] {
        for &t in &offsets {
            let target = 1.0 + side * DIST_TOLERANCE + t as f64 * eps;
            let row = with_sum(random_row(len, rng), target);
            for step in [-2, 0, 2] {
                let mut r = row.clone();
                let j = rng.random_range(0..len);
                r[j] = ulps(r[j], step);
                rows.push(r);
            }
        }
    }
    // Tiny entries that a lane holding a large entry drops but the
    // Neumaier sum keeps: the fast sum reads low by 0.3 ulp per dropped
    // entry, so a row just outside the upper edge looks inside it to a
    // fast accept without an error margin.
    if len >= 9 {
        let tiny = 0.3 * eps;
        let mut row = vec![tiny; len];
        row[0] = 1.0 + DIST_TOLERANCE - (len as f64 - 1.0) * tiny;
        while serial_row(&row, "initial", 0, 0).is_ok() {
            row[0] = ulps(row[0], 1);
        }
        for t in [-2, -1, 0, 1, 2, 4] {
            let mut r = row.clone();
            r[0] = ulps(row[0], t);
            rows.push(r);
        }
    }
    let valid = random_row(len, rng);
    for bad in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1e-300,
        -0.5,
        -f64::MIN_POSITIVE,
    ] {
        for j in 0..len.min(64) {
            let mut r = valid.clone();
            r[j] = bad;
            rows.push(r);
        }
    }
    // -0.0 everywhere but one 1.0; all -0.0; subnormals beside 1.0.
    let mut one = vec![-0.0; len];
    one[rng.random_range(0..len)] = 1.0;
    rows.push(one);
    rows.push(vec![-0.0; len]);
    let mut sub = vec![f64::MIN_POSITIVE / 4.0; len];
    sub[0] = 1.0;
    rows.push(sub);
    let mut sub_neg_zero: Vec<f64> = (0..len)
        .map(|i| if i % 2 == 0 { -0.0 } else { 5e-324 })
        .collect();
    sub_neg_zero[len - 1] = 1.0;
    rows.push(sub_neg_zero);
    rows.push(valid);
    rows
}

/// The initial vector: built as a length-1 chain.
fn check_initial(row: &[f64]) {
    let got = MarkovSequenceBuilder::new(alphabet(row.len()), 1)
        .initial_dist(row)
        .build()
        .map(|_| ());
    let want = serial_row(row, "initial", 0, 0);
    assert_eq!(bits(&got), bits(&want), "initial row {row:?}");
}

/// A transition row, placed as row `index` of step 1 of a 3-position
/// chain whose other rows are self-loops.
fn check_transition(row: &[f64], index: usize) {
    let k = row.len();
    let mut initial = vec![0.0; k];
    initial[0] = 1.0;
    let mut matrix = vec![0.0; k * k];
    for r in 0..k {
        matrix[r * k + r] = 1.0;
    }
    let self_loops = matrix.clone();
    matrix[index * k..(index + 1) * k].copy_from_slice(row);
    let got = MarkovSequenceBuilder::new(alphabet(k), 3)
        .initial_dist(&initial)
        .transition_matrix(0, &self_loops)
        .transition_matrix(1, &matrix)
        .build()
        .map(|_| ());
    let want = serial_row(row, "transition", 1, index);
    assert_eq!(bits(&got), bits(&want), "transition row {index} {row:?}");
}

#[test]
fn row_checks_match_the_serial_check() {
    let mut rng = StdRng::seed_from_u64(0x7a11d);
    let (mut accepted, mut off_edge) = (0, 0);
    for len in [1, 2, 7, 8, 9, 16, 65] {
        for row in adversarial_rows(len, &mut rng) {
            match serial_row(&row, "initial", 0, 0) {
                Ok(()) => accepted += 1,
                Err(MarkovError::NotADistribution { .. }) => off_edge += 1,
                Err(_) => {}
            }
            check_initial(&row);
            let index = rng.random_range(0..len);
            check_transition(&row, index);
        }
    }
    // Both sides of the tolerance edges were reached.
    assert!(
        accepted > 100 && off_edge > 100,
        "{accepted} accepted, {off_edge} rejected by their sums"
    );
}

#[test]
fn long_rows_match_the_serial_check() {
    // A 1000×1000 matrix per row is 8 MB, so the long rows run through the
    // initial vector, which shares the row check, and a sample of them
    // through a transition matrix.
    let mut rng = StdRng::seed_from_u64(0x1000);
    let rows = adversarial_rows(1000, &mut rng);
    let mut straddled = 0;
    for (i, row) in rows.iter().enumerate() {
        check_initial(row);
        if i % 29 == 0 {
            check_transition(row, rng.random_range(0..1000));
        }
        let serial = serial_row(row, "initial", 0, 0);
        if (lane_sum(row) - 1.0).abs() <= DIST_TOLERANCE && serial.is_err() {
            straddled += 1;
        }
    }
    // Rows a fast accept without its error margin would take and the
    // serial check rejects: the margin is what keeps them out.
    assert!(straddled > 0, "no row straddles the upper edge");
}

/// A sum over 8 lanes, entry `i` in lane `i mod 8`, as the fast pass adds.
fn lane_sum(row: &[f64]) -> f64 {
    let mut lanes = [0.0; 8];
    for (i, &p) in row.iter().enumerate() {
        lanes[i % 8] += p;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// The CSR as the serial loop built it: nonzero initial entries, row
/// offsets and entries pushed one positive at a time, floats as bits.
type Csr = (Vec<(u32, u64)>, Vec<u32>, Vec<(u32, u64)>);

fn serial_csr(m: &MarkovSequence) -> Csr {
    let k = m.n_symbols();
    let mut initial = Vec::new();
    for (s, &p) in m.initial_dist().iter().enumerate() {
        if p > 0.0 {
            initial.push((s as u32, p.to_bits()));
        }
    }
    let mut offsets = vec![0u32];
    let mut entries = Vec::new();
    for matrix in m.transitions_flat().chunks_exact(k * k) {
        for from in 0..k {
            for (to, &p) in matrix[from * k..(from + 1) * k].iter().enumerate() {
                if p > 0.0 {
                    entries.push((to as u32, p.to_bits()));
                }
            }
            offsets.push(entries.len() as u32);
        }
    }
    (initial, offsets, entries)
}

fn built_csr(m: &MarkovSequence) -> Csr {
    let steps = m.sparse_steps();
    let initial = steps
        .initial()
        .iter()
        .map(|&(s, p)| (s, p.to_bits()))
        .collect();
    let mut offsets = vec![0u32];
    let mut entries = Vec::new();
    for step in 0..steps.n_steps() {
        for from in 0..steps.n_nodes() {
            entries.extend(
                steps
                    .row(step, from)
                    .iter()
                    .map(|&(to, p)| (to, p.to_bits())),
            );
            offsets.push(entries.len() as u32);
        }
    }
    assert_eq!(steps.n_entries(), entries.len());
    assert_eq!(steps.n_entries(), m.transition_nnz());
    (initial, offsets, entries)
}

#[test]
fn csr_matches_the_serial_build() {
    let mut rng = StdRng::seed_from_u64(0xc5b);
    for k in [1, 2, 16, 65] {
        for len in [1, 2, 37] {
            for zero_prob in [0.0, 0.3, 0.7] {
                let m = random_markov_sequence(
                    &RandomChainSpec {
                        len,
                        n_symbols: k,
                        zero_prob,
                    },
                    &mut rng,
                );
                assert_eq!(
                    built_csr(&m),
                    serial_csr(&m),
                    "k {k}, n {len}, zero_prob {zero_prob}"
                );
            }
            // zero_prob 1.0: every row is dead and becomes a self-loop.
            let m = MarkovSequenceBuilder::new(alphabet(k), len)
                .initial(SymbolId(k as u32 - 1), 1.0)
                .fill_dead_rows_self_loop()
                .build()
                .expect("self-loops are distributions");
            assert_eq!(m.transition_nnz(), (len - 1) * k);
            assert_eq!(built_csr(&m), serial_csr(&m), "k {k}, n {len}, zero_prob 1");
        }
    }
}
