//! The dense execution path: layer advances straight off row-major
//! `|Σ|²` transition matrices, no CSR build.
//!
//! [`DenseSteps`] borrows the sequence's contiguous transition buffer
//! (`MarkovSequence::transitions_flat` upstream) plus its initial
//! distribution; the advance drivers here mirror [`crate::dp`] loop for
//! loop. Bit-identity with the sparse kernel holds because:
//!
//! * a dense row visits targets in ascending order — the order the CSR
//!   builder stored them;
//! * entries with `p > 0` are processed, the rest skipped — exactly the
//!   builder's drop predicate;
//! * the staged multiply computes `v·p` per lane, and one IEEE-754
//!   multiply is the same operation in a SIMD lane as in a scalar
//!   register — no reassociation, no FMA contraction.
//!
//! The multiply stage is the explicit SIMD inner loop: for the
//! sum-product semiring a whole row of `v·p[to]` products is computed at
//! once ([`mul_row_f64`], AVX2 on x86-64 with a scalar fallback chosen at
//! runtime — see [`crate::exec::simd_enabled`]). The scatter along
//! machine edges stays scalar in source order, which is what pins the
//! accumulation sequence. Boolean and untracked max-log advances use the
//! scalar stage (`bool` and `ln` have no profitable lane form).
//!
//! The tracked (Viterbi) driver stages per node instead of per row: each
//! node's log row (`ln p` for its `p > 0` targets) is computed once, at
//! the node's first live machine row, and reused for every live row of
//! that node — the same `ln` of the same `p`, so the result is
//! bit-identical to taking it per edge (see [`crate::dp::advance_tracked`]).

use crate::dp::{relax_tracked, BackEdge};
use crate::semiring::Semiring;
use crate::step_graph::StepGraph;

/// Rows staged through the lane multiply at most this wide; wider
/// alphabets (rare — `|Σ|` is a sensor/node vocabulary) fall back to the
/// inline scalar loop, which is still bit-identical. The tracked drivers
/// stage log rows in chunks of this many targets.
pub const STAGE_CAP: usize = 64;

/// The dense counterpart of [`crate::SparseSteps`]: a borrowed view of
/// the sequence's back-to-back row-major `|Σ|²` matrices. Building one
/// is O(|Σ|) — the nonzero initial entries are the only materialized
/// part — which is the whole point: tiny binds pay nothing resembling a
/// CSR flatten.
#[derive(Debug, Clone)]
pub struct DenseSteps<'a> {
    n_nodes: usize,
    n_steps: usize,
    /// Nonzero `(node, μ₀→(node))` entries, ascending — same contents and
    /// order as [`crate::SparseSteps::initial`].
    initial: Vec<(u32, f64)>,
    /// `n_steps` matrices, stride `|Σ|²`.
    layers: &'a [f64],
}

impl<'a> DenseSteps<'a> {
    /// Wraps an initial distribution (dense, length `|Σ|`) and the flat
    /// layer buffer (`|Σ|²`-stride, possibly empty).
    pub fn new(n_nodes: usize, initial: &[f64], layers: &'a [f64]) -> Self {
        assert_eq!(initial.len(), n_nodes, "initial distribution is |Σ|");
        let kk = n_nodes * n_nodes;
        assert!(
            kk > 0 && layers.len().is_multiple_of(kk),
            "layer buffer must be a multiple of |Σ|²"
        );
        transmark_obs::counter!("kernel.dense.binds").inc();
        DenseSteps {
            n_nodes,
            n_steps: layers.len() / kk,
            initial: initial
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p > 0.0)
                .map(|(s, &p)| (s as u32, p))
                .collect(),
            layers,
        }
    }

    /// `|Σ|`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of transition steps (`n - 1`).
    #[inline]
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// The nonzero initial entries, ascending.
    #[inline]
    pub fn initial(&self) -> &[(u32, f64)] {
        &self.initial
    }

    /// Step `i`'s matrix as a driver-ready view.
    #[inline]
    pub fn layer(&self, i: usize) -> DenseLayer<'a> {
        let kk = self.n_nodes * self.n_nodes;
        DenseLayer {
            k: self.n_nodes,
            matrix: &self.layers[i * kk..(i + 1) * kk],
        }
    }
}

/// One step's row-major `|Σ|²` matrix, as consumed by the dense advance
/// drivers (and rebuildable per pulled layer by streaming callers).
#[derive(Debug, Clone, Copy)]
pub struct DenseLayer<'a> {
    k: usize,
    matrix: &'a [f64],
}

impl<'a> DenseLayer<'a> {
    /// Wraps a row-major `k × k` matrix slice.
    pub fn new(k: usize, matrix: &'a [f64]) -> Self {
        assert_eq!(matrix.len(), k * k, "dense layer must be |Σ|²");
        DenseLayer { k, matrix }
    }

    /// `|Σ|`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.k
    }

    /// Row `from` of the matrix.
    #[inline]
    pub fn row(&self, from: usize) -> &'a [f64] {
        &self.matrix[from * self.k..(from + 1) * self.k]
    }
}

/// `out[i] = v · probs[i]` for a whole row — the SIMD multiply stage.
/// Lane products are individually identical to scalar products, so both
/// implementations return the same bits; which one runs is decided once
/// per process ([`crate::exec::simd_enabled`]).
#[inline]
pub fn mul_row_f64(v: f64, probs: &[f64], out: &mut [f64]) {
    debug_assert_eq!(probs.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if crate::exec::simd_enabled() {
        // SAFETY: `simd_enabled` verified AVX2 support at runtime.
        unsafe { mul_row_avx2(v, probs, out) };
        return;
    }
    for (o, &p) in out.iter_mut().zip(probs.iter()) {
        *o = v * p;
    }
}

/// The AVX2 lane loop behind [`mul_row_f64`]: four `f64` products per
/// `vmulpd`, scalar tail. Unaligned loads — the layer buffer's alignment
/// is whatever the allocator gave the sequence.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_row_avx2(v: f64, probs: &[f64], out: &mut [f64]) {
    use core::arch::x86_64::{_mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd};
    let n = probs.len();
    let vv = _mm256_set1_pd(v);
    let mut i = 0;
    while i + 4 <= n {
        let p = _mm256_loadu_pd(probs.as_ptr().add(i));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_mul_pd(vv, p));
        i += 4;
    }
    while i < n {
        *out.get_unchecked_mut(i) = v * *probs.get_unchecked(i);
        i += 1;
    }
}

/// [`crate::dp::advance`] over a dense layer: same cell linearization,
/// same visit order (node, row, ascending target, edge insertion order),
/// same `p > 0` skip — bit-identical to the CSR walk. `next` must be
/// zero-filled.
pub fn advance_dense<S: Semiring>(
    layer: &DenseLayer<'_>,
    graph: &StepGraph,
    cur: &[S::Elem],
    next: &mut [S::Elem],
) {
    let k = layer.k;
    let nr = graph.n_rows();
    let mut stage = [S::zero(); STAGE_CAP];
    for node in 0..k {
        let base = node * nr;
        let prow = layer.row(node);
        for row in 0..nr {
            let v = cur[base + row];
            if S::is_zero(v) {
                continue;
            }
            if S::STAGED_ROW && k <= STAGE_CAP {
                S::mul_row(v, prow, &mut stage[..k]);
                for (to, &p) in prow.iter().enumerate() {
                    if p > 0.0 {
                        let w = stage[to];
                        let to_base = to * nr;
                        for e in graph.edges(to as u32, row as u32) {
                            S::accum(&mut next[to_base + e.to as usize], w);
                        }
                    }
                }
            } else {
                for (to, &p) in prow.iter().enumerate() {
                    if p > 0.0 {
                        let w = S::mul(v, S::from_prob(p));
                        let to_base = to * nr;
                        for e in graph.edges(to as u32, row as u32) {
                            S::accum(&mut next[to_base + e.to as usize], w);
                        }
                    }
                }
            }
        }
    }
}

/// [`crate::dp::advance_filtered`] over a dense layer (payload-gated
/// edges), bit-identical to the CSR walk.
pub fn advance_dense_filtered<S: Semiring>(
    layer: &DenseLayer<'_>,
    graph: &StepGraph,
    expected: u32,
    cur: &[S::Elem],
    next: &mut [S::Elem],
) {
    let k = layer.k;
    let nr = graph.n_rows();
    let mut stage = [S::zero(); STAGE_CAP];
    for node in 0..k {
        let base = node * nr;
        let prow = layer.row(node);
        for row in 0..nr {
            let v = cur[base + row];
            if S::is_zero(v) {
                continue;
            }
            if S::STAGED_ROW && k <= STAGE_CAP {
                S::mul_row(v, prow, &mut stage[..k]);
                for (to, &p) in prow.iter().enumerate() {
                    if p > 0.0 {
                        let w = stage[to];
                        let to_base = to * nr;
                        for e in graph.edges(to as u32, row as u32) {
                            if e.payload == expected {
                                S::accum(&mut next[to_base + e.to as usize], w);
                            }
                        }
                    }
                }
            } else {
                for (to, &p) in prow.iter().enumerate() {
                    if p > 0.0 {
                        let w = S::mul(v, S::from_prob(p));
                        let to_base = to * nr;
                        for e in graph.edges(to as u32, row as u32) {
                            if e.payload == expected {
                                S::accum(&mut next[to_base + e.to as usize], w);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// [`crate::dp::advance_tracked`] over a dense layer: the same per-node
/// log-row staging, strict-`>` first-wins updates, identical back-pointer
/// choices.
pub fn advance_dense_tracked(
    layer: &DenseLayer<'_>,
    graph: &StepGraph,
    cur: &[f64],
    next: &mut [f64],
    back: &mut [BackEdge],
) {
    let nr = graph.n_rows();
    let mut stage = [0.0f64; STAGE_CAP];
    for node in 0..layer.k {
        let base = node * nr;
        for (c, chunk) in layer.row(node).chunks(STAGE_CAP).enumerate() {
            let offset = c * STAGE_CAP;
            let mut staged = false;
            for row in 0..nr {
                let v = cur[base + row];
                if v == f64::NEG_INFINITY {
                    continue;
                }
                if !staged {
                    for (lp, &p) in stage.iter_mut().zip(chunk) {
                        if p > 0.0 {
                            *lp = p.ln();
                        }
                    }
                    staged = true;
                }
                let prev = (base + row) as u32;
                for (j, (&p, &lp)) in chunk.iter().zip(&stage).enumerate() {
                    if p > 0.0 {
                        relax_tracked(graph, offset + j, row, prev, v + lp, next, back);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{advance, advance_filtered, advance_tracked};
    use crate::semiring::{Bool, MaxLog, Prob};
    use crate::steps::SparseSteps;

    /// A 4-node chain layer with zeros scattered in, plus a 2-row machine
    /// graph with multi-edge buckets and distinct payloads.
    fn fixture() -> (Vec<f64>, Vec<f64>, SparseSteps, StepGraph) {
        let k = 4;
        let initial = vec![0.5, 0.0, 0.25, 0.25];
        #[rustfmt::skip]
        let matrix = vec![
            0.5, 0.5, 0.0, 0.0,
            0.0, 0.0, 1.0, 0.0,
            0.125, 0.125, 0.25, 0.5,
            0.0, 1.0, 0.0, 0.0,
        ];
        let steps = csr(k, &initial, &matrix);
        let mut g = StepGraph::builder(k, 2);
        for sym in 0..k as u32 {
            g.add_edge(sym, 0, sym % 2, sym);
            g.add_edge(sym, 0, 1, sym + 10);
            g.add_edge(sym, 1, 0, sym);
        }
        (initial, matrix, steps, g.build())
    }

    /// The one-step CSR of a dense `k × k` layer (zeros dropped).
    fn csr(k: usize, initial: &[f64], matrix: &[f64]) -> SparseSteps {
        let nnz = matrix.iter().filter(|&&p| p > 0.0).count();
        SparseSteps::from_dense(k, initial, matrix, nnz)
    }

    fn seed(initial: &[f64], nr: usize) -> Vec<f64> {
        let mut cur = vec![0.0; initial.len() * nr];
        for (s, &p) in initial.iter().enumerate() {
            cur[s * nr] = p;
        }
        cur
    }

    #[test]
    fn dense_steps_initial_matches_csr() {
        let (initial, matrix, steps, _) = fixture();
        let dense = DenseSteps::new(4, &initial, &matrix);
        assert_eq!(dense.initial(), steps.initial());
        assert_eq!(dense.n_steps(), 1);
        assert_eq!(dense.layer(0).row(2), &matrix[8..12]);
    }

    #[test]
    fn dense_advance_is_bit_identical_to_sparse() {
        let (initial, matrix, steps, graph) = fixture();
        let layer = DenseLayer::new(4, &matrix);
        let nr = graph.n_rows();
        let cur = seed(&initial, nr);

        let mut sparse_next = vec![0.0; cur.len()];
        advance::<Prob, _>(&steps.at(0), &graph, &cur, &mut sparse_next);
        let mut dense_next = vec![0.0; cur.len()];
        advance_dense::<Prob>(&layer, &graph, &cur, &mut dense_next);
        for (a, b) in sparse_next.iter().zip(dense_next.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let curb: Vec<bool> = cur.iter().map(|&p| p > 0.0).collect();
        let mut sb = vec![false; curb.len()];
        advance::<Bool, _>(&steps.at(0), &graph, &curb, &mut sb);
        let mut db = vec![false; curb.len()];
        advance_dense::<Bool>(&layer, &graph, &curb, &mut db);
        assert_eq!(sb, db);

        let curl: Vec<f64> = cur.iter().map(|&p| p.ln()).collect();
        let mut sl = vec![f64::NEG_INFINITY; curl.len()];
        advance::<MaxLog, _>(&steps.at(0), &graph, &curl, &mut sl);
        let mut dl = vec![f64::NEG_INFINITY; curl.len()];
        advance_dense::<MaxLog>(&layer, &graph, &curl, &mut dl);
        for (a, b) in sl.iter().zip(dl.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dense_filtered_and_tracked_match_sparse() {
        let (initial, matrix, steps, graph) = fixture();
        let layer = DenseLayer::new(4, &matrix);
        let nr = graph.n_rows();
        let cur = seed(&initial, nr);

        for expected in [0u32, 2, 11, u32::MAX] {
            let mut s = vec![0.0; cur.len()];
            advance_filtered::<Prob, _>(&steps.at(0), &graph, expected, &cur, &mut s);
            let mut d = vec![0.0; cur.len()];
            advance_dense_filtered::<Prob>(&layer, &graph, expected, &cur, &mut d);
            for (a, b) in s.iter().zip(d.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        let curl: Vec<f64> = cur.iter().map(|&p| p.ln()).collect();
        let mut sn = vec![f64::NEG_INFINITY; curl.len()];
        let mut sback = vec![BackEdge::NONE; curl.len()];
        advance_tracked(&steps.at(0), &graph, &curl, &mut sn, &mut sback);
        let mut dn = vec![f64::NEG_INFINITY; curl.len()];
        let mut dback = vec![BackEdge::NONE; curl.len()];
        advance_dense_tracked(&layer, &graph, &curl, &mut dn, &mut dback);
        for (a, b) in sn.iter().zip(dn.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in sback.iter().zip(dback.iter()) {
            assert_eq!((a.prev, a.payload), (b.prev, b.payload));
        }
    }

    /// The tracked advance with one `ln` per (live row × transition):
    /// the loop both tracked drivers must reproduce bit for bit.
    fn naive_tracked(
        k: usize,
        matrix: &[f64],
        graph: &StepGraph,
        cur: &[f64],
        next: &mut [f64],
        back: &mut [BackEdge],
    ) {
        let nr = graph.n_rows();
        for node in 0..k {
            let base = node * nr;
            for row in 0..nr {
                let v = cur[base + row];
                if v == f64::NEG_INFINITY {
                    continue;
                }
                for (to, &p) in matrix[node * k..(node + 1) * k].iter().enumerate() {
                    if p > 0.0 {
                        let cand = v + p.ln();
                        let to_base = to * nr;
                        for e in graph.edges(to as u32, row as u32) {
                            let cell = to_base + e.to as usize;
                            if cand > next[cell] {
                                next[cell] = cand;
                                back[cell] = BackEdge {
                                    prev: (base + row) as u32,
                                    payload: e.payload,
                                };
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tracked_drivers_match_per_edge_ln_bitwise() {
        // Probabilities and scores come from small sets, so many
        // candidates tie; k = 70 stages its rows in two chunks.
        for k in [5usize, 70] {
            let nr = 4;
            let probs = [0.0, 0.25, 0.5, 0.25, 0.0, 0.125];
            let matrix: Vec<f64> = (0..k * k)
                .map(|i| probs[(i / k * 7 + i % k * 3) % probs.len()])
                .collect();
            let steps = csr(k, &vec![1.0; k], &matrix);
            let mut g = StepGraph::builder(k, nr);
            for sym in 0..k as u32 {
                for row in 0..nr as u32 {
                    g.add_edge(sym, row, (row + sym) % nr as u32, 3 * sym + row);
                    g.add_edge(sym, row, (row + 1) % nr as u32, 3 * sym + row + 1);
                    g.add_edge(sym, row, 0, sym);
                }
            }
            let graph = g.build();
            let scores = [-1.0, -0.5, -1.0, f64::NEG_INFINITY, -0.5, -2.0];
            // Three of every node's four rows are live.
            let cur: Vec<f64> = (0..k * nr)
                .map(|i| {
                    if i % nr == (i / nr) % nr {
                        f64::NEG_INFINITY
                    } else {
                        scores[i % 4]
                    }
                })
                .collect();

            let mut want = vec![f64::NEG_INFINITY; cur.len()];
            let mut want_back = vec![BackEdge::NONE; cur.len()];
            naive_tracked(k, &matrix, &graph, &cur, &mut want, &mut want_back);
            assert!(want.iter().any(|v| v.is_finite()));

            let mut sn = vec![f64::NEG_INFINITY; cur.len()];
            let mut sback = vec![BackEdge::NONE; cur.len()];
            advance_tracked(&steps.at(0), &graph, &cur, &mut sn, &mut sback);
            let mut dn = vec![f64::NEG_INFINITY; cur.len()];
            let mut dback = vec![BackEdge::NONE; cur.len()];
            advance_dense_tracked(
                &DenseLayer::new(k, &matrix),
                &graph,
                &cur,
                &mut dn,
                &mut dback,
            );
            for got in [(&sn, &sback), (&dn, &dback)] {
                for cell in 0..cur.len() {
                    assert_eq!(
                        got.0[cell].to_bits(),
                        want[cell].to_bits(),
                        "k {k} cell {cell}"
                    );
                    let (b, w) = (got.1[cell], want_back[cell]);
                    assert_eq!(
                        (b.prev, b.payload),
                        (w.prev, w.payload),
                        "k {k} cell {cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn mul_row_matches_scalar_products_bitwise() {
        // Whatever path `simd_enabled` picked, lane products must equal
        // scalar products bit for bit.
        let probs: Vec<f64> = (0..23).map(|i| (i as f64) * 0.043_210_987).collect();
        let mut out = vec![0.0; probs.len()];
        for v in [0.0, 1.0, 0.123_456_789, 1e-300, 0.999_999] {
            mul_row_f64(v, &probs, &mut out);
            for (o, &p) in out.iter().zip(probs.iter()) {
                assert_eq!(o.to_bits(), (v * p).to_bits());
            }
        }
    }
}
