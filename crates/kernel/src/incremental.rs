//! Incremental operator composition for sliding-window evaluation.
//!
//! Every layered DP in this workspace advances a state vector through one
//! linear operator per sequence position. Those operators compose
//! associatively, and this module uses that for *windowed* evaluation: a
//! [`SlidingProduct`] maintains the
//! product of the last `w` step operators under push (new step) and evict
//! (window slide) in amortized O(1) compositions per tick — the two-stack
//! sliding-window aggregation scheme — so sliding a window never replays
//! or rewinds the source.
//!
//! Operators are dense row-major `m × m` matrices over any [`Semiring`]
//! ([`Prob`](crate::Prob) for probability mass, [`Bool`](crate::Bool) for
//! reachability, [`MaxLog`](crate::MaxLog) for Viterbi-style windows).
//! Composition is associative but float addition is not: the product of a
//! window is the same *mathematical* value as folding its steps one by
//! one, with a different accumulation order. Callers that advertise
//! bit-reproducibility must document that tolerance (see the numerics
//! contract in [`crate::dp`]).

use crate::semiring::Semiring;

/// One step's lifted `m × m` operator: `cells[r * dim + c]` is the weight
/// carried from state `r` to state `c`. Vectors act on the left
/// (`v' = v · A`), so [`StepOperator::compose`] chains in application
/// order: `a.compose(&b)` applies `a` first, then `b`.
pub struct StepOperator<S: Semiring> {
    dim: usize,
    cells: Vec<S::Elem>,
}

// Manual impls: deriving would bound the uninhabited semiring tag `S`
// itself, not just `S::Elem`.
impl<S: Semiring> Clone for StepOperator<S> {
    fn clone(&self) -> Self {
        StepOperator {
            dim: self.dim,
            cells: self.cells.clone(),
        }
    }
}

impl<S: Semiring> std::fmt::Debug for StepOperator<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepOperator")
            .field("dim", &self.dim)
            .field("cells", &self.cells)
            .finish()
    }
}

impl<S: Semiring> PartialEq for StepOperator<S> {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.cells == other.cells
    }
}

impl<S: Semiring> StepOperator<S> {
    /// The identity operator (one on the diagonal).
    pub fn identity(dim: usize) -> Self {
        let mut cells = vec![S::zero(); dim * dim];
        for r in 0..dim {
            cells[r * dim + r] = S::one();
        }
        StepOperator { dim, cells }
    }

    /// Wraps a dense row-major `dim × dim` cell buffer.
    ///
    /// # Panics
    /// If `cells.len() != dim * dim`.
    pub fn from_cells(dim: usize, cells: Vec<S::Elem>) -> Self {
        assert_eq!(cells.len(), dim * dim, "operator cells must be dim²");
        StepOperator { dim, cells }
    }

    /// The operator's dimension `m`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dense row-major cell buffer.
    pub fn cells(&self) -> &[S::Elem] {
        &self.cells
    }

    /// `self` then `other`: the operator mapping `v ↦ (v · self) · other`.
    /// O(m³) semiring work with zero rows/cells skipped.
    pub fn compose(&self, other: &StepOperator<S>) -> StepOperator<S> {
        assert_eq!(self.dim, other.dim, "operator dimension mismatch");
        let m = self.dim;
        let mut out = vec![S::zero(); m * m];
        for r in 0..m {
            let a_row = &self.cells[r * m..(r + 1) * m];
            let o_row = &mut out[r * m..(r + 1) * m];
            for (mid, &a) in a_row.iter().enumerate() {
                if S::is_zero(a) {
                    continue;
                }
                let b_row = &other.cells[mid * m..(mid + 1) * m];
                for (o, &b) in o_row.iter_mut().zip(b_row) {
                    if !S::is_zero(b) {
                        S::accum(o, S::mul(a, b));
                    }
                }
            }
        }
        StepOperator { dim: m, cells: out }
    }

    /// `v · self` — pushes a state vector through the operator in O(m²).
    ///
    /// # Panics
    /// If `v.len() != dim`.
    pub fn apply(&self, v: &[S::Elem]) -> Vec<S::Elem> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let m = self.dim;
        let mut out = vec![S::zero(); m];
        for (r, &p) in v.iter().enumerate() {
            if S::is_zero(p) {
                continue;
            }
            let row = &self.cells[r * m..(r + 1) * m];
            for (o, &w) in out.iter_mut().zip(row) {
                if !S::is_zero(w) {
                    S::accum(o, S::mul(p, w));
                }
            }
        }
        out
    }
}

/// The product of a sliding window of step operators, maintained under
/// `push` (append the newest step) and `evict` (drop the oldest) without
/// replaying the window — the classic two-stack sliding-window
/// aggregation:
///
/// * the **back** holds the raw operators pushed since the last flip plus
///   their running product (`back_agg`), so a push costs one composition;
/// * the **front** holds *suffix products* of the older operators, so an
///   evict is a stack pop; when the front runs dry the back flips into it,
///   computing one suffix product per moved operator — amortized one
///   composition per tick.
///
/// Querying never composes: [`SlidingProduct::apply_to`] pushes a vector
/// through the front's top suffix product and then `back_agg`, two O(m²)
/// applies.
pub struct SlidingProduct<S: Semiring> {
    dim: usize,
    /// Suffix products of the older operators; `last()` covers every
    /// front operator, and popping it evicts exactly the oldest.
    front: Vec<StepOperator<S>>,
    /// Raw operators in arrival order since the last flip.
    back: Vec<StepOperator<S>>,
    /// Product of everything in `back` (identity when empty).
    back_agg: StepOperator<S>,
}

impl<S: Semiring> Clone for SlidingProduct<S> {
    fn clone(&self) -> Self {
        SlidingProduct {
            dim: self.dim,
            front: self.front.clone(),
            back: self.back.clone(),
            back_agg: self.back_agg.clone(),
        }
    }
}

impl<S: Semiring> std::fmt::Debug for SlidingProduct<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlidingProduct")
            .field("dim", &self.dim)
            .field("front", &self.front.len())
            .field("back", &self.back.len())
            .finish()
    }
}

impl<S: Semiring> SlidingProduct<S> {
    /// An empty window over `dim`-dimensional operators.
    pub fn new(dim: usize) -> Self {
        SlidingProduct {
            dim,
            front: Vec::new(),
            back: Vec::new(),
            back_agg: StepOperator::identity(dim),
        }
    }

    /// The operator dimension `m`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of operators currently in the window.
    pub fn len(&self) -> usize {
        self.front.len() + self.back.len()
    }

    /// Whether the window holds no operators.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty() && self.back.is_empty()
    }

    /// Appends the newest step operator (one composition).
    pub fn push(&mut self, op: StepOperator<S>) {
        assert_eq!(op.dim, self.dim, "operator dimension mismatch");
        self.back_agg = self.back_agg.compose(&op);
        self.back.push(op);
    }

    /// Drops the oldest operator. Returns `false` (and does nothing) when
    /// the window is empty. Amortized one composition.
    pub fn evict(&mut self) -> bool {
        if self.front.is_empty() {
            if self.back.is_empty() {
                return false;
            }
            // Flip: move the back into the front as suffix products, newest
            // first, so the top of the stack covers the whole run and each
            // pop peels exactly the then-oldest operator.
            let mut agg = StepOperator::identity(self.dim);
            for op in self.back.drain(..).rev() {
                agg = op.compose(&agg);
                self.front.push(agg.clone());
            }
            self.back_agg = StepOperator::identity(self.dim);
        }
        self.front.pop();
        true
    }

    /// Pushes `v` through the window's product (front suffix product, then
    /// back product): two O(m²) applies, no composition.
    pub fn apply_to(&self, v: &[S::Elem]) -> Vec<S::Elem> {
        match self.front.last() {
            Some(f) => self.back_agg.apply(&f.apply(v)),
            None => self.back_agg.apply(v),
        }
    }

    /// The window's full product as one operator (one composition; prefer
    /// [`SlidingProduct::apply_to`] on the hot path).
    pub fn product(&self) -> StepOperator<S> {
        match self.front.last() {
            Some(f) => f.compose(&self.back_agg),
            None => self.back_agg.clone(),
        }
    }

    /// Checkpoint view: `(front suffix products, back raw operators, back
    /// product)` — enough to rebuild the exact stack state, preserving the
    /// amortization schedule and float accumulation order bit for bit.
    pub fn parts(&self) -> (&[StepOperator<S>], &[StepOperator<S>], &StepOperator<S>) {
        (&self.front, &self.back, &self.back_agg)
    }

    /// Rebuilds a window from a [`SlidingProduct::parts`] snapshot.
    pub fn from_parts(
        dim: usize,
        front: Vec<StepOperator<S>>,
        back: Vec<StepOperator<S>>,
        back_agg: StepOperator<S>,
    ) -> Self {
        assert!(
            front
                .iter()
                .chain(back.iter())
                .chain(std::iter::once(&back_agg))
                .all(|op| op.dim == dim),
            "operator dimension mismatch"
        );
        SlidingProduct {
            dim,
            front,
            back,
            back_agg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{Bool, MaxLog, Prob};

    /// Deterministic pseudo-random f64 in (0, 1) — no RNG dependency.
    fn noise(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn random_op(dim: usize, seed: &mut u64) -> StepOperator<Prob> {
        let cells = (0..dim * dim)
            .map(|_| {
                let p = noise(seed);
                if p < 0.3 {
                    0.0
                } else {
                    p
                }
            })
            .collect();
        StepOperator::from_cells(dim, cells)
    }

    /// Folds `v` through each operator in order — the recompute baseline.
    fn fold_naive(ops: &[StepOperator<Prob>], v: &[f64]) -> Vec<f64> {
        let mut cur = v.to_vec();
        for op in ops {
            cur = op.apply(&cur);
        }
        cur
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let tol = 1e-12 * y.abs().max(1.0);
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn compose_then_apply_matches_sequential_apply() {
        let mut seed = 7;
        let a = random_op(5, &mut seed);
        let b = random_op(5, &mut seed);
        let v: Vec<f64> = (0..5).map(|_| noise(&mut seed)).collect();
        let direct = b.apply(&a.apply(&v));
        let composed = a.compose(&b).apply(&v);
        assert_close(&composed, &direct);
    }

    #[test]
    fn identity_is_neutral() {
        let mut seed = 9;
        let a = random_op(4, &mut seed);
        let id = StepOperator::<Prob>::identity(4);
        assert_eq!(id.compose(&a).cells(), a.cells());
        assert_eq!(a.compose(&id).cells(), a.cells());
        let v: Vec<f64> = (0..4).map(|_| noise(&mut seed)).collect();
        assert_eq!(id.apply(&v), v);
    }

    #[test]
    fn sliding_product_matches_naive_window_recompute() {
        let dim = 4;
        let window = 6;
        let mut seed = 42;
        let ops: Vec<StepOperator<Prob>> = (0..40).map(|_| random_op(dim, &mut seed)).collect();
        let v: Vec<f64> = (0..dim).map(|_| noise(&mut seed)).collect();
        let mut sw = SlidingProduct::new(dim);
        for (i, op) in ops.iter().enumerate() {
            if sw.len() == window {
                assert!(sw.evict());
            }
            sw.push(op.clone());
            let lo = (i + 1).saturating_sub(window);
            let naive = fold_naive(&ops[lo..=i], &v);
            assert_close(&sw.apply_to(&v), &naive);
            assert_close(&sw.product().apply(&v), &naive);
            assert_eq!(sw.len(), i + 1 - lo);
        }
    }

    #[test]
    fn evict_on_empty_window_is_a_no_op() {
        let mut sw: SlidingProduct<Prob> = SlidingProduct::new(3);
        assert!(!sw.evict());
        assert!(sw.is_empty());
        sw.push(StepOperator::identity(3));
        assert!(sw.evict());
        assert!(!sw.evict());
    }

    #[test]
    fn parts_round_trip_preserves_stack_state() {
        let dim = 3;
        let mut seed = 5;
        let mut sw = SlidingProduct::new(dim);
        for _ in 0..7 {
            sw.push(random_op(dim, &mut seed));
        }
        for _ in 0..3 {
            sw.evict();
        }
        let (front, back, agg) = sw.parts();
        let rebuilt = SlidingProduct::from_parts(dim, front.to_vec(), back.to_vec(), agg.clone());
        let v: Vec<f64> = (0..dim).map(|_| noise(&mut seed)).collect();
        let a = sw.apply_to(&v);
        let b = rebuilt.apply_to(&v);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bool_semiring_window_tracks_reachability() {
        // Reachability through a 3-cycle: 0→1→2→0.
        let mut shift = vec![false; 9];
        shift[1] = true; // 0→1
        shift[5] = true; // 1→2
        shift[6] = true; // 2→0
        let op = StepOperator::<Bool>::from_cells(3, shift);
        let mut sw = SlidingProduct::new(3);
        for _ in 0..3 {
            sw.push(op.clone());
        }
        let start = vec![true, false, false];
        assert_eq!(sw.apply_to(&start), vec![true, false, false]);
        sw.evict();
        assert_eq!(sw.apply_to(&start), vec![false, false, true]);
    }

    #[test]
    fn maxlog_window_takes_best_path() {
        // Two parallel edges per step; max-log keeps the better product.
        let cells = vec![(0.9f64).ln(), (0.5f64).ln(), (0.2f64).ln(), (0.8f64).ln()];
        let op = StepOperator::<MaxLog>::from_cells(2, cells);
        let mut sw = SlidingProduct::new(2);
        sw.push(op.clone());
        sw.push(op.clone());
        let v = sw.apply_to(&[0.0, f64::NEG_INFINITY]);
        // Best 2-step paths from state 0: to 0 via 0→0→0 (0.81);
        // to 1 via max(0→0→1 = 0.45, 0→1→1 = 0.4) = 0.45.
        assert!((v[0] - (0.81f64).ln()).abs() < 1e-12);
        assert!((v[1] - (0.45f64).ln()).abs() < 1e-12);
    }
}
