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
//!
//! ## Cost per tick
//!
//! A tick is one push plus, amortized, one evict: two `m³` compositions
//! at most, of which the push is the dense one (the running product
//! times the new step). [`StepOperator::compose`] and
//! [`StepOperator::apply`] run one vector–matrix kernel: for each output
//! row, a block of up to 16 columns is held in a local accumulator while
//! the rows of the right operand stream past, so the inner loop is a
//! straight run of multiply-adds with no test per product. Zero entries
//! of the *left* operand still skip their whole row of products — a
//! lifted step holds at most `|Σ|` nonzeros per row, so a flip's
//! compositions cost `m²·|Σ|`, not `m³`.
//!
//! Skipping a zero product is only a speed choice, never a numerical
//! one: for every value a semiring holds here — finite, non-negative
//! probabilities for [`Prob`](crate::Prob), `ln` weights short of `+∞`
//! for [`MaxLog`](crate::MaxLog) — `accum(o, mul(a, 0)) == o` bit for
//! bit (`o + 0.0` is `o` for any `o` but `-0.0`, which no accumulator
//! starting at `+0.0` reaches; `max(o, −∞)` is `o`; `o ∨ false` is `o`).
//! Every cell therefore still adds exactly the products the old
//! test-per-product loop added, in ascending `mid` order, and returns
//! the same bits (`crates/kernel/tests/compose_pin.rs` pins it). On
//! x86-64 with AVX2 the same kernel is compiled for 256-bit lanes
//! behind [`crate::exec::simd_enabled`]; lanes are separate IEEE-754
//! multiplies and adds (never fused), so both paths agree bitwise.
//!
//! ## Buffer recycling
//!
//! [`SlidingProduct`] keeps the `m²` cell buffers of the operators it
//! evicts and of the running products it replaces, at most two of them,
//! and builds every new operator and product in one of those
//! ([`SlidingProduct::push_with`], [`StepOperator::compose_into`]). Once
//! a window has filled, a tick allocates nothing.

use crate::semiring::Semiring;

/// Columns a vector–matrix product accumulates at once. Sixteen `f64`s
/// are four AVX2 (eight SSE2) registers, four independent add chains per
/// step of `mid`, which hides the add latency a narrower block stalls
/// on: a `|Σ|` = 4 window (`m` = 16) ticked in about 1.0 µs with blocks
/// of 16 against 1.8 µs with blocks of 8. Narrower tails run in blocks
/// of eight, four, two and one.
const BLOCK: usize = 16;

/// Evicted cell buffers a [`SlidingProduct`] keeps for reuse. A
/// steady-state tick takes two (the new step and the new running product)
/// and gives two back (the evicted operator and the old running product);
/// a flip takes one per composed suffix product and returns the raw
/// operator it consumed.
const SPARE_BUFFERS: usize = 2;

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
        let mut op = StepOperator {
            dim,
            cells: Vec::new(),
        };
        op.set_identity();
        op
    }

    /// Overwrites the operator with the identity, reusing its buffer.
    fn set_identity(&mut self) {
        let m = self.dim;
        self.cells.clear();
        self.cells.resize(m * m, S::zero());
        for r in 0..m {
            self.cells[r * m + r] = S::one();
        }
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
    /// O(m²) per nonzero column of `self`'s rows, O(m³) at most; see
    /// [`StepOperator::compose_into`].
    pub fn compose(&self, other: &StepOperator<S>) -> StepOperator<S> {
        let mut out = StepOperator {
            dim: self.dim,
            cells: Vec::new(),
        };
        self.compose_into(other, &mut out);
        out
    }

    /// [`StepOperator::compose`] into `out`, reusing its buffer: every
    /// cell of `out` is overwritten. Row `r` of the product is row `r` of
    /// `self` pushed through `other`, each cell summing its products in
    /// ascending `mid` order.
    ///
    /// # Panics
    /// If the dimensions differ.
    pub fn compose_into(&self, other: &StepOperator<S>, out: &mut StepOperator<S>) {
        assert_eq!(self.dim, other.dim, "operator dimension mismatch");
        let m = self.dim;
        out.dim = m;
        out.cells.resize(m * m, S::zero());
        rows_times::<S>(m, &self.cells, &other.cells, &mut out.cells);
    }

    /// `v · self` — pushes a state vector through the operator in O(m²).
    ///
    /// # Panics
    /// If `v.len() != dim`.
    pub fn apply(&self, v: &[S::Elem]) -> Vec<S::Elem> {
        let mut out = Vec::new();
        self.apply_into(v, &mut out);
        out
    }

    /// [`StepOperator::apply`] into `out`, which is resized to `dim` and
    /// overwritten. Each cell sums its products in ascending row order,
    /// skipping the rows where `v` is zero.
    ///
    /// # Panics
    /// If `v.len() != dim`.
    pub fn apply_into(&self, v: &[S::Elem], out: &mut Vec<S::Elem>) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        out.resize(self.dim, S::zero());
        rows_times::<S>(self.dim, v, &self.cells, out);
    }
}

/// `out = a · b` for the rows of `a` (`a.len() / m` of them) against the
/// `m × m` matrix `b`. Dispatches once per call to the AVX2 build of the
/// same kernel when [`crate::exec::simd_enabled`].
fn rows_times<S: Semiring>(m: usize, a: &[S::Elem], b: &[S::Elem], out: &mut [S::Elem]) {
    #[cfg(target_arch = "x86_64")]
    if crate::exec::simd_enabled() {
        // SAFETY: `simd_enabled` verified AVX2 support at runtime.
        unsafe { rows_times_avx2::<S>(m, a, b, out) };
        return;
    }
    rows_times_kernel::<S>(m, a, b, out);
}

/// [`rows_times_kernel`] compiled for AVX2: the block loops become 256-bit
/// multiplies and adds (or compares and blends), lane for lane the
/// scalar operations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_times_avx2<S: Semiring>(
    m: usize,
    a: &[S::Elem],
    b: &[S::Elem],
    out: &mut [S::Elem],
) {
    rows_times_kernel::<S>(m, a, b, out);
}

#[inline(always)]
fn rows_times_kernel<S: Semiring>(m: usize, a: &[S::Elem], b: &[S::Elem], out: &mut [S::Elem]) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), m * m);
    if m == 0 {
        return;
    }
    for (a_row, o_row) in a.chunks_exact(m).zip(out.chunks_exact_mut(m)) {
        let mut c0 = 0;
        while c0 + BLOCK <= m {
            column_block::<S, BLOCK>(m, a_row, b, c0, o_row);
            c0 += BLOCK;
        }
        if c0 + 8 <= m {
            column_block::<S, 8>(m, a_row, b, c0, o_row);
            c0 += 8;
        }
        if c0 + 4 <= m {
            column_block::<S, 4>(m, a_row, b, c0, o_row);
            c0 += 4;
        }
        if c0 + 2 <= m {
            column_block::<S, 2>(m, a_row, b, c0, o_row);
            c0 += 2;
        }
        if c0 < m {
            column_block::<S, 1>(m, a_row, b, c0, o_row);
        }
    }
}

/// Columns `c0 .. c0 + W` of `a_row · b`: `W` accumulators start at zero
/// and take `a_row[mid] · b[mid][c]` for every nonzero `a_row[mid]`, in
/// ascending `mid`, with no test on the product.
#[inline(always)]
fn column_block<S: Semiring, const W: usize>(
    m: usize,
    a_row: &[S::Elem],
    b: &[S::Elem],
    c0: usize,
    o_row: &mut [S::Elem],
) {
    let mut acc = [S::zero(); W];
    for (mid, &x) in a_row.iter().enumerate() {
        if S::is_zero(x) {
            continue;
        }
        let b_blk: &[S::Elem; W] = b[mid * m + c0..mid * m + c0 + W]
            .try_into()
            .expect("block lies inside the row");
        for (o, &y) in acc.iter_mut().zip(b_blk) {
            S::accum(o, S::mul(x, y));
        }
    }
    o_row[c0..c0 + W].copy_from_slice(&acc);
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
///   composition per tick. The newest operator moves over as it is: its
///   suffix product is itself (composing it with the identity returns
///   its bits).
///
/// Querying never composes: [`SlidingProduct::apply_into`] pushes a
/// vector through the front's top suffix product and then `back_agg`,
/// two O(m²) applies. Evicted buffers are recycled (see the module docs).
pub struct SlidingProduct<S: Semiring> {
    dim: usize,
    /// Suffix products of the older operators; `last()` covers every
    /// front operator, and popping it evicts exactly the oldest.
    front: Vec<StepOperator<S>>,
    /// Raw operators in arrival order since the last flip.
    back: Vec<StepOperator<S>>,
    /// Product of everything in `back` (identity when empty).
    back_agg: StepOperator<S>,
    /// Up to [`SPARE_BUFFERS`] retired operators whose cells the next
    /// push or composition overwrites.
    spare: Vec<StepOperator<S>>,
}

impl<S: Semiring> Clone for SlidingProduct<S> {
    fn clone(&self) -> Self {
        SlidingProduct {
            dim: self.dim,
            front: self.front.clone(),
            back: self.back.clone(),
            back_agg: self.back_agg.clone(),
            spare: Vec::new(),
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
        SlidingProduct::from_parts(dim, Vec::new(), Vec::new(), StepOperator::identity(dim))
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

    /// A retired operator to overwrite, or an empty one when none is kept.
    fn take_spare(&mut self) -> StepOperator<S> {
        self.spare.pop().unwrap_or(StepOperator {
            dim: self.dim,
            cells: Vec::new(),
        })
    }

    fn recycle(&mut self, op: StepOperator<S>) {
        if self.spare.len() < SPARE_BUFFERS {
            self.spare.push(op);
        }
    }

    /// Appends the newest step operator (one composition).
    pub fn push(&mut self, op: StepOperator<S>) {
        assert_eq!(op.dim, self.dim, "operator dimension mismatch");
        let mut agg = self.take_spare();
        self.back_agg.compose_into(&op, &mut agg);
        let old = std::mem::replace(&mut self.back_agg, agg);
        self.recycle(old);
        self.back.push(op);
    }

    /// [`SlidingProduct::push`] of an operator that `fill` writes into a
    /// recycled buffer, handed over as `m²` zero cells.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut [S::Elem])) {
        let mut op = self.take_spare();
        op.cells.clear();
        op.cells.resize(self.dim * self.dim, S::zero());
        fill(&mut op.cells);
        self.push(op);
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
            while let Some(op) = self.back.pop() {
                if self.front.is_empty() {
                    self.front.push(op);
                    continue;
                }
                let mut suffix = self.take_spare();
                op.compose_into(self.front.last().expect("front is not empty"), &mut suffix);
                self.front.push(suffix);
                self.recycle(op);
            }
            self.back_agg.set_identity();
        }
        let oldest = self.front.pop().expect("front holds the oldest operator");
        self.recycle(oldest);
        true
    }

    /// Pushes `v` through the window's product (front suffix product, then
    /// back product) into `out`, with `tmp` as scratch: two O(m²) applies,
    /// no composition, and no allocation once both buffers have held `m`
    /// cells.
    pub fn apply_into(&self, v: &[S::Elem], tmp: &mut Vec<S::Elem>, out: &mut Vec<S::Elem>) {
        match self.front.last() {
            Some(f) => {
                f.apply_into(v, tmp);
                self.back_agg.apply_into(tmp, out);
            }
            None => self.back_agg.apply_into(v, out),
        }
    }

    /// [`SlidingProduct::apply_into`] into fresh buffers.
    pub fn apply_to(&self, v: &[S::Elem]) -> Vec<S::Elem> {
        let mut out = Vec::new();
        self.apply_into(v, &mut Vec::new(), &mut out);
        out
    }

    /// The window's full product as one operator (one composition; prefer
    /// [`SlidingProduct::apply_into`] on the hot path).
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
            spare: Vec::new(),
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
