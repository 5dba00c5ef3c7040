//! The core [`MarkovSequence`] model and its builder.

use std::fmt;
use std::sync::Arc;

use rand::{Rng, RngExt};
use transmark_automata::{Alphabet, SymbolId};

use crate::error::MarkovError;
use crate::numeric::{approx_eq, KahanSum, DIST_TOLERANCE};

/// A Markov sequence `μ[n]` over state nodes `Σ` (§3.1 of the paper).
///
/// * `initial[s]` is `μ₀→(s)`.
/// * `transition(i)` (for `0 ≤ i < n-1`) is the matrix coupling positions
///   `i` and `i+1` (the paper's `μ_{i+1→}`, shifted to 0-based), stored
///   row-major: entry `from * |Σ| + to`.
///
/// The structure is immutable after construction and validated: every row
/// of every transition matrix and the initial vector sum to 1 within
/// [`DIST_TOLERANCE`]. The alphabet is shared via `Arc` so that slicing
/// and the workload generators stay cheap.
#[derive(Clone)]
pub struct MarkovSequence {
    alphabet: Arc<Alphabet>,
    n: usize,
    initial: Vec<f64>,
    /// The `n - 1` row-major `|Σ|×|Σ|` matrices, back to back in one
    /// contiguous buffer with stride `|Σ|²` (SoA layout). Step `i`'s
    /// matrix is `transitions[i·|Σ|² .. (i+1)·|Σ|²]`.
    transitions: Vec<f64>,
    /// Count of strictly positive entries in `transitions`, tallied once
    /// at construction (piggybacking the validation pass); the planner's
    /// execution-strategy choice reads the derived [`Self::density`]
    /// instead of rescanning `n·|Σ|²` floats per bind.
    nnz: usize,
}

/// Strictly positive transition entries in a flat layer buffer.
fn count_nnz(transitions: &[f64]) -> usize {
    transitions.iter().filter(|&&p| p > 0.0).count()
}

impl fmt::Debug for MarkovSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MarkovSequence")
            .field("n", &self.n)
            .field("n_symbols", &self.alphabet.len())
            .finish_non_exhaustive()
    }
}

impl MarkovSequence {
    /// The sequence length `n` (number of random variables `S₁…Sₙ`).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `n ≥ 1` always holds, so this is always `false`; provided for
    /// clippy-idiomatic call sites.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shared node alphabet `Σ_μ`.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The shared alphabet handle.
    pub fn alphabet_arc(&self) -> Arc<Alphabet> {
        Arc::clone(&self.alphabet)
    }

    /// A borrow of the shared alphabet handle (no refcount traffic).
    #[inline]
    pub fn alphabet_ref(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// Alphabet size `|Σ_μ|`.
    #[inline]
    pub fn n_symbols(&self) -> usize {
        self.alphabet.len()
    }

    /// `μ₀→(s)`.
    #[inline]
    pub fn initial_prob(&self, s: SymbolId) -> f64 {
        self.initial[s.index()]
    }

    /// The initial distribution as a slice.
    #[inline]
    pub fn initial_dist(&self) -> &[f64] {
        &self.initial
    }

    /// `μ_{i+1→}(from, to)` — the probability of moving from node `from`
    /// at position `i` to node `to` at position `i+1` (0-based positions,
    /// `0 ≤ i < n-1`).
    #[inline]
    pub fn transition_prob(&self, i: usize, from: SymbolId, to: SymbolId) -> f64 {
        let k = self.alphabet.len();
        self.transitions[i * k * k + from.index() * k + to.index()]
    }

    /// The row `μ_{i+1→}(from, ·)` as a slice.
    #[inline]
    pub fn transition_row(&self, i: usize, from: SymbolId) -> &[f64] {
        let k = self.alphabet.len();
        let base = i * k * k + from.index() * k;
        &self.transitions[base..base + k]
    }

    /// The whole step-`i` matrix as a row-major `|Σ|²` slice.
    #[inline]
    pub fn transition_matrix(&self, i: usize) -> &[f64] {
        let kk = self.alphabet.len() * self.alphabet.len();
        &self.transitions[i * kk..(i + 1) * kk]
    }

    /// All `n−1` transition matrices, back to back (stride `|Σ|²`) — the
    /// contiguous buffer backing the sequence. Binary writers and the
    /// window slicer read this directly.
    #[inline]
    pub fn transitions_flat(&self) -> &[f64] {
        &self.transitions
    }

    /// Count of strictly positive transition entries across all `n−1`
    /// matrices, tallied once at construction.
    #[inline]
    pub fn transition_nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of transition entries that are strictly positive, in
    /// `[0, 1]`. The planner's execution-strategy heuristic compares this
    /// against its dense threshold at bind time. A length-1 sequence has
    /// no transitions and reports `1.0` (trivially dense).
    #[inline]
    pub fn density(&self) -> f64 {
        if self.transitions.is_empty() {
            1.0
        } else {
            self.nnz as f64 / self.transitions.len() as f64
        }
    }

    /// The dense execution view over this sequence's contiguous layer
    /// buffer: no CSR build, just the nonzero initial entries plus a
    /// borrow of [`MarkovSequence::transitions_flat`]. O(|Σ|) to
    /// construct — the whole point of the dense strategy for tiny binds.
    pub fn dense_steps(&self) -> transmark_kernel::DenseSteps<'_> {
        transmark_kernel::DenseSteps::new(self.alphabet.len(), &self.initial, &self.transitions)
    }

    /// The nonzero entries of the row `μ_{i+1→}(from, ·)`, in ascending
    /// target order. The sparse counterpart of
    /// [`MarkovSequence::transition_row`]: scans that skip zero-probability
    /// targets should iterate this instead of testing each dense entry.
    #[inline]
    pub fn transitions_from(
        &self,
        i: usize,
        from: SymbolId,
    ) -> impl Iterator<Item = (SymbolId, f64)> + '_ {
        self.transition_row(i, from)
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(|(to, &p)| (SymbolId(to as u32), p))
    }

    /// Flattens the chain into the kernel's CSR form: one sparse row per
    /// `(step, node)` holding its entries `p > 0.0` in ascending target
    /// order, fed to the `transmark_kernel::dp` drivers. A bind builds it
    /// at most once, when `top` on a sparse bind or an enumerating method
    /// first asks. Rows keep the order of the dense rows, so a DP over
    /// the CSR accumulates in the same sequence as one that scans the
    /// dense rows and skips zeros. The entry array is sized from
    /// [`MarkovSequence::transition_nnz`] and filled by a branch-free
    /// cursor ([`transmark_kernel::SparseSteps::from_dense`]).
    pub fn sparse_steps(&self) -> transmark_kernel::SparseSteps {
        let t = transmark_obs::Timer::start();
        let steps = transmark_kernel::SparseSteps::from_dense(
            self.alphabet.len(),
            &self.initial,
            &self.transitions,
            self.nnz,
        );
        t.observe(transmark_obs::histogram!("kernel.csr.build_ns"));
        steps
    }

    /// A rewindable [`crate::source::StepSource`] cursor over this
    /// in-memory sequence — the reference implementation the streamed
    /// readers are pinned bit-identical against.
    pub fn step_source(&self) -> crate::source::SequenceSource<'_> {
        crate::source::SequenceSource::new(self)
    }

    /// Eq. (1): the probability `p(s)` of a full string `s ∈ Σⁿ`.
    pub fn string_probability(&self, s: &[SymbolId]) -> Result<f64, MarkovError> {
        if s.len() != self.n {
            return Err(MarkovError::LengthMismatch {
                expected: self.n,
                actual: s.len(),
            });
        }
        let mut p = self.initial_prob(s[0]);
        for i in 0..self.n - 1 {
            if p == 0.0 {
                return Ok(0.0);
            }
            p *= self.transition_prob(i, s[i], s[i + 1]);
        }
        Ok(p)
    }

    /// `ln p(s)`, `-∞` for impossible strings.
    pub fn log_string_probability(&self, s: &[SymbolId]) -> Result<f64, MarkovError> {
        Ok(self.string_probability(s)?.ln())
    }

    /// Whether `p(s) > 0`.
    pub fn is_possible(&self, s: &[SymbolId]) -> Result<bool, MarkovError> {
        Ok(self.string_probability(s)? > 0.0)
    }

    /// Samples one string from the distribution. Transition rows are
    /// walked through [`MarkovSequence::transitions_from`], so zero
    /// entries cost nothing; they also absorb none of the uniform draw,
    /// so the sampled strings are identical to a dense walk.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<SymbolId> {
        let mut out = Vec::with_capacity(self.n);
        let first = sample_index(&self.initial, rng);
        out.push(SymbolId(first as u32));
        for i in 0..self.n - 1 {
            let from = *out.last().expect("nonempty");
            let mut u: f64 = rng.random();
            let mut chosen = None;
            let mut last = None;
            for (to, p) in self.transitions_from(i, from) {
                last = Some(to);
                if u < p {
                    chosen = Some(to);
                    break;
                }
                u -= p;
            }
            // Rounding can leave `u` past the end: take the last positive
            // entry, as the dense walk did.
            out.push(chosen.or(last).expect("distribution has positive mass"));
        }
        out
    }

    /// The marginal distributions `Pr(Sᵢ = s)` for every position, via a
    /// forward pass (the chain is already normalized, so no backward pass
    /// is needed).
    pub fn marginals(&self) -> Vec<Vec<f64>> {
        let k = self.alphabet.len();
        let mut out = Vec::with_capacity(self.n);
        out.push(self.initial.clone());
        for i in 0..self.n - 1 {
            let prev = &out[i];
            let mut next = vec![KahanSum::new(); k];
            for (from, &pf) in prev.iter().enumerate() {
                if pf == 0.0 {
                    continue;
                }
                for (to, pt) in self.transitions_from(i, SymbolId(from as u32)) {
                    next[to.index()].add(pf * pt);
                }
            }
            out.push(next.into_iter().map(|a| a.total()).collect());
        }
        out
    }

    /// The most likely string and its probability (Viterbi over the
    /// chain). Useful as a baseline and for tests.
    pub fn most_likely_string(&self) -> (Vec<SymbolId>, f64) {
        let k = self.alphabet.len();
        // Work in log space; track back-pointers.
        let mut score: Vec<f64> = self.initial.iter().map(|p| p.ln()).collect();
        let mut back: Vec<Vec<usize>> = Vec::with_capacity(self.n.saturating_sub(1));
        for i in 0..self.n - 1 {
            let mut next = vec![f64::NEG_INFINITY; k];
            let mut arg = vec![0usize; k];
            for from in 0..k {
                if score[from] == f64::NEG_INFINITY {
                    continue;
                }
                let row = self.transition_row(i, SymbolId(from as u32));
                for (to, &p) in row.iter().enumerate() {
                    if p > 0.0 {
                        let cand = score[from] + p.ln();
                        if cand > next[to] {
                            next[to] = cand;
                            arg[to] = from;
                        }
                    }
                }
            }
            score = next;
            back.push(arg);
        }
        let (mut best, mut best_score) = (0usize, f64::NEG_INFINITY);
        for (s, &v) in score.iter().enumerate() {
            if v > best_score {
                best_score = v;
                best = s;
            }
        }
        let mut path = vec![best];
        for arg in back.iter().rev() {
            path.push(arg[*path.last().expect("nonempty")]);
        }
        path.reverse();
        (
            path.into_iter().map(|i| SymbolId(i as u32)).collect(),
            best_score.exp(),
        )
    }

    /// Concatenates `self` with `other` (which must share the alphabet),
    /// gluing them with the transition matrix `glue` (row-major `|Σ|²`).
    /// Used by the hardness-gadget amplification of Theorems 4.4/4.5
    /// ("concatenating a polynomial number of copies of the given Markov
    /// sequence").
    pub fn concat(
        &self,
        glue: &[f64],
        other: &MarkovSequence,
    ) -> Result<MarkovSequence, MarkovError> {
        let k = self.alphabet.len();
        if other.alphabet.len() != k {
            return Err(MarkovError::AlphabetMismatch {
                left: k,
                right: other.alphabet.len(),
            });
        }
        if glue.len() != k * k {
            return Err(MarkovError::LengthMismatch {
                expected: k * k,
                actual: glue.len(),
            });
        }
        validate_matrix(glue, k, "transition", self.n - 1)?;
        // The glued chain ignores `other`'s initial distribution: positions
        // after the glue step follow `glue` then `other`'s transitions.
        let mut transitions = self.transitions.clone();
        transitions.extend_from_slice(glue);
        transitions.extend_from_slice(&other.transitions);
        let nnz = self.nnz + count_nnz(glue) + other.nnz;
        Ok(MarkovSequence {
            alphabet: Arc::clone(&self.alphabet),
            n: self.n + other.n,
            initial: self.initial.clone(),
            transitions,
            nnz,
        })
    }
}

/// Samples an index from an unnormalized-but-valid distribution slice.
fn sample_index<R: Rng + ?Sized>(dist: &[f64], rng: &mut R) -> usize {
    let mut u: f64 = rng.random();
    for (i, &p) in dist.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    // Rounding left us past the end: return the last positive entry.
    dist.iter()
        .rposition(|&p| p > 0.0)
        .expect("distribution has positive mass")
}

/// Whether `row` is certainly a distribution, by one branch-free pass:
/// every entry is a finite nonnegative number, and the entries' sum over
/// 8 independent lanes lies within [`DIST_TOLERANCE`] of 1 by more than
/// the rounding error any summation order can make.
///
/// For nonnegative entries with true sum `S`, both this sum and the
/// Neumaier total of [`exact_row`] lie within about `(len + 1)·u·S` of
/// `S` (`u = ε/2`), so they differ by less than `(len + 4)·ε·fast`. A row
/// accepted here therefore has a Neumaier total within the tolerance,
/// which [`exact_row`] accepts too. Any other row, invalid or merely near
/// the tolerance's edge, is left to [`exact_row`], so every decision and
/// every error value is the exact check's own. `-0.0` passes both tests;
/// NaN and ±∞ fail the first.
#[inline]
fn certainly_distribution(row: &[f64]) -> bool {
    let mut lanes = [0.0f64; 8];
    let mut finite_nonneg = true;
    let mut add = |chunk: &[f64]| {
        for (lane, &p) in lanes.iter_mut().zip(chunk) {
            finite_nonneg &= (0.0..=f64::MAX).contains(&p);
            *lane += p;
        }
    };
    let chunks = row.chunks_exact(8);
    let tail = chunks.remainder();
    chunks.for_each(&mut add);
    add(tail);
    let fast = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    let margin = (row.len() + 4) as f64 * f64::EPSILON * fast;
    finite_nonneg && (fast - 1.0).abs() <= DIST_TOLERANCE - margin
}

/// The exact row check: a serial Neumaier sum that stops at the first
/// entry that is not a finite nonnegative number. The fallback of
/// [`certainly_distribution`], and the definition of what a valid row is.
fn exact_row(
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

/// Counts the rows that fell back to the exact check, once per call, so
/// a slow hostile input is explainable while valid input pays no atomic.
fn record_exact_rows(exact_rows: u64) {
    if exact_rows > 0 {
        transmark_obs::counter!("dataplane.validate.exact_rows").add(exact_rows);
    }
}

pub(crate) fn validate_vector(
    v: &[f64],
    what: &'static str,
    position: usize,
) -> Result<(), MarkovError> {
    if certainly_distribution(v) {
        return Ok(());
    }
    record_exact_rows(1);
    exact_row(v, what, position, 0)
}

pub(crate) fn validate_matrix(
    m: &[f64],
    k: usize,
    what: &'static str,
    position: usize,
) -> Result<(), MarkovError> {
    let mut exact_rows = 0;
    let result = (0..k).try_for_each(|row| {
        let slice = &m[row * k..(row + 1) * k];
        if certainly_distribution(slice) {
            return Ok(());
        }
        exact_rows += 1;
        exact_row(slice, what, position, row)
    });
    record_exact_rows(exact_rows);
    result
}

impl MarkovSequence {
    /// A time-homogeneous chain: one transition matrix used at every step
    /// (the common special case — stationary dynamics observed for `n`
    /// steps). `matrix` is row-major `|Σ|²`; validated like any chain.
    pub fn homogeneous(
        alphabet: impl Into<Arc<Alphabet>>,
        n: usize,
        initial: &[f64],
        matrix: &[f64],
    ) -> Result<MarkovSequence, MarkovError> {
        let alphabet = alphabet.into();
        let mut b = MarkovSequenceBuilder::new(Arc::clone(&alphabet), n).initial_dist(initial);
        for i in 0..n.saturating_sub(1) {
            b = b.transition_matrix(i, matrix);
        }
        b.build()
    }
}

/// Builder for [`MarkovSequence`].
///
/// Probabilities default to 0; set the nonzero entries and call
/// [`MarkovSequenceBuilder::build`], which validates that every row is a
/// distribution. Rows can also be filled with
/// [`MarkovSequenceBuilder::uniform_row`] /
/// [`MarkovSequenceBuilder::uniform_all`].
pub struct MarkovSequenceBuilder {
    alphabet: Arc<Alphabet>,
    n: usize,
    initial: Vec<f64>,
    /// Flat stride-`|Σ|²` buffer, same layout as the built sequence.
    transitions: Vec<f64>,
}

impl MarkovSequenceBuilder {
    /// Starts building a sequence of length `n` over `alphabet`. Panics
    /// if the `(n−1)·|Σ|²` transition cells overflow `usize`.
    pub fn new(alphabet: impl Into<Arc<Alphabet>>, n: usize) -> Self {
        let alphabet = alphabet.into();
        let k = alphabet.len();
        let cells = k
            .checked_mul(k)
            .and_then(|kk| kk.checked_mul(n.saturating_sub(1)))
            .unwrap_or_else(|| panic!("a length-{n} sequence over {k} symbols overflows"));
        Self {
            n,
            initial: vec![0.0; k],
            transitions: vec![0.0; cells],
            alphabet,
        }
    }

    /// Sets `μ₀→(s) = p`.
    pub fn initial(mut self, s: SymbolId, p: f64) -> Self {
        self.initial[s.index()] = p;
        self
    }

    /// Sets the whole initial distribution.
    pub fn initial_dist(mut self, dist: &[f64]) -> Self {
        self.initial.copy_from_slice(dist);
        self
    }

    /// Sets `μ_{i+1→}(from, to) = p` (0-based step `i`, `0 ≤ i < n-1`).
    pub fn transition(mut self, i: usize, from: SymbolId, to: SymbolId, p: f64) -> Self {
        let k = self.alphabet.len();
        self.transitions[i * k * k + from.index() * k + to.index()] = p;
        self
    }

    /// Replaces the whole step-`i` matrix (row-major `|Σ|²`).
    pub fn transition_matrix(mut self, i: usize, matrix: &[f64]) -> Self {
        let kk = self.alphabet.len() * self.alphabet.len();
        self.transitions[i * kk..(i + 1) * kk].copy_from_slice(matrix);
        self
    }

    /// Makes the step-`i` row of `from` uniform over all nodes.
    pub fn uniform_row(mut self, i: usize, from: SymbolId) -> Self {
        let k = self.alphabet.len();
        let p = 1.0 / k as f64;
        let base = i * k * k + from.index() * k;
        for to in 0..k {
            self.transitions[base + to] = p;
        }
        self
    }

    /// Makes every row of every step uniform, and the initial distribution
    /// uniform. A convenient starting point that later `transition` /
    /// `initial` calls can override (override whole rows to keep them
    /// summing to 1).
    pub fn uniform_all(mut self) -> Self {
        let k = self.alphabet.len();
        let p = 1.0 / k as f64;
        self.initial = vec![p; k];
        for v in self.transitions.iter_mut() {
            *v = p;
        }
        self
    }

    /// For rows the query can never reach (e.g. after a zero-probability
    /// node) it is still mandatory — per the paper's definition — that the
    /// row be a distribution. `fill_dead_rows_self_loop` turns every
    /// all-zero row into a deterministic self-loop.
    pub fn fill_dead_rows_self_loop(mut self) -> Self {
        let k = self.alphabet.len();
        if k == 0 {
            return self;
        }
        for (r, row) in self.transitions.chunks_exact_mut(k).enumerate() {
            if row.iter().all(|&p| p == 0.0) {
                row[r % k] = 1.0;
            }
        }
        self
    }

    /// Validates and builds.
    pub fn build(self) -> Result<MarkovSequence, MarkovError> {
        if self.n == 0 {
            return Err(MarkovError::EmptySequence);
        }
        validate_vector(&self.initial, "initial", 0)?;
        let k = self.alphabet.len();
        for (i, m) in self.transitions.chunks_exact(k * k).enumerate() {
            validate_matrix(m, k, "transition", i)?;
        }
        let nnz = count_nnz(&self.transitions);
        Ok(MarkovSequence {
            alphabet: self.alphabet,
            n: self.n,
            initial: self.initial,
            transitions: self.transitions,
            nnz,
        })
    }
}

/// Internal constructor used by the translation front-ends (`hmm`,
/// `factors`) and the binary reader, which produce already-validated rows.
/// `transitions` is the flat stride-`|Σ|²` buffer; `n` is derived from its
/// length.
pub(crate) fn from_validated_parts(
    alphabet: Arc<Alphabet>,
    initial: Vec<f64>,
    transitions: Vec<f64>,
) -> MarkovSequence {
    let kk = alphabet.len() * alphabet.len();
    debug_assert!(kk > 0, "alphabet must be nonempty");
    debug_assert_eq!(
        transitions.len() % kk,
        0,
        "flat buffer must be whole matrices"
    );
    let n = transitions.len() / kk + 1;
    let nnz = count_nnz(&transitions);
    MarkovSequence {
        alphabet,
        n,
        initial,
        transitions,
        nnz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    #[should_panic(expected = "overflows")]
    fn builder_rejects_an_overflowing_size() {
        let _ = MarkovSequenceBuilder::new(Alphabet::from_names(["x", "y", "z"]), usize::MAX);
    }

    fn two_step() -> MarkovSequence {
        let alphabet = Alphabet::from_names(["x", "y"]);
        let (x, y) = (alphabet.sym("x"), alphabet.sym("y"));
        MarkovSequenceBuilder::new(alphabet, 3)
            .initial(x, 0.25)
            .initial(y, 0.75)
            .transition(0, x, x, 0.5)
            .transition(0, x, y, 0.5)
            .transition(0, y, x, 1.0)
            .transition(1, x, y, 1.0)
            .transition(1, y, y, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn eq1_string_probability() {
        let m = two_step();
        let a = m.alphabet().clone();
        let (x, y) = (a.sym("x"), a.sym("y"));
        assert_eq!(m.string_probability(&[x, x, y]).unwrap(), 0.25 * 0.5 * 1.0);
        assert_eq!(m.string_probability(&[y, x, y]).unwrap(), 0.75 * 1.0 * 1.0);
        assert_eq!(m.string_probability(&[y, y, y]).unwrap(), 0.0);
        assert!(m.is_possible(&[x, y, y]).unwrap());
        assert!(!m.is_possible(&[x, x, x]).unwrap());
    }

    #[test]
    fn wrong_length_is_an_error() {
        let m = two_step();
        let x = m.alphabet().sym("x");
        assert!(matches!(
            m.string_probability(&[x]),
            Err(MarkovError::LengthMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn build_rejects_bad_rows() {
        let alphabet = Alphabet::from_names(["x", "y"]);
        let x = alphabet.sym("x");
        let err = MarkovSequenceBuilder::new(alphabet.clone(), 2)
            .initial(x, 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            MarkovError::NotADistribution {
                what: "transition",
                ..
            }
        ));

        let err2 = MarkovSequenceBuilder::new(alphabet.clone(), 1)
            .initial(x, 0.5)
            .build()
            .unwrap_err();
        assert!(matches!(
            err2,
            MarkovError::NotADistribution {
                what: "initial",
                ..
            }
        ));

        let err3 = MarkovSequenceBuilder::new(alphabet, 1)
            .initial(x, -1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err3, MarkovError::InvalidProbability { .. }));
    }

    #[test]
    fn zero_length_rejected() {
        let alphabet = Alphabet::from_names(["x"]);
        assert!(matches!(
            MarkovSequenceBuilder::new(alphabet, 0).build(),
            Err(MarkovError::EmptySequence)
        ));
    }

    #[test]
    fn fill_dead_rows_makes_build_pass() {
        let alphabet = Alphabet::from_names(["x", "y"]);
        let x = alphabet.sym("x");
        let y = alphabet.sym("y");
        let m = MarkovSequenceBuilder::new(alphabet, 2)
            .initial(x, 1.0)
            .transition(0, x, y, 1.0)
            .fill_dead_rows_self_loop()
            .build()
            .unwrap();
        assert_eq!(m.transition_prob(0, y, y), 1.0);
    }

    #[test]
    fn marginals_sum_to_one_and_match_chain() {
        let m = two_step();
        let marg = m.marginals();
        assert_eq!(marg.len(), 3);
        for dist in &marg {
            let s: f64 = dist.iter().sum();
            assert!(approx_eq(s, 1.0, 1e-12, 0.0), "sum {s}");
        }
        // Position 1: P(x) = 0.25·0.5 + 0.75·1.0
        assert!(approx_eq(marg[1][0], 0.25 * 0.5 + 0.75, 1e-12, 0.0));
        // Position 2: everything funnels to y.
        assert!(approx_eq(marg[2][1], 1.0, 1e-12, 0.0));
    }

    #[test]
    fn most_likely_string_is_argmax() {
        let m = two_step();
        let a = m.alphabet().clone();
        let (x, y) = (a.sym("x"), a.sym("y"));
        let (best, p) = m.most_likely_string();
        assert_eq!(best, vec![y, x, y]);
        assert!(approx_eq(p, 0.75, 1e-12, 0.0));
    }

    #[test]
    fn sampling_matches_distribution() {
        let m = two_step();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20_000;
        let mut count_yxy = 0usize;
        for _ in 0..trials {
            let s = m.sample(&mut rng);
            assert!(m.is_possible(&s).unwrap(), "sampled impossible string");
            let a = m.alphabet();
            if s == [a.sym("y"), a.sym("x"), a.sym("y")] {
                count_yxy += 1;
            }
        }
        let freq = count_yxy as f64 / trials as f64;
        assert!((freq - 0.75).abs() < 0.02, "freq {freq} far from 0.75");
    }

    #[test]
    fn sparse_views_match_dense_rows() {
        let m = two_step();
        let a = m.alphabet().clone();
        let (x, y) = (a.sym("x"), a.sym("y"));
        let got: Vec<_> = m.transitions_from(0, x).collect();
        assert_eq!(got, vec![(x, 0.5), (y, 0.5)]);
        let got: Vec<_> = m.transitions_from(1, x).collect();
        assert_eq!(got, vec![(y, 1.0)]); // the x→x zero is skipped
        let steps = m.sparse_steps();
        assert_eq!(steps.n_nodes(), 2);
        assert_eq!(steps.n_steps(), 2);
        assert_eq!(steps.initial(), &[(0, 0.25), (1, 0.75)]);
        assert_eq!(steps.row(0, 1), &[(0, 1.0)]); // y→x at step 0
        assert_eq!(steps.row(1, 1), &[(1, 1.0)]);
    }

    #[test]
    fn concat_glues_chains() {
        let m = two_step();
        let glue = vec![0.0, 1.0, 1.0, 0.0]; // x→y, y→x deterministically
        let g = m.concat(&glue, &m).unwrap();
        assert_eq!(g.len(), 6);
        let a = m.alphabet().clone();
        let (x, y) = (a.sym("x"), a.sym("y"));
        // y x y -x-> then x y y: p = 0.75 · glue(y,x) · 0.5 (x→y at step 0 of copy) · 1.0
        let p = g.string_probability(&[y, x, y, x, y, y]).unwrap();
        assert!(approx_eq(p, 0.75 * 1.0 * 0.5 * 1.0, 1e-12, 0.0));
    }

    #[test]
    fn concat_validates_glue() {
        let m = two_step();
        assert!(m.concat(&[0.5, 0.4, 1.0, 0.0], &m).is_err());
        assert!(m.concat(&[1.0, 0.0], &m).is_err());
    }
}

#[cfg(test)]
mod homogeneous_tests {
    use super::*;

    #[test]
    fn homogeneous_matches_manual_construction() {
        let a = Alphabet::of_chars("xy");
        let matrix = [0.3, 0.7, 0.6, 0.4];
        let m = MarkovSequence::homogeneous(a.clone(), 4, &[0.5, 0.5], &matrix).unwrap();
        assert_eq!(m.len(), 4);
        for i in 0..3 {
            assert_eq!(m.transition_prob(i, SymbolId(0), SymbolId(1)), 0.7);
            assert_eq!(m.transition_prob(i, SymbolId(1), SymbolId(0)), 0.6);
        }
        // n = 1 works too (no matrices consumed).
        let one = MarkovSequence::homogeneous(a, 1, &[1.0, 0.0], &matrix).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn homogeneous_validates() {
        let a = Alphabet::of_chars("xy");
        assert!(MarkovSequence::homogeneous(a, 3, &[0.5, 0.4], &[1.0, 0.0, 0.0, 1.0]).is_err());
    }
}
