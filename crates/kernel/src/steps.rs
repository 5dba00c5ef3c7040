//! Precompiled sparse view of a Markov sequence's transition structure.
//!
//! Every layered DP walks the same probability data: the initial
//! distribution and one `|Σ|×|Σ|` transition matrix per position. The
//! hand-rolled passes probed those matrices densely (`for to in 0..k`,
//! skipping zeros one probe at a time); [`SparseSteps`] flattens the
//! nonzero entries into one CSR array so the drivers touch only live
//! transitions. Rows keep ascending-`to` order and drop exact zeros —
//! the same visit order and the same skips as the dense probes, so
//! float accumulation sequences (and results, bit for bit) are
//! unchanged.
//!
//! Built once per query (or once per session for the enumeration DFS,
//! which runs hundreds of DPs over one chain) by [`SparseSteps::from_dense`];
//! the kernel has no dependency on `transmark-markov`, so the markov crate
//! hands it the dense buffers.

/// One step's worth of transition rows — the minimal data-side view a
/// layer advance consumes.
///
/// The drivers in [`crate::dp`] are generic over this trait so the same
/// monomorphized loop runs against a fully materialized CSR
/// ([`SparseSteps::at`]) or a single-layer CSR rebuilt per step from a
/// pulled dense matrix ([`LayerCsr`]). Implementations must present each
/// row's nonzero `(to, p)` entries in ascending `to` with exact zeros
/// omitted — the invariant the bit-reproducibility contract rests on.
pub trait StepRows {
    /// Number of distinct node symbols `|Σ|`.
    fn n_nodes(&self) -> usize;
    /// The nonzero transitions out of `from`, ascending `to`.
    fn row(&self, from: usize) -> &[(u32, f64)];
}

/// Borrowed view of one step of a [`SparseSteps`] CSR.
#[derive(Debug, Clone, Copy)]
pub struct StepView<'a> {
    steps: &'a SparseSteps,
    step: usize,
}

impl StepRows for StepView<'_> {
    #[inline]
    fn n_nodes(&self) -> usize {
        self.steps.n_nodes
    }

    #[inline]
    fn row(&self, from: usize) -> &[(u32, f64)] {
        self.steps.row(self.step, from)
    }
}

/// A reusable single-step CSR, rebuilt in place from one dense row-major
/// `|Σ|×|Σ|` matrix at a time.
///
/// This is the streaming counterpart of [`SparseSteps`]: a pulled step
/// layer is compacted into exactly the row content (ascending `to`, zeros
/// dropped) that [`SparseSteps::at`] would present for the same matrix,
/// so a DP driven layer-by-layer through a `LayerCsr` accumulates floats
/// in the same sequence — bit for bit — as the materialized path. Both
/// buffers are reused across [`LayerCsr::load_dense`] calls, so a
/// forward pass holds O(|Σ|²) data-side state regardless of sequence
/// length.
#[derive(Debug, Clone, Default)]
pub struct LayerCsr {
    n_nodes: usize,
    offsets: Vec<u32>,
    entries: Vec<(u32, f64)>,
}

impl LayerCsr {
    pub fn new() -> Self {
        LayerCsr::default()
    }

    /// Rebuilds the CSR from a dense row-major `k×k` matrix
    /// (`matrix[from * k + to]`), compacting only the rows `from` for
    /// which `live(from)` holds; the others read as empty. A driver whose
    /// live cells all sit on live rows reads exactly what a full
    /// compaction would give it. Panics if `matrix.len() != k * k`.
    pub fn load_dense(&mut self, k: usize, matrix: &[f64], live: impl Fn(usize) -> bool) {
        assert_eq!(matrix.len(), k * k, "dense layer must be k×k");
        self.n_nodes = k;
        self.offsets.clear();
        self.offsets.push(0);
        // Every entry is written, but the cursor moves past nonzeros only,
        // so a zero is overwritten by its successor: no data-dependent
        // branch, which a random sparsity pattern would mispredict.
        // Entries past the last offset are stale and never read.
        self.entries.resize(k * k, (0, 0.0));
        let mut len = 0;
        for (from, row) in matrix.chunks_exact(k.max(1)).enumerate() {
            if live(from) {
                for (to, &p) in row.iter().enumerate() {
                    self.entries[len] = (to as u32, p);
                    len += usize::from(p != 0.0);
                }
            }
            self.offsets.push(len as u32);
        }
    }
}

impl StepRows for LayerCsr {
    #[inline]
    fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    #[inline]
    fn row(&self, from: usize) -> &[(u32, f64)] {
        let lo = self.offsets[from] as usize;
        let hi = self.offsets[from + 1] as usize;
        &self.entries[lo..hi]
    }
}

/// CSR layout of an inhomogeneous Markov sequence's nonzero transitions.
#[derive(Debug, Clone)]
pub struct SparseSteps {
    n_nodes: usize,
    n_steps: usize,
    initial: Vec<(u32, f64)>,
    /// `offsets[step * n_nodes + from] .. offsets[step * n_nodes + from + 1]`
    /// indexes the row's entries.
    offsets: Vec<u32>,
    /// `(to, probability)` pairs, ascending `to`, exact zeros omitted.
    entries: Vec<(u32, f64)>,
}

impl SparseSteps {
    /// Compacts a dense chain: the initial distribution `initial` and the
    /// row-major `k×k` transition matrices back to back in `transitions`.
    /// Every row keeps its entries `p > 0.0` in ascending `to`; `nnz`,
    /// the number of such entries in `transitions`, sizes the entry
    /// array exactly. Panics if `transitions` is not whole matrices or
    /// holds a different number of positive entries.
    pub fn from_dense(k: usize, initial: &[f64], transitions: &[f64], nnz: usize) -> SparseSteps {
        let kk = k * k;
        assert!(
            kk > 0 && transitions.len().is_multiple_of(kk),
            "transitions must be whole k×k matrices"
        );
        let n_steps = transitions.len() / kk;
        let initial = (0u32..)
            .zip(initial)
            .filter(|&(_, &p)| p > 0.0)
            .map(|(s, &p)| (s, p))
            .collect();
        let mut offsets = Vec::with_capacity(n_steps * k + 1);
        offsets.push(0);
        // The cursor of `LayerCsr::load_dense`: every entry is written,
        // but the cursor moves past positives only, so a zero is
        // overwritten by its successor and no data-dependent branch is
        // taken. One slot of slack takes the writes of zeros that follow
        // the last positive entry.
        let mut entries = vec![(0, 0.0); nnz + 1];
        let mut len = 0;
        for row in transitions.chunks_exact(k) {
            for (to, &p) in (0u32..).zip(row) {
                entries[len] = (to, p);
                len += usize::from(p > 0.0);
            }
            offsets.push(len as u32);
        }
        assert_eq!(len, nnz, "nnz must count the positive transitions");
        entries.truncate(nnz);
        transmark_obs::counter!("kernel.csr.builds").inc();
        transmark_obs::histogram!("kernel.csr.entries").record(nnz as u64);
        SparseSteps {
            n_nodes: k,
            n_steps,
            initial,
            offsets,
            entries,
        }
    }

    /// Number of distinct node symbols `|Σ|`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of transition steps (sequence length − 1).
    #[inline]
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// The nonzero entries of the initial distribution, ascending node.
    #[inline]
    pub fn initial(&self) -> &[(u32, f64)] {
        &self.initial
    }

    /// The nonzero transitions out of `from` at `step`, ascending `to`.
    #[inline]
    pub fn row(&self, step: usize, from: usize) -> &[(u32, f64)] {
        let r = step * self.n_nodes + from;
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Borrowed [`StepRows`] view of one step, for the generic drivers.
    #[inline]
    pub fn at(&self, step: usize) -> StepView<'_> {
        debug_assert!(step < self.n_steps, "step out of range");
        StepView { steps: self, step }
    }

    /// Total number of stored nonzero transitions (diagnostics).
    #[inline]
    pub fn n_entries(&self) -> usize {
        self.entries.len()
    }

    /// Wraps the steps for sharing. `SparseSteps` is a *data-side*
    /// artifact — it depends only on the Markov sequence — so a bound
    /// query builds it once per sequence and every pass over that bind
    /// reads the same copy.
    pub fn into_shared(self) -> SharedSparseSteps {
        std::sync::Arc::new(self)
    }
}

/// A data-side CSR shared across the passes of one bind.
pub type SharedSparseSteps = std::sync::Arc<SparseSteps>;

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SparseSteps>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_sparse_and_ordered() {
        // 2 nodes, 2 steps; step 0 matrix [[0.5, 0.5], [0, 1]],
        // step 1 matrix [[1, 0], [0.25, 0.75]].
        let s = SparseSteps::from_dense(2, &[0.9, 0.1], &LAYERS.concat(), 6);
        assert_eq!(s.n_nodes(), 2);
        assert_eq!(s.n_steps(), 2);
        assert_eq!(s.n_entries(), 6);
        assert_eq!(s.initial(), &[(0, 0.9), (1, 0.1)]);
        assert_eq!(s.row(0, 0), &[(0, 0.5), (1, 0.5)]);
        assert_eq!(s.row(0, 1), &[(1, 1.0)]);
        assert_eq!(s.row(1, 0), &[(0, 1.0)]);
        assert_eq!(s.row(1, 1), &[(0, 0.25), (1, 0.75)]);
    }

    const LAYERS: [[f64; 4]; 2] = [[0.5, 0.5, 0.0, 1.0], [1.0, 0.0, 0.25, 0.75]];

    #[test]
    #[should_panic(expected = "nnz must count")]
    fn a_wrong_nnz_is_rejected() {
        let _ = SparseSteps::from_dense(2, &[0.9, 0.1], &LAYERS.concat(), 5);
    }

    #[test]
    fn layer_csr_matches_step_view() {
        // The same matrices as `rows_are_sparse_and_ordered`, loaded one
        // dense layer at a time, must present identical rows.
        let s = SparseSteps::from_dense(2, &[0.9, 0.1], &LAYERS.concat(), 6);
        let mut csr = LayerCsr::new();
        for (step, m) in LAYERS.iter().enumerate() {
            csr.load_dense(2, m, |_| true);
            let view = s.at(step);
            assert_eq!(csr.n_nodes(), view.n_nodes());
            for from in 0..2 {
                assert_eq!(csr.row(from), view.row(from));
            }
            // Rows left out read as empty; the live ones are unchanged.
            csr.load_dense(2, m, |from| from == 1);
            assert!(csr.row(0).is_empty());
            assert_eq!(csr.row(1), view.row(1));
        }
    }
}
