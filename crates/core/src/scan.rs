//! Parallel-prefix evaluation of the prefix-acceptance series.
//!
//! The sequential prefix series (an
//! [`EventSession`](crate::incremental::EventSession) driven over the
//! sequence) folds the acceptance DP strictly left to right: `n - 1`
//! dependent steps, O(n) span. This module evaluates the same series by *function composition*:
//! each step's dense `|Σ|²` matrix lifts to a linear operator on the
//! `(determinized subset, node)` state space, operators compose
//! associatively, and contiguous chunks of the sequence compose in
//! parallel before a replay pass emits every prefix probability — the
//! classic two-phase prefix scan. With `C` chunks on `C` workers the
//! critical path is `O(n/C · m²)` operator composition plus an `O(C · m²)`
//! sequential stitch, where `m` is the lifted state count.
//!
//! The determinization here is an *upfront* BFS over every reachable
//! subset (the fold interns subsets lazily in data-dependent discovery
//! order), so the flat state space is known before any worker starts.
//! That is also why scan results are not bit-identical to the fold: the
//! two id orders induce different float accumulation orders. Agreement is
//! within a relative `1e-12` and deterministic for a fixed `(input,
//! thread count)` — see the numerics contract in `transmark_kernel::dp`.
//!
//! Strategy selection ([`Strategy::Scan`](transmark_kernel::Strategy::Scan) auto-pick) lives in
//! [`crate::plan::PreparedEventQuery::series_with`]; the heuristics here
//! only decide *how* a scan runs (chunked vs. flat sequential replay).

use transmark_automata::{ops::DetCore, Nfa, SymbolId};
use transmark_kernel::{Neumaier, Prob, StepOperator};
use transmark_markov::MarkovSequence;

use crate::confidence::check_nfa_alphabet;
use crate::error::EngineError;
use crate::incremental::WINDOW_STATE_CAP;

/// Below this sequence length the auto-picker never chooses scan: the
/// fold's one pass is too cheap to be worth worker startup.
pub(crate) const AUTO_MIN_LEN: usize = 4096;

/// Auto-pick budget for the lifted state count: composition inflates work
/// by a factor of `m`, so scan only wins when `m` stays a small multiple
/// of the worker count.
pub(crate) const AUTO_STATES_PER_THREAD: usize = 8;

/// Above this lifted state count the chunked path is skipped even when
/// scan is forced (the `m × m` chunk operators would dominate memory);
/// the scan then runs as a flat sequential replay over the same state
/// space — same numerics, no parallelism.
const MATRIX_STATE_CAP: usize = 512;

/// The query NFA determinized upfront: a complete transition table over
/// every subset reachable from `{q0}`, BFS order, so the scan's flat
/// state space `(subset d, node v) ↦ d·k + v` is fixed before workers
/// start.
pub(crate) struct ScanDfa {
    /// `|Σ|`.
    k: usize,
    /// `step[d * k + σ]` — successor subset id.
    step: Vec<usize>,
    accepting: Vec<bool>,
    /// The dead (empty) subset can never accept again; transitions into
    /// it are dropped, mirroring the fold's eager mass drop.
    dead: Vec<bool>,
}

impl ScanDfa {
    /// BFS-determinizes `nfa`, bailing with `None` as soon as the lifted
    /// state count `subsets · |Σ|` would exceed `state_cap`.
    pub(crate) fn build(nfa: &Nfa, state_cap: usize) -> Option<ScanDfa> {
        let k = nfa.n_symbols();
        let mut det = DetCore::new(nfa);
        let mut step = Vec::new();
        let mut d = 0;
        while d < det.n_materialized() {
            if det.n_materialized().checked_mul(k)? > state_cap {
                return None;
            }
            for s in 0..k {
                step.push(det.step(nfa, d, SymbolId(s as u32)));
            }
            d += 1;
        }
        let n = det.n_materialized();
        Some(ScanDfa {
            k,
            step,
            accepting: (0..n).map(|d| det.is_accepting(d)).collect(),
            dead: (0..n).map(|d| det.is_dead(d)).collect(),
        })
    }

    fn n_subsets(&self) -> usize {
        self.accepting.len()
    }

    /// The lifted state count `m = subsets · |Σ|`.
    pub(crate) fn m_dim(&self) -> usize {
        self.n_subsets() * self.k
    }

    /// Lifts `μ₀→` (dense, length `|Σ|`) into the scan state space: the
    /// first symbol read moves the initial subset.
    fn initial_vector(&self, initial: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; self.m_dim()];
        for (node, &p) in initial.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let d = self.step[node];
            if !self.dead[d] {
                v[d * self.k + node] += p;
            }
        }
        v
    }

    /// Applies one step's dense `|Σ|²` matrix to a lifted vector.
    /// Iteration is `(d asc, node asc, target asc)` with zeros skipped —
    /// fixed, so results are reproducible per input.
    fn apply_step(&self, matrix: &[f64], cur: &[f64], next: &mut [f64]) {
        let k = self.k;
        debug_assert_eq!(matrix.len(), k * k, "step matrix must be |Σ|²");
        next.fill(0.0);
        for d in 0..self.n_subsets() {
            if self.dead[d] {
                continue;
            }
            let base = d * k;
            let trow = &self.step[base..base + k];
            for node in 0..k {
                let p = cur[base + node];
                if p == 0.0 {
                    continue;
                }
                let row = &matrix[node * k..node * k + k];
                for (to, (&pt, &d2)) in row.iter().zip(trow).enumerate() {
                    if pt <= 0.0 || self.dead[d2] {
                        continue;
                    }
                    next[d2 * k + to] += p * pt;
                }
            }
        }
    }

    /// Lifts one dense `|Σ|²` matrix into the scan state space as an
    /// `m × m` [`StepOperator`]: cell `(d·k+node, d2·k+to) = pt` for every
    /// positive transition `node→to`, where `d2 = step[d·k+to]` and dead
    /// subsets are dropped on both sides. Applying the operator to a
    /// lifted vector visits exactly the products [`ScanDfa::apply_step`]
    /// would, so a single-step operator application is bit-identical to
    /// `apply_step` up to the accumulation-order tolerance the scan path
    /// already documents.
    pub(crate) fn lift_operator(&self, matrix: &[f64]) -> StepOperator<Prob> {
        let k = self.k;
        debug_assert_eq!(matrix.len(), k * k, "step matrix must be |Σ|²");
        let md = self.m_dim();
        let mut cells = vec![0.0; md * md];
        for d in 0..self.n_subsets() {
            if self.dead[d] {
                continue;
            }
            let base = d * k;
            let trow = &self.step[base..base + k];
            for node in 0..k {
                let row = &matrix[node * k..node * k + k];
                for (to, (&pt, &d2)) in row.iter().zip(trow).enumerate() {
                    if pt <= 0.0 || self.dead[d2] {
                        continue;
                    }
                    cells[(base + node) * md + d2 * k + to] = pt;
                }
            }
        }
        StepOperator::from_cells(md, cells)
    }

    /// Lifts `μ₀→` for external callers (the sliding-window machinery).
    pub(crate) fn lift_initial(&self, initial: &[f64]) -> Vec<f64> {
        self.initial_vector(initial)
    }

    /// [`ScanDfa::apply_step`] for external callers.
    pub(crate) fn step_vector(&self, matrix: &[f64], cur: &[f64], next: &mut [f64]) {
        self.apply_step(matrix, cur, next);
    }

    /// [`ScanDfa::probability`] for external callers.
    pub(crate) fn probability_of(&self, v: &[f64]) -> f64 {
        self.probability(v)
    }

    /// `Pr(prefix ∈ L(A))` of a lifted vector: Neumaier over accepting
    /// subsets in ascending flat order.
    fn probability(&self, v: &[f64]) -> f64 {
        let k = self.k;
        let mut acc = Neumaier::new();
        for (d, &ok) in self.accepting.iter().enumerate() {
            if !ok {
                continue;
            }
            for &p in &v[d * k..(d + 1) * k] {
                if p != 0.0 {
                    acc.add(p);
                }
            }
        }
        acc.total()
    }
}

/// Replays steps `[start, end)` from `cur`, writing one probability per
/// step into `out` (`out.len() == end - start`).
fn replay(
    dfa: &ScanDfa,
    m: &MarkovSequence,
    start: usize,
    end: usize,
    mut cur: Vec<f64>,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), end - start);
    let mut next = vec![0.0; cur.len()];
    for (slot, i) in out.iter_mut().zip(start..end) {
        dfa.apply_step(m.transition_matrix(i), &cur, &mut next);
        std::mem::swap(&mut cur, &mut next);
        *slot = dfa.probability(&cur);
    }
}

/// Composes steps `[start, end)` into one `m × m` chunk operator (row
/// `r` = the basis vector `e_r` pushed through the chunk).
fn compose(dfa: &ScanDfa, m: &MarkovSequence, start: usize, end: usize) -> Vec<f64> {
    let md = dfa.m_dim();
    let mut cur = vec![0.0; md * md];
    for r in 0..md {
        cur[r * md + r] = 1.0;
    }
    let mut next = vec![0.0; md * md];
    for i in start..end {
        let matrix = m.transition_matrix(i);
        for r in 0..md {
            dfa.apply_step(
                matrix,
                &cur[r * md..(r + 1) * md],
                &mut next[r * md..(r + 1) * md],
            );
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// `v · M` for a chunk operator — jumps a chunk-start vector across the
/// whole chunk in `O(m²)`.
fn apply_matrix(md: usize, v: &[f64], mat: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; md];
    for (r, &p) in v.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let row = &mat[r * md..(r + 1) * md];
        for (o, &w) in out.iter_mut().zip(row) {
            if w != 0.0 {
                *o += p * w;
            }
        }
    }
    out
}

/// How many chunks a scan of `steps` steps should use on `threads`
/// workers; `1` means flat sequential replay.
fn chunk_count(steps: usize, m_dim: usize, threads: usize) -> usize {
    if threads < 2 || m_dim > MATRIX_STATE_CAP {
        return 1;
    }
    threads.min(steps).max(1)
}

/// Runs the scan over a prebuilt [`ScanDfa`]. Chunked iff `threads ≥ 2`
/// and the lifted state space is small enough for `m × m` operators.
pub(crate) fn run_scan(dfa: &ScanDfa, m: &MarkovSequence, threads: usize) -> Vec<f64> {
    let n = m.len();
    let steps = n.saturating_sub(1);
    let v0 = dfa.initial_vector(m.initial_dist());
    let mut out = vec![0.0; n];
    out[0] = dfa.probability(&v0);
    if steps == 0 {
        return out;
    }
    let chunks = chunk_count(steps, dfa.m_dim(), threads);
    transmark_obs::counter!("core.scan.runs").inc();
    if chunks < 2 {
        transmark_obs::counter!("core.scan.chunks").inc();
        replay(dfa, m, 0, steps, v0, &mut out[1..]);
        return out;
    }

    // The ceiling division can leave trailing chunks empty (e.g. 5 steps
    // on 4 workers → stride 2 → 3 real chunks); recompute the count from
    // the stride so every bound is non-empty.
    let chunk_len = steps.div_ceil(chunks);
    let chunks = steps.div_ceil(chunk_len);
    transmark_obs::counter!("core.scan.chunks").add(chunks as u64);
    let bounds: Vec<(usize, usize)> = (0..chunks)
        .map(|j| (j * chunk_len, ((j + 1) * chunk_len).min(steps)))
        .collect();
    let rec = transmark_obs::profile::current();

    // Phase A: compose every chunk but the last into an m×m operator
    // (the last chunk's operator is never consumed — no chunk starts
    // after it). Chunk 0's replay needs no operator at all, so it runs
    // here too, on the worker the missing operator frees up.
    let (head, tail) = out[1..].split_at_mut(bounds[0].1);
    let start0 = v0.clone();
    let (b0s, b0e) = bounds[0];
    let summaries: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let replay0 = {
            let rec = rec.clone();
            scope.spawn(move || {
                let _lane = rec.as_ref().map(|r| r.install("worker-replay".to_string()));
                let _span = transmark_obs::span::enter("scan.replay");
                replay(dfa, m, b0s, b0e, start0, head);
            })
        };
        let handles: Vec<_> = bounds[..chunks - 1]
            .iter()
            .enumerate()
            .map(|(wi, &(s, e))| {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _lane = rec.as_ref().map(|r| r.install(format!("worker-{wi}")));
                    let _span = transmark_obs::span::enter("scan.compose");
                    compose(dfa, m, s, e)
                })
            })
            .collect();
        let summaries = handles
            .into_iter()
            .map(|h| h.join().expect("scan worker does not panic"))
            .collect();
        replay0.join().expect("scan worker does not panic");
        summaries
    });

    // Stitch: chunk-start vectors, strictly sequential (C−1 matrix·vector
    // jumps — negligible next to the phases).
    let starts: Vec<Vec<f64>> = {
        let _span = transmark_obs::span::enter("scan.stitch");
        let md = dfa.m_dim();
        let mut starts = Vec::with_capacity(chunks);
        starts.push(v0);
        for mat in &summaries {
            let prev = starts.last().expect("seeded above");
            starts.push(apply_matrix(md, prev, mat));
        }
        starts
    };

    // Phase B: replay chunks 1.. in parallel, each into its disjoint
    // output window.
    std::thread::scope(|scope| {
        let mut rest = tail;
        for (j, start) in starts.into_iter().enumerate().skip(1) {
            let (s, e) = bounds[j];
            let (slice, r) = rest.split_at_mut(e - s);
            rest = r;
            let rec = rec.clone();
            scope.spawn(move || {
                let _lane = rec.as_ref().map(|r| r.install(format!("worker-{j}")));
                let _span = transmark_obs::span::enter("scan.replay");
                replay(dfa, m, s, e, start, slice);
            });
        }
    });
    out
}

/// The prefix-acceptance series by parallel-prefix scan — the
/// [`Strategy::Scan`](crate::plan::Strategy::Scan) evaluator behind
/// [`crate::plan::PreparedEventQuery::series_with`]. Same series as the
/// sequential fold within a relative `1e-12` (not bitwise; see the module
/// docs), deterministic for a fixed `(input, n_threads)`. `n_threads ≤ 1`
/// runs the flat sequential replay over the same upfront-determinized
/// state space. The determinization stops at the sliding window's
/// lifted-state budget, with the same typed
/// [`EngineError::UnsupportedStrategy`] the window returns.
pub(crate) fn prefix_acceptance_probabilities_scan(
    nfa: &Nfa,
    m: &MarkovSequence,
    n_threads: usize,
) -> Result<Vec<f64>, EngineError> {
    check_nfa_alphabet(nfa, m.n_symbols())?;
    let _span = transmark_obs::span::enter("scan");
    let dfa = {
        let _span = transmark_obs::span::enter("scan.determinize");
        ScanDfa::build(nfa, WINDOW_STATE_CAP).ok_or(EngineError::UnsupportedStrategy {
            strategy: "scan",
            query: "prefix series (lifted state space exceeds the composition budget)",
        })?
    };
    Ok(run_scan(&dfa, m, n_threads.max(1)))
}

/// The auto-picker's scan attempt: `None` when the sequence is too short,
/// the worker count too low, or the lifted state space too large for
/// composition to pay off — the caller falls back to the sequential fold.
pub(crate) fn try_auto_scan(nfa: &Nfa, m: &MarkovSequence, n_threads: usize) -> Option<Vec<f64>> {
    if n_threads < 2 || m.len() < AUTO_MIN_LEN {
        return None;
    }
    let dfa = ScanDfa::build(nfa, AUTO_STATES_PER_THREAD * n_threads)?;
    let _span = transmark_obs::span::enter("scan");
    Some(run_scan(&dfa, m, n_threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PreparedEventQuery;
    use rand::{rngs::StdRng, SeedableRng};
    use transmark_automata::StateId;
    use transmark_markov::generate::{random_markov_sequence, RandomChainSpec};

    /// a·b-alternation-flavoured 3-state NFA over Σ = {a, b} with real
    /// nondeterminism (two a-successors from q0).
    fn nfa() -> Nfa {
        let (a, b) = (SymbolId(0), SymbolId(1));
        let mut n = Nfa::new(2);
        let q0 = n.add_state(false);
        let q1 = n.add_state(false);
        let q2 = n.add_state(true);
        n.add_transition(q0, a, q0);
        n.add_transition(q0, b, q0);
        n.add_transition(q0, a, q1);
        n.add_transition(q1, b, q2);
        n.add_transition(q2, a, q2);
        n.add_transition(q2, b, q2);
        n
    }

    fn chain(len: usize, seed: u64) -> MarkovSequence {
        let spec = RandomChainSpec {
            len,
            n_symbols: 2,
            zero_prob: 0.3,
        };
        random_markov_sequence(&spec, &mut StdRng::seed_from_u64(seed))
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-12 * w.abs().max(1.0);
            assert!((g - w).abs() <= tol, "position {i}: scan {g} vs fold {w}");
        }
    }

    #[test]
    fn flat_scan_matches_fold_within_tolerance() {
        let n = nfa();
        for seed in 0..4 {
            let m = chain(97, seed);
            let fold = PreparedEventQuery::new(n.clone()).series(&m).unwrap();
            let scan = prefix_acceptance_probabilities_scan(&n, &m, 1).unwrap();
            assert_close(&scan, &fold);
        }
    }

    #[test]
    fn chunked_scan_matches_fold_within_tolerance() {
        let n = nfa();
        for threads in [2, 3, 4, 7] {
            let m = chain(301, threads as u64);
            let fold = PreparedEventQuery::new(n.clone()).series(&m).unwrap();
            let scan = prefix_acceptance_probabilities_scan(&n, &m, threads).unwrap();
            assert_close(&scan, &fold);
        }
    }

    #[test]
    fn step_counts_near_the_worker_count_chunk_cleanly() {
        // steps barely above threads: the ceiling stride leaves trailing
        // chunks empty unless the count is recomputed (5 steps on 4
        // workers → stride 2 → 3 chunks, not 4).
        let n = nfa();
        for (len, threads) in [(6, 4), (5, 4), (9, 7), (4, 3), (3, 2)] {
            let m = chain(len, 17);
            let fold = PreparedEventQuery::new(n.clone()).series(&m).unwrap();
            let scan = prefix_acceptance_probabilities_scan(&n, &m, threads).unwrap();
            assert_close(&scan, &fold);
        }
    }

    #[test]
    fn chunked_scan_is_reproducible_per_thread_count() {
        let n = nfa();
        let m = chain(256, 9);
        let a = prefix_acceptance_probabilities_scan(&n, &m, 4).unwrap();
        let b = prefix_acceptance_probabilities_scan(&n, &m, 4).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn degenerate_lengths() {
        let n = nfa();
        let m = chain(1, 3);
        let fold = PreparedEventQuery::new(n.clone()).series(&m).unwrap();
        let scan = prefix_acceptance_probabilities_scan(&n, &m, 4).unwrap();
        assert_close(&scan, &fold);
        assert_eq!(scan.len(), 1);
    }

    #[test]
    fn dfa_build_respects_state_cap() {
        let n = nfa();
        assert!(ScanDfa::build(&n, 1).is_none());
        let dfa = ScanDfa::build(&n, usize::MAX).unwrap();
        assert!(dfa.m_dim() >= 2);
    }

    #[test]
    fn forced_scan_stops_at_the_state_budget() {
        // "The 13th symbol from the end is s0": 2^13 reachable subsets,
        // past the budget long before determinization finishes.
        let mut n = Nfa::new(2);
        let states: Vec<StateId> = (0..14).map(|i| n.add_state(i == 13)).collect();
        for s in 0..2 {
            n.add_transition(states[0], SymbolId(s), states[0]);
        }
        n.add_transition(states[0], SymbolId(0), states[1]);
        for w in states[1..].windows(2) {
            for s in 0..2 {
                n.add_transition(w[0], SymbolId(s), w[1]);
            }
        }
        let m = chain(64, 4);
        for threads in [1, 2] {
            assert!(matches!(
                prefix_acceptance_probabilities_scan(&n, &m, threads),
                Err(EngineError::UnsupportedStrategy {
                    strategy: "scan",
                    ..
                })
            ));
        }
        let forced = PreparedEventQuery::new(n).series_with(&m, 2, Some(crate::Strategy::Scan));
        assert!(matches!(
            forced,
            Err(EngineError::UnsupportedStrategy { .. })
        ));
    }

    #[test]
    fn auto_scan_declines_short_or_serial_inputs() {
        let n = nfa();
        let m = chain(64, 1);
        assert!(try_auto_scan(&n, &m, 8).is_none(), "too short");
        let long = chain(AUTO_MIN_LEN, 2);
        assert!(try_auto_scan(&n, &long, 1).is_none(), "one thread");
        let got = try_auto_scan(&n, &long, 4).expect("eligible");
        let fold = PreparedEventQuery::new(n.clone()).series(&long).unwrap();
        assert_close(&got, &fold);
    }

    #[test]
    fn always_accepting_single_state_query_stays_at_one() {
        let mut n = Nfa::new(2);
        let q0 = n.add_state(true);
        for s in 0..2 {
            n.add_transition(q0, SymbolId(s), q0);
        }
        let _ = StateId(0);
        let m = chain(128, 5);
        let scan = prefix_acceptance_probabilities_scan(&n, &m, 4).unwrap();
        for p in scan {
            assert!((p - 1.0).abs() < 1e-12);
        }
    }
}
