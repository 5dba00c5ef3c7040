//! The benchmark's arithmetic: latency percentiles, quartiles, lifted-edge
//! counts, and the parent-versus-change comparison rule.

/// The `q`-quantile of nanosecond samples; see [`quantile`].
pub fn percentile(samples: &[u64], q: f64) -> Option<f64> {
    let v: Vec<f64> = samples.iter().map(|&ns| ns as f64).collect();
    quantile(&v, q)
}

/// The `q`-quantile (`0.0 ..= 1.0`) of `values`, by linear interpolation
/// between the two closest ranks. `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points of `values` into quarters, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads reported here match any Python-side check.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let (n, m) = (4usize, len + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Lifted DP edges of one layered pass: `Σₜ nnzₜ·|Q|`, times `(|o| + 1)` on
/// the routes whose Table 2 cost carries a factor `|o|` (the output
/// position is part of the lifted state there).
pub fn lifted_edges(nnz_per_layer: &[u64], states: u64, output_len: Option<u64>) -> u64 {
    let per_layer: u64 = nnz_per_layer.iter().sum::<u64>() * states;
    per_layer * output_len.map_or(1, |o| o + 1)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn better(self, new: f64, base: f64) -> bool {
        match self {
            Better::Higher => new > base,
            Better::Lower => new < base,
        }
    }
}

/// The outcome of comparing one (metric, workload) across two run sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least 9/10 of the pairs and moved by more than the parent's
    /// own interquartile distance.
    Gain,
    /// The median got worse by more than the bound.
    Regressed,
    /// The spread of either side is wider than the bound, so "no worse
    /// than the bound" cannot be told apart from noise.
    Unresolved,
    /// No worse than the bound, and the spread is narrow enough to say so.
    Unchanged,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// One compared (metric, workload) pairing.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    pub base_median: f64,
    pub new_median: f64,
    pub base_quartiles: [f64; 3],
    pub new_quartiles: [f64; 3],
    /// Pairs (i-th base run, i-th new run) the change won; ties count for
    /// neither side.
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compares a parent run set with a change run set. Runs are paired in
/// order, so run them as alternating pairs. `bound` is the share of the
/// parent's median by which the metric may worsen.
pub fn compare(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<Comparison> {
    let (base_median, new_median) = (median(base)?, median(new)?);
    let (base_quartiles, new_quartiles) = (quartiles(base)?, quartiles(new)?);
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| better.better(n, b))
        .count();
    let base_iqr = base_quartiles[2] - base_quartiles[0];
    let moved = (new_median - base_median).abs();
    let worse_share = match better {
        Better::Higher => (base_median - new_median) / base_median.abs(),
        Better::Lower => (new_median - base_median) / base_median.abs(),
    };
    let spread = relative_spread(base)?.max(relative_spread(new)?);
    let all_better = new
        .iter()
        .all(|&n| base.iter().all(|&b| better.better(n, b)));
    let verdict =
        if wins * 10 >= pairs * 9 && better.better(new_median, base_median) && moved > base_iqr {
            Verdict::Gain
        } else if worse_share > bound {
            Verdict::Regressed
        } else if spread > bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
    Some(Comparison {
        base_median,
        new_median,
        base_quartiles,
        new_quartiles,
        wins,
        pairs,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 0.0), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(40.0));
        assert_eq!(percentile(&s, 0.5), Some(25.0));
        assert!((percentile(&s, 0.99).unwrap() - 39.7).abs() < 1e-9);
        assert_eq!(percentile(&[7], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Unsorted input is fine: the lower quartile of 1..=5 is 2.
        assert_eq!(quantile(&[5.0, 3.0, 1.0, 4.0, 2.0], 0.25), Some(2.0));
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[9.0]), Some([9.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn lifted_edges_scale_by_states_and_output_length() {
        assert_eq!(lifted_edges(&[3, 4, 5], 2, None), 24);
        assert_eq!(lifted_edges(&[3, 4, 5], 2, Some(3)), 96);
        assert_eq!(lifted_edges(&[], 7, Some(1)), 0);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn compare_claims_a_gain_only_on_nine_of_ten_wins_beyond_the_iqr() {
        let base = runs(100.0, 1.0);
        let c = compare(&base, &runs(110.0, 1.0), Better::Higher, 0.1).unwrap();
        assert_eq!((c.wins, c.pairs), (10, 10));
        assert_eq!(c.verdict, Verdict::Gain);
        // Inside the parent's own quartile distance: not a gain.
        let c = compare(&base, &runs(101.0, 1.0), Better::Higher, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
        // Lower-is-better metrics win by shrinking.
        let c = compare(&base, &runs(90.0, 1.0), Better::Lower, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn compare_flags_regressions_beyond_the_bound() {
        let base = runs(100.0, 1.0);
        let c = compare(&base, &runs(85.0, 1.0), Better::Higher, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Regressed);
        let c = compare(&base, &runs(95.0, 1.0), Better::Higher, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
        let c = compare(&base, &runs(115.0, 1.0), Better::Lower, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Regressed);
    }

    #[test]
    fn compare_reports_wide_spreads_as_unresolved() {
        let base = runs(100.0, 10.0);
        let c = compare(&base, &runs(98.0, 10.0), Better::Higher, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        // ... unless every changed run beats every parent run.
        let c = compare(&base, &runs(200.0, 10.0), Better::Lower, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Regressed);
        let c = compare(&base, &runs(150.0, 1.0), Better::Higher, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Gain);
    }
}
