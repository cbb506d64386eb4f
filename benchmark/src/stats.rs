//! Exact statistics over raw samples: nearest-rank percentiles, median,
//! quartiles, spread, geometric mean and a least-squares log-log exponent.
//!
//! Every percentile the benchmark reports is an order statistic of the raw
//! per-op nanosecond samples kept in memory. `bsp-obs` histograms answer
//! with 1-2-5 bucket *upper bounds* (a 3.04 ms sample reads back as
//! 5000 µs); nothing here rounds.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `pct` percent of the samples are `<=` it.
/// `pct` is clamped to `[0, 100]`; an empty slice yields 0.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_sorted`] of unsorted samples.
pub fn percentile(mut samples: Vec<u64>, pct: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(&samples, pct)
}

/// The tail percentile a sample of size `n` can support: the highest of
/// 99, 95, 90, 75 with at least ten samples beyond it, else 50.
pub fn tail_percentile(n: usize) -> u32 {
    for pct in [99u32, 95, 90, 75] {
        if n * (100 - pct as usize) >= 1000 {
            return pct;
        }
    }
    50
}

/// Median of unsorted floats (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of unsigned samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// First and third quartile by the "exclusive" method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// matches the driver's. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |k: usize| -> f64 {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated; the
        // lower rank is clamped to the sample, the fraction is not (tiny
        // samples extrapolate, exactly as Python does).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (at(1), at(3))
}

/// The quiet-machine value of a quantity measured once per pass (or per
/// op and pass), each sample already divided by the host's slowdown (see
/// `common::Calibrator`). What that correction leaves is one-sided: a
/// disturbed stretch is under-corrected more often than over-corrected.
/// The quartile on the good side of the samples (first for a time, third
/// for a rate; interpolated, never outside the sample: the best one when
/// there are fewer than three) keeps clear of those stretches while they
/// cover up to three quarters of a run, and sits further from the edge
/// than a minimum, which the correction's own noise would drive. It is
/// the estimator `benchmark noise` replays: over the disturbed recording
/// of the development box it moves 2.5–4.2 % between 15 s windows.
pub fn quiet(per_pass: &[f64], higher_is_better: bool) -> f64 {
    if per_pass.is_empty() {
        return 0.0;
    }
    let mut v = per_pass.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    // Position (n + 1) / 4 in 1-based ranks from the good end.
    let pos = (v.len() as f64 + 1.0) / 4.0;
    if pos <= 1.0 {
        return v[0];
    }
    let lo = (pos.floor() as usize).min(v.len() - 1);
    v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
}

/// [`quiet`] of nanosecond times.
pub fn quiet_ns(per_pass: &[u64]) -> f64 {
    quiet(
        &per_pass.iter().map(|&v| v as f64).collect::<Vec<_>>(),
        false,
    )
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// `(max − min) / median`: the spread printed beside every suite median.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m.abs()
}

/// Geometric mean of positive values; 0 for an empty input.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Least-squares slope of `ln y` against `ln x`: the scaling exponent `k`
/// of `y ≈ c·x^k`. Needs two distinct `x`; returns 0 otherwise.
pub fn loglog_exponent(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>() / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        let s = [15, 20, 35, 40, 50];
        assert_eq!(percentile_sorted(&s, 5.0), 15);
        assert_eq!(percentile_sorted(&s, 30.0), 20);
        assert_eq!(percentile_sorted(&s, 40.0), 20);
        assert_eq!(percentile_sorted(&s, 50.0), 35);
        assert_eq!(percentile_sorted(&s, 100.0), 50);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    /// The error class the 1-2-5 buckets produced: a 3.04 ms cold solve
    /// recorded as `p50_us: 5000`. Raw samples answer with the sample.
    #[test]
    fn a_3_04_ms_sample_is_not_rounded_up_to_a_bucket_bound() {
        let raw = vec![3_040_000u64; 9];
        assert_eq!(percentile_sorted(&raw, 50.0), 3_040_000);
        let h = bsp_obs::Histogram::unregistered();
        for _ in 0..9 {
            h.observe(3040);
        }
        assert_eq!(h.percentile(50), 5000, "the bucket answer this replaces");
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 95);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(199), 90);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(99), 75);
        assert_eq!(tail_percentile(39), 50);
    }

    #[test]
    fn a_short_run_reports_p90_and_says_so() {
        // What every workload does: the tail it reports is the highest
        // one its sample supports, capped at 95, and the note says which.
        let samples: Vec<u64> = (1..=150).collect();
        let pct = tail_percentile(samples.len()).min(95);
        assert_eq!(pct, 90);
        assert_eq!(percentile_sorted(&samples, pct as f64), 135);
        let long: Vec<u64> = (1..=400).collect();
        let pct = tail_percentile(long.len()).min(95);
        assert_eq!((pct, percentile_sorted(&long, pct as f64)), (95, 380));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn quiet_ignores_the_disturbed_passes() {
        // Twelve of twenty passes hit by a burst: the time does not move.
        let calm: Vec<f64> = (0..20).map(|i| 100.0 + (i % 5) as f64).collect();
        let mut hit = calm.clone();
        for (i, t) in hit.iter_mut().enumerate().skip(8) {
            *t *= 1.2 + 0.01 * i as f64;
        }
        assert!((quiet(&hit, false) - quiet(&calm, false)).abs() <= 2.0);
        let rates: Vec<f64> = hit.iter().map(|t| 1e4 / t).collect();
        assert!((quiet(&rates, true) - 98.5).abs() <= 2.0);
        // Few passes: the best one.
        assert_eq!(quiet(&[7.0], false), 7.0);
        assert_eq!(quiet(&[20.0, 10.0], false), 10.0);
        assert_eq!(quiet(&[20.0, 10.0, 30.0], true), 30.0);
        // Four: a quarter of the way from the best to the second best.
        assert_eq!(quiet_ns(&[30, 10, 20, 40]), 12.5);
        // Seven: position 2 exactly.
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quiet(&v, false), 2.0);
        assert_eq!(quiet(&v, true), 6.0);
        assert_eq!(quiet(&[], false), 0.0);
    }

    #[test]
    fn median_spread_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
        assert!((range_share(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn loglog_exponent_recovers_power_laws() {
        let quad: Vec<(f64, f64)> = [1e3, 3e3, 1e4]
            .iter()
            .map(|&x: &f64| (x, 2e-6 * x * x))
            .collect();
        assert!((loglog_exponent(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = [1e3, 1e4, 3e4]
            .iter()
            .map(|&x: &f64| (x, 0.5 * x))
            .collect();
        assert!((loglog_exponent(&lin) - 1.0).abs() < 1e-9);
        assert_eq!(loglog_exponent(&[(10.0, 1.0)]), 0.0);
    }
}
