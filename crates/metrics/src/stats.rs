//! Descriptive statistics and linear fitting.
//!
//! The offline profiler fits the paper's `latency = K·n + B` model to
//! measured batch latencies (§4.5) and the memory autotuner fits a
//! linear trend to throughput samples (§4.4, Eq. 2–3). Both use
//! [`linear_fit`]. [`Summary`] condenses latency samples for reports.

use coserve_sim::time::SimSpan;

/// An ordinary least-squares line `y = slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinFit {
    /// The slope (the paper's `K` when fitting batch latencies).
    pub slope: f64,
    /// The intercept (the paper's `B`).
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
}

impl LinFit {
    /// The fitted value at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits a least-squares line through `(x, y)` points.
///
/// Returns `None` when fewer than two points are given or all `x`
/// values coincide (the slope would be undefined).
#[must_use]
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Some(LinFit {
        slope,
        intercept,
        r_squared,
    })
}

/// A percentile-grade summary of a sample (tail-latency reporting).
///
/// Construction goes through [`Summary::of`], which rejects empty
/// samples with `None` — the `count > 0` invariant is what keeps every
/// field finite (no silent `NaN` means or percentiles in reports and
/// CSVs downstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples (always positive).
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarizes a sample. Returns `None` for an empty sample — the
    /// zero-safe contract every report/CSV path relies on instead of
    /// dividing by a zero count.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        Some(Summary {
            count,
            mean,
            min: sorted[0],
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[count - 1],
        })
    }

    /// Whether every statistic is a finite number — the invariant the
    /// empty-sample guard exists to protect.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        [
            self.mean, self.min, self.p50, self.p90, self.p95, self.p99, self.max,
        ]
        .iter()
        .all(|v| v.is_finite())
    }

    /// Summarizes a sample of spans, in milliseconds.
    #[must_use]
    pub fn of_spans(spans: &[SimSpan]) -> Option<Summary> {
        let values: Vec<f64> = spans.iter().map(|s| s.as_millis_f64()).collect();
        Summary::of(&values)
    }
}

/// The `p`-th percentile (nearest-rank with linear interpolation) of an
/// already sorted, non-empty slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=10).map(|n| (n as f64, 1.1 * n as f64 + 8.0)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 1.1).abs() < 1e-9);
        assert!((fit.intercept - 8.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(20.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn fit_handles_noise() {
        let pts: Vec<(f64, f64)> = (1..=20)
            .map(|n| {
                let noise = if n % 2 == 0 { 0.3 } else { -0.3 };
                (n as f64, 2.0 * n as f64 + 5.0 + noise)
            })
            .collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!((fit.intercept - 5.0).abs() < 0.5);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn fit_degenerate_cases() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(3.0, 1.0), (3.0, 5.0)]).is_none());
        // Constant y: slope 0, perfect fit.
        let fit = linear_fit(&[(1.0, 4.0), (2.0, 4.0), (3.0, 4.0)]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn summary_of_simple_sample() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 5.0);
        assert!(s.p99 > 4.9 && s.p99 <= 5.0);
    }

    #[test]
    fn summary_empty_and_singleton() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p90, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    /// Regression: an empty sample must be an explicit `None`, never a
    /// summary with `NaN` statistics — both for raw values and spans
    /// (the path reports and CSVs consume).
    #[test]
    fn empty_samples_are_explicit_not_nan() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of_spans(&[]).is_none());
        // Every non-empty summary is fully finite.
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert!(s.is_finite());
    }

    #[test]
    fn summary_tail_percentiles_are_ordered() {
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&values).unwrap();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p95 && s.p95 <= s.p99);
        assert!((s.p90 - 899.1).abs() < 1e-9);
        assert!((s.p95 - 949.05).abs() < 1e-9);
    }

    #[test]
    fn summary_of_spans_in_millis() {
        let spans = vec![SimSpan::from_millis(10), SimSpan::from_millis(20)];
        let s = Summary::of_spans(&spans).unwrap();
        assert!((s.mean - 15.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 40.0);
        assert!((percentile_sorted(&v, 50.0) - 25.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The fit recovers planted coefficients from noiseless data.
        #[test]
        fn fit_recovers_planted_line(
            slope in -100.0f64..100.0,
            intercept in -100.0f64..100.0,
            n in 3usize..40,
        ) {
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|i| (i as f64, slope * i as f64 + intercept))
                .collect();
            let fit = linear_fit(&pts).unwrap();
            prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
            prop_assert!((fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
        }

        /// Percentiles are bounded by the sample extremes and monotone
        /// in p.
        #[test]
        fn percentiles_bounded_and_monotone(
            values in proptest::collection::vec(-1e6f64..1e6, 1..50),
        ) {
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut prev = lo;
            for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
                let v = percentile_sorted(&sorted, p);
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
                prop_assert!(v + 1e-9 >= prev);
                prev = v;
            }
        }
    }
}
