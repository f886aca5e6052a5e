//! Small statistics helpers shared by every workload: percentiles with
//! the "≥10 samples beyond" rule, medians, the SLO/error accounting and
//! the rate-ladder search, plus the metric record the report prints.

/// The latency limit every SLO metric scores against, in simulated ms.
pub const SLO_MS: f64 = 3_000.0;

/// Tail percentiles a timing may report, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie beyond a percentile before it is reported.
const BEYOND: usize = 10;

/// One named result with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// The `p`-th percentile of a sorted, non-empty slice (nearest rank on
/// the `(n - 1)` grid with linear interpolation, as `coserve-metrics`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Whether `n` samples leave at least ten beyond the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= BEYOND as f64 - 1e-9
}

/// The highest tail percentile `n` samples support, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| supports(n, p))
}

/// The `p`-th percentile of `values` when at least ten samples lie
/// beyond it; `None` otherwise (and for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !supports(values.len(), p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, p))
}

/// A sample stored as `(value, count)` runs, for timings where many
/// requests share one measured value (every request of a drained slice
/// has the same host round trip). Memory grows with distinct values,
/// not with requests.
#[derive(Debug, Clone, Default)]
pub struct Weighted {
    runs: Vec<(f64, u64)>,
}

impl Weighted {
    pub fn push(&mut self, value: f64, count: u64) {
        if count > 0 {
            self.runs.push((value, count));
        }
    }

    /// Total samples.
    pub fn len(&self) -> u64 {
        self.runs.iter().map(|r| r.1).sum()
    }

    /// The `p`-th percentile, with the same interpolation as
    /// [`percentile_sorted`] over the expanded sample, when at least ten
    /// samples lie beyond it.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let n = self.len();
        if n == 0 || !supports(n as usize, p) {
            return None;
        }
        self.runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let nth = |k: u64| {
            let mut seen = 0;
            for &(v, c) in &self.runs {
                seen += c;
                if k < seen {
                    return v;
                }
            }
            self.runs.last().map_or(0.0, |r| r.0)
        };
        let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
        let (lo, hi) = (rank.floor() as u64, rank.ceil() as u64);
        let (a, b) = (nth(lo), nth(hi));
        Some(a + (b - a) * (rank - lo as f64))
    }

    /// The highest tail percentile the sample supports, with its value.
    pub fn tail(&mut self) -> Option<(f64, f64)> {
        let p = highest_tail(self.len() as usize)?;
        Some((p, self.percentile(p)?))
    }
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Every way a request can fail to produce a correct answer, counted
/// against the requests attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    pub dropped: u64,
    pub shed: u64,
    pub protocol_errors: u64,
    pub check_failures: u64,
}

impl Outcomes {
    pub fn add(&mut self, other: &Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.dropped += other.dropped;
        self.shed += other.shed;
        self.protocol_errors += other.protocol_errors;
        self.check_failures += other.check_failures;
    }

    /// Requests that did not end in a correct completion.
    pub fn bad(&self) -> u64 {
        self.failed + self.dropped + self.shed + self.protocol_errors + self.check_failures
    }

    /// `bad ÷ attempted`; zero when nothing was attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.bad() as f64 / self.attempted as f64
    }
}

/// Share of *attempted* requests whose latency met the SLO. Only
/// completed requests have latencies, so drops and failures are misses.
pub fn slo_attainment(completed_latencies_ms: &[f64], attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    let met = completed_latencies_ms
        .iter()
        .filter(|&&l| l <= SLO_MS)
        .count();
    met as f64 / attempted as f64
}

/// The verdict of one rung of a rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub p99_ms: f64,
    pub dropped: u64,
    pub failed: u64,
}

impl Rung {
    /// A rung passes when its p99 meets the SLO and nothing was lost.
    pub fn passes(&self) -> bool {
        self.p99_ms <= SLO_MS && self.dropped == 0 && self.failed == 0
    }
}

/// Walks `rates` upwards, evaluating each rung with `probe`, and stops
/// at the first rung that misses. Returns the highest rate below that
/// miss (`None` when the lowest rung already misses) and every rung
/// evaluated. Stopping at the first miss keeps a lucky rung above an
/// overloaded one from counting.
pub fn ladder_search(
    rates: &[f64],
    mut probe: impl FnMut(f64) -> Result<Rung, String>,
) -> Result<(Option<f64>, Vec<Rung>), String> {
    let mut best = None;
    let mut seen = Vec::new();
    for &rate in rates {
        let rung = probe(rate)?;
        seen.push(rung);
        if !rung.passes() {
            break;
        }
        best = Some(rate);
    }
    Ok((best, seen))
}

/// A two-level ladder: rates from `lo` to `hi` in `coarse` steps, then
/// `fine` steps above the highest coarse rate that passed, up to the
/// coarse rung that missed. Both levels use [`ladder_search`], so the
/// answer is the highest rate with no miss at or below it.
pub fn refined_ladder(
    lo: f64,
    hi: f64,
    coarse: f64,
    fine: f64,
    mut probe: impl FnMut(f64) -> Result<Rung, String>,
) -> Result<(Option<f64>, Vec<Rung>), String> {
    // Rates are rounded to a millionth so that 0.1-steps read 3.9, not
    // 3.9000000000000004.
    let steps = |from: f64, step: f64, to: f64| -> Vec<f64> {
        (0..)
            .map(|i| ((from + step * f64::from(i)) * 1e6).round() / 1e6)
            .take_while(|r| *r <= to + 1e-9)
            .collect()
    };
    let (best, mut rungs) = ladder_search(&steps(lo, coarse, hi), &mut probe)?;
    let Some(base) = best else {
        return Ok((None, rungs));
    };
    let fine_rates: Vec<f64> = steps(base + fine, fine, hi)
        .into_iter()
        .take_while(|r| *r < base + coarse - 1e-9)
        .collect();
    let (refined, more) = ladder_search(&fine_rates, &mut probe)?;
    rungs.extend(more);
    Ok((refined.or(best), rungs))
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Mixes a run seed with a stream tag and an index into an independent
/// 64-bit seed (SplitMix64 finalizer).
pub fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_tail(9), None);
        assert_eq!(highest_tail(99), None);
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(199), Some(90.0));
        assert_eq!(highest_tail(200), Some(95.0));
        assert_eq!(highest_tail(999), Some(95.0));
        assert_eq!(highest_tail(1_000), Some(99.0));
        assert_eq!(highest_tail(9_999), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(10, 0.0));
    }

    #[test]
    fn percentiles_follow_the_sample_count() {
        let v: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        assert!((percentile(&v, 50.0).unwrap() - 500.5).abs() < 1e-9);
        assert!((percentile(&v, 99.0).unwrap() - 990.01).abs() < 1e-9);
        assert_eq!(
            percentile(&v, 99.9),
            None,
            "1 000 samples cannot carry p99.9"
        );
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let mut w = Weighted::default();
        w.push(3.0, 998);
        w.push(7.0, 1);
        assert_eq!(
            w.tail(),
            Some((95.0, 3.0)),
            "999 samples: p95 is the highest"
        );
        w.push(7.0, 1);
        assert_eq!(w.tail(), Some((99.0, 3.0)), "1 000 samples carry a p99");
        assert_eq!(Weighted::default().tail(), None);
    }

    #[test]
    fn weighted_runs_match_the_expanded_sample() {
        let mut expanded: Vec<f64> = Vec::new();
        let mut w = Weighted::default();
        for (v, c) in [(5.0, 300u64), (1.0, 500), (9.0, 200), (7.0, 0)] {
            w.push(v, c);
            expanded.extend(std::iter::repeat_n(v, c as usize));
        }
        expanded.sort_by(f64::total_cmp);
        assert_eq!(w.len(), 1_000);
        for p in [50.0, 90.0, 95.0, 99.0] {
            assert_eq!(
                w.percentile(p),
                Some(percentile_sorted(&expanded, p)),
                "p{p}"
            );
        }
        assert_eq!(w.percentile(99.9), None, "1 000 samples cannot carry p99.9");
        assert_eq!(Weighted::default().percentile(50.0), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn error_rate_counts_drops_and_every_failure_kind() {
        let o = Outcomes {
            attempted: 100,
            failed: 1,
            dropped: 2,
            shed: 3,
            protocol_errors: 4,
            check_failures: 5,
        };
        assert_eq!(o.bad(), 15);
        assert!((o.error_rate() - 0.15).abs() < 1e-12);
        let mut sum = Outcomes::default();
        sum.add(&o);
        sum.add(&o);
        assert_eq!((sum.attempted, sum.bad()), (200, 30));
        assert_eq!(Outcomes::default().error_rate(), 0.0);
    }

    #[test]
    fn slo_attainment_counts_drops_as_misses() {
        // Four attempted, three completed (one dropped), one too slow.
        let completed = [10.0, SLO_MS, SLO_MS + 1.0];
        assert!((slo_attainment(&completed, 4) - 0.5).abs() < 1e-12);
        assert_eq!(slo_attainment(&[], 0), 0.0);
    }

    fn rung(rate: f64, p99_ms: f64, dropped: u64) -> Rung {
        Rung {
            rate,
            p99_ms,
            dropped,
            failed: 0,
        }
    }

    #[test]
    fn ladder_stops_at_first_miss() {
        // p99 grows with rate; 4.0 misses the SLO, so 5.0 (which would
        // pass by luck) is never evaluated.
        let p99 = |r: f64| if r == 4.0 { 3_500.0 } else { r * 500.0 };
        let (best, seen) =
            ladder_search(&[1.0, 2.0, 3.0, 4.0, 5.0], |r| Ok(rung(r, p99(r), 0))).unwrap();
        assert_eq!(best, Some(3.0));
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn ladder_treats_drops_as_a_miss() {
        let (best, _) =
            ladder_search(&[1.0, 2.0, 3.0], |r| Ok(rung(r, 10.0, u64::from(r >= 2.0)))).unwrap();
        assert_eq!(best, Some(1.0));
        let (none, seen) = ladder_search(&[1.0, 2.0], |r| Ok(rung(r, 1e9, 0))).unwrap();
        assert_eq!((none, seen.len()), (None, 1));
        let (all, _) = ladder_search(&[1.0, 2.0], |r| Ok(rung(r, 1.0, 0))).unwrap();
        assert_eq!(all, Some(2.0));
        assert!(ladder_search(&[1.0], |_| Err("boom".to_string())).is_err());
    }

    #[test]
    fn refined_ladder_searches_between_coarse_rungs() {
        // The SLO is met up to 4.3 req/s (p99 = 700 ms per req/s).
        let probe = |r: f64| Ok(rung(r, r * 700.0, 0));
        let mut probed = Vec::new();
        let (best, rungs) = refined_ladder(1.0, 10.0, 1.0, 0.1, |r| {
            probed.push(r);
            probe(r)
        })
        .unwrap();
        assert!((best.unwrap() - 4.2).abs() < 1e-9, "{best:?}");
        // Coarse 1..=5 (5 misses), then fine 4.1, 4.2, 4.3 (misses).
        assert_eq!(rungs.len(), 8);
        assert!((probed[7] - 4.3).abs() < 1e-9);
        // No fine rung passes: the coarse answer stands.
        let (coarse, _) = refined_ladder(1.0, 10.0, 1.0, 0.25, |r| {
            Ok(rung(r, if r > 4.0 { 1e9 } else { 1.0 }, 0))
        })
        .unwrap();
        assert_eq!(coarse, Some(4.0));
        // Every rung passes: the top of the range.
        let (top, _) = refined_ladder(1.0, 3.0, 1.0, 0.5, |r| Ok(rung(r, 1.0, 0))).unwrap();
        assert_eq!(top, Some(3.0));
        // The lowest rung misses: no rate meets the SLO.
        let (none, rungs) = refined_ladder(1.0, 3.0, 1.0, 0.5, |r| Ok(rung(r, 1e9, 0))).unwrap();
        assert_eq!((none, rungs.len()), (None, 1));
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "setup_s",
            "host_rtt_p99_us",
            "pool.hit_ratio",
            "wire.call_us.submit-p50",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "req/s", "%", "count", "ratio", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(7, 1, 2), derive_seed(7, 1, 2));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(7, 1, 3));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(7, 2, 2));
        assert_ne!(derive_seed(7, 1, 2), derive_seed(8, 1, 2));
    }
}
