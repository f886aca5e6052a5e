//! Simulated time.
//!
//! The simulator keeps time as an integer number of nanoseconds since the
//! start of the run. Two newtypes keep instants and durations apart:
//! [`SimTime`] is a point on the simulated clock and [`SimSpan`] is a
//! length of simulated time. Mixing them up is a compile error, which is
//! the whole point.
//!
//! ```
//! use coserve_sim::time::{SimSpan, SimTime};
//!
//! let t = SimTime::ZERO + SimSpan::from_millis(4);
//! assert_eq!(t.nanos(), 4_000_000);
//! assert_eq!(t - SimTime::ZERO, SimSpan::from_millis(4));
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, in nanoseconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    ///
    /// ```
    /// # use coserve_sim::time::SimTime;
    /// assert_eq!(SimTime::from_nanos(5).nanos(), 5);
    /// ```
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Raw nanoseconds since the start of the run.
    #[must_use]
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the start of the run, as a float.
    #[must_use]
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The later of two instants.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[must_use]
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The span from `earlier` to `self`, or [`SimSpan::ZERO`] when
    /// `earlier` is actually later (saturating).
    #[must_use]
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }
}

impl SimSpan {
    /// The empty span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Creates a span from raw nanoseconds.
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimSpan(nanos)
    }

    /// Creates a span from whole microseconds.
    #[must_use]
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimSpan(micros * 1_000)
    }

    /// Creates a span from whole milliseconds.
    #[must_use]
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimSpan(millis * 1_000_000)
    }

    /// Creates a span from whole seconds.
    #[must_use]
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimSpan(secs * 1_000_000_000)
    }

    /// Creates a span from fractional milliseconds.
    ///
    /// Negative or NaN inputs clamp to zero (cost models are physically
    /// non-negative and a simulation must never move backwards); `+∞`
    /// saturates to the maximum representable span.
    #[must_use]
    #[inline]
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Creates a span from fractional seconds, rounded to the nearest
    /// nanosecond (halves away from zero); negatives and NaN clamp to
    /// zero, `+∞` saturates.
    #[must_use]
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimSpan::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            return SimSpan(u64::MAX);
        }
        // `f64::round` is a libm call on baseline x86-64 (no SSE4.1
        // `roundsd`), and every cost-model price passes through here.
        // Truncate and compare the remainder instead, which is exact for
        // every non-negative `nanos` below 2^64: the cast truncates
        // exactly; below 2^53 the truncation is an exact double and the
        // remainder is exact (Sterbenz: `whole` lies within a factor of
        // two of `nanos` once `nanos >= 1`, and is 0 below); at or
        // above 2^53 every double is an integer, so the remainder is 0.
        let whole = nanos as u64;
        let rest = nanos - whole as f64;
        SimSpan(whole + u64::from(rest >= 0.5))
    }

    /// Raw nanoseconds.
    #[must_use]
    #[inline]
    pub const fn nanos(self) -> u64 {
        self.0
    }

    /// The span as fractional seconds.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span as fractional milliseconds.
    #[must_use]
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the span is empty.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two spans.
    #[must_use]
    #[inline]
    pub fn max(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.max(other.0))
    }

    /// The smaller of two spans.
    #[must_use]
    #[inline]
    pub fn min(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[must_use]
    #[inline]
    pub fn saturating_sub(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(other.0))
    }

    /// The span scaled by `factor`, rounded to the nearest nanosecond.
    /// The float-to-integer cast saturates: a negative or NaN factor
    /// gives zero and an overflowing product the maximum span.
    #[must_use]
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimSpan {
        SimSpan((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimSpan> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    /// # Panics
    ///
    /// Panics in debug builds when subtracting a later instant from an
    /// earlier one; use [`SimTime::saturating_since`] when the ordering is
    /// not statically known.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimSpan {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimSpan {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimSpan {
        debug_assert!(self.0 >= rhs.0, "SimSpan subtraction went negative");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    /// # Panics
    ///
    /// Panics when dividing by zero.
    #[inline]
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(SimSpan::from_micros(3).nanos(), 3_000);
        assert_eq!(SimSpan::from_millis(3).nanos(), 3_000_000);
        assert_eq!(SimSpan::from_secs(3).nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_nanos(42).nanos(), 42);
    }

    #[test]
    fn float_conversions() {
        let s = SimSpan::from_millis_f64(1.5);
        assert_eq!(s.nanos(), 1_500_000);
        assert!((s.as_millis_f64() - 1.5).abs() < 1e-9);
        assert!((SimSpan::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_floats_clamp_to_zero() {
        assert_eq!(SimSpan::from_secs_f64(-1.0), SimSpan::ZERO);
        assert_eq!(SimSpan::from_secs_f64(f64::NAN), SimSpan::ZERO);
        assert_eq!(SimSpan::from_secs_f64(f64::NEG_INFINITY), SimSpan::ZERO);
    }

    #[test]
    fn huge_floats_saturate() {
        assert_eq!(SimSpan::from_secs_f64(f64::INFINITY).nanos(), u64::MAX);
        assert_eq!(SimSpan::from_secs_f64(1e40).nanos(), u64::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimSpan::from_millis(10);
        let u = t + SimSpan::from_millis(5);
        assert_eq!(u - t, SimSpan::from_millis(5));
        assert_eq!(t.max(u), u);
        assert_eq!(t.min(u), t);
    }

    #[test]
    fn saturating_since_clamps() {
        let t = SimTime::from_nanos(5);
        let u = SimTime::from_nanos(9);
        assert_eq!(t.saturating_since(u), SimSpan::ZERO);
        assert_eq!(u.saturating_since(t), SimSpan::from_nanos(4));
    }

    #[test]
    fn span_arithmetic() {
        let a = SimSpan::from_millis(2);
        let b = SimSpan::from_millis(3);
        assert_eq!(a + b, SimSpan::from_millis(5));
        assert_eq!(b - a, SimSpan::from_millis(1));
        assert_eq!(a * 3, SimSpan::from_millis(6));
        assert_eq!(SimSpan::from_millis(6) / 2, SimSpan::from_millis(3));
        assert_eq!(b.saturating_sub(a + b), SimSpan::ZERO);
        assert_eq!(SimSpan::from_nanos(3).mul_f64(1.5), SimSpan::from_nanos(5));
        assert_eq!(a.mul_f64(-1.0), SimSpan::ZERO);
        let total: SimSpan = [a, b, a].into_iter().sum();
        assert_eq!(total, SimSpan::from_millis(7));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimSpan::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimSpan::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimSpan::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_nanos(1_000_000).to_string(), "t=1.000ms");
    }

    #[test]
    fn addition_saturates_at_max() {
        let t = SimTime::MAX + SimSpan::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    /// Regression for the panicking `Sub` contract: reordered operands
    /// trip the debug assertion rather than silently wrapping. Code that
    /// can legitimately observe reordered timestamps (scheduler and
    /// eviction paths) must use `saturating_since`/`saturating_sub`; a
    /// workspace-wide audit (disabling these `Sub` impls and recompiling
    /// all targets) found no such call site outside this module.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SimTime subtraction went negative")]
    fn reordered_instant_subtraction_panics_in_debug() {
        let earlier = SimTime::from_nanos(5);
        let later = SimTime::from_nanos(9);
        let _ = earlier - later;
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SimSpan subtraction went negative")]
    fn reordered_span_subtraction_panics_in_debug() {
        let _ = SimSpan::from_nanos(5) - SimSpan::from_nanos(9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// What `from_secs_f64` must return: the product rounded by
    /// `f64::round`, through the saturating float-to-integer cast.
    fn rounded(secs: f64) -> u64 {
        (secs * 1e9).round() as u64
    }

    /// `secs` and its three nearest doubles on either side.
    fn neighbours(secs: f64) -> impl Iterator<Item = f64> {
        (-3i64..=3).map(move |step| f64::from_bits(secs.to_bits().wrapping_add_signed(step)))
    }

    /// Spans that land exactly on a half nanosecond, or on either side
    /// of the doubles' integer and saturation edges.
    #[test]
    fn from_secs_f64_rounds_like_f64_round_at_the_edges() {
        let two_52 = (1u64 << 52) as f64;
        let two_53 = (1u64 << 53) as f64;
        let edges = [
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            two_52 - 0.5,
            two_52 + 0.5,
            two_52,
            two_53,
            two_53 - 1.0,
            u64::MAX as f64,
            u64::MAX as f64 / 2.0,
        ];
        for nanos in edges {
            for secs in neighbours(nanos / 1e9) {
                assert_eq!(
                    SimSpan::from_secs_f64(secs).nanos(),
                    rounded(secs),
                    "{secs:e}"
                );
            }
        }
        for secs in [
            -0.0,
            -1.0,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
        ] {
            assert_eq!(
                SimSpan::from_secs_f64(secs).nanos(),
                rounded(secs),
                "{secs:e}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// `from_secs_f64` agrees with `(secs * 1e9).round() as u64` on
        /// every double: random bit patterns (every sign, exponent,
        /// NaN and infinity), exact half nanoseconds up to 2^53, and
        /// values scaled across the whole range below saturation.
        #[test]
        fn from_secs_f64_matches_f64_round(
            bits in any::<u64>(),
            whole in 0u64..(1 << 53),
            scale in 0u32..65,
            unit in 0.0f64..1.0,
        ) {
            let random = f64::from_bits(bits);
            prop_assert_eq!(SimSpan::from_secs_f64(random).nanos(), rounded(random));
            let half = (whole as f64 + 0.5) / 1e9;
            prop_assert_eq!(SimSpan::from_secs_f64(half).nanos(), rounded(half));
            let scaled = unit * 2f64.powi(scale as i32) / 1e9;
            for secs in neighbours(scaled) {
                prop_assert_eq!(SimSpan::from_secs_f64(secs).nanos(), rounded(secs));
            }
        }
    }
}
