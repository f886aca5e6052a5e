//! Deterministic pseudo-random numbers.
//!
//! Every stochastic decision in the simulator flows from a [`SimRng`] —
//! a xoshiro256** generator seeded explicitly — so that a run is a pure
//! function of its configuration. We implement the generator ourselves
//! (it is ~30 lines) rather than depending on an external crate whose
//! stream might change between versions: schedule reproducibility is a
//! core requirement of the evaluation harness.
//!
//! ```
//! use coserve_sim::rng::SimRng;
//!
//! let mut a = SimRng::seed_from(7);
//! let mut b = SimRng::seed_from(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// A deterministic xoshiro256** pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a single seed word into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a single seed word.
    ///
    /// Any seed is acceptable, including zero: the seed is first expanded
    /// through SplitMix64 so the internal state is never all-zero.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// subsystem its own stream so adding draws in one place does not
    /// perturb another.
    #[must_use]
    pub fn fork(&mut self, label: u64) -> SimRng {
        SimRng::seed_from(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)`, via Lemire rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's multiply-shift method with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A multiplicative jitter factor in `[1 - amplitude, 1 + amplitude]`.
    ///
    /// Used by the profiler to make "measured" latencies realistically
    /// noisy without ever going negative; `amplitude` is clamped to
    /// `[0, 0.99]`.
    pub fn jitter(&mut self, amplitude: f64) -> f64 {
        let a = amplitude.clamp(0.0, 0.99);
        1.0 + (self.next_f64() * 2.0 - 1.0) * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds look identical");
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = SimRng::seed_from(0);
        assert_ne!(r.next_u64(), 0u64.wrapping_add(r.next_u64()));
    }

    #[test]
    fn next_below_is_in_range() {
        let mut r = SimRng::seed_from(9);
        for bound in [1u64, 2, 3, 7, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_ranges() {
        let mut r = SimRng::seed_from(5);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residues never produced");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::seed_from(1).next_below(0);
    }

    #[test]
    fn range_inclusive_hits_endpoints() {
        let mut r = SimRng::seed_from(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range_inclusive(3, 5) {
                3 => lo_seen = true,
                5 => hi_seen = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = SimRng::seed_from(2);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_plausible() {
        let mut r = SimRng::seed_from(3);
        let mean: f64 = (0..4000).map(|_| r.next_f64()).sum::<f64>() / 4000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean} far from 0.5");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = SimRng::seed_from(4);
        assert!((0..100).all(|_| r.bernoulli(1.0)));
        assert!((0..100).all(|_| !r.bernoulli(0.0)));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(r.bernoulli(2.0));
        assert!(!r.bernoulli(-3.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = SimRng::seed_from(7);
        for _ in 0..1000 {
            let j = r.jitter(0.05);
            assert!((0.95..=1.05).contains(&j), "jitter {j} out of band");
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::seed_from(42);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}
