//! Discrete class distributions.
//!
//! Expert usage in a deployment is driven by how often each input class
//! occurs. The paper's key empirical shape (Figure 11) is a heavily
//! skewed distribution: sorted by usage, the top ~35 of 352 experts
//! cover ~60 % of requests. A Zipf-like law with a per-board floor of
//! one instance per component type reproduces that curve.

use coserve_model::routing::ClassId;
use coserve_sim::rng::SimRng;

/// A discrete probability distribution over input classes, represented
/// by non-negative weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDistribution {
    weights: Vec<f64>,
    cumulative: Vec<f64>,
    total: f64,
}

impl ClassDistribution {
    /// Creates a distribution from raw weights (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    #[must_use]
    pub fn from_weights(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "distribution needs at least one class");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        ClassDistribution {
            weights,
            cumulative,
            total,
        }
    }

    /// A Zipf-with-floor distribution over `n` classes: class `i`
    /// (0-based) gets weight `max(floor, scale · (i+1)^-s)`.
    ///
    /// This models per-board component quantities: popular components
    /// (resistors, capacitors) appear dozens of times per board, but
    /// every declared component type appears at least `floor` times.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or parameters are non-positive.
    #[must_use]
    pub fn zipf_with_floor(n: usize, s: f64, scale: f64, floor: f64) -> Self {
        assert!(n > 0 && s > 0.0 && scale > 0.0 && floor >= 0.0);
        let weights = (0..n)
            .map(|i| (scale * ((i + 1) as f64).powf(-s)).max(floor))
            .collect();
        ClassDistribution::from_weights(weights)
    }

    /// Number of classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the distribution is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The probability of class `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn prob(&self, i: usize) -> f64 {
        self.weights[i] / self.total
    }

    /// All `(class, probability)` pairs, in class order.
    #[must_use]
    pub fn class_probs(&self) -> Vec<(ClassId, f64)> {
        (0..self.weights.len())
            .map(|i| (ClassId(i as u32), self.prob(i)))
            .collect()
    }

    /// Draws one class.
    pub fn sample(&self, rng: &mut SimRng) -> ClassId {
        let x = rng.next_f64() * self.total;
        // Binary search over the cumulative weights.
        let idx = self.cumulative.partition_point(|&c| c <= x);
        ClassId(idx.min(self.weights.len() - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ClassDistribution {
        /// The fraction of probability mass covered by the `k` most
        /// likely classes — the CDF in the paper's Figure 11.
        pub(crate) fn top_k_mass(&self, k: usize) -> f64 {
            let mut sorted = self.weights.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite weights"));
            sorted.iter().take(k).sum::<f64>() / self.total
        }
    }

    #[test]
    fn uniform_probabilities() {
        let d = ClassDistribution::from_weights(vec![1.0; 4]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        for i in 0..4 {
            assert!((d.prob(i) - 0.25).abs() < 1e-12);
        }
        let probs = d.class_probs();
        assert_eq!(probs.len(), 4);
        assert_eq!(probs[2].0, ClassId(2));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = ClassDistribution::zipf_with_floor(352, 1.2, 200.0, 1.0);
        let sum: f64 = (0..d.len()).map(|i| d.prob(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_floor_reproduces_figure11_cdf() {
        // Paper Figure 11: the 35 most used of 352 experts cover ~60 %.
        let d = ClassDistribution::zipf_with_floor(352, 1.2, 200.0, 1.0);
        let mass = d.top_k_mass(35);
        assert!(
            (0.5..0.7).contains(&mass),
            "top-35 mass {mass:.3} outside Figure 11 band"
        );
        assert!((d.top_k_mass(352) - 1.0).abs() < 1e-9);
        assert!((d.top_k_mass(1000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let d = ClassDistribution::zipf_with_floor(100, 1.2, 100.0, 1.0);
        for i in 1..100 {
            assert!(d.prob(i) <= d.prob(i - 1) + 1e-12);
        }
    }

    #[test]
    fn sampling_matches_probabilities() {
        let d = ClassDistribution::from_weights(vec![7.0, 2.0, 1.0]);
        let mut rng = SimRng::seed_from(99);
        let mut counts = [0u32; 3];
        let n = 20_000;
        for _ in 0..n {
            counts[d.sample(&mut rng).index()] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let empirical = f64::from(count) / f64::from(n);
            assert!(
                (empirical - d.prob(i)).abs() < 0.02,
                "class {i}: empirical {empirical:.3} vs {:.3}",
                d.prob(i)
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = ClassDistribution::from_weights(vec![1.0; 10]);
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn zero_weight_classes_are_never_sampled() {
        let d = ClassDistribution::from_weights(vec![0.0, 1.0, 0.0]);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert_eq!(d.sample(&mut rng), ClassId(1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_weights_panic() {
        let _ = ClassDistribution::from_weights(vec![]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_panic() {
        let _ = ClassDistribution::from_weights(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        let _ = ClassDistribution::from_weights(vec![1.0, -0.5]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Samples always land on a class with positive weight.
        #[test]
        fn samples_respect_support(
            weights in proptest::collection::vec(0.0f64..10.0, 1..30),
            seed in any::<u64>(),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let d = ClassDistribution::from_weights(weights.clone());
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..50 {
                let c = d.sample(&mut rng);
                prop_assert!(c.index() < weights.len());
                prop_assert!(weights[c.index()] > 0.0);
            }
        }

        /// `top_k_mass` is monotone in k and bounded by 1.
        #[test]
        fn top_k_mass_monotone(
            weights in proptest::collection::vec(0.0f64..10.0, 2..30),
        ) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let d = ClassDistribution::from_weights(weights.clone());
            let mut prev = 0.0;
            for k in 0..=weights.len() {
                let m = d.top_k_mass(k);
                prop_assert!(m + 1e-12 >= prev);
                prop_assert!(m <= 1.0 + 1e-12);
                prev = m;
            }
        }
    }
}
