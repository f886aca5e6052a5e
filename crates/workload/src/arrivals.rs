//! Open-loop arrival processes.
//!
//! The paper's evaluation replays a fixed-interval stream (one image
//! every 4 ms), a *closed* workload whose offered load never exceeds
//! what the conveyor produces. Online serving instead faces an
//! *open-loop* arrival process: requests arrive on their own schedule
//! whether or not the system keeps up, which is what makes tail
//! latency and admission control meaningful. [`ArrivalProcess`] covers
//! the three shapes the serving literature evaluates against:
//! deterministic (uniform), Poisson, and bursty (a two-state
//! Markov-modulated Poisson process).
//!
//! Sampling is fully deterministic given a seed, so two systems under
//! comparison see byte-identical arrival schedules.

use std::fmt;

use coserve_sim::rng::SimRng;
use coserve_sim::time::{SimSpan, SimTime};

/// An open-loop arrival process for request streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Deterministic arrivals every `interval` — the paper's conveyor.
    Uniform {
        /// Fixed inter-arrival gap.
        interval: SimSpan,
    },
    /// Memoryless arrivals at `rate_per_sec` requests per second.
    Poisson {
        /// Mean arrival rate (requests per second), must be positive.
        rate_per_sec: f64,
    },
    /// A two-state Markov-modulated Poisson process: the stream
    /// alternates between a base phase and a burst phase, each with its
    /// own Poisson rate and exponentially distributed dwell time.
    Mmpp {
        /// Arrival rate during the base phase (requests per second).
        base_rate: f64,
        /// Arrival rate during the burst phase (requests per second).
        burst_rate: f64,
        /// Mean dwell time in the base phase, in milliseconds.
        mean_base_ms: f64,
        /// Mean dwell time in the burst phase, in milliseconds.
        mean_burst_ms: f64,
    },
}

impl ArrivalProcess {
    /// A Poisson process with the given mean rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not a positive finite number.
    #[must_use]
    pub fn poisson(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "Poisson rate must be positive"
        );
        ArrivalProcess::Poisson { rate_per_sec }
    }

    /// A bursty MMPP whose base phase runs at `base_rate` and whose
    /// burst phase runs at `burst_rate`, with mean phase dwell times in
    /// milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if any rate or dwell time is not positive and finite.
    #[must_use]
    pub fn bursty(base_rate: f64, burst_rate: f64, mean_base_ms: f64, mean_burst_ms: f64) -> Self {
        for v in [base_rate, burst_rate, mean_base_ms, mean_burst_ms] {
            assert!(v.is_finite() && v > 0.0, "MMPP parameters must be positive");
        }
        ArrivalProcess::Mmpp {
            base_rate,
            burst_rate,
            mean_base_ms,
            mean_burst_ms,
        }
    }

    /// Samples `n` arrival timestamps starting at time zero, in
    /// non-decreasing order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn sample_arrivals(&self, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
        assert!(n > 0, "arrival schedule needs at least one request");
        match *self {
            ArrivalProcess::Uniform { interval } => (0..n)
                .map(|i| SimTime::ZERO + interval * i as u64)
                .collect(),
            ArrivalProcess::Poisson { rate_per_sec } => {
                let mut t_ms = 0.0f64;
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(SimTime::ZERO + SimSpan::from_millis_f64(t_ms));
                    t_ms += exp_gap_ms(rate_per_sec, rng);
                }
                out
            }
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                mean_base_ms,
                mean_burst_ms,
            } => {
                // Exact simulation: thanks to memorylessness, the
                // arrival clock restarts cleanly at each phase switch.
                let mut t_ms = 0.0f64;
                let mut in_burst = false;
                let mut phase_end_ms = exp_ms(mean_base_ms, rng);
                let mut out = Vec::with_capacity(n);
                out.push(SimTime::ZERO);
                while out.len() < n {
                    let rate = if in_burst { burst_rate } else { base_rate };
                    let candidate = t_ms + exp_gap_ms(rate, rng);
                    if candidate <= phase_end_ms {
                        t_ms = candidate;
                        out.push(SimTime::ZERO + SimSpan::from_millis_f64(t_ms));
                    } else {
                        t_ms = phase_end_ms;
                        in_burst = !in_burst;
                        let dwell = if in_burst {
                            mean_burst_ms
                        } else {
                            mean_base_ms
                        };
                        phase_end_ms = t_ms + exp_ms(dwell, rng);
                    }
                }
                out
            }
        }
    }
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArrivalProcess::Uniform { interval } => {
                write!(f, "uniform({interval})")
            }
            ArrivalProcess::Poisson { rate_per_sec } => {
                write!(f, "poisson({rate_per_sec:.1}/s)")
            }
            ArrivalProcess::Mmpp {
                base_rate,
                burst_rate,
                ..
            } => write!(f, "mmpp({base_rate:.1}/s..{burst_rate:.1}/s)"),
        }
    }
}

/// An exponential inter-arrival gap for `rate_per_sec`, in milliseconds.
fn exp_gap_ms(rate_per_sec: f64, rng: &mut SimRng) -> f64 {
    exp_ms(1000.0 / rate_per_sec, rng)
}

/// An exponential draw with the given mean, in milliseconds.
///
/// `next_f64` is in `[0, 1)`, so `1 - u` is in `(0, 1]` and the log is
/// finite.
fn exp_ms(mean_ms: f64, rng: &mut SimRng) -> f64 {
    -(1.0 - rng.next_f64()).ln() * mean_ms
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The empirical rate of a schedule: arrivals per second over its
    /// span (`None` for a degenerate zero-length span).
    fn empirical_rate(arrivals: &[SimTime]) -> Option<f64> {
        let span = arrivals
            .last()
            .unwrap()
            .saturating_since(arrivals[0])
            .as_secs_f64();
        (span > 0.0).then(|| (arrivals.len() - 1) as f64 / span)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Poisson schedules are non-decreasing from time zero and, over
        /// a long horizon, deliver the configured mean rate within 10 %.
        #[test]
        fn poisson_is_monotone_and_rate_accurate(
            seed in 0u64..10_000,
            rate in 20.0f64..2_000.0,
        ) {
            let p = ArrivalProcess::poisson(rate);
            let arrivals = p.sample_arrivals(4_000, &mut SimRng::seed_from(seed));
            prop_assert_eq!(arrivals[0], SimTime::ZERO);
            prop_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
            let measured = empirical_rate(&arrivals).expect("positive-rate span");
            let err = (measured - rate).abs() / rate;
            prop_assert!(
                err < 0.10,
                "poisson({rate}/s) measured {measured:.1}/s ({:.1} % off)",
                100.0 * err
            );
        }

        /// MMPP schedules are non-decreasing and their long-run rate
        /// matches the dwell-weighted offered load within 10 %.
        #[test]
        fn mmpp_is_monotone_and_rate_accurate(
            seed in 0u64..10_000,
            base in 50.0f64..400.0,
            burst_mult in 2.0f64..4.0,
        ) {
            // Short dwell times pack many phase cycles into the horizon,
            // so the empirical phase occupancy converges.
            let p = ArrivalProcess::bursty(base, base * burst_mult, 40.0, 20.0);
            let arrivals = p.sample_arrivals(8_000, &mut SimRng::seed_from(seed));
            prop_assert_eq!(arrivals[0], SimTime::ZERO);
            prop_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
            let offered = p.offered_load_rps();
            let measured = empirical_rate(&arrivals).expect("positive-rate span");
            let err = (measured - offered).abs() / offered;
            prop_assert!(
                err < 0.10,
                "mmpp offered {offered:.1}/s measured {measured:.1}/s ({:.1} % off)",
                100.0 * err
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArrivalProcess {
        /// The long-run mean arrival rate in requests per second — the
        /// *offered load* a latency-vs-load curve plots on its x-axis.
        pub(super) fn offered_load_rps(&self) -> f64 {
            match *self {
                ArrivalProcess::Uniform { interval } => {
                    let secs = interval.as_secs_f64();
                    if secs > 0.0 {
                        1.0 / secs
                    } else {
                        f64::INFINITY
                    }
                }
                ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
                ArrivalProcess::Mmpp {
                    base_rate,
                    burst_rate,
                    mean_base_ms,
                    mean_burst_ms,
                } => {
                    // Phase occupancy is proportional to mean dwell time.
                    (base_rate * mean_base_ms + burst_rate * mean_burst_ms)
                        / (mean_base_ms + mean_burst_ms)
                }
            }
        }
    }

    #[test]
    fn uniform_matches_fixed_interval() {
        let p = ArrivalProcess::Uniform {
            interval: SimSpan::from_millis(4),
        };
        let mut rng = SimRng::seed_from(1);
        let arrivals = p.sample_arrivals(5, &mut rng);
        for (i, at) in arrivals.iter().enumerate() {
            assert_eq!(*at, SimTime::ZERO + SimSpan::from_millis(4) * i as u64);
        }
        assert!((p.offered_load_rps() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_is_deterministic_and_monotone() {
        let p = ArrivalProcess::poisson(100.0);
        let a = p.sample_arrivals(500, &mut SimRng::seed_from(9));
        let b = p.sample_arrivals(500, &mut SimRng::seed_from(9));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a[0], SimTime::ZERO);
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let p = ArrivalProcess::poisson(200.0); // mean gap 5 ms
        let arrivals = p.sample_arrivals(4000, &mut SimRng::seed_from(3));
        let span = arrivals.last().unwrap().saturating_since(arrivals[0]);
        let mean_gap = span.as_millis_f64() / (arrivals.len() - 1) as f64;
        assert!(
            (mean_gap - 5.0).abs() < 0.5,
            "mean gap {mean_gap:.2} ms far from 5 ms"
        );
    }

    #[test]
    fn mmpp_is_deterministic_monotone_and_bursty() {
        let p = ArrivalProcess::bursty(50.0, 800.0, 200.0, 50.0);
        let a = p.sample_arrivals(2000, &mut SimRng::seed_from(11));
        let b = p.sample_arrivals(2000, &mut SimRng::seed_from(11));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Burstiness: the gap distribution is overdispersed relative to
        // a Poisson process of the same mean rate (CV > 1).
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_millis_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.1, "MMPP coefficient of variation {cv:.2} not bursty");
    }

    #[test]
    fn mmpp_offered_load_is_dwell_weighted() {
        let p = ArrivalProcess::bursty(100.0, 300.0, 300.0, 100.0);
        // 3/4 of time at 100/s, 1/4 at 300/s -> 150/s.
        assert!((p.offered_load_rps() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn display_names_the_shape() {
        assert!(ArrivalProcess::poisson(10.0)
            .to_string()
            .contains("poisson"));
        assert!(ArrivalProcess::bursty(1.0, 2.0, 3.0, 4.0)
            .to_string()
            .contains("mmpp"));
        assert!(ArrivalProcess::Uniform {
            interval: SimSpan::from_millis(4)
        }
        .to_string()
        .contains("uniform"));
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_arrivals_panic() {
        let _ = ArrivalProcess::poisson(1.0).sample_arrivals(0, &mut SimRng::seed_from(1));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_poisson_rate_panics() {
        let _ = ArrivalProcess::poisson(0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_mmpp_params_panic() {
        let _ = ArrivalProcess::bursty(1.0, f64::NAN, 1.0, 1.0);
    }
}
