//! # coserve-faults
//!
//! Deterministic fault injection for the CoServe reproduction.
//!
//! A production CoE fleet sees far richer failure modes than the node
//! kills the cluster runtime already models: expert loads
//! fail or crawl when an SSD misbehaves, fabric links degrade or
//! partition, whole nodes slow down without dying, and client
//! connections drop mid-frame. A [`FaultPlan`] injects all of those —
//! **deterministically**. Every fault decision is a pure function of
//! the plan's seed, the fault site's identity (node, executor, expert,
//! link pair, connection) and the *simulated* time it is queried at;
//! there is no wall clock, no global RNG and no hidden state, so a
//! faulted run replays bit for bit and a disabled plan is
//! indistinguishable from no plan at all.
//!
//! The injection surface has four classes, mirroring the layers of the
//! stack that consult the plan:
//!
//! * **expert-load faults** ([`FaultPlan::expert_load`]) — a pool miss's
//!   SSD/tier read fails outright (to be retried or given up on) or
//!   runs dilated; consumed by the engine's switch path;
//! * **link faults** ([`FaultPlan::link`]) — a fabric link's bandwidth
//!   dilates or the pair partitions entirely; consumed by the
//!   dispatcher's hop charging;
//! * **slow nodes** ([`FaultPlan::node_dilation`]) — a node's service
//!   rate dilates across a window; consumed by the cluster runtime's
//!   per-tick accounting (and recovered from by dispatcher feedback);
//! * **connection chaos** ([`FaultPlan::connection_chaos`]) — seeded
//!   byte-stream mutilation (re-chunking, truncation, corruption,
//!   mid-frame disconnects) for driving clients and protocol tests.
//!
//! Recovery lives next to injection: a [`RetryPolicy`] bounds retries
//! with exponential backoff, and is consulted by the same code paths
//! that consult the plan.
//!
//! ```
//! use coserve_faults::{FaultPlan, FaultWindow, LoadOutcome};
//! use coserve_sim::time::SimTime;
//!
//! let plan = FaultPlan::seeded(7).with_expert_load(0.5, 0.0, 1.0, FaultWindow::ALWAYS);
//! let a = plan.expert_load(0, 1, 42, SimTime::from_nanos(100));
//! let b = plan.expert_load(0, 1, 42, SimTime::from_nanos(100));
//! assert_eq!(a, b, "same site, same time, same outcome");
//! assert_eq!(FaultPlan::disabled().expert_load(0, 1, 42, SimTime::ZERO), LoadOutcome::Healthy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use coserve_sim::rng::SimRng;
use coserve_sim::time::{SimSpan, SimTime};

/// Domain-separation tags so draws for different fault classes at the
/// same site/time never share a stream.
const TAG_LOAD: u64 = 0x4c4f_4144;
const TAG_LINK: u64 = 0x4c49_4e4b;
const TAG_CONN: u64 = 0x434f_4e4e;

/// A half-open window `[start, end)` of simulated time during which a
/// fault class is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault class is armed.
    pub start: SimTime,
    /// First instant it is disarmed again.
    pub end: SimTime,
}

impl FaultWindow {
    /// Armed for the whole run.
    pub const ALWAYS: FaultWindow = FaultWindow {
        start: SimTime::ZERO,
        end: SimTime::from_nanos(u64::MAX),
    };

    /// A window from `start` lasting `span`.
    #[must_use]
    pub fn new(start: SimTime, span: SimSpan) -> Self {
        FaultWindow {
            start,
            end: start + span,
        }
    }

    /// Whether `at` falls inside the window.
    #[must_use]
    pub fn contains(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }
}

/// What an expert-load query came back with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadOutcome {
    /// The read succeeds at full speed.
    Healthy,
    /// The read succeeds but every transfer stage runs `factor`× slower
    /// (`factor > 1`).
    Slow(f64),
    /// The read fails `failures` consecutive times before an attempt
    /// would succeed; whether anything retries that often is the
    /// [`RetryPolicy`]'s call, not the plan's.
    Fail {
        /// Consecutive failed attempts before the first success.
        failures: u32,
    },
}

/// What a link query came back with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkOutcome {
    /// The link is at its profiled speed.
    Healthy,
    /// The transfer runs `factor`× slower (`factor > 1`).
    Dilated(f64),
    /// The pair is unreachable; the transfer cannot happen at all.
    Partitioned,
}

#[derive(Debug, Clone, PartialEq)]
struct ExpertLoadFaults {
    fail_rate: f64,
    slow_rate: f64,
    slow_factor: f64,
    window: FaultWindow,
}

#[derive(Debug, Clone, PartialEq)]
struct LinkFaults {
    dilation_rate: f64,
    dilation: f64,
    partitions: Vec<(usize, usize)>,
    window: FaultWindow,
}

#[derive(Debug, Clone, PartialEq)]
struct SlowNodeFaults {
    nodes: Vec<usize>,
    factor: f64,
    window: FaultWindow,
}

/// A seeded, deterministic fault schedule. Constructed disabled; each
/// `with_*` builder arms one fault class. Cloning is cheap and two
/// clones answer every query identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    expert_load: Option<ExpertLoadFaults>,
    link: Option<LinkFaults>,
    slow_node: Option<SlowNodeFaults>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

impl FaultPlan {
    /// A plan that never injects anything, whatever it is asked.
    #[must_use]
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            expert_load: None,
            link: None,
            slow_node: None,
        }
    }

    /// An empty plan carrying `seed`; arm classes with the `with_*`
    /// builders.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::disabled()
        }
    }

    /// Whether no fault class is armed (the plan can never inject).
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.expert_load.is_none() && self.link.is_none() && self.slow_node.is_none()
    }

    /// Arms expert-load faults: inside `window`, a pool miss's tier
    /// read fails with probability `fail_rate` per attempt and (when it
    /// does not fail) runs `slow_factor`× slower with probability
    /// `slow_rate`.
    ///
    /// # Panics
    ///
    /// Panics when `slow_factor < 1.0` or either rate is outside
    /// `[0, 1)` (a rate of exactly 1 would make every retry fail
    /// forever, which no bounded policy recovers from).
    #[must_use]
    pub fn with_expert_load(
        mut self,
        fail_rate: f64,
        slow_rate: f64,
        slow_factor: f64,
        window: FaultWindow,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&fail_rate) && (0.0..1.0).contains(&slow_rate),
            "fault rates must be in [0, 1)"
        );
        assert!(slow_factor >= 1.0, "slow loads cannot speed reads up");
        self.expert_load = Some(ExpertLoadFaults {
            fail_rate,
            slow_rate,
            slow_factor,
            window,
        });
        self
    }

    /// Arms link faults: inside `window`, any transfer over a
    /// `partitions` pair is unreachable, and every other transfer runs
    /// `dilation`× slower with probability `dilation_rate`. Pairs are
    /// unordered (`(a, b)` also partitions `b → a`).
    ///
    /// # Panics
    ///
    /// Panics when `dilation < 1.0` or `dilation_rate` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn with_link(
        mut self,
        dilation_rate: f64,
        dilation: f64,
        partitions: Vec<(usize, usize)>,
        window: FaultWindow,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&dilation_rate),
            "dilation rate must be in [0, 1]"
        );
        assert!(dilation >= 1.0, "link dilation cannot speed transfers up");
        let partitions = partitions
            .into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        self.link = Some(LinkFaults {
            dilation_rate,
            dilation,
            partitions,
            window,
        });
        self
    }

    /// Arms slow-node faults: inside `window`, every listed node's
    /// service runs `factor`× slower.
    ///
    /// # Panics
    ///
    /// Panics when `factor < 1.0`.
    #[must_use]
    pub fn with_slow_nodes(mut self, nodes: Vec<usize>, factor: f64, window: FaultWindow) -> Self {
        assert!(factor >= 1.0, "slow nodes cannot speed service up");
        self.slow_node = Some(SlowNodeFaults {
            nodes,
            factor,
            window,
        });
        self
    }

    /// A private per-query stream: the same `(tag, ids, at)` always
    /// yields the same draws, and distinct sites never share a stream.
    fn rng_for(&self, tag: u64, ids: &[u64], at: SimTime) -> SimRng {
        let mut key = self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &id in ids {
            // One SplitMix-style absorption round per id word.
            key = key
                .wrapping_add(id)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(31);
        }
        key ^= at.nanos().wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from(key)
    }

    /// The outcome of loading `expert` into executor `exec` of `node`
    /// at simulated time `at`. [`LoadOutcome::Healthy`] whenever the
    /// class is unarmed or the window is closed.
    #[must_use]
    pub fn expert_load(&self, node: u32, exec: u32, expert: u32, at: SimTime) -> LoadOutcome {
        let Some(cfg) = &self.expert_load else {
            return LoadOutcome::Healthy;
        };
        if !cfg.window.contains(at) {
            return LoadOutcome::Healthy;
        }
        let mut rng = self.rng_for(
            TAG_LOAD,
            &[u64::from(node), u64::from(exec), u64::from(expert)],
            at,
        );
        if cfg.fail_rate > 0.0 && rng.bernoulli(cfg.fail_rate) {
            // Geometric tail, capped: the cap only matters to policies
            // retrying more than 16 times, which none do.
            let mut failures = 1;
            while failures < 16 && rng.bernoulli(cfg.fail_rate) {
                failures += 1;
            }
            return LoadOutcome::Fail { failures };
        }
        if cfg.slow_rate > 0.0 && rng.bernoulli(cfg.slow_rate) {
            return LoadOutcome::Slow(cfg.slow_factor);
        }
        LoadOutcome::Healthy
    }

    /// The state of the link between nodes `a` and `b` for a transfer
    /// at simulated time `at`. [`LinkOutcome::Healthy`] whenever the
    /// class is unarmed, the window is closed, or `a == b` (local moves
    /// never touch the fabric).
    #[must_use]
    pub fn link(&self, a: usize, b: usize, at: SimTime) -> LinkOutcome {
        let Some(cfg) = &self.link else {
            return LinkOutcome::Healthy;
        };
        if a == b || !cfg.window.contains(at) {
            return LinkOutcome::Healthy;
        }
        let pair = (a.min(b), a.max(b));
        if cfg.partitions.contains(&pair) {
            return LinkOutcome::Partitioned;
        }
        if cfg.dilation_rate > 0.0 {
            let mut rng = self.rng_for(TAG_LINK, &[pair.0 as u64, pair.1 as u64], at);
            if rng.bernoulli(cfg.dilation_rate) {
                return LinkOutcome::Dilated(cfg.dilation);
            }
        }
        LinkOutcome::Healthy
    }

    /// Whether the unordered pair `(a, b)` is partitioned at `at`
    /// (reachability only — dilation does not cut a link).
    #[must_use]
    pub fn partitioned(&self, a: usize, b: usize, at: SimTime) -> bool {
        matches!(self.link(a, b, at), LinkOutcome::Partitioned)
    }

    /// The service dilation of `node` at `at`: `1.0` when healthy,
    /// `> 1.0` while a slow-node window holds it.
    #[must_use]
    pub fn node_dilation(&self, node: usize, at: SimTime) -> f64 {
        match &self.slow_node {
            Some(cfg) if cfg.window.contains(at) && cfg.nodes.contains(&node) => cfg.factor,
            _ => 1.0,
        }
    }

    /// A seeded byte-stream mutilator for connection `conn` — the
    /// client-side fault class (mid-frame disconnects, stalled and
    /// re-chunked reads, bit corruption) used to drive servers and
    /// protocol decoders through hostile inputs.
    // Only the wire chaos tests (`crates/server/tests/chaos.rs`) drive
    // connections through it, like the `ByteChaos` methods below.
    // tidy:allow(test-only-api)
    #[must_use]
    pub fn connection_chaos(&self, conn: u64) -> ByteChaos {
        ByteChaos {
            rng: self.rng_for(TAG_CONN, &[conn], SimTime::ZERO),
        }
    }
}

/// Bounded retry with exponential backoff — the recovery half of the
/// fault layer. A load whose injected failures exceed `max_retries` is
/// given up on; otherwise every retry is spent, however long the
/// recovery takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts after the first (0 = fail on the first fault).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: SimSpan,
}

impl RetryPolicy {
    /// No recovery at all: the first fault is terminal.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimSpan::ZERO,
        }
    }

    /// Bounded retries with exponential backoff.
    #[must_use]
    pub fn retries(max_retries: u32, base_backoff: SimSpan) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff,
        }
    }

    /// The backoff before retry `attempt` (0-based): `base · 2^attempt`,
    /// saturating.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> SimSpan {
        let nanos = self
            .base_backoff
            .nanos()
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        SimSpan::from_nanos(nanos)
    }

    /// Total backoff spent by `retries` retries (the sum of the first
    /// `retries` backoff terms).
    #[must_use]
    pub fn total_backoff(&self, retries: u32) -> SimSpan {
        (0..retries).map(|i| self.backoff(i)).sum()
    }
}

/// How one chaos step mutilates a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosStep {
    /// Deliver the next `len` bytes as one read.
    Deliver {
        /// Bytes in this read (always ≥ 1).
        len: usize,
    },
    /// Stall — deliver nothing this step (a read timeout on the
    /// receiver).
    Stall,
    /// Drop the connection here, mid-frame or not; nothing after this
    /// is delivered.
    Disconnect,
}

/// A seeded byte-stream mutilator: slices a wire image into hostile
/// read schedules and applies deterministic corruption. Obtained from
/// [`FaultPlan::connection_chaos`]; every method is a pure function of
/// the chaos stream's position, so a replay with the same seed makes
/// identical choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteChaos {
    rng: SimRng,
}

impl ByteChaos {
    /// Slices a stream of `len` bytes into a read schedule: arbitrary
    /// re-chunking with interleaved stalls, and — when `lossy` — a
    /// possible mid-stream disconnect. The delivered lengths always sum
    /// to `len` unless a `Disconnect` cuts the tail.
    // Called by the wire chaos tests (`crates/server/tests/chaos.rs`).
    // tidy:allow(test-only-api)
    #[must_use]
    pub fn schedule(&mut self, len: usize, lossy: bool) -> Vec<ChaosStep> {
        let mut steps = Vec::new();
        let mut left = len;
        while left > 0 {
            if lossy && self.rng.bernoulli(0.02) {
                steps.push(ChaosStep::Disconnect);
                return steps;
            }
            if self.rng.bernoulli(0.15) {
                steps.push(ChaosStep::Stall);
                continue;
            }
            // Mostly tiny reads (tearing frames apart), occasionally a
            // big gulp that re-coalesces several frames.
            let chunk = if self.rng.bernoulli(0.8) {
                1 + self.rng.next_below(7) as usize
            } else {
                1 + self.rng.next_below(4096) as usize
            };
            let take = chunk.min(left);
            steps.push(ChaosStep::Deliver { len: take });
            left -= take;
        }
        steps
    }

    /// Truncates `bytes` at a seeded position (possibly mid-frame).
    /// Returns how many bytes survive.
    #[must_use]
    pub fn truncate(&mut self, bytes: &mut Vec<u8>) -> usize {
        if bytes.is_empty() {
            return 0;
        }
        let keep = self.rng.next_below(bytes.len() as u64 + 1) as usize;
        bytes.truncate(keep);
        keep
    }

    /// Flips seeded bytes of `bytes` in place (roughly `rate` of them,
    /// always at least one when the buffer is non-empty and
    /// `rate > 0`). Returns how many bytes were corrupted.
    // Called by the wire chaos tests (`crates/server/tests/chaos.rs`).
    // tidy:allow(test-only-api)
    #[must_use]
    pub fn corrupt(&mut self, bytes: &mut [u8], rate: f64) -> usize {
        if bytes.is_empty() || rate <= 0.0 {
            return 0;
        }
        let mut hits = 0;
        for b in bytes.iter_mut() {
            if self.rng.bernoulli(rate) {
                *b ^= (1 + self.rng.next_below(255)) as u8;
                hits += 1;
            }
        }
        if hits == 0 {
            let at = self.rng.next_below(bytes.len() as u64) as usize;
            if let Some(b) = bytes.get_mut(at) {
                *b ^= (1 + self.rng.next_below(255)) as u8;
                hits = 1;
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_injects() {
        let plan = FaultPlan::disabled();
        assert!(plan.is_disabled());
        for t in [0u64, 1, 1_000_000_000] {
            let at = SimTime::from_nanos(t);
            assert_eq!(plan.expert_load(0, 0, 0, at), LoadOutcome::Healthy);
            assert_eq!(plan.link(0, 1, at), LinkOutcome::Healthy);
            assert!(!plan.partitioned(0, 1, at));
            assert!((plan.node_dilation(0, at) - 1.0).abs() < f64::EPSILON);
        }
        assert_eq!(FaultPlan::default(), FaultPlan::disabled());
    }

    #[test]
    fn queries_are_deterministic_and_site_sensitive() {
        let plan = FaultPlan::seeded(42).with_expert_load(0.5, 0.3, 2.0, FaultWindow::ALWAYS);
        let at = SimTime::from_nanos(777);
        assert_eq!(plan.expert_load(1, 2, 3, at), plan.expert_load(1, 2, 3, at));
        assert_eq!(
            plan.clone().expert_load(1, 2, 3, at),
            plan.expert_load(1, 2, 3, at)
        );
        // Different sites/times draw from different streams: over many
        // sites, outcomes must not all agree.
        let outcomes: Vec<LoadOutcome> = (0..64).map(|e| plan.expert_load(0, 0, e, at)).collect();
        assert!(outcomes.iter().any(|o| *o != outcomes[0]));
    }

    #[test]
    fn fail_rate_controls_fault_density() {
        let window = FaultWindow::ALWAYS;
        let lo = FaultPlan::seeded(1).with_expert_load(0.05, 0.0, 1.0, window);
        let hi = FaultPlan::seeded(1).with_expert_load(0.6, 0.0, 1.0, window);
        let count = |plan: &FaultPlan| {
            (0..400)
                .filter(|&e| {
                    matches!(
                        plan.expert_load(0, 0, e, SimTime::from_nanos(u64::from(e) * 13)),
                        LoadOutcome::Fail { .. }
                    )
                })
                .count()
        };
        let (lo_n, hi_n) = (count(&lo), count(&hi));
        assert!(lo_n > 0, "5% over 400 draws must fire");
        assert!(
            hi_n > 3 * lo_n,
            "60% must fire far more than 5%: {hi_n} vs {lo_n}"
        );
    }

    #[test]
    fn windows_gate_injection() {
        let window = FaultWindow::new(SimTime::from_nanos(100), SimSpan::from_nanos(50));
        let plan = FaultPlan::seeded(9)
            .with_expert_load(0.9, 0.0, 1.0, window)
            .with_slow_nodes(vec![1], 3.0, window)
            .with_link(0.0, 1.0, vec![(0, 1)], window);
        for t in [0, 99, 150, 1000] {
            let at = SimTime::from_nanos(t);
            assert_eq!(plan.expert_load(0, 0, 7, at), LoadOutcome::Healthy, "t={t}");
            assert!((plan.node_dilation(1, at) - 1.0).abs() < f64::EPSILON);
            assert!(!plan.partitioned(0, 1, at));
        }
        let inside = SimTime::from_nanos(120);
        assert!(plan.partitioned(0, 1, inside));
        assert!(plan.partitioned(1, 0, inside), "partitions are unordered");
        assert!((plan.node_dilation(1, inside) - 3.0).abs() < f64::EPSILON);
        assert!((plan.node_dilation(0, inside) - 1.0).abs() < f64::EPSILON);
        let faults = (0..100)
            .filter(|&e| plan.expert_load(0, 0, e, inside) != LoadOutcome::Healthy)
            .count();
        assert!(faults > 50, "90% inside the window must fire: {faults}");
    }

    #[test]
    fn link_dilation_fires_and_partitions_win() {
        let plan = FaultPlan::seeded(3).with_link(1.0, 4.0, vec![(2, 3)], FaultWindow::ALWAYS);
        let at = SimTime::from_nanos(5);
        assert_eq!(plan.link(0, 1, at), LinkOutcome::Dilated(4.0));
        assert_eq!(plan.link(2, 3, at), LinkOutcome::Partitioned);
        assert_eq!(
            plan.link(1, 1, at),
            LinkOutcome::Healthy,
            "self-links never fault"
        );
    }

    #[test]
    fn retry_policy_backoff_doubles_and_saturates() {
        let policy = RetryPolicy::retries(3, SimSpan::from_millis(2));
        assert_eq!(policy.backoff(0), SimSpan::from_millis(2));
        assert_eq!(policy.backoff(1), SimSpan::from_millis(4));
        assert_eq!(policy.backoff(2), SimSpan::from_millis(8));
        assert_eq!(policy.total_backoff(3), SimSpan::from_millis(14));
        assert_eq!(policy.total_backoff(0), SimSpan::ZERO);
        assert_eq!(RetryPolicy::none().max_retries, 0);
        // Saturation instead of overflow at absurd attempt counts.
        let big = RetryPolicy::retries(80, SimSpan::from_secs(1));
        assert_eq!(big.backoff(70), SimSpan::from_nanos(u64::MAX));
    }

    #[test]
    fn chaos_schedule_conserves_bytes_when_lossless() {
        let plan = FaultPlan::seeded(11);
        let mut chaos = plan.connection_chaos(4);
        let steps = chaos.schedule(10_000, false);
        let delivered: usize = steps
            .iter()
            .map(|s| match s {
                ChaosStep::Deliver { len } => *len,
                ChaosStep::Stall => 0,
                ChaosStep::Disconnect => panic!("lossless schedule disconnected"),
            })
            .sum();
        assert_eq!(delivered, 10_000);
        assert!(steps.len() > 10, "10k bytes must split into many reads");
        // Same conn, same seed → same schedule.
        assert_eq!(plan.connection_chaos(4).schedule(10_000, false), steps);
        // Different conn → different schedule.
        assert_ne!(plan.connection_chaos(5).schedule(10_000, false), steps);
    }

    #[test]
    fn chaos_truncate_and_corrupt_are_bounded() {
        let mut chaos = FaultPlan::seeded(21).connection_chaos(0);
        let mut bytes = vec![0xAAu8; 256];
        let original = bytes.clone();
        let hits = chaos.corrupt(&mut bytes, 0.05);
        assert!(hits >= 1);
        assert_ne!(bytes, original, "corruption must change something");
        assert_eq!(bytes.len(), 256);
        let kept = chaos.truncate(&mut bytes);
        assert_eq!(bytes.len(), kept);
        assert!(kept <= 256);
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(chaos.truncate(&mut empty), 0);
        assert_eq!(chaos.corrupt(&mut empty, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "rates must be in")]
    fn certain_failure_rate_is_rejected() {
        let _ = FaultPlan::seeded(0).with_expert_load(1.0, 0.0, 1.0, FaultWindow::ALWAYS);
    }

    #[test]
    #[should_panic(expected = "cannot speed service up")]
    fn speedup_dilation_is_rejected() {
        let _ = FaultPlan::seeded(0).with_slow_nodes(vec![0], 0.5, FaultWindow::ALWAYS);
    }
}
