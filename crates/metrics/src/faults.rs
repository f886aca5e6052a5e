//! Fault and recovery accounting.
//!
//! A [`FaultLedger`] partitions what a faulted run did about its
//! faults: every injected fault is either **recovered** (retried to
//! success, hedged to a replica, degraded to a fallback path) or
//! **terminal** (retries exhausted, request shed). The ledger also
//! prices recovery — wasted work re-spent on failed attempts, idle
//! backoff, dilated service — and brackets the run's fault exposure in
//! simulated time so a figure can report time-to-recover per fault
//! class.
//!
//! The ledger is deliberately flat plain-old-data: every injection
//! site owns one (engine sessions, the cluster runtime, the server
//! core) and [`FaultLedger::merge`] folds them into the run-level view
//! carried by `FleetDynamics`.

use std::fmt;

use coserve_sim::time::{SimSpan, SimTime};

/// Counters partitioning injected faults and the work recovery spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Expert-load read failures injected (each is recovered via
    /// retries or terminal: `load_faults == load_recovered +
    /// load_exhausted` always holds).
    pub load_faults: u64,
    /// Load faults recovered by retrying to success.
    pub load_recovered: u64,
    /// Load faults where the retry budget ran out.
    pub load_exhausted: u64,
    /// Slow (dilated, but successful) expert loads injected.
    pub slow_loads: u64,
    /// Individual retry attempts spent across all load faults.
    pub retries: u64,
    /// Fabric hops that ran dilated.
    pub link_dilated: u64,
    /// Fabric hops that met a partitioned pair.
    pub link_partitioned: u64,
    /// Chain stages cut off from every live holder, degraded to a local
    /// fallback (the routed node's SSD checkpoint instead of the
    /// fabric hop).
    pub degraded_local: u64,
    /// Jobs re-routed to a replica because their first-choice node was
    /// unreachable for some chain stage.
    pub hedged_reroutes: u64,
    /// Node-ticks served under slow-node dilation.
    pub slow_node_ticks: u64,
    /// Requests shed with a typed busy/retry-after response.
    pub busy_shed: u64,
    /// Work re-spent on attempts that then failed (load reads, dead
    /// fabric transfers).
    pub wasted_time: SimSpan,
    /// Idle time spent backing off between retries.
    pub backoff_time: SimSpan,
    /// Extra service time paid to dilation (slow loads, slow links,
    /// slow nodes).
    pub degraded_time: SimSpan,
    /// When the first fault was injected (`None` = clean run).
    pub first_fault: Option<SimTime>,
    /// When the last recovery action completed.
    pub last_recovery: Option<SimTime>,
}

impl FaultLedger {
    /// Whether nothing was ever injected or recovered — the ledger of
    /// a run with faults disabled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == FaultLedger::default()
    }

    /// Total faults injected across every class.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.load_faults
            + self.slow_loads
            + self.link_dilated
            + self.link_partitioned
            + self.slow_node_ticks
            + self.busy_shed
    }

    /// Faults a recovery action absorbed (retried to success, degraded
    /// to a fallback, hedged to a replica).
    #[must_use]
    pub fn recovered(&self) -> u64 {
        self.load_recovered + self.degraded_local + self.hedged_reroutes
    }

    /// Marks a fault injection at `at` (keeps the earliest).
    pub fn note_fault(&mut self, at: SimTime) {
        self.first_fault = Some(self.first_fault.map_or(at, |t| t.min(at)));
    }

    /// Marks a completed recovery action at `at` (keeps the latest).
    pub fn note_recovery(&mut self, at: SimTime) {
        self.last_recovery = Some(self.last_recovery.map_or(at, |t| t.max(at)));
    }

    /// First-fault to last-recovery span: how long the run was
    /// actively absorbing faults. `None` until both ends exist.
    #[must_use]
    pub fn recovery_span(&self) -> Option<SimSpan> {
        match (self.first_fault, self.last_recovery) {
            (Some(f), Some(r)) => Some(r.saturating_since(f)),
            _ => None,
        }
    }

    /// Folds `other` into `self` (counter sums; the fault window is
    /// the union).
    pub fn merge(&mut self, other: &FaultLedger) {
        self.load_faults += other.load_faults;
        self.load_recovered += other.load_recovered;
        self.load_exhausted += other.load_exhausted;
        self.slow_loads += other.slow_loads;
        self.retries += other.retries;
        self.link_dilated += other.link_dilated;
        self.link_partitioned += other.link_partitioned;
        self.degraded_local += other.degraded_local;
        self.hedged_reroutes += other.hedged_reroutes;
        self.slow_node_ticks += other.slow_node_ticks;
        self.busy_shed += other.busy_shed;
        self.wasted_time += other.wasted_time;
        self.backoff_time += other.backoff_time;
        self.degraded_time += other.degraded_time;
        if let Some(f) = other.first_fault {
            self.note_fault(f);
        }
        if let Some(r) = other.last_recovery {
            self.note_recovery(r);
        }
    }

    /// The ledger as a JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let span = self
            .recovery_span()
            .map_or("null".to_string(), |s| format!("{:.6}", s.as_millis_f64()));
        format!(
            concat!(
                "{{\"load_faults\":{},\"load_recovered\":{},\"load_exhausted\":{},",
                "\"slow_loads\":{},\"retries\":{},\"link_dilated\":{},",
                "\"link_partitioned\":{},\"degraded_local\":{},\"hedged_reroutes\":{},",
                "\"slow_node_ticks\":{},\"busy_shed\":{},\"wasted_ms\":{:.6},",
                "\"backoff_ms\":{:.6},\"degraded_ms\":{:.6},\"recovery_span_ms\":{}}}"
            ),
            self.load_faults,
            self.load_recovered,
            self.load_exhausted,
            self.slow_loads,
            self.retries,
            self.link_dilated,
            self.link_partitioned,
            self.degraded_local,
            self.hedged_reroutes,
            self.slow_node_ticks,
            self.busy_shed,
            self.wasted_time.as_millis_f64(),
            self.backoff_time.as_millis_f64(),
            self.degraded_time.as_millis_f64(),
            span,
        )
    }
}

impl fmt::Display for FaultLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults injected, {} recovered, {} exhausted, {} retries, {} shed",
            self.injected(),
            self.recovered(),
            self.load_exhausted,
            self.retries,
            self.busy_shed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultLedger {
        let mut ledger = FaultLedger {
            load_faults: 5,
            load_recovered: 4,
            load_exhausted: 1,
            slow_loads: 2,
            retries: 9,
            link_dilated: 3,
            link_partitioned: 2,
            degraded_local: 2,
            hedged_reroutes: 1,
            slow_node_ticks: 6,
            busy_shed: 7,
            wasted_time: SimSpan::from_millis(12),
            backoff_time: SimSpan::from_millis(3),
            degraded_time: SimSpan::from_millis(40),
            first_fault: None,
            last_recovery: None,
        };
        ledger.note_fault(SimTime::from_nanos(500));
        ledger.note_recovery(SimTime::from_nanos(2_500));
        ledger
    }

    #[test]
    fn default_is_empty_and_sums_partition() {
        assert!(FaultLedger::default().is_empty());
        assert_eq!(FaultLedger::default().injected(), 0);
        assert_eq!(FaultLedger::default().recovery_span(), None);
        let ledger = sample();
        assert!(!ledger.is_empty());
        assert_eq!(ledger.injected(), 5 + 2 + 3 + 2 + 6 + 7);
        assert_eq!(ledger.recovered(), 4 + 2 + 1);
        assert_eq!(
            ledger.load_faults,
            ledger.load_recovered + ledger.load_exhausted,
            "every load fault is recovered or terminal"
        );
    }

    #[test]
    fn fault_window_keeps_extremes() {
        let mut ledger = FaultLedger::default();
        ledger.note_fault(SimTime::from_nanos(100));
        ledger.note_fault(SimTime::from_nanos(50));
        ledger.note_fault(SimTime::from_nanos(200));
        ledger.note_recovery(SimTime::from_nanos(300));
        ledger.note_recovery(SimTime::from_nanos(120));
        assert_eq!(ledger.first_fault, Some(SimTime::from_nanos(50)));
        assert_eq!(ledger.last_recovery, Some(SimTime::from_nanos(300)));
        assert_eq!(ledger.recovery_span(), Some(SimSpan::from_nanos(250)));
    }

    #[test]
    fn merge_sums_counters_and_unions_windows() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.load_faults, 10);
        assert_eq!(a.retries, 18);
        assert_eq!(a.wasted_time, SimSpan::from_millis(24));
        assert_eq!(a.first_fault, Some(SimTime::from_nanos(500)));
        assert_eq!(a.last_recovery, Some(SimTime::from_nanos(2_500)));
        let mut clean = FaultLedger::default();
        clean.merge(&FaultLedger::default());
        assert!(clean.is_empty());
    }

    #[test]
    fn json_is_stable_and_complete() {
        let json = sample().to_json();
        for key in [
            "load_faults",
            "load_recovered",
            "load_exhausted",
            "slow_loads",
            "retries",
            "link_dilated",
            "link_partitioned",
            "degraded_local",
            "hedged_reroutes",
            "slow_node_ticks",
            "busy_shed",
            "wasted_ms",
            "backoff_ms",
            "degraded_ms",
            "recovery_span_ms",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        assert!(json.contains("\"recovery_span_ms\":0.002000"), "{json}");
        assert!(
            FaultLedger::default()
                .to_json()
                .contains("\"recovery_span_ms\":null"),
            "clean runs have no recovery span"
        );
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn display_summarizes() {
        let s = sample().to_string();
        assert!(s.contains("25 faults injected"), "{s}");
        assert!(s.contains("7 shed"), "{s}");
    }
}
