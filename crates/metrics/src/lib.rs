//! # coserve-metrics
//!
//! Measurement and reporting for CoServe runs: [`report::RunReport`]
//! (throughput, expert switches, latency ledgers — the quantities in
//! the paper's Figures 13–16 and 19), descriptive statistics and the
//! `K·n + B` linear fit used by the offline profiler (§4.5), and
//! dependency-free table/CSV rendering for the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attribution;
pub mod cluster;
pub mod faults;
pub mod output;
pub mod report;
pub mod stats;
pub mod table;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::attribution::{ExpertHeat, ExpertHeatRow, LatencyAttribution, StageAttribution};
    pub use crate::cluster::{ClusterReport, FailureRecord, FleetDynamics, TickStat};
    pub use crate::faults::FaultLedger;
    pub use crate::report::{ExecutorReport, RunReport, RunSnapshot, SwitchEvent};
    pub use crate::stats::{linear_fit, LinFit, Summary};
    pub use crate::table::{fmt_f64, Table};
}

pub use prelude::*;
