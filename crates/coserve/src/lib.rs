//! # coserve
//!
//! A reproduction of **CoServe: Efficient Collaboration-of-Experts
//! (CoE) Model Inference with Limited Memory** (ASPLOS '25) as a Rust
//! library, built on a deterministic discrete-event simulation of the
//! paper's evaluation hardware.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`sim`] — the simulation substrate (clock, channels, memory tiers,
//!   transfer/compute cost models, device profiles);
//! * [`model`] — CoE model abstractions (experts, routing, dependency
//!   graph);
//! * [`workload`] — circuit-board inspection and LLM workloads;
//! * [`core`] — the CoServe system (profiler, dependency-aware
//!   scheduling and expert management, memory autotuning, engine);
//! * [`baselines`] — the Samba-CoE baselines and evaluation suite;
//! * [`cluster`] — cluster-scale serving: expert placement planning,
//!   the fleet's network link and multi-node dispatch;
//! * [`metrics`] — run reports, statistics and table rendering;
//! * [`trace`] — structured sim-time tracing and Perfetto export.
//!
//! [`serve`] adds what the paper's closed evaluation cannot express:
//! open-loop online serving with Poisson/bursty arrivals, bounded
//! queues, admission control and tail-latency (p50/p90/p95/p99)
//! reporting — see [`serve::serve_open_loop`] for one device and
//! [`serve::serve_cluster`] for a fleet.
//!
//! ## Quickstart
//!
//! ```
//! use coserve::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small circuit board: 24 component types, 3 shared detectors.
//! let board = BoardSpec::synthetic("demo-board", 24, 3, 1.2, 40.0, 0.5);
//! let model = board.build_model()?;
//! let device = devices::numa_rtx3080ti();
//!
//! // Offline: profile and configure; Online: serve a request stream.
//! let config = presets::coserve(&device);
//! let system = ServingSystem::new(device, model, config)?;
//! let task = TaskSpec::new(
//!     "demo", board, 200, PAPER_ARRIVAL_INTERVAL, StreamOrder::Iid, 7,
//! );
//! let report = system.serve(&task.stream(system.model()));
//! assert_eq!(report.completed, 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use coserve_baselines as baselines;
pub use coserve_cluster as cluster;
pub use coserve_core as core;
pub use coserve_metrics as metrics;
pub use coserve_model as model;
pub use coserve_sim as sim;
pub use coserve_trace as trace;
pub use coserve_workload as workload;

pub mod serve;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use crate::serve::{open_loop_stream, serve_cluster, serve_open_loop, OpenLoopOptions};
    pub use coserve_baselines::prelude::*;
    pub use coserve_cluster::prelude::*;
    pub use coserve_core::prelude::*;
    pub use coserve_metrics::prelude::*;
    pub use coserve_model::prelude::*;
    pub use coserve_sim::prelude::*;
    pub use coserve_workload::prelude::*;
}
