//! # coserve-workload
//!
//! Workload generation for the CoServe reproduction: the circuit-board
//! inspection scenario from the paper's evaluation (Boards A/B with
//! 352/342 component types, tasks A1/A2/B1/B2, one image every 4 ms)
//! and a Qihoo-360-style multi-domain LLM scenario from the paper's
//! motivation.
//!
//! All generation is seeded and deterministic, and stage outcomes are
//! pre-rolled into the [`stream::Job`]s so every serving system under
//! comparison processes byte-identical work.
//!
//! ```
//! use coserve_workload::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let task = TaskSpec::a1().scaled(0.01); // 25 requests for a demo
//! let model = task.build_model()?;
//! let stream = task.stream(&model);
//! assert_eq!(stream.len(), 25);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrivals;
pub mod board;
pub mod distribution;
pub mod llm;
pub mod stream;
pub mod task;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::arrivals::ArrivalProcess;
    pub use crate::board::{BoardSpec, ComponentSpec, DetectorArch};
    pub use crate::distribution::ClassDistribution;
    pub use crate::stream::{Job, JobId, RequestStream, StreamOrder};
    pub use crate::task::{TaskSpec, PAPER_ARRIVAL_INTERVAL};
}

pub use prelude::*;
