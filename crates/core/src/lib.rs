//! # coserve-core
//!
//! The CoServe serving system (ASPLOS '25): an efficient
//! Collaboration-of-Experts model serving system for heterogeneous
//! CPU/GPU devices with limited memory.
//!
//! The crate implements the paper's three phases (Figure 7):
//!
//! * **Offline** — [`profiler`] runs microbenchmarks to produce the
//!   [`perf::PerfMatrix`] (latency `K`/`B` fits, maximum batch sizes,
//!   load latencies, usage probabilities), and [`autotune`] searches
//!   the memory allocation (decay window, §4.4) and executor counts.
//! * **Initialization** — [`engine::plan_memory`] splits device memory
//!   into per-executor pools, workspace and the NUMA staging cache; the
//!   engine preloads experts by descending usage probability.
//! * **Online** — [`engine::Engine`] runs dependency-aware request
//!   scheduling (§4.2: predict, assign, arrange, split) and
//!   dependency-aware expert management (§4.3: two-stage eviction) over
//!   the simulated hardware channels.
//!
//! Every baseline in the evaluation (Samba-CoE and friends, in the
//! `coserve-baselines` crate) runs on the same engine with different
//! [`config::SystemConfig`] policies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autotune;
pub mod config;
pub mod engine;
pub mod evict;
pub mod perf;
pub mod pool;
pub mod presets;
pub mod profiler;
pub mod queue;
pub mod system;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::autotune::{
        executor_search, tune, window_search, TunedSystem, UsageCdf, WindowSearchResult,
    };
    pub use crate::config::{
        AdmissionControl, ArrangePolicy, AssignPolicy, SystemConfig, SystemConfigBuilder,
    };
    pub use crate::engine::{
        plan_memory, Completion, CompletionStatus, Engine, EngineError, EngineSession,
        MemoryLayout, SubmitError,
    };
    pub use crate::evict::{EvictError, EvictionPolicy};
    pub use crate::perf::{PerfEntry, PerfMatrix};
    pub use crate::pool::{ModelPool, PoolError, Resident};
    pub use crate::presets;
    pub use crate::profiler::{Profiler, UsageSource};
    pub use crate::queue::{ExecutorQueue, PendingRequest, RunDelta};
    pub use crate::system::ServingSystem;
}

pub use prelude::*;
