//! # coserve-baselines
//!
//! The baseline serving systems from the CoServe paper's evaluation
//! (§5.1), expressed as policy configurations over the shared
//! `coserve-core` engine: Samba-CoE (FCFS + LRU with a CPU-memory cache
//! tier on NUMA), Samba-CoE FIFO, and Samba-CoE Parallel — plus the
//! assembled five-system evaluation suite of Figures 13–14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod samba;
pub mod suite;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::samba::{
        all_baselines, samba_coe, samba_coe_fifo, samba_coe_parallel, FCFS_SCHEDULING_COST,
    };
    pub use crate::suite::evaluation_suite;
}

pub use prelude::*;
