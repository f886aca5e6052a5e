//! # coserve-sim
//!
//! Deterministic discrete-event simulation substrate for the CoServe
//! reproduction (ASPLOS '25).
//!
//! The CoServe paper evaluates a serving system on two physical edge
//! devices. This crate supplies the *hardware* those experiments need,
//! as a simulator: a nanosecond clock and event queue, serially-reusable
//! channels (GPU compute, DMA, SSD), byte quantities and memory tiers, a
//! transfer-cost model for moving experts between tiers, execution cost
//! models (`K·n + B` with a saturation knee), and device profiles
//! matching the paper's Table 1.
//!
//! Everything is deterministic: the same configuration produces the same
//! run, bit for bit, which is what makes the figure harness and the
//! scheduling comparisons meaningful.
//!
//! ```
//! use coserve_sim::prelude::*;
//!
//! let device = DeviceProfile::numa_rtx3080ti();
//! let weights = Bytes::new(178_000_000); // a ResNet101 checkpoint
//! let load = device.transfer_duration(weights, TransferRoute::SsdToGpu);
//! assert!(load > SimSpan::from_millis(500)); // switching is expensive
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compute;
pub mod device;
pub mod events;
pub mod memory;
pub mod network;
pub mod resource;
pub mod rng;
pub mod time;
pub mod transfer;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::compute::{LatencyModel, MemoryModel};
    pub use crate::device::{ArchId, DeviceProfile, KernelProfile, MemoryArch, ProcessorKind};
    pub use crate::events::Calendar;
    pub use crate::memory::{Bytes, MemoryTier};
    pub use crate::network::LinkProfile;
    pub use crate::resource::{FifoResource, Reservation};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimSpan, SimTime};
    pub use crate::transfer::{TransferCosts, TransferRoute, TransferStages};
}

pub use prelude::*;
