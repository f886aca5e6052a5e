//! # coserve-model
//!
//! Collaboration-of-Experts (CoE) model abstractions for the CoServe
//! reproduction: expert architectures, the expert table with
//! pre-assessed usage probabilities, the independent routing module, the
//! preliminary→subsequent dependency graph, and calibrated device
//! profiles for the paper's two evaluation machines.
//!
//! A CoE model differs from an MoE in exactly the ways CoServe exploits
//! (paper §2.1): experts are independent models, the router is an
//! independent module, and therefore usage probabilities and expert
//! dependencies are knowable *before* serving starts.
//!
//! ```
//! use coserve_model::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CoeModel::builder("pcb-demo");
//! b.arch(ArchSpec::resnet101());
//! b.arch(ArchSpec::yolov5m());
//! let cls = b.expert("cls-capacitor", RESNET101, 0.6);
//! let det = b.expert("det-solder", YOLOV5M, 0.55);
//! b.rule(ClassId(0), RouteRule::with_follow_up(cls, det, 0.92));
//! let model = b.build()?;
//! assert!(model.graph().preliminaries_of(det).contains(&cls));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arch;
pub mod coe;
pub mod devices;
pub mod expert;
pub mod graph;
pub mod routing;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::arch::{ArchSpec, RESNET101, YOLOV5L, YOLOV5M};
    pub use crate::coe::{CoeModel, CoeModelBuilder, ModelError};
    pub use crate::devices;
    pub use crate::expert::{Expert, ExpertId};
    pub use crate::graph::{DependencyGraph, GraphError};
    pub use crate::routing::{ClassId, RouteRule, RouteStage, RoutingTable};
}

pub use prelude::*;
