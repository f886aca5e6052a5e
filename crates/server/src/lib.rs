//! # coserve-server
//!
//! A network front-end for the CoServe engine, in the shape of
//! Pelikan's `pingserver`: a small length-prefixed binary protocol, an
//! acceptor feeding a fixed pool of worker threads, per-session read
//! and write buffers, and an admin port that reports live engine
//! telemetry as JSON without pausing the run.
//!
//! The crate is the network face of the re-entrant service core added
//! to `coserve-core`: where `ServingSystem::serve` consumes a whole
//! request stream and returns one report, an
//! [`EngineSession`](coserve_core::engine::EngineSession) accepts
//! individual submissions and hands back completions incrementally —
//! exactly the shape a socket protocol needs. The layering mirrors
//! Pelikan's server/worker/storage split:
//!
//! ```text
//!                    ┌───────────────────────────────────────────┐
//!   TCP data port ──▶│ acceptor ─▶ channel ─▶ worker 0..N        │
//!                    │   each conn: FrameBuffer (bytes in)       │
//!                    │              answer buffer (bytes out)    │
//!                    │   read ─▶ decode ─▶ ServiceCore           │
//!                    │                         │ Mutex           │
//!                    │                         ▼                 │
//!                    │                   EngineSession           │
//!                    │   encode each answer into the buffer;     │
//!                    │   one write per read, before reading on   │
//!   TCP admin port ─▶│ admin: /healthz /stats /metrics           │
//!                    │        /trace /drain /shutdown            │
//!                    └───────────────────────────────────────────┘
//! ```
//!
//! * [`protocol`] — the wire format (`PROTOCOL.md` has the bytes);
//! * [`service`] — the shared core multiplexing one engine session
//!   across connections;
//! * [`server`] — listener, worker pool, blocking [`server::Client`];
//! * [`admin`] — the mini-HTTP admin responder.
//!
//! Determinism survives the network: the engine behind the mutex is
//! the same deterministic simulator the batch facades use, so a
//! request stream pushed through the wire completes with bit-identical
//! per-job results to `ServingSystem::serve` — the end-to-end tests in
//! this crate pin that with 1, 2 and 4 worker threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admin;
pub mod protocol;
pub mod server;
pub mod service;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::protocol::{
        decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
        ErrorCode, FrameBuffer, ProtocolError, Request, Response, WireCompletion, MAX_FRAME,
    };
    pub use crate::server::{Client, Server, ServerConfig, ServerCounters};
    pub use crate::service::ServiceCore;
}

pub use prelude::*;
