//! # coserve-tidy
//!
//! Workspace static analysis in the style of rust-lang/rust's `tidy`:
//! an offline, zero-dependency tool that enforces the invariants the
//! reproduction's correctness story rests on, run as
//! `cargo run -p coserve-tidy` locally and as a CI gate.
//!
//! Five families of checks:
//!
//! * **Determinism** — the bit-identical-figure guarantee (the
//!   mechanism PR 4's hot-path overhaul and PR 6's wire protocol were
//!   proven with) requires the crates results flow through to never
//!   observe hash-seed, wall-clock, environment, or thread identity.
//!   [`checks::determinism`] forbids those constructs in the
//!   deterministic crates.
//! * **Calendar hygiene** — simulated time advances only by popping
//!   the event calendar; [`checks::calendar`] forbids direct `SimTime`
//!   arithmetic in the clock-driving crates outside the calendar and
//!   the two event loops built on it, so tick scanning cannot creep
//!   back in.
//! * **Panic safety** — the server parses untrusted network bytes;
//!   [`checks::panic`] hard-forbids panic-capable sites on the request
//!   path and ratchets every other crate's count against the committed
//!   `tidy_baseline.json` (see [`baseline`]).
//! * **Hygiene** — `#![forbid(unsafe_code)]` in every crate root, no
//!   leftover debug macros, artifact paths resolved through
//!   `coserve_metrics::output` ([`checks::hygiene`]).
//! * **Test-only API** — a library `pub fn` that only tests call is
//!   kept alive for nothing; [`checks::api`] flags every one that no
//!   non-test code, the repository benchmark included, calls.
//!
//! What makes this better than grep is the [`scan`] module: a
//! token-level scanner that strips comments and blanks string/char
//! literal bodies before checks look at a line, so prose about
//! `HashMap` or a test fixture containing `panic!` never false-
//! positives. Findings print as `file:line: [check] message`; a
//! justified site is silenced in place with `// tidy:allow(<check>)`
//! plus a comment explaining why it is safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod check;
pub mod checks {
    //! The check implementations.
    pub mod api;
    pub mod calendar;
    pub mod determinism;
    pub mod hygiene;
    pub mod panic;
}
pub mod runner;
pub mod scan;
pub mod workspace;
