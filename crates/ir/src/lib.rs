//! # memx-ir — pruned application-specification IR
//!
//! This crate defines the intermediate representation consumed by the
//! physical-memory-management stages of `memx-core`: the *pruned system
//! specification* of §4.1 of the paper.
//!
//! The IR deliberately abstracts away everything that is irrelevant to the
//! memory organization: scalar processing is dropped, data is analyzed at
//! the *basic group* (array) level, and control flow is reduced to loop
//! nests with per-body memory-access flow graphs.
//!
//! * [`BasicGroup`] — an independently storable unit of array data
//!   (§4.1/§4.3 of the paper).
//! * [`Access`] — one memory-access statement inside a loop body.
//! * [`LoopNest`] — a loop body with its iteration count and intra-body
//!   dependency edges (the flow graph used for storage-cycle-budget
//!   distribution and critical-path analysis).
//! * [`AppSpec`] — the whole pruned specification, plus the real-time
//!   constraint from which the storage cycle budget derives.
//!
//! # Example
//!
//! ```
//! use memx_ir::{AppSpecBuilder, AccessKind};
//!
//! # fn main() -> Result<(), memx_ir::BuildSpecError> {
//! let mut b = AppSpecBuilder::new("fir");
//! let x = b.basic_group("x", 1024, 12)?;
//! let h = b.basic_group("h", 16, 10)?;
//! let y = b.basic_group("y", 1024, 16)?;
//! let body = b.loop_nest("mac", 1024 * 16)?;
//! let rx = b.access(body, x, AccessKind::Read)?;
//! let rh = b.access(body, h, AccessKind::Read)?;
//! let wy = b.access(body, y, AccessKind::Write)?;
//! b.depend(body, rx, wy)?; // y written after x read
//! b.depend(body, rh, wy)?;
//! let spec = b.cycle_budget(40_000).real_time_seconds(1e-3).build()?;
//! assert_eq!(spec.basic_groups().len(), 3);
//! # Ok(())
//! # }
//! ```

//! # Textual front-end
//!
//! Specs also exist as *data*: a versioned textual format (grammar in
//! `docs/spec_format.md`) read by [`parse_spec`] and written by
//! [`spec_text::print_spec`], with [`specgen`] generating seeded
//! random specs for stress sweeps. Parsing funnels through
//! [`AppSpecBuilder`], so a parsed spec is indistinguishable — same
//! invariants, same [`AppSpec::content_hash`] — from one built in
//! Rust.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod error;
mod group;
pub mod hash;
mod loops;
pub mod parse;
mod spec;
pub mod spec_text;
pub mod specgen;

pub use access::{Access, AccessId, AccessKind};
pub use error::{BuildSpecError, ValidateSpecError};
pub use group::{BasicGroup, BasicGroupId, Placement};
pub use loops::{DependencyEdge, LoopNest, LoopNestId};
pub use parse::parse_spec;
pub use spec::{AppSpec, AppSpecBuilder};
pub use spec_text::{print_spec, SpecTextError, SPEC_TEXT_VERSION};
