//! # memx-profile — automatic access-count instrumentation
//!
//! §4.1 of the paper: *"Because this kind of profiling is so often
//! necessary to do any memory-related optimizations, we have written
//! software to automatically instrument the application to gather the
//! access counts."* This crate is that software for Rust applications:
//! wrap each important array in a [`TrackedArray`] registered with a
//! [`ProfileRegistry`], run the application on representative inputs, and
//! snapshot a [`Profile`] of per-array read/write counts.
//!
//! The [`Profile`] can then be scaled (profiling runs use smaller inputs
//! than the 1024×1024 production frames) and fed to the spec builders of
//! the demonstrator crates.
//!
//! # Example
//!
//! ```
//! use memx_profile::{ProfileRegistry, TrackedArray};
//!
//! let registry = ProfileRegistry::new();
//! let mut xs: TrackedArray<u16> = registry.array("xs", 8);
//! xs.write(3, 42);
//! let v = xs.read(3);
//! assert_eq!(v, 42);
//! let profile = registry.snapshot();
//! assert_eq!(profile.counts("xs"), Some((1.0, 1.0)));
//! ```

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
#![warn(missing_docs, missing_debug_implementations)]

mod counter;
mod registry;
mod snapshot;
mod tracked;

pub use counter::AccessCounter;
pub use registry::ProfileRegistry;
pub use snapshot::{ArrayCounts, Profile};
pub use tracked::TrackedArray;
