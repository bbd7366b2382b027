//! # memx-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation on the
//! BTPC demonstrator. Each `table*`/`fig*` binary in `src/bin` prints
//! the corresponding artifact; the criterion benches in `benches/`
//! measure the underlying algorithms.
//!
//! The [`experiments`] module holds the shared pipeline so binaries,
//! integration tests and benches produce identical numbers. The
//! [`gates`] module holds the end-to-end checks the `memx-gates` binary
//! runs over the built binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gates;
