//! # memx-core — system-level memory organization exploration
//!
//! The paper's contribution: a stepwise, feedback-driven methodology that
//! lets a designer explore system-level data-transfer-and-storage
//! decisions with *accurate* area/power/performance estimates of the
//! resulting custom memory organization.
//!
//! The pipeline mirrors Figure 1 of the paper:
//!
//! 1. [`pruning`] — focus the specification on what matters (§4.1);
//! 2. [`macp`] — memory-access critical-path analysis (§4.2);
//! 3. [`structuring`] — basic-group compaction and merging (§4.3);
//! 4. [`hierarchy`] — custom memory-hierarchy insertion (§4.4);
//! 5. [`scbd`] — storage-cycle-budget distribution via flow-graph
//!    balancing (§4.5);
//! 6. [`alloc`] — memory allocation and signal-to-memory assignment
//!    (§4.6);
//! 7. [`explore`] — the feedback driver tying the stages together and
//!    producing the paper's three-figure cost reports.
//!
//! Beyond the paper's manual flow, [`reuse`] implements the formalized
//! data-reuse analysis its §4.4 cites as the systematic alternative:
//! automatic derivation and evaluation of hierarchy-layer candidates.
//! [`engine`] batches design-point evaluations across a worker pool
//! (with memoized scheduling), so sweeps and variant comparisons run as
//! fast as the hardware allows while returning bit-identical results to
//! the serial path; [`cache`] makes that memoization durable — a
//! disk-backed, content-addressed store that carries schedules across
//! processes and CI runs.
//!
//! # Example
//!
//! ```
//! use memx_core::explore::{evaluate, EvaluateOptions};
//! use memx_ir::{AppSpecBuilder, AccessKind};
//! use memx_memlib::MemLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = AppSpecBuilder::new("demo");
//! let xs = b.basic_group("xs", 4096, 12)?;
//! let nest = b.loop_nest("scan", 4096)?;
//! b.access(nest, xs, AccessKind::Read)?;
//! b.cycle_budget(20_000).real_time_seconds(1e-3);
//! let spec = b.build()?;
//!
//! let lib = MemLibrary::default_07um();
//! let report = evaluate(&spec, &lib, &EvaluateOptions::default())?;
//! assert!(report.cost.on_chip_area_mm2 > 0.0);
//! # Ok(())
//! # }
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

pub mod alloc;
pub mod cache;
pub mod corpus;
pub mod engine;
mod error;
pub mod explore;
pub mod fan;
pub mod hierarchy;
pub mod macp;
pub mod pruning;
pub mod report;
pub mod reuse;
pub mod scbd;
pub mod structuring;

pub use error::ExploreError;
