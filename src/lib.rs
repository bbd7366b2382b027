//! # memexplore
//!
//! System-level memory organization design exploration with accurate
//! area/power/performance feedback — a Rust reproduction of
//! *Vandecappelle, Miranda, Brockmeyer, Catthoor, Verkest: "Global
//! Multimedia System Design Exploration using Accurate Memory
//! Organization Feedback", DAC 1999* (IMEC).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`ir`] — the pruned application-specification IR (basic groups,
//!   loop nests, access flow graphs);
//! * [`memlib`] — memory technology models (on-chip SRAM module
//!   generator stand-in, off-chip EDO-DRAM part catalog) and the
//!   three-figure [`memlib::CostBreakdown`];
//! * [`core`] — the methodology: pruning, MACP analysis, basic-group
//!   structuring, memory-hierarchy insertion, storage-cycle-budget
//!   distribution, memory allocation and signal-to-memory assignment,
//!   the feedback driver, and the parallel batched exploration engine
//!   ([`core::engine`]);
//! * [`btpc`] — the demonstrator application, a complete Binary Tree
//!   Predictive Coding image codec with instrumented arrays;
//! * [`profile`] — the access-count instrumentation substrate.
//!
//! # Quickstart
//!
//! ```
//! use memexplore::core::explore::{evaluate, EvaluateOptions};
//! use memexplore::ir::{AppSpecBuilder, AccessKind};
//! use memexplore::memlib::MemLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = AppSpecBuilder::new("fir");
//! let taps = b.basic_group("taps", 64, 12)?;
//! let nest = b.loop_nest("mac", 100_000)?;
//! b.access(nest, taps, AccessKind::Read)?;
//! b.cycle_budget(400_000).real_time_seconds(1e-2);
//! let spec = b.build()?;
//!
//! let lib = MemLibrary::default_07um();
//! let report = evaluate(&spec, &lib, &EvaluateOptions::default())?;
//! println!("{}", report.cost);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete walkthroughs, `docs/architecture.md` for
//! the crate map and dataflow, and the README's "Paper-table conformance
//! suite" section for the reproduced tables and their golden snapshot.

pub use memx_btpc as btpc;
pub use memx_core as core;
pub use memx_ir as ir;
pub use memx_memlib as memlib;
pub use memx_profile as profile;
