//! # memx-memlib — memory technology models and cost estimation
//!
//! The paper's cost feedback "takes into account actual memory technology
//! characteristics": a proprietary 0.7 µm on-chip SRAM *module generator*
//! with vendor area/power functions, and the Siemens EDO DRAM datasheet
//! power table for off-chip components. Both are proprietary/unavailable,
//! so this crate provides faithful stand-ins (their constants and the
//! magnitude ranges they target are in [`calibration`]):
//!
//! * [`OnChipModel`] — a closed-form area/energy model with the three
//!   properties the methodology relies on: area grows with bit count plus
//!   a per-module overhead, energy per access is *sub-linear* in the
//!   number of words, and extra ports carry a super-linear penalty.
//! * [`OffChipCatalog`] — a discrete part catalog (width × depth × ports)
//!   with per-access energy and static (refresh/interface) power entries,
//!   exactly the "table for our tools to use" the paper built from the
//!   datasheet.
//! * [`CostBreakdown`] — the three figures every table of the paper
//!   reports: on-chip area (mm²), on-chip power (mW), off-chip power (mW).
//!
//! Interconnect area/power is excluded, as in the paper (§3: it "will only
//! affect the absolute cost figures, and not the relative comparisons").
//!
//! # Example
//!
//! ```
//! use memx_memlib::{MemLibrary, OnChipSpec};
//!
//! let lib = MemLibrary::default_07um();
//! let small = lib.on_chip().area_mm2(&OnChipSpec::new(512, 8, 1));
//! let large = lib.on_chip().area_mm2(&OnChipSpec::new(4096, 8, 1));
//! assert!(large > small);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod calibration;
mod cost;
mod offchip;
mod onchip;
pub mod timing;

pub use cost::CostBreakdown;
pub use offchip::{
    OffChipCatalog, OffChipPart, OffChipSelection, ParseCatalogError, SelectPartError,
};
pub use onchip::{OnChipModel, OnChipSpec};

/// The complete memory technology library handed to the exploration tools.
///
/// Bundles the on-chip module-generator model with the off-chip part
/// catalog so the allocation/assignment step can price any candidate
/// memory organization.
#[derive(Debug, Clone, PartialEq)]
pub struct MemLibrary {
    on_chip: OnChipModel,
    off_chip: OffChipCatalog,
}

impl MemLibrary {
    /// Creates a library from explicit models.
    pub fn new(on_chip: OnChipModel, off_chip: OffChipCatalog) -> Self {
        MemLibrary { on_chip, off_chip }
    }

    /// The calibrated default library: 0.7 µm SRAM generator stand-in and
    /// EDO-DRAM-era off-chip catalog (see [`calibration`]).
    pub fn default_07um() -> Self {
        MemLibrary {
            on_chip: OnChipModel::default_07um(),
            off_chip: OffChipCatalog::default_edo(),
        }
    }

    /// The on-chip module-generator model.
    pub fn on_chip(&self) -> &OnChipModel {
        &self.on_chip
    }

    /// The off-chip part catalog.
    pub fn off_chip(&self) -> &OffChipCatalog {
        &self.off_chip
    }
}

impl Default for MemLibrary {
    fn default() -> Self {
        Self::default_07um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_is_usable() {
        let lib = MemLibrary::default();
        assert!(!lib.off_chip().parts().is_empty());
        let spec = OnChipSpec::new(1024, 8, 1);
        assert!(lib.on_chip().area_mm2(&spec) > 0.0);
        assert!(lib.on_chip().energy_pj(&spec) > 0.0);
    }
}
