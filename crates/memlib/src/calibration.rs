//! Calibration constants for the default technology models.
//!
//! The paper's absolute figures come from a proprietary 0.7 µm module
//! generator and a vendor DRAM datasheet; these constants are chosen once
//! so that the BTPC demonstrator lands in the paper's magnitude range
//! (on-chip area 60–120 mm², on-chip power 25–90 mW, off-chip power
//! 85–210 mW) while preserving every qualitative property the methodology
//! exploits. They are *not* fitted per experiment: the same constants
//! produce all four tables.
//
// fingerprinted(alloc_model_fingerprint) — the dual-port
// calibration factors are hashed into the allocation cache key.

/// On-chip SRAM storage-cell area per bit \[mm²/bit\] (0.7 µm, 6T cell plus
/// local wiring).
pub const ON_CHIP_AREA_PER_BIT_MM2: f64 = 4.0e-4;

/// Word count at which the cell-array area penalty for monolithic
/// modules reaches +100 %: beyond a few thousand words the 0.7 µm
/// generator must bank the array and stretch word/bit lines, so the
/// area per bit grows with the module size. This is what makes very
/// large single modules unattractive and drives the left side of the
/// Table 4 area curve.
pub const ON_CHIP_BANK_WORDS: f64 = 6_000.0;

/// Fixed per-module area overhead \[mm²\]: sense amplifiers, control,
/// address decoder base cost.
pub const ON_CHIP_MODULE_OVERHEAD_MM2: f64 = 0.9;

/// Decoder/periphery area factor multiplying `sqrt(words)` \[mm²\].
pub const ON_CHIP_DECODE_AREA_MM2: f64 = 0.012;

/// Additional area fraction per extra port (dual-port cell ~1.8× single).
pub const ON_CHIP_PORT_AREA_FACTOR: f64 = 0.85;

/// On-chip energy per access: fixed component \[pJ\].
pub const ON_CHIP_ENERGY_BASE_PJ: f64 = 260.0;

/// On-chip energy per access: bitline component multiplying
/// `sqrt(words)` \[pJ\].
pub const ON_CHIP_ENERGY_PER_SQRT_WORD_PJ: f64 = 95.0;

/// On-chip energy width scaling: energy multiplies `(WIDTH_OFFSET + width)
/// / WIDTH_NORM`.
pub const ON_CHIP_ENERGY_WIDTH_OFFSET: f64 = 4.0;
/// See [`ON_CHIP_ENERGY_WIDTH_OFFSET`].
pub const ON_CHIP_ENERGY_WIDTH_NORM: f64 = 12.0;

/// Energy penalty factor per extra port.
pub const ON_CHIP_PORT_ENERGY_FACTOR: f64 = 0.45;

/// Off-chip DRAM energy per access: fixed component \[pJ\] (page open,
/// I/O drivers).
pub const OFF_CHIP_ENERGY_BASE_PJ: f64 = 3_800.0;

/// Off-chip DRAM energy per access: per-data-bit component \[pJ/bit\].
pub const OFF_CHIP_ENERGY_PER_BIT_PJ: f64 = 310.0;

/// Off-chip static power per device \[mW\] (refresh + interface).
pub const OFF_CHIP_STATIC_MW: f64 = 14.0;

/// Energy multiplier for a dual-ported (interleaved dual-bank) off-chip
/// configuration: both banks burn page-activation power.
pub const OFF_CHIP_TWO_PORT_ENERGY_FACTOR: f64 = 1.35;

/// Static-power multiplier for a dual-ported off-chip configuration.
pub const OFF_CHIP_TWO_PORT_STATIC_FACTOR: f64 = 1.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_positive() {
        for &c in &[
            ON_CHIP_AREA_PER_BIT_MM2,
            ON_CHIP_MODULE_OVERHEAD_MM2,
            ON_CHIP_DECODE_AREA_MM2,
            ON_CHIP_PORT_AREA_FACTOR,
            ON_CHIP_ENERGY_BASE_PJ,
            ON_CHIP_ENERGY_PER_SQRT_WORD_PJ,
            ON_CHIP_ENERGY_WIDTH_OFFSET,
            ON_CHIP_ENERGY_WIDTH_NORM,
            ON_CHIP_PORT_ENERGY_FACTOR,
            OFF_CHIP_ENERGY_BASE_PJ,
            OFF_CHIP_ENERGY_PER_BIT_PJ,
            OFF_CHIP_STATIC_MW,
            OFF_CHIP_TWO_PORT_ENERGY_FACTOR,
            OFF_CHIP_TWO_PORT_STATIC_FACTOR,
        ] {
            assert!(c > 0.0);
        }
    }

    #[test]
    fn multi_port_penalties_exceed_unity() {
        let penalties = [
            OFF_CHIP_TWO_PORT_ENERGY_FACTOR,
            OFF_CHIP_TWO_PORT_STATIC_FACTOR,
        ];
        assert!(penalties.iter().all(|&p| p > 1.0));
    }
}
