//! On-chip SRAM module-generator model.
//
// fingerprinted(alloc_model_fingerprint) — every model
// accessor below is hashed into the allocation cache key.

use std::fmt;

use crate::calibration as cal;

/// Parameters of one generated on-chip memory module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnChipSpec {
    words: u64,
    width: u32,
    ports: u32,
}

impl OnChipSpec {
    /// Describes a module with `words` addressable words of `width` bits
    /// and `ports` identical read/write ports.
    ///
    /// # Panics
    ///
    /// Panics if `words`, `width` or `ports` is zero.
    pub fn new(words: u64, width: u32, ports: u32) -> Self {
        assert!(words > 0, "module must store at least one word");
        assert!(width > 0, "module width must be positive");
        assert!(ports > 0, "module needs at least one port");
        OnChipSpec {
            words,
            width,
            ports,
        }
    }

    /// Number of addressable words.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Word width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of read/write ports.
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Storage capacity in bits.
    pub fn bits(&self) -> u64 {
        self.words * u64::from(self.width)
    }
}

impl fmt::Display for OnChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}b/{}p", self.words, self.width, self.ports)
    }
}

/// Area/energy model of the 0.7 µm on-chip SRAM module generator.
///
/// The model reproduces the qualitative behaviour the methodology needs:
///
/// * **area** = per-module overhead + decoder periphery (∝ √words) +
///   cell array (∝ bits), all scaled super-linearly with port count —
///   so allocating many small memories costs overhead area, and storing
///   narrow arrays in wide memories wastes cell area ("bitwidth waste");
/// * **energy per access** grows *sub-linearly* with the word count
///   (∝ √words, the bitline/wordline capacitance of a square array) —
///   so splitting memories or copying hot data into small layers saves
///   power (§4.4, §4.6 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct OnChipModel {
    area_per_bit_mm2: f64,
    bank_words: f64,
    module_overhead_mm2: f64,
    decode_area_mm2: f64,
    port_area_factor: f64,
    energy_base_pj: f64,
    energy_per_sqrt_word_pj: f64,
    energy_width_offset: f64,
    energy_width_norm: f64,
    port_energy_factor: f64,
}

impl OnChipModel {
    /// The calibrated default model (see [`crate::calibration`]).
    pub fn default_07um() -> Self {
        OnChipModel {
            area_per_bit_mm2: cal::ON_CHIP_AREA_PER_BIT_MM2,
            bank_words: cal::ON_CHIP_BANK_WORDS,
            module_overhead_mm2: cal::ON_CHIP_MODULE_OVERHEAD_MM2,
            decode_area_mm2: cal::ON_CHIP_DECODE_AREA_MM2,
            port_area_factor: cal::ON_CHIP_PORT_AREA_FACTOR,
            energy_base_pj: cal::ON_CHIP_ENERGY_BASE_PJ,
            energy_per_sqrt_word_pj: cal::ON_CHIP_ENERGY_PER_SQRT_WORD_PJ,
            energy_width_offset: cal::ON_CHIP_ENERGY_WIDTH_OFFSET,
            energy_width_norm: cal::ON_CHIP_ENERGY_WIDTH_NORM,
            port_energy_factor: cal::ON_CHIP_PORT_ENERGY_FACTOR,
        }
    }

    /// Storage-cell area per bit in mm² (before banking and port
    /// scaling). Exposed so search lower bounds can mirror the *active*
    /// model instead of assuming the default calibration.
    pub fn area_per_bit_mm2(&self) -> f64 {
        self.area_per_bit_mm2
    }

    /// Word count at which the banking/wire-length area penalty reaches
    /// +100 % (see [`crate::calibration::ON_CHIP_BANK_WORDS`]).
    pub fn bank_words(&self) -> f64 {
        self.bank_words
    }

    /// Fixed per-module area overhead in mm² (sense amplifiers, control,
    /// decoder base cost).
    pub fn module_overhead_mm2(&self) -> f64 {
        self.module_overhead_mm2
    }

    /// Decoder/periphery area factor multiplying `sqrt(words)` \[mm²\].
    pub fn decode_area_mm2(&self) -> f64 {
        self.decode_area_mm2
    }

    /// Additional area fraction per extra port.
    pub fn port_area_factor(&self) -> f64 {
        self.port_area_factor
    }

    /// Fixed per-access energy floor in pJ.
    pub fn energy_base_pj(&self) -> f64 {
        self.energy_base_pj
    }

    /// Energy slope multiplying `sqrt(words)` \[pJ\].
    pub fn energy_per_sqrt_word_pj(&self) -> f64 {
        self.energy_per_sqrt_word_pj
    }

    /// Offset of the width term in the energy model \[bits\].
    pub fn energy_width_offset(&self) -> f64 {
        self.energy_width_offset
    }

    /// Normalization of the width term in the energy model \[bits\].
    pub fn energy_width_norm(&self) -> f64 {
        self.energy_width_norm
    }

    /// Additional energy fraction per extra port.
    pub fn port_energy_factor(&self) -> f64 {
        self.port_energy_factor
    }

    /// Returns the model with a different storage-cell area per bit —
    /// the knob a custom (non-0.7 µm) technology library tunes first.
    ///
    /// # Panics
    ///
    /// Panics unless `v` is finite and positive.
    pub fn with_area_per_bit_mm2(mut self, v: f64) -> Self {
        assert!(v.is_finite() && v > 0.0, "area per bit must be positive");
        self.area_per_bit_mm2 = v;
        self
    }

    /// Returns the model with a different banking-penalty knee.
    ///
    /// # Panics
    ///
    /// Panics unless `v` is finite and positive.
    pub fn with_bank_words(mut self, v: f64) -> Self {
        assert!(v.is_finite() && v > 0.0, "bank words must be positive");
        self.bank_words = v;
        self
    }

    /// Returns the model with a different fixed per-module overhead.
    ///
    /// # Panics
    ///
    /// Panics unless `v` is finite and positive.
    pub fn with_module_overhead_mm2(mut self, v: f64) -> Self {
        assert!(v.is_finite() && v > 0.0, "module overhead must be positive");
        self.module_overhead_mm2 = v;
        self
    }

    /// Returns the model with a different per-port area factor.
    ///
    /// # Panics
    ///
    /// Panics unless `v` is finite and positive.
    pub fn with_port_area_factor(mut self, v: f64) -> Self {
        assert!(
            v.is_finite() && v > 0.0,
            "port area factor must be positive"
        );
        self.port_area_factor = v;
        self
    }

    /// Silicon area of the generated module in mm², including address
    /// decoding and data buffering overhead (as the vendor estimator of
    /// §3 does), excluding interconnect.
    pub fn area_mm2(&self, spec: &OnChipSpec) -> f64 {
        let ports = f64::from(spec.ports());
        let port_factor = 1.0 + self.port_area_factor * (ports - 1.0);
        // Large monolithic modules pay a banking/wire-length penalty on
        // the cell array (see `calibration::ON_CHIP_BANK_WORDS`); the
        // penalty saturates once the generator banks the array properly.
        let bank_factor = 1.0 + (spec.words() as f64 / self.bank_words).min(2.0);
        let cells = self.area_per_bit_mm2 * spec.bits() as f64 * bank_factor;
        let decode = self.decode_area_mm2 * (spec.words() as f64).sqrt();
        (self.module_overhead_mm2 + decode + cells) * port_factor
    }

    /// Energy of one access in pJ.
    pub fn energy_pj(&self, spec: &OnChipSpec) -> f64 {
        let ports = f64::from(spec.ports());
        let port_factor = 1.0 + self.port_energy_factor * (ports - 1.0);
        let size =
            self.energy_base_pj + self.energy_per_sqrt_word_pj * (spec.words() as f64).sqrt();
        let width = (self.energy_width_offset + f64::from(spec.width())) / self.energy_width_norm;
        size * width * port_factor
    }
}

impl Default for OnChipModel {
    fn default() -> Self {
        Self::default_07um()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> OnChipModel {
        OnChipModel::default_07um()
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_words_rejected() {
        OnChipSpec::new(0, 8, 1);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        OnChipSpec::new(8, 0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_rejected() {
        OnChipSpec::new(8, 8, 0);
    }

    #[test]
    fn area_monotone_in_words_width_ports() {
        let m = model();
        let base = m.area_mm2(&OnChipSpec::new(512, 8, 1));
        assert!(m.area_mm2(&OnChipSpec::new(1024, 8, 1)) > base);
        assert!(m.area_mm2(&OnChipSpec::new(512, 16, 1)) > base);
        assert!(m.area_mm2(&OnChipSpec::new(512, 8, 2)) > base);
    }

    #[test]
    fn energy_monotone_in_words_width_ports() {
        let m = model();
        let base = m.energy_pj(&OnChipSpec::new(512, 8, 1));
        assert!(m.energy_pj(&OnChipSpec::new(2048, 8, 1)) > base);
        assert!(m.energy_pj(&OnChipSpec::new(512, 16, 1)) > base);
        assert!(m.energy_pj(&OnChipSpec::new(512, 8, 2)) > base);
    }

    #[test]
    fn energy_sublinear_in_words() {
        // Quadrupling the word count must less-than-double the energy:
        // the basis of the hierarchy and memory-splitting gains.
        let m = model();
        let e1 = m.energy_pj(&OnChipSpec::new(1024, 8, 1));
        let e4 = m.energy_pj(&OnChipSpec::new(4096, 8, 1));
        assert!(e4 < 2.0 * e1, "e4={e4} e1={e1}");
    }

    #[test]
    fn splitting_small_memories_costs_area_splitting_large_saves_it() {
        // The Table 4 area trade-off: for small modules the per-module
        // overhead dominates, so splitting wastes area; very large
        // monolithic modules pay the banking penalty, so splitting
        // recovers it. Energy per access always improves when splitting.
        let m = model();
        let small_whole = OnChipSpec::new(1024, 8, 1);
        let small_half = OnChipSpec::new(512, 8, 1);
        assert!(2.0 * m.area_mm2(&small_half) > m.area_mm2(&small_whole));
        let big_whole = OnChipSpec::new(16384, 8, 1);
        let big_half = OnChipSpec::new(8192, 8, 1);
        assert!(2.0 * m.area_mm2(&big_half) < m.area_mm2(&big_whole));
        assert!(m.energy_pj(&big_half) < m.energy_pj(&big_whole));
    }

    #[test]
    fn bitwidth_waste_costs_area() {
        // Storing a 2-bit array in a 16-bit module wastes cell area
        // relative to a dedicated 2-bit module.
        let m = model();
        let dedicated = m.area_mm2(&OnChipSpec::new(512, 2, 1));
        let wasteful = m.area_mm2(&OnChipSpec::new(512, 16, 1));
        assert!(wasteful > dedicated);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(format!("{}", OnChipSpec::new(512, 8, 2)), "512x8b/2p");
    }

    #[test]
    fn accessors_expose_the_calibrated_constants() {
        let m = model();
        assert_eq!(
            m.area_per_bit_mm2(),
            crate::calibration::ON_CHIP_AREA_PER_BIT_MM2
        );
        assert_eq!(m.bank_words(), crate::calibration::ON_CHIP_BANK_WORDS);
        assert_eq!(
            m.module_overhead_mm2(),
            crate::calibration::ON_CHIP_MODULE_OVERHEAD_MM2
        );
        assert_eq!(
            m.decode_area_mm2(),
            crate::calibration::ON_CHIP_DECODE_AREA_MM2
        );
        assert_eq!(
            m.port_area_factor(),
            crate::calibration::ON_CHIP_PORT_AREA_FACTOR
        );
    }

    #[test]
    fn custom_models_scale_the_area_model() {
        // A cheaper cell library halves the cell-array contribution; the
        // area of a cell-dominated module must drop accordingly.
        let default = model();
        let cheap = model()
            .with_area_per_bit_mm2(default.area_per_bit_mm2() * 0.5)
            .with_module_overhead_mm2(default.module_overhead_mm2() * 0.5)
            .with_bank_words(default.bank_words() * 2.0)
            .with_port_area_factor(default.port_area_factor() * 0.5);
        let spec = OnChipSpec::new(16 * 1024, 16, 2);
        assert!(cheap.area_mm2(&spec) < default.area_mm2(&spec));
        // Energy is untouched by the area knobs.
        assert_eq!(cheap.energy_pj(&spec), default.energy_pj(&spec));
    }

    #[test]
    #[should_panic(expected = "area per bit must be positive")]
    fn non_positive_custom_area_rejected() {
        model().with_area_per_bit_mm2(0.0);
    }
}
