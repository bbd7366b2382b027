//! Access-timing model: cycles occupied per memory access.
//!
//! The storage-cycle-budget distribution step must know how long each
//! access occupies its memory port. On-chip SRAM answers in one cycle;
//! off-chip EDO DRAM takes several cycles for a random access but
//! sustains one word per cycle in page-mode bursts — the property that
//! makes block copies into hierarchy layers so much cheaper in bandwidth
//! than scattered accesses.
//
// fingerprinted(scbd_model_fingerprint) — the cycle constants
// below are hashed into the SCBD cache key.
// fingerprinted(alloc_model_fingerprint) — the burst energy
// factor is hashed into the allocation cache key.

/// Cycles occupied by one on-chip SRAM access.
pub const ON_CHIP_CYCLES: u64 = 1;

/// Cycles occupied by one random off-chip DRAM access (row activation +
/// CAS + precharge).
pub const OFF_CHIP_RANDOM_CYCLES: u64 = 4;

/// Cycles per word of a page-mode burst off-chip access.
pub const OFF_CHIP_BURST_CYCLES: u64 = 1;

/// Energy factor of a page-mode burst access relative to a random one
/// (the row activation is amortized over the burst).
pub const OFF_CHIP_BURST_ENERGY_FACTOR: f64 = 0.6;

/// Cycles occupied by one access, given the target's placement and
/// whether the access is part of a burst.
///
/// # Example
///
/// ```
/// use memx_memlib::timing;
///
/// assert_eq!(timing::access_cycles(false, false), 1);
/// assert!(timing::access_cycles(true, false) > timing::access_cycles(true, true));
/// ```
pub fn access_cycles(off_chip: bool, burst: bool) -> u64 {
    if !off_chip {
        ON_CHIP_CYCLES
    } else if burst {
        OFF_CHIP_BURST_CYCLES
    } else {
        OFF_CHIP_RANDOM_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_chip_is_single_cycle() {
        assert_eq!(access_cycles(false, false), 1);
        assert_eq!(access_cycles(false, true), 1);
    }

    #[test]
    fn off_chip_random_is_slowest() {
        assert!(access_cycles(true, false) > access_cycles(true, true));
        assert!(access_cycles(true, false) > access_cycles(false, false));
    }

    #[test]
    fn burst_energy_discount_is_a_fraction() {
        let factors = [OFF_CHIP_BURST_ENERGY_FACTOR];
        assert!(factors.iter().all(|&f| f > 0.0 && f < 1.0));
    }
}
