//! Cache keys of the allocation stage: the instance fingerprints the
//! [`crate::cache`] entries are addressed by.

// fingerprinted(ALLOC_ALGO_REVISION) — a change to what a key hashes bumps it.
// fingerprinted(OFF_CHIP_BLOCKS_ALGO_REVISION) — likewise for the block catalog.
use memx_ir::hash::StableHasher;
use memx_ir::{AppSpec, BasicGroupId};
use memx_memlib::MemLibrary;

use super::{AllocOptions, Instance};
use crate::cache;
use crate::scbd::ScbdResult;
use crate::ExploreError;

/// Hashes everything about one accessed group that the allocation
/// solver reads: its identity (index — results carry indices, not
/// names), dimensions, port minimum and weighted traffic.
fn hash_group(h: &mut StableHasher, inst: &Instance<'_>, g: BasicGroupId) {
    let (info, traffic) = (inst.spec.group(g), &inst.traffic);
    h.write_u64(g.index() as u64);
    h.write_u64(info.words());
    h.write_u64(u64::from(info.bitwidth()));
    h.write_u64(u64::from(info.min_ports()));
    h.write_f64(traffic[g.index()].random);
    h.write_f64(traffic[g.index()].burst);
}

/// Stable fingerprint of one allocation instance: every solver input
/// besides the technology model and the options — the accessed groups,
/// the schedule's port-conflict slot table and the real-time window.
/// Two specs (or the same spec at two cycle budgets) that induce the
/// same instance deliberately share one cache entry.
pub(super) fn alloc_instance_fingerprint(inst: &Instance<'_>) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("alloc-instance");
    h.write_f64(inst.time_s);
    for (tag, groups) in [("off", &inst.off_groups), ("on", &inst.on_groups)] {
        h.write_str(tag);
        h.write_u64(groups.len() as u64);
        for &g in groups {
            hash_group(&mut h, inst, g);
        }
    }
    inst.oracle.hash_slots(&mut h);
    h.finish()
}

/// Stable fingerprint of one off-chip pricing instance — like
/// [`alloc_instance_fingerprint`] restricted to the off-chip groups, so
/// the priced block catalog survives option changes (different node
/// limits, bounds, weights) that re-key the allocation entry itself.
pub(super) fn off_chip_blocks_fingerprint(inst: &Instance<'_>) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("off-chip-blocks-instance");
    h.write_f64(inst.time_s);
    h.write_u64(inst.off_groups.len() as u64);
    for &g in &inst.off_groups {
        hash_group(&mut h, inst, g);
    }
    inst.oracle.hash_slots(&mut h);
    h.finish()
}

/// The [`cache::CacheKey`] under which [`assign_with_stats`]
/// would store this instance's solution — exposed for the cross-process
/// cache tests, which need to hammer one concrete key.
///
/// # Errors
///
/// The key requires the accessed-group split, so an infeasible group
/// layout errors exactly as [`assign_with_stats`] would.
#[doc(hidden)]
pub fn alloc_cache_key(
    spec: &AppSpec,
    scbd: &ScbdResult,
    lib: &MemLibrary,
    options: &AllocOptions,
) -> Result<cache::CacheKey, ExploreError> {
    let inst = Instance::new(spec, scbd, lib)?;
    Ok(cache::CacheKey::alloc(
        alloc_instance_fingerprint(&inst),
        lib,
        options,
    ))
}
