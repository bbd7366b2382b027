//! Memory allocation and signal-to-memory assignment (§4.6, Table 4).
//!
//! Given the bandwidth constraints from [`crate::scbd`] (which accesses
//! overlap in time), this stage chooses the number and type of memories
//! and assigns every basic group to one of them, minimizing a weighted
//! area/power cost with the technology models of [`memx_memlib`]:
//!
//! * groups whose accesses overlap force multi-port memories when they
//!   share one (or must be split over several);
//! * storing narrow groups in wide memories wastes cell area
//!   ("bitwidth waste");
//! * splitting on-chip storage over more memories lowers energy per
//!   access (smaller arrays) but pays per-module overhead area — the
//!   Table 4 trade-off.
//!
//! The solver has **three levels**, all exact and all parallel:
//!
//! 1. the *off-chip* side searches set partitions of the off-chip
//!    groups (`offchip.rs`: its lower bound, and the symmetric-group
//!    dominance rule with its soundness proof);
//! 2. the *on-chip sweep* tries every allocation size `k = 1..n`
//!    (unless [`AllocOptions::on_chip_memories`] pins one), fanning the
//!    independent searches over the pool (`onchip.rs`: the
//!    [`BoundKind`] suffix bounds);
//! 3. both sides run one canonical-partition *branch-and-bound*
//!    (`search.rs`) over local `u64` bin masks, split into deterministic
//!    subtrees that workers claim from a shared queue; each solver
//!    supplies only its pricing, bounds and branching hooks.
//!
//! `key.rs` holds the instance fingerprints behind [`alloc_cache_key`].
//!
//! # Incremental bounds
//!
//! Both solvers maintain their bound state under assign/unassign
//! deltas instead of recomputing it from scratch per node
//! ([`AllocStats::bound_incremental_updates`]):
//!
//! * the off-chip search threads a running committed-block sum
//!   (`BlockSum`) through the recursion: changing one block's price
//!   refolds only the prefix-sum tail from that block's index onward,
//!   in the same left-to-right block order the retired exhaustive scan
//!   accumulated — so the running total is *bit-identical* to a fresh
//!   block-order summation at every node (debug builds assert exactly
//!   that, node by node), and backtracking refolds the restored prices
//!   back to the previous bits;
//! * the on-chip search carries its running scalar sum by value
//!   (`acc − old + new`, restored from the saved bits on backtrack) and
//!   reads its suffix bound with the still-to-open memory count, one
//!   update per opened memory — the float expression is evaluated fresh
//!   from the same table entries, never accumulated across nodes, so no
//!   float drift is possible.
//!
//! # Parallel search
//!
//! All three levels fan out over worker threads
//! ([`AllocOptions::workers`]) and all three return **bit-identical**
//! results for every worker count. The shared choreography — seed
//! phase, budget split, published atomic incumbent, claim queue,
//! canonical-order reduction — lives in one audited copy in
//! [`crate::fan`]:
//!
//! * the on-chip sweep explores a deterministically-chosen *seed size*
//!   first (the one with the smallest root lower bound), publishes its
//!   cost through an atomic (`f64` bits in an `AtomicU64`), and uses it
//!   *only* to skip whole sizes whose root bound already exceeds it — a
//!   size that could win the canonical reduction is never skipped;
//! * the branch-and-bound splits the canonical partition tree into a
//!   fixed number of prefix subtrees, workers claim subtrees from a
//!   shared queue, and the best incumbent value is published the same
//!   way, again only ever skipping whole subtrees. Three properties
//!   keep it deterministic:
//!
//!   1. each subtree is explored against its own deterministic node
//!      budget and a bound derived only from the (deterministic) greedy
//!      incumbent and a deterministically-chosen *seed subtree* explored
//!      up front — never from timing-dependent cross-thread state;
//!   2. the shared atomic bound is used *only* to skip entire subtrees
//!      whose lower bound strictly exceeds it — a subtree containing a
//!      best-so-far solution can never be skipped, so skipping only
//!      removes subtrees that lose the reduction anyway;
//!   3. subtree results are reduced in canonical depth-first order with
//!      strict improvement, reproducing the serial first-found-minimum
//!      tie-break.
//!
//! When the effective worker count is 1 every level runs inline on the
//! calling thread — no worker threads are spawned at all (see
//! [`crate::engine::thread_spawns_on_current_thread`]).

// memx-lint: fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes here bump it.
use std::collections::BTreeMap;
use std::sync::Arc;

use memx_ir::hash::StableHasher;
use memx_ir::{AppSpec, BasicGroupId, Placement};
use memx_memlib::{timing, CostBreakdown, MemLibrary, OffChipSelection};

use crate::cache::{self, EvalCtx};
use crate::scbd::ScbdResult;
use crate::ExploreError;

mod key;
mod offchip;
mod onchip;
mod search;
mod tests;

pub use key::alloc_cache_key;
pub use offchip::off_chip_exhaustive_reference;
pub use onchip::root_lower_bounds;

use key::alloc_instance_fingerprint;
use offchip::assign_off_chip;
use onchip::sweep_on_chip;

/// Number of set partitions of `n` elements (the Bell number),
/// saturating at `u64::MAX`.
///
/// This is the partition count the retired exhaustive off-chip scan had
/// to stream through; [`AllocStats::off_chip_exhaustive_partitions`]
/// reports it next to the branch-and-bound's actual node count so the
/// pruning gain stays measurable.
pub fn bell_number(n: usize) -> u64 {
    let mut row = vec![1u64];
    for _ in 0..n {
        let mut next = Vec::with_capacity(row.len() + 1);
        let mut acc = *row.last().unwrap_or(&1);
        next.push(acc);
        for &v in &row {
            acc = acc.saturating_add(v);
            next.push(acc);
        }
        row = next;
    }
    row[0]
}

/// Which suffix lower bound the on-chip branch-and-bound prunes with
/// (see the module docs). Both bounds are admissible, so the *result*
/// is identical; only the number of nodes visited differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundKind {
    /// The original per-group solo-1-port floor. Loose; kept so pruning
    /// gains of the pairwise bound stay measurable.
    Solo,
    /// Solo floor + per-group minimum-port floor + pairwise-conflict
    /// extras for the merges the pigeonhole principle forces.
    #[default]
    Pairwise,
}

/// Options steering allocation and assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocOptions {
    /// Exact number of on-chip memories to allocate; `None` sweeps all
    /// counts and keeps the cheapest (by the scalarized cost).
    pub on_chip_memories: Option<u32>,
    /// Weight of on-chip area \[per mm²\] in the scalarized cost.
    pub area_weight: f64,
    /// Weight of total power \[per mW\] in the scalarized cost.
    pub power_weight: f64,
    /// Largest port count the on-chip module generator offers.
    pub max_on_chip_ports: u32,
    /// Branch-and-bound node budget before falling back to the best
    /// incumbent found so far (split evenly over the search subtrees).
    pub node_limit: u64,
    /// Worker threads for the allocation solver: `0` spawns one per
    /// available core, `1` runs everything on the calling thread.
    /// Parallel and serial runs return bit-identical organizations.
    pub workers: usize,
    /// Suffix lower bound used for branch-and-bound pruning.
    pub bound: BoundKind,
    /// Prune dominated assignments of adjacent symmetric off-chip
    /// groups (see the module docs' soundness proof). The result is
    /// bit-identical either way; disabling is a measurable baseline
    /// for the node cut on tie plateaus.
    pub off_chip_dominance: bool,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            on_chip_memories: None,
            area_weight: 1.0,
            power_weight: 1.0,
            max_on_chip_ports: 4,
            node_limit: 2_000_000,
            workers: 0,
            bound: BoundKind::Pairwise,
            off_chip_dominance: true,
        }
    }
}

/// Search-effort counters of one [`assign_with_stats`] run, so pruning
/// gains (e.g. of [`BoundKind::Pairwise`]) are measurable.
///
/// The counters are *not* part of the deterministic result: in parallel
/// runs the atomic incumbent may skip different subtrees depending on
/// thread timing, so node counts can vary run to run even though the
/// returned [`Organization`] never does. With `workers: 1` the counters
/// are fully deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Branch-and-bound nodes expanded across every on-chip search
    /// (seed subtrees, fanned subtrees and complete-prefix probes).
    pub bb_nodes: u64,
    /// On-chip allocation sizes skipped outright because their root
    /// lower bound exceeded the published sweep incumbent.
    pub sweep_skips: u64,
    /// Complete off-chip set partitions reached by the search.
    pub off_chip_partitions: u64,
    /// Branch-and-bound nodes expanded by the off-chip partition search
    /// (complete-prefix probes included).
    pub off_chip_bb_nodes: u64,
    /// Off-chip search subtrees skipped outright because their lower
    /// bound exceeded the published incumbent.
    pub off_chip_pruned_subtrees: u64,
    /// Size of the off-chip set-partition space ([`bell_number`] of the
    /// off-chip group count, saturating): what the retired exhaustive
    /// enumeration had to scan. `off_chip_bb_nodes` sitting below this
    /// is the branch-and-bound's pruning gain.
    pub off_chip_exhaustive_partitions: u64,
    /// Off-chip branches suppressed by the symmetric-group dominance
    /// rule ([`AllocOptions::off_chip_dominance`]): join candidates
    /// below the previous twin's choice index that were never expanded.
    pub off_chip_dominance_cuts: u64,
    /// Assign/unassign delta applications to incrementally-maintained
    /// bound state, across both solvers (off-chip running committed
    /// sums and on-chip open-count deltas) — each replaces a
    /// from-scratch recomputation.
    pub bound_incremental_updates: u64,
}

/// Where an allocated memory lives.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryKind {
    /// A generated on-chip SRAM module.
    OnChip,
    /// An off-chip DRAM configuration from the part catalog.
    OffChip(OffChipSelection),
}

/// One allocated memory with its assigned basic groups.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryInstance {
    /// Assigned groups.
    pub groups: Vec<BasicGroupId>,
    /// Total words (sum over groups).
    pub words: u64,
    /// Word width in bits (maximum over groups — narrower groups waste
    /// the upper bits).
    pub width: u32,
    /// Ports provisioned (from overlap analysis and group minimums).
    pub ports: u32,
    /// On-chip module or off-chip part configuration.
    pub kind: MemoryKind,
    /// This memory's contribution to the organization cost.
    pub cost: CostBreakdown,
}

/// A complete memory organization with its cost — the feedback the whole
/// methodology revolves around.
#[derive(Debug, Clone, PartialEq)]
pub struct Organization {
    /// All allocated memories (on-chip first).
    pub memories: Vec<MemoryInstance>,
    /// Total cost (the paper's three figures).
    pub cost: CostBreakdown,
}

impl Organization {
    /// Number of on-chip memories.
    pub fn on_chip_count(&self) -> usize {
        self.memories
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::OnChip))
            .count()
    }

    /// Number of off-chip memories.
    pub fn off_chip_count(&self) -> usize {
        self.memories.len() - self.on_chip_count()
    }

    /// Maximum port count over the off-chip memories (Table 2's "a
    /// two-port off-chip memory is needed").
    pub fn max_off_chip_ports(&self) -> u32 {
        self.memories
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
            .map(|m| m.ports)
            .max()
            .unwrap_or(0)
    }
}

/// Validates scalarization weights: comparing scalar costs built from
/// non-finite or negative weights is meaningless (and NaN used to panic
/// deep inside comparison callbacks).
pub(crate) fn check_cost_weights(area_weight: f64, power_weight: f64) -> Result<(), ExploreError> {
    if area_weight.is_finite()
        && power_weight.is_finite()
        && area_weight >= 0.0
        && power_weight >= 0.0
    {
        Ok(())
    } else {
        Err(ExploreError::BadCostWeights {
            area_weight,
            power_weight,
        })
    }
}

/// Weighted random/burst access traffic of one group.
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    random: f64,
    burst: f64,
}

impl Traffic {
    fn total(&self) -> f64 {
        self.random + self.burst
    }

    /// Energy-equivalent access count: bursts are discounted.
    fn energy_accesses(&self) -> f64 {
        self.random + self.burst * timing::OFF_CHIP_BURST_ENERGY_FACTOR
    }
}

fn group_traffic(spec: &AppSpec) -> Vec<Traffic> {
    let mut traffic = vec![Traffic::default(); spec.basic_groups().len()];
    for nest in spec.loop_nests() {
        let it = nest.iterations() as f64;
        for a in nest.accesses() {
            let t = &mut traffic[a.group().index()];
            if a.is_burst() {
                t.burst += a.weight() * it;
            } else {
                t.random += a.weight() * it;
            }
        }
    }
    traffic
}

/// One allocation instance: the accessed groups split by placement, and
/// the inputs every level prices them with.
struct Instance<'a> {
    spec: &'a AppSpec,
    lib: &'a MemLibrary,
    traffic: Vec<Traffic>,
    /// The real-time window power figures divide by.
    time_s: f64,
    off_groups: Vec<BasicGroupId>,
    on_groups: Vec<BasicGroupId>,
}

impl<'a> Instance<'a> {
    /// # Errors
    ///
    /// As [`split_accessed_groups`].
    fn new(spec: &'a AppSpec, lib: &'a MemLibrary) -> Result<Self, ExploreError> {
        let traffic = group_traffic(spec);
        let (off_groups, on_groups) = split_accessed_groups(spec, &traffic)?;
        Ok(Instance {
            spec,
            lib,
            traffic,
            time_s: spec.real_time_seconds(),
            off_groups,
            on_groups,
        })
    }
}

/// Per-slot access-count table for fast port-requirement queries over
/// group subsets (bitmask-indexed, memoized).
///
/// Cloning is cheap: the slot table is shared behind an [`Arc`] and each
/// clone keeps its own memoization cache, so every branch-and-bound
/// worker thread can query ports without synchronization.
#[derive(Clone)]
struct PortOracle {
    /// Each entry: (group index, simultaneous accesses) per busy cycle.
    slots: Arc<Vec<Vec<(usize, u32)>>>,
    min_ports: Arc<Vec<u32>>,
    cache: BTreeMap<u64, u32>,
}

impl PortOracle {
    fn new(spec: &AppSpec, scbd: &ScbdResult) -> Self {
        let mut slots = Vec::new();
        for body in &scbd.bodies {
            for slot in body.busy_slots() {
                if slot.occupants.len() < 2 {
                    // A single occupant can never force multiple ports
                    // by overlap (group minimums are handled separately).
                    continue;
                }
                let mut counts: BTreeMap<usize, u32> = BTreeMap::new();
                for o in &slot.occupants {
                    *counts.entry(o.group.index()).or_insert(0) += 1;
                }
                let mut entry: Vec<(usize, u32)> = counts.into_iter().collect();
                entry.sort_unstable();
                slots.push(entry);
            }
        }
        slots.sort();
        slots.dedup();
        PortOracle {
            slots: Arc::new(slots),
            min_ports: Arc::new(spec.basic_groups().iter().map(|g| g.min_ports()).collect()),
            cache: BTreeMap::new(),
        }
    }

    /// Ports required by a memory storing exactly the groups in `mask`.
    fn required(&mut self, mask: u64) -> u32 {
        if let Some(&p) = self.cache.get(&mask) {
            return p;
        }
        let mut ports = 1u32;
        // Visit only the set bits — this is the innermost pricing
        // primitive and masks are sparse, so scanning all 64 positions
        // per uncached mask was measurable. `get` keeps the historical
        // behavior of ignoring bits beyond the group table.
        let mut m = mask;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            if let Some(&mp) = self.min_ports.get(i) {
                ports = ports.max(mp);
            }
            m &= m - 1;
        }
        for slot in self.slots.iter() {
            let overlap: u32 = slot
                .iter()
                .filter(|(g, _)| mask & (1 << *g) != 0)
                .map(|&(_, c)| c)
                .sum();
            ports = ports.max(overlap);
        }
        self.cache.insert(mask, ports);
        ports
    }

    /// Feeds the deduplicated conflict-slot table into an instance
    /// fingerprint (see [`alloc_instance_fingerprint`]). Per-group port
    /// minimums are hashed with the groups themselves — only accessed
    /// groups ever enter a mask.
    fn hash_slots(&self, h: &mut StableHasher) {
        h.write_u64(self.slots.len() as u64);
        for slot in self.slots.iter() {
            h.write_u64(slot.len() as u64);
            for &(g, c) in slot {
                h.write_u64(g as u64);
                h.write_u64(u64::from(c));
            }
        }
    }
}

/// Allocates memories and assigns every accessed basic group, also
/// reporting the search-effort counters of the run (see [`AllocStats`]).
///
/// Groups without any access are treated as foreground (scalar-level)
/// data and skipped, as the paper's pruning step prescribes.
///
/// With a cache in `ctx`, a valid allocation entry short-circuits the
/// whole branch-and-bound, replaying the stored [`Organization`] *and*
/// [`AllocStats`] bit-identically (so node-count telemetry reports what
/// the stored solve actually cost, not a free lunch). On a miss the
/// solver runs as usual — pre-seeding its off-chip block pricer from a
/// cached catalog when one exists — and the solution is stored for the
/// next process. Errors are never cached. Pass `&lib` for an uncached
/// run.
///
/// # Errors
///
/// Returns [`ExploreError::NoFeasibleAssignment`] when the bandwidth
/// constraints cannot be met (e.g. off-chip overlap needing more than
/// two ports), [`ExploreError::BadCostWeights`] for non-finite or
/// negative scalarization weights,
/// [`ExploreError::TooManyOffChipGroups`] when the off-chip partition
/// enumeration would be intractable, and [`ExploreError::Part`] if no
/// off-chip part covers a group. The cache itself never fails an
/// assignment.
pub fn assign_with_stats<'a>(
    spec: &AppSpec,
    scbd: &ScbdResult,
    ctx: impl Into<EvalCtx<'a>>,
    options: &AllocOptions,
) -> Result<(Organization, AllocStats), ExploreError> {
    let EvalCtx { lib, cache } = ctx.into();
    check_cost_weights(options.area_weight, options.power_weight)?;
    let mut oracle = PortOracle::new(spec, scbd);
    let mut stats = AllocStats::default();
    let inst = Instance::new(spec, lib)?;

    let alloc_key = cache
        .map(|_| cache::CacheKey::alloc(alloc_instance_fingerprint(&inst, &oracle), lib, options));
    if let (Some(cache), Some(key)) = (cache, alloc_key.as_ref()) {
        if let Some((org, stats)) = cache.load_alloc(key) {
            cache.note_alloc_hit();
            return Ok((org, stats));
        }
    }

    let workers = match options.workers {
        0 => crate::engine::auto_workers(),
        n => n,
    };

    // --- Off-chip side: branch-and-bound over set partitions. -----------
    let off_memories = assign_off_chip(&inst, &mut oracle, options, workers, &mut stats, cache)?;

    // --- On-chip side: branch-and-bound per allocation size. ------------
    let on_count = inst.on_groups.len();
    let mut memories = if on_count == 0 {
        // A purely off-chip application (or one whose on-chip data is
        // all foreground): nothing to allocate on chip.
        if let Some(k) = options.on_chip_memories.filter(|&k| k > 0) {
            return Err(ExploreError::NoFeasibleAssignment {
                reason: format!("{k} on-chip memories requested but no on-chip groups exist"),
            });
        }
        Vec::new()
    } else {
        let counts: Vec<usize> = match options.on_chip_memories {
            Some(k) => (k >= 1 && k as usize <= on_count)
                .then_some(k as usize)
                .into_iter()
                .collect(),
            None => (1..=on_count).collect(),
        };
        let best = sweep_on_chip(&inst, &mut oracle, &counts, options, workers, &mut stats);
        best.ok_or_else(|| ExploreError::NoFeasibleAssignment {
            reason: match options.on_chip_memories {
                Some(k) => format!("no feasible on-chip assignment with {k} memories"),
                None => "no feasible on-chip assignment".to_owned(),
            },
        })?
        .1
    };
    memories.extend(off_memories);
    let cost = memories.iter().map(|m| m.cost).sum();
    let org = Organization { memories, cost };

    // Only successful solves are cached (and counted): like SCBD
    // entries, errors are cheap to rediscover and never stored.
    if let (Some(cache), Some(key)) = (cache, alloc_key.as_ref()) {
        cache.note_alloc_miss();
        cache.store_alloc(key, &org, &stats);
    }
    Ok((org, stats))
}

/// Splits the accessed basic groups into off-chip and on-chip candidate
/// sets, validating the 64-bit mask indexing both searches rely on.
fn split_accessed_groups(
    spec: &AppSpec,
    traffic: &[Traffic],
) -> Result<(Vec<BasicGroupId>, Vec<BasicGroupId>), ExploreError> {
    let mut off_groups = Vec::new();
    let mut on_groups = Vec::new();
    for g in spec.basic_groups() {
        if traffic[g.id().index()].total() == 0.0 {
            continue; // foreground data
        }
        match g.placement() {
            Placement::OffChip => off_groups.push(g.id()),
            // `Any` groups are small working arrays; on-chip storage
            // dominates them on both power and latency, so the
            // assignment considers them on-chip candidates.
            Placement::OnChip | Placement::Any => on_groups.push(g.id()),
        }
    }
    if on_groups.len() > 60 {
        return Err(ExploreError::NoFeasibleAssignment {
            reason: format!(
                "{} on-chip groups exceed the 60-group assignment limit",
                on_groups.len()
            ),
        });
    }
    // The partition searches index groups by bit position in a u64 mask,
    // so any *accessed* group must sit below index 64 (unaccessed
    // foreground groups beyond that are fine — they never enter a mask).
    if let Some(g) = off_groups
        .iter()
        .chain(&on_groups)
        .find(|g| g.index() >= u64::BITS as usize)
    {
        return Err(ExploreError::NoFeasibleAssignment {
            reason: format!(
                "accessed group `{}` has index {}, beyond the 64-group mask limit",
                spec.group(*g).name(),
                g.index()
            ),
        });
    }
    Ok((off_groups, on_groups))
}
