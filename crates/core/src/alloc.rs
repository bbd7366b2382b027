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
//! 1. the *off-chip* side runs a branch-and-bound over set partitions
//!    of the off-chip groups in canonical (restricted-growth) order:
//!    committed blocks are priced exactly against the part catalog,
//!    every partial partition is charged an admissible per-group
//!    dynamic-power floor for its unassigned suffix, and subtrees prune
//!    against a deterministic incumbent — so the retired exhaustive
//!    scan's 12-group cap (Bell(12) ≈ 4.2 M partitions) is gone, and the
//!    only remaining ceiling is the 64-accessed-group u64-mask limit
//!    shared by every partition search here;
//! 2. the *on-chip sweep* tries every allocation size `k = 1..n`
//!    (unless [`AllocOptions::on_chip_memories`] pins one), fanning the
//!    independent searches over the pool;
//! 3. each size runs a *branch-and-bound* over canonical partitions of
//!    the on-chip groups, itself split into deterministic subtrees that
//!    workers claim from a shared queue.
//!
//! # The off-chip lower bound
//!
//! At a partial partition the committed blocks are priced exactly (the
//! same catalog selection a complete partition pays) and every
//! unassigned group `g` contributes its **dynamic-power floor**: `g`'s
//! energy-weighted access rate priced at the cheapest per-access energy
//! any single-ported catalog configuration covering `g`'s width can
//! offer. The floor is admissible whether `g` later joins a committed
//! block or opens a new one — a block's per-access energy is monotone in
//! its width (it gangs at least `ceil(width / part_width)` devices) and
//! the dual-bank factors only add — so pruning never cuts the true
//! optimum. Static power is deliberately *not* charged to unassigned
//! groups (a join may reuse a committed block's rank slack), which is
//! the price of admissibility: instances whose groups are mutually
//! compatible and tie-heavy prune slowly and may exhaust the node
//! budget instead (see below).
//!
//! The search reproduces the retired exhaustive scan **bit for bit**:
//! complete partitions evaluate as the same fresh block-order float sum,
//! leaves are accepted only on strict improvement, and partial
//! partitions are pruned strictly against bounds derived from real
//! leaves — so the canonical-first minimum partition (the exhaustive
//! scan's tie-break) always survives.
//!
//! # Symmetric-group dominance
//!
//! Tie plateaus are factorial: `n` mutually compatible groups with
//! identical dimensions and traffic induce whole orbits of partitions
//! that are permutations of one another, every one priced bit-for-bit
//! identically — the floor cannot separate them, so the search revisits
//! each orbit once per permutation. The off-chip search collapses these
//! orbits with a dominance rule over *adjacent symmetric groups*
//! ([`AllocOptions::off_chip_dominance`]): groups `i-1` and `i` are
//! symmetric when their words, bitwidth, port minimum and weighted
//! traffic are bitwise identical and neither appears in any
//! port-conflict slot. For such a pair only assignments where `i`'s
//! block-choice index is `>=` `i-1`'s are explored (joining an
//! earlier-indexed block than the previous twin did is *dominated*;
//! opening a fresh block is always allowed, its choice index being the
//! largest).
//!
//! **Soundness — the canonical-first optimum survives.** The canonical
//! DFS tries children in ascending choice-index order, so complete
//! partitions are visited in lexicographic choice-vector order and the
//! first-found minimum is the lex-smallest among equal minima. Suppose
//! a partition `P` violates the rule at an adjacent symmetric pair:
//! group `i-1` chose index `c`, group `i` chose `c' < c`. Swapping the
//! two groups' assignments yields a partition `P'` with a lex-smaller
//! choice vector whose every block prices to the *same bits*:
//!
//! * the two groups' (words, bitwidth, min-ports, traffic) tuples are
//!   bitwise identical, and because their local indices are *adjacent*
//!   no other member sorts between them — each affected block's
//!   member-order dimension fold consumes bitwise-equal values at the
//!   same positions;
//! * block creation order is unchanged: block `c'` existed before
//!   either group was placed, and if `c` was freshly opened by `i-1`
//!   in `P`, then in `P'` it is opened — at the same index — by `i`,
//!   with no other open in between;
//! * neither group appears in any conflict slot, so every subset's
//!   port requirement (and hence feasibility) is unchanged.
//!
//! So `P'` is feasible, costs bit-identically, and precedes `P` in
//! visiting order. Iterating the swap (each strictly lex-decreasing,
//! over a finite orbit) reaches a rule-satisfying partition of equal
//! cost bits — hence the lex-smallest minimum satisfies the rule and
//! the pruned search returns bit-identical results; the property tests
//! pin this against the dominance-free exhaustive reference. A pure
//! plateau of `n` twins shrinks from `Bell(n)` partitions to the
//! `2^(n-1)` nondecreasing choice vectors
//! ([`AllocStats::off_chip_dominance_cuts`] counts the suppressed
//! branches).
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
//! * the on-chip search maintains the still-to-open memory count as an
//!   integer delta and derives `node_bound` from it
//!   (`SuffixBound::bound_with`) — the float expression is evaluated
//!   fresh from the same table entries as the from-scratch bound,
//!   never accumulated across nodes, so no float drift is possible.
//!
//! # Off-chip node budget
//!
//! The off-chip search shares [`AllocOptions::node_limit`]. Unlike the
//! on-chip levels (which degrade to their greedy incumbent), an
//! exhausted off-chip search returns
//! [`ExploreError::TooManyOffChipGroups`] — a *deterministic* signal
//! (identical for every worker count: a truncated subtree only raises
//! it when its lower bound does not already prove it irrelevant) that
//! the instance needs a bigger budget, not a silently unproven answer.
//!
//! # Lower bounds
//!
//! Subtree skipping lives or dies by the suffix lower bound. Two are
//! available ([`AllocOptions::bound`]):
//!
//! * [`BoundKind::Solo`] — each unassigned group contributes at least
//!   the cell area and access energy of a private 1-port module (the
//!   original, loose bound; kept as a measurable baseline);
//! * [`BoundKind::Pairwise`] (default) — on top of the solo floor, each
//!   group pays its minimum-port floor, and the pigeonhole principle
//!   forces `remaining − free bins` of the unassigned groups to *join*
//!   a non-empty memory: each such join costs at least the group's
//!   cheapest precomputed **pairwise-conflict extra** (the width waste
//!   and port/cycle-conflict penalty of co-assignment with its most
//!   compatible partner). The bound is admissible — it never exceeds
//!   the true optimal completion cost — so exact results are unchanged;
//!   it only skips more of the tree (nodes visited are reported in
//!   [`AllocStats`]).
//!
//! # Parallel search
//!
//! All three levels fan out over worker threads
//! ([`AllocOptions::workers`]) and all three return **bit-identical**
//! results for every worker count. The shared choreography — seed
//! phase, budget split, published atomic incumbent, claim queue,
//! canonical-order reduction — lives in one audited copy in
//! [`crate::fan`]; this module only supplies the explore functions and
//! skip predicates:
//!
//! * the off-chip level splits its canonical partition tree into
//!   deterministic prefix subtrees exactly like the on-chip search
//!   below: workers claim subtrees from a shared queue, the best
//!   incumbent value is published through an atomic and used *only* to
//!   skip whole subtrees whose lower bound is clearly above it, and the
//!   results reduce in canonical order with strict improvement;
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

use std::collections::BTreeMap;

// memx-lint: fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes
// to the allocation solver (bounds, tie-breaks, traversal order, greedy
// seed, float accumulation) must bump the revision in `core::cache`.
// memx-lint: fingerprinted(OFF_CHIP_BLOCKS_ALGO_REVISION) — changes to how
// the pricer costs a group subset must bump the revision in `core::cache`.
use std::sync::Arc;

use memx_ir::hash::StableHasher;
use memx_ir::{AppSpec, BasicGroupId, Placement};
use memx_memlib::{timing, CostBreakdown, MemLibrary, OffChipSelection, OnChipSpec};

use crate::cache::{self, EvalCache, EvalCtx};
use crate::engine::parallel_map;
use crate::fan::{above_with_slack, fan_subtrees, Incumbent, SubtreeSearch, TARGET_SUBTREES};
use crate::scbd::ScbdResult;
use crate::ExploreError;

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

/// Hashes everything about one accessed group that the allocation
/// solver reads: its identity (index — results carry indices, not
/// names), dimensions, port minimum and weighted traffic.
fn hash_group(h: &mut StableHasher, spec: &AppSpec, traffic: &[Traffic], g: BasicGroupId) {
    let info = spec.group(g);
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
fn alloc_instance_fingerprint(
    spec: &AppSpec,
    traffic: &[Traffic],
    oracle: &PortOracle,
    off_groups: &[BasicGroupId],
    on_groups: &[BasicGroupId],
    time_s: f64,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("alloc-instance");
    h.write_f64(time_s);
    for (tag, groups) in [("off", off_groups), ("on", on_groups)] {
        h.write_str(tag);
        h.write_u64(groups.len() as u64);
        for &g in groups {
            hash_group(&mut h, spec, traffic, g);
        }
    }
    oracle.hash_slots(&mut h);
    h.finish()
}

/// Stable fingerprint of one off-chip pricing instance — like
/// [`alloc_instance_fingerprint`] restricted to the off-chip groups, so
/// the priced block catalog survives option changes (different node
/// limits, bounds, weights) that re-key the allocation entry itself.
fn off_chip_blocks_fingerprint(
    spec: &AppSpec,
    traffic: &[Traffic],
    oracle: &PortOracle,
    groups: &[BasicGroupId],
    time_s: f64,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("off-chip-blocks-instance");
    h.write_f64(time_s);
    h.write_u64(groups.len() as u64);
    for &g in groups {
        hash_group(&mut h, spec, traffic, g);
    }
    oracle.hash_slots(&mut h);
    h.finish()
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
    let traffic = group_traffic(spec);
    let time_s = spec.real_time_seconds();
    let mut oracle = PortOracle::new(spec, scbd);
    let mut stats = AllocStats::default();

    let (off_groups, on_groups) = split_accessed_groups(spec, &traffic)?;

    let alloc_key = cache.map(|_| {
        let instance =
            alloc_instance_fingerprint(spec, &traffic, &oracle, &off_groups, &on_groups, time_s);
        cache::CacheKey::alloc(instance, lib, options)
    });
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
    let off_memories = assign_off_chip(
        spec,
        &traffic,
        &mut oracle,
        lib,
        &off_groups,
        time_s,
        options,
        workers,
        &mut stats,
        cache,
    )?;

    // --- On-chip side: branch-and-bound per allocation size. ------------
    let org = if on_groups.is_empty() {
        // A purely off-chip application (or one whose on-chip data is
        // all foreground): nothing to allocate on chip.
        if let Some(k) = options.on_chip_memories {
            if k > 0 {
                return Err(ExploreError::NoFeasibleAssignment {
                    reason: format!("{k} on-chip memories requested but no on-chip groups exist"),
                });
            }
        }
        let cost = off_memories.iter().map(|m| m.cost).sum();
        Organization {
            memories: off_memories,
            cost,
        }
    } else {
        let counts: Vec<usize> = match options.on_chip_memories {
            Some(k) => (k >= 1 && k as usize <= on_groups.len())
                .then_some(k as usize)
                .into_iter()
                .collect(),
            None => (1..=on_groups.len()).collect(),
        };
        let best = sweep_on_chip(
            spec,
            &traffic,
            &mut oracle,
            lib,
            &on_groups,
            &counts,
            time_s,
            options,
            workers,
            &mut stats,
        );
        let (_, mut memories) = best.ok_or_else(|| ExploreError::NoFeasibleAssignment {
            reason: match options.on_chip_memories {
                Some(k) => format!("no feasible on-chip assignment with {k} memories"),
                None => "no feasible on-chip assignment".to_owned(),
            },
        })?;

        memories.extend(off_memories);
        let cost = memories.iter().map(|m| m.cost).sum();
        Organization { memories, cost }
    };

    // Only successful solves are cached (and counted): like SCBD
    // entries, errors are cheap to rediscover and never stored.
    if let (Some(cache), Some(key)) = (cache, alloc_key.as_ref()) {
        cache.note_alloc_miss();
        cache.store_alloc(key, &org, &stats);
    }
    Ok((org, stats))
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
    let traffic = group_traffic(spec);
    let time_s = spec.real_time_seconds();
    let oracle = PortOracle::new(spec, scbd);
    let (off_groups, on_groups) = split_accessed_groups(spec, &traffic)?;
    let instance =
        alloc_instance_fingerprint(spec, &traffic, &oracle, &off_groups, &on_groups, time_s);
    Ok(cache::CacheKey::alloc(instance, lib, options))
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

/// Shared read-only context of one off-chip partition search.
struct OffChipCtx<'a> {
    spec: &'a AppSpec,
    traffic: &'a [Traffic],
    lib: &'a MemLibrary,
    groups: &'a [BasicGroupId],
    time_s: f64,
    /// `floor_suffix[i]` = Σ over `groups[i..]` of the per-group
    /// dynamic-power floor (see [`off_chip_group_floor`]).
    floor_suffix: Vec<f64>,
    /// `sym_prev[i]` — group `i` is symmetric to its predecessor
    /// `i-1` (see [`off_chip_symmetry`]), enabling the dominance rule
    /// at depth `i`. All-false when dominance is disabled.
    sym_prev: Vec<bool>,
}

impl OffChipCtx<'_> {
    fn n(&self) -> usize {
        self.groups.len()
    }

    /// Global group-index mask of a local subset mask.
    fn global_mask(&self, mask: u64) -> u64 {
        (0..self.n())
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| 1u64 << self.groups[i].index())
            .sum()
    }

    /// Block dimensions and energy-weighted access rate of a subset, in
    /// canonical member order (the float accumulation matches the
    /// retired exhaustive scan exactly).
    fn block_dims(&self, mask: u64) -> (u64, u32, f64) {
        let mut words = 0u64;
        let mut width = 0u32;
        let mut t = Traffic::default();
        for i in 0..self.n() {
            if mask & (1 << i) != 0 {
                let g = self.groups[i];
                words += self.spec.group(g).words();
                width = width.max(self.spec.group(g).bitwidth());
                t = Traffic {
                    random: t.random + self.traffic[g.index()].random,
                    burst: t.burst + self.traffic[g.index()].burst,
                };
            }
        }
        (words, width, t.energy_accesses() / self.time_s)
    }

    /// Builds the ready-made instance of a feasible winning block.
    fn build_memory(&self, pricer: &mut OffChipPricer<'_>, mask: u64) -> MemoryInstance {
        let members: Vec<BasicGroupId> = (0..self.n())
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| self.groups[i])
            .collect();
        let ports = pricer.oracle.required(self.global_mask(mask));
        let (words, width, rate_energy) = self.block_dims(mask);
        let sel = self
            .lib
            .off_chip()
            .select(words, width, ports, rate_energy)
            // memx-lint: allow(no-panic-paths) — only blocks the pricer already priced `Some` reach here, so selection cannot fail.
            .expect("winning blocks are feasible");
        let mw = sel.static_mw() + sel.energy_pj_per_access() * rate_energy / 1e9;
        MemoryInstance {
            groups: members,
            words,
            width,
            ports,
            cost: CostBreakdown::new(0.0, 0.0, mw),
            kind: MemoryKind::OffChip(sel),
        }
    }
}

/// Computes `sym_prev` for the dominance rule: `sym_prev[i]` holds when
/// groups `i-1` and `i` are interchangeable everywhere the solver can
/// tell them apart — bitwise-identical words, bitwidth, port minimum
/// and weighted traffic, and neither appears in any port-conflict slot
/// (a slot occupant's overlap contribution would not survive the swap).
/// Adjacency in local index is what makes the swap argument in the
/// module docs airtight: no other member can sort between the twins in
/// a block's dimension fold.
fn off_chip_symmetry(
    spec: &AppSpec,
    traffic: &[Traffic],
    oracle: &PortOracle,
    groups: &[BasicGroupId],
    enabled: bool,
) -> Vec<bool> {
    let n = groups.len();
    if !enabled || n == 0 {
        return vec![false; n];
    }
    let in_conflict_slot = |g: BasicGroupId| {
        oracle
            .slots
            .iter()
            .any(|slot| slot.iter().any(|&(idx, _)| idx == g.index()))
    };
    let key = |g: BasicGroupId| {
        let info = spec.group(g);
        (
            info.words(),
            info.bitwidth(),
            info.min_ports(),
            traffic[g.index()].random.to_bits(),
            traffic[g.index()].burst.to_bits(),
        )
    };
    let mut sym = vec![false; n];
    for i in 1..n {
        sym[i] = key(groups[i]) == key(groups[i - 1])
            && !in_conflict_slot(groups[i])
            && !in_conflict_slot(groups[i - 1]);
    }
    sym
}

/// Per-worker lazy block pricer: each worker owns a clone of the port
/// oracle plus its own price memo, so pricing needs no synchronization.
#[derive(Clone)]
struct OffChipPricer<'a> {
    ctx: &'a OffChipCtx<'a>,
    oracle: PortOracle,
    cache: BTreeMap<u64, Option<f64>>,
}

impl OffChipPricer<'_> {
    /// Power (mW) of the cheapest off-chip configuration holding exactly
    /// the groups in `mask`, or `None` when the subset's overlap needs
    /// more than the two ports DRAM systems offer. Infallible otherwise:
    /// the catalog is checked non-empty up front and ports are pre-gated,
    /// the only ways selection can fail.
    fn price(&mut self, mask: u64) -> Option<f64> {
        if let Some(&p) = self.cache.get(&mask) {
            return p;
        }
        let ports = self.oracle.required(self.ctx.global_mask(mask));
        let mw = (ports <= 2).then(|| {
            let (words, width, rate_energy) = self.ctx.block_dims(mask);
            let sel = self
                .ctx
                .lib
                .off_chip()
                .select(words, width, ports, rate_energy)
                // memx-lint: allow(no-panic-paths) — the catalog is checked non-empty up front and ports are pre-gated to <= 2, the only selection failure modes.
                .expect("catalog non-empty and ports pre-gated");
            sel.static_mw() + sel.energy_pj_per_access() * rate_energy / 1e9
        });
        self.cache.insert(mask, mw);
        mw
    }

    /// Fresh block-order power sum of a committed partial partition —
    /// the exact float accumulation the exhaustive scan performed per
    /// complete partition, so tie-breaks stay bit-identical.
    fn committed(&mut self, blocks: &[u64]) -> f64 {
        let mut sum = 0.0;
        for &m in blocks {
            // memx-lint: allow(no-panic-paths) — every committed block was price-gated `Some` before being committed.
            sum += self.price(m).expect("committed blocks are feasible");
        }
        sum
    }
}

/// Admissible per-group power floor of the off-chip suffix bound: the
/// group's energy-weighted access rate priced at the cheapest per-access
/// energy any catalog configuration covering the group's width can
/// offer. Every block holding the group — joined or newly opened,
/// single- or dual-ported — pays at least this much *for this group's
/// accesses*, because a block at least `width` bits wide gangs at least
/// `ceil(width / part_width)` devices of whatever part it selects, and
/// the dual-bank energy factor only adds. Static power is deliberately
/// excluded (a join may reuse a committed block's rank slack).
fn off_chip_group_floor(
    spec: &AppSpec,
    traffic: &[Traffic],
    lib: &MemLibrary,
    time_s: f64,
    g: BasicGroupId,
) -> f64 {
    let width = spec.group(g).bitwidth();
    let floor_e = lib
        .off_chip()
        .parts()
        .iter()
        .map(|p| p.energy_pj() * f64::from(width.div_ceil(p.width())))
        .min_by(f64::total_cmp)
        // memx-lint: allow(no-panic-paths) — `assign_off_chip` rejects an empty part catalog before any floor is computed.
        .expect("catalog checked non-empty");
    floor_e * (traffic[g.index()].energy_accesses() / time_s) / 1e9
}

/// The incrementally-maintained committed-block sum of a partial
/// partition, with the float fold order pinned to block index.
///
/// `prefix[j]` is the left-to-right sum `0.0 + prices[0] + … +
/// prices[j]` — exactly the accumulation [`OffChipPricer::committed`]
/// performs — so [`BlockSum::total`] is bit-identical to a fresh
/// block-order summation at every node, and a delta touching block `b`
/// only refolds `prefix[b..]`. Restoring a block's previous price and
/// refolding reproduces the previous bits exactly (the fold consumes
/// identical values in identical order), so backtracking is lossless.
#[derive(Clone, Default)]
struct BlockSum {
    blocks: Vec<u64>,
    prices: Vec<f64>,
    prefix: Vec<f64>,
}

impl BlockSum {
    fn len(&self) -> usize {
        self.blocks.len()
    }

    /// The committed sum: bitwise what `pricer.committed(&self.blocks)`
    /// would return.
    fn total(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// Refolds `prefix[from..]` from the prices.
    fn refold(&mut self, from: usize) {
        self.prefix.truncate(from);
        let mut acc = if from == 0 {
            0.0
        } else {
            self.prefix[from - 1]
        };
        for j in from..self.prices.len() {
            acc += self.prices[j];
            self.prefix.push(acc);
        }
    }

    /// Replaces block `b` (grow or restore), refolding the tail.
    fn set(&mut self, b: usize, mask: u64, price: f64) {
        self.blocks[b] = mask;
        self.prices[b] = price;
        self.refold(b);
    }

    /// Opens a new block at the end.
    fn push(&mut self, mask: u64, price: f64) {
        self.blocks.push(mask);
        self.prices.push(price);
        let from = self.prefix.len();
        self.refold(from);
    }

    /// Closes the last block again.
    fn pop(&mut self) {
        self.blocks.pop();
        self.prices.pop();
        self.prefix.pop();
    }
}

/// A partial canonical partition of the first `depth` off-chip groups.
#[derive(Clone)]
struct OffChipPrefix {
    sum: BlockSum,
    depth: usize,
    /// Block-choice index of group `depth - 1` (0 when `depth == 0`;
    /// only read when `sym_prev[depth]` holds, which implies
    /// `depth > 0`) — the dominance rule's lower limit for the next
    /// group's join candidates.
    prev_choice: usize,
}

/// Outcome of one explored off-chip subtree.
struct OffChipSubtreeResult {
    val: f64,
    blocks: Option<Vec<u64>>,
    nodes: u64,
    partitions: u64,
    truncated: bool,
    skipped: bool,
    dominance_cuts: u64,
    updates: u64,
}

/// The off-chip solver's instantiation of the generic fan harness
/// ([`crate::fan`]): per-worker state is the memoizing block pricer, and
/// subtree skipping uses the ulp-guarded comparison because the suffix
/// floor can be exactly tight in real arithmetic.
struct OffChipFan<'a> {
    ctx: &'a OffChipCtx<'a>,
}

impl<'a> SubtreeSearch for OffChipFan<'a> {
    type Prefix = OffChipPrefix;
    type State = OffChipPricer<'a>;
    type Outcome = OffChipSubtreeResult;

    fn explore(
        &self,
        pricer: &mut OffChipPricer<'a>,
        p: &OffChipPrefix,
        outer: f64,
        budget: u64,
    ) -> OffChipSubtreeResult {
        if p.depth == self.ctx.n() {
            // The whole tree fit into the prefix expansion: the prefix
            // *is* a complete partition (already bounded by `outer`).
            let mw = p.sum.total();
            debug_assert_eq!(
                mw.to_bits(),
                pricer.committed(&p.sum.blocks).to_bits(),
                "running committed sum drifted from the fresh block-order fold"
            );
            return OffChipSubtreeResult {
                val: mw,
                blocks: Some(p.sum.blocks.clone()),
                nodes: 1,
                partitions: 1,
                truncated: false,
                skipped: false,
                dominance_cuts: 0,
                updates: 0,
            };
        }
        let mut dfs = OffChipDfs {
            ctx: self.ctx,
            outer,
            best_mw: f64::INFINITY,
            best: None,
            nodes: 0,
            node_limit: budget,
            truncated: false,
            partitions: 0,
            dominance_cuts: 0,
            updates: 0,
        };
        let mut sum = p.sum.clone();
        dfs.recurse(pricer, p.depth, &mut sum, p.prev_choice);
        OffChipSubtreeResult {
            val: if dfs.best.is_some() {
                dfs.best_mw
            } else {
                f64::INFINITY
            },
            blocks: dfs.best,
            nodes: dfs.nodes,
            partitions: dfs.partitions,
            truncated: dfs.truncated,
            skipped: false,
            dominance_cuts: dfs.dominance_cuts,
            updates: dfs.updates,
        }
    }

    fn clone_state(&self, pricer: &OffChipPricer<'a>) -> OffChipPricer<'a> {
        pricer.clone()
    }

    fn skipped(&self) -> OffChipSubtreeResult {
        OffChipSubtreeResult {
            val: f64::INFINITY,
            blocks: None,
            nodes: 0,
            partitions: 0,
            truncated: false,
            skipped: true,
            dominance_cuts: 0,
            updates: 0,
        }
    }

    fn value(&self, r: &OffChipSubtreeResult) -> Option<f64> {
        r.blocks.is_some().then_some(r.val)
    }

    fn nodes(&self, r: &OffChipSubtreeResult) -> u64 {
        r.nodes
    }

    fn skip_above(&self, lb: f64, bound: f64) -> bool {
        above_with_slack(lb, bound)
    }

    fn merge_state(&self, main: &mut OffChipPricer<'a>, worker: OffChipPricer<'a>) {
        // Prices and port requirements are pure functions of the
        // instance, so worker-discovered entries are bit-identical to
        // what the serial pricer would compute — merging them back only
        // completes the memo (and hence the persisted block catalog).
        main.cache.extend(worker.cache);
        main.oracle.cache.extend(worker.oracle.cache);
    }
}

/// Depth-first exploration of one off-chip subtree with a private node
/// budget against a fixed outer bound (see module docs).
struct OffChipDfs<'a> {
    ctx: &'a OffChipCtx<'a>,
    /// Strict upper bound from outside the subtree (the greedy or seed
    /// value — always the cost of a real partition): nodes are pruned
    /// only when strictly above it, so a leaf *equal* to the eventual
    /// optimum is never cut and the canonical first-found minimum of the
    /// exhaustive scan is reproduced exactly.
    outer: f64,
    best_mw: f64,
    best: Option<Vec<u64>>,
    nodes: u64,
    node_limit: u64,
    truncated: bool,
    partitions: u64,
    dominance_cuts: u64,
    updates: u64,
}

impl OffChipDfs<'_> {
    fn recurse(
        &mut self,
        pricer: &mut OffChipPricer<'_>,
        i: usize,
        sum: &mut BlockSum,
        prev_choice: usize,
    ) {
        if self.truncated {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.truncated = true;
            return;
        }
        let committed = sum.total();
        debug_assert_eq!(
            committed.to_bits(),
            pricer.committed(&sum.blocks).to_bits(),
            "running committed sum drifted from the fresh block-order fold"
        );
        let lb = committed + self.ctx.floor_suffix[i];
        // Ulp-guarded against the outer bound (a tie may hide the
        // canonical-first optimum), exact non-strict against a leaf
        // already found inside (an equal deeper leaf loses the
        // first-found tie-break anyway).
        if above_with_slack(lb, self.outer) || lb >= self.best_mw {
            return;
        }
        if i == self.ctx.n() {
            self.partitions += 1;
            if committed < self.best_mw {
                self.best_mw = committed;
                self.best = Some(sum.blocks.clone());
            }
            return;
        }
        let bit = 1u64 << i;
        // Dominance: a twin of the previous group only joins blocks at
        // or after the previous twin's choice (module docs prove the
        // canonical-first optimum survives this).
        let start = if self.ctx.sym_prev[i] { prev_choice } else { 0 };
        self.dominance_cuts += start as u64;
        for b in start..sum.len() {
            let grown = sum.blocks[b] | bit;
            // Infeasible grown blocks prune the branch — sound because
            // the port requirement is monotone in the group subset.
            if let Some(price) = pricer.price(grown) {
                let old_mask = sum.blocks[b];
                let old_price = sum.prices[b];
                sum.set(b, grown, price);
                self.updates += 1;
                self.recurse(pricer, i + 1, sum, b);
                sum.set(b, old_mask, old_price);
            }
        }
        if let Some(price) = pricer.price(bit) {
            let opened = sum.len();
            sum.push(bit, price);
            self.updates += 1;
            self.recurse(pricer, i + 1, sum, opened);
            sum.pop();
        }
    }
}

/// Deterministic greedy off-chip partition, seeding the search bound:
/// each group joins the feasible block whose power delta is smallest
/// (earliest block on ties), or opens its own block when that is
/// strictly cheaper. Returns `None` when some singleton is infeasible —
/// port requirements are monotone, so no partition is feasible at all
/// in that case.
fn off_chip_greedy(ctx: &OffChipCtx<'_>, pricer: &mut OffChipPricer<'_>) -> Option<f64> {
    let mut blocks: Vec<u64> = Vec::new();
    for i in 0..ctx.n() {
        let bit = 1u64 << i;
        let open_delta = pricer.price(bit)?;
        let mut choice: Option<(usize, f64)> = None;
        for (b, &mask) in blocks.iter().enumerate() {
            if let Some(grown) = pricer.price(mask | bit) {
                // memx-lint: allow(no-panic-paths) — blocks enter the greedy partition only after pricing `Some`.
                let delta = grown - pricer.price(mask).expect("existing blocks are feasible");
                if choice.map(|(_, d)| delta < d).unwrap_or(true) {
                    choice = Some((b, delta));
                }
            }
        }
        match choice {
            Some((b, delta)) if delta <= open_delta => blocks[b] |= bit,
            _ => blocks.push(bit),
        }
    }
    Some(pricer.committed(&blocks))
}

/// Expands the canonical off-chip partition tree breadth-first (children
/// in depth-first candidate order, so the prefix sequence preserves the
/// serial visiting order) until at least [`TARGET_SUBTREES`] prefixes
/// exist or every group is assigned. Children strictly above the greedy
/// bound, or growing an infeasible block, are dropped.
fn off_chip_expand(
    ctx: &OffChipCtx<'_>,
    pricer: &mut OffChipPricer<'_>,
    outer: f64,
    stats: &mut AllocStats,
) -> Vec<OffChipPrefix> {
    let n = ctx.n();
    let mut level = vec![OffChipPrefix {
        sum: BlockSum::default(),
        depth: 0,
        prev_choice: 0,
    }];
    while level.len() < TARGET_SUBTREES && level.iter().any(|p| p.depth < n) {
        let mut next: Vec<OffChipPrefix> = Vec::with_capacity(level.len() * 2);
        for p in &level {
            if p.depth == n {
                next.push(p.clone());
                continue;
            }
            let bit = 1u64 << p.depth;
            let mut push_child = |sum: BlockSum, choice: usize, pricer: &mut OffChipPricer<'_>| {
                debug_assert_eq!(
                    sum.total().to_bits(),
                    pricer.committed(&sum.blocks).to_bits(),
                    "running committed sum drifted from the fresh block-order fold"
                );
                let lb = sum.total() + ctx.floor_suffix[p.depth + 1];
                if above_with_slack(lb, outer) {
                    return; // clearly above a real partition's cost
                }
                next.push(OffChipPrefix {
                    sum,
                    depth: p.depth + 1,
                    prev_choice: choice,
                });
            };
            // Same dominance rule as the depth-first search: prefixes
            // dominated there are never materialized here either.
            let start = if ctx.sym_prev[p.depth] {
                p.prev_choice
            } else {
                0
            };
            stats.off_chip_dominance_cuts += start as u64;
            for b in start..p.sum.len() {
                let grown = p.sum.blocks[b] | bit;
                if let Some(price) = pricer.price(grown) {
                    let mut sum = p.sum.clone();
                    sum.set(b, grown, price);
                    stats.bound_incremental_updates += 1;
                    push_child(sum, b, pricer);
                }
            }
            if let Some(price) = pricer.price(bit) {
                let mut sum = p.sum.clone();
                let opened = sum.len();
                sum.push(bit, price);
                stats.bound_incremental_updates += 1;
                push_child(sum, opened, pricer);
            }
        }
        if next.is_empty() {
            return next; // every branch infeasible or bounded out
        }
        level = next;
    }
    level
}

/// Builds the cheapest off-chip memory set by branch-and-bound over set
/// partitions of the off-chip groups (see module docs): canonical
/// restricted-growth order, exact committed-block prices plus the
/// admissible per-group floor, deterministic prefix subtrees fanned over
/// the workers with an atomic incumbent used only to skip whole
/// subtrees. Bit-identical to the retired exhaustive scan for every
/// worker count.
#[allow(clippy::too_many_arguments)]
fn assign_off_chip(
    spec: &AppSpec,
    traffic: &[Traffic],
    oracle: &mut PortOracle,
    lib: &MemLibrary,
    groups: &[BasicGroupId],
    time_s: f64,
    options: &AllocOptions,
    workers: usize,
    stats: &mut AllocStats,
    cache: Option<&EvalCache>,
) -> Result<Vec<MemoryInstance>, ExploreError> {
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    if lib.off_chip().parts().is_empty() {
        // Checked up front so block pricing is infallible everywhere.
        return Err(ExploreError::Part(
            memx_memlib::SelectPartError::EmptyCatalog,
        ));
    }
    // Power figures divide traffic by the real-time window: a
    // zero/negative/non-finite window (or non-finite traffic) would
    // make every floor NaN/∞, silently defeating `above_with_slack`
    // pruning instead of failing loudly. Reject the instance up front.
    if !(time_s.is_finite() && time_s > 0.0)
        || groups.iter().any(|&g| {
            !traffic[g.index()].random.is_finite() || !traffic[g.index()].burst.is_finite()
        })
    {
        return Err(ExploreError::BadOffChipPricing { time_s });
    }
    let n = groups.len();
    stats.off_chip_exhaustive_partitions = stats
        .off_chip_exhaustive_partitions
        .saturating_add(bell_number(n));
    let mut floor_suffix = vec![0.0; n + 1];
    for i in (0..n).rev() {
        floor_suffix[i] =
            floor_suffix[i + 1] + off_chip_group_floor(spec, traffic, lib, time_s, groups[i]);
    }
    let ctx = OffChipCtx {
        spec,
        traffic,
        lib,
        groups,
        time_s,
        floor_suffix,
        sym_prev: off_chip_symmetry(spec, traffic, oracle, groups, options.off_chip_dominance),
    };
    let mut pricer = OffChipPricer {
        ctx: &ctx,
        oracle: oracle.clone(),
        cache: BTreeMap::new(),
    };

    // Pre-seed the block pricer from a cached catalog when one exists.
    // Prices are pure functions of (groups, slots, library), so a seeded
    // memo changes nothing about the search — the same values would be
    // recomputed lazily — and worker pricers clone the serial pricer
    // *after* seeding, so every subtree benefits. Any subset superset
    // of what this run will query is fine; extra masks are ignored.
    let blocks_key = cache.map(|_| {
        let instance = off_chip_blocks_fingerprint(spec, traffic, oracle, groups, time_s);
        cache::CacheKey::off_chip_blocks(instance, lib)
    });
    let mut blocks_from_cache = false;
    if let (Some(cache), Some(key)) = (cache, blocks_key.as_ref()) {
        if let Some(entries) = cache.load_off_chip_blocks(key) {
            cache.note_blocks_hit();
            blocks_from_cache = true;
            pricer.cache.extend(entries);
        }
    }

    // Greedy incumbent: only ever a pruning bound, never a result — the
    // reduction starts empty, so the canonical-first optimum the
    // exhaustive scan returned is reproduced bit for bit.
    let Some(greedy_mw) = off_chip_greedy(&ctx, &mut pricer) else {
        return Err(ExploreError::NoFeasibleAssignment {
            reason: "off-chip groups overlap beyond dual-port bandwidth".to_owned(),
        });
    };

    // Split the canonical tree into deterministic subtrees and compute
    // each root's lower bound once (serially, so it is deterministic).
    let prefixes = off_chip_expand(&ctx, &mut pricer, greedy_mw, stats);
    let bounds: Vec<f64> = prefixes
        .iter()
        .map(|p| p.sum.total() + ctx.floor_suffix[p.depth])
        .collect();

    // Fan the subtrees through the generic harness ([`crate::fan`]):
    // seed phase, budget split, published incumbent, claim queue. Each
    // subtree's outcome is a pure function of (prefix, outer, budget),
    // so determinism only needs those chosen deterministically — which
    // the harness guarantees. The ulp-guarded skip predicate lives on
    // [`OffChipFan`].
    let collected = fan_subtrees(
        &OffChipFan { ctx: &ctx },
        &prefixes,
        &bounds,
        &mut pricer,
        greedy_mw,
        options.node_limit,
        workers,
    );

    // Deterministic reduction in canonical subtree order with strict
    // improvement — the exhaustive scan's first-found-minimum tie-break.
    let mut best_val = f64::INFINITY;
    let mut best_blocks: Option<Vec<u64>> = None;
    for r in &collected {
        stats.off_chip_bb_nodes += r.nodes;
        stats.off_chip_partitions += r.partitions;
        stats.off_chip_dominance_cuts += r.dominance_cuts;
        stats.bound_incremental_updates += r.updates;
        if r.skipped {
            stats.off_chip_pruned_subtrees += 1;
        }
        if r.val < best_val {
            if let Some(b) = &r.blocks {
                best_val = r.val;
                best_blocks = Some(b.clone());
            }
        }
    }

    // Exhaustion is raised only when a truncated subtree could actually
    // hide a better (or canonically-earlier equal) partition: truncated
    // subtrees whose bound already exceeds the reduced best prove
    // themselves irrelevant. Subtrees skipped by the atomic incumbent
    // always have bounds strictly above it, so the signal is identical
    // for every worker count and thread timing.
    let exhausted = collected
        .iter()
        .enumerate()
        .any(|(j, r)| r.truncated && !above_with_slack(bounds[j], best_val));
    if exhausted {
        return Err(ExploreError::TooManyOffChipGroups {
            count: n,
            node_limit: options.node_limit,
        });
    }
    let Some(blocks) = best_blocks else {
        return Err(ExploreError::NoFeasibleAssignment {
            reason: "off-chip groups overlap beyond dual-port bandwidth".to_owned(),
        });
    };
    // Persist the pricer's memo for the next process — including the
    // masks worker pricer clones discovered inside their subtrees,
    // which [`OffChipFan::merge_state`] folded back after the fan (so
    // a warm run re-seeds the *full* catalog, not just the serial
    // pre-seed). Only on a miss: on a hit the entry already exists.
    if let (Some(cache), Some(key)) = (cache, blocks_key.as_ref()) {
        if !blocks_from_cache {
            let mut entries: Vec<(u64, Option<f64>)> =
                pricer.cache.iter().map(|(&m, &p)| (m, p)).collect();
            entries.sort_unstable_by_key(|e| e.0);
            cache.note_blocks_miss();
            cache.store_off_chip_blocks(key, &entries);
        }
    }
    Ok(blocks
        .iter()
        .map(|&mask| ctx.build_memory(&mut pricer, mask))
        .collect())
}

/// The retired exhaustive streaming set-partition scan, kept as the
/// ground truth the branch-and-bound is property-tested against: returns
/// the off-chip memories of the optimal partition (canonical-first
/// strict minimum) plus the number of complete partitions scanned.
/// Enumeration cost grows as Bell numbers — test instrumentation for
/// small instances only.
///
/// # Errors
///
/// As for [`assign_with_stats`] (minus the node-budget exhaustion
/// signal, which the exhaustive scan does not have).
///
/// # Panics
///
/// Panics on more than 16 off-chip groups (Bell(16) ≈ 10¹⁰ partitions —
/// the reference would effectively never finish).
#[doc(hidden)]
pub fn off_chip_exhaustive_reference(
    spec: &AppSpec,
    scbd: &ScbdResult,
    lib: &MemLibrary,
) -> Result<(Vec<MemoryInstance>, u64), ExploreError> {
    let traffic = group_traffic(spec);
    let time_s = spec.real_time_seconds();
    let oracle = PortOracle::new(spec, scbd);
    let (groups, _) = split_accessed_groups(spec, &traffic)?;
    if groups.is_empty() {
        return Ok((Vec::new(), 0));
    }
    assert!(
        groups.len() <= 16,
        "exhaustive reference is test instrumentation for small instances"
    );
    if lib.off_chip().parts().is_empty() {
        return Err(ExploreError::Part(
            memx_memlib::SelectPartError::EmptyCatalog,
        ));
    }
    let ctx = OffChipCtx {
        spec,
        traffic: &traffic,
        lib,
        groups: &groups,
        time_s,
        floor_suffix: vec![0.0; groups.len() + 1],
        // The ground truth stays dominance-free: every partition is
        // scanned, so the dominance property tests compare against the
        // genuinely unpruned canonical-first optimum.
        sym_prev: vec![false; groups.len()],
    };
    let mut pricer = OffChipPricer {
        ctx: &ctx,
        oracle,
        cache: BTreeMap::new(),
    };
    struct Scan<'a, 'b> {
        pricer: &'a mut OffChipPricer<'b>,
        n: usize,
        best: Option<(f64, Vec<u64>)>,
        partitions: u64,
    }
    impl Scan<'_, '_> {
        fn recurse(&mut self, i: usize, blocks: &mut Vec<u64>) {
            if i == self.n {
                self.partitions += 1;
                let power = self.pricer.committed(blocks);
                if self.best.as_ref().map(|(p, _)| power < *p).unwrap_or(true) {
                    self.best = Some((power, blocks.clone()));
                }
                return;
            }
            let bit = 1u64 << i;
            for b in 0..blocks.len() {
                let grown = blocks[b] | bit;
                if self.pricer.price(grown).is_some() {
                    let old = blocks[b];
                    blocks[b] = grown;
                    self.recurse(i + 1, blocks);
                    blocks[b] = old;
                }
            }
            if self.pricer.price(bit).is_some() {
                blocks.push(bit);
                self.recurse(i + 1, blocks);
                blocks.pop();
            }
        }
    }
    let mut scan = Scan {
        pricer: &mut pricer,
        n: groups.len(),
        best: None,
        partitions: 0,
    };
    scan.recurse(0, &mut Vec::new());
    let partitions = scan.partitions;
    let (_, blocks) = scan
        .best
        .ok_or_else(|| ExploreError::NoFeasibleAssignment {
            reason: "off-chip groups overlap beyond dual-port bandwidth".to_owned(),
        })?;
    let mems = blocks
        .iter()
        .map(|&mask| ctx.build_memory(&mut pricer, mask))
        .collect();
    Ok((mems, partitions))
}

/// Cost of one on-chip memory holding `members`.
fn on_chip_memory(
    spec: &AppSpec,
    traffic: &[Traffic],
    lib: &MemLibrary,
    members: &[BasicGroupId],
    ports: u32,
    time_s: f64,
) -> MemoryInstance {
    let words: u64 = members.iter().map(|&g| spec.group(g).words()).sum();
    let width = members
        .iter()
        .map(|&g| spec.group(g).bitwidth())
        .max()
        // memx-lint: allow(no-panic-paths) — callers only build memories for non-empty bins (the canonical partition never opens an empty one).
        .expect("memory not empty");
    let module = OnChipSpec::new(words, width, ports);
    let area = lib.on_chip().area_mm2(&module);
    let energy = lib.on_chip().energy_pj(&module);
    let accesses: f64 = members.iter().map(|&g| traffic[g.index()].total()).sum();
    let mw = energy * accesses / time_s / 1e9;
    MemoryInstance {
        groups: members.to_vec(),
        words,
        width,
        ports,
        kind: MemoryKind::OnChip,
        cost: CostBreakdown::new(area, mw, 0.0),
    }
}

/// Admissible per-group cost floor: the group's own cell area at the
/// block width `width`, plus its access energy in a module of at least
/// `words` words, `width` bits and `ports` ports. Any real memory
/// holding the group in a block with at least those dimensions costs at
/// least this much *for this group's share* — the cell array is at
/// least per-bit × own words × block width, and the energy model is
/// monotone in words, width and ports.
///
/// The [`BoundKind::Solo`] variant is the original loose floor (flat
/// cell area, whatever the module looks like); [`BoundKind::Pairwise`]
/// additionally mirrors the area model's banking penalty and per-port
/// area factor, both monotone in the module parameters and therefore
/// still admissible. All constants are read from the **active**
/// [`memx_memlib::OnChipModel`], so a custom technology library with
/// cheaper cells keeps the bound admissible (and one with dearer cells
/// prunes just as hard as the built-in model does).
#[allow(clippy::too_many_arguments)]
fn group_floor(
    spec: &AppSpec,
    traffic: &[Traffic],
    lib: &MemLibrary,
    options: &AllocOptions,
    time_s: f64,
    g: BasicGroupId,
    words: u64,
    width: u32,
    ports: u32,
    kind: BoundKind,
) -> f64 {
    let model = lib.on_chip();
    let grp = spec.group(g);
    let module = OnChipSpec::new(words, width, ports);
    let energy = model.energy_pj(&module);
    let mut cells = model.area_per_bit_mm2() * grp.words() as f64 * f64::from(width);
    if kind == BoundKind::Pairwise {
        // The cell array of any module holding these words is banked at
        // least this hard and pays at least this port area factor.
        let bank = 1.0 + (words as f64 / model.bank_words()).min(2.0);
        let port_factor = 1.0 + model.port_area_factor() * (f64::from(ports) - 1.0);
        cells *= bank * port_factor;
    }
    let mw = energy * traffic[g.index()].total() / time_s / 1e9;
    cells * options.area_weight + mw * options.power_weight
}

/// The suffix lower-bound table of the on-chip branch-and-bound, over a
/// fixed hardest-first group order (see the module docs).
///
/// `bound(i, open, k)` lower-bounds the cost every completion adds for
/// the unassigned groups `order[i..]`, given `open` non-empty memories
/// so far and `k` memories in total. It is admissible for both
/// [`BoundKind`]s; the pairwise variant additionally charges each
/// group's minimum-port floor, the fixed module overhead of every
/// memory still to be opened, and the `remaining − (k − open)` joins
/// the pigeonhole principle forces, each at the group's cheapest
/// pairwise-conflict extra.
struct SuffixBound {
    /// `base[i]` = Σ over `order[i..]` of the per-group floor (solo, or
    /// solo + minimum-port tightening for the pairwise bound).
    base: Vec<f64>,
    /// `merge[i][m]` = sum of the `m` smallest join extras among
    /// `order[i..]`; `None` for the solo bound.
    merge: Option<Vec<Vec<f64>>>,
    /// Area-weighted per-module overhead charged for every memory still
    /// to be opened (each of the `k − open` future blocks pays at least
    /// the module generator's fixed overhead). Zero for the solo bound.
    per_block: f64,
    n: usize,
}

impl SuffixBound {
    #[allow(clippy::too_many_arguments)]
    fn build(
        spec: &AppSpec,
        traffic: &[Traffic],
        lib: &MemLibrary,
        options: &AllocOptions,
        time_s: f64,
        order: &[BasicGroupId],
        oracle: &mut PortOracle,
        kind: BoundKind,
    ) -> SuffixBound {
        let n = order.len();
        let floor = |g: BasicGroupId, words: u64, width: u32, ports: u32| {
            group_floor(
                spec, traffic, lib, options, time_s, g, words, width, ports, kind,
            )
        };
        // The solo floor (1-port private module; flat cells for
        // `BoundKind::Solo`, model-mirrored for `BoundKind::Pairwise`).
        let solo: Vec<f64> = order
            .iter()
            .map(|&g| floor(g, spec.group(g).words(), spec.group(g).bitwidth(), 1))
            .collect();
        let (per_group, merge) = match kind {
            BoundKind::Solo => (solo, None),
            BoundKind::Pairwise => {
                // Tightening 1 (unary): every memory holding `g` needs at
                // least the group's own minimum port count.
                let tight: Vec<f64> = order
                    .iter()
                    .map(|&g| {
                        let grp = spec.group(g);
                        floor(g, grp.words(), grp.bitwidth(), grp.min_ports().max(1))
                    })
                    .collect();
                // Tightening 2 (pairwise): if `g` shares a memory with
                // *any* other group `h`, the block holds at least both
                // groups' words, is at least max(w_g, w_h) wide and
                // needs at least the ports their combined cycle
                // conflicts force — `g`'s floor rises by at least the
                // cheapest such extra over all partners (the energy
                // model is strictly monotone in module words, so every
                // co-assignment costs something).
                let join: Vec<f64> = order
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| {
                        let grp = spec.group(g);
                        order
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, &h)| {
                                let other = spec.group(h);
                                let words = grp.words() + other.words();
                                let width = grp.bitwidth().max(other.bitwidth());
                                let ports =
                                    oracle.required((1u64 << g.index()) | (1u64 << h.index()));
                                (floor(g, words, width, ports) - tight[i]).max(0.0)
                            })
                            .min_by(f64::total_cmp)
                            .unwrap_or(0.0)
                    })
                    .collect();
                // merge[i][m]: the m smallest join extras of the suffix.
                let mut merge = Vec::with_capacity(n + 1);
                for i in 0..=n {
                    let mut tail: Vec<f64> = join[i..].to_vec();
                    tail.sort_by(f64::total_cmp);
                    let mut sums = Vec::with_capacity(tail.len() + 1);
                    let mut acc = 0.0;
                    sums.push(0.0);
                    for v in tail {
                        acc += v;
                        sums.push(acc);
                    }
                    merge.push(sums);
                }
                (tight, Some(merge))
            }
        };
        let mut base = vec![0.0; n + 1];
        for i in (0..n).rev() {
            base[i] = base[i + 1] + per_group[i];
        }
        let per_block = match kind {
            BoundKind::Solo => 0.0,
            BoundKind::Pairwise => lib.on_chip().module_overhead_mm2() * options.area_weight,
        };
        SuffixBound {
            base,
            merge,
            per_block,
            n,
        }
    }

    /// Lower bound on the cost the unassigned suffix `order[i..]` adds,
    /// with `open` non-empty memories so far and `k` memories in total.
    fn bound(&self, i: usize, open: usize, k: usize) -> f64 {
        self.bound_with(i, k.saturating_sub(open))
    }

    /// [`SuffixBound::bound`] from the incrementally-maintained
    /// still-to-open count instead of `(open, k)`. The float expression
    /// is evaluated fresh from the same table entries — only the
    /// *integer* delta is maintained across nodes, so the two paths are
    /// bit-identical by construction (debug builds assert it per node).
    fn bound_with(&self, i: usize, to_open: usize) -> f64 {
        let base = self.base[i] + self.per_block * to_open as f64;
        match &self.merge {
            None => base,
            Some(merge) => {
                let remaining = self.n - i;
                let forced = remaining.saturating_sub(to_open);
                base + merge[i][forced]
            }
        }
    }
}

/// Everything the on-chip sweep shares across allocation sizes: the
/// hardest-first group order and the suffix bound tables (both are
/// independent of `k`).
struct OnChipSweep<'a> {
    spec: &'a AppSpec,
    traffic: &'a [Traffic],
    lib: &'a MemLibrary,
    options: &'a AllocOptions,
    time_s: f64,
    order: Vec<BasicGroupId>,
    bound: SuffixBound,
}

impl<'a> OnChipSweep<'a> {
    #[allow(clippy::too_many_arguments)]
    fn build(
        spec: &'a AppSpec,
        traffic: &'a [Traffic],
        lib: &'a MemLibrary,
        groups: &[BasicGroupId],
        time_s: f64,
        options: &'a AllocOptions,
        oracle: &mut PortOracle,
    ) -> Self {
        // Hardest-first ordering: most-accessed groups first.
        let mut order: Vec<BasicGroupId> = groups.to_vec();
        order.sort_by(|a, b| {
            traffic[b.index()]
                .total()
                .total_cmp(&traffic[a.index()].total())
                .then(a.cmp(b))
        });
        let bound = SuffixBound::build(
            spec,
            traffic,
            lib,
            options,
            time_s,
            &order,
            oracle,
            options.bound,
        );
        OnChipSweep {
            spec,
            traffic,
            lib,
            options,
            time_s,
            order,
            bound,
        }
    }
}

/// Scalar cost of an on-chip memory set, exactly as the sweep reduction
/// compares candidates (sum of cost breakdowns, then scalarize).
fn on_chip_scalar(mems: &[MemoryInstance], options: &AllocOptions) -> f64 {
    let cost: CostBreakdown = mems.iter().map(|m| m.cost).sum();
    cost.scalar(options.area_weight, options.power_weight)
}

/// The `k = 1..n` allocation-size sweep, fanned over the worker pool.
///
/// A deterministically-chosen *seed size* (smallest root lower bound,
/// earliest on ties) is searched first with the full pool; its cost is
/// published through an atomic and used only to skip whole sizes whose
/// root bound strictly exceeds it. The remaining sizes fan over
/// [`parallel_map`] with the pool split between the sweep and each
/// size's subtree search, and the results reduce in ascending-`k` order
/// with strict improvement — bit-identical for every worker count.
#[allow(clippy::too_many_arguments)]
fn sweep_on_chip(
    spec: &AppSpec,
    traffic: &[Traffic],
    oracle: &mut PortOracle,
    lib: &MemLibrary,
    groups: &[BasicGroupId],
    counts: &[usize],
    time_s: f64,
    options: &AllocOptions,
    workers: usize,
    stats: &mut AllocStats,
) -> Option<(f64, Vec<MemoryInstance>)> {
    if counts.is_empty() {
        return None;
    }
    let sweep = OnChipSweep::build(spec, traffic, lib, groups, time_s, options, oracle);
    // Worker budgeting across the two on-chip levels: the sweep claims
    // at most one worker per size and each size's subtree search gets an
    // equal share of the rest, so a batch never oversubscribes the pool
    // cores²-style. Results are independent of the split.
    let sweep_workers = workers.min(counts.len()).max(1);
    let inner_workers = (workers / sweep_workers).max(1);

    let root_lb = |k: usize| sweep.bound.bound(0, 0, k);
    // Seed size: smallest root lower bound, earliest on ties.
    let mut seed_pos = 0usize;
    for i in 1..counts.len() {
        if root_lb(counts[i])
            .total_cmp(&root_lb(counts[seed_pos]))
            .is_lt()
        {
            seed_pos = i;
        }
    }
    // Seed phase: the whole pool works on the most promising size.
    let (seed_mems, seed_nodes, seed_updates) =
        assign_on_chip(&sweep, oracle, counts[seed_pos], workers);
    let shared = Incumbent::new(
        seed_mems
            .as_deref()
            .map(|m| on_chip_scalar(m, options))
            .unwrap_or(f64::INFINITY),
    );
    let others: Vec<usize> = counts
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != seed_pos)
        .map(|(_, &k)| k)
        .collect();
    let fanned = parallel_map(&others, sweep_workers, |_, &k| {
        if root_lb(k) > shared.get() {
            // Strictly above a published result: this size's search —
            // even node-limited, its outcome is a feasible organization
            // costing at least the root bound — can never win the
            // strict ascending-k reduction, so skipping it cannot
            // change the result regardless of thread timing.
            return (None, 0u64, 0u64, true);
        }
        let mut worker_oracle = oracle.clone();
        let (mems, nodes, updates) = assign_on_chip(&sweep, &mut worker_oracle, k, inner_workers);
        if let Some(m) = &mems {
            shared.publish_min(on_chip_scalar(m, options));
        }
        (mems, nodes, updates, false)
    });

    // Canonical reduction in ascending-k input order, strict improvement
    // — the serial sweep's first-found-minimum tie-break.
    let mut best: Option<(f64, Vec<MemoryInstance>)> = None;
    let mut seed_slot = Some((seed_mems, seed_nodes, seed_updates, false));
    let mut fanned = fanned.into_iter();
    for i in 0..counts.len() {
        let (mems, nodes, updates, skipped) = if i == seed_pos {
            // memx-lint: allow(no-panic-paths) — the seed slot is taken exactly once (at `i == seed_pos`).
            seed_slot.take().expect("seed reduced once")
        } else {
            // memx-lint: allow(no-panic-paths) — `parallel_map` returns exactly one result per non-seed size.
            fanned.next().expect("one fanned result per non-seed size")
        };
        stats.bb_nodes += nodes;
        stats.bound_incremental_updates += updates;
        if skipped {
            stats.sweep_skips += 1;
        }
        if let Some(m) = mems {
            let scalar = on_chip_scalar(&m, options);
            if best.as_ref().map(|(s, _)| scalar < *s).unwrap_or(true) {
                best = Some((scalar, m));
            }
        }
    }
    best
}

/// Shared, read-only context of one on-chip branch-and-bound run.
struct SearchCtx<'a> {
    sweep: &'a OnChipSweep<'a>,
    k: usize,
}

impl SearchCtx<'_> {
    /// Scalar cost of one memory holding `members`, or `None` when its
    /// port requirement exceeds the module generator's limit.
    fn memory_scalar(&self, oracle: &mut PortOracle, members: &[BasicGroupId]) -> Option<f64> {
        let mask: u64 = members.iter().map(|g| 1u64 << g.index()).sum();
        let ports = oracle.required(mask);
        if ports > self.sweep.options.max_on_chip_ports {
            return None;
        }
        let mem = on_chip_memory(
            self.sweep.spec,
            self.sweep.traffic,
            self.sweep.lib,
            members,
            ports,
            self.sweep.time_s,
        );
        Some(mem.cost.scalar(
            self.sweep.options.area_weight,
            self.sweep.options.power_weight,
        ))
    }

    fn order(&self) -> &[BasicGroupId] {
        &self.sweep.order
    }

    /// The admissible node bound: cost every completion of a node at
    /// depth `i` with `open` non-empty memories must still add.
    fn node_bound(&self, i: usize, open: usize) -> f64 {
        self.sweep.bound.bound(i, open, self.k)
    }

    /// [`SearchCtx::node_bound`] from the maintained still-to-open
    /// delta (see [`SuffixBound::bound_with`]).
    fn node_bound_with(&self, i: usize, to_open: usize) -> f64 {
        self.sweep.bound.bound_with(i, to_open)
    }
}

/// A partial canonical assignment of the first `depth` groups.
#[derive(Clone)]
struct Prefix {
    bins: Vec<Vec<BasicGroupId>>,
    bin_scalars: Vec<f64>,
    acc: f64,
    depth: usize,
}

/// Depth-first exploration of one subtree with a private node budget
/// and a bound seeded from the greedy incumbent only (see module docs).
struct Dfs<'a> {
    ctx: &'a SearchCtx<'a>,
    best_scalar: f64,
    best: Option<Vec<Vec<BasicGroupId>>>,
    nodes: u64,
    node_limit: u64,
    /// Memories still to open (`k − bins.len()`, saturating),
    /// maintained as an integer delta across assign/unassign instead of
    /// being re-derived per node.
    to_open: usize,
    updates: u64,
}

impl Dfs<'_> {
    fn recurse(
        &mut self,
        oracle: &mut PortOracle,
        i: usize,
        bins: &mut Vec<Vec<BasicGroupId>>,
        bin_scalars: &mut Vec<f64>,
        acc: f64,
    ) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            return;
        }
        let remaining = self.ctx.order().len() - i;
        if bins.len() + remaining < self.ctx.k {
            return; // cannot open enough memories any more
        }
        let node_bound = self.ctx.node_bound_with(i, self.to_open);
        debug_assert_eq!(
            node_bound.to_bits(),
            self.ctx.node_bound(i, bins.len()).to_bits(),
            "maintained to-open delta drifted from the from-scratch bound"
        );
        if acc + node_bound >= self.best_scalar {
            return;
        }
        if i == self.ctx.order().len() {
            if bins.len() == self.ctx.k {
                self.best_scalar = acc;
                self.best = Some(bins.clone());
            }
            return;
        }
        let g = self.ctx.order()[i];
        // Try existing memories.
        for b in 0..bins.len() {
            bins[b].push(g);
            if let Some(new_scalar) = self.ctx.memory_scalar(oracle, &bins[b]) {
                let old = bin_scalars[b];
                let acc2 = acc - old + new_scalar;
                bin_scalars[b] = new_scalar;
                self.recurse(oracle, i + 1, bins, bin_scalars, acc2);
                bin_scalars[b] = old;
            }
            bins[b].pop();
        }
        // Open a new memory (canonical: only one way).
        if bins.len() < self.ctx.k {
            bins.push(vec![g]);
            if let Some(scalar) = self.ctx.memory_scalar(oracle, &bins[bins.len() - 1]) {
                bin_scalars.push(scalar);
                self.to_open = self.to_open.saturating_sub(1);
                self.updates += 1;
                self.recurse(oracle, i + 1, bins, bin_scalars, acc + scalar);
                self.to_open += 1;
                bin_scalars.pop();
            }
            bins.pop();
        }
    }
}

/// Expands the canonical partition tree breadth-first (children in
/// depth-first candidate order, so the resulting prefix sequence is the
/// serial DFS visiting order) until at least [`TARGET_SUBTREES`]
/// prefixes exist or every group is assigned.
fn expand_prefixes(ctx: &SearchCtx<'_>, oracle: &mut PortOracle, greedy_bound: f64) -> Vec<Prefix> {
    let n = ctx.order().len();
    let mut level = vec![Prefix {
        bins: Vec::new(),
        bin_scalars: Vec::new(),
        acc: 0.0,
        depth: 0,
    }];
    while level.len() < TARGET_SUBTREES && level.iter().any(|p| p.depth < n) {
        let mut next: Vec<Prefix> = Vec::with_capacity(level.len() * 2);
        for p in &level {
            if p.depth == n {
                next.push(p.clone());
                continue;
            }
            let g = ctx.order()[p.depth];
            let remaining_after = n - p.depth - 1;
            let mut push_child = |bins: Vec<Vec<BasicGroupId>>, bin_scalars: Vec<f64>, acc: f64| {
                if bins.len() + remaining_after < ctx.k {
                    return; // cannot open enough memories any more
                }
                if acc + ctx.node_bound(p.depth + 1, bins.len()) >= greedy_bound {
                    return; // cannot strictly beat the greedy incumbent
                }
                next.push(Prefix {
                    bins,
                    bin_scalars,
                    acc,
                    depth: p.depth + 1,
                });
            };
            // Children in DFS candidate order: existing bins, then a
            // fresh bin.
            for b in 0..p.bins.len() {
                let mut bins = p.bins.clone();
                bins[b].push(g);
                if let Some(scalar) = ctx.memory_scalar(oracle, &bins[b]) {
                    let mut bin_scalars = p.bin_scalars.clone();
                    let acc = p.acc - bin_scalars[b] + scalar;
                    bin_scalars[b] = scalar;
                    push_child(bins, bin_scalars, acc);
                }
            }
            if p.bins.len() < ctx.k {
                if let Some(scalar) = ctx.memory_scalar(oracle, std::slice::from_ref(&g)) {
                    let mut bins = p.bins.clone();
                    bins.push(vec![g]);
                    let mut bin_scalars = p.bin_scalars.clone();
                    bin_scalars.push(scalar);
                    push_child(bins, bin_scalars, p.acc + scalar);
                }
            }
        }
        if next.is_empty() {
            return next; // every branch infeasible or bounded out
        }
        level = next;
    }
    level
}

/// Outcome of one explored subtree: the best strict improvement over
/// the greedy incumbent found inside it, if any, plus the nodes the
/// exploration consumed.
struct SubtreeResult {
    val: f64,
    bins: Option<Vec<Vec<BasicGroupId>>>,
    nodes: u64,
    updates: u64,
}

/// The on-chip solver's instantiation of the generic fan harness
/// ([`crate::fan`]): per-worker state is the memoizing port oracle, and
/// subtree skipping uses the default strict comparison (a subtree
/// holding a solution equal to the final minimum is never skipped).
struct OnChipFan<'a> {
    ctx: &'a SearchCtx<'a>,
}

impl SubtreeSearch for OnChipFan<'_> {
    type Prefix = Prefix;
    type State = PortOracle;
    type Outcome = SubtreeResult;

    fn explore(
        &self,
        oracle: &mut PortOracle,
        p: &Prefix,
        outer: f64,
        budget: u64,
    ) -> SubtreeResult {
        let ctx = self.ctx;
        if p.depth == ctx.order().len() {
            // The whole tree fit into the prefix expansion: the
            // prefix *is* a complete assignment.
            if p.bins.len() == ctx.k && p.acc < outer {
                return SubtreeResult {
                    val: p.acc,
                    bins: Some(p.bins.clone()),
                    nodes: 1,
                    updates: 0,
                };
            }
            return SubtreeResult {
                val: f64::INFINITY,
                bins: None,
                nodes: 1,
                updates: 0,
            };
        }
        let mut dfs = Dfs {
            ctx,
            best_scalar: outer,
            best: None,
            nodes: 0,
            node_limit: budget,
            to_open: ctx.k.saturating_sub(p.bins.len()),
            updates: 0,
        };
        let mut bins = p.bins.clone();
        let mut bin_scalars = p.bin_scalars.clone();
        dfs.recurse(oracle, p.depth, &mut bins, &mut bin_scalars, p.acc);
        SubtreeResult {
            val: if dfs.best.is_some() {
                dfs.best_scalar
            } else {
                f64::INFINITY
            },
            bins: dfs.best,
            nodes: dfs.nodes,
            updates: dfs.updates,
        }
    }

    fn clone_state(&self, oracle: &PortOracle) -> PortOracle {
        oracle.clone()
    }

    fn skipped(&self) -> SubtreeResult {
        SubtreeResult {
            val: f64::INFINITY,
            bins: None,
            nodes: 0,
            updates: 0,
        }
    }

    fn value(&self, r: &SubtreeResult) -> Option<f64> {
        r.bins.is_some().then_some(r.val)
    }

    fn nodes(&self, r: &SubtreeResult) -> u64 {
        r.nodes
    }

    fn merge_state(&self, main: &mut PortOracle, worker: PortOracle) {
        // Port requirements are pure functions of the slot table, so
        // worker-memoized entries are bit-identical to the serial
        // oracle's; merging only warms the memo.
        main.cache.extend(worker.cache);
    }
}

/// Branch-and-bound assignment of the sweep's groups into exactly `k`
/// on-chip memories, fanned out over `workers` threads. Returns `None`
/// when infeasible under the port limit, plus the branch-and-bound
/// nodes and incremental bound updates consumed. Deterministic: the
/// result is bit-identical for every worker count (see module docs);
/// the counters are deterministic for `workers <= 1`.
fn assign_on_chip(
    sweep: &OnChipSweep<'_>,
    oracle: &mut PortOracle,
    k: usize,
    workers: usize,
) -> (Option<Vec<MemoryInstance>>, u64, u64) {
    if sweep.order.is_empty() || k > sweep.order.len() {
        return (None, 0, 0);
    }
    let ctx = SearchCtx { sweep, k };
    let options = sweep.options;

    // Greedy incumbent: the first k groups open their own memories, the
    // rest join wherever the scalar cost grows least. Seeds the bound so
    // the node limit degrades to "greedy + partial improvement" instead
    // of "no answer".
    let greedy: Option<(f64, Vec<Vec<BasicGroupId>>)> = {
        let mut bins: Vec<Vec<BasicGroupId>> = Vec::new();
        let mut bin_scalars: Vec<f64> = Vec::new();
        let mut feasible = true;
        for (i, &g) in ctx.order().iter().enumerate() {
            if i < k {
                bins.push(vec![g]);
                match ctx.memory_scalar(oracle, &bins[i]) {
                    Some(s) => bin_scalars.push(s),
                    None => {
                        feasible = false;
                        break;
                    }
                }
                continue;
            }
            let mut choice: Option<(usize, f64, f64)> = None;
            for b in 0..bins.len() {
                bins[b].push(g);
                if let Some(s) = ctx.memory_scalar(oracle, &bins[b]) {
                    let delta = s - bin_scalars[b];
                    if choice.map(|(_, d, _)| delta < d).unwrap_or(true) {
                        choice = Some((b, delta, s));
                    }
                }
                bins[b].pop();
            }
            match choice {
                Some((b, _, s)) => {
                    bins[b].push(g);
                    bin_scalars[b] = s;
                }
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        (feasible && bins.len() == k).then(|| (bin_scalars.iter().sum(), bins))
    };
    let greedy_val = greedy.as_ref().map(|(v, _)| *v).unwrap_or(f64::INFINITY);

    // Split the canonical tree into deterministic subtrees.
    let prefixes = expand_prefixes(&ctx, oracle, greedy_val);

    // Root lower bound of each subtree, computed once (serially, so it
    // is deterministic).
    let lower_bound = |p: &Prefix| p.acc + ctx.node_bound(p.depth, p.bins.len());
    let bounds: Vec<f64> = prefixes.iter().map(lower_bound).collect();

    // Fan the subtrees through the generic harness ([`crate::fan`]):
    // seed phase, budget split, published incumbent, claim queue. Each
    // subtree's outcome is a pure function of (prefix, outer, budget),
    // so determinism only needs those chosen deterministically — which
    // the harness guarantees. The strict skip predicate is the
    // [`SubtreeSearch`] default.
    let collected = fan_subtrees(
        &OnChipFan { ctx: &ctx },
        &prefixes,
        &bounds,
        oracle,
        greedy_val,
        options.node_limit,
        workers,
    );

    // Deterministic reduction: greedy incumbent, then the subtrees in
    // canonical depth-first order (the seed in its slot — a non-seed
    // subtree strictly improves on the seed's value or returns nothing,
    // so no cross-subtree tie can reorder the outcome), each winning
    // only on strict improvement — the serial first-found-minimum
    // tie-break.
    let mut nodes = 0;
    let mut updates = 0;
    let mut best_val = greedy_val;
    let mut best_bins = greedy.map(|(_, b)| b);
    for r in &collected {
        nodes += r.nodes;
        updates += r.updates;
        if r.val < best_val {
            if let Some(b) = &r.bins {
                best_val = r.val;
                best_bins = Some(b.clone());
            }
        }
    }

    let Some(bins) = best_bins else {
        return (None, nodes, updates);
    };
    let mems = bins
        .iter()
        .map(|members| {
            let mask: u64 = members.iter().map(|g| 1u64 << g.index()).sum();
            let ports = oracle.required(mask);
            on_chip_memory(
                sweep.spec,
                sweep.traffic,
                sweep.lib,
                members,
                ports,
                sweep.time_s,
            )
        })
        .collect();
    (Some(mems), nodes, updates)
}

/// Root lower bounds of the on-chip search for `k` memories, as
/// `(solo, pairwise)` — test instrumentation for the admissibility and
/// dominance properties (the pairwise bound must sit between the solo
/// bound and the true optimal on-chip cost). Returns `Ok(None)` when the
/// spec has no on-chip candidate groups or `k` is out of range.
///
/// # Errors
///
/// Returns [`ExploreError::BadCostWeights`] for invalid weights and
/// [`ExploreError::NoFeasibleAssignment`] for group sets beyond the
/// mask limits, mirroring [`assign_with_stats`].
#[doc(hidden)]
pub fn root_lower_bounds(
    spec: &AppSpec,
    scbd: &ScbdResult,
    lib: &MemLibrary,
    options: &AllocOptions,
    k: u32,
) -> Result<Option<(f64, f64)>, ExploreError> {
    check_cost_weights(options.area_weight, options.power_weight)?;
    let traffic = group_traffic(spec);
    let time_s = spec.real_time_seconds();
    let mut oracle = PortOracle::new(spec, scbd);
    let (_, on_groups) = split_accessed_groups(spec, &traffic)?;
    if on_groups.is_empty() || k == 0 || k as usize > on_groups.len() {
        return Ok(None);
    }
    let mut order = on_groups;
    order.sort_by(|a, b| {
        traffic[b.index()]
            .total()
            .total_cmp(&traffic[a.index()].total())
            .then(a.cmp(b))
    });
    let build = |kind, oracle: &mut PortOracle| {
        SuffixBound::build(spec, &traffic, lib, options, time_s, &order, oracle, kind)
    };
    let solo = build(BoundKind::Solo, &mut oracle);
    let pairwise = build(BoundKind::Pairwise, &mut oracle);
    let k = k as usize;
    Ok(Some((solo.bound(0, 0, k), pairwise.bound(0, 0, k))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scbd;
    use memx_ir::{AccessKind, AppSpecBuilder};

    fn lib() -> MemLibrary {
        MemLibrary::default_07um()
    }

    /// The organization alone, for tests that ignore search effort.
    fn assign_org(
        spec: &AppSpec,
        s: &ScbdResult,
        lib: &MemLibrary,
        options: &AllocOptions,
    ) -> Result<Organization, ExploreError> {
        assign_with_stats(spec, s, lib, options).map(|(org, _)| org)
    }

    /// Spec with several on-chip groups of differing widths plus one
    /// off-chip frame store.
    fn mixed_spec(budget: u64) -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let frame = b
            .basic_group_placed("frame", 1 << 20, 8, Placement::OffChip)
            .unwrap();
        let narrow = b.basic_group("narrow", 512, 2).unwrap();
        let wide = b.basic_group("wide", 512, 20).unwrap();
        let mid = b.basic_group("mid", 256, 8).unwrap();
        let n = b.loop_nest("l", 100_000).unwrap();
        let a0 = b.access(n, frame, AccessKind::Read).unwrap();
        let a1 = b.access(n, narrow, AccessKind::Read).unwrap();
        let a2 = b.access(n, wide, AccessKind::Read).unwrap();
        let a3 = b.access(n, mid, AccessKind::Write).unwrap();
        b.depend(n, a0, a3).unwrap();
        b.depend(n, a1, a3).unwrap();
        b.depend(n, a2, a3).unwrap();
        b.cycle_budget(budget).real_time_seconds(0.1);
        b.build().unwrap()
    }

    /// Spec with four overlapping off-chip stores (so the off-chip
    /// partition enumeration has real work) plus two on-chip groups.
    fn off_heavy_spec() -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let frames: Vec<_> = (0..4)
            .map(|i| {
                b.basic_group_placed(
                    format!("frame{i}"),
                    (1 << 18) << i,
                    8 + 2 * i as u32,
                    Placement::OffChip,
                )
                .unwrap()
            })
            .collect();
        let small = b.basic_group("small", 512, 8).unwrap();
        let tiny = b.basic_group("tiny", 128, 4).unwrap();
        let n = b.loop_nest("l", 50_000).unwrap();
        let mut reads = Vec::new();
        for &f in &frames {
            reads.push(b.access(n, f, AccessKind::Read).unwrap());
        }
        let w0 = b.access(n, small, AccessKind::Write).unwrap();
        let w1 = b.access(n, tiny, AccessKind::Write).unwrap();
        for &r in &reads {
            b.depend(n, r, w0).unwrap();
        }
        b.depend(n, w0, w1).unwrap();
        // Tight enough that the frame reads overlap each other.
        b.cycle_budget(400_000).real_time_seconds(0.05);
        b.build().unwrap()
    }

    #[test]
    fn assignment_produces_positive_costs() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        let org = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
        assert!(org.cost.on_chip_area_mm2 > 0.0);
        assert!(org.cost.on_chip_power_mw > 0.0);
        assert!(org.cost.off_chip_power_mw > 0.0);
        assert_eq!(org.off_chip_count(), 1);
        assert!(org.on_chip_count() >= 1);
    }

    #[test]
    fn fixed_allocation_count_is_respected() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        for k in 1..=3 {
            let options = AllocOptions {
                on_chip_memories: Some(k),
                ..AllocOptions::default()
            };
            let org = assign_org(&spec, &s, &lib(), &options).unwrap();
            assert_eq!(org.on_chip_count(), k as usize, "k={k}");
        }
    }

    #[test]
    fn more_memories_less_on_chip_power() {
        // Table 4's monotone power column.
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        let power = |k: u32| {
            let options = AllocOptions {
                on_chip_memories: Some(k),
                ..AllocOptions::default()
            };
            assign_org(&spec, &s, &lib(), &options)
                .unwrap()
                .cost
                .on_chip_power_mw
        };
        assert!(power(3) <= power(1));
    }

    #[test]
    fn one_memory_wastes_bitwidth() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        let options = AllocOptions {
            on_chip_memories: Some(1),
            ..AllocOptions::default()
        };
        let org = assign_org(&spec, &s, &lib(), &options).unwrap();
        let on_chip = org
            .memories
            .iter()
            .find(|m| matches!(m.kind, MemoryKind::OnChip))
            .unwrap();
        // The single memory is as wide as the widest group.
        assert_eq!(on_chip.width, 20);
        assert_eq!(on_chip.words, 512 + 512 + 256);
    }

    #[test]
    fn tight_budget_forces_multiport_or_split() {
        // Two parallel reads funnel into one write under a 2-cycle
        // budget: the reads must overlap, so sharing one memory needs
        // two ports while two memories stay single-ported.
        let mut b = AppSpecBuilder::new("t");
        let narrow = b.basic_group("narrow", 512, 2).unwrap();
        let wide = b.basic_group("wide", 512, 20).unwrap();
        let n = b.loop_nest("l", 1000).unwrap();
        let a0 = b.access(n, narrow, AccessKind::Read).unwrap();
        let a1 = b.access(n, wide, AccessKind::Read).unwrap();
        let a2 = b.access(n, narrow, AccessKind::Write).unwrap();
        b.depend(n, a0, a2).unwrap();
        b.depend(n, a1, a2).unwrap();
        b.cycle_budget(2000).real_time_seconds(0.01);
        let spec = b.build().unwrap();
        let s = scbd::distribute(&spec).unwrap();
        let options = AllocOptions {
            on_chip_memories: Some(1),
            ..AllocOptions::default()
        };
        let org = assign_org(&spec, &s, &lib(), &options).unwrap();
        let on_chip = org
            .memories
            .iter()
            .find(|m| matches!(m.kind, MemoryKind::OnChip))
            .unwrap();
        assert!(on_chip.ports >= 2, "ports = {}", on_chip.ports);
        // Splitting into two memories avoids the multi-port penalty.
        let options2 = AllocOptions {
            on_chip_memories: Some(2),
            ..AllocOptions::default()
        };
        let org2 = assign_org(&spec, &s, &lib(), &options2).unwrap();
        let max_ports = org2
            .memories
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::OnChip))
            .map(|m| m.ports)
            .max()
            .unwrap();
        assert_eq!(max_ports, 1);
    }

    #[test]
    fn sweep_finds_a_no_worse_organization_than_any_fixed_k() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        let sweep = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
        let sweep_scalar = sweep.cost.scalar(1.0, 1.0);
        for k in 1..=3 {
            let options = AllocOptions {
                on_chip_memories: Some(k),
                ..AllocOptions::default()
            };
            let fixed = assign_org(&spec, &s, &lib(), &options).unwrap();
            assert!(sweep_scalar <= fixed.cost.scalar(1.0, 1.0) + 1e-9, "k={k}");
        }
    }

    #[test]
    fn min_ports_respected() {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_full("buf", 5 * 1024, 8, Placement::OnChip, 2)
            .unwrap();
        let n = b.loop_nest("l", 1000).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.cycle_budget(100_000).real_time_seconds(0.01);
        let spec = b.build().unwrap();
        let s = scbd::distribute(&spec).unwrap();
        let org = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
        assert_eq!(org.memories[0].ports, 2);
    }

    #[test]
    fn bell_numbers_match_the_oeis_prefix() {
        for (n, expect) in [
            (0u64, 1u64),
            (1, 1),
            (2, 2),
            (3, 5),
            (4, 15),
            (5, 52),
            (6, 203),
            (12, 4_213_597),
            (14, 190_899_322),
        ] {
            assert_eq!(bell_number(n as usize), expect, "Bell({n})");
        }
        // Saturates instead of overflowing for absurd group counts.
        assert_eq!(bell_number(64), u64::MAX);
    }

    #[test]
    fn off_chip_search_reports_partition_and_node_counters() {
        let spec = off_heavy_spec();
        let s = scbd::distribute(&spec).unwrap();
        let (_, stats) = assign_with_stats(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
        // 4 off-chip groups -> at most Bell(4) = 15 partitions reached
        // (fewer when bandwidth or the bound prunes some), at least 1.
        assert!(stats.off_chip_partitions >= 1);
        assert!(stats.off_chip_partitions <= 15, "{stats:?}");
        assert_eq!(stats.off_chip_exhaustive_partitions, 15, "{stats:?}");
        assert!(stats.off_chip_bb_nodes >= 1);
        assert!(
            stats.off_chip_bb_nodes <= stats.off_chip_exhaustive_partitions,
            "{stats:?}"
        );
    }

    #[test]
    fn off_chip_bb_matches_the_exhaustive_reference() {
        // The branch-and-bound must return the exhaustive scan's exact
        // canonical-first optimum — same blocks, same order, same bits.
        for spec in [off_heavy_spec(), mixed_spec(2_000_000)] {
            let s = scbd::distribute(&spec).unwrap();
            let (reference, ref_partitions) =
                off_chip_exhaustive_reference(&spec, &s, &lib()).unwrap();
            for workers in [1usize, 2, 8] {
                let (org, stats) = assign_with_stats(
                    &spec,
                    &s,
                    &lib(),
                    &AllocOptions {
                        workers,
                        ..AllocOptions::default()
                    },
                )
                .unwrap();
                let off: Vec<&MemoryInstance> = org
                    .memories
                    .iter()
                    .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
                    .collect();
                assert_eq!(off.len(), reference.len(), "workers={workers}");
                for (got, want) in off.iter().zip(&reference) {
                    assert_eq!(*got, want, "workers={workers}");
                }
                assert!(
                    stats.off_chip_partitions <= ref_partitions,
                    "workers={workers}: {stats:?} vs reference {ref_partitions}"
                );
            }
        }
    }

    #[test]
    fn zero_access_groups_are_foreground() {
        let mut b = AppSpecBuilder::new("t");
        let used = b.basic_group("used", 64, 8).unwrap();
        let _unused = b.basic_group("unused", 64, 8).unwrap();
        let n = b.loop_nest("l", 10).unwrap();
        b.access(n, used, AccessKind::Read).unwrap();
        b.cycle_budget(1000);
        let spec = b.build().unwrap();
        let s = scbd::distribute(&spec).unwrap();
        let org = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
        let assigned: usize = org.memories.iter().map(|m| m.groups.len()).sum();
        assert_eq!(assigned, 1);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        for on_chip_memories in [None, Some(1), Some(2), Some(3)] {
            let serial = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    on_chip_memories,
                    workers: 1,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            for workers in [2, 4, 7] {
                let parallel = assign_org(
                    &spec,
                    &s,
                    &lib(),
                    &AllocOptions {
                        on_chip_memories,
                        workers,
                        ..AllocOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(serial, parallel, "k={on_chip_memories:?} workers={workers}");
            }
        }
    }

    #[test]
    fn off_chip_and_sweep_parallel_match_serial_for_all_worker_counts() {
        // The issue's determinism matrix: off-chip enumeration and the
        // k-sweep must be bit-identical for workers in {1, 2, 8}.
        let spec = off_heavy_spec();
        let s = scbd::distribute(&spec).unwrap();
        for bound in [BoundKind::Solo, BoundKind::Pairwise] {
            let serial = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers: 1,
                    bound,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            assert!(serial.off_chip_count() >= 1);
            for workers in [2, 8] {
                let parallel = assign_org(
                    &spec,
                    &s,
                    &lib(),
                    &AllocOptions {
                        workers,
                        bound,
                        ..AllocOptions::default()
                    },
                )
                .unwrap();
                assert_eq!(serial, parallel, "bound={bound:?} workers={workers}");
            }
        }
    }

    #[test]
    fn node_limit_exhaustion_returns_deterministic_incumbent() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        // A node limit this small exhausts every subtree immediately:
        // the search must still return the greedy incumbent (never an
        // error) and do so identically across runs and worker counts.
        let run = |workers: usize| {
            assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    node_limit: 1,
                    workers,
                    ..AllocOptions::default()
                },
            )
            .expect("incumbent, not an error")
        };
        let serial_a = run(1);
        let serial_b = run(1);
        assert_eq!(serial_a, serial_b, "serial runs must be reproducible");
        for workers in [2, 4, 8] {
            assert_eq!(serial_a, run(workers), "workers={workers}");
        }
        // The exhausted search still yields a complete organization.
        assert!(serial_a.on_chip_count() >= 1);
    }

    #[test]
    fn sweep_exhaustion_is_deterministic_on_the_off_heavy_spec() {
        // Same exhaustion matrix, but on a spec that exercises both the
        // off-chip enumeration and a multi-size k-sweep.
        let spec = off_heavy_spec();
        let s = scbd::distribute(&spec).unwrap();
        let run = |workers: usize| {
            assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    node_limit: 1,
                    workers,
                    ..AllocOptions::default()
                },
            )
            .expect("incumbent, not an error")
        };
        let serial = run(1);
        for workers in [2, 8] {
            assert_eq!(serial, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn solo_and_pairwise_bounds_agree_on_exact_results() {
        // Both bounds are admissible, so with an unexhausted node budget
        // the search returns the same optimum either way.
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        for on_chip_memories in [None, Some(1), Some(2), Some(3)] {
            let solo = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    on_chip_memories,
                    bound: BoundKind::Solo,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            let pairwise = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    on_chip_memories,
                    bound: BoundKind::Pairwise,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            assert_eq!(solo, pairwise, "k={on_chip_memories:?}");
        }
    }

    /// Many on-chip groups with mixed widths and a tight enough budget
    /// to create real port conflicts — large enough that the
    /// branch-and-bound actually expands nodes.
    fn many_group_spec() -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let groups: Vec<_> = (0..8)
            .map(|i| {
                b.basic_group(format!("g{i}"), 128 << (i % 4), 2 + 3 * (i as u32 % 5))
                    .unwrap()
            })
            .collect();
        let n = b.loop_nest("l", 10_000).unwrap();
        let mut reads = Vec::new();
        for &g in &groups[..7] {
            reads.push(b.access(n, g, AccessKind::Read).unwrap());
        }
        let w = b.access(n, groups[7], AccessKind::Write).unwrap();
        for &r in &reads {
            b.depend(n, r, w).unwrap();
        }
        // Tight: the seven reads must overlap heavily.
        b.cycle_budget(30_000).real_time_seconds(0.01);
        b.build().unwrap()
    }

    #[test]
    fn pairwise_bound_visits_no_more_nodes_than_solo() {
        let spec = many_group_spec();
        let s = scbd::distribute(&spec).unwrap();
        let nodes = |bound| {
            let (_, stats) = assign_with_stats(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers: 1,
                    bound,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            stats.bb_nodes
        };
        let solo = nodes(BoundKind::Solo);
        let pairwise = nodes(BoundKind::Pairwise);
        assert!(pairwise <= solo, "pairwise {pairwise} > solo {solo}");
        assert!(solo > 0);
    }

    #[test]
    fn root_bounds_are_ordered_and_admissible_on_the_mixed_spec() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        let options = AllocOptions::default();
        for k in 1..=3u32 {
            let (solo, pairwise) = root_lower_bounds(&spec, &s, &lib(), &options, k)
                .unwrap()
                .expect("on-chip groups exist");
            assert!(solo <= pairwise + 1e-12, "k={k}");
            // Admissibility against the exact fixed-k optimum (the
            // sweep's on-chip memories only).
            let org = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    on_chip_memories: Some(k),
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            let on_chip: CostBreakdown = org
                .memories
                .iter()
                .filter(|m| matches!(m.kind, MemoryKind::OnChip))
                .map(|m| m.cost)
                .sum();
            let optimum = on_chip.scalar(options.area_weight, options.power_weight);
            assert!(
                pairwise <= optimum + 1e-9,
                "k={k}: pairwise bound {pairwise} exceeds optimum {optimum}"
            );
        }
    }

    #[test]
    fn accessed_groups_beyond_mask_limit_are_rejected_not_ub() {
        // 70 groups, only the last two accessed: their indices (68, 69)
        // cannot be bitmask positions in a u64. This must surface as a
        // clean error, not a shift overflow / aliased-mask organization.
        let mut b = AppSpecBuilder::new("t");
        for i in 0..68 {
            b.basic_group(format!("fg{i}"), 16, 8).unwrap();
        }
        let hi_a = b.basic_group("hi_a", 64, 8).unwrap();
        let hi_b = b.basic_group("hi_b", 64, 8).unwrap();
        let n = b.loop_nest("l", 100).unwrap();
        b.access(n, hi_a, AccessKind::Read).unwrap();
        b.access(n, hi_b, AccessKind::Read).unwrap();
        b.cycle_budget(10_000);
        let spec = b.build().unwrap();
        let s = scbd::distribute(&spec).unwrap();
        let err = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap_err();
        assert!(matches!(err, ExploreError::NoFeasibleAssignment { .. }));
        assert!(err.to_string().contains("mask limit"), "{err}");
    }

    #[test]
    fn nan_weights_are_rejected_not_panicking() {
        let spec = mixed_spec(2_000_000);
        let s = scbd::distribute(&spec).unwrap();
        for (aw, pw) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (-1.0, 1.0),
            (1.0, -0.5),
        ] {
            let err = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    area_weight: aw,
                    power_weight: pw,
                    ..AllocOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ExploreError::BadCostWeights { .. }),
                "weights ({aw}, {pw})"
            );
        }
    }

    #[test]
    fn serial_assignment_spawns_no_threads() {
        // The 1-worker path must be a genuinely straight serial path:
        // the spawn counter (thread-local, so parallel test runners do
        // not interfere) must not move.
        let spec = off_heavy_spec();
        let s = scbd::distribute(&spec).unwrap();
        let before = crate::engine::thread_spawns_on_current_thread();
        let org = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers: 1,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        assert!(org.on_chip_count() >= 1);
        assert_eq!(
            crate::engine::thread_spawns_on_current_thread(),
            before,
            "workers=1 assignment spawned a thread"
        );
        // Sanity check of the instrument itself: a parallel run spawns.
        // (The plateau spec guarantees a wide off-chip subtree fan; the
        // off-heavy spec above collapses to a single subtree now that
        // the bound prunes the off-chip tree.)
        let spec = plateau_off_chip_spec(10);
        let s = scbd::distribute(&spec).unwrap();
        let before = crate::engine::thread_spawns_on_current_thread();
        assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers: 4,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        assert!(crate::engine::thread_spawns_on_current_thread() > before);
    }

    /// `count` mutually-compatible off-chip groups (light, non-overlapping
    /// reads): the workload class the retired exhaustive enumeration
    /// rejected beyond 12 groups.
    fn many_off_chip_spec(count: usize) -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let groups: Vec<_> = (0..count)
            .map(|i| {
                b.basic_group_placed(format!("f{i}"), 2048, 8, Placement::OffChip)
                    .unwrap()
            })
            .collect();
        let n = b.loop_nest("l", 10).unwrap();
        for &g in &groups {
            b.access(n, g, AccessKind::Read).unwrap();
        }
        b.cycle_budget(100_000);
        b.build().unwrap()
    }

    #[test]
    fn thirteen_off_chip_groups_no_longer_rejected() {
        // The exact instance the retired exhaustive enumeration refused
        // with `TooManyOffChipGroups` (13 > the old 12-group cap): the
        // branch-and-bound proves its optimum within the default budget.
        let spec = many_off_chip_spec(13);
        let s = scbd::distribute(&spec).unwrap();
        let (org, stats) = assign_with_stats(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
        assert!(org.off_chip_count() >= 1);
        assert_eq!(
            org.memories.iter().map(|m| m.groups.len()).sum::<usize>(),
            13
        );
        assert_eq!(stats.off_chip_exhaustive_partitions, bell_number(13));
        assert!(
            stats.off_chip_bb_nodes < bell_number(13),
            "no pruning: {stats:?}"
        );
    }

    /// ≥14 off-chip frame stores whose reads all overlap pairwise twice
    /// (every group is read twice in parallel): singletons need two
    /// ports, any co-assignment needs four — so the only feasible
    /// partition keeps every frame in its own dual-bank memory.
    fn fourteen_conflicting_frames_spec() -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let groups: Vec<_> = (0..14)
            .map(|i| {
                b.basic_group_placed(format!("frame{i}"), 1 << 18, 8, Placement::OffChip)
                    .unwrap()
            })
            .collect();
        let sink = b.basic_group("sink", 64, 8).unwrap();
        let n = b.loop_nest("l", 1_000).unwrap();
        let w = b.access(n, sink, AccessKind::Write).unwrap();
        for &g in &groups {
            // Two independent reads per frame, both feeding the write:
            // under a tight budget they must overlap each other.
            let r0 = b.access(n, g, AccessKind::Read).unwrap();
            let r1 = b.access(n, g, AccessKind::Read).unwrap();
            b.depend(n, r0, w).unwrap();
            b.depend(n, r1, w).unwrap();
        }
        // Exactly the read->write critical path (4 + 1 cycles per
        // iteration): every read occupies cycles 0-3, so each frame's
        // two reads overlap themselves and every other frame's.
        b.cycle_budget(5_000).real_time_seconds(0.01);
        b.build().unwrap()
    }

    #[test]
    fn fourteen_off_chip_groups_reach_a_proven_optimum() {
        // The lifted-limit acceptance scenario: 14 off-chip groups
        // (Bell(14) ≈ 1.9 x 10^8 — hopeless for the retired exhaustive
        // scan even without the cap) allocate to a proven optimum, with
        // identical results for every worker count.
        let spec = fourteen_conflicting_frames_spec();
        let s = scbd::distribute(&spec).unwrap();
        let run = |workers: usize| {
            assign_with_stats(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers,
                    ..AllocOptions::default()
                },
            )
            .expect("proven optimum, not exhaustion")
        };
        let (serial, stats) = run(1);
        assert_eq!(serial.off_chip_count(), 14, "conflicts force singletons");
        for m in serial
            .memories
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
        {
            assert_eq!(m.groups.len(), 1);
            assert_eq!(m.ports, 2, "parallel self-reads need the dual bank");
        }
        assert!(
            stats.off_chip_bb_nodes < bell_number(14),
            "search must prune, not enumerate: {stats:?}"
        );
        for workers in [2usize, 8] {
            let (parallel, _) = run(workers);
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    /// Worst-case plateau: `count` off-chip groups of exactly one
    /// 4M-device each, so *every* partition prices identically (k merged
    /// groups need k devices of the same part either way) and the bound
    /// cannot cut the Bell-number tree down. The groups are bitwise
    /// symmetric (same size, width, traffic, no conflicts), which makes
    /// this the symmetric-group dominance rule's home turf: with it the
    /// surviving tree collapses to the 2^(count-1) nondecreasing-choice
    /// prefixes.
    fn plateau_off_chip_spec(count: usize) -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let groups: Vec<_> = (0..count)
            .map(|i| {
                b.basic_group_placed(format!("f{i}"), 4 << 20, 8, Placement::OffChip)
                    .unwrap()
            })
            .collect();
        let n = b.loop_nest("l", 10).unwrap();
        for &g in &groups {
            b.access(n, g, AccessKind::Read).unwrap();
        }
        b.cycle_budget(100_000);
        b.build().unwrap()
    }

    #[test]
    fn off_chip_exhaustion_is_a_deterministic_signal() {
        // A tie-heavy plateau with a starved node budget: the search
        // cannot prove an optimum and must say so — with the same error
        // for every worker count, never a silently unproven
        // organization. (16 groups: even the dominance-collapsed tree
        // has ~2^15 surviving prefixes, far beyond a 3-node budget.)
        let spec = plateau_off_chip_spec(16);
        let s = scbd::distribute(&spec).unwrap();
        let run = |workers: usize| {
            assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    node_limit: 3,
                    workers,
                    ..AllocOptions::default()
                },
            )
        };
        let serial = run(1);
        assert!(
            matches!(
                serial,
                Err(ExploreError::TooManyOffChipGroups {
                    count: 16,
                    node_limit: 3
                })
            ),
            "{serial:?}"
        );
        for workers in [2usize, 8] {
            assert_eq!(
                run(workers).unwrap_err(),
                serial.as_ref().unwrap_err().clone(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn dominance_preserves_the_exhaustive_optimum_on_a_plateau() {
        // The dominance rule prunes only symmetric *duplicates*: on a
        // plateau of 8 bitwise-identical groups the search must still
        // return the exhaustive scan's canonical-first optimum — same
        // blocks, same order, same bits — while actually cutting nodes.
        let spec = plateau_off_chip_spec(8);
        let s = scbd::distribute(&spec).unwrap();
        let (reference, ref_partitions) = off_chip_exhaustive_reference(&spec, &s, &lib()).unwrap();
        for workers in [1usize, 2, 8] {
            let (org, stats) = assign_with_stats(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            let off: Vec<&MemoryInstance> = org
                .memories
                .iter()
                .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
                .collect();
            assert_eq!(off.len(), reference.len(), "workers={workers}");
            for (got, want) in off.iter().zip(&reference) {
                assert_eq!(*got, want, "workers={workers}");
            }
            assert!(
                stats.off_chip_dominance_cuts > 0,
                "workers={workers}: symmetric plateau produced no cuts: {stats:?}"
            );
            assert!(
                stats.bound_incremental_updates > 0,
                "workers={workers}: {stats:?}"
            );
            assert!(
                stats.off_chip_partitions < ref_partitions,
                "workers={workers}: dominance left the full Bell tree: {stats:?}"
            );
        }
    }

    #[test]
    fn dominance_collapses_the_sixteen_group_tie_plateau() {
        // The ROADMAP acceptance fixture: 16 mutually compatible
        // symmetric groups. Without dominance every one of the ~10^10
        // partitions prices identically, so the bound prunes nothing and
        // any practical budget exhausts. With the rule (the default) the
        // surviving tree is 2^16 - 1 nodes and the *default* budget
        // proves the optimum, identically for every worker count.
        let spec = plateau_off_chip_spec(16);
        let s = scbd::distribute(&spec).unwrap();
        let run = |workers: usize| {
            assign_with_stats(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers,
                    ..AllocOptions::default()
                },
            )
            .expect("dominance must collapse the plateau within the default budget")
        };
        let (serial, stats) = run(1);
        assert_eq!(
            serial
                .memories
                .iter()
                .map(|m| m.groups.len())
                .sum::<usize>(),
            16
        );
        assert!(stats.off_chip_dominance_cuts > 0, "{stats:?}");
        assert!(
            stats.off_chip_bb_nodes < 200_000,
            "collapsed tree should be tiny: {stats:?}"
        );
        for workers in [2usize, 8] {
            let (parallel, _) = run(workers);
            assert_eq!(serial, parallel, "workers={workers}");
        }
        // Disabling the rule restores the plateau: the same instance
        // exhausts even a budget comfortably above the dominance run's
        // entire node count.
        let err = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                off_chip_dominance: false,
                node_limit: 200_000,
                ..AllocOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ExploreError::TooManyOffChipGroups { count: 16, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn incremental_sums_match_fresh_folds_across_budgets_and_workers() {
        // Differential property test for the incremental bound state:
        // `debug_assert!`s inside both solvers compare the maintained
        // running committed sum (off-chip) and the maintained open-count
        // (on-chip) against a from-scratch recomputation at *every
        // visited node* — this test's job is to drive those assertions
        // across the workers x node-limit matrix, accepting either a
        // proven result or the deterministic exhaustion signal, and to
        // pin bit-identical results across worker counts at every
        // budget.
        let specs = [
            off_heavy_spec(),
            plateau_off_chip_spec(6),
            many_group_spec(),
        ];
        for (si, spec) in specs.iter().enumerate() {
            let s = scbd::distribute(spec).unwrap();
            for node_limit in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 600] {
                let run = |workers: usize| {
                    assign_org(
                        spec,
                        &s,
                        &lib(),
                        &AllocOptions {
                            node_limit,
                            workers,
                            ..AllocOptions::default()
                        },
                    )
                };
                let serial = run(1);
                match &serial {
                    Ok(org) => assert!(org.on_chip_count() + org.off_chip_count() >= 1),
                    Err(ExploreError::TooManyOffChipGroups { .. }) => {}
                    Err(e) => panic!("spec {si} limit {node_limit}: unexpected error {e}"),
                }
                for workers in [2usize, 8] {
                    assert_eq!(
                        serial,
                        run(workers),
                        "spec {si} limit {node_limit} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn nonpositive_real_time_window_is_rejected_before_the_search() {
        // A zero or negative real-time window would turn every power
        // floor into NaN/∞ and silently defeat bound pruning; the search
        // must reject the instance up front with a typed error.
        for time_s in [0.0f64, -1.0] {
            let mut b = AppSpecBuilder::new("t");
            let g = b
                .basic_group_placed("f", 2048, 8, Placement::OffChip)
                .unwrap();
            let n = b.loop_nest("l", 10).unwrap();
            b.access(n, g, AccessKind::Read).unwrap();
            b.cycle_budget(100_000).real_time_seconds(time_s);
            let spec = b.build().unwrap();
            let s = scbd::distribute(&spec).unwrap();
            let err = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap_err();
            assert_eq!(err, ExploreError::BadOffChipPricing { time_s });
            assert!(err.to_string().contains("real-time window"), "{err}");
        }
    }

    #[test]
    fn worker_priced_masks_are_persisted_in_the_block_catalog() {
        // A parallel run prices many masks inside *worker* pricer
        // clones; `OffChipFan::merge_state` must fold those memos back
        // before `store_off_chip_blocks`, so a cold parallel run
        // persists the same full catalog as a cold serial run (and a
        // warm run re-seeds all of it). Dominance is disabled so the
        // plateau fans real pricing work into the worker subtrees.
        let spec = plateau_off_chip_spec(8);
        let s = scbd::distribute(&spec).unwrap();
        let options = |workers: usize| AllocOptions {
            workers,
            off_chip_dominance: false,
            ..AllocOptions::default()
        };
        let blocks_key = || {
            let traffic = group_traffic(&spec);
            let oracle = PortOracle::new(&spec, &s);
            let (groups, _) = split_accessed_groups(&spec, &traffic).unwrap();
            let instance = off_chip_blocks_fingerprint(
                &spec,
                &traffic,
                &oracle,
                &groups,
                spec.real_time_seconds(),
            );
            cache::CacheKey::off_chip_blocks(instance, &lib())
        };
        let tmp =
            std::env::temp_dir().join(format!("memx-worker-catalog-merge-{}", std::process::id()));
        let lib = lib();
        let cold_catalog = |label: &str, workers: usize| {
            let dir = tmp.join(label);
            let cache = EvalCache::open(&dir).unwrap();
            let ctx = EvalCtx {
                lib: &lib,
                cache: Some(&cache),
            };
            let (org, _) = assign_with_stats(&spec, &s, ctx, &options(workers)).unwrap();
            assert!(org.off_chip_count() >= 1);
            assert_eq!(cache.stats().blocks_misses, 1, "{label} run must be cold");
            cache
                .load_off_chip_blocks(&blocks_key())
                .expect("cold run stores the catalog")
        };
        let serial = cold_catalog("serial", 1);
        let parallel = cold_catalog("parallel", 8);
        assert!(serial.len() > 1, "plateau must price several masks");
        assert_eq!(
            serial, parallel,
            "worker-discovered masks must be merged back before the store"
        );
        // Warm re-run against the parallel store, under a different
        // (keyed) node budget so the *allocation* entry misses and the
        // solver actually runs: the catalog is served from disk and
        // nothing is re-stored.
        let cache = EvalCache::open(tmp.join("parallel")).unwrap();
        let warm = AllocOptions {
            node_limit: AllocOptions::default().node_limit + 1,
            ..options(8)
        };
        let ctx = EvalCtx {
            lib: &lib,
            cache: Some(&cache),
        };
        assign_with_stats(&spec, &s, ctx, &warm).unwrap();
        assert_eq!(cache.stats().blocks_hits, 1);
        assert_eq!(cache.stats().blocks_misses, 0);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn custom_model_bounds_follow_the_active_library() {
        // The pairwise floor must be derived from the *active*
        // `OnChipModel`: with cheaper cells the bound has to shrink
        // (reading the default constants would over-prune and lose the
        // optimum), with dearer cells it has to grow (prune as hard as
        // the built-in model).
        use memx_memlib::{OffChipCatalog, OnChipModel};
        let spec = many_group_spec();
        let s = scbd::distribute(&spec).unwrap();
        let options = AllocOptions::default();
        let scaled_lib = |f: f64| {
            let m = OnChipModel::default_07um();
            MemLibrary::new(
                m.clone()
                    .with_area_per_bit_mm2(m.area_per_bit_mm2() * f)
                    .with_module_overhead_mm2(m.module_overhead_mm2() * f),
                OffChipCatalog::default_edo(),
            )
        };
        let default_lib = lib();
        for k in 1..=3u32 {
            let (_, default_bound) = root_lower_bounds(&spec, &s, &default_lib, &options, k)
                .unwrap()
                .expect("on-chip groups exist");
            let (_, cheap) = root_lower_bounds(&spec, &s, &scaled_lib(0.25), &options, k)
                .unwrap()
                .expect("on-chip groups exist");
            let (_, dear) = root_lower_bounds(&spec, &s, &scaled_lib(4.0), &options, k)
                .unwrap()
                .expect("on-chip groups exist");
            assert!(cheap < default_bound, "k={k}: {cheap} !< {default_bound}");
            assert!(dear > default_bound, "k={k}: {dear} !> {default_bound}");
        }
        // Both bounds stay admissible on the cheap library: solo and
        // pairwise searches agree on the exact optimum.
        for on_chip_memories in [None, Some(2)] {
            let cheap = scaled_lib(0.25);
            let solo = assign_org(
                &spec,
                &s,
                &cheap,
                &AllocOptions {
                    on_chip_memories,
                    bound: BoundKind::Solo,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            let pairwise = assign_org(
                &spec,
                &s,
                &cheap,
                &AllocOptions {
                    on_chip_memories,
                    bound: BoundKind::Pairwise,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            assert_eq!(solo, pairwise, "k={on_chip_memories:?}");
        }
    }
}
