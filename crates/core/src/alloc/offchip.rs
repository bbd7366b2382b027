//! The off-chip solver: the cheapest off-chip memory set, by the shared
//! partition search over the off-chip groups. The retired exhaustive
//! scan's 12-group cap (Bell(12) ≈ 4.2 M partitions) is gone; the only
//! ceiling left is the 64-accessed-group u64-mask limit.
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
//! # Off-chip node budget
//!
//! The off-chip search shares [`AllocOptions::node_limit`]. Unlike the
//! on-chip levels (which degrade to their greedy incumbent), an
//! exhausted off-chip search returns
//! [`ExploreError::TooManyOffChipGroups`] — a *deterministic* signal
//! (identical for every worker count: a truncated subtree only raises
//! it when its lower bound does not already prove it irrelevant) that
//! the instance needs a bigger budget, not a silently unproven answer.

// fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes here bump it.
// fingerprinted(OFF_CHIP_BLOCKS_ALGO_REVISION) — changes to how a subset is priced bump it.
use std::collections::BTreeMap;

use memx_ir::{AppSpec, BasicGroupId};
use memx_memlib::{CostBreakdown, MemLibrary};

use super::key::off_chip_blocks_fingerprint;
use super::search::{bits, PartitionSolver, RunningSum, Search};
use super::{bell_number, AllocOptions, AllocStats, Instance, MemoryInstance, MemoryKind, Traffic};
use crate::cache::{self, EvalCache};
use crate::fan::above_with_slack;
use crate::scbd::ScbdResult;
use crate::ExploreError;

/// The off-chip search's per-worker memo: every block price computed so
/// far, by local subset mask (`None` for an infeasible block). It is
/// complete, so it doubles as the persisted block catalog.
pub(super) type BlockPrices = BTreeMap<u64, Option<f64>>;

/// Shared read-only context of one off-chip partition search.
pub(super) struct OffChipCtx<'a> {
    inst: &'a Instance<'a>,
    /// `floor_suffix[i]` = Σ over `inst.off_groups[i..]` of the per-group
    /// dynamic-power floor (see [`off_chip_group_floor`]).
    floor_suffix: Vec<f64>,
    /// `sym_prev[i]` — group `i` is symmetric to its predecessor
    /// `i-1` (see [`off_chip_symmetry`]), enabling the dominance rule
    /// at depth `i`. All-false when dominance is disabled.
    sym_prev: Vec<bool>,
}

impl<'a> OffChipCtx<'a> {
    /// The search context over `inst`'s off-chip groups, with the
    /// dominance rule on when `dominance` holds. The part catalog must
    /// not be empty.
    pub(super) fn new(inst: &'a Instance<'a>, dominance: bool) -> Self {
        let groups = &inst.off_groups;
        let mut floor_suffix = vec![0.0; groups.len() + 1];
        for i in (0..groups.len()).rev() {
            floor_suffix[i] = floor_suffix[i + 1] + off_chip_group_floor(inst, groups[i]);
        }
        OffChipCtx {
            inst,
            floor_suffix,
            sym_prev: off_chip_symmetry(inst, dominance),
        }
    }

    /// Global group-index mask of a local subset mask.
    fn global_mask(&self, mask: u64) -> u64 {
        bits(mask)
            .map(|i| 1u64 << self.inst.off_groups[i].index())
            .sum()
    }

    /// Block dimensions and energy-weighted access rate of a subset, in
    /// canonical member order (the float accumulation matches the
    /// retired exhaustive scan exactly).
    fn block_dims(&self, mask: u64) -> (u64, u32, f64) {
        let mut words = 0u64;
        let mut width = 0u32;
        let mut t = Traffic::default();
        for i in bits(mask) {
            let g = self.inst.off_groups[i];
            words += self.inst.spec.group(g).words();
            width = width.max(self.inst.spec.group(g).bitwidth());
            t = Traffic {
                random: t.random + self.inst.traffic[g.index()].random,
                burst: t.burst + self.inst.traffic[g.index()].burst,
            };
        }
        (words, width, t.energy_accesses() / self.inst.time_s)
    }

    /// Builds the ready-made instance of a feasible winning block.
    fn build_memory(&self, mask: u64) -> MemoryInstance {
        let members: Vec<BasicGroupId> = bits(mask).map(|i| self.inst.off_groups[i]).collect();
        let ports = self.inst.oracle.required(self.global_mask(mask));
        let (words, width, rate_energy) = self.block_dims(mask);
        #[expect(
            clippy::expect_used,
            reason = "only blocks already priced `Some` reach here, so selection cannot fail"
        )]
        let sel = self
            .inst
            .lib
            .off_chip()
            .select(words, width, ports, rate_energy)
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

    /// Fresh block-order power sum of a committed partial partition —
    /// the exact float accumulation the exhaustive scan performed per
    /// complete partition, so tie-breaks stay bit-identical.
    fn committed(&self, prices: &mut BlockPrices, blocks: &[u64]) -> f64 {
        let mut sum = 0.0;
        for &m in blocks {
            #[expect(
                clippy::expect_used,
                reason = "every committed block was price-gated `Some` before being committed"
            )]
            let price = self
                .price(prices, m)
                .expect("committed blocks are feasible");
            sum += price;
        }
        sum
    }

    /// Deterministic greedy off-chip partition, seeding the search
    /// bound: each group joins the feasible block whose power delta is
    /// smallest (earliest block on ties), or opens its own block when
    /// that is strictly cheaper. Returns `None` when some singleton is
    /// infeasible — port requirements are monotone, so no partition is
    /// feasible at all in that case.
    pub(super) fn greedy(&self, prices: &mut BlockPrices) -> Option<f64> {
        let mut blocks: Vec<u64> = Vec::new();
        for i in 0..self.inst.off_groups.len() {
            let bit = 1u64 << i;
            let open_delta = self.price(prices, bit)?;
            let mut choice: Option<(usize, f64)> = None;
            for (b, &mask) in blocks.iter().enumerate() {
                if let Some(grown) = self.price(prices, mask | bit) {
                    let current = self.price(prices, mask);
                    #[expect(
                        clippy::expect_used,
                        reason = "blocks enter the greedy partition only after pricing `Some`"
                    )]
                    let delta = grown - current.expect("existing blocks are feasible");
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
        Some(self.committed(prices, &blocks))
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
fn off_chip_symmetry(inst: &Instance<'_>, enabled: bool) -> Vec<bool> {
    let (groups, traffic) = (&inst.off_groups, &inst.traffic);
    let n = groups.len();
    if !enabled || n == 0 {
        return vec![false; n];
    }
    let in_conflict_slot = |g: BasicGroupId| {
        inst.oracle
            .slots
            .iter()
            .any(|slot| slot.iter().any(|&(idx, _)| idx == g.index()))
    };
    let key = |g: BasicGroupId| {
        let info = inst.spec.group(g);
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

/// Admissible per-group power floor of the off-chip suffix bound: the
/// group's energy-weighted access rate priced at the cheapest per-access
/// energy any catalog configuration covering the group's width can
/// offer. Every block holding the group — joined or newly opened,
/// single- or dual-ported — pays at least this much *for this group's
/// accesses*, because a block at least `width` bits wide gangs at least
/// `ceil(width / part_width)` devices of whatever part it selects, and
/// the dual-bank energy factor only adds. Static power is deliberately
/// excluded (a join may reuse a committed block's rank slack).
fn off_chip_group_floor(inst: &Instance<'_>, g: BasicGroupId) -> f64 {
    let width = inst.spec.group(g).bitwidth();
    #[expect(
        clippy::expect_used,
        reason = "`assign_off_chip` rejects an empty part catalog before any floor is computed"
    )]
    let floor_e = inst
        .lib
        .off_chip()
        .parts()
        .iter()
        .map(|p| p.energy_pj() * f64::from(width.div_ceil(p.width())))
        .min_by(f64::total_cmp)
        .expect("catalog checked non-empty");
    floor_e * (inst.traffic[g.index()].energy_accesses() / inst.time_s) / 1e9
}

/// The incrementally-maintained committed-block sum of a partial
/// partition, with the float fold order pinned to block index.
///
/// `prefix[j]` is the left-to-right sum `0.0 + prices[0] + … +
/// prices[j]` — exactly the accumulation [`OffChipCtx::committed`]
/// performs — so [`BlockSum::total`] is bit-identical to a fresh
/// block-order summation at every node, and a delta touching block `b`
/// only refolds `prefix[b..]`. Restoring a block's previous price and
/// refolding reproduces the previous bits exactly (the fold consumes
/// identical values in identical order), so backtracking is lossless.
#[derive(Clone, Default)]
pub(super) struct BlockSum {
    blocks: Vec<u64>,
    prices: Vec<f64>,
    prefix: Vec<f64>,
}

impl BlockSum {
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
}

impl RunningSum for BlockSum {
    const COUNT_EVERY_STEP: bool = true;
    /// The replaced block's mask and price; `None` for an opened block.
    type Undo = Option<(u64, f64)>;

    fn bins(&self) -> &[u64] {
        &self.blocks
    }

    /// The committed sum: bitwise what `ctx.committed(prices, &self.blocks)`
    /// would return.
    fn total(&self) -> f64 {
        let total = self.prefix.last().copied().unwrap_or(0.0);
        debug_assert_eq!(
            total.to_bits(),
            self.prices.iter().fold(0.0, |acc, p| acc + p).to_bits(),
            "running committed sum drifted from the fresh block-order fold"
        );
        total
    }

    /// The fold [`BlockSum::refold`] would run from `b` with block `b`
    /// priced `price`.
    fn peek_total(&self, b: usize, price: f64) -> f64 {
        let mut acc = if b == 0 { 0.0 } else { self.prefix[b - 1] };
        acc += price;
        for &p in self.prices.iter().skip(b + 1) {
            acc += p;
        }
        acc
    }

    /// Replaces block `b` (grow) or opens it at the end, refolding the
    /// tail.
    fn set(&mut self, b: usize, mask: u64, price: f64) -> Self::Undo {
        let old = self.blocks.get(b).map(|&m| (m, self.prices[b]));
        if old.is_some() {
            (self.blocks[b], self.prices[b]) = (mask, price);
        } else {
            self.blocks.push(mask);
            self.prices.push(price);
        }
        self.refold(b);
        old
    }

    /// Restores block `b` (or closes it again), refolding the tail back
    /// to the previous bits.
    fn undo(&mut self, b: usize, old: Self::Undo) {
        if let Some(block) = old {
            (self.blocks[b], self.prices[b]) = block;
        } else {
            self.blocks.pop();
            self.prices.pop();
        }
        self.refold(b);
    }
}

/// The off-chip solver's hooks into the shared search: per-worker state
/// is the [`BlockPrices`] memo, and every comparison against a real
/// candidate is ulp-guarded, because the suffix floor can be exactly
/// tight in real arithmetic.
impl PartitionSolver for OffChipCtx<'_> {
    type Memo = BlockPrices;
    type Sum = BlockSum;
    const STOP_AT_LIMIT: bool = true;

    /// Power (mW) of the cheapest off-chip configuration holding exactly
    /// the groups in `mask`, or `None` when the subset's overlap needs
    /// more than the two ports DRAM systems offer. Infallible otherwise:
    /// the catalog is checked non-empty up front and ports are pre-gated,
    /// the only ways selection can fail.
    fn price(&self, prices: &mut BlockPrices, mask: u64) -> Option<f64> {
        if let Some(&p) = prices.get(&mask) {
            return p;
        }
        let ports = self.inst.oracle.required(self.global_mask(mask));
        let mw = (ports <= 2).then(|| {
            let (words, width, rate_energy) = self.block_dims(mask);
            #[expect(
                clippy::expect_used,
                reason = "the catalog is checked non-empty up front and ports are pre-gated to <= 2, the only selection failure modes"
            )]
            let sel = self
                .inst
                .lib
                .off_chip()
                .select(words, width, ports, rate_energy)
                .expect("catalog non-empty and ports pre-gated");
            sel.static_mw() + sel.energy_pj_per_access() * rate_energy / 1e9
        });
        prices.insert(mask, mw);
        mw
    }

    fn suffix_bound(&self, depth: usize, _to_open: usize) -> f64 {
        self.floor_suffix[depth]
    }

    fn cut(&self, lb: f64, outer: f64, best: Option<f64>) -> bool {
        // Ulp-guarded against the outer bound (a tie may hide the
        // canonical-first optimum), exact non-strict against a leaf
        // already found inside (an equal deeper leaf loses the
        // first-found tie-break anyway).
        above_with_slack(lb, outer) || lb >= best.unwrap_or(f64::INFINITY)
    }

    fn skip(&self, lb: f64, bound: f64) -> bool {
        above_with_slack(lb, bound)
    }

    fn dominance_start(&self, depth: usize, prev_choice: usize) -> usize {
        // A twin of the previous group only joins blocks at or after the
        // previous twin's choice (the module docs prove the
        // canonical-first optimum survives this).
        if self.sym_prev[depth] {
            prev_choice
        } else {
            0
        }
    }

    fn merge_memo(&self, main: &mut BlockPrices, worker: BlockPrices) {
        // Prices are pure functions of the instance, so worker-discovered
        // entries are bit-identical to what the serial search would
        // compute — merging them back only completes the memo (and hence
        // the persisted block catalog).
        main.extend(worker);
    }
}

/// Builds the cheapest off-chip memory set by branch-and-bound over set
/// partitions of the off-chip groups (see module docs): canonical
/// restricted-growth order, exact committed-block prices plus the
/// admissible per-group floor, deterministic prefix subtrees fanned over
/// the workers with an atomic incumbent used only to skip whole
/// subtrees. Bit-identical to the retired exhaustive scan for every
/// worker count.
pub(super) fn assign_off_chip(
    inst: &Instance<'_>,
    options: &AllocOptions,
    workers: usize,
    stats: &mut AllocStats,
    cache: Option<&EvalCache>,
) -> Result<Vec<MemoryInstance>, ExploreError> {
    let (groups, lib, time_s) = (&inst.off_groups, inst.lib, inst.time_s);
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
            let t = inst.traffic[g.index()];
            !t.random.is_finite() || !t.burst.is_finite()
        })
    {
        return Err(ExploreError::BadOffChipPricing { time_s });
    }
    let n = groups.len();
    stats.off_chip_exhaustive_partitions = stats
        .off_chip_exhaustive_partitions
        .saturating_add(bell_number(n));
    let ctx = OffChipCtx::new(inst, options.off_chip_dominance);
    let mut prices = BlockPrices::new();

    // Pre-seed the price memo from a cached catalog when one exists.
    // Prices are pure functions of (groups, slots, library), so a seeded
    // memo changes nothing about the search — the same values would be
    // recomputed lazily — and worker memos clone the serial memo *after*
    // seeding, so every subtree benefits. Any subset superset
    // of what this run will query is fine; extra masks are ignored.
    let blocks_key =
        cache.map(|_| cache::CacheKey::off_chip_blocks(off_chip_blocks_fingerprint(inst), lib));
    let mut blocks_from_cache = false;
    if let (Some(cache), Some(key)) = (cache, blocks_key.as_ref()) {
        if let Some(entries) = cache.load_off_chip_blocks(key) {
            cache.note_blocks_hit();
            blocks_from_cache = true;
            prices.extend(entries);
        }
    }

    // Greedy incumbent: only ever a pruning bound, never a result — the
    // reduction starts empty, so the canonical-first optimum the
    // exhaustive scan returned is reproduced bit for bit.
    let Some(greedy_mw) = ctx.greedy(&mut prices) else {
        return Err(ExploreError::NoFeasibleAssignment {
            reason: "off-chip groups overlap beyond dual-port bandwidth".to_owned(),
        });
    };

    // The shared search ([`super::search`]): deterministic prefix
    // subtrees fanned against the greedy bound, reduced in canonical
    // order with strict improvement — the exhaustive scan's
    // first-found-minimum tie-break.
    let search = Search {
        solver: &ctx,
        n,
        min_bins: 0,
        max_bins: n,
    };
    let found = search.run(&mut prices, greedy_mw, None, options.node_limit, workers);
    stats.off_chip_bb_nodes += found.nodes;
    stats.off_chip_partitions += found.partitions;
    stats.off_chip_pruned_subtrees += found.pruned;
    stats.off_chip_dominance_cuts += found.dominance_cuts;
    stats.bound_incremental_updates += found.updates;
    // Exhaustion is raised only when a truncated subtree could actually
    // hide a better (or canonically-earlier equal) partition.
    if found.exhausted {
        return Err(ExploreError::TooManyOffChipGroups {
            count: n,
            node_limit: options.node_limit,
        });
    }
    let Some((_, blocks)) = found.best else {
        return Err(ExploreError::NoFeasibleAssignment {
            reason: "off-chip groups overlap beyond dual-port bandwidth".to_owned(),
        });
    };
    // Persist the price memo for the next process — including the
    // masks worker memo clones discovered inside their subtrees,
    // which the search's memo merge folded back after the fan (so
    // a warm run re-seeds the *full* catalog, not just the serial
    // pre-seed). Only on a miss: on a hit the entry already exists.
    if let (Some(cache), Some(key)) = (cache, blocks_key.as_ref()) {
        if !blocks_from_cache {
            // A `BTreeMap` yields its masks ascending, the stored order.
            let entries: Vec<(u64, Option<f64>)> = prices.into_iter().collect();
            cache.note_blocks_miss();
            cache.store_off_chip_blocks(key, &entries);
        }
    }
    Ok(blocks.iter().map(|&mask| ctx.build_memory(mask)).collect())
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
    let inst = Instance::new(spec, scbd, lib)?;
    let groups = &inst.off_groups;
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
        inst: &inst,
        floor_suffix: vec![0.0; groups.len() + 1],
        // The ground truth stays dominance-free: every partition is
        // scanned, so the dominance property tests compare against the
        // genuinely unpruned canonical-first optimum.
        sym_prev: vec![false; groups.len()],
    };
    struct Scan<'a, 'b> {
        ctx: &'a OffChipCtx<'b>,
        prices: BlockPrices,
        n: usize,
        best: Option<(f64, Vec<u64>)>,
        partitions: u64,
    }
    impl Scan<'_, '_> {
        fn recurse(&mut self, i: usize, blocks: &mut Vec<u64>) {
            if i == self.n {
                self.partitions += 1;
                let power = self.ctx.committed(&mut self.prices, blocks);
                if self.best.as_ref().map(|(p, _)| power < *p).unwrap_or(true) {
                    self.best = Some((power, blocks.clone()));
                }
                return;
            }
            let bit = 1u64 << i;
            for b in 0..blocks.len() {
                let grown = blocks[b] | bit;
                if self.ctx.price(&mut self.prices, grown).is_some() {
                    let old = blocks[b];
                    blocks[b] = grown;
                    self.recurse(i + 1, blocks);
                    blocks[b] = old;
                }
            }
            if self.ctx.price(&mut self.prices, bit).is_some() {
                blocks.push(bit);
                self.recurse(i + 1, blocks);
                blocks.pop();
            }
        }
    }
    let mut scan = Scan {
        ctx: &ctx,
        prices: BlockPrices::new(),
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
    let mems = blocks.iter().map(|&mask| ctx.build_memory(mask)).collect();
    Ok((mems, partitions))
}
