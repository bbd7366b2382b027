//! The on-chip solver: the allocation-size sweep, and for each size `k`
//! the shared partition search of the on-chip groups into exactly `k`
//! memories, which degrades to its greedy incumbent when the node
//! budget runs out. The sweep runs on the same seeded skip-fan of
//! [`crate::fan`] as the partition search's prefix subtrees; only its
//! per-size choices (full node budget, each size's own greedy
//! incumbent, the worker split) stay here.
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
//! Either bound is read from one dense `(n + 1)²` table indexed by the
//! suffix start and the count of memories still to open. Each entry
//! holds the same float expression a per-node evaluation would give —
//! `base[i] + per_block · to_open`, plus the forced joins' extras for
//! the pairwise bound — evaluated once per entry when the sweep is
//! built, so a node reads one `f64` and the bits do not change.
//!
//! # Bin price table
//!
//! Every node prices the bin it just grew, so each search worker's memo
//! ([`BinMemo`]) is a fixed-size, direct-mapped table from local bin
//! mask to price. It has 2^b slots of 16 bytes, `b` the on-chip group
//! count clamped to 4..=12, indexed by a fixed multiplicative hash; a
//! colliding entry replaces the old one. A hit costs a multiply, a
//! shift and a compare, and it returns the bits a fresh pricing would:
//! a bin's price is a pure function of its local mask, and [`bits`]
//! replays the members in push order, so every float fold runs in the
//! same order. Only the cost of a price call changes, never what it
//! returns, so results and node counts do not move.
//!
//! A miss prices from the sweep's per-item arrays (global group bit,
//! words, width, traffic) in one walk over the mask's members, and asks
//! the [`super::PortOracle`] for ports by popcounts over per-slot member
//! masks; the traffic fold still runs in push order.
//!
//! Local masks index the sweep's group order, so the sweep builds the
//! memo once and drops it at the end. Worker clones start from the warm
//! table and are dropped after a fan: one direct-mapped table merged
//! into another would only evict entries.

// fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes here bump it.
use memx_ir::{AppSpec, BasicGroupId};
use memx_memlib::{CostBreakdown, MemLibrary, OnChipSpec};

use super::search::{bits, PartitionSolver, RunningSum, Search};
use super::{
    check_cost_weights, AllocOptions, AllocStats, BoundKind, Instance, MemoryInstance, MemoryKind,
    Traffic,
};
use crate::fan::seeded_fan;
use crate::scbd::ScbdResult;
use crate::ExploreError;

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
fn group_floor(
    inst: &Instance<'_>,
    options: &AllocOptions,
    g: BasicGroupId,
    words: u64,
    width: u32,
    ports: u32,
    kind: BoundKind,
) -> f64 {
    let model = inst.lib.on_chip();
    let grp = inst.spec.group(g);
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
    let mw = energy * inst.traffic[g.index()].total() / inst.time_s / 1e9;
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
    /// `table[i * (n + 1) + to_open]` = the bound of the suffix
    /// `order[i..]` with `to_open` memories still to open, for every
    /// `i, to_open` in `0..=n`.
    table: Vec<f64>,
    n: usize,
}

impl SuffixBound {
    fn build(
        inst: &Instance<'_>,
        options: &AllocOptions,
        order: &[BasicGroupId],
        kind: BoundKind,
    ) -> SuffixBound {
        let (n, spec) = (order.len(), inst.spec);
        let floor = |g: BasicGroupId, words: u64, width: u32, ports: u32| {
            group_floor(inst, options, g, words, width, ports, kind)
        };
        // The solo floor (1-port private module; flat cells for
        // `BoundKind::Solo`, model-mirrored for `BoundKind::Pairwise`).
        let solo: Vec<f64> = order
            .iter()
            .map(|&g| floor(g, spec.group(g).words(), spec.group(g).bitwidth(), 1))
            .collect();
        let (per_group, join) = match kind {
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
                                let ports = inst
                                    .oracle
                                    .required((1u64 << g.index()) | (1u64 << h.index()));
                                (floor(g, words, width, ports) - tight[i]).max(0.0)
                            })
                            .min_by(f64::total_cmp)
                            .unwrap_or(0.0)
                    })
                    .collect();
                (tight, Some(join))
            }
        };
        let mut base = vec![0.0; n + 1];
        for i in (0..n).rev() {
            base[i] = base[i + 1] + per_group[i];
        }
        let per_block = match kind {
            BoundKind::Solo => 0.0,
            BoundKind::Pairwise => inst.lib.on_chip().module_overhead_mm2() * options.area_weight,
        };
        let mut table = Vec::with_capacity((n + 1) * (n + 1));
        let mut merge = Vec::with_capacity(n + 1);
        for i in 0..=n {
            // merge[m]: the m smallest join extras of the suffix.
            if let Some(join) = &join {
                let mut tail: Vec<f64> = join[i..].to_vec();
                tail.sort_by(f64::total_cmp);
                merge.clear();
                merge.push(0.0);
                let mut acc = 0.0;
                for v in tail {
                    acc += v;
                    merge.push(acc);
                }
            }
            for to_open in 0..=n {
                let base = base[i] + per_block * to_open as f64;
                table.push(if join.is_some() {
                    base + merge[(n - i).saturating_sub(to_open)]
                } else {
                    base
                });
            }
        }
        SuffixBound { table, n }
    }

    /// Lower bound on the cost the unassigned suffix `order[i..]` adds,
    /// with `open` non-empty memories so far and `k` memories in total.
    fn bound(&self, i: usize, open: usize, k: usize) -> f64 {
        self.bound_with(i, k.saturating_sub(open))
    }

    /// [`SuffixBound::bound`] from the still-to-open count `to_open`
    /// (at most `n`) instead of `(open, k)`: one read of the table,
    /// whose entry is the float expression evaluated once from the same
    /// inputs — only the *integer* count moves between nodes, so no
    /// float drift is possible.
    fn bound_with(&self, i: usize, to_open: usize) -> f64 {
        debug_assert!(to_open <= self.n, "more memories to open than groups");
        self.table[i * (self.n + 1) + to_open]
    }
}

/// Largest `log2` of a [`BinMemo`] table: 2^12 slots of 16 bytes, so
/// one worker's table never exceeds 64 KiB.
const MEMO_BITS_MAX: u32 = 12;
/// Smallest `log2` of a [`BinMemo`] table.
const MEMO_BITS_MIN: u32 = 4;
/// Key tag of an infeasible bin. Local masks use at most 60 bits, so the
/// tag never collides with a member bit.
const INFEASIBLE: u64 = 1 << 63;

/// One [`BinMemo`] slot: a local mask (tagged [`INFEASIBLE`] when the
/// bin is infeasible, 0 when the slot is empty) and its price's bits.
#[derive(Clone, Copy, Default)]
pub(super) struct Slot {
    key: u64,
    price: u64,
}

/// The on-chip search's per-worker memo: a fixed-size, direct-mapped
/// table from local bin mask to price.
///
/// The table is indexed by a fixed multiplicative hash (Knuth, *TAOCP*
/// vol. 3, §6.4); a colliding entry replaces the old one. Local masks
/// mean something only within one sweep's group order, so the sweep
/// builds the memo once and drops it at the end.
#[derive(Clone)]
pub(super) struct BinMemo {
    pub(super) slots: Box<[Slot]>,
    /// `64 − log2(slots.len())`.
    shift: u32,
}

impl BinMemo {
    /// An empty memo, sized from the on-chip group count.
    pub(super) fn new(groups: usize) -> BinMemo {
        let bits =
            u32::try_from(groups).map_or(MEMO_BITS_MAX, |g| g.clamp(MEMO_BITS_MIN, MEMO_BITS_MAX));
        BinMemo {
            slots: vec![Slot::default(); 1 << bits].into_boxed_slice(),
            shift: u64::BITS - bits,
        }
    }

    /// The table index of `mask`.
    pub(super) fn slot(&self, mask: u64) -> usize {
        (mask.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The memoized price of the non-empty local mask `mask`: `None` on
    /// a miss, `Some(price)` on a hit.
    pub(super) fn get(&self, mask: u64) -> Option<Option<f64>> {
        let slot = self.slots[self.slot(mask)];
        (slot.key & !INFEASIBLE == mask)
            .then(|| (slot.key & INFEASIBLE == 0).then(|| f64::from_bits(slot.price)))
    }

    /// Records `price` for the non-empty local mask `mask`.
    fn put(&mut self, mask: u64, price: Option<f64>) {
        debug_assert!(mask != 0 && mask & INFEASIBLE == 0, "not a local bin mask");
        let i = self.slot(mask);
        self.slots[i] = match price {
            Some(p) => Slot {
                key: mask,
                price: p.to_bits(),
            },
            None => Slot {
                key: mask | INFEASIBLE,
                price: 0,
            },
        };
    }
}

/// What pricing reads of one local item: its global group bit, words,
/// bitwidth and total traffic.
struct Item {
    global: u64,
    words: u64,
    width: u32,
    traffic: f64,
}

/// Everything the on-chip sweep shares across allocation sizes: the
/// hardest-first group order, its per-item pricing inputs and the suffix
/// bound table (all independent of `k`).
pub(super) struct OnChipSweep<'a> {
    inst: &'a Instance<'a>,
    options: &'a AllocOptions,
    pub(super) order: Vec<BasicGroupId>,
    items: Vec<Item>,
    bound: SuffixBound,
}

impl<'a> OnChipSweep<'a> {
    pub(super) fn build(inst: &'a Instance<'a>, options: &'a AllocOptions) -> Self {
        let order = hardest_first(&inst.on_groups, &inst.traffic);
        let bound = SuffixBound::build(inst, options, &order, options.bound);
        let items = order
            .iter()
            .map(|&g| Item {
                global: 1u64 << g.index(),
                words: inst.spec.group(g).words(),
                width: inst.spec.group(g).bitwidth(),
                traffic: inst.traffic[g.index()].total(),
            })
            .collect();
        OnChipSweep {
            inst,
            options,
            order,
            items,
            bound,
        }
    }

    /// Ports, words and width of one memory holding the groups of the
    /// local mask `mask`.
    fn dims(&self, mask: u64) -> (u32, u64, u32) {
        let (mut global, mut words, mut width) = (0u64, 0u64, 0u32);
        for i in bits(mask) {
            let item = &self.items[i];
            global |= item.global;
            words += item.words;
            width = width.max(item.width);
        }
        (self.inst.oracle.required(global), words, width)
    }

    /// Cost of one memory of those dimensions holding the groups of
    /// `mask`, their traffic folded in push order.
    fn memory_cost(&self, mask: u64, (ports, words, width): (u32, u64, u32)) -> CostBreakdown {
        let model = self.inst.lib.on_chip();
        let module = OnChipSpec::new(words, width, ports);
        let area = model.area_mm2(&module);
        let energy = model.energy_pj(&module);
        let accesses: f64 = bits(mask).map(|i| self.items[i].traffic).sum();
        let mw = energy * accesses / self.inst.time_s / 1e9;
        CostBreakdown::new(area, mw, 0.0)
    }

    /// [`PartitionSolver::price`] without the memo's table.
    pub(super) fn fresh_price(&self, mask: u64) -> Option<f64> {
        let dims = self.dims(mask);
        (dims.0 <= self.options.max_on_chip_ports).then(|| {
            let cost = self.memory_cost(mask, dims);
            cost.scalar(self.options.area_weight, self.options.power_weight)
        })
    }

    /// The ready-made instance of a winning bin.
    fn memory(&self, mask: u64) -> MemoryInstance {
        let dims = self.dims(mask);
        let (ports, words, width) = dims;
        MemoryInstance {
            groups: bits(mask).map(|i| self.order[i]).collect(),
            words,
            width,
            ports,
            kind: MemoryKind::OnChip,
            cost: self.memory_cost(mask, dims),
        }
    }
}

/// The on-chip running sum: bin scalars and their total, folded as
/// `acc − old + new` and restored from the saved bits on backtrack.
#[derive(Clone, Default)]
pub(super) struct ScalarSum {
    bins: Vec<u64>,
    scalars: Vec<f64>,
    acc: f64,
}

impl RunningSum for ScalarSum {
    /// Only opening a bin counts: it moves the still-to-open count the
    /// suffix bound is read with.
    const COUNT_EVERY_STEP: bool = false;
    /// The replaced bin's mask and scalar (`None` for an opened bin),
    /// and the previous total.
    type Undo = (Option<(u64, f64)>, f64);

    fn bins(&self) -> &[u64] {
        &self.bins
    }

    fn total(&self) -> f64 {
        self.acc
    }

    fn peek_total(&self, b: usize, scalar: f64) -> f64 {
        match self.scalars.get(b) {
            Some(&replaced) => self.acc - replaced + scalar,
            None => self.acc + scalar,
        }
    }

    fn set(&mut self, b: usize, mask: u64, scalar: f64) -> Self::Undo {
        let acc = self.acc;
        let old = self.bins.get(b).map(|&m| (m, self.scalars[b]));
        if let Some((_, replaced)) = old {
            (self.bins[b], self.scalars[b]) = (mask, scalar);
            self.acc = acc - replaced + scalar;
        } else {
            self.bins.push(mask);
            self.scalars.push(scalar);
            self.acc = acc + scalar;
        }
        (old, acc)
    }

    fn undo(&mut self, b: usize, (old, acc): Self::Undo) {
        if let Some(bin) = old {
            (self.bins[b], self.scalars[b]) = bin;
        } else {
            self.bins.pop();
            self.scalars.pop();
        }
        self.acc = acc;
    }
}

/// The on-chip solver's hooks into the shared search: per-worker state
/// is the [`BinMemo`], never merged back after a fan (see the module
/// docs); nodes are cut on `>=` (a leaf only wins on strict
/// improvement) and subtrees skipped on `>` (a subtree holding a
/// solution equal to the final minimum is never skipped).
impl PartitionSolver for OnChipSweep<'_> {
    type Memo = BinMemo;
    type Sum = ScalarSum;
    const STOP_AT_LIMIT: bool = false;

    /// Scalar cost of one memory, or `None` when its port requirement
    /// exceeds the module generator's limit, read from the memo's table
    /// when the mask is there and priced fresh (then recorded) when not.
    ///
    /// A hit is bit-identical to a fresh pricing: the scalar is a pure
    /// function of the local mask, and [`bits`] replays the members in
    /// push order, so every float fold runs in the same order.
    fn price(&self, memo: &mut BinMemo, mask: u64) -> Option<f64> {
        if let Some(price) = memo.get(mask) {
            return price;
        }
        let price = self.fresh_price(mask);
        memo.put(mask, price);
        price
    }

    fn suffix_bound(&self, depth: usize, to_open: usize) -> f64 {
        self.bound.bound_with(depth, to_open)
    }

    fn cut(&self, lb: f64, outer: f64, best: Option<f64>) -> bool {
        // A leaf found inside always lies below `outer`, so it replaces
        // it as the bound.
        lb >= best.unwrap_or(outer)
    }

    fn skip(&self, lb: f64, bound: f64) -> bool {
        lb > bound
    }
}

/// Hardest-first group order: most-accessed groups first, ties by id.
fn hardest_first(groups: &[BasicGroupId], traffic: &[Traffic]) -> Vec<BasicGroupId> {
    let mut order = groups.to_vec();
    order.sort_by(|a, b| {
        traffic[b.index()]
            .total()
            .total_cmp(&traffic[a.index()].total())
            .then(a.cmp(b))
    });
    order
}

/// Scalar cost of an on-chip memory set, exactly as the sweep reduction
/// compares candidates (sum of cost breakdowns, then scalarize).
fn on_chip_scalar(mems: &[MemoryInstance], options: &AllocOptions) -> f64 {
    let cost: CostBreakdown = mems.iter().map(|m| m.cost).sum();
    cost.scalar(options.area_weight, options.power_weight)
}

/// The `k = 1..n` allocation-size sweep, fanned over the worker pool by
/// the seeded skip-fan of [`crate::fan`].
///
/// The seed size (smallest root lower bound, earliest on ties) is
/// searched first with the full pool; the remaining sizes are claimed in
/// ascending `k`, each searched from its own greedy incumbent with the
/// full node budget and an equal share of the pool, and skipped when
/// their root bound strictly exceeds the published cost. The results
/// reduce in ascending-`k` order with strict improvement — bit-identical
/// for every worker count. The sweep's [`BinMemo`] lives only as long as
/// the sweep; worker clones of it are dropped.
pub(super) fn sweep_on_chip(
    inst: &Instance<'_>,
    counts: &[usize],
    options: &AllocOptions,
    workers: usize,
    stats: &mut AllocStats,
) -> Option<(f64, Vec<MemoryInstance>)> {
    let sweep = OnChipSweep::build(inst, options);
    let mut memo = BinMemo::new(sweep.order.len());
    // Worker budgeting across the two on-chip levels: the sweep claims
    // at most one worker per size and each size's subtree search gets an
    // equal share of the rest, so a batch never oversubscribes the pool
    // cores²-style. Results are independent of the split.
    let sweep_workers = workers.min(counts.len()).max(1);
    let inner_workers = (workers / sweep_workers).max(1);

    let bounds: Vec<f64> = counts.iter().map(|&k| sweep.bound.bound(0, 0, k)).collect();
    let claim_order: Vec<usize> = (0..counts.len()).collect();
    // A size whose root bound is strictly above a published result can
    // never win the strict ascending-k reduction: even node-limited, its
    // outcome is a feasible organization costing at least that bound.
    let (outcomes, _) = seeded_fan(
        &bounds,
        &claim_order,
        f64::INFINITY,
        &mut memo,
        sweep_workers,
        |lb, bound| lb > bound,
        |memo, i, seed: Option<&_>| {
            let workers = seed.map_or(workers, |_| inner_workers);
            let (mems, nodes, updates) = assign_on_chip(&sweep, memo, counts[i], workers);
            let best = mems.map(|m| (on_chip_scalar(&m, options), m));
            (best.as_ref().map(|b| b.0), (best, nodes, updates))
        },
    );

    // Canonical reduction in ascending-k input order, strict improvement
    // — the serial sweep's first-found-minimum tie-break.
    let mut best: Option<(f64, Vec<MemoryInstance>)> = None;
    for outcome in outcomes {
        let Some((found, nodes, updates)) = outcome else {
            stats.sweep_skips += 1;
            continue;
        };
        stats.bb_nodes += nodes;
        stats.bound_incremental_updates += updates;
        if let Some((scalar, m)) = found {
            if best.as_ref().map(|(s, _)| scalar < *s).unwrap_or(true) {
                best = Some((scalar, m));
            }
        }
    }
    best
}

/// Branch-and-bound assignment of the sweep's groups into exactly `k`
/// on-chip memories, fanned out over `workers` threads. Returns `None`
/// when infeasible under the port limit, plus the branch-and-bound
/// nodes and incremental bound updates consumed. Deterministic: the
/// result is bit-identical for every worker count (see module docs);
/// the counters are deterministic for `workers <= 1`.
fn assign_on_chip(
    sweep: &OnChipSweep<'_>,
    memo: &mut BinMemo,
    k: usize,
    workers: usize,
) -> (Option<Vec<MemoryInstance>>, u64, u64) {
    let n = sweep.order.len();
    if n == 0 || k > n {
        return (None, 0, 0);
    }

    // Greedy incumbent: seeds the bound so the node limit degrades to
    // "greedy + partial improvement" instead of "no answer".
    let greedy = greedy_bins(sweep, memo, n, k);
    let greedy_val = greedy.as_ref().map(|(v, _)| *v).unwrap_or(f64::INFINITY);

    // The shared search ([`super::search`]) with exactly `k` bins. The
    // reduction starts from the greedy incumbent; a subtree wins only on
    // strict improvement — the serial first-found-minimum tie-break.
    let search = Search {
        solver: sweep,
        n,
        min_bins: k,
        max_bins: k,
    };
    let found = search.run(memo, greedy_val, greedy, sweep.options.node_limit, workers);
    let mems = found
        .best
        .map(|(_, bins)| bins.iter().map(|&mask| sweep.memory(mask)).collect());
    (mems, found.nodes, found.updates)
}

/// The greedy partition of `n` items into exactly `k` bins, with its
/// cost: the first `k` items open their own bins, the rest join wherever
/// the price grows least. `None` when some item fits nowhere.
pub(super) fn greedy_bins<S: PartitionSolver>(
    solver: &S,
    memo: &mut S::Memo,
    n: usize,
    k: usize,
) -> Option<(f64, Vec<u64>)> {
    let mut bins: Vec<u64> = Vec::new();
    let mut bin_scalars: Vec<f64> = Vec::new();
    for i in 0..n {
        let bit = 1u64 << i;
        if i < k {
            bins.push(bit);
            bin_scalars.push(solver.price(memo, bit)?);
            continue;
        }
        let mut choice: Option<(usize, f64, f64)> = None;
        for b in 0..bins.len() {
            if let Some(s) = solver.price(memo, bins[b] | bit) {
                let delta = s - bin_scalars[b];
                if choice.map(|(_, d, _)| delta < d).unwrap_or(true) {
                    choice = Some((b, delta, s));
                }
            }
        }
        let (b, _, s) = choice?;
        bins[b] |= bit;
        bin_scalars[b] = s;
    }
    (bins.len() == k).then(|| (bin_scalars.iter().sum(), bins))
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
    let inst = Instance::new(spec, scbd, lib)?;
    if inst.on_groups.is_empty() || k == 0 || k as usize > inst.on_groups.len() {
        return Ok(None);
    }
    let order = hardest_first(&inst.on_groups, &inst.traffic);
    let build = |kind| SuffixBound::build(&inst, options, &order, kind);
    let (solo, pairwise) = (build(BoundKind::Solo), build(BoundKind::Pairwise));
    let k = k as usize;
    Ok(Some((solo.bound(0, 0, k), pairwise.bound(0, 0, k))))
}
