//! The on-chip solver: the allocation-size sweep, and for each size `k`
//! the shared partition search of the on-chip groups into exactly `k`
//! memories, which degrades to its greedy incumbent when the node
//! budget runs out.
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

// memx-lint: fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes here bump it.
use memx_ir::{AppSpec, BasicGroupId};
use memx_memlib::{CostBreakdown, MemLibrary, OnChipSpec};

use super::search::{bits, PartitionSolver, RunningSum, Search};
use super::{
    check_cost_weights, AllocOptions, AllocStats, BoundKind, Instance, MemoryInstance, MemoryKind,
    PortOracle, Traffic,
};
use crate::engine::parallel_map;
use crate::fan::Incumbent;
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
    fn build(
        inst: &Instance<'_>,
        options: &AllocOptions,
        order: &[BasicGroupId],
        oracle: &mut PortOracle,
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
            BoundKind::Pairwise => inst.lib.on_chip().module_overhead_mm2() * options.area_weight,
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

    /// [`SuffixBound::bound`] from the still-to-open count `to_open`
    /// instead of `(open, k)`. The float expression is evaluated fresh
    /// from the same table entries at every node — only the *integer*
    /// count moves between nodes, so no float drift is possible.
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
    inst: &'a Instance<'a>,
    options: &'a AllocOptions,
    order: Vec<BasicGroupId>,
    bound: SuffixBound,
}

impl<'a> OnChipSweep<'a> {
    fn build(inst: &'a Instance<'a>, options: &'a AllocOptions, oracle: &mut PortOracle) -> Self {
        let order = hardest_first(&inst.on_groups, &inst.traffic);
        let bound = SuffixBound::build(inst, options, &order, oracle, options.bound);
        OnChipSweep {
            inst,
            options,
            order,
            bound,
        }
    }

    /// Ports a memory holding the groups of the local mask `mask` needs.
    fn ports(&self, oracle: &mut PortOracle, mask: u64) -> u32 {
        oracle.required(bits(mask).map(|i| 1u64 << self.order[i].index()).sum())
    }

    /// Words, width and cost of one `ports`-port memory holding the
    /// groups of the local mask `mask`, folded in push order.
    fn memory_cost(&self, mask: u64, ports: u32) -> (u64, u32, CostBreakdown) {
        let (members, inst) = (bits(mask).map(|i| self.order[i]), self.inst);
        let words: u64 = members.clone().map(|g| inst.spec.group(g).words()).sum();
        let width = members
            .clone()
            .map(|g| inst.spec.group(g).bitwidth())
            .max()
            // memx-lint: allow(no-panic-paths) — bins are never empty (the canonical partition never opens an empty one).
            .expect("memory not empty");
        let module = OnChipSpec::new(words, width, ports);
        let area = inst.lib.on_chip().area_mm2(&module);
        let energy = inst.lib.on_chip().energy_pj(&module);
        let accesses: f64 = members.map(|g| inst.traffic[g.index()].total()).sum();
        let mw = energy * accesses / inst.time_s / 1e9;
        (words, width, CostBreakdown::new(area, mw, 0.0))
    }

    /// The ready-made instance of a winning bin.
    fn memory(&self, oracle: &mut PortOracle, mask: u64) -> MemoryInstance {
        let ports = self.ports(oracle, mask);
        let (words, width, cost) = self.memory_cost(mask, ports);
        MemoryInstance {
            groups: bits(mask).map(|i| self.order[i]).collect(),
            words,
            width,
            ports,
            kind: MemoryKind::OnChip,
            cost,
        }
    }
}

/// The on-chip running sum: bin scalars and their total, folded as
/// `acc − old + new` and restored from the saved bits on backtrack.
#[derive(Clone, Default)]
struct ScalarSum {
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
/// is the memoizing port oracle; nodes are cut on `>=` (a leaf only wins
/// on strict improvement) and subtrees skipped on `>` (a subtree holding
/// a solution equal to the final minimum is never skipped).
impl PartitionSolver for OnChipSweep<'_> {
    type Memo = PortOracle;
    type Sum = ScalarSum;
    const STOP_AT_LIMIT: bool = false;

    /// Scalar cost of one memory, or `None` when its port requirement
    /// exceeds the module generator's limit.
    fn price(&self, oracle: &mut PortOracle, mask: u64) -> Option<f64> {
        let ports = self.ports(oracle, mask);
        (ports <= self.options.max_on_chip_ports).then(|| {
            let (_, _, cost) = self.memory_cost(mask, ports);
            cost.scalar(self.options.area_weight, self.options.power_weight)
        })
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

    fn merge_memo(&self, main: &mut PortOracle, worker: PortOracle) {
        // Port requirements are pure functions of the slot table, so
        // worker-memoized entries are bit-identical to the serial
        // oracle's; merging only warms the memo.
        main.cache.extend(worker.cache);
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

/// The `k = 1..n` allocation-size sweep, fanned over the worker pool.
///
/// A deterministically-chosen *seed size* (smallest root lower bound,
/// earliest on ties) is searched first with the full pool; its cost is
/// published through an atomic and used only to skip whole sizes whose
/// root bound strictly exceeds it. The remaining sizes fan over
/// [`parallel_map`] with the pool split between the sweep and each
/// size's subtree search, and the results reduce in ascending-`k` order
/// with strict improvement — bit-identical for every worker count.
pub(super) fn sweep_on_chip(
    inst: &Instance<'_>,
    oracle: &mut PortOracle,
    counts: &[usize],
    options: &AllocOptions,
    workers: usize,
    stats: &mut AllocStats,
) -> Option<(f64, Vec<MemoryInstance>)> {
    if counts.is_empty() {
        return None;
    }
    let sweep = OnChipSweep::build(inst, options, oracle);
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
    let n = sweep.order.len();
    if n == 0 || k > n {
        return (None, 0, 0);
    }

    // Greedy incumbent: the first k groups open their own memories, the
    // rest join wherever the scalar cost grows least. Seeds the bound so
    // the node limit degrades to "greedy + partial improvement" instead
    // of "no answer".
    let greedy: Option<(f64, Vec<u64>)> = {
        let mut bins: Vec<u64> = Vec::new();
        let mut bin_scalars: Vec<f64> = Vec::new();
        let mut feasible = true;
        for i in 0..n {
            let bit = 1u64 << i;
            if i < k {
                bins.push(bit);
                match sweep.price(oracle, bit) {
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
                if let Some(s) = sweep.price(oracle, bins[b] | bit) {
                    let delta = s - bin_scalars[b];
                    if choice.map(|(_, d, _)| delta < d).unwrap_or(true) {
                        choice = Some((b, delta, s));
                    }
                }
            }
            match choice {
                Some((b, _, s)) => {
                    bins[b] |= bit;
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

    // The shared search ([`super::search`]) with exactly `k` bins. The
    // reduction starts from the greedy incumbent; a subtree wins only on
    // strict improvement — the serial first-found-minimum tie-break.
    let search = Search {
        solver: sweep,
        n,
        min_bins: k,
        max_bins: k,
    };
    let found = search.run(
        oracle,
        greedy_val,
        greedy,
        sweep.options.node_limit,
        workers,
    );
    let mems = found.best.map(|(_, bins)| {
        bins.iter()
            .map(|&mask| sweep.memory(oracle, mask))
            .collect()
    });
    (mems, found.nodes, found.updates)
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
    let mut oracle = PortOracle::new(spec, scbd);
    let inst = Instance::new(spec, lib)?;
    if inst.on_groups.is_empty() || k == 0 || k as usize > inst.on_groups.len() {
        return Ok(None);
    }
    let order = hardest_first(&inst.on_groups, &inst.traffic);
    let build =
        |kind, oracle: &mut PortOracle| SuffixBound::build(&inst, options, &order, oracle, kind);
    let solo = build(BoundKind::Solo, &mut oracle);
    let pairwise = build(BoundKind::Pairwise, &mut oracle);
    let k = k as usize;
    Ok(Some((solo.bound(0, 0, k), pairwise.bound(0, 0, k))))
}
