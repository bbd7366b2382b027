//! The one canonical-partition branch-and-bound both allocation solvers
//! run: item `i` of `n` joins one of the bins opened so far or opens the
//! next one (restricted-growth order), so every set partition is visited
//! once. Bins are **local `u64` masks** over the solver's item order;
//! members are added in ascending local index, so iterating a mask's set
//! bits replays the push order and every float fold over a bin keeps it.
//! The tree is split into [`TARGET_SUBTREES`] prefix subtrees, fanned
//! over the workers by the seeded skip-fan of [`crate::fan`], and the
//! outcomes reduce in canonical order with strict improvement — the
//! serial first-found-minimum tie-break.
//!
//! # Prefixes as choice strings
//!
//! A prefix is stored as its restricted-growth choice string — the bin
//! each of its items joined, one byte per item, back to back in one
//! arena per expansion level ([`Prefixes`]) — plus its root lower bound.
//! No per-prefix running sum is materialized: a child is priced and
//! bounded through [`RunningSum::peek_total`], which evaluates the float
//! expression [`RunningSum::set`] would commit, and is dropped when
//! pruned before anything is copied. A subtree's root sum is rebuilt by
//! replaying its choices through [`RunningSum::set`] ([`Search::seek`]):
//! prices are pure functions of the local mask, and the replay applies
//! the same `set` calls, with the same prices, in the same order as the
//! expansion that kept the prefix, so the rebuilt sum carries the same
//! bins and the same total bits. Moving a cursor between prefixes undoes
//! back to their common prefix first, and an undo restores the previous
//! bits exactly (1. below), so a walked cursor ends on the same bits as
//! a fresh replay. The depth-first search enters each child the same
//! way: budget, bin-count and cut checks run on the peeked total, and
//! only a child that is entered is set and later undone.
//!
//! A solver supplies only what differs ([`PartitionSolver`]); the
//! bin-count range is data ([`Search::min_bins`], [`Search::max_bins`]).
//! Three per-solver behaviours stay apart, because results and published
//! node counts depend on them:
//!
//! 1. **Running-sum folds** ([`RunningSum`]): on chip `acc − old + new`,
//!    carried by value; off chip refolded in block order (`BlockSum`).
//!    Backtracking restores the old bits exactly either way.
//! 2. **Cuts against the outer bound** ([`PartitionSolver::cut`],
//!    [`PartitionSolver::skip`]): on chip, nodes and prefixes are cut on
//!    `>=` and subtrees skipped on `>`; off chip, all three use
//!    [`crate::fan::above_with_slack`].
//! 3. **Node counting after the budget is spent**
//!    ([`PartitionSolver::STOP_AT_LIMIT`]): on chip every call keeps
//!    counting; off chip counting stops at `limit + 1`.

// fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes here bump it.
use crate::fan::{seeded_fan, TARGET_SUBTREES};

/// Set-bit positions of `mask`, ascending — a bin's members in push
/// order.
pub(super) fn bits(mask: u64) -> impl Iterator<Item = usize> + Clone {
    let mut m = mask;
    std::iter::from_fn(move || {
        (m != 0).then(|| {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            i
        })
    })
}

/// The bins of a partial partition plus its running cost sum.
pub(super) trait RunningSum: Clone + Default + Send + Sync {
    /// Whether every fold step counts as an incremental bound update
    /// ([`super::AllocStats::bound_incremental_updates`]). Opening a bin
    /// always counts.
    const COUNT_EVERY_STEP: bool;
    /// What [`RunningSum::undo`] needs to restore the previous bits.
    type Undo: Copy;

    /// The bins, in opening order.
    fn bins(&self) -> &[u64];
    /// The committed cost of the bins.
    fn total(&self) -> f64;
    /// The total [`RunningSum::set`] of bin `b` to a bin priced `price`
    /// would commit, computed by the same float expression without
    /// changing anything.
    fn peek_total(&self, b: usize, price: f64) -> f64;
    /// Sets bin `b` to `mask` priced `price`; `b == bins().len()` opens
    /// a new bin.
    fn set(&mut self, b: usize, mask: u64, price: f64) -> Self::Undo;
    /// Reverts the [`RunningSum::set`] of bin `b` that returned `undo`.
    fn undo(&mut self, b: usize, undo: Self::Undo);
}

/// What one solver plugs into [`Search`].
pub(super) trait PartitionSolver: Sync {
    /// Per-worker price memo: each worker thread prices into its own
    /// clone, since prices are pure functions of the instance.
    type Memo: Clone + Send;
    /// The running-sum type.
    type Sum: RunningSum;
    /// Whether a depth-first search stops counting nodes once its budget
    /// is spent (at `limit + 1`) instead of counting every call.
    const STOP_AT_LIMIT: bool;

    /// Cost of one bin holding the items of `mask`, or `None` when the
    /// bin is infeasible (port requirements are monotone in the subset,
    /// so an infeasible bin prunes every extension).
    fn price(&self, memo: &mut Self::Memo, mask: u64) -> Option<f64>;
    /// Lower bound on what the unassigned items `depth..` add, with
    /// `to_open` bins still to open.
    fn suffix_bound(&self, depth: usize, to_open: usize) -> f64;
    /// Whether a node with lower bound `lb` is cut against the fixed
    /// outer bound, given the best leaf found so far in its subtree.
    fn cut(&self, lb: f64, outer: f64, best: Option<f64>) -> bool;
    /// Whether a subtree with root lower bound `lb` may be skipped
    /// against `bound`, the cost of a real candidate.
    fn skip(&self, lb: f64, bound: f64) -> bool;
    /// The first bin item `depth` may join, given the bin the previous
    /// item chose; branches below it are dominated.
    fn dominance_start(&self, _depth: usize, _prev_choice: usize) -> usize {
        0
    }
    /// Folds a worker's memo back into the main one after the fan. By
    /// default it is dropped: only a memo that is persisted needs the
    /// workers' entries.
    fn merge_memo(&self, _main: &mut Self::Memo, _worker: Self::Memo) {}
}

/// The prefix subtrees of one expansion level, all `depth` items deep:
/// each prefix's restricted-growth choice string (`choices[d]` is the
/// bin item `d` joined), back to back in one byte arena, and its root
/// lower bound.
pub(super) struct Prefixes {
    depth: usize,
    choices: Vec<u8>,
    pub bounds: Vec<f64>,
}

impl Prefixes {
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// The choice string of prefix `j`.
    pub fn choices(&self, j: usize) -> &[u8] {
        &self.choices[j * self.depth..(j + 1) * self.depth]
    }
}

/// A running sum positioned on one choice string, with the undo record
/// of every step, so it can walk from prefix to prefix.
pub(super) struct Cursor<S: RunningSum> {
    pub sum: S,
    path: Vec<(usize, S::Undo)>,
}

impl<S: RunningSum> Default for Cursor<S> {
    fn default() -> Self {
        Cursor {
            sum: S::default(),
            path: Vec::new(),
        }
    }
}

/// Outcome and search-effort counters of one subtree, or of a whole
/// search.
#[derive(Default)]
pub(super) struct Outcome {
    /// The canonical-first minimum found: its cost and its bins.
    pub best: Option<(f64, Vec<u64>)>,
    pub nodes: u64,
    /// Complete partitions reached.
    pub partitions: u64,
    /// Subtrees skipped against the published incumbent.
    pub pruned: u64,
    pub dominance_cuts: u64,
    pub updates: u64,
    /// For a subtree: its node budget ran out. For a whole search: some
    /// such subtree could still hide a better (or canonically-earlier
    /// equal) partition. Subtrees skipped by the published incumbent
    /// have bounds above it, so the signal is the same for every worker
    /// count.
    pub exhausted: bool,
}

/// One canonical-partition branch-and-bound over `n` items.
pub(super) struct Search<'a, S> {
    pub solver: &'a S,
    pub n: usize,
    /// Fewest bins a complete partition may use.
    pub min_bins: usize,
    /// Most bins a complete partition may use.
    pub max_bins: usize,
}

impl<S: PartitionSolver> Search<'_, S> {
    /// Lower bound of a node with `bins` bins committing `total` at
    /// `depth`: the committed sum plus the suffix bound.
    fn lower_bound(&self, total: f64, bins: usize, depth: usize) -> f64 {
        total
            + self
                .solver
                .suffix_bound(depth, self.max_bins.saturating_sub(bins))
    }

    /// Whether that node is pruned: it can no longer open enough bins,
    /// or its bound is cut.
    fn pruned(&self, total: f64, bins: usize, depth: usize, outer: f64, best: Option<f64>) -> bool {
        bins + (self.n - depth) < self.min_bins
            || self
                .solver
                .cut(self.lower_bound(total, bins, depth), outer, best)
    }

    /// Visits the children of the node `sum` at `depth` in depth-first
    /// candidate order — the joins from the dominance start on, then a
    /// new bin — skipping infeasible bins. Returns the dominated joins.
    fn branch(
        &self,
        memo: &mut S::Memo,
        sum: &mut S::Sum,
        depth: usize,
        prev_choice: usize,
        mut visit: impl FnMut(&mut S::Memo, &mut S::Sum, usize, u64, f64),
    ) -> u64 {
        let bit = 1u64 << depth;
        let open = sum.bins().len();
        let start = self.solver.dominance_start(depth, prev_choice);
        for b in start..open {
            let grown = sum.bins()[b] | bit;
            if let Some(price) = self.solver.price(memo, grown) {
                visit(memo, sum, b, grown, price);
            }
        }
        if open < self.max_bins {
            if let Some(price) = self.solver.price(memo, bit) {
                visit(memo, sum, open, bit, price);
            }
        }
        start as u64
    }

    /// Moves `cursor` onto the choice string `choices`: undoes its steps
    /// back to the common prefix, then replays the rest through
    /// [`RunningSum::set`] with the bins' prices. `None` if some replayed
    /// bin does not price, which a string [`Search::expand`] kept cannot
    /// hit.
    pub fn seek(
        &self,
        memo: &mut S::Memo,
        cursor: &mut Cursor<S::Sum>,
        choices: &[u8],
    ) -> Option<()> {
        let common = cursor
            .path
            .iter()
            .zip(choices)
            .take_while(|((b, _), &c)| *b == usize::from(c))
            .count();
        while cursor.path.len() > common {
            let (b, undo) = cursor.path.pop()?;
            cursor.sum.undo(b, undo);
        }
        for (depth, &c) in choices.iter().enumerate().skip(common) {
            let (b, bit) = (usize::from(c), 1u64 << depth);
            let mask = cursor.sum.bins().get(b).map_or(bit, |m| m | bit);
            let price = self.solver.price(memo, mask)?;
            cursor.path.push((b, cursor.sum.set(b, mask, price)));
        }
        Some(())
    }

    /// Runs the search: expands the canonical tree into prefix subtrees,
    /// fans them over `workers` against `outer` with `node_limit` nodes,
    /// and reduces the outcomes in canonical order with strict
    /// improvement, starting from `start` (a greedy solution, or `None`
    /// when the greedy value only bounds).
    ///
    /// The seed subtree gets `outer` and the full node budget; the
    /// others are explored against the seed's value (or `outer`) with an
    /// even split of what the seed left — when the search is exact the
    /// seed finishes cheaply and the others keep a full share, and when
    /// the limit is exhausted they degrade to zero-budget probes instead
    /// of doubling the total node spend. Subtrees are claimed
    /// most-promising-first (ascending root bound, ties by index), so the
    /// published incumbent tightens as early as possible. Worker memos
    /// go to [`PartitionSolver::merge_memo`] after the fan.
    pub fn run(
        &self,
        memo: &mut S::Memo,
        outer: f64,
        start: Option<(f64, Vec<u64>)>,
        node_limit: u64,
        workers: usize,
    ) -> Outcome {
        let (prefixes, mut total) = self.expand(memo, outer);
        let bounds = &prefixes.bounds;
        let mut claim_order: Vec<usize> = (0..prefixes.len()).collect();
        claim_order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
        let value = |r: &Outcome| r.best.as_ref().map(|b| b.0);
        let (collected, worker_memos) = seeded_fan(
            bounds,
            &claim_order,
            outer,
            memo,
            workers,
            |lb, bound| self.solver.skip(lb, bound),
            |memo, j, seed: Option<&Outcome>| {
                let (outer, budget) = match seed {
                    None => (outer, node_limit),
                    Some(seed) => (
                        value(seed).unwrap_or(outer),
                        node_limit.saturating_sub(seed.nodes) / prefixes.len() as u64,
                    ),
                };
                let out = self.explore(memo, prefixes.choices(j), outer, budget);
                (value(&out), out)
            },
        );
        for worker in worker_memos {
            self.solver.merge_memo(memo, worker);
        }

        let (mut best_val, mut best) = match start {
            Some((val, bins)) => (val, Some(bins)),
            None => (f64::INFINITY, None),
        };
        for r in &collected {
            let Some(r) = r else {
                total.pruned += 1;
                continue;
            };
            total.nodes += r.nodes;
            total.partitions += r.partitions;
            total.dominance_cuts += r.dominance_cuts;
            total.updates += r.updates;
            if let Some((val, bins)) = &r.best {
                if *val < best_val {
                    best_val = *val;
                    best = Some(bins.clone());
                }
            }
        }
        total.exhausted = collected.iter().zip(bounds).any(|(r, &lb)| {
            r.as_ref().is_some_and(|r| r.exhausted) && !self.solver.skip(lb, best_val)
        });
        total.best = best.map(|bins| (best_val, bins));
        total
    }

    /// Expands the canonical tree breadth-first (children in depth-first
    /// candidate order, so the prefix sequence preserves the serial
    /// visiting order) until at least [`TARGET_SUBTREES`] prefixes exist
    /// or every item is assigned. A child is priced and bounded through
    /// [`RunningSum::peek_total`] before anything is copied: a pruned
    /// child is dropped, a kept one appends its choice string and root
    /// bound. One cursor walks the parents in order, so consecutive
    /// parents share all but their last few replayed steps.
    pub fn expand(&self, memo: &mut S::Memo, outer: f64) -> (Prefixes, Outcome) {
        let mut effort = Outcome::default();
        let mut cursor = Cursor::<S::Sum>::default();
        let mut level = Prefixes {
            depth: 0,
            choices: Vec::new(),
            bounds: vec![self.lower_bound(cursor.sum.total(), 0, 0)],
        };
        while level.len() < TARGET_SUBTREES && level.depth < self.n {
            let depth = level.depth;
            let mut next = Prefixes {
                depth: depth + 1,
                choices: Vec::with_capacity(level.len() * 2 * (depth + 1)),
                bounds: Vec::with_capacity(level.len() * 2),
            };
            for j in 0..level.len() {
                let choices = level.choices(j);
                if self.seek(memo, &mut cursor, choices).is_none() {
                    continue;
                }
                let open = cursor.sum.bins().len();
                let prev_choice = choices.last().map_or(0, |&c| usize::from(c));
                let visit = |_: &mut S::Memo, sum: &mut S::Sum, b, _, price| {
                    effort.updates += u64::from(S::Sum::COUNT_EVERY_STEP);
                    let (total, bins) = (sum.peek_total(b, price), open + usize::from(b == open));
                    if !self.pruned(total, bins, depth + 1, outer, None) {
                        next.choices.extend_from_slice(choices);
                        // Items are bits of a `u64` mask, so a bin index
                        // always fits a byte.
                        next.choices.push(b as u8);
                        next.bounds.push(self.lower_bound(total, bins, depth + 1));
                    }
                };
                let cuts = self.branch(memo, &mut cursor.sum, depth, prev_choice, visit);
                effort.dominance_cuts += cuts;
            }
            if next.len() == 0 {
                return (next, effort); // every branch infeasible or cut
            }
            level = next;
        }
        (level, effort)
    }
}

/// Depth-first exploration of one subtree with a private node budget
/// against a fixed outer bound.
struct Dfs<'a, 'b, S> {
    search: &'a Search<'b, S>,
    outer: f64,
    node_limit: u64,
    out: Outcome,
}

impl<S: PartitionSolver> Dfs<'_, '_, S> {
    /// Counts a node with `bins` bins committing `total` at `depth` and
    /// says whether to descend into it: the budget is left and the node
    /// is not pruned.
    fn enter(&mut self, total: f64, bins: usize, depth: usize) -> bool {
        if S::STOP_AT_LIMIT && self.out.exhausted {
            return false;
        }
        self.out.nodes += 1;
        if self.out.nodes > self.node_limit {
            self.out.exhausted = true;
            return false;
        }
        let best = self.out.best.as_ref().map(|b| b.0);
        !self.search.pruned(total, bins, depth, self.outer, best)
    }

    /// Descends into an entered node: records it as the best leaf, or
    /// enters each child from its peeked total and only then sets it.
    fn recurse(&mut self, memo: &mut S::Memo, depth: usize, sum: &mut S::Sum, prev_choice: usize) {
        let search = self.search;
        if depth == search.n {
            self.out.partitions += 1;
            self.out.best = Some((sum.total(), sum.bins().to_vec()));
            return;
        }
        let open = sum.bins().len();
        let cuts = search.branch(
            memo,
            sum,
            depth,
            prev_choice,
            |memo, sum, b, mask, price| {
                // Opening a bin always counts as an update.
                self.out.updates += u64::from(S::Sum::COUNT_EVERY_STEP || b == open);
                let bins = open + usize::from(b == open);
                if self.enter(sum.peek_total(b, price), bins, depth + 1) {
                    let undo = sum.set(b, mask, price);
                    self.recurse(memo, depth + 1, sum, b);
                    sum.undo(b, undo);
                }
            },
        );
        self.out.dominance_cuts += cuts;
    }
}

impl<S: PartitionSolver> Search<'_, S> {
    /// Explores the subtree under the prefix `choices` against the fixed
    /// outer bound `outer` with a private node budget `budget`. The
    /// prefix's sum is rebuilt by replaying its choices through
    /// [`RunningSum::set`]: the same steps in the same order as the
    /// expansion took, so the same bits.
    fn explore(&self, memo: &mut S::Memo, choices: &[u8], outer: f64, budget: u64) -> Outcome {
        let mut dfs = Dfs {
            search: self,
            outer,
            node_limit: budget,
            out: Outcome::default(),
        };
        let mut cursor = Cursor::default();
        if self.seek(memo, &mut cursor, choices).is_none() {
            return dfs.out;
        }
        let (sum, depth) = (&mut cursor.sum, choices.len());
        let (total, bins) = (sum.total(), sum.bins().len());
        if depth == self.n {
            // The whole tree fit into the prefix expansion: the prefix
            // *is* a complete partition.
            dfs.out.nodes = 1;
            dfs.out.partitions = 1;
            dfs.out.best = (!self.pruned(total, bins, depth, outer, None))
                .then(|| (total, sum.bins().to_vec()));
        } else if dfs.enter(total, bins, depth) {
            let prev_choice = choices.last().map_or(0, |&c| usize::from(c));
            dfs.recurse(memo, depth, sum, prev_choice);
        }
        dfs.out
    }
}
