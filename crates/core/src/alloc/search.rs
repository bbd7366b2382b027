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

// memx-lint: fingerprinted(ALLOC_ALGO_REVISION) — result-affecting changes here bump it.
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

/// A partial canonical partition of the first `depth` items.
#[derive(Clone)]
pub(super) struct Prefix<S> {
    sum: S,
    depth: usize,
    /// The bin item `depth - 1` chose (0 at the root).
    prev_choice: usize,
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
    /// Lower bound of a node: the committed sum plus the suffix bound.
    fn lower_bound(&self, sum: &S::Sum, depth: usize) -> f64 {
        let to_open = self.max_bins.saturating_sub(sum.bins().len());
        sum.total() + self.solver.suffix_bound(depth, to_open)
    }

    /// Whether the node `sum` at `depth` is pruned: it can no longer
    /// open enough bins, or its bound is cut.
    fn pruned(&self, sum: &S::Sum, depth: usize, outer: f64, best: Option<f64>) -> bool {
        sum.bins().len() + (self.n - depth) < self.min_bins
            || self.solver.cut(self.lower_bound(sum, depth), outer, best)
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
        let bounds: Vec<f64> = prefixes
            .iter()
            .map(|p| self.lower_bound(&p.sum, p.depth))
            .collect();
        let mut claim_order: Vec<usize> = (0..prefixes.len()).collect();
        claim_order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]).then(a.cmp(&b)));
        let value = |r: &Outcome| r.best.as_ref().map(|b| b.0);
        let (collected, worker_memos) = seeded_fan(
            &bounds,
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
                let out = self.explore(memo, &prefixes[j], outer, budget);
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
        total.exhausted = collected.iter().zip(&bounds).any(|(r, &lb)| {
            r.as_ref().is_some_and(|r| r.exhausted) && !self.solver.skip(lb, best_val)
        });
        total.best = best.map(|bins| (best_val, bins));
        total
    }

    /// Expands the canonical tree breadth-first (children in depth-first
    /// candidate order, so the prefix sequence preserves the serial
    /// visiting order) until at least [`TARGET_SUBTREES`] prefixes exist
    /// or every item is assigned. Pruned children are dropped.
    fn expand(&self, memo: &mut S::Memo, outer: f64) -> (Vec<Prefix<S::Sum>>, Outcome) {
        let mut effort = Outcome::default();
        let mut level = vec![Prefix {
            sum: S::Sum::default(),
            depth: 0,
            prev_choice: 0,
        }];
        while level.len() < TARGET_SUBTREES && level.iter().any(|p| p.depth < self.n) {
            let mut next: Vec<Prefix<S::Sum>> = Vec::with_capacity(level.len() * 2);
            for p in &level {
                if p.depth == self.n {
                    next.push(p.clone());
                    continue;
                }
                let mut sum = p.sum.clone();
                let visit = |_: &mut S::Memo, parent: &mut S::Sum, b, mask, price| {
                    let mut sum = parent.clone();
                    sum.set(b, mask, price);
                    effort.updates += u64::from(S::Sum::COUNT_EVERY_STEP);
                    if !self.pruned(&sum, p.depth + 1, outer, None) {
                        next.push(Prefix {
                            sum,
                            depth: p.depth + 1,
                            prev_choice: b,
                        });
                    }
                };
                let cuts = self.branch(memo, &mut sum, p.depth, p.prev_choice, visit);
                effort.dominance_cuts += cuts;
            }
            if next.is_empty() {
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
    fn recurse(&mut self, memo: &mut S::Memo, depth: usize, sum: &mut S::Sum, prev_choice: usize) {
        if S::STOP_AT_LIMIT && self.out.exhausted {
            return;
        }
        self.out.nodes += 1;
        if self.out.nodes > self.node_limit {
            self.out.exhausted = true;
            return;
        }
        let search = self.search;
        if search.pruned(sum, depth, self.outer, self.out.best.as_ref().map(|b| b.0)) {
            return;
        }
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
                let undo = sum.set(b, mask, price);
                // Opening a bin always counts as an update.
                self.out.updates += u64::from(S::Sum::COUNT_EVERY_STEP || b == open);
                self.recurse(memo, depth + 1, sum, b);
                sum.undo(b, undo);
            },
        );
        self.out.dominance_cuts += cuts;
    }
}

impl<S: PartitionSolver> Search<'_, S> {
    /// Explores the subtree under prefix `p` against the fixed outer
    /// bound `outer` with a private node budget `budget`.
    fn explore(&self, memo: &mut S::Memo, p: &Prefix<S::Sum>, outer: f64, budget: u64) -> Outcome {
        let mut dfs = Dfs {
            search: self,
            outer,
            node_limit: budget,
            out: Outcome::default(),
        };
        if p.depth == self.n {
            // The whole tree fit into the prefix expansion: the prefix
            // *is* a complete partition.
            dfs.out.nodes = 1;
            dfs.out.partitions = 1;
            dfs.out.best = (!self.pruned(&p.sum, p.depth, outer, None))
                .then(|| (p.sum.total(), p.sum.bins().to_vec()));
        } else {
            dfs.recurse(memo, p.depth, &mut p.sum.clone(), p.prev_choice);
        }
        dfs.out
    }
}
