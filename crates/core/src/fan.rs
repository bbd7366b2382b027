//! The one worker pool of `memx-core`, and the seeded skip-fan built on
//! it. This is the only module of the crate that spawns threads.
//!
//! **The pool** (`pool`) hands the indices `0..n` to up to `workers`
//! scoped threads through a claim queue. Each thread works on its own
//! clone of the caller's state and hands it back after the join; the
//! results reach a visitor on the calling thread **in index order**,
//! through a channel and a reorder window bounded by the completion
//! skew. With an effective worker count of 1 (`min(workers, n) <= 1`)
//! it runs inline on the caller's state and spawns nothing. Every
//! fan-out of the crate goes through it: the engine's point stream
//! ([`crate::engine::Engine::evaluate_stream`]),
//! [`crate::engine::parallel_map`], and the seeded skip-fan below.
//!
//! **The seeded skip-fan** (`seeded_fan`) runs a set of independent
//! searches, each with a root lower bound, so that their outcomes
//! reduce exactly as a serial loop would. Two callers use it: the
//! canonical-partition branch-and-bound of [`crate::alloc`] fans its
//! prefix subtrees, and the on-chip sweep fans its allocation sizes.
//! The choreography:
//!
//! 1. a **seed item** — the one with the smallest root lower bound,
//!    earliest on ties — is explored first, alone, on the caller's
//!    state (the caller gives it the full node budget and the full
//!    pool);
//! 2. the seed's value is published through an **atomic incumbent**
//!    (`f64` bits in an [`AtomicU64`]);
//! 3. the pool's workers claim the other items in the caller's claim
//!    order (subtrees most-promising-first, sizes in ascending `k`); a
//!    claimed item is *skipped* when its root lower bound is above the
//!    published incumbent, otherwise it is explored with the seed's
//!    outcome at hand (the subtree search takes its outer bound and its
//!    budget split from it), and any real result tightens the
//!    published incumbent;
//! 4. the outcomes are handed back **in canonical order** (`None` for a
//!    skipped item) so the caller's strict-improvement reduction
//!    reproduces the serial first-found-minimum tie-break bit for bit.
//!
//! The skip predicate is the caller's: the on-chip searches skip
//! strictly (`lb > incumbent`), the off-chip search with the ulp guard
//! of [`above_with_slack`] because its suffix floor can be *exactly*
//! tight in real arithmetic. Everything timing-dependent is confined to
//! this module; no solver result may depend on it.
//!
//! # Why the result is bit-identical for every worker count
//!
//! * the seed choice and the seed search are pure functions of
//!   deterministic inputs, and so is everything the caller derives from
//!   the seed's outcome (outer bound, budget split);
//! * the published incumbent is used **only** to skip whole items whose
//!   root lower bound is above it. The incumbent is monotonically
//!   non-increasing and always the value of a *real* candidate, so a
//!   skipped item provably cannot win a strict-improvement reduction —
//!   skipping removes only items that lose anyway;
//! * every non-seed item is explored against deterministic inputs
//!   (never the evolving incumbent), so each outcome is a pure function
//!   of its item and the seed;
//! * outcomes reduce in canonical order, independent of completion
//!   order.
//!
//! Worker states must be caches of pure functions (pricing memos): a
//! worker's state may change how fast an item is explored, never what
//! the exploration returns.
//!
//! # Atomics and memory-ordering audit
//!
//! This module is the only place in the workspace where solver-facing
//! atomics live (`clippy.toml` disallows the atomic types everywhere
//! else; the cache's statistics counters and the profiler's access
//! counters are the two other modules that expect the lint). Every
//! atomic operation uses `Ordering::Relaxed`, which is sufficient — per
//! atomic:
//!
//! * **`Incumbent`** (`AtomicU64` holding `f64` bits): *skip-only*
//!   usage. Readers never order payload reads against it — the value
//!   gates nothing but the "explore vs. skip" decision, and both
//!   branches are correct for *any* previously published value: a stale
//!   (too high) read only explores more, never less, and a fresh read
//!   can only skip items whose bound is above a real candidate's value.
//!   The monotone-minimum CAS loop needs no ordering either: bit
//!   patterns of the candidate values are data, not ordering tokens.
//! * **`ClaimQueue`** (`AtomicUsize` counter): `fetch_add` is an atomic
//!   read-modify-write, so every claim index is handed out exactly once
//!   — the only property the queue needs. No payload is transferred
//!   through the counter itself.
//!
//! The payloads travel without atomics:
//!
//! * **Result hand-off** goes through the pool's [`mpsc`] channel: each
//!   worker sends `(index, result)` and the calling thread receives it.
//!   A send happens-before the matching receive, so the visitor sees a
//!   fully written result; the reorder window lives on the calling
//!   thread only.
//! * **Worker-state hand-back** rides the join: each scoped thread
//!   returns its state through its join handle, and the caller folds
//!   (or drops) the states after every join.
//! * **The seed's outcome** is written before the scope starts and only
//!   read inside it; the spawn provides the happens-before edge.

#![expect(
    clippy::disallowed_types,
    reason = "the audited fan-out harness: the only algorithmic atomics in the tree"
)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// How many canonical-prefix subtrees a fanned search splits into.
/// Deliberately a constant (not a function of the worker count) so the
/// per-subtree node budgets — and therefore the search result — do not
/// depend on the machine the search runs on.
pub const TARGET_SUBTREES: usize = 512;

/// Strictly-above test with an ulp guard, for comparing a lower bound
/// against the cost of a *real* candidate (greedy, seed or published
/// incumbent). A suffix floor can be exactly tight in real arithmetic —
/// e.g. same-part merges whose marginal energy equals the floor — where
/// float rounding could push the bound a few ulps past the candidate
/// cost and cut the canonical-first optimum. The guard admits those
/// ties: it only ever explores more, never less.
pub fn above_with_slack(lb: f64, bound: f64) -> bool {
    lb > bound + bound.abs() * 1e-12
}

thread_local! {
    /// Worker threads the pool spawned *from this thread*. Thread-local
    /// so concurrent test runners never see each other's spawns.
    static THREAD_SPAWNS: Cell<u64> = const { Cell::new(0) };
}

/// Number of worker threads the pool has spawned from the current
/// thread — instrumentation backing the guarantee that an effective
/// worker count of 1 runs inline (no thread is spawned by the engine,
/// [`crate::engine::parallel_map`] or any allocation fan-out).
#[doc(hidden)]
pub fn thread_spawns_on_current_thread() -> u64 {
    THREAD_SPAWNS.with(|c| c.get())
}

/// Records one worker-thread spawn (called right before the pool's
/// `scope.spawn`).
fn note_thread_spawn() {
    THREAD_SPAWNS.with(|c| c.set(c.get() + 1));
}

/// A published monotone-minimum incumbent value: `f64` bits in an
/// [`AtomicU64`], shared between fan workers and used **only** to skip
/// work whose lower bound is above it (see the module docs for why
/// `Relaxed` is sufficient).
#[derive(Debug)]
struct Incumbent(AtomicU64);

impl Incumbent {
    fn new(val: f64) -> Self {
        Incumbent(AtomicU64::new(val.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the incumbent to `val` if it improves on the published
    /// value (lock-free monotone minimum; compares as floats, though bit
    /// order and value order coincide for the non-negative costs the
    /// solvers publish).
    fn publish_min(&self, val: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while val < f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                val.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }
}

/// A dynamic work-claim counter: each call to [`ClaimQueue::claim`]
/// hands out the next index exactly once, across however many worker
/// threads share the queue. The claim *order* across threads is
/// timing-dependent; the claimed *set* is not.
#[derive(Debug, Default)]
struct ClaimQueue(AtomicUsize);

impl ClaimQueue {
    /// Claims the next unclaimed index below `len`, or `None` when all
    /// `len` indices have been handed out.
    fn claim(&self, len: usize) -> Option<usize> {
        let i = self.0.fetch_add(1, Ordering::Relaxed);
        (i < len).then_some(i)
    }
}

/// Runs `work(state, i)` for every `i` in `0..n` on up to `workers`
/// threads and calls `visit(i, result)` on the calling thread in
/// ascending `i` (see the module docs).
///
/// Each worker thread works on its own clone of `state`; the clones
/// come back, one per spawned worker in spawn order, for the caller to
/// fold or drop. With `min(workers, n) <= 1` everything runs inline on
/// `state` itself, nothing is spawned and no clone comes back.
pub(crate) fn pool<S, R>(
    n: usize,
    workers: usize,
    state: &mut S,
    work: impl Fn(&mut S, usize) -> R + Sync,
    mut visit: impl FnMut(usize, R),
) -> Vec<S>
where
    S: Clone + Send,
    R: Send,
{
    let workers = workers.min(n);
    if workers <= 1 {
        for i in 0..n {
            visit(i, work(state, i));
        }
        return Vec::new();
    }
    let (queue, work) = (&ClaimQueue::default(), &work);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (tx, mut state) = (tx.clone(), state.clone());
                note_thread_spawn();
                scope.spawn(move || {
                    while let Some(i) = queue.claim(n) {
                        // A closed channel means the visitor panicked;
                        // stop claiming and let the scope unwind.
                        if tx.send((i, work(&mut state, i))).is_err() {
                            break;
                        }
                    }
                    state
                })
            })
            .collect();
        drop(tx);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        for (i, result) in rx {
            pending.insert(i, result);
            while let Some(result) = pending.remove(&next) {
                visit(next, result);
                next += 1;
            }
        }
        handles
            .into_iter()
            .map(|h| {
                #[expect(
                    clippy::expect_used,
                    reason = "a scoped worker panicking would abort the scope anyway; joining merely forwards it"
                )]
                let out = h.join().expect("pool worker panicked");
                out
            })
            .collect()
    })
}

/// Runs the seeded skip-fan (see the module docs) over the items with
/// root lower bounds `bounds`, returning one outcome per item **in
/// canonical order**; `None` marks an item skipped against the
/// published incumbent. Also returns the worker states of [`pool`].
///
/// `explore(state, i, seed)` explores item `i` and returns its
/// publishable value (`Some(cost)` of a real candidate, else `None`)
/// with its outcome; `seed` is `None` when `i` is the seed and the
/// seed's outcome otherwise. The incumbent starts at the seed's value,
/// or at `initial` (a real candidate's value, or `f64::INFINITY`) when
/// the seed has none. `claim_order` lists every index once, in the
/// order workers claim them (the seed is passed over); an item is
/// skipped when `skip_above(bounds[i], incumbent)` holds.
pub(crate) fn seeded_fan<S, O>(
    bounds: &[f64],
    claim_order: &[usize],
    initial: f64,
    state: &mut S,
    workers: usize,
    skip_above: impl Fn(f64, f64) -> bool + Sync,
    explore: impl Fn(&mut S, usize, Option<&O>) -> (Option<f64>, O) + Sync,
) -> (Vec<Option<O>>, Vec<S>)
where
    S: Clone + Send,
    O: Send + Sync,
{
    debug_assert_eq!(bounds.len(), claim_order.len());
    let Some(seed) = (0..bounds.len()).min_by(|&a, &b| bounds[a].total_cmp(&bounds[b])) else {
        return (Vec::new(), Vec::new());
    };
    let (seed_val, seed_out) = explore(state, seed, None);
    let published = Incumbent::new(seed_val.unwrap_or(initial));
    let rest: Vec<usize> = claim_order.iter().copied().filter(|&i| i != seed).collect();
    let mut outcomes: Vec<Option<O>> = (0..bounds.len()).map(|_| None).collect();
    let states = pool(
        rest.len(),
        workers,
        state,
        |state, c| {
            let i = rest[c];
            if skip_above(bounds[i], published.get()) {
                return None;
            }
            let (val, out) = explore(state, i, Some(&seed_out));
            if let Some(val) = val {
                published.publish_min(val);
            }
            Some(out)
        },
        |c, out| outcomes[rest[c]] = out,
    );
    outcomes[seed] = Some(seed_out);
    (outcomes, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A toy search: items are integer "costs", exploring returns the
    /// cost when it beats the outer bound (the seed's value for every
    /// non-seed item), and bounds equal the costs. Lets the fan logic
    /// be checked without dragging a solver in. The state counts
    /// explorations.
    fn toy_fan(items: &[f64], initial: f64, workers: usize) -> (Vec<Option<Option<f64>>>, u64) {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| items[a].total_cmp(&items[b]).then(a.cmp(&b)));
        let mut explored = 0u64;
        let (outcomes, states) = seeded_fan(
            items,
            &order,
            initial,
            &mut explored,
            workers,
            |lb, bound| lb > bound,
            |state, i, seed: Option<&Option<f64>>| {
                *state += 1;
                let outer = seed.map_or(initial, |s| s.unwrap_or(initial));
                let val = (items[i] < outer).then_some(items[i]);
                (val, val)
            },
        );
        (outcomes, explored + states.iter().sum::<u64>())
    }

    #[test]
    fn outcomes_come_back_in_canonical_order_for_every_worker_count() {
        let items = [5.0, 3.0, 9.0, 1.0, 7.0];
        let (reference, _) = toy_fan(&items, 8.0, 1);
        for workers in [2, 4, 8] {
            // Items above the published incumbent may be skipped or
            // explored depending on timing, so compare the
            // reduction-relevant view: values.
            let val = |o: &Option<Option<f64>>| o.flatten();
            let (got, _) = toy_fan(&items, 8.0, workers);
            let vals: Vec<Option<f64>> = got.iter().map(val).collect();
            let ref_vals: Vec<Option<f64>> = reference.iter().map(val).collect();
            assert_eq!(vals, ref_vals, "workers={workers}");
        }
    }

    #[test]
    fn seed_gets_the_initial_bound_and_others_get_the_seed_value() {
        // The seed is 1.0 (smallest bound), explored against 8.0 → value
        // 1.0 published; every other item is skipped outright (bound
        // above the incumbent), so only the seed explores.
        let (out, explored) = toy_fan(&[5.0, 3.0, 1.0], 8.0, 1);
        assert_eq!(out, vec![None, None, Some(Some(1.0))]);
        assert_eq!(explored, 1);
        // A seed that beats nothing publishes the initial bound instead:
        // items at or below it still explore, those above it are skipped.
        let (out, explored) = toy_fan(&[5.0, 3.0, 9.0], 3.0, 1);
        assert_eq!(out, vec![None, Some(None), None]);
        assert_eq!(explored, 1);
        let (out, explored) = toy_fan(&[3.0, 3.0, 9.0], 3.0, 1);
        assert_eq!(out, vec![Some(None), Some(None), None]);
        assert_eq!(explored, 2);
    }

    #[test]
    fn empty_prefixes_fan_to_nothing() {
        let (out, explored) = toy_fan(&[], f64::INFINITY, 8);
        assert!(out.is_empty());
        assert_eq!(explored, 0);
    }

    #[test]
    fn fan_pool_visits_out_of_order_results_in_index_order() {
        // Item i cannot finish before item i + 1 has: it waits on a
        // channel item i + 1 signals after recording its completion. So
        // the work completes in reverse order; the visitor still sees
        // ascending indices.
        let n = 4;
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| mpsc::channel::<()>()).unzip();
        let rxs: Vec<Mutex<mpsc::Receiver<()>>> = rxs.into_iter().map(Mutex::new).collect();
        let completed = Mutex::new(Vec::new());
        let mut visited = Vec::new();
        pool(
            n,
            n,
            &mut (),
            |_, i| {
                if i + 1 < n {
                    rxs[i].lock().unwrap().recv().unwrap();
                }
                completed.lock().unwrap().push(i);
                if i > 0 {
                    txs[i - 1].send(()).unwrap();
                }
                i * 10
            },
            |i, r| visited.push((i, r)),
        );
        assert_eq!(completed.into_inner().unwrap(), vec![3, 2, 1, 0]);
        assert_eq!(visited, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn fan_pool_hands_back_each_worker_state_exactly_once() {
        // Each worker's state records the indices it claimed: one state
        // per spawned worker comes back, and together they hold every
        // index exactly once. The caller's state is only cloned.
        let before = thread_spawns_on_current_thread();
        let mut state: Vec<usize> = Vec::new();
        let states = pool(30, 3, &mut state, |s, i| s.push(i), |_, ()| {});
        assert_eq!(thread_spawns_on_current_thread(), before + 3);
        assert_eq!(states.len(), 3);
        assert!(state.is_empty());
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn fan_pool_with_one_effective_worker_runs_inline_on_the_caller_state() {
        for (n, workers) in [(5, 1), (1, 8), (0, 8), (5, 0)] {
            let before = thread_spawns_on_current_thread();
            let mut state: Vec<usize> = Vec::new();
            let mut visited = Vec::new();
            let states = pool(
                n,
                workers,
                &mut state,
                |s, i| s.push(i),
                |i, ()| visited.push(i),
            );
            assert_eq!(
                thread_spawns_on_current_thread(),
                before,
                "n={n} workers={workers}"
            );
            assert!(states.is_empty());
            assert_eq!(state, (0..n).collect::<Vec<_>>());
            assert_eq!(visited, state);
        }
    }

    #[test]
    fn claim_queue_hands_out_each_index_once() {
        let q = ClaimQueue::default();
        let mut got: Vec<usize> = std::iter::from_fn(|| q.claim(5)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.claim(5), None);
    }

    #[test]
    fn incumbent_is_a_monotone_minimum() {
        let inc = Incumbent::new(f64::INFINITY);
        inc.publish_min(5.0);
        inc.publish_min(7.0);
        assert_eq!(inc.get(), 5.0);
        inc.publish_min(2.5);
        assert_eq!(inc.get(), 2.5);
    }

    #[test]
    fn slack_admits_ties_and_near_ties() {
        assert!(!above_with_slack(1.0, 1.0));
        assert!(!above_with_slack(1.0 + 1e-15, 1.0));
        assert!(above_with_slack(1.0 + 1e-9, 1.0));
        assert!(above_with_slack(1.0, 0.5));
    }
}
