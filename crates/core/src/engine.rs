//! The batched, parallel exploration engine.
//!
//! Every table of the paper is a *batch* of design-point evaluations:
//! budget sweeps (Table 3), allocation sweeps (Table 4), structuring and
//! hierarchy variants (Tables 1–2). The feedback loop only turns as
//! fast as the slowest batch, so the [`Engine`] fans a set of
//! [`DesignPoint`]s across the crate's one worker pool ([`crate::fan`])
//! and streams the reports back in input order — results are
//! **bit-identical** to evaluating the points one by one (the
//! allocation search itself is deterministic for every worker count,
//! see [`crate::alloc`]).
//!
//! The engine also memoizes storage-cycle-budget distribution across the
//! batch: design points whose `(spec content hash, cycle budget)` match
//! share one [`ScbdResult`] instead of re-balancing the flow graphs per
//! point — a Table-4 sweep schedules once, not once per allocation — and
//! each schedule is released after its last use, for every worker count.
//!
//! # Example
//!
//! ```
//! use memx_core::engine::{DesignPoint, Engine};
//! use memx_core::explore::EvaluateOptions;
//! use memx_ir::{AccessKind, AppSpecBuilder};
//! use memx_memlib::MemLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = AppSpecBuilder::new("fir");
//! let taps = b.basic_group("taps", 64, 12)?;
//! let nest = b.loop_nest("mac", 100_000)?;
//! b.access(nest, taps, AccessKind::Read)?;
//! b.cycle_budget(400_000).real_time_seconds(1e-2);
//! let spec = b.build()?;
//!
//! let lib = MemLibrary::default_07um();
//! let engine = Engine::new(&lib);
//! let points: Vec<DesignPoint> = [300_000u64, 350_000, 400_000]
//!     .iter()
//!     .map(|&budget| {
//!         DesignPoint::new(
//!             format!("budget {budget}"),
//!             &spec,
//!             EvaluateOptions {
//!                 cycle_budget: Some(budget),
//!                 ..EvaluateOptions::default()
//!             },
//!         )
//!     })
//!     .collect();
//! let exploration = engine.explore(&points)?;
//! assert_eq!(exploration.reports().len(), 3);
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread;

use memx_ir::AppSpec;
use memx_memlib::MemLibrary;

use crate::cache::{EvalCache, EvalCtx};
use crate::explore::{evaluate_scheduled, CostReport, EvaluateOptions, Exploration};
use crate::fan::pool;
use crate::scbd::{Plan, ScbdResult};
use crate::ExploreError;

/// Worker count for "one per available core" requests.
pub fn auto_workers() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The schedule memo of one `(spec hash, budget)` key in a stream: the
/// distribution once computed, and how many points still need it.
#[derive(Default)]
struct ScheduleSlot {
    schedule: Option<Result<ScbdResult, ExploreError>>,
    uses: usize,
}

/// One labeled variant to evaluate: a specification plus the evaluation
/// knobs (budget override, allocation options).
#[derive(Debug, Clone)]
pub struct DesignPoint<'a> {
    /// Label the resulting report carries (row name in tables).
    pub label: String,
    /// The variant specification.
    pub spec: &'a AppSpec,
    /// Evaluation options for this point.
    pub options: EvaluateOptions,
}

impl<'a> DesignPoint<'a> {
    /// Creates a design point.
    pub fn new(label: impl Into<String>, spec: &'a AppSpec, options: EvaluateOptions) -> Self {
        DesignPoint {
            label: label.into(),
            spec,
            options,
        }
    }
}

/// The batched evaluation engine: a technology library, a worker pool
/// size, and optionally a persistent evaluation cache (see module docs).
#[derive(Debug)]
pub struct Engine<'l> {
    lib: &'l MemLibrary,
    workers: usize,
    cache: Option<Arc<EvalCache>>,
}

/// Configures and constructs an [`Engine`]: worker pool size and an
/// optional persistent evaluation cache, settable in any order before
/// [`EngineBuilder::build`].
#[derive(Debug)]
pub struct EngineBuilder<'l> {
    lib: &'l MemLibrary,
    workers: usize,
    cache: Option<Arc<EvalCache>>,
}

impl<'l> EngineBuilder<'l> {
    /// Sets the worker pool size (`0` = one per available core, `1` =
    /// evaluate on the calling thread). Defaults to `0`.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches a persistent evaluation cache: schedule distributions
    /// and allocation solutions are then served from / published to
    /// disk (see [`crate::cache`]). Results are bit-identical with or
    /// without a cache — only the work to produce them changes.
    ///
    /// Accepts an `Arc<EvalCache>` directly or an `Option` for callers
    /// threading a maybe-configured cache through.
    pub fn eval_cache(mut self, cache: impl Into<Option<Arc<EvalCache>>>) -> Self {
        self.cache = cache.into();
        self
    }

    /// Builds the engine, resolving `workers == 0` to one per core.
    pub fn build(self) -> Engine<'l> {
        Engine {
            lib: self.lib,
            workers: match self.workers {
                0 => auto_workers(),
                n => n,
            },
            cache: self.cache,
        }
    }
}

impl<'l> Engine<'l> {
    /// Engine over `lib` with one worker per available core.
    pub fn new(lib: &'l MemLibrary) -> Self {
        Self::builder(lib).build()
    }

    /// Starts configuring an engine over `lib`:
    /// `Engine::builder(lib).workers(n).eval_cache(cache).build()`.
    pub fn builder(lib: &'l MemLibrary) -> EngineBuilder<'l> {
        EngineBuilder {
            lib,
            workers: 0,
            cache: None,
        }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates every design point, streaming each [`CostReport`] to
    /// `visit` **in input order** as soon as it (and all its
    /// predecessors) complete — the visitor is called exactly once per
    /// point, on the calling thread.
    ///
    /// Reports carry full schedules, so a report's lifetime is the
    /// visitor call, and schedules are distributed lazily: the first
    /// point that needs a `(spec, budget)` pair distributes it (exactly
    /// once — points sharing the pair wait for it), later points share
    /// the memoized result, and the last one takes it, so the schedule
    /// is dropped after its last use. A unique-budget sweep (Table 3)
    /// with one worker therefore holds one schedule and one report at a
    /// time, whatever the row count; with many workers, out-of-order
    /// completions wait in the pool's reorder window, bounded by the
    /// evaluation skew, not the batch size.
    ///
    /// Schedules are served from the persistent cache when one is
    /// attached — each freshly computed schedule is published to disk
    /// as it completes. Results are bit-identical to calling
    /// [`crate::explore::evaluate`] per point, for any worker count,
    /// cached or not.
    pub fn evaluate_stream<F>(&self, points: &[DesignPoint], visit: F)
    where
        F: FnMut(usize, Result<CostReport, ExploreError>),
    {
        // Key every point by (spec content, budget) and count each
        // key's uses, so the last one can take the schedule.
        let keys: Vec<(u64, u64)> = points
            .iter()
            .map(|point| {
                let budget = point
                    .options
                    .cycle_budget
                    .unwrap_or_else(|| point.spec.cycle_budget());
                (point.spec.content_hash(), budget)
            })
            .collect();
        let mut slots: BTreeMap<(u64, u64), Mutex<ScheduleSlot>> = BTreeMap::new();
        for &key in &keys {
            let slot = slots.entry(key).or_default();
            slot.get_mut().unwrap_or_else(|p| p.into_inner()).uses += 1;
        }

        // Points whose allocation search is on auto (`workers == 0`)
        // get the pool split between the levels, so a batch does not
        // oversubscribe cores²-style. (The allocation solver spends its
        // share first on the off-chip partition subtrees, then splits
        // it between the k-sweep and each size's subtree search — three
        // cooperating levels in total; see `crate::alloc`.)
        let point_workers = self.workers.min(points.len().max(1));
        let alloc_workers = (self.workers / point_workers).max(1);
        // The cache serves both stages: schedules through
        // `ctx.distribute` below, allocation solutions through
        // `evaluate_scheduled`.
        let ctx = EvalCtx {
            lib: self.lib,
            cache: self.cache.as_deref(),
        };
        let evaluate_point = |_: &mut (), i: usize| -> Result<CostReport, ExploreError> {
            let (point, key) = (&points[i], keys[i]);
            let schedule = {
                // The slot stays locked while its schedule is computed,
                // so a key is distributed once. A poisoned lock can only
                // come from a sibling panicking mid-distribution; the
                // slot is plain data, so recovering it is always safe.
                let mut slot = slots[&key].lock().unwrap_or_else(|p| p.into_inner());
                let schedule = slot
                    .schedule
                    .take()
                    .unwrap_or_else(|| ctx.distribute(&mut Plan::new(point.spec), key.1));
                slot.uses -= 1;
                if slot.uses > 0 {
                    slot.schedule = Some(schedule.clone());
                }
                schedule
            };
            let mut options = point.options.clone();
            if options.alloc.workers == 0 {
                options.alloc.workers = alloc_workers;
            }
            let mut report = evaluate_scheduled(point.spec, ctx, schedule?, &options)?;
            report.label = point.label.clone();
            Ok(report)
        };
        pool(points.len(), self.workers, &mut (), evaluate_point, visit);
    }

    /// Evaluates every design point and folds the reports into an
    /// [`Exploration`] in input order — the batched equivalent of
    /// repeated [`Exploration::add`] calls.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) failing point's error; the
    /// exploration is not partially populated in that case.
    pub fn explore(&self, points: &[DesignPoint]) -> Result<Exploration<'l>, ExploreError> {
        let mut exploration = Exploration::new(self.lib);
        let mut first_error: Option<ExploreError> = None;
        self.evaluate_stream(points, |_, result| {
            if first_error.is_none() {
                match result {
                    Ok(report) => exploration.push(report),
                    Err(e) => first_error = Some(e),
                }
            }
        });
        match first_error {
            Some(e) => Err(e),
            None => Ok(exploration),
        }
    }
}

/// Order-preserving parallel map over a slice: applies `f(index, item)`
/// on up to `workers` threads (`0` = one per available core) and
/// returns the results in input order.
///
/// The scheduling is dynamic (the claim queue of [`crate::fan`]), but
/// the results come back in input order, so the output is independent
/// of timing. With one resolved worker or fewer than two items the map
/// runs inline on the calling thread.
pub fn parallel_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = match workers {
        0 => auto_workers(),
        w => w,
    };
    let mut out = Vec::with_capacity(items.len());
    pool(
        items.len(),
        workers,
        &mut (),
        |_, i| f(i, &items[i]),
        |_, r| out.push(r),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocOptions;
    use crate::explore::evaluate;
    use crate::fan::thread_spawns_on_current_thread;
    use memx_ir::{AccessKind, AppSpecBuilder};

    fn spec(name: &str) -> AppSpec {
        let mut b = AppSpecBuilder::new(name);
        let x = b.basic_group("x", 1024, 8).unwrap();
        let y = b.basic_group("y", 512, 16).unwrap();
        let n = b.loop_nest("l", 10_000).unwrap();
        let rx = b.access(n, x, AccessKind::Read).unwrap();
        let wy = b.access(n, y, AccessKind::Write).unwrap();
        b.depend(n, rx, wy).unwrap();
        b.cycle_budget(100_000).real_time_seconds(0.01);
        b.build().unwrap()
    }

    fn budget_points(spec: &AppSpec) -> Vec<DesignPoint<'_>> {
        [100_000u64, 50_000, 20_000, 10]
            .iter()
            .map(|&budget| {
                DesignPoint::new(
                    format!("budget {budget}"),
                    spec,
                    EvaluateOptions {
                        cycle_budget: Some(budget),
                        ..EvaluateOptions::default()
                    },
                )
            })
            .collect()
    }

    /// Every point's result, collected through the stream.
    fn collect(engine: &Engine, points: &[DesignPoint]) -> Vec<Result<CostReport, ExploreError>> {
        let mut results = Vec::with_capacity(points.len());
        engine.evaluate_stream(points, |i, result| {
            assert_eq!(i, results.len(), "visited in input order");
            results.push(result);
        });
        assert_eq!(results.len(), points.len(), "every point visited");
        results
    }

    #[test]
    fn evaluate_stream_matches_individual_evaluation() {
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let points = budget_points(&spec);
        for workers in [1, 4] {
            let engine = Engine::builder(&lib).workers(workers).build();
            let batch = collect(&engine, &points);
            assert_eq!(batch.len(), points.len());
            for (result, point) in batch.iter().zip(&points) {
                let solo = evaluate(&spec, &lib, &point.options);
                match (result, solo) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.label, point.label);
                        assert_eq!(a.cost, b.cost);
                        assert_eq!(a.organization, b.organization);
                        assert_eq!(a.macp_cycles, b.macp_cycles);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, &b),
                    (a, b) => panic!("batch {a:?} vs solo {b:?}"),
                }
            }
        }
    }

    #[test]
    fn allocation_sweep_shares_one_schedule() {
        // Same spec and budget, different allocation counts: the
        // memoized schedule must not change any result.
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let points: Vec<DesignPoint> = [1u32, 2]
            .iter()
            .map(|&k| {
                DesignPoint::new(
                    format!("k={k}"),
                    &spec,
                    EvaluateOptions {
                        cycle_budget: None,
                        alloc: AllocOptions {
                            on_chip_memories: Some(k),
                            ..AllocOptions::default()
                        },
                    },
                )
            })
            .collect();
        let engine = Engine::builder(&lib).workers(2).build();
        for (result, point) in collect(&engine, &points).iter().zip(&points) {
            let solo = evaluate(&spec, &lib, &point.options).unwrap();
            let batch = result.as_ref().unwrap();
            assert_eq!(batch.cost, solo.cost);
            assert_eq!(batch.organization, solo.organization);
        }
    }

    #[test]
    fn explore_folds_in_input_order_or_fails_fast() {
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let good: Vec<DesignPoint> = budget_points(&spec).into_iter().take(3).collect();
        let engine = Engine::builder(&lib).workers(3).build();
        let exploration = engine.explore(&good).unwrap();
        let labels: Vec<&str> = exploration
            .reports()
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(labels, ["budget 100000", "budget 50000", "budget 20000"]);
        // An infeasible point fails the fold with its error.
        let bad = budget_points(&spec);
        assert!(matches!(
            engine.explore(&bad),
            Err(ExploreError::BudgetTooTight { .. })
        ));
    }

    #[test]
    fn one_worker_parallel_map_spawns_no_threads() {
        let items: Vec<usize> = (0..64).collect();
        let before = thread_spawns_on_current_thread();
        let got = parallel_map(&items, 1, |_, &x| x + 1);
        assert_eq!(got.len(), 64);
        assert_eq!(
            thread_spawns_on_current_thread(),
            before,
            "workers=1 parallel_map spawned a thread"
        );
        // Single-item maps stay inline too, whatever the worker count.
        let before = thread_spawns_on_current_thread();
        parallel_map(&items[..1], 8, |_, &x| x + 1);
        assert_eq!(thread_spawns_on_current_thread(), before);
        // And the instrument itself moves when threads really spawn.
        let before = thread_spawns_on_current_thread();
        parallel_map(&items, 3, |_, &x| x + 1);
        assert_eq!(thread_spawns_on_current_thread(), before + 3);
    }

    #[test]
    fn evaluate_stream_visits_in_input_order_without_materializing() {
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let points = budget_points(&spec);
        let many = collect(&Engine::builder(&lib).workers(1).build(), &points);
        for workers in [1, 2, 8] {
            let engine = Engine::builder(&lib).workers(workers).build();
            let mut visited: Vec<usize> = Vec::new();
            engine.evaluate_stream(&points, |i, result| {
                visited.push(i);
                match (&result, &many[i]) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.label, b.label);
                        assert_eq!(a.cost, b.cost);
                        assert_eq!(a.organization, b.organization);
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("stream {a:?} vs serial {b:?}"),
                }
            });
            assert_eq!(visited, vec![0, 1, 2, 3], "workers={workers}");
        }
    }

    #[test]
    fn one_worker_stream_spawns_no_threads() {
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let points = budget_points(&spec);
        let engine = Engine::builder(&lib).workers(1).build();
        let before = thread_spawns_on_current_thread();
        let mut n = 0;
        engine.evaluate_stream(&points, |_, _| n += 1);
        assert_eq!(n, points.len());
        assert_eq!(
            thread_spawns_on_current_thread(),
            before,
            "workers=1 stream spawned a thread"
        );
    }

    #[test]
    fn cached_engine_matches_uncached_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!(
            "memx-engine-cache-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = Arc::new(EvalCache::open(&dir).unwrap());
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let points = budget_points(&spec);
        let plain = collect(&Engine::builder(&lib).workers(2).build(), &points);
        // Cold pass fills the cache, warm pass is served from it; both
        // must equal the uncached reports exactly.
        let mut cold_stats = None;
        for pass in ["cold", "warm"] {
            let engine = Engine::builder(&lib)
                .workers(2)
                .eval_cache(Arc::clone(&cache))
                .build();
            for (result, reference) in collect(&engine, &points).iter().zip(&plain) {
                match (result, reference) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.cost, b.cost, "{pass}");
                        assert_eq!(a.organization, b.organization, "{pass}");
                        assert_eq!(a.alloc_stats, b.alloc_stats, "{pass}: replayed stats");
                        assert_eq!(a.schedule.bodies.len(), b.schedule.bodies.len(), "{pass}");
                        for (x, y) in a.schedule.bodies.iter().zip(&b.schedule.bodies) {
                            assert_eq!(x.placements(), y.placements(), "{pass}");
                        }
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "{pass}"),
                    (a, b) => panic!("{pass}: cached {a:?} vs plain {b:?}"),
                }
            }
            if pass == "cold" {
                cold_stats = Some(cache.stats());
            }
        }
        let stats = cache.stats();
        // Three schedulable unique budgets; the fourth fails (too
        // tight) and errors are never cached.
        assert_eq!(stats.scbd_misses, 3, "cold pass computes each schedule");
        assert_eq!(stats.scbd_hits, 3, "warm pass serves each from disk");
        // Every successful evaluation resolves its allocation against
        // the cache exactly once; the cold pass may already share
        // entries between points (the instance fingerprint ignores the
        // budget when the conflict structure coincides), so only the
        // sum is pinned cold while the warm pass must be all hits.
        let cold = cold_stats.unwrap();
        assert_eq!(
            cold.alloc_hits + cold.alloc_misses,
            3,
            "cold pass resolves each allocation once"
        );
        assert!(cold.alloc_misses >= 1, "a cold cache cannot hit first");
        assert_eq!(
            stats.alloc_misses, cold.alloc_misses,
            "warm pass recomputes no allocation"
        );
        assert_eq!(
            stats.alloc_hits,
            cold.alloc_hits + 3,
            "warm pass serves every allocation from disk"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engine_distributes_each_key_once_at_every_worker_count() {
        // A Table-4-style batch: each budget repeats once per allocation
        // size, interleaved so repeated keys are never neighbours. On a
        // cold cache every distinct schedulable key is distributed once
        // (the too-tight budget fails and errors are never cached).
        let lib = MemLibrary::default_07um();
        let spec = spec("t");
        let points: Vec<DesignPoint> = [1u32, 2, 3]
            .iter()
            .flat_map(|&k| {
                [100_000u64, 50_000, 10].map(|budget| {
                    DesignPoint::new(
                        format!("k={k} budget {budget}"),
                        &spec,
                        EvaluateOptions {
                            cycle_budget: Some(budget),
                            alloc: AllocOptions {
                                on_chip_memories: Some(k),
                                ..AllocOptions::default()
                            },
                        },
                    )
                })
            })
            .collect();
        let reference = collect(&Engine::builder(&lib).workers(1).build(), &points);
        for workers in [1, 2, 8] {
            let dir = std::env::temp_dir().join(format!(
                "memx-engine-keys-{}-{:?}-{workers}",
                std::process::id(),
                thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let cache = Arc::new(EvalCache::open(&dir).unwrap());
            let engine = Engine::builder(&lib)
                .workers(workers)
                .eval_cache(Arc::clone(&cache))
                .build();
            for (result, expected) in collect(&engine, &points).iter().zip(&reference) {
                match (result, expected) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.cost, b.cost, "workers={workers}");
                        assert_eq!(a.organization, b.organization, "workers={workers}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "workers={workers}"),
                    (a, b) => panic!("workers={workers}: {a:?} vs {b:?}"),
                }
            }
            let stats = cache.stats();
            assert_eq!(stats.scbd_misses, 2, "workers={workers}");
            assert_eq!(stats.scbd_hits, 0, "workers={workers}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 3, 8, 64] {
            let got = parallel_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn engine_resolves_auto_workers() {
        let lib = MemLibrary::default_07um();
        assert!(Engine::new(&lib).workers() >= 1);
        assert_eq!(Engine::builder(&lib).workers(5).build().workers(), 5);
    }
}
