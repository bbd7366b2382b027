//! The shared BTPC exploration pipeline behind every table and figure.
//!
//! The decision sequence follows the paper exactly:
//!
//! 1. profile the instrumented encoder, build the pruned spec (§4.1);
//! 2. **Table 1**: explore basic-group structuring for `ridge`
//!    (nothing / compaction / merging with `pyr`) — merging wins;
//! 3. **Table 2**: explore the memory hierarchy for the merged
//!    pixel-data array (none / layer 1 / layer 0 / both) — layer 0 wins;
//! 4. **Table 3**: tighten the storage cycle budget, trading memory
//!    organization cost against data-path scheduling slack;
//! 5. **Table 4**: sweep the number of allocated on-chip memories.
//!
//! Note on the hierarchy target: the paper applies Figure 3 to "the
//! image array", its single 1 M-word pixel store. Our codec separates
//! the read-only input (`image`) from the reconstruction pyramid
//! (`pyr`); after the Table 1 merge, the heavily-read pixel store
//! playing the paper's role is the merged `pyr_ridge` group, so the
//! hierarchy experiments target it (see [`best_hierarchy_spec`] and the
//! Table 2 rows of `tests/golden/paper_tables.txt`).

use std::sync::Arc;

use memx_btpc::spec::{btpc_app_spec, measure_profile, BtpcSpec};
use memx_core::alloc::{AllocOptions, AllocStats};
use memx_core::cache::{EvalCache, EvalCtx};
use memx_core::engine::{auto_workers, parallel_map, DesignPoint, Engine};
use memx_core::explore::{CostReport, EvaluateOptions, Exploration};
use memx_core::hierarchy::{apply_hierarchy, HierarchyLayer};
use memx_core::scbd::ScbdResult;
use memx_core::structuring::{compact, merge};
use memx_core::ExploreError;
use memx_ir::{AccessKind, AppSpec, AppSpecBuilder, BasicGroupId, Placement};
use memx_memlib::MemLibrary;

/// Paper frame edge (1024×1024 images).
pub const FRAME: u64 = 1024;
/// Paper storage cycle budget (~20 M cycles at 1 Mpixel/s).
pub const CYCLE_BUDGET: u64 = 20_000_000;
/// Profiling frame edge (profiles scale linearly in pixels).
pub const PROFILE_FRAME: usize = 128;
/// Deterministic profiling seed.
pub const SEED: u64 = 0xB7C0DE;
/// Profiling frame edge in smoke mode: big enough to exercise every
/// pyramid level and coder context, small enough to finish instantly.
pub const SMOKE_PROFILE_FRAME: usize = 64;
/// Branch-and-bound node budget in smoke mode (falls back to the best
/// incumbent, so results stay well-formed, just not proven optimal).
pub const SMOKE_NODE_LIMIT: u64 = 200_000;

/// Every ambient knob the reproduction *binaries* accept, resolved
/// **once** at binary entry by [`RunKnobs::from_env`] and passed by
/// value from there on — the single place where the environment is
/// read. Library entry points ([`paper_context`] and everything built
/// on it) never construct one from the environment, so tests and
/// benches stay deterministic regardless of the caller's shell — and
/// the `memx-serve` daemon derives every option from the request body,
/// never from ambient state.
///
/// Exploration results are bit-identical across `workers`, `cache`,
/// `dominance` and `bound` settings (each knob only trades wall-clock
/// or search-effort counters, which is what `scripts/bench_baseline.sh`
/// measures); `smoke` and `node_limit` trade fidelity for runtime.
#[derive(Debug, Clone)]
pub struct RunKnobs {
    /// Fast smoke-test mode (`MEMX_SMOKE` non-empty and not `0`, or a
    /// `--smoke` argument): the cheap profile and reduced allocation
    /// search budget — CI uses it to keep the paper-reproduction
    /// binaries from rotting.
    pub smoke: bool,
    /// Worker-pool size (`MEMX_WORKERS`; `0` or unset = one worker per
    /// core, `1` = fully serial).
    pub workers: usize,
    /// Branch-and-bound node-budget override (`MEMX_NODE_LIMIT`). It
    /// budgets both the on-chip searches (which degrade to their greedy
    /// incumbent on exhaustion) and the off-chip partition search
    /// (which instead raises the deterministic `TooManyOffChipGroups`
    /// exhaustion signal). `scripts/bench_baseline.sh` raises it when
    /// comparing the two lower bounds: node counts only measure pruning
    /// when the search runs to exactness.
    pub node_limit: Option<u64>,
    /// Persistent evaluation cache (`MEMX_CACHE_DIR` names a directory
    /// carried across runs; unset or empty = no cache). An unusable
    /// directory prints a warning and degrades to uncached evaluation
    /// rather than failing the run.
    pub cache: Option<Arc<EvalCache>>,
    /// Off-chip symmetric-group dominance rule (`MEMX_DOMINANCE=0`
    /// disables it). The rule only removes symmetric duplicates, so the
    /// returned organization is identical either way; only the node and
    /// cut counters differ.
    pub dominance: bool,
    /// Branch-and-bound lower bound (`MEMX_BOUND=solo` falls back to
    /// the original solo-1-port suffix bound). Both bounds are
    /// admissible, so with an unexhausted budget the results are
    /// identical; only the nodes-visited counters differ.
    pub bound: memx_core::alloc::BoundKind,
}

impl Default for RunKnobs {
    /// The knobs every library entry point is equivalent to: full
    /// fidelity, auto workers, default node budget, no cache, dominance
    /// on, pairwise bound.
    fn default() -> Self {
        RunKnobs {
            smoke: false,
            workers: 0,
            node_limit: None,
            cache: None,
            dominance: true,
            bound: memx_core::alloc::BoundKind::default(),
        }
    }
}

impl RunKnobs {
    /// Resolves every knob from the process environment (and the
    /// `--smoke` argument). Binaries call this exactly once, at entry;
    /// everything downstream takes the struct by value.
    pub fn from_env() -> Self {
        let smoke = std::env::var_os("MEMX_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
            || std::env::args().any(|a| a == "--smoke");
        let workers = std::env::var("MEMX_WORKERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let node_limit = std::env::var("MEMX_NODE_LIMIT")
            .ok()
            .and_then(|v| v.parse().ok());
        let cache = std::env::var_os("MEMX_CACHE_DIR")
            .filter(|dir| !dir.is_empty())
            .and_then(|dir| match EvalCache::open(&dir) {
                Ok(cache) => Some(Arc::new(cache)),
                Err(e) => {
                    eprintln!("[eval cache disabled: {e}]");
                    None
                }
            });
        let dominance = std::env::var("MEMX_DOMINANCE").ok().as_deref() != Some("0");
        let bound = match std::env::var("MEMX_BOUND").ok().as_deref() {
            Some("solo") => memx_core::alloc::BoundKind::Solo,
            _ => memx_core::alloc::BoundKind::Pairwise,
        };
        RunKnobs {
            smoke,
            workers,
            node_limit,
            cache,
            dominance,
            bound,
        }
    }
}

/// Prints a batch's allocation search-effort counters on stderr — the
/// `[alloc nodes: N]` / `[off-chip nodes: N]` / `[off-chip exhaustive:
/// N]` lines `scripts/bench_baseline.sh` greps. One owner for the label
/// format: the table binaries must not hand-roll these lines, or a
/// label tweak applied to one binary but not the other would leave the
/// bench JSON with empty fields.
///
/// Takes bare [`AllocStats`] values — what the streaming table binaries
/// accumulate (stats are `Copy`, so a row's counters outlive the report
/// it came from).
pub fn print_alloc_stat_lines(stats: impl IntoIterator<Item = AllocStats>) {
    let mut nodes = 0u64;
    let mut off_nodes = 0u64;
    let mut off_exhaustive = 0u64;
    let mut dominance_cuts = 0u64;
    for s in stats {
        nodes += s.bb_nodes;
        off_nodes += s.off_chip_bb_nodes;
        off_exhaustive = off_exhaustive.saturating_add(s.off_chip_exhaustive_partitions);
        dominance_cuts += s.off_chip_dominance_cuts;
    }
    eprintln!("[alloc nodes: {nodes}]");
    eprintln!("[off-chip nodes: {off_nodes}]");
    eprintln!("[off-chip exhaustive: {off_exhaustive}]");
    eprintln!("[off-chip dominance cuts: {dominance_cuts}]");
}

/// Prints a binary's persistent-cache counters on stderr, one line per
/// entry kind — the `[scbd cache: H hits / M misses]` /
/// `[alloc cache: H hits / M misses]` / `[block cache: H hits / M
/// misses]` lines `scripts/bench_baseline.sh`,
/// `scripts/cache_roundtrip.sh` and `scripts/sharded_sweep.sh` grep.
/// One owner for the label format, same rationale as
/// [`print_alloc_stat_lines`]: warm/cold gates must be able to tell a
/// served schedule from a served allocation, so the kinds are never
/// summed into one line. Binaries running uncached (no
/// `MEMX_CACHE_DIR`) report `0 hits / 0 misses` on every line, keeping
/// the lines grep-able in every mode.
pub fn print_cache_stat_lines(cache: Option<&EvalCache>) {
    let stats = cache.map(|c| c.stats()).unwrap_or_default();
    eprintln!(
        "[scbd cache: {} hits / {} misses]",
        stats.scbd_hits, stats.scbd_misses
    );
    eprintln!(
        "[alloc cache: {} hits / {} misses]",
        stats.alloc_hits, stats.alloc_misses
    );
    eprintln!(
        "[block cache: {} hits / {} misses]",
        stats.blocks_hits, stats.blocks_misses
    );
}

/// Everything the experiments share: the profiled spec, the technology
/// library, and the allocation search options every table uses.
#[derive(Debug)]
pub struct PaperContext {
    /// The pruned BTPC specification (18 basic groups).
    pub btpc: BtpcSpec,
    /// The calibrated technology library.
    pub lib: MemLibrary,
    /// Allocation options for every evaluation run on this context
    /// (reduced search budget when built by [`context`] in smoke mode).
    pub alloc: AllocOptions,
    /// Engine worker-pool size (`0` = one per core). Results are
    /// bit-identical for every value; only wall-clock changes.
    pub workers: usize,
    /// Persistent evaluation cache ([`context`] wires `MEMX_CACHE_DIR`
    /// here; [`paper_context`] leaves it `None`). Results are
    /// bit-identical with or without it.
    pub cache: Option<Arc<EvalCache>>,
}

impl PaperContext {
    /// The evaluation options every table starts from: the allocation
    /// sweep picks the cheapest on-chip memory count for each variant.
    pub fn options(&self) -> EvaluateOptions {
        EvaluateOptions {
            cycle_budget: None,
            alloc: self.alloc.clone(),
        }
    }

    /// The evaluation context of this run: the library plus the
    /// persistent cache, when the context carries one.
    pub fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            lib: &self.lib,
            cache: self.cache.as_deref(),
        }
    }

    /// The exploration engine every table fans its design points over
    /// (persistent cache attached when the context carries one).
    pub fn engine(&self) -> Engine<'_> {
        Engine::builder(&self.lib)
            .workers(self.workers)
            .eval_cache(self.cache.clone())
            .build()
    }
}

/// Profiles the codec and builds the production spec (shared entry point
/// of all experiments) at full paper fidelity, independent of any
/// environment state.
///
/// # Panics
///
/// Panics if the instrumented encode or spec construction fails — both
/// are deterministic and covered by tests.
pub fn paper_context() -> PaperContext {
    context_with(PROFILE_FRAME, AllocOptions::default())
}

/// The context for the reproduction *binaries*: full paper fidelity
/// normally, the cheap profile and reduced allocation search when
/// `knobs.smoke` is on. Only binaries should call this — with the
/// [`RunKnobs`] they resolved once at entry; library users, tests and
/// benches use the env-independent [`paper_context`].
pub fn context(knobs: RunKnobs) -> PaperContext {
    let alloc = AllocOptions {
        node_limit: knobs.node_limit.unwrap_or(if knobs.smoke {
            SMOKE_NODE_LIMIT
        } else {
            AllocOptions::default().node_limit
        }),
        workers: knobs.workers,
        bound: knobs.bound,
        off_chip_dominance: knobs.dominance,
        ..AllocOptions::default()
    };
    let frame = if knobs.smoke {
        SMOKE_PROFILE_FRAME
    } else {
        PROFILE_FRAME
    };
    PaperContext {
        workers: knobs.workers,
        cache: knobs.cache,
        ..context_with(frame, alloc)
    }
}

fn context_with(frame: usize, alloc: AllocOptions) -> PaperContext {
    let profile = measure_profile(frame, frame, SEED);
    let btpc = btpc_app_spec(&profile, FRAME, FRAME, CYCLE_BUDGET)
        .expect("paper spec construction is deterministic");
    PaperContext {
        btpc,
        lib: MemLibrary::default_07um(),
        alloc,
        workers: 0,
        cache: None,
    }
}

/// **Table 1** — basic group structuring for the BTPC application.
///
/// # Errors
///
/// Propagates pipeline errors (none occur with the default context).
pub fn table1(ctx: &PaperContext) -> Result<Exploration<'_>, ExploreError> {
    let options = ctx.options();
    let compacted = compact(&ctx.btpc.spec, ctx.btpc.ridge, 3)?;
    let merged = merge(&ctx.btpc.spec, ctx.btpc.pyr, ctx.btpc.ridge)?;
    let points = vec![
        DesignPoint::new("No structuring", &ctx.btpc.spec, options.clone()),
        DesignPoint::new("ridge compacted", &compacted.spec, options.clone()),
        DesignPoint::new("ridge and pyr merged", &merged.spec, options),
    ];
    ctx.engine().explore(&points)
}

/// The Table-1 winner: `ridge` merged into `pyr`. Returns the spec and
/// the merged pixel-store group (the paper's "image array" for the
/// hierarchy step).
///
/// # Errors
///
/// Propagates transform errors.
pub fn merged_spec(ctx: &PaperContext) -> Result<(AppSpec, BasicGroupId), ExploreError> {
    let merged = merge(&ctx.btpc.spec, ctx.btpc.pyr, ctx.btpc.ridge)?;
    Ok((merged.spec, merged.new_group))
}

/// The Figure-3 layer candidates: `ylocal` (12 registers, reuse 2) and
/// `yhier` (5 K words, reuse 4).
///
/// `yhier` needs 2 ports when it serves the prediction loop directly
/// (filled while read, as annotated in Figure 3); in the two-layer chain
/// it only feeds `ylocal`'s copy loop and 1 port suffices.
pub fn figure3_layers() -> (HierarchyLayer, HierarchyLayer, HierarchyLayer) {
    let ylocal = HierarchyLayer::new("ylocal", 12, 2, 2.0);
    let yhier_serving = HierarchyLayer::new("yhier", 5 * 1024, 2, 4.0);
    let yhier_feeding = HierarchyLayer::new("yhier", 5 * 1024, 1, 4.0);
    (ylocal, yhier_serving, yhier_feeding)
}

/// **Table 2** — memory hierarchy decision for the pixel store.
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn table2(ctx: &PaperContext) -> Result<Exploration<'_>, ExploreError> {
    let (spec, pixel_store) = merged_spec(ctx)?;
    let (ylocal, yhier_serving, yhier_feeding) = figure3_layers();
    let options = ctx.options();
    let l1 = apply_hierarchy(&spec, pixel_store, std::slice::from_ref(&yhier_serving))?;
    let l0 = apply_hierarchy(&spec, pixel_store, std::slice::from_ref(&ylocal))?;
    let both = apply_hierarchy(&spec, pixel_store, &[ylocal, yhier_feeding])?;
    let points = vec![
        DesignPoint::new("No hierarchy", &spec, options.clone()),
        DesignPoint::new("Only layer 1 (yhier)", &l1.spec, options.clone()),
        DesignPoint::new("Only layer 0 (ylocal)", &l0.spec, options.clone()),
        DesignPoint::new("2 layers (both)", &both.spec, options),
    ];
    ctx.engine().explore(&points)
}

/// The Table-2 winner: layer 0 (`ylocal`) only.
///
/// # Errors
///
/// Propagates transform errors.
pub fn best_hierarchy_spec(ctx: &PaperContext) -> Result<AppSpec, ExploreError> {
    let (spec, pixel_store) = merged_spec(ctx)?;
    let (ylocal, _, _) = figure3_layers();
    Ok(apply_hierarchy(&spec, pixel_store, &[ylocal])?.spec)
}

/// One row of the Table-3 budget sweep.
#[derive(Debug)]
pub struct BudgetRow {
    /// Cycles given back to the data-path scheduler.
    pub extra_cycles: u64,
    /// Same, as a fraction of the full budget.
    pub extra_fraction: f64,
    /// The evaluation at the tightened budget.
    pub report: CostReport,
}

/// **Table 3** — tightening the storage cycle budget on the Table-2
/// winner. `extras` lists the cycles handed to the data path (the paper
/// uses 86 144 / 2 351 232 / 3 133 568 / 3 481 728 on a 20 M total).
///
/// # Errors
///
/// Propagates pipeline errors; a too-tight budget is not one — it stops
/// the sweep at that row (the returned rows are the feasible prefix),
/// exactly as [`table3_stream`] documents.
pub fn table3(ctx: &PaperContext, extras: &[u64]) -> Result<Vec<BudgetRow>, ExploreError> {
    let mut rows = Vec::new();
    table3_stream(ctx, extras, |row| rows.push(row))?;
    Ok(rows)
}

/// Streaming Table 3: `on_row` receives each [`BudgetRow`] in sweep
/// order as soon as it (and its predecessors) complete, so a caller
/// printing rows holds one report alive instead of the whole sweep
/// (reports carry full schedules; see
/// [`Engine::evaluate_stream`](memx_core::engine::Engine::evaluate_stream)
/// for the exact residency guarantees per worker count).
///
/// # Errors
///
/// Propagates pipeline errors; a too-tight budget stops the sweep at
/// that row (like the designer would) without being an error.
pub fn table3_stream(
    ctx: &PaperContext,
    extras: &[u64],
    mut on_row: impl FnMut(BudgetRow),
) -> Result<(), ExploreError> {
    let spec = best_hierarchy_spec(ctx)?;
    let points: Vec<DesignPoint> = extras
        .iter()
        .map(|&extra| {
            DesignPoint::new(
                format!("{extra} extra cycles"),
                &spec,
                EvaluateOptions {
                    cycle_budget: Some(CYCLE_BUDGET - extra),
                    alloc: ctx.alloc.clone(),
                },
            )
        })
        .collect();
    let mut stopped = false;
    let mut failure: Option<ExploreError> = None;
    ctx.engine().evaluate_stream(&points, |i, result| {
        if stopped || failure.is_some() {
            return;
        }
        match result {
            Ok(report) => on_row(BudgetRow {
                extra_cycles: extras[i],
                extra_fraction: extras[i] as f64 / CYCLE_BUDGET as f64,
                report,
            }),
            // Beyond the memory-access critical path no schedule exists:
            // the sweep simply stops there, like the designer would.
            Err(ExploreError::BudgetTooTight { .. }) => stopped = true,
            Err(e) => failure = Some(e),
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The paper's Table-3 sweep points.
pub fn paper_extras() -> Vec<u64> {
    vec![86_144, 2_351_232, 3_133_568, 3_481_728]
}

/// Finds the on-chip bandwidth crossover of `spec`: the smallest number
/// of reclaimed data-path cycles at which some on-chip group's accesses
/// are forced to overlap *themselves* (requiring a multi-port module no
/// matter how groups are partitioned — the point where the on-chip
/// organization cost must rise). This is the working point at which the
/// paper runs its allocation sweep — its Table 4 `k = 4` row equals its
/// Table 3 15.7 % row.
///
/// The probe budgets (1 % steps of [`CYCLE_BUDGET`], up to 39 %) are
/// distributed through `ctx` (so through its cache when one is
/// attached), in ascending chunks of `workers` budgets (`0` = one per
/// core), each chunk fanned over the worker pool. The scan stops at the
/// first forced-multiport budget in budget order, so the answer does not
/// depend on `workers`; with one worker the chunks hold one budget each
/// and no thread is spawned.
///
/// # Errors
///
/// Propagates scheduling errors, except that a too-tight budget is not
/// one: it ends the scan, and the last budget without forced multiport
/// is returned.
pub fn on_chip_crossover_extra_cached<'a>(
    spec: &AppSpec,
    ctx: impl Into<EvalCtx<'a>>,
    workers: usize,
) -> Result<u64, ExploreError> {
    let ctx = ctx.into();
    let step = CYCLE_BUDGET / 100;
    let extras: Vec<u64> = (0..CYCLE_BUDGET * 2 / 5).step_by(step as usize).collect();
    let chunk = match workers {
        0 => auto_workers(),
        w => w,
    };
    let forced_multiport = |result: &ScbdResult| {
        spec.basic_groups().iter().any(|g| {
            g.placement() != Placement::OffChip
                && result.required_ports(|x| x == g.id()) > g.min_ports()
        })
    };
    let mut last_free = 0;
    for probes in extras.chunks(chunk) {
        let outcomes = parallel_map(probes, chunk, |_, &extra| {
            ctx.distribute(spec, CYCLE_BUDGET - extra)
                .map(|result| forced_multiport(&result))
        });
        for (&extra, outcome) in probes.iter().zip(outcomes) {
            match outcome {
                Ok(true) => return Ok(extra),
                Ok(false) => last_free = extra,
                Err(ExploreError::BudgetTooTight { .. }) => return Ok(last_free),
                Err(e) => return Err(e),
            }
        }
    }
    Ok(last_free)
}

/// The extended Table-3 sweep: the paper's four points plus a denser
/// sweep through our schedule's crossover region (the absolute
/// crossover fractions differ from the paper's because the access
/// densities of the two BTPC implementations differ; the Table 3 rows
/// of `tests/golden/paper_tables.txt` pin ours). The crossover probe
/// runs on the context's worker pool and cache; the list is the same
/// for every worker count.
///
/// # Errors
///
/// Propagates transform and scheduling errors.
pub fn extended_extras(ctx: &PaperContext) -> Result<Vec<u64>, ExploreError> {
    let spec = best_hierarchy_spec(ctx)?;
    let crossover = on_chip_crossover_extra_cached(&spec, ctx.eval_ctx(), ctx.workers)?;
    let mut extras = paper_extras();
    for delta in [-2i64, 0, 2, 4, 6, 8, 10] {
        let extra = crossover as i64 + delta * (CYCLE_BUDGET / 100) as i64;
        if extra > 0 && (extra as u64) < CYCLE_BUDGET {
            extras.push(extra as u64);
        }
    }
    extras.sort_unstable();
    extras.dedup();
    Ok(extras)
}

/// One row of the Table-4 allocation sweep.
#[derive(Debug)]
pub struct AllocationRow {
    /// On-chip memories allocated.
    pub memories: u32,
    /// The evaluation with that allocation.
    pub report: CostReport,
}

/// **Table 4** — different on-chip memory allocations on the Table-2
/// winner at the working budget: just past the on-chip bandwidth
/// crossover, mirroring the paper, which runs its allocation sweep at
/// the 15.7 %-tightened point where its on-chip cost first rises (its
/// Table 4 `k = 4` row equals its Table 3 15.7 % row).
///
/// # Errors
///
/// Propagates pipeline errors.
pub fn table4(ctx: &PaperContext, counts: &[u32]) -> Result<Vec<AllocationRow>, ExploreError> {
    let mut rows = Vec::new();
    table4_stream(ctx, counts, |row| rows.push(row))?;
    Ok(rows)
}

/// Streaming Table 4: `on_row` receives each [`AllocationRow`] in sweep
/// order as it completes (see [`table3_stream`] for why streaming
/// matters on large sweeps).
///
/// # Errors
///
/// Propagates the first (by sweep order) failing point's error; rows
/// before it are still delivered.
pub fn table4_stream(
    ctx: &PaperContext,
    counts: &[u32],
    mut on_row: impl FnMut(AllocationRow),
) -> Result<(), ExploreError> {
    let spec = best_hierarchy_spec(ctx)?;
    // The paper's 15.7 % working point. Every point shares (spec,
    // budget): the engine schedules once and fans only the allocation
    // searches over the workers.
    let budget = CYCLE_BUDGET - 3_133_568;
    let points: Vec<DesignPoint> = counts
        .iter()
        .map(|&k| {
            DesignPoint::new(
                format!("{k} on-chip memories"),
                &spec,
                EvaluateOptions {
                    cycle_budget: Some(budget),
                    alloc: AllocOptions {
                        on_chip_memories: Some(k),
                        ..ctx.alloc.clone()
                    },
                },
            )
        })
        .collect();
    let mut failure: Option<ExploreError> = None;
    ctx.engine().evaluate_stream(&points, |i, result| {
        if failure.is_some() {
            return;
        }
        match result {
            Ok(report) => on_row(AllocationRow {
                memories: counts[i],
                report,
            }),
            Err(e) => failure = Some(e),
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The paper's Table-4 allocation counts.
pub fn paper_allocations() -> Vec<u32> {
    vec![4, 5, 8, 10, 14]
}

/// Off-chip group count of the [`plateau_spec`] bench instance: big
/// enough that the full Bell tree (~142 k nodes at 10 groups) dwarfs
/// the dominance-collapsed tree (2^10 - 1 nodes), small enough that the
/// dominance-*disabled* run still proves its optimum within the default
/// node budget — so `scripts/bench_baseline.sh` can record both node
/// counts from finished searches and `bench_regression.sh` can gate
/// their ratio.
pub const PLATEAU_GROUPS: usize = 10;

/// A synthetic worst-case tie plateau for the off-chip partition
/// search: `count` bitwise-symmetric off-chip frame stores (identical
/// size, width, traffic, no port conflicts), so every partition prices
/// identically and the lower bound alone cannot cut the Bell-number
/// tree — only the symmetric-group dominance rule can. This is the
/// instance behind the `plateau_dominance` binary and the
/// `table4_dominance_cuts` bench field; it deliberately bypasses the
/// BTPC codec so the plateau shape is exact, not profile-dependent.
///
/// # Panics
///
/// Panics if spec construction fails — the builder calls are
/// deterministic and covered by the binary's smoke run.
pub fn plateau_spec(count: usize) -> AppSpec {
    let mut b = AppSpecBuilder::new("plateau");
    let groups: Vec<_> = (0..count)
        .map(|i| {
            b.basic_group_placed(format!("frame{i}"), 4 << 20, 8, Placement::OffChip)
                .expect("plateau group construction is deterministic")
        })
        .collect();
    let n = b
        .loop_nest("scan", 10)
        .expect("plateau nest construction is deterministic");
    for &g in &groups {
        b.access(n, g, AccessKind::Read)
            .expect("plateau access construction is deterministic");
    }
    b.cycle_budget(100_000);
    b.build()
        .expect("plateau spec construction is deterministic")
}
