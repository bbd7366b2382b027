//! Persistent, disk-backed evaluation cache.
//!
//! The engine memoizes storage-cycle-budget distributions per batch (see
//! [`crate::engine`]), but every binary run and every CI job used to
//! recompute identical schedules from scratch. This module makes the
//! memoization *durable*: a content-addressed store under a cache
//! directory, carried across processes (and, via the CI cache, across
//! whole workflow runs), turning the table/figure suite incremental.
//!
//! # Entry kinds
//!
//! The store holds three kinds of entries, each in its own
//! subdirectory with its own `kind` discriminant in the record header:
//!
//! * **SCBD schedules** ([`EvalCtx::distribute`]) — the storage-cycle
//!   budget distribution of one spec at one budget,
//! * **allocation solutions** ([`EvalCache::load_alloc`]) — the full
//!   [`crate::alloc::Organization`] *and* the [`crate::alloc::AllocStats`]
//!   of one solved allocation instance, so a hit short-circuits the
//!   branch-and-bound entirely while `[alloc nodes: N]` telemetry
//!   replays exactly what the stored solve cost,
//! * **priced off-chip block catalogs**
//!   ([`EvalCache::load_off_chip_blocks`]) — the lazy block-pricer memo
//!   of one off-chip partition search, so even an allocation *miss*
//!   (e.g. under a different node limit) starts with every subset it
//!   will price already priced.
//!
//! # Keying
//!
//! An entry is addressed by a [`CacheKey`]:
//!
//! * a **content hash**: for SCBD entries the specification's
//!   [`AppSpec::content_hash`] (every field that influences
//!   scheduling); for allocation entries a fingerprint of the *solver
//!   inputs* — the accessed groups (dimensions, minimum ports,
//!   traffic), the schedule's port-conflict slot table and the
//!   real-time window — so two specs that induce the same allocation
//!   instance share one entry,
//! * a **budget**: the cycle budget for SCBD entries, the
//!   branch-and-bound node limit for allocation entries (the incumbent
//!   under an exhausted budget depends on it),
//! * a **model fingerprint** — a stable hash over the model constants
//!   feeding the result (access timing + scheduler pressure weights
//!   for SCBD; the full [`memx_memlib::OnChipModel`], the off-chip part
//!   catalog and the energy calibration factors for allocation), so
//!   recalibrating the technology model invalidates every stale entry
//!   by construction (the key changes, old entries simply stop being
//!   found),
//! * a **knobs fingerprint** for solver options: the per-kind
//!   algorithm revision, plus — for allocation — every
//!   [`crate::alloc::AllocOptions`] field that steers the result
//!   (bound kind, memory-count constraint, cost weights, port cap).
//!   Worker count is deliberately *excluded*: the solver is documented
//!   (and CI-enforced) bit-identical for every worker count, so one
//!   entry serves them all.
//!
//! # Format and robustness
//!
//! Entries are small binary files: a magic/version header, the full key
//! echoed back (so a 64-bit filename collision can never serve the
//! wrong schedule), a length-prefixed payload and an FNV-1a checksum.
//! Writes go through a tempfile in the same directory followed by an
//! atomic rename, so concurrent writers (two processes racing on the
//! same key) each publish a complete entry and readers never observe a
//! torn file. Reads are corruption-tolerant by design: *any* anomaly —
//! truncation, a wrong version, a checksum mismatch, a key echo that
//! does not match — degrades to a silent recompute, never an error.
//! Derived data (the sparse occupancy table) is always rebuilt from the
//! serialized placements rather than trusted from disk.
//!
//! Cache hits are bit-identical to recomputation: every field round
//! trips exactly (integers verbatim, floats by bit pattern), which is
//! what lets CI diff cached against uncached runs byte for byte.
//!
//! # Example
//!
//! ```
//! use memx_core::cache::{EvalCache, EvalCtx};
//! use memx_core::scbd::Plan;
//! use memx_ir::{AccessKind, AppSpecBuilder};
//! use memx_memlib::MemLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = AppSpecBuilder::new("demo");
//! let g = b.basic_group("g", 64, 8)?;
//! let n = b.loop_nest("l", 100)?;
//! b.access(n, g, AccessKind::Read)?;
//! b.cycle_budget(10_000);
//! let spec = b.build()?;
//!
//! let dir = std::env::temp_dir().join("memx-cache-doc");
//! let lib = MemLibrary::default_07um();
//! let cache = EvalCache::open(&dir)?;
//! let ctx = EvalCtx { lib: &lib, cache: Some(&cache) };
//! let mut plan = Plan::new(&spec);
//! let cold = ctx.distribute(&mut plan, 10_000)?; // computes, then stores
//! let warm = ctx.distribute(&mut plan, 10_000)?; // served from disk
//! assert_eq!(cold.total_budget, warm.total_budget);
//! assert!(cache.stats().scbd_hits >= 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "monotone hit/miss statistics on the evaluation cache"
)]

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use memx_ir::hash::StableHasher;
use memx_ir::{AppSpec, BasicGroupId, LoopNestId};
use memx_memlib::{calibration, timing, CostBreakdown, MemLibrary, OffChipPart, OffChipSelection};

use crate::alloc::{AllocOptions, AllocStats, BoundKind, MemoryInstance, MemoryKind, Organization};
use crate::scbd::{self, BodySchedule, Occupant, PlacedAccess, ScbdResult};
use crate::ExploreError;

/// Magic bytes every cache entry starts with.
const MAGIC: &[u8; 8] = b"MEMXEVC\0";
/// On-disk format version. Bump on any layout change: old entries are
/// then unreadable and silently recomputed.
const FORMAT_VERSION: u32 = 1;
/// Entry kind tag for SCBD schedules.
const KIND_SCBD: u32 = 1;
/// Entry kind tag for full allocation solutions
/// ([`Organization`] + [`AllocStats`]).
const KIND_ALLOC: u32 = 2;
/// Entry kind tag for priced off-chip block catalogs (the block-pricer
/// memo of one off-chip partition search).
const KIND_OFF_CHIP_BLOCKS: u32 = 3;
/// Revision of the SCBD algorithm itself. Folded into the knobs
/// fingerprint: an algorithm change produces different schedules, so it
/// must miss all old entries.
///
/// **Bump this on any schedule-affecting code change** in
/// `core::scbd` (balancing/placement/grant logic) or `core::macp`
/// (access durations, critical paths). Numeric tunables — the pressure
/// weights, the grant lookahead, the timing constants — are hashed
/// directly into the fingerprints and need no manual bump; *structural*
/// changes are what this revision exists for. The backstop for a
/// forgotten bump is the cache gate of `memx-gates`, which CI runs on a
/// cache carried across commits and diffs against an uncached reference
/// run of the current binaries.
pub const SCBD_ALGO_REVISION: u64 = 1;
/// Revision of the allocation solver. Folded into the knobs fingerprint
/// of allocation entries.
///
/// **Bump this on any result-affecting code change** in `core::alloc` —
/// bound formulas, tie-breaks, traversal order, the greedy seed, the
/// float accumulation order. Numeric model constants and
/// [`AllocOptions`] knobs are hashed into the fingerprints directly and
/// need no bump; *structural* solver changes are what this revision
/// exists for. Because cached entries replay [`AllocStats`] too, a
/// pruning improvement that leaves results identical but changes node
/// counts also warrants a bump, or warm `[alloc nodes: N]` lines keep
/// reporting the retired heuristic's effort.
///
/// Revision 2: symmetric-group dominance + incremental bounds (results
/// bit-identical, node counts and stats layout changed).
pub const ALLOC_ALGO_REVISION: u64 = 2;
/// Revision of the off-chip block pricer. Folded into the knobs
/// fingerprint of [`KIND_OFF_CHIP_BLOCKS`] entries; bump on any change
/// to how a group subset is priced (port gating, device ganging,
/// the power formula's accumulation order).
const OFF_CHIP_BLOCKS_ALGO_REVISION: u64 = 1;

/// Stable fingerprint of everything *besides the spec and budget* that
/// determines a storage-cycle-budget distribution: the access-timing
/// constants of the technology model and the scheduler's pressure
/// weights. Recalibrating any of them changes this fingerprint and
/// thereby the [`CacheKey`] — stale entries are never even looked at.
pub fn scbd_model_fingerprint() -> u64 {
    let mut h = StableHasher::new();
    h.write_str("scbd-model");
    h.write_u64(timing::ON_CHIP_CYCLES);
    h.write_u64(timing::OFF_CHIP_RANDOM_CYCLES);
    h.write_u64(timing::OFF_CHIP_BURST_CYCLES);
    h.write_f64(scbd::SAME_GROUP_COST);
    h.write_f64(scbd::OFF_CHIP_PAIR_COST);
    h.write_f64(scbd::ON_CHIP_PAIR_COST);
    h.write_f64(scbd::MIXED_PAIR_COST);
    h.finish()
}

/// Stable fingerprint of the technology-model constants feeding an
/// allocation result: the complete on-chip module-generator model, the
/// off-chip part catalog (every datasheet row), the dual-port
/// calibration factors and the burst energy discount. Recalibrating any
/// of them (or swapping the catalog) changes this fingerprint and
/// thereby the [`CacheKey`] of every allocation and block-catalog
/// entry — stale entries are never even looked at.
pub fn alloc_model_fingerprint(lib: &MemLibrary) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("alloc-model");
    let on = lib.on_chip();
    h.write_f64(on.area_per_bit_mm2());
    h.write_f64(on.bank_words());
    h.write_f64(on.module_overhead_mm2());
    h.write_f64(on.decode_area_mm2());
    h.write_f64(on.port_area_factor());
    h.write_f64(on.energy_base_pj());
    h.write_f64(on.energy_per_sqrt_word_pj());
    h.write_f64(on.energy_width_offset());
    h.write_f64(on.energy_width_norm());
    h.write_f64(on.port_energy_factor());
    let parts = lib.off_chip().parts();
    h.write_u64(parts.len() as u64);
    for p in parts {
        h.write_str(p.name());
        h.write_u64(p.words());
        h.write_u64(u64::from(p.width()));
        h.write_f64(p.energy_pj());
        h.write_f64(p.static_mw());
    }
    h.write_f64(calibration::OFF_CHIP_TWO_PORT_ENERGY_FACTOR);
    h.write_f64(calibration::OFF_CHIP_TWO_PORT_STATIC_FACTOR);
    h.write_f64(timing::OFF_CHIP_BURST_ENERGY_FACTOR);
    h.finish()
}

/// The full content address of one cache entry (see the module docs).
///
/// The key is stored inside the entry and compared on read, so a
/// filename collision between two distinct keys degrades to a miss
/// instead of serving the wrong payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// Content hash of the cached computation's input: the spec's
    /// [`AppSpec::content_hash`] for SCBD entries, the allocation
    /// instance fingerprint for allocation and block-catalog entries.
    pub content_hash: u64,
    /// The resource budget: cycle budget for SCBD entries, node limit
    /// for allocation entries, unused (0) for block catalogs.
    pub budget: u64,
    /// [`scbd_model_fingerprint`] or [`alloc_model_fingerprint`] at
    /// write time.
    pub model_fingerprint: u64,
    /// Solver-knob fingerprint (per-kind algorithm revision plus every
    /// result-steering option).
    pub knobs_fingerprint: u64,
}

impl CacheKey {
    /// The key under which `spec`'s distribution at `budget` is stored,
    /// using the current model and knob fingerprints.
    pub fn scbd(spec: &AppSpec, budget: u64) -> Self {
        let mut knobs = StableHasher::new();
        knobs.write_str("scbd-knobs");
        knobs.write_u64(SCBD_ALGO_REVISION);
        knobs.write_u64(scbd::GRANT_LOOKAHEAD);
        CacheKey {
            content_hash: spec.content_hash(),
            budget,
            model_fingerprint: scbd_model_fingerprint(),
            knobs_fingerprint: knobs.finish(),
        }
    }

    /// The key under which the allocation solution of the instance
    /// fingerprinted as `instance` is stored, for the given technology
    /// library and solver options.
    ///
    /// `options.workers` is deliberately not part of the key: the
    /// solver returns bit-identical organizations for every worker
    /// count (CI-enforced), so one entry serves them all. Everything
    /// else that steers the result — bound kind, memory-count
    /// constraint, cost weights, port cap, node limit — is keyed.
    pub fn alloc(instance: u64, lib: &MemLibrary, options: &AllocOptions) -> Self {
        let mut knobs = StableHasher::new();
        knobs.write_str("alloc-knobs");
        knobs.write_u64(ALLOC_ALGO_REVISION);
        knobs.write_u64(match options.bound {
            BoundKind::Solo => 0,
            BoundKind::Pairwise => 1,
        });
        match options.on_chip_memories {
            None => knobs.write_u64(0),
            Some(k) => {
                knobs.write_u64(1);
                knobs.write_u64(u64::from(k));
            }
        }
        knobs.write_f64(options.area_weight);
        knobs.write_f64(options.power_weight);
        knobs.write_u64(u64::from(options.max_on_chip_ports));
        // Dominance never changes the organization, but replayed stats
        // (node counts, dominance cuts) differ — key it so a baseline
        // run with dominance off is never served a with-dominance entry.
        knobs.write_u64(u64::from(options.off_chip_dominance));
        CacheKey {
            content_hash: instance,
            budget: options.node_limit,
            model_fingerprint: alloc_model_fingerprint(lib),
            knobs_fingerprint: knobs.finish(),
        }
    }

    /// The key under which the priced block catalog of the off-chip
    /// instance fingerprinted as `instance` is stored. Block prices are
    /// pure functions of the groups, the conflict slots and the
    /// technology library — no [`AllocOptions`] field influences them —
    /// so the budget slot is unused and the knobs fingerprint carries
    /// only the pricer revision.
    pub fn off_chip_blocks(instance: u64, lib: &MemLibrary) -> Self {
        let mut knobs = StableHasher::new();
        knobs.write_str("off-chip-blocks-knobs");
        knobs.write_u64(OFF_CHIP_BLOCKS_ALGO_REVISION);
        CacheKey {
            content_hash: instance,
            budget: 0,
            model_fingerprint: alloc_model_fingerprint(lib),
            knobs_fingerprint: knobs.finish(),
        }
    }

    /// The entry filename (16 hex digits) this key addresses.
    fn file_name(&self, kind: u32) -> String {
        let mut h = StableHasher::new();
        h.write_u64(u64::from(kind));
        h.write_u64(self.content_hash);
        h.write_u64(self.budget);
        h.write_u64(self.model_fingerprint);
        h.write_u64(self.knobs_fingerprint);
        format!("{:016x}.bin", h.finish())
    }
}

/// Counter snapshot of one [`EvalCache`] — the cache analogue of
/// [`crate::alloc::AllocStats`]: telemetry, not part of any result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Schedules served from disk.
    pub scbd_hits: u64,
    /// Schedules recomputed (absent, stale-keyed or corrupt entries).
    pub scbd_misses: u64,
    /// Schedule entry writes that failed (full disk, permissions).
    /// Failures are never fatal — the result was already computed — but
    /// a persistently failing cache directory is worth surfacing.
    pub scbd_write_failures: u64,
    /// Allocation solutions served from disk (each one a whole
    /// branch-and-bound run skipped).
    pub alloc_hits: u64,
    /// Allocation solutions recomputed.
    pub alloc_misses: u64,
    /// Allocation entry writes that failed.
    pub alloc_write_failures: u64,
    /// Priced off-chip block catalogs served from disk (pre-seeding the
    /// block pricer of an allocation recompute).
    pub blocks_hits: u64,
    /// Priced block catalogs recomputed.
    pub blocks_misses: u64,
    /// Block-catalog entry writes that failed.
    pub blocks_write_failures: u64,
}

impl CacheStats {
    /// Failed entry writes summed over every entry kind.
    pub fn write_failures(&self) -> u64 {
        self.scbd_write_failures + self.alloc_write_failures + self.blocks_write_failures
    }
}

/// Errors opening a cache directory.
///
/// Only [`EvalCache::open`] returns errors: once a cache is open, every
/// read anomaly degrades to a recompute and every write failure to a
/// counter tick, so evaluation itself can never fail *because of* the
/// cache.
#[derive(Debug)]
pub enum CacheError {
    /// The cache directory could not be created or is not writable.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, source } => {
                write!(f, "cache directory {} unusable: {source}", path.display())
            }
        }
    }
}

impl Error for CacheError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CacheError::Io { source, .. } => Some(source),
        }
    }
}

/// A disk-backed, content-addressed store for evaluation intermediates
/// (see the module docs).
///
/// The handle is cheap to share (`Arc<EvalCache>`) and safe to use from
/// any number of threads; the counters are atomic and the on-disk
/// protocol tolerates concurrent writers across processes.
#[derive(Debug)]
pub struct EvalCache {
    root: PathBuf,
    scbd: KindCounters,
    alloc: KindCounters,
    blocks: KindCounters,
    tmp_seq: AtomicU64,
}

/// Hit/miss/write-failure counters of one entry kind.
#[derive(Debug, Default)]
struct KindCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    write_failures: AtomicU64,
}

impl KindCounters {
    fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn write_failure(&self) {
        self.write_failures.fetch_add(1, Ordering::Relaxed);
    }
}

impl EvalCache {
    /// Opens (creating if necessary) the cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::Io`] when the directory cannot be created —
    /// the only cache failure that surfaces as an error; everything
    /// after `open` degrades silently (see the module docs).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, CacheError> {
        let root = dir.as_ref().to_path_buf();
        for kind_dir in ["scbd", "alloc", "offblocks"] {
            let dir = root.join(kind_dir);
            fs::create_dir_all(&dir).map_err(|source| CacheError::Io {
                path: dir.clone(),
                source,
            })?;
        }
        Ok(EvalCache {
            root,
            scbd: KindCounters::default(),
            alloc: KindCounters::default(),
            blocks: KindCounters::default(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A snapshot of the per-kind hit/miss/write-failure counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            scbd_hits: self.scbd.hits.load(Ordering::Relaxed),
            scbd_misses: self.scbd.misses.load(Ordering::Relaxed),
            scbd_write_failures: self.scbd.write_failures.load(Ordering::Relaxed),
            alloc_hits: self.alloc.hits.load(Ordering::Relaxed),
            alloc_misses: self.alloc.misses.load(Ordering::Relaxed),
            alloc_write_failures: self.alloc.write_failures.load(Ordering::Relaxed),
            blocks_hits: self.blocks.hits.load(Ordering::Relaxed),
            blocks_misses: self.blocks.misses.load(Ordering::Relaxed),
            blocks_write_failures: self.blocks.write_failures.load(Ordering::Relaxed),
        }
    }

    /// Reads the schedule entry addressed by `key`, or `None` on
    /// absence *or any corruption* (truncation, bad
    /// magic/version/checksum, key-echo mismatch). Does not touch the
    /// hit/miss counters — the policy layer ([`EvalCtx::distribute`])
    /// owns those.
    pub fn load_scbd(&self, key: &CacheKey) -> Option<ScbdResult> {
        let bytes = fs::read(self.scbd_path(key)).ok()?;
        decode_scbd(decode_entry(&bytes, key, KIND_SCBD)?)
    }

    /// Publishes `result` under `key` via tempfile + atomic rename.
    /// Failures tick [`CacheStats::scbd_write_failures`] and are
    /// otherwise ignored — the caller already holds the computed result.
    pub fn store_scbd(&self, key: &CacheKey, result: &ScbdResult) {
        let bytes = encode_entry(key, KIND_SCBD, encode_scbd(result));
        if self
            .write_atomically(&self.scbd_path(key), &bytes)
            .is_none()
        {
            self.scbd.write_failure();
        }
    }

    /// Reads the allocation solution addressed by `key` — the complete
    /// [`Organization`] plus the [`AllocStats`] of the stored solve, so
    /// a hit replays the recorded search effort instead of reporting a
    /// free lunch. `None` on absence or any corruption; counters are
    /// owned by the policy layer
    /// ([`crate::alloc::assign_with_stats`]).
    pub fn load_alloc(&self, key: &CacheKey) -> Option<(Organization, AllocStats)> {
        let bytes = fs::read(self.alloc_path(key)).ok()?;
        decode_alloc(decode_entry(&bytes, key, KIND_ALLOC)?)
    }

    /// Publishes an allocation solution under `key`. Failures tick
    /// [`CacheStats::alloc_write_failures`] and are otherwise ignored.
    pub fn store_alloc(&self, key: &CacheKey, org: &Organization, stats: &AllocStats) {
        let bytes = encode_entry(key, KIND_ALLOC, encode_alloc(org, stats));
        if self
            .write_atomically(&self.alloc_path(key), &bytes)
            .is_none()
        {
            self.alloc.write_failure();
        }
    }

    /// Reads the priced off-chip block catalog addressed by `key`: the
    /// `(subset mask, price)` memo a previous partition search built,
    /// used to pre-seed the block pricer. `None` on absence or any
    /// corruption.
    pub fn load_off_chip_blocks(&self, key: &CacheKey) -> Option<Vec<(u64, Option<f64>)>> {
        let bytes = fs::read(self.blocks_path(key)).ok()?;
        decode_blocks(decode_entry(&bytes, key, KIND_OFF_CHIP_BLOCKS)?)
    }

    /// Publishes a priced block catalog under `key`. Failures tick
    /// [`CacheStats::blocks_write_failures`] and are otherwise ignored.
    pub fn store_off_chip_blocks(&self, key: &CacheKey, entries: &[(u64, Option<f64>)]) {
        let bytes = encode_entry(key, KIND_OFF_CHIP_BLOCKS, encode_blocks(entries));
        if self
            .write_atomically(&self.blocks_path(key), &bytes)
            .is_none()
        {
            self.blocks.write_failure();
        }
    }

    /// Ticks the allocation hit counter (policy layer lives in
    /// `crate::alloc`, which owns the load/compute/store decision).
    pub(crate) fn note_alloc_hit(&self) {
        self.alloc.hit();
    }

    /// Ticks the allocation miss counter.
    pub(crate) fn note_alloc_miss(&self) {
        self.alloc.miss();
    }

    /// Ticks the block-catalog hit counter.
    pub(crate) fn note_blocks_hit(&self) {
        self.blocks.hit();
    }

    /// Ticks the block-catalog miss counter.
    pub(crate) fn note_blocks_miss(&self) {
        self.blocks.miss();
    }

    fn scbd_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join("scbd").join(key.file_name(KIND_SCBD))
    }

    fn alloc_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join("alloc").join(key.file_name(KIND_ALLOC))
    }

    fn blocks_path(&self, key: &CacheKey) -> PathBuf {
        self.root
            .join("offblocks")
            .join(key.file_name(KIND_OFF_CHIP_BLOCKS))
    }

    /// Tempfile-then-rename publication; `None` on any I/O failure.
    fn write_atomically(&self, path: &Path, bytes: &[u8]) -> Option<()> {
        let dir = path.parent()?;
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{}.{}.{seq}.tmp",
            path.file_name()?.to_str()?,
            std::process::id()
        ));
        let publish = (|| {
            let mut f = fs::File::create(&tmp).ok()?;
            f.write_all(bytes).ok()?;
            drop(f);
            fs::rename(&tmp, path).ok()
        })();
        if publish.is_none() {
            fs::remove_file(&tmp).ok();
        }
        publish
    }
}

/// The borrowed context of one evaluation: the technology library every
/// stage prices against, plus the persistent cache when one is
/// attached. Each stage has one entry point taking it —
/// [`EvalCtx::distribute`] for SCBD, [`crate::alloc::assign_with_stats`]
/// for allocation and [`crate::explore::evaluate`] end to end.
///
/// A bare `&MemLibrary` converts into an uncached context, so uncached
/// callers simply pass `&lib`. Results are bit-identical with or
/// without a cache — only the work to produce them changes.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// The calibrated technology library.
    pub lib: &'a MemLibrary,
    /// The persistent evaluation cache, if any.
    pub cache: Option<&'a EvalCache>,
}

impl<'a> From<&'a MemLibrary> for EvalCtx<'a> {
    fn from(lib: &'a MemLibrary) -> Self {
        EvalCtx { lib, cache: None }
    }
}

impl EvalCtx<'_> {
    /// Distributes the storage cycle budget of `plan`'s spec like
    /// [`scbd::Plan::distribute`]; with a cache attached, the result is
    /// served from disk when a valid entry exists and stored otherwise.
    /// Hits are bit-identical to recomputation. A budget sweep passes one
    /// plan for all its budgets, so the misses share its pressure memo.
    ///
    /// Errors ([`ExploreError::BudgetTooTight`]) are never cached: they
    /// are cheap to rediscover and a budget that fails today may be
    /// retried under a changed spec tomorrow.
    ///
    /// # Errors
    ///
    /// Exactly those of [`scbd::Plan::distribute`]; the cache itself
    /// never fails an evaluation.
    pub fn distribute(
        &self,
        plan: &mut scbd::Plan<'_>,
        budget: u64,
    ) -> Result<ScbdResult, ExploreError> {
        let Some(cache) = self.cache else {
            return plan.distribute(budget);
        };
        let key = CacheKey::scbd(plan.spec(), budget);
        if let Some(result) = cache.load_scbd(&key) {
            cache.scbd.hit();
            return Ok(result);
        }
        let result = plan.distribute(budget)?;
        cache.scbd.miss();
        cache.store_scbd(&key, &result);
        Ok(result)
    }
}

// --- binary entry format -------------------------------------------------

/// Frames a payload with the shared record envelope: magic, version,
/// kind discriminant, full key echo, length prefix and checksum.
fn encode_entry(key: &CacheKey, kind: u32, payload: Vec<u8>) -> Vec<u8> {
    let mut checksum = StableHasher::new();
    checksum.write_bytes(&payload);

    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&key.content_hash.to_le_bytes());
    out.extend_from_slice(&key.budget.to_le_bytes());
    out.extend_from_slice(&key.model_fingerprint.to_le_bytes());
    out.extend_from_slice(&key.knobs_fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum.finish().to_le_bytes());
    out
}

/// Validates the shared envelope and returns the payload slice, or
/// `None` on any anomaly (the caller treats that as a miss).
fn decode_entry<'a>(bytes: &'a [u8], key: &CacheKey, kind: u32) -> Option<&'a [u8]> {
    let mut r = Reader::new(bytes);
    if r.take(MAGIC.len())? != MAGIC.as_slice() {
        return None;
    }
    if r.u32()? != FORMAT_VERSION || r.u32()? != kind {
        return None;
    }
    let echoed = CacheKey {
        content_hash: r.u64()?,
        budget: r.u64()?,
        model_fingerprint: r.u64()?,
        knobs_fingerprint: r.u64()?,
    };
    if echoed != *key {
        return None;
    }
    let len = usize::try_from(r.u64()?).ok()?;
    let payload = r.take(len)?;
    let mut checksum = StableHasher::new();
    checksum.write_bytes(payload);
    if r.u64()? != checksum.finish() || !r.at_end() {
        return None;
    }
    Some(payload)
}

fn encode_scbd(result: &ScbdResult) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, result.bodies.len() as u64);
    for body in &result.bodies {
        push_u64(&mut out, body.nest.index() as u64);
        push_str(&mut out, &body.name);
        push_u64(&mut out, body.iterations);
        push_u64(&mut out, body.budget);
        push_u64(&mut out, body.placements().len() as u64);
        for p in body.placements() {
            push_u64(&mut out, p.occupant.group.index() as u64);
            out.push(u8::from(p.occupant.off_chip));
            push_u64(&mut out, p.start);
            push_u64(&mut out, p.duration);
        }
    }
    push_u64(&mut out, result.used_cycles);
    push_u64(&mut out, result.total_budget);
    out
}

/// Minimum encoded bytes per body record (empty name, no placements):
/// nest + name length + iterations + budget + placement count.
const MIN_BODY_BYTES: usize = 5 * 8;
/// Minimum encoded bytes per placement record: group + off-chip flag +
/// start + duration.
const MIN_PLACEMENT_BYTES: usize = 8 + 1 + 8 + 8;

fn decode_scbd(payload: &[u8]) -> Option<ScbdResult> {
    let mut r = Reader::new(payload);
    let body_count = r.count_prefix(MIN_BODY_BYTES)?;
    let mut bodies = Vec::with_capacity(body_count);
    for _ in 0..body_count {
        let nest = LoopNestId::from_index(usize::try_from(r.u64()?).ok()?);
        let name = r.string()?;
        let iterations = r.u64()?;
        let budget = r.u64()?;
        let placement_count = r.count_prefix(MIN_PLACEMENT_BYTES)?;
        let mut placements = Vec::with_capacity(placement_count);
        for _ in 0..placement_count {
            let group = BasicGroupId::from_index(usize::try_from(r.u64()?).ok()?);
            let off_chip = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let start = r.u64()?;
            let duration = r.u64()?;
            placements.push(PlacedAccess {
                occupant: Occupant { group, off_chip },
                start,
                duration,
            });
        }
        // The sparse occupancy table is *derived* state: always rebuilt
        // from the placements, never read from disk.
        bodies.push(BodySchedule::new(
            nest, name, iterations, budget, placements,
        ));
    }
    let used_cycles = r.u64()?;
    let total_budget = r.u64()?;
    if !r.at_end() {
        return None;
    }
    Some(ScbdResult {
        bodies,
        used_cycles,
        total_budget,
    })
}

/// Minimum encoded bytes per memory record (no groups, on-chip): group
/// count + words + width + ports + kind tag + cost triple.
const MIN_MEMORY_BYTES: usize = 4 * 8 + 1 + 3 * 8;

fn encode_alloc(org: &Organization, stats: &AllocStats) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, org.memories.len() as u64);
    for m in &org.memories {
        push_u64(&mut out, m.groups.len() as u64);
        for g in &m.groups {
            push_u64(&mut out, g.index() as u64);
        }
        push_u64(&mut out, m.words);
        push_u64(&mut out, u64::from(m.width));
        push_u64(&mut out, u64::from(m.ports));
        match &m.kind {
            MemoryKind::OnChip => out.push(0),
            MemoryKind::OffChip(sel) => {
                out.push(1);
                push_str(&mut out, sel.part().name());
                push_u64(&mut out, sel.part().words());
                push_u64(&mut out, u64::from(sel.part().width()));
                push_f64(&mut out, sel.part().energy_pj());
                push_f64(&mut out, sel.part().static_mw());
                push_u64(&mut out, u64::from(sel.devices_wide()));
                push_u64(&mut out, u64::from(sel.ranks()));
                push_u64(&mut out, u64::from(sel.ports()));
            }
        }
        push_cost(&mut out, &m.cost);
    }
    push_cost(&mut out, &org.cost);
    push_u64(&mut out, stats.bb_nodes);
    push_u64(&mut out, stats.sweep_skips);
    push_u64(&mut out, stats.off_chip_partitions);
    push_u64(&mut out, stats.off_chip_bb_nodes);
    push_u64(&mut out, stats.off_chip_pruned_subtrees);
    push_u64(&mut out, stats.off_chip_exhaustive_partitions);
    push_u64(&mut out, stats.off_chip_dominance_cuts);
    push_u64(&mut out, stats.bound_incremental_updates);
    out
}

fn decode_alloc(payload: &[u8]) -> Option<(Organization, AllocStats)> {
    let mut r = Reader::new(payload);
    let memory_count = r.count_prefix(MIN_MEMORY_BYTES)?;
    let mut memories = Vec::with_capacity(memory_count);
    for _ in 0..memory_count {
        let group_count = r.count_prefix(8)?;
        let mut groups = Vec::with_capacity(group_count);
        for _ in 0..group_count {
            groups.push(BasicGroupId::from_index(usize::try_from(r.u64()?).ok()?));
        }
        let words = r.u64()?;
        let width = u32::try_from(r.u64()?).ok()?;
        let ports = u32::try_from(r.u64()?).ok()?;
        let kind = match r.u8()? {
            0 => MemoryKind::OnChip,
            1 => {
                // Every constructor precondition is validated *before*
                // construction: a corrupt entry must read as a miss,
                // not panic inside `OffChipPart::new`.
                let name = r.string()?;
                let part_words = r.u64()?;
                let part_width = u32::try_from(r.u64()?).ok()?;
                let energy_pj = r.f64()?;
                let static_mw = r.f64()?;
                let devices_wide = u32::try_from(r.u64()?).ok()?;
                let ranks = u32::try_from(r.u64()?).ok()?;
                let sel_ports = u32::try_from(r.u64()?).ok()?;
                if part_words == 0 || part_width == 0 {
                    return None;
                }
                if !(energy_pj.is_finite() && energy_pj > 0.0) {
                    return None;
                }
                if !(static_mw.is_finite() && static_mw > 0.0) {
                    return None;
                }
                if devices_wide == 0 || ranks == 0 || !(1..=2).contains(&sel_ports) {
                    return None;
                }
                let part = OffChipPart::new(name, part_words, part_width, energy_pj, static_mw);
                MemoryKind::OffChip(OffChipSelection::from_parts(
                    part,
                    devices_wide,
                    ranks,
                    sel_ports,
                ))
            }
            _ => return None,
        };
        let cost = read_cost(&mut r)?;
        memories.push(MemoryInstance {
            groups,
            words,
            width,
            ports,
            kind,
            cost,
        });
    }
    let cost = read_cost(&mut r)?;
    let stats = AllocStats {
        bb_nodes: r.u64()?,
        sweep_skips: r.u64()?,
        off_chip_partitions: r.u64()?,
        off_chip_bb_nodes: r.u64()?,
        off_chip_pruned_subtrees: r.u64()?,
        off_chip_exhaustive_partitions: r.u64()?,
        off_chip_dominance_cuts: r.u64()?,
        bound_incremental_updates: r.u64()?,
    };
    if !r.at_end() {
        return None;
    }
    Some((Organization { memories, cost }, stats))
}

/// Encoded bytes per block-catalog record: mask + presence flag (the
/// optional price only follows a `1` flag).
const MIN_BLOCK_BYTES: usize = 8 + 1;

fn encode_blocks(entries: &[(u64, Option<f64>)]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, entries.len() as u64);
    for &(mask, price) in entries {
        push_u64(&mut out, mask);
        match price {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                push_f64(&mut out, p);
            }
        }
    }
    out
}

fn decode_blocks(payload: &[u8]) -> Option<Vec<(u64, Option<f64>)>> {
    let mut r = Reader::new(payload);
    let count = r.count_prefix(MIN_BLOCK_BYTES)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let mask = r.u64()?;
        let price = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            _ => return None,
        };
        entries.push((mask, price));
    }
    if !r.at_end() {
        return None;
    }
    Some(entries)
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Floats are stored by bit pattern, so every value (including -0.0 and
/// the exact accumulation results tie-breaks depend on) round trips
/// bit-identically.
fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_cost(out: &mut Vec<u8>, c: &CostBreakdown) {
    push_f64(out, c.on_chip_area_mm2);
    push_f64(out, c.on_chip_power_mw);
    push_f64(out, c.off_chip_power_mw);
}

fn read_cost(r: &mut Reader<'_>) -> Option<CostBreakdown> {
    Some(CostBreakdown {
        on_chip_area_mm2: r.f64()?,
        on_chip_power_mw: r.f64()?,
        off_chip_power_mw: r.f64()?,
    })
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader: every short read is a `None`,
/// which the entry decoder turns into a silent cache miss.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Sanity cap on length prefixes, so a corrupt length cannot ask for
    /// a multi-gigabyte allocation before the bounds check catches it.
    const MAX_LEN: u64 = 1 << 32;

    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A float stored by bit pattern (see [`push_f64`]).
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A length prefix, rejected when absurd (see [`Self::MAX_LEN`]).
    fn len_prefix(&mut self) -> Option<usize> {
        let v = self.u64()?;
        if v > Self::MAX_LEN {
            return None;
        }
        usize::try_from(v).ok()
    }

    /// A record-count prefix, rejected when the remaining payload
    /// cannot possibly hold that many records of at least
    /// `min_record_bytes` each. This bounds every `Vec::with_capacity`
    /// the decoder performs by the actual entry size, so even a
    /// checksum-consistent corrupt count cannot request a giant
    /// allocation — it reads as a miss like every other anomaly.
    fn count_prefix(&mut self, min_record_bytes: usize) -> Option<usize> {
        let v = self.len_prefix()?;
        if v > self.remaining() / min_record_bytes {
            return None;
        }
        Some(v)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.len_prefix()?;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memx_ir::{AccessKind, AppSpecBuilder, Placement};

    fn spec() -> AppSpec {
        let mut b = AppSpecBuilder::new("cache-test");
        let x = b.basic_group("x", 64, 8).unwrap();
        let y = b.basic_group("y", 64, 8).unwrap();
        let far = b
            .basic_group_placed("far", 1 << 16, 16, Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("l", 100).unwrap();
        let rx = b.access(n, x, AccessKind::Read).unwrap();
        let ry = b.access(n, y, AccessKind::Read).unwrap();
        let rf = b.access_full(n, far, AccessKind::Read, 0.5, true).unwrap();
        let w = b.access(n, x, AccessKind::Write).unwrap();
        b.depend(n, rx, w).unwrap();
        b.depend(n, ry, w).unwrap();
        b.depend(n, rf, w).unwrap();
        b.cycle_budget(10_000);
        b.build().unwrap()
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "memx-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn distribute(
        cache: &EvalCache,
        spec: &AppSpec,
        budget: u64,
    ) -> Result<ScbdResult, ExploreError> {
        let lib = MemLibrary::default_07um();
        EvalCtx {
            lib: &lib,
            cache: Some(cache),
        }
        .distribute(&mut scbd::Plan::new(spec), budget)
    }

    fn assert_same(a: &ScbdResult, b: &ScbdResult) {
        assert_eq!(a.used_cycles, b.used_cycles);
        assert_eq!(a.total_budget, b.total_budget);
        assert_eq!(a.bodies.len(), b.bodies.len());
        for (x, y) in a.bodies.iter().zip(&b.bodies) {
            assert_eq!(x.nest, y.nest);
            assert_eq!(x.name, y.name);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.budget, y.budget);
            assert_eq!(x.placements(), y.placements());
            assert_eq!(x.busy_slots(), y.busy_slots());
            assert_eq!(x.pressure().to_bits(), y.pressure().to_bits());
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let dir = tempdir("roundtrip");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        let direct = scbd::distribute_with_budget(&spec, 10_000).unwrap();
        let cold = distribute(&cache, &spec, 10_000).unwrap();
        let warm = distribute(&cache, &spec, 10_000).unwrap();
        assert_same(&direct, &cold);
        assert_same(&direct, &warm);
        let stats = cache.stats();
        assert_eq!((stats.scbd_hits, stats.scbd_misses), (1, 1));
        assert_eq!(stats.write_failures(), 0);
        // A second handle on the same directory hits immediately:
        // persistence across processes in miniature.
        let other = EvalCache::open(&dir).unwrap();
        assert_same(&direct, &distribute(&other, &spec, 10_000).unwrap());
        assert_eq!(other.stats().scbd_hits, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn distinct_budgets_are_distinct_entries() {
        let dir = tempdir("budgets");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        let a = distribute(&cache, &spec, 10_000).unwrap();
        let b = distribute(&cache, &spec, 5_000).unwrap();
        assert_ne!(a.total_budget, b.total_budget);
        assert_eq!(cache.stats().scbd_misses, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_not_cached() {
        let dir = tempdir("errors");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        for _ in 0..2 {
            assert!(matches!(
                distribute(&cache, &spec, 1),
                Err(ExploreError::BudgetTooTight { .. })
            ));
        }
        let stats = cache.stats();
        assert_eq!((stats.scbd_hits, stats.scbd_misses), (0, 0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entry_degrades_to_recompute() {
        let dir = tempdir("truncate");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        let original = distribute(&cache, &spec, 10_000).unwrap();
        let path = cache.scbd_path(&CacheKey::scbd(&spec, 10_000));
        let bytes = fs::read(&path).unwrap();
        // Every possible truncation point must miss cleanly, including
        // cuts inside the header, the payload and the checksum.
        for keep in [0, 4, MAGIC.len(), 20, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                cache.load_scbd(&CacheKey::scbd(&spec, 10_000)).is_none(),
                "truncation to {keep} bytes must read as a miss"
            );
            // The policy layer recomputes and repairs the entry.
            let again = distribute(&cache, &spec, 10_000).unwrap();
            assert_same(&original, &again);
            assert!(cache.load_scbd(&CacheKey::scbd(&spec, 10_000)).is_some());
            fs::write(&path, &bytes).unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_and_flipped_bits_degrade_to_recompute() {
        let dir = tempdir("garbage");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        distribute(&cache, &spec, 10_000).unwrap();
        let key = CacheKey::scbd(&spec, 10_000);
        let path = cache.scbd_path(&key);
        let good = fs::read(&path).unwrap();

        fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(cache.load_scbd(&key).is_none());

        // A flipped payload bit fails the checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(cache.load_scbd(&key).is_none());

        // Trailing junk after a valid entry is rejected too.
        let mut padded = good.clone();
        padded.push(0);
        fs::write(&path, &padded).unwrap();
        assert!(cache.load_scbd(&key).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_consistent_giant_count_is_rejected_without_allocating() {
        // A corrupt (or adversarial — FNV is not cryptographic) entry
        // whose checksum *matches* but whose record count is absurd must
        // still read as a miss, without `Vec::with_capacity` attempting
        // a giant allocation first: counts are bounded by the bytes
        // actually present.
        let dir = tempdir("giant");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        let key = CacheKey::scbd(&spec, 10_000);
        for claimed in [u64::MAX / 2, 1 << 32, 1 << 20, 2] {
            let mut payload = Vec::new();
            push_u64(&mut payload, claimed); // body count, nothing behind it
            let mut checksum = StableHasher::new();
            checksum.write_bytes(&payload);
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            bytes.extend_from_slice(&KIND_SCBD.to_le_bytes());
            bytes.extend_from_slice(&key.content_hash.to_le_bytes());
            bytes.extend_from_slice(&key.budget.to_le_bytes());
            bytes.extend_from_slice(&key.model_fingerprint.to_le_bytes());
            bytes.extend_from_slice(&key.knobs_fingerprint.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&checksum.finish().to_le_bytes());
            fs::write(cache.scbd_path(&key), &bytes).unwrap();
            assert!(
                cache.load_scbd(&key).is_none(),
                "claimed count {claimed} must be a miss"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_header_is_a_miss() {
        let dir = tempdir("version");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        distribute(&cache, &spec, 10_000).unwrap();
        let key = CacheKey::scbd(&spec, 10_000);
        let path = cache.scbd_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        // The version field sits right after the magic.
        let future = (FORMAT_VERSION + 1).to_le_bytes();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&future);
        fs::write(&path, &bytes).unwrap();
        assert!(
            cache.load_scbd(&key).is_none(),
            "a future format version must be unreadable, not misparsed"
        );
        // And a wrong kind tag likewise.
        let mut bytes = fs::read(&path).unwrap();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes[MAGIC.len() + 4..MAGIC.len() + 8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load_scbd(&key).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_key_from_model_constant_change_misses() {
        let dir = tempdir("stale");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        distribute(&cache, &spec, 10_000).unwrap();
        let fresh = CacheKey::scbd(&spec, 10_000);
        assert!(cache.load_scbd(&fresh).is_some());
        // A recalibrated timing/pressure constant moves the model
        // fingerprint; the old entry must not be found under the new
        // key (this is exactly how a release with changed constants
        // invalidates a CI-carried cache).
        let recalibrated = CacheKey {
            model_fingerprint: fresh.model_fingerprint ^ 1,
            ..fresh
        };
        assert!(cache.load_scbd(&recalibrated).is_none());
        // Same for a changed algorithm revision (knobs fingerprint).
        let retuned = CacheKey {
            knobs_fingerprint: fresh.knobs_fingerprint.wrapping_add(1),
            ..fresh
        };
        assert!(cache.load_scbd(&retuned).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_echo_guards_filename_collisions() {
        let dir = tempdir("echo");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        distribute(&cache, &spec, 10_000).unwrap();
        let key = CacheKey::scbd(&spec, 10_000);
        // Forge a collision: copy the entry to the filename another key
        // would hash to. The echoed key inside the entry must reject it.
        let other = CacheKey {
            budget: 20_000,
            ..key
        };
        fs::copy(cache.scbd_path(&key), cache.scbd_path(&other)).unwrap();
        assert!(cache.load_scbd(&other).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_directory_counts_failures_but_still_serves() {
        let dir = tempdir("unwritable");
        let cache = EvalCache::open(&dir).unwrap();
        let spec = spec();
        // Make the scbd subdirectory unwritable, then evaluate: the
        // compute path must succeed and only the failure counter moves.
        let scbd_dir = dir.join("scbd");
        let mut perms = fs::metadata(&scbd_dir).unwrap().permissions();
        let writable = perms.clone();
        perms.set_readonly(true);
        fs::set_permissions(&scbd_dir, perms).unwrap();
        let result = distribute(&cache, &spec, 10_000);
        fs::set_permissions(&scbd_dir, writable).unwrap();
        // Root-privileged runners can write into read-only directories;
        // only assert the failure accounting when the write really
        // failed.
        result.unwrap();
        let stats = cache.stats();
        assert_eq!(stats.scbd_misses, 1);
        assert!(stats.scbd_write_failures <= 1);
        fs::remove_dir_all(&dir).ok();
    }

    // --- allocation and block-catalog entry kinds ------------------------

    fn alloc_solution() -> (Organization, AllocStats, memx_memlib::MemLibrary) {
        let spec = spec();
        let lib = memx_memlib::MemLibrary::default_07um();
        let schedule = scbd::distribute_with_budget(&spec, 10_000).unwrap();
        let (org, stats) =
            crate::alloc::assign_with_stats(&spec, &schedule, &lib, &AllocOptions::default())
                .unwrap();
        (org, stats, lib)
    }

    fn assert_same_org(a: &Organization, b: &Organization) {
        assert_eq!(a.memories.len(), b.memories.len());
        for (x, y) in a.memories.iter().zip(&b.memories) {
            assert_eq!(x, y);
            // `PartialEq` admits 0.0 == -0.0; the cache promises *bit*
            // identity, so compare the float patterns too.
            assert_eq!(
                x.cost.off_chip_power_mw.to_bits(),
                y.cost.off_chip_power_mw.to_bits()
            );
            assert_eq!(
                x.cost.on_chip_area_mm2.to_bits(),
                y.cost.on_chip_area_mm2.to_bits()
            );
            assert_eq!(
                x.cost.on_chip_power_mw.to_bits(),
                y.cost.on_chip_power_mw.to_bits()
            );
        }
        assert_eq!(
            a.cost.on_chip_area_mm2.to_bits(),
            b.cost.on_chip_area_mm2.to_bits()
        );
        assert_eq!(
            a.cost.on_chip_power_mw.to_bits(),
            b.cost.on_chip_power_mw.to_bits()
        );
        assert_eq!(
            a.cost.off_chip_power_mw.to_bits(),
            b.cost.off_chip_power_mw.to_bits()
        );
    }

    #[test]
    fn alloc_round_trip_is_bit_identical() {
        let dir = tempdir("alloc-roundtrip");
        let cache = EvalCache::open(&dir).unwrap();
        let (org, stats, lib) = alloc_solution();
        assert!(
            org.off_chip_count() >= 1,
            "fixture must exercise the off-chip arm"
        );
        let key = CacheKey::alloc(0x5EED, &lib, &AllocOptions::default());
        assert!(cache.load_alloc(&key).is_none());
        cache.store_alloc(&key, &org, &stats);
        let (loaded_org, loaded_stats) = cache.load_alloc(&key).unwrap();
        assert_same_org(&org, &loaded_org);
        assert_eq!(stats, loaded_stats);
        assert_eq!(cache.stats().write_failures(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alloc_stale_key_misses() {
        let dir = tempdir("alloc-stale");
        let cache = EvalCache::open(&dir).unwrap();
        let (org, stats, lib) = alloc_solution();
        let options = AllocOptions::default();
        let key = CacheKey::alloc(7, &lib, &options);
        cache.store_alloc(&key, &org, &stats);
        assert!(cache.load_alloc(&key).is_some());
        // A recalibrated model constant moves the model fingerprint.
        let recalibrated = CacheKey {
            model_fingerprint: key.model_fingerprint ^ 1,
            ..key
        };
        assert!(cache.load_alloc(&recalibrated).is_none());
        // A different bound is a different knobs fingerprint…
        let other_bound = CacheKey::alloc(
            7,
            &lib,
            &AllocOptions {
                bound: BoundKind::Solo,
                ..options.clone()
            },
        );
        assert_ne!(key.knobs_fingerprint, other_bound.knobs_fingerprint);
        assert!(cache.load_alloc(&other_bound).is_none());
        // …as is toggling the dominance rule (replayed node counts and
        // dominance-cut stats differ even though the organization is
        // identical)…
        let no_dominance = CacheKey::alloc(
            7,
            &lib,
            &AllocOptions {
                off_chip_dominance: false,
                ..options.clone()
            },
        );
        assert_ne!(key.knobs_fingerprint, no_dominance.knobs_fingerprint);
        assert!(cache.load_alloc(&no_dominance).is_none());
        // …and a different node limit a different budget slot.
        let other_limit = CacheKey::alloc(
            7,
            &lib,
            &AllocOptions {
                node_limit: options.node_limit + 1,
                ..options.clone()
            },
        );
        assert_ne!(key.budget, other_limit.budget);
        assert!(cache.load_alloc(&other_limit).is_none());
        // Worker count is *not* keyed: the solver is bit-identical per
        // worker count, so one entry serves them all.
        let other_workers = CacheKey::alloc(
            7,
            &lib,
            &AllocOptions {
                workers: 8,
                ..options
            },
        );
        assert_eq!(key, other_workers);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alloc_corrupt_entries_degrade_to_miss() {
        let dir = tempdir("alloc-corrupt");
        let cache = EvalCache::open(&dir).unwrap();
        let (org, stats, lib) = alloc_solution();
        let key = CacheKey::alloc(11, &lib, &AllocOptions::default());
        cache.store_alloc(&key, &org, &stats);
        let path = cache.alloc_path(&key);
        let good = fs::read(&path).unwrap();
        for keep in [0, 4, MAGIC.len(), 20, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good[..keep]).unwrap();
            assert!(
                cache.load_alloc(&key).is_none(),
                "truncation to {keep} bytes must read as a miss"
            );
        }
        fs::write(&path, b"not a cache entry").unwrap();
        assert!(cache.load_alloc(&key).is_none());
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(cache.load_alloc(&key).is_none());
        // A re-store repairs the entry.
        cache.store_alloc(&key, &org, &stats);
        assert!(cache.load_alloc(&key).is_some());
        // A kind mixup — a block-catalog entry copied over an allocation
        // entry's filename — is rejected by the kind discriminant.
        let bkey = CacheKey::off_chip_blocks(11, &lib);
        cache.store_off_chip_blocks(&bkey, &[(1, Some(2.0))]);
        fs::copy(cache.blocks_path(&bkey), &path).unwrap();
        assert!(cache.load_alloc(&key).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alloc_checksum_consistent_giant_count_is_rejected() {
        let dir = tempdir("alloc-giant");
        let cache = EvalCache::open(&dir).unwrap();
        let (_, _, lib) = alloc_solution();
        let key = CacheKey::alloc(13, &lib, &AllocOptions::default());
        for claimed in [u64::MAX / 2, 1 << 32, 1 << 20, 2] {
            let mut payload = Vec::new();
            push_u64(&mut payload, claimed); // memory count, nothing behind it
            let bytes = encode_entry(&key, KIND_ALLOC, payload);
            fs::write(cache.alloc_path(&key), &bytes).unwrap();
            assert!(
                cache.load_alloc(&key).is_none(),
                "claimed count {claimed} must be a miss"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blocks_round_trip_preserves_price_bits() {
        let dir = tempdir("blocks-roundtrip");
        let cache = EvalCache::open(&dir).unwrap();
        let (_, _, lib) = alloc_solution();
        let key = CacheKey::off_chip_blocks(42, &lib);
        // Include infeasible (None) prices and awkward float patterns:
        // the memo must round trip bit for bit.
        let entries: Vec<(u64, Option<f64>)> = vec![
            (0b01, Some(3.5)),
            (0b10, None),
            (0b11, Some(-0.0)),
            (u64::MAX, Some(f64::MIN_POSITIVE)),
        ];
        assert!(cache.load_off_chip_blocks(&key).is_none());
        cache.store_off_chip_blocks(&key, &entries);
        let loaded = cache.load_off_chip_blocks(&key).unwrap();
        assert_eq!(entries.len(), loaded.len());
        for ((m, p), (lm, lp)) in entries.iter().zip(&loaded) {
            assert_eq!(m, lm);
            assert_eq!(p.map(f64::to_bits), lp.map(f64::to_bits));
        }
        // Corrupt presence flag: a miss, not a misparse.
        let path = cache.blocks_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let flag_pos = bytes.len() - 8 /* checksum */ - 8 /* price */ - 1;
        bytes[flag_pos] = 7;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load_off_chip_blocks(&key).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_unusable_roots() {
        // A root that is a *file* cannot hold a cache.
        let file = std::env::temp_dir().join(format!("memx-cache-file-{}", std::process::id()));
        fs::write(&file, b"x").unwrap();
        let err = EvalCache::open(&file).unwrap_err();
        assert!(err.to_string().contains("unusable"));
        assert!(err.source().is_some());
        fs::remove_file(&file).ok();
    }
}
