//! Cross-process robustness of the persistent evaluation cache: two
//! *real* processes hammering the same key must never make a reader
//! observe a torn entry, and the surviving entry must be valid — for
//! schedule entries and for allocation entries alike.
//!
//! The writer processes are this test binary re-executed with
//! `MEMX_CACHE_TEST_CHILD_DIR` (or `MEMX_CACHE_TEST_ALLOC_CHILD_DIR`)
//! set, filtered to the matching `*_writer_child` helper (which is a
//! no-op under a normal test run).

#![expect(
    clippy::disallowed_methods,
    reason = "the re-executed writer processes find their shared store through an environment variable"
)]

use std::path::PathBuf;
use std::process::Command;

use memx_core::alloc::{alloc_cache_key, assign_with_stats, AllocOptions};
use memx_core::cache::{CacheKey, EvalCache};
use memx_core::scbd;
use memx_ir::{AccessKind, AppSpec, AppSpecBuilder};
use memx_memlib::MemLibrary;

const CHILD_DIR_ENV: &str = "MEMX_CACHE_TEST_CHILD_DIR";
const ALLOC_CHILD_DIR_ENV: &str = "MEMX_CACHE_TEST_ALLOC_CHILD_DIR";
const BUDGET: u64 = 10_000;
/// Stores per writer process: enough rename races to matter, few enough
/// to finish instantly.
const CHILD_STORES: usize = 300;

/// The spec both processes agree on (same content hash ⇒ same key).
fn shared_spec() -> AppSpec {
    let mut b = AppSpecBuilder::new("concurrency");
    let x = b.basic_group("x", 128, 8).unwrap();
    let y = b.basic_group("y", 64, 16).unwrap();
    let n = b.loop_nest("l", 500).unwrap();
    let rx = b.access(n, x, AccessKind::Read).unwrap();
    let ry = b.access(n, y, AccessKind::Read).unwrap();
    let w = b.access(n, y, AccessKind::Write).unwrap();
    b.depend(n, rx, w).unwrap();
    b.depend(n, ry, w).unwrap();
    b.cycle_budget(BUDGET);
    b.build().unwrap()
}

/// Writer-process body, dressed as a test so the re-executed binary can
/// be filtered straight to it. Under a normal run the environment
/// variable is absent and this passes as a no-op.
#[test]
fn concurrent_writer_child() {
    let Some(dir) = std::env::var_os(CHILD_DIR_ENV) else {
        return;
    };
    let cache = EvalCache::open(&dir).expect("child opens the shared cache");
    let spec = shared_spec();
    let key = CacheKey::scbd(&spec, BUDGET);
    let result = scbd::distribute_with_budget(&spec, BUDGET).expect("schedulable");
    for _ in 0..CHILD_STORES {
        cache.store_scbd(&key, &result);
    }
    assert_eq!(cache.stats().write_failures(), 0, "child writes must land");
}

/// The allocation instance both processes agree on: the shared spec's
/// schedule solved with one worker (fully deterministic, so both
/// writers publish byte-identical entries).
fn shared_alloc_options() -> AllocOptions {
    AllocOptions {
        workers: 1,
        ..AllocOptions::default()
    }
}

/// Allocation-entry writer-process body (see [`concurrent_writer_child`]).
#[test]
fn concurrent_alloc_writer_child() {
    let Some(dir) = std::env::var_os(ALLOC_CHILD_DIR_ENV) else {
        return;
    };
    let cache = EvalCache::open(&dir).expect("child opens the shared cache");
    let spec = shared_spec();
    let lib = MemLibrary::default_07um();
    let options = shared_alloc_options();
    let schedule = scbd::distribute_with_budget(&spec, BUDGET).expect("schedulable");
    let key = alloc_cache_key(&spec, &schedule, &lib, &options).expect("splittable");
    let (org, stats) = assign_with_stats(&spec, &schedule, &lib, &options).expect("assignable");
    for _ in 0..CHILD_STORES {
        cache.store_alloc(&key, &org, &stats);
    }
    assert_eq!(cache.stats().write_failures(), 0, "child writes must land");
}

#[test]
fn concurrent_alloc_writers_two_processes_same_key() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("memx-cache-alloc-2proc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = EvalCache::open(&dir).expect("parent opens the cache");
    let spec = shared_spec();
    let lib = MemLibrary::default_07um();
    let options = shared_alloc_options();
    let schedule = scbd::distribute_with_budget(&spec, BUDGET).expect("schedulable");
    let key = alloc_cache_key(&spec, &schedule, &lib, &options).expect("splittable");
    let (ref_org, ref_stats) =
        assign_with_stats(&spec, &schedule, &lib, &options).expect("assignable");

    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        Command::new(&exe)
            .args(["--exact", "concurrent_alloc_writer_child", "--nocapture"])
            .env(ALLOC_CHILD_DIR_ENV, &dir)
            .spawn()
            .expect("spawn writer process")
    };
    let mut children = [spawn(), spawn()];

    // While both processes race renames onto the same path, every read
    // must be all-or-nothing: a miss, or a fully valid entry identical
    // to the reference solution (stats included — hits replay them).
    let mut observed_hit = false;
    loop {
        let running = children
            .iter_mut()
            .any(|c| c.try_wait().expect("child wait").is_none());
        if let Some((org, stats)) = cache.load_alloc(&key) {
            observed_hit = true;
            assert_eq!(org, ref_org);
            assert_eq!(stats, ref_stats);
        }
        if !running {
            break;
        }
    }
    for child in &mut children {
        let status = child.wait().expect("child exits");
        assert!(status.success(), "writer process failed: {status}");
    }

    // Whoever won the last rename, the surviving entry is complete.
    let (survivor, survivor_stats) = cache
        .load_alloc(&key)
        .expect("a valid entry survives the race");
    assert_eq!(survivor, ref_org);
    assert_eq!(survivor_stats, ref_stats);
    assert!(
        observed_hit,
        "the race window never produced a readable entry"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_writers_two_processes_same_key() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("memx-cache-2proc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = EvalCache::open(&dir).expect("parent opens the cache");
    let spec = shared_spec();
    let key = CacheKey::scbd(&spec, BUDGET);
    let reference = scbd::distribute_with_budget(&spec, BUDGET).expect("schedulable");

    let exe = std::env::current_exe().expect("test binary path");
    let spawn = || {
        Command::new(&exe)
            .args(["--exact", "concurrent_writer_child", "--nocapture"])
            .env(CHILD_DIR_ENV, &dir)
            .spawn()
            .expect("spawn writer process")
    };
    let mut children = [spawn(), spawn()];

    // While both processes race renames onto the same path, every read
    // must be all-or-nothing: a miss, or a fully valid entry identical
    // to the reference schedule.
    let mut observed_hit = false;
    loop {
        let running = children
            .iter_mut()
            .any(|c| c.try_wait().expect("child wait").is_none());
        if let Some(read) = cache.load_scbd(&key) {
            observed_hit = true;
            assert_eq!(read.used_cycles, reference.used_cycles);
            assert_eq!(read.total_budget, reference.total_budget);
            for (a, b) in read.bodies.iter().zip(&reference.bodies) {
                assert_eq!(a.placements(), b.placements());
            }
        }
        if !running {
            break;
        }
    }
    for child in &mut children {
        let status = child.wait().expect("child exits");
        assert!(status.success(), "writer process failed: {status}");
    }

    // Whoever won the last rename, the surviving entry is complete.
    let survivor = cache
        .load_scbd(&key)
        .expect("a valid entry survives the race");
    assert_eq!(survivor.used_cycles, reference.used_cycles);
    assert!(
        observed_hit,
        "the race window never produced a readable entry"
    );
    std::fs::remove_dir_all(&dir).ok();
}
