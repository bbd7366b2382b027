//! Tie-plateau dominance vehicle: runs the off-chip partition search on
//! the synthetic [`experiments::plateau_spec`] instance —
//! [`experiments::PLATEAU_GROUPS`] bitwise-symmetric off-chip frame
//! stores whose partitions all price identically, so the lower bound
//! alone cannot prune — and prints the proven-optimal organization plus
//! the search-effort counters.
//!
//! Run it with `MEMX_DOMINANCE` on and off to see the dominance node
//! cut; the `# tie plateau` section of `tests/golden/effort.txt` pins
//! both counts exactly. Stdout is bit-identical for every worker count,
//! bound and dominance setting (the rule only removes symmetric
//! duplicates, never the canonical-first optimum), so the determinism
//! matrix covers it like every other binary; only the stderr counters
//! move.

use memx_bench::experiments;
use memx_core::alloc::{assign_with_stats, AllocOptions, MemoryKind};
use memx_core::cache::EvalCtx;
use memx_core::scbd;

fn main() {
    let knobs = experiments::RunKnobs::from_env();
    let spec = experiments::plateau_spec(experiments::PLATEAU_GROUPS);
    let schedule = match scbd::distribute(&spec) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("plateau scheduling failed: {e}");
            std::process::exit(1);
        }
    };
    let lib = memx_memlib::MemLibrary::default_07um();
    let options = AllocOptions {
        workers: knobs.workers,
        node_limit: knobs
            .node_limit
            .unwrap_or_else(|| AllocOptions::default().node_limit),
        bound: knobs.bound,
        off_chip_dominance: knobs.dominance,
        ..AllocOptions::default()
    };
    let cache = knobs.cache;
    let ctx = EvalCtx {
        lib: &lib,
        cache: cache.as_deref(),
    };
    let result = assign_with_stats(&spec, &schedule, ctx, &options);
    let (org, stats) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("plateau allocation failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "Tie plateau: {} symmetric off-chip frame stores",
        experiments::PLATEAU_GROUPS
    );
    println!("{:<20} {:>8} {:>20}", "Memory", "groups", "off-chip power");
    println!("{:<20} {:>8} {:>20}", "", "", "[mW]");
    for (i, m) in org.memories.iter().enumerate() {
        let kind = match m.kind {
            MemoryKind::OnChip => "on-chip",
            MemoryKind::OffChip(_) => "off-chip",
        };
        println!(
            "{:<20} {:>8} {:>20.3}",
            format!("{kind} {i}"),
            m.groups.len(),
            m.cost.off_chip_power_mw
        );
    }
    println!(
        "total off-chip power [mW]: {:.3}",
        org.cost.off_chip_power_mw
    );
    experiments::print_alloc_stat_lines([stats]);
    experiments::print_cache_stat_lines(cache.as_deref());
}
