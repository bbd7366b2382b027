//! Workload-corpus runner: loads every `.mxspec` under `corpus/`
//! (documented in `docs/corpus.md`), proves the textual round-trip for
//! each entry — `parse(print(spec)) == spec` with an identical content
//! hash — and evaluates every workload to its proven-optimal memory
//! organization, printing one deterministic cost row per entry.
//!
//! Two seeded [`memx_ir::specgen`] stress specs ride along to keep the
//! generator itself on the determinism matrix. Stdout is bit-identical
//! across worker counts, bounds, dominance settings and cache state;
//! the search-effort and cache counters go to stderr like every other
//! binary. Any parse failure, round-trip mismatch or allocation search
//! that exhausts its node budget (i.e. cannot prove optimality) exits
//! nonzero.

use std::path::Path;

use memx_bench::experiments;
use memx_core::alloc::AllocOptions;
use memx_core::corpus;
use memx_core::engine::{DesignPoint, Engine};
use memx_core::explore::EvaluateOptions;
use memx_ir::{parse_spec, print_spec, specgen, AppSpec};

fn round_trip_or_exit(name: &str, spec: &AppSpec) {
    let text = print_spec(spec);
    let reparsed = match parse_spec(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{name}: canonical text does not re-parse: {e}");
            std::process::exit(1);
        }
    };
    if reparsed != *spec || reparsed.content_hash() != spec.content_hash() {
        eprintln!("{name}: parse(print(spec)) is not the identity");
        std::process::exit(1);
    }
}

fn main() {
    let knobs = experiments::RunKnobs::from_env();
    let entries = match corpus::load_dir(Path::new("corpus")) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            std::process::exit(1);
        }
    };

    let generated = match specgen::generate_batch(
        experiments::CORPUS_SPECGEN_SEED,
        experiments::CORPUS_SPECGEN_COUNT,
    ) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("specgen rejected its own plan: {e}");
            std::process::exit(1);
        }
    };

    let mut specs: Vec<(String, &AppSpec)> = Vec::new();
    for e in &entries {
        round_trip_or_exit(&e.name, &e.spec);
        // The on-disk text and the Rust-side spec must hash alike, or
        // text-submitted jobs would miss the evaluation cache.
        match parse_spec(&e.text) {
            Ok(s) if s.content_hash() == e.spec.content_hash() => {}
            Ok(_) => {
                eprintln!("{}: file text and loaded spec hash apart", e.name);
                std::process::exit(1);
            }
            Err(err) => {
                eprintln!("{}: {err}", e.name);
                std::process::exit(1);
            }
        }
        specs.push((e.name.clone(), &e.spec));
    }
    for spec in &generated {
        round_trip_or_exit(spec.name(), spec);
        specs.push((spec.name().to_string(), spec));
    }

    let node_limit = knobs.node_limit.unwrap_or(if knobs.smoke {
        experiments::SMOKE_NODE_LIMIT
    } else {
        AllocOptions::default().node_limit
    });
    let alloc = AllocOptions {
        node_limit,
        workers: knobs.workers,
        bound: knobs.bound,
        off_chip_dominance: knobs.dominance,
        ..AllocOptions::default()
    };
    let lib = memx_memlib::MemLibrary::default_07um();
    let cache = knobs.cache;
    let engine = Engine::builder(&lib)
        .workers(knobs.workers)
        .eval_cache(cache.clone())
        .build();

    let points: Vec<DesignPoint> = specs
        .iter()
        .map(|(name, spec)| {
            DesignPoint::new(
                name.clone(),
                spec,
                EvaluateOptions {
                    cycle_budget: None,
                    alloc: alloc.clone(),
                },
            )
        })
        .collect();

    println!(
        "{:<20} {:>18} {:>12} {:>12} {:>12} {:>10} {:>5}",
        "Workload", "content hash", "area", "power", "off-chip pwr", "macp", "mems"
    );
    println!(
        "{:<20} {:>18} {:>12} {:>12} {:>12} {:>10} {:>5}",
        "", "", "[mm2]", "[mW]", "[mW]", "[cycles]", ""
    );
    let mut stats = Vec::with_capacity(points.len());
    let mut failed = false;
    engine.evaluate_stream(&points, |i, result| {
        let (name, spec) = &specs[i];
        match result {
            Ok(report) => {
                if report.alloc_stats.bb_nodes >= node_limit {
                    eprintln!(
                        "{name}: allocation search exhausted its node budget — optimum unproven"
                    );
                    failed = true;
                }
                println!(
                    "{:<20} {:>#18x} {:>12.4} {:>12.3} {:>12.3} {:>10} {:>5}",
                    name,
                    spec.content_hash(),
                    report.cost.on_chip_area_mm2,
                    report.cost.on_chip_power_mw,
                    report.cost.off_chip_power_mw,
                    report.macp_cycles,
                    report.organization.memories.len()
                );
                stats.push(report.alloc_stats);
            }
            Err(e) => {
                eprintln!("{name}: evaluation failed: {e}");
                failed = true;
            }
        }
    });
    println!(
        "corpus workloads: {} (+{} generated)",
        entries.len(),
        experiments::CORPUS_SPECGEN_COUNT
    );
    experiments::print_alloc_stat_lines(stats);
    experiments::print_cache_stat_lines(cache.as_deref());
    if failed {
        std::process::exit(1);
    }
}
