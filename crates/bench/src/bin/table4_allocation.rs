//! Regenerates **Table 4**: memory organization cost versus number of
//! allocated on-chip memories.
//!
//! Rows are printed as they stream out of the engine (in sweep order),
//! so only one `CostReport` is alive at a time; search-effort and cache
//! counters are accumulated on the fly and reported after the table.

use memx_bench::experiments;

fn main() {
    let ctx = experiments::context(experiments::RunKnobs::from_env());
    eprintln!(
        "[engine: {} worker(s); results are worker-count independent]",
        ctx.engine().workers()
    );
    let counts = experiments::paper_allocations();
    println!("Table 4: Different memory allocations for the BTPC application");
    println!(
        "{:<24} {:>16} {:>16} {:>16}",
        "Version", "on-chip area", "on-chip power", "off-chip power"
    );
    println!("{:<24} {:>16} {:>16} {:>16}", "", "[mm2]", "[mW]", "[mW]");
    let mut stats = Vec::new();
    let streamed = experiments::table4_stream(&ctx, &counts, |row| {
        stats.push(row.report.alloc_stats);
        println!(
            "{:<24} {:>16.1} {:>16.1} {:>16.1}",
            format!("{} on-chip memories", row.memories),
            row.report.cost.on_chip_area_mm2,
            row.report.cost.on_chip_power_mw,
            row.report.cost.off_chip_power_mw
        );
    });
    if let Err(e) = streamed {
        eprintln!("table 4 failed: {e}");
        std::process::exit(1);
    }
    experiments::print_alloc_stat_lines(stats);
    experiments::print_cache_stat_lines(ctx.cache.as_deref());
}
