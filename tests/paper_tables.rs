//! Paper-table conformance suite: pins the reproduced Tables 1–4 (costs
//! *and* memory assignments) against a committed golden snapshot, so a
//! solver change can never silently drift the paper's results. A second
//! golden, `effort.txt`, pins the search effort behind those tables:
//! every [`AllocStats`] counter of every report, serially, for the full
//! and the smoke context, plus the cache revisions a count change must
//! bump.
//!
//! The snapshots are rendered from deterministic pipelines —
//! environment-independent, the tables bit-identical for every worker
//! count, the effort counters run with one worker (parallel counts
//! depend on thread timing) — so any diff is a real behavior change. To
//! regenerate after an *intentional* change, run:
//!
//! ```sh
//! MEMX_UPDATE_GOLDEN=1 cargo test --test paper_tables
//! ```
//!
//! and commit the updated `tests/golden/*.txt` together with the change
//! that explains it.

use std::fmt::Write as _;
use std::path::PathBuf;

use memx_bench::experiments::{
    self, paper_allocations, paper_extras, table1, table2, table3, table4, PaperContext, RunKnobs,
};
use memx_core::alloc::{
    assign_with_stats, AllocOptions, AllocStats, BoundKind, MemoryKind, Organization,
};
use memx_core::cache::{ALLOC_ALGO_REVISION, SCBD_ALGO_REVISION};
use memx_core::explore::CostReport;
use memx_ir::AppSpec;
use memx_memlib::CostBreakdown;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn render_cost(out: &mut String, cost: &CostBreakdown) {
    let _ = write!(
        out,
        "area={:.4}mm2 on_power={:.4}mW off_power={:.4}mW",
        cost.on_chip_area_mm2, cost.on_chip_power_mw, cost.off_chip_power_mw
    );
}

/// One line per memory: placement, dimensions and the sorted group
/// names it holds — the paper's "signal-to-memory assignment".
fn render_organization(out: &mut String, spec: &AppSpec, org: &Organization) {
    for mem in &org.memories {
        let kind = match mem.kind {
            MemoryKind::OnChip => "on",
            MemoryKind::OffChip(_) => "off",
        };
        let mut names: Vec<&str> = mem.groups.iter().map(|&g| spec.group(g).name()).collect();
        names.sort_unstable();
        let _ = writeln!(
            out,
            "    {kind}-chip {}x{}b/{}p: {}",
            mem.words,
            mem.width,
            mem.ports,
            names.join(", ")
        );
    }
}

fn render_report(out: &mut String, spec: &AppSpec, report: &CostReport) {
    let _ = write!(out, "  {}: ", report.label);
    render_cost(out, &report.cost);
    out.push('\n');
    render_organization(out, spec, &report.organization);
}

/// Renders every table the suite pins. The specs behind the reports are
/// rebuilt here exactly as the experiment entry points build them, so
/// group names resolve against the right variant.
fn render_snapshot() -> String {
    let ctx = experiments::paper_context();
    let mut out = String::new();

    out.push_str("Table 1: basic group structuring\n");
    let exp = table1(&ctx).expect("table 1 runs");
    let compacted = memx_core::structuring::compact(&ctx.btpc.spec, ctx.btpc.ridge, 3)
        .expect("compaction applies");
    let merged = memx_core::structuring::merge(&ctx.btpc.spec, ctx.btpc.pyr, ctx.btpc.ridge)
        .expect("merge applies");
    let t1_specs = [&ctx.btpc.spec, &compacted.spec, &merged.spec];
    for (report, spec) in exp.reports().iter().zip(t1_specs) {
        render_report(&mut out, spec, report);
    }

    out.push_str("Table 2: memory hierarchy\n");
    let exp = table2(&ctx).expect("table 2 runs");
    let (spec, pixel_store) = experiments::merged_spec(&ctx).expect("merge applies");
    let (ylocal, yhier_serving, yhier_feeding) = experiments::figure3_layers();
    let l1 = memx_core::hierarchy::apply_hierarchy(
        &spec,
        pixel_store,
        std::slice::from_ref(&yhier_serving),
    )
    .expect("hierarchy applies");
    let l0 =
        memx_core::hierarchy::apply_hierarchy(&spec, pixel_store, std::slice::from_ref(&ylocal))
            .expect("hierarchy applies");
    let both = memx_core::hierarchy::apply_hierarchy(&spec, pixel_store, &[ylocal, yhier_feeding])
        .expect("hierarchy applies");
    let t2_specs = [&spec, &l1.spec, &l0.spec, &both.spec];
    for (report, spec) in exp.reports().iter().zip(t2_specs) {
        render_report(&mut out, spec, report);
    }

    let winner = experiments::best_hierarchy_spec(&ctx).expect("hierarchy applies");

    out.push_str("Table 3: storage cycle budget\n");
    let rows = table3(&ctx, &paper_extras()).expect("table 3 runs");
    for row in &rows {
        let _ = write!(
            out,
            "  extra={} ({:.2}%): ",
            row.extra_cycles,
            row.extra_fraction * 100.0
        );
        render_cost(&mut out, &row.report.cost);
        out.push('\n');
        render_organization(&mut out, &winner, &row.report.organization);
    }

    out.push_str("Table 4: on-chip memory allocation\n");
    let rows = table4(&ctx, &paper_allocations()).expect("table 4 runs");
    for row in &rows {
        let _ = write!(out, "  k={}: ", row.memories);
        render_cost(&mut out, &row.report.cost);
        out.push('\n');
        render_organization(&mut out, &winner, &row.report.organization);
    }

    out
}

/// Compares `rendered` against the committed golden `name`, or rewrites
/// the golden when `MEMX_UPDATE_GOLDEN` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("MEMX_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir creatable");
        std::fs::write(&path, rendered).expect("golden writable");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with MEMX_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if rendered != golden {
        // Find the first diverging line for a readable failure.
        let mut gl = golden.lines();
        for (i, r) in rendered.lines().enumerate() {
            match gl.next() {
                Some(g) if g == r => continue,
                got => panic!(
                    "{name} drifted from the golden snapshot at line {}:\n  \
                     golden:   {:?}\n  rendered: {:?}\n\
                     If the change is intentional, regenerate with \
                     MEMX_UPDATE_GOLDEN=1 cargo test --test paper_tables",
                    i + 1,
                    got,
                    r
                ),
            }
        }
        panic!(
            "{name} drifted from the golden snapshot (line counts differ: \
             golden {} vs rendered {})",
            golden.lines().count(),
            rendered.lines().count()
        );
    }
}

#[test]
fn paper_tables_match_the_committed_golden_snapshot() {
    check_golden("paper_tables.txt", &render_snapshot());
}

/// Runs `ctx` serially: parallel node counters depend on thread timing.
fn serial(mut ctx: PaperContext) -> PaperContext {
    ctx.workers = 1;
    ctx.alloc.workers = 1;
    ctx
}

fn render_stats(out: &mut String, label: &str, stats: &AllocStats) {
    let _ = writeln!(out, "  {label}: {stats:?}");
}

/// Every report's search-effort counters in Tables 1–4 of one context.
fn render_table_effort(out: &mut String, ctx: &PaperContext) {
    out.push_str("Table 1\n");
    for report in table1(ctx).expect("table 1 runs").reports() {
        render_stats(out, &report.label, &report.alloc_stats);
    }
    out.push_str("Table 2\n");
    for report in table2(ctx).expect("table 2 runs").reports() {
        render_stats(out, &report.label, &report.alloc_stats);
    }
    out.push_str("Table 3\n");
    for row in table3(ctx, &paper_extras()).expect("table 3 runs") {
        render_stats(
            out,
            &format!("extra={}", row.extra_cycles),
            &row.report.alloc_stats,
        );
    }
    out.push_str("Table 4\n");
    for row in table4(ctx, &paper_allocations()).expect("table 4 runs") {
        render_stats(out, &format!("k={}", row.memories), &row.report.alloc_stats);
    }
}

/// Renders the effort snapshot: the paper tables in the full and the
/// smoke context, Table 4 under the solo bound, the tie plateau with
/// and without dominance, and the cache revisions a count change bumps.
fn render_effort() -> String {
    let mut out = String::new();
    out.push_str("# full context\n");
    render_table_effort(&mut out, &serial(experiments::paper_context()));
    out.push_str("# smoke context\n");
    let smoke = experiments::context(RunKnobs {
        smoke: true,
        workers: 1,
        ..Default::default()
    });
    render_table_effort(&mut out, &serial(smoke));

    out.push_str("# full context, solo bound\nTable 4\n");
    let mut solo = serial(experiments::paper_context());
    solo.alloc.bound = BoundKind::Solo;
    for row in table4(&solo, &paper_allocations()).expect("table 4 runs") {
        render_stats(
            &mut out,
            &format!("k={}", row.memories),
            &row.report.alloc_stats,
        );
    }

    out.push_str("# tie plateau\n");
    let spec = experiments::plateau_spec(experiments::PLATEAU_GROUPS);
    let schedule = memx_core::scbd::distribute(&spec).expect("plateau schedules");
    let lib = memx_memlib::MemLibrary::default_07um();
    for dominance in [true, false] {
        let options = AllocOptions {
            workers: 1,
            off_chip_dominance: dominance,
            ..AllocOptions::default()
        };
        let (_, stats) =
            assign_with_stats(&spec, &schedule, &lib, &options).expect("plateau allocates");
        render_stats(&mut out, &format!("dominance={dominance}"), &stats);
    }

    let _ = writeln!(out, "# cache revisions");
    let _ = writeln!(out, "SCBD_ALGO_REVISION = {SCBD_ALGO_REVISION}");
    let _ = writeln!(out, "ALLOC_ALGO_REVISION = {ALLOC_ALGO_REVISION}");
    out
}

#[test]
fn search_effort_matches_the_committed_golden_snapshot() {
    check_golden("effort.txt", &render_effort());
}

#[test]
fn off_chip_branch_and_bound_beats_exhaustive_enumeration_on_table4() {
    // The off-chip acceptance criterion, pinned as a test: on the
    // table 4 workload the branch-and-bound must expand strictly fewer
    // nodes than the Bell-number partition space the retired exhaustive
    // scan streamed through (while producing the byte-identical golden
    // tables checked above).
    let mut ctx = experiments::paper_context();
    ctx.alloc.workers = 1; // serial: parallel node counters are timing-dependent
    ctx.workers = 1;
    let rows = table4(&ctx, &paper_allocations()).expect("table 4 runs");
    let bb: u64 = rows
        .iter()
        .map(|r| r.report.alloc_stats.off_chip_bb_nodes)
        .sum();
    let exhaustive: u64 = rows
        .iter()
        .map(|r| r.report.alloc_stats.off_chip_exhaustive_partitions)
        .sum();
    assert!(exhaustive > 0, "table 4 has off-chip groups");
    assert!(
        bb < exhaustive,
        "off-chip branch-and-bound must beat exhaustive enumeration: \
         {bb} nodes vs {exhaustive} partitions"
    );
}

#[test]
fn pairwise_bound_prunes_the_table4_workload() {
    // The tentpole's acceptance criterion, pinned as a test: on the
    // table 4 workload, run to exactness, the pairwise-conflict bound
    // must visit strictly fewer branch-and-bound nodes than the solo
    // suffix bound (both return identical tables — checked against the
    // golden above for the default bound).
    let nodes = |bound: BoundKind| {
        let mut ctx = experiments::paper_context();
        ctx.alloc.bound = bound;
        ctx.alloc.node_limit = 100_000_000; // unexhausted: nodes measure pruning
        ctx.alloc.workers = 1; // serial: parallel node counters are timing-dependent
        ctx.workers = 1;
        let rows = table4(&ctx, &paper_allocations()).expect("table 4 runs");
        rows.iter()
            .map(|r| r.report.alloc_stats.bb_nodes)
            .sum::<u64>()
    };
    let solo = nodes(BoundKind::Solo);
    let pairwise = nodes(BoundKind::Pairwise);
    assert!(
        pairwise < solo,
        "pairwise bound must prune harder: {pairwise} vs {solo} nodes"
    );
}
