//! Designer-facing textual reports.
//!
//! The methodology lives and dies by the designer being able to *read*
//! the feedback: which arrays dominate the traffic, how the budget was
//! distributed, what the final memory organization looks like. This
//! module renders the intermediate artifacts as plain-text reports, the
//! way the paper's tables and figures present them.

use std::fmt::Write as _;

use memx_ir::AppSpec;

use crate::alloc::{MemoryKind, Organization};
use crate::scbd::ScbdResult;

/// Renders the pruned specification: groups ordered by traffic, loop
/// nests with their iteration counts and body sizes.
pub fn spec_report(spec: &AppSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Specification `{}`", spec.name());
    let _ = writeln!(
        out,
        "  cycle budget {} | real time {:.3} s | {:.2} M accesses/execution",
        spec.cycle_budget(),
        spec.real_time_seconds(),
        spec.total_access_count() / 1e6
    );
    let _ = writeln!(out, "  basic groups (by traffic):");
    let mut groups: Vec<_> = spec.basic_groups().iter().collect();
    groups.sort_by(|a, b| {
        let ta: f64 = {
            let (r, w) = spec.total_accesses(a.id());
            r + w
        };
        let tb: f64 = {
            let (r, w) = spec.total_accesses(b.id());
            r + w
        };
        tb.total_cmp(&ta)
    });
    for g in groups {
        let (r, w) = spec.total_accesses(g.id());
        let _ = writeln!(
            out,
            "    {:<16} {:>9} x {:>2} bit  {:<9} R {:>12.0} W {:>12.0}",
            g.name(),
            g.words(),
            g.bitwidth(),
            format!("{}", g.placement()),
            r,
            w
        );
    }
    let _ = writeln!(out, "  loop nests:");
    for n in spec.loop_nests() {
        let _ = writeln!(
            out,
            "    {:<16} x{:>9}  {} accesses, {} deps, critical path {}",
            n.name(),
            n.iterations(),
            n.accesses().len(),
            n.dependencies().len(),
            n.critical_path_len()
        );
    }
    out
}

/// Renders the distributed schedule: per-body budgets, pressure, and
/// the overall slack.
pub fn schedule_report(schedule: &ScbdResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Schedule: {} / {} cycles used (slack {})",
        schedule.used_cycles,
        schedule.total_budget,
        schedule.slack()
    );
    for body in &schedule.bodies {
        let busy = body.busy_cycles();
        let _ = writeln!(
            out,
            "  {:<16} budget {:>3} cycles ({} busy), x{:>9}, pressure {:.1}",
            body.name,
            body.budget,
            busy,
            body.iterations,
            body.pressure()
        );
    }
    out
}

/// Renders the final memory organization with its assignment, the way
/// §4.6 concludes the flow.
pub fn organization_report(spec: &AppSpec, org: &Organization) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Memory organization: {} on-chip + {} off-chip memories, {}",
        org.on_chip_count(),
        org.off_chip_count(),
        org.cost
    );
    for mem in &org.memories {
        let names: Vec<&str> = mem.groups.iter().map(|&g| spec.group(g).name()).collect();
        let kind = match &mem.kind {
            MemoryKind::OnChip => "on-chip SRAM".to_owned(),
            MemoryKind::OffChip(sel) => format!("off-chip {}", sel.part()),
        };
        let _ = writeln!(
            out,
            "  {:<26} {:>9} x {:>2} bit, {} port(s): {}",
            kind,
            mem.words,
            mem.width,
            mem.ports,
            names.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{assign_with_stats, AllocOptions};
    use crate::scbd;
    use memx_ir::{AccessKind, AppSpecBuilder, Placement};
    use memx_memlib::MemLibrary;

    fn spec() -> AppSpec {
        let mut b = AppSpecBuilder::new("demo");
        let frame = b
            .basic_group_placed("frame", 1 << 16, 8, Placement::OffChip)
            .unwrap();
        let lut = b.basic_group("lut", 256, 12).unwrap();
        let n = b.loop_nest("scan", 1 << 16).unwrap();
        let r = b.access(n, frame, AccessKind::Read).unwrap();
        let l = b.access(n, lut, AccessKind::Read).unwrap();
        let w = b.access(n, frame, AccessKind::Write).unwrap();
        b.depend(n, r, w).unwrap();
        b.depend(n, l, w).unwrap();
        b.cycle_budget(1 << 20).real_time_seconds(0.05);
        b.build().unwrap()
    }

    #[test]
    fn spec_report_lists_groups_and_nests() {
        let s = spec_report(&spec());
        assert!(s.contains("frame"));
        assert!(s.contains("lut"));
        assert!(s.contains("scan"));
        assert!(s.contains("off-chip"));
        // Traffic ordering: frame (2 accesses/iter) before lut (1).
        let frame_pos = s.find("frame").unwrap();
        let lut_pos = s.find("lut").unwrap();
        assert!(frame_pos < lut_pos);
    }

    #[test]
    fn schedule_report_shows_budgets() {
        let spec = spec();
        let sched = scbd::distribute(&spec).unwrap();
        let s = schedule_report(&sched);
        assert!(s.contains("Schedule:"));
        assert!(s.contains("scan"));
        assert!(s.contains("pressure"));
    }

    #[test]
    fn organization_report_shows_assignment() {
        let spec = spec();
        let sched = scbd::distribute(&spec).unwrap();
        let lib = MemLibrary::default_07um();
        let (org, _) = assign_with_stats(&spec, &sched, &lib, &AllocOptions::default()).unwrap();
        let s = organization_report(&spec, &org);
        assert!(s.contains("on-chip SRAM"));
        assert!(s.contains("off-chip EDO"));
        assert!(s.contains("frame"));
    }
}
