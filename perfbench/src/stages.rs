//! The traced, stage-by-stage evaluation shared by every workload.
//!
//! [`evaluate_staged`] does the work `Engine::evaluate_stream` does with
//! one worker (one SCBD distribution per distinct `(spec, budget)`, then
//! allocation and MACP per point), but as separate calls into
//! `core::scbd`, `core::alloc` and `core::macp`, each inside its own span.
//! With one worker every search-effort counter is exact, and the reports
//! are the same bytes the engine produces, which the workloads check.

use std::collections::BTreeMap;

use memx_core::alloc;
use memx_core::engine::DesignPoint;
use memx_core::explore::CostReport;
use memx_core::scbd::{self, ScbdResult};
use memx_core::{macp, ExploreError};
use memx_memlib::MemLibrary;

use crate::stats;
use crate::trace::Trace;

/// Accesses a schedule places, summed over its loop bodies.
pub fn placed_accesses(schedule: &ScbdResult) -> usize {
    schedule.bodies.iter().map(|b| b.placements().len()).sum()
}

/// One traced `scbd::distribute_with_budget` call, counting the accesses
/// it places.
pub fn distribute(
    tr: &mut Trace,
    spec: &memx_ir::AppSpec,
    budget: u64,
) -> Result<ScbdResult, ExploreError> {
    let result = tr.span("scbd", |_| scbd::distribute_with_budget(spec, budget));
    if let Ok(schedule) = &result {
        tr.count("scbd.placed", placed_accesses(schedule) as f64);
    }
    result
}

/// Evaluates `points` in order, serially, one span per stage call.
pub fn evaluate_staged(
    tr: &mut Trace,
    lib: &MemLibrary,
    points: &[DesignPoint],
) -> Vec<Result<CostReport, ExploreError>> {
    let mut memo: BTreeMap<(u64, u64), Result<ScbdResult, ExploreError>> = BTreeMap::new();
    points
        .iter()
        .map(|point| {
            let budget = point
                .options
                .cycle_budget
                .unwrap_or_else(|| point.spec.cycle_budget());
            let schedule = memo
                .entry((point.spec.content_hash(), budget))
                .or_insert_with(|| distribute(tr, point.spec, budget))
                .clone()?;
            let options = alloc::AllocOptions {
                workers: 1,
                ..point.options.alloc.clone()
            };
            let (organization, stats) = tr.span("alloc", |_| {
                alloc::assign_with_stats(point.spec, &schedule, lib, &options)
            })?;
            tr.count("alloc.onchip_nodes", stats.bb_nodes as f64);
            tr.count("alloc.sweep_skips", stats.sweep_skips as f64);
            tr.count("alloc.offchip_nodes", stats.off_chip_bb_nodes as f64);
            tr.count(
                "alloc.offchip_pruned_subtrees",
                stats.off_chip_pruned_subtrees as f64,
            );
            tr.count("alloc.dominance_cuts", stats.off_chip_dominance_cuts as f64);
            let critical_path = tr.span("transform", |_| macp::analyze(point.spec));
            Ok(CostReport {
                label: point.label.clone(),
                cost: organization.cost,
                organization,
                schedule,
                macp_cycles: critical_path.total_cycles,
                alloc_stats: stats,
            })
        })
        .collect()
}

/// Microseconds: median duration of the spans named `name` (0 when the
/// workload made no such call).
pub fn median_us(tr: &Trace, name: &str) -> f64 {
    let d = tr.durations(name);
    if d.is_empty() {
        0.0
    } else {
        stats::median(&d) * 1e6
    }
}

/// The per-stage metrics a staged pass leaves in `tr`. `batch_s` is the
/// wall time of the staged pass the shares are taken of.
pub fn stage_metrics(tr: &Trace, batch_s: f64, out: &mut BTreeMap<&'static str, f64>) {
    let scbd_calls = tr.durations("scbd").len() as f64;
    let scbd_s = tr.total("scbd");
    let placed = tr.counter("scbd.placed");
    let probe_ids: Vec<usize> = tr.named("scbd.probe").map(|s| s.id).collect();
    let probe_calls = tr
        .named("scbd")
        .filter(|s| s.parent.is_some_and(|p| probe_ids.contains(&p)))
        .count();
    let alloc_s = tr.total("alloc");
    let onchip = tr.counter("alloc.onchip_nodes");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    out.insert("profile.s", tr.total("profile"));
    out.insert("transform.s", tr.total("transform"));
    out.insert("scbd.calls", scbd_calls);
    out.insert("scbd.s", scbd_s);
    out.insert("scbd.share", ratio(scbd_s, batch_s));
    out.insert("scbd.ms_per_call", ratio(scbd_s * 1e3, scbd_calls));
    out.insert("scbd.us_per_access", ratio(scbd_s * 1e6, placed));
    out.insert("scbd.probe_s", tr.total("scbd.probe"));
    out.insert("scbd.probe_calls", probe_calls as f64);
    out.insert("alloc.calls", tr.durations("alloc").len() as f64);
    out.insert("alloc.s", alloc_s);
    out.insert("alloc.onchip_nodes", onchip);
    out.insert("alloc.onchip_mnodes_per_s", ratio(onchip / 1e6, alloc_s));
    for name in [
        "alloc.sweep_skips",
        "alloc.offchip_nodes",
        "alloc.offchip_pruned_subtrees",
        "alloc.dominance_cuts",
    ] {
        out.insert(name, tr.counter(name));
    }
}
