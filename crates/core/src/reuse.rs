//! Automatic data-reuse analysis: deriving memory-hierarchy candidates.
//!
//! The paper takes the hierarchy decision manually from cost feedback
//! (§4.4) and cites the formalized methodology of Wuytack et al. (its
//! reference 18) as the systematic alternative. This module implements
//! that systematic step: it analyzes how often each basic group's data
//! is *re-read* and proposes candidate layer chains
//! ([`HierarchyLayer`]s) for [`crate::hierarchy::apply_hierarchy`],
//! together with a driver that evaluates all candidates and keeps the
//! best ([`auto_hierarchy`]).
//!
//! The reuse model is pragmatic, matching the information available in
//! the pruned IR: a group read `r` times per loop iteration from a
//! working set that advances slowly has intra-body reuse `r` (the reads
//! of one iteration share a small window) and cross-iteration reuse
//! bounded by the total read-per-word ratio.

use memx_ir::{AppSpec, BasicGroupId, Placement};
use memx_memlib::MemLibrary;

use crate::explore::{evaluate, CostReport, EvaluateOptions};
use crate::hierarchy::{apply_hierarchy, HierarchyLayer};
use crate::ExploreError;

/// A proposed hierarchy (possibly empty = "no hierarchy") for one group.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseCandidate {
    /// The group the layers would serve.
    pub group: BasicGroupId,
    /// Proposed chain, innermost first; empty = keep direct access.
    pub layers: Vec<HierarchyLayer>,
    /// Estimated read traffic removed from the backing store, per
    /// application execution.
    pub reads_absorbed: f64,
}

/// Per-group reuse statistics extracted from the specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseStats {
    /// The analyzed group.
    pub group: BasicGroupId,
    /// Total (weighted) reads per application execution.
    pub reads: f64,
    /// Total reads divided by the number of words: the average number
    /// of times each word is read. Values above 1 mean a hierarchy can
    /// pay off at all.
    pub reads_per_word: f64,
    /// Maximum reads of the group inside one loop body (the intra-body
    /// window reuse a small register layer can capture).
    pub max_reads_per_iteration: f64,
}

/// Analyzes the read-reuse of every basic group.
pub fn analyze(spec: &AppSpec) -> Vec<ReuseStats> {
    spec.basic_groups()
        .iter()
        .map(|g| {
            let (reads, _) = spec.total_accesses(g.id());
            let max_reads_per_iteration = spec
                .loop_nests()
                .iter()
                .map(|n| {
                    n.accesses()
                        .iter()
                        .filter(|a| a.group() == g.id() && a.kind().is_read())
                        .map(memx_ir::Access::weight)
                        .sum::<f64>()
                })
                .fold(0.0, f64::max);
            ReuseStats {
                group: g.id(),
                reads,
                reads_per_word: reads / g.words() as f64,
                max_reads_per_iteration,
            }
        })
        .collect()
}

/// Proposes hierarchy candidates for `group`.
///
/// Candidates are only proposed for off-chip groups with genuine reuse
/// (`reads_per_word > 1`): a register window capturing the intra-body
/// reuse, a small buffer capturing cross-iteration reuse, and the
/// two-level chain combining them.
pub fn candidates(spec: &AppSpec, group: BasicGroupId) -> Vec<ReuseCandidate> {
    let g = spec.group(group);
    #[expect(
        clippy::expect_used,
        reason = "`analyze` emits one stats row for every group of the spec"
    )]
    let stats = analyze(spec)
        .into_iter()
        .find(|s| s.group == group)
        .expect("group belongs to spec");
    let mut out = vec![ReuseCandidate {
        group,
        layers: Vec::new(),
        reads_absorbed: 0.0,
    }];
    if g.placement() != Placement::OffChip || stats.reads_per_word <= 1.0 {
        return out;
    }
    let window_reuse = stats
        .max_reads_per_iteration
        .max(1.0)
        .min(stats.reads_per_word);
    // Register window: a few words more than one iteration touches,
    // dual-ported because it is filled while being read.
    if window_reuse > 1.2 {
        let words = (stats.max_reads_per_iteration.ceil() as u64 * 3).clamp(4, 64);
        out.push(ReuseCandidate {
            group,
            layers: vec![HierarchyLayer::new(
                format!("{}_window", g.name()),
                words,
                2,
                (window_reuse / 1.5).max(1.0),
            )],
            reads_absorbed: stats.reads * (1.0 - 1.5 / window_reuse.max(1.5)),
        });
    }
    // Buffer layer: ~a row of the structure, capturing most of the
    // total reuse with page-mode fills.
    let buffer_words = (g.words() as f64).sqrt().ceil() as u64 * 4;
    if buffer_words < g.words() && stats.reads_per_word > 1.5 {
        let buffer = HierarchyLayer::new(
            format!("{}_buffer", g.name()),
            buffer_words.max(64),
            2,
            stats.reads_per_word,
        );
        out.push(ReuseCandidate {
            group,
            layers: vec![buffer.clone()],
            reads_absorbed: stats.reads * (1.0 - 1.0 / stats.reads_per_word),
        });
        if window_reuse > 1.2 {
            let words = (stats.max_reads_per_iteration.ceil() as u64 * 3).clamp(4, 64);
            let window = HierarchyLayer::new(
                format!("{}_window", g.name()),
                words,
                2,
                (window_reuse / 1.5).max(1.0),
            );
            let mut feeding = buffer;
            feeding.ports = 1; // only fills the window's copy loop
            if feeding.words > words && feeding.reuse >= window.reuse {
                out.push(ReuseCandidate {
                    group,
                    layers: vec![window, feeding],
                    reads_absorbed: stats.reads * (1.0 - 1.0 / stats.reads_per_word),
                });
            }
        }
    }
    out
}

/// The automatic hierarchy decision: evaluates every candidate of every
/// reusable group and returns the cheapest specification (possibly the
/// input, when no hierarchy pays off) with its report.
///
/// This is a one-group-at-a-time greedy pass, mirroring the paper's
/// "for every basic group, a separate memory hierarchy decision is
/// made".
///
/// # Errors
///
/// Propagates evaluation errors of the *baseline* spec; candidate
/// variants that fail to evaluate are skipped.
pub fn auto_hierarchy(
    spec: &AppSpec,
    lib: &MemLibrary,
    options: &EvaluateOptions,
) -> Result<(AppSpec, CostReport), ExploreError> {
    let mut best_spec = spec.clone();
    let mut best_report = evaluate(spec, lib, options)?;
    let groups: Vec<BasicGroupId> = spec.basic_groups().iter().map(|g| g.id()).collect();
    for group in groups {
        let mut improved: Option<(AppSpec, CostReport)> = None;
        for cand in candidates(&best_spec, group) {
            if cand.layers.is_empty() {
                continue;
            }
            let Ok(variant) = apply_hierarchy(&best_spec, group, &cand.layers) else {
                continue;
            };
            let Ok(report) = evaluate(&variant.spec, lib, options) else {
                continue;
            };
            let better_than_best = report.cost.scalar(1.0, 1.0)
                < improved
                    .as_ref()
                    .map(|(_, r)| r.cost.scalar(1.0, 1.0))
                    .unwrap_or_else(|| best_report.cost.scalar(1.0, 1.0));
            if better_than_best {
                improved = Some((variant.spec, report));
            }
        }
        if let Some((spec2, report2)) = improved {
            best_spec = spec2;
            best_report = report2;
        }
    }
    Ok((best_spec, best_report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memx_ir::{AccessKind, AppSpecBuilder};

    fn frame_spec() -> (AppSpec, BasicGroupId) {
        let mut b = AppSpecBuilder::new("t");
        let image = b
            .basic_group_placed("image", 1 << 18, 8, Placement::OffChip)
            .unwrap();
        let out = b
            .basic_group_placed("out", 1 << 18, 8, Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("conv", 1 << 18).unwrap();
        let mut reads = Vec::new();
        for _ in 0..9 {
            reads.push(b.access(n, image, AccessKind::Read).unwrap());
        }
        let w = b.access(n, out, AccessKind::Write).unwrap();
        for r in reads {
            b.depend(n, r, w).unwrap();
        }
        b.cycle_budget(30_000_000).real_time_seconds(0.5);
        (b.build().unwrap(), image)
    }

    #[test]
    fn analyze_reports_reuse() {
        let (spec, image) = frame_spec();
        let stats = analyze(&spec);
        let s = stats.iter().find(|s| s.group == image).unwrap();
        assert_eq!(s.reads_per_word, 9.0);
        assert_eq!(s.max_reads_per_iteration, 9.0);
        // The write-only output has no read reuse.
        let out = &stats[1];
        assert_eq!(out.reads, 0.0);
    }

    #[test]
    fn candidates_include_no_hierarchy_and_layers() {
        let (spec, image) = frame_spec();
        let cands = candidates(&spec, image);
        assert!(cands.len() >= 3, "only {} candidates", cands.len());
        assert!(cands[0].layers.is_empty());
        assert!(cands.iter().any(|c| c.layers.len() == 1));
        assert!(cands.iter().any(|c| c.layers.len() == 2));
        for c in &cands {
            for l in &c.layers {
                assert!(l.words < spec.group(image).words());
                assert!(l.reuse >= 1.0);
            }
        }
    }

    #[test]
    fn no_candidates_for_write_only_or_on_chip_groups() {
        let (spec, _) = frame_spec();
        let out = memx_ir::BasicGroupId::from_index(1);
        let cands = candidates(&spec, out);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].layers.is_empty());
    }

    #[test]
    fn auto_hierarchy_improves_a_reuse_heavy_spec() {
        let (spec, _) = frame_spec();
        let lib = MemLibrary::default_07um();
        let options = EvaluateOptions::default();
        let baseline = evaluate(&spec, &lib, &options).unwrap();
        let (improved_spec, improved) = auto_hierarchy(&spec, &lib, &options).unwrap();
        assert!(
            improved.cost.scalar(1.0, 1.0) <= baseline.cost.scalar(1.0, 1.0),
            "auto hierarchy made things worse"
        );
        // With 9x reuse a layer must pay off.
        assert!(improved_spec.basic_groups().len() > spec.basic_groups().len());
        assert!(improved.cost.off_chip_power_mw < baseline.cost.off_chip_power_mw);
    }

    #[test]
    fn auto_hierarchy_keeps_reuse_free_specs_unchanged() {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("stream", 1 << 16, 8, Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("scan", 1 << 16).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.cycle_budget(1 << 20).real_time_seconds(0.1);
        let spec = b.build().unwrap();
        let lib = MemLibrary::default_07um();
        let (unchanged, _) = auto_hierarchy(&spec, &lib, &EvaluateOptions::default()).unwrap();
        assert_eq!(unchanged.basic_groups().len(), spec.basic_groups().len());
    }
}
