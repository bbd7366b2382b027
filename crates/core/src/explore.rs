//! The Figure-1 feedback driver: evaluate a specification variant
//! end-to-end and report the three cost figures.
//!
//! Every decision step of the methodology (structuring, hierarchy,
//! budget, allocation) produces *variant specifications*; this module
//! runs a variant through storage-cycle-budget distribution and memory
//! allocation/assignment and returns the accurate area/power feedback
//! that steers the next decision. [`Exploration`] batches variants and
//! keeps their reports side by side, like the tables of the paper.

use std::fmt;

use memx_ir::AppSpec;
use memx_memlib::{CostBreakdown, MemLibrary};

use crate::alloc::{assign_with_stats, check_cost_weights, AllocOptions, AllocStats, Organization};
use crate::cache::EvalCtx;
use crate::macp;
use crate::scbd::{Plan, ScbdResult};
use crate::ExploreError;

/// Options for a single end-to-end evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvaluateOptions {
    /// Override of the spec's storage cycle budget (Table 3 knob).
    pub cycle_budget: Option<u64>,
    /// Allocation/assignment options (Table 4 knob).
    pub alloc: AllocOptions,
}

/// The feedback of one evaluated variant.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Variant label (e.g. `"ridge and pyr merged"`).
    pub label: String,
    /// The paper's three figures.
    pub cost: CostBreakdown,
    /// The designed memory organization behind the figures.
    pub organization: Organization,
    /// The distributed schedule (for inspecting budgets/conflicts).
    pub schedule: ScbdResult,
    /// Memory-access critical path of the variant.
    pub macp_cycles: u64,
    /// Search-effort counters of the allocation solver (branch-and-bound
    /// nodes, sweep skips, off-chip partitions) — how hard the solver
    /// worked, not part of the deterministic result.
    pub alloc_stats: AllocStats,
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<28} {}", self.label, self.cost)
    }
}

/// Runs SCBD + allocation/assignment on one variant.
///
/// With a cache in `ctx`, *both stages* are served from it when valid
/// entries exist, and freshly computed schedules and allocation
/// solutions are published to it. Results are bit-identical with or
/// without a cache — the cache only changes the work, not the answer
/// (see [`crate::cache`]). Pass `&lib` for an uncached run.
///
/// # Errors
///
/// Propagates [`ExploreError`]s from the stages (tight budgets,
/// infeasible assignments); the cache itself never fails an evaluation.
pub fn evaluate<'a>(
    spec: &AppSpec,
    ctx: impl Into<EvalCtx<'a>>,
    options: &EvaluateOptions,
) -> Result<CostReport, ExploreError> {
    let ctx = ctx.into();
    let budget = options.cycle_budget.unwrap_or_else(|| spec.cycle_budget());
    let schedule = ctx.distribute(&mut Plan::new(spec), budget)?;
    evaluate_scheduled(spec, ctx, schedule, options)
}

/// Runs allocation/assignment on an already-distributed schedule: the
/// engine's memoized batch evaluation (see [`crate::engine`]) shares one
/// schedule between the points of a `(spec, budget)` pair instead of
/// redistributing it per point.
pub(crate) fn evaluate_scheduled(
    spec: &AppSpec,
    ctx: EvalCtx<'_>,
    schedule: ScbdResult,
    options: &EvaluateOptions,
) -> Result<CostReport, ExploreError> {
    let (organization, alloc_stats) = assign_with_stats(spec, &schedule, ctx, &options.alloc)?;
    let report = macp::analyze(spec);
    Ok(CostReport {
        label: spec.name().to_owned(),
        cost: organization.cost,
        organization,
        schedule,
        macp_cycles: report.total_cycles,
        alloc_stats,
    })
}

/// A batch of variant evaluations sharing one technology library — the
/// "try out a number of alternatives and compare" workflow of every
/// exploration table in the paper.
#[derive(Debug)]
pub struct Exploration<'a> {
    lib: &'a MemLibrary,
    reports: Vec<CostReport>,
}

impl<'a> Exploration<'a> {
    /// Creates an empty exploration over `lib`.
    pub fn new(lib: &'a MemLibrary) -> Self {
        Exploration {
            lib,
            reports: Vec::new(),
        }
    }

    /// Evaluates a variant and records its report under `label`.
    ///
    /// # Errors
    ///
    /// Propagates the evaluation error without recording a report.
    pub fn add(
        &mut self,
        label: impl Into<String>,
        spec: &AppSpec,
        options: &EvaluateOptions,
    ) -> Result<&CostReport, ExploreError> {
        let mut report = evaluate(spec, self.lib, options)?;
        report.label = label.into();
        self.reports.push(report);
        #[expect(
            clippy::expect_used,
            reason = "the report was pushed on the line above"
        )]
        let report = self.reports.last().expect("just pushed");
        Ok(report)
    }

    /// Records an already-evaluated report (the fold target of the
    /// engine's batched evaluation, see [`crate::engine::Engine`]).
    pub fn push(&mut self, report: CostReport) {
        self.reports.push(report);
    }

    /// All recorded reports, in insertion order.
    pub fn reports(&self) -> &[CostReport] {
        &self.reports
    }

    /// The report with the lowest scalarized cost, or `Ok(None)` when no
    /// report has been recorded.
    ///
    /// Comparison uses [`f64::total_cmp`], so even degenerate (NaN)
    /// scalarized costs rank deterministically instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::BadCostWeights`] for NaN, infinite or
    /// negative weights.
    pub fn best(
        &self,
        area_weight: f64,
        power_weight: f64,
    ) -> Result<Option<&CostReport>, ExploreError> {
        check_cost_weights(area_weight, power_weight)?;
        Ok(self.reports.iter().min_by(|a, b| {
            a.cost
                .scalar(area_weight, power_weight)
                .total_cmp(&b.cost.scalar(area_weight, power_weight))
        }))
    }

    /// The Pareto-optimal reports: variants not dominated on all three
    /// cost axes by any other recorded variant. Exposes the genuine
    /// area/power trade-offs the designer must weigh (e.g. Table 2's
    /// layer-1-vs-layer-0 choice).
    pub fn pareto_front(&self) -> Vec<&CostReport> {
        pareto_front(&self.reports)
    }

    /// Renders the reports as a paper-style table.
    pub fn to_table(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{title}\n"));
        out.push_str(&format!(
            "{:<28} {:>16} {:>16} {:>16}\n",
            "Version", "on-chip area", "on-chip power", "off-chip power"
        ));
        out.push_str(&format!(
            "{:<28} {:>16} {:>16} {:>16}\n",
            "", "[mm2]", "[mW]", "[mW]"
        ));
        for r in &self.reports {
            out.push_str(&format!(
                "{:<28} {:>16.1} {:>16.1} {:>16.1}\n",
                r.label, r.cost.on_chip_area_mm2, r.cost.on_chip_power_mw, r.cost.off_chip_power_mw
            ));
        }
        out
    }
}

/// Filters `reports` down to the Pareto front over the three cost axes
/// (on-chip area, on-chip power, off-chip power).
///
/// Duplicate cost points are all kept: they are distinct design options
/// with identical cost, which the designer may still prefer for other
/// reasons (layout, bus structure — the paper's §4.6 closing remark).
pub fn pareto_front(reports: &[CostReport]) -> Vec<&CostReport> {
    let costs: Vec<CostBreakdown> = reports.iter().map(|r| r.cost).collect();
    pareto_indices(&costs)
        .into_iter()
        .map(|i| &reports[i])
        .collect()
}

/// Indices of the Pareto-optimal cost points, in input order.
///
/// A point is kept unless some *other* point dominates it strictly
/// (better-or-equal on every axis and the candidate does not dominate
/// back). Duplicate cost points therefore all survive — the §4.6
/// semantics [`pareto_front`] documents — and the kept *set* is
/// invariant under permutation of the input.
pub fn pareto_indices(costs: &[CostBreakdown]) -> Vec<usize> {
    (0..costs.len())
        .filter(|&i| {
            !costs.iter().enumerate().any(|(j, other)| {
                j != i && other.dominates(&costs[i]) && !costs[i].dominates(other)
            })
            // (kept explicit: "strictly better on some axis" semantics)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheStats, EvalCache};
    use memx_ir::{AccessKind, AppSpecBuilder};

    fn spec() -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 1024, 8).unwrap();
        let y = b.basic_group("y", 512, 16).unwrap();
        let n = b.loop_nest("l", 10_000).unwrap();
        let rx = b.access(n, x, AccessKind::Read).unwrap();
        let wy = b.access(n, y, AccessKind::Write).unwrap();
        b.depend(n, rx, wy).unwrap();
        b.cycle_budget(100_000).real_time_seconds(0.01);
        b.build().unwrap()
    }

    #[test]
    fn evaluate_produces_costs_and_schedule() {
        let lib = MemLibrary::default_07um();
        let report = evaluate(&spec(), &lib, &EvaluateOptions::default()).unwrap();
        assert!(report.cost.on_chip_area_mm2 > 0.0);
        assert_eq!(report.macp_cycles, 20_000);
        assert!(!report.schedule.bodies.is_empty());
    }

    #[test]
    fn cached_evaluate_is_bit_identical_and_counts_each_kind_exactly() {
        let dir = std::env::temp_dir().join(format!(
            "memx-explore-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cache = EvalCache::open(&dir).unwrap();
        let lib = MemLibrary::default_07um();
        let options = EvaluateOptions::default();
        // `Debug` prints every float by its shortest round-trip form, so
        // equal renderings mean equal bits (signed zeros included).
        let plain = format!("{:?}", evaluate(&spec(), &lib, &options).unwrap());
        let ctx = EvalCtx {
            lib: &lib,
            cache: Some(&cache),
        };
        for (pass, hits, misses) in [("cold", 0, 1), ("warm", 1, 1)] {
            let cached = evaluate(&spec(), ctx, &options).unwrap();
            assert_eq!(format!("{cached:?}"), plain, "{pass}");
            let want = CacheStats {
                scbd_hits: hits,
                scbd_misses: misses,
                alloc_hits: hits,
                alloc_misses: misses,
                ..CacheStats::default()
            };
            assert_eq!(cache.stats(), want, "{pass}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_override_tightens_schedule() {
        let lib = MemLibrary::default_07um();
        let loose = evaluate(&spec(), &lib, &EvaluateOptions::default()).unwrap();
        let tight = evaluate(
            &spec(),
            &lib,
            &EvaluateOptions {
                cycle_budget: Some(20_000),
                ..EvaluateOptions::default()
            },
        )
        .unwrap();
        assert!(tight.schedule.total_budget < loose.schedule.total_budget);
    }

    #[test]
    fn exploration_collects_and_ranks() {
        let lib = MemLibrary::default_07um();
        let mut exp = Exploration::new(&lib);
        exp.add("base", &spec(), &EvaluateOptions::default())
            .unwrap();
        exp.add(
            "tight",
            &spec(),
            &EvaluateOptions {
                cycle_budget: Some(20_000),
                ..EvaluateOptions::default()
            },
        )
        .unwrap();
        assert_eq!(exp.reports().len(), 2);
        assert!(exp.best(1.0, 1.0).expect("weights valid").is_some());
        let table = exp.to_table("Table X");
        assert!(table.contains("Table X"));
        assert!(table.contains("base"));
        assert!(table.contains("tight"));
    }

    #[test]
    fn pareto_front_drops_dominated_variants() {
        let lib = MemLibrary::default_07um();
        let mut exp = Exploration::new(&lib);
        exp.add("loose", &spec(), &EvaluateOptions::default())
            .unwrap();
        exp.add(
            "tight",
            &spec(),
            &EvaluateOptions {
                cycle_budget: Some(20_000),
                ..EvaluateOptions::default()
            },
        )
        .unwrap();
        let front = exp.pareto_front();
        assert!(!front.is_empty());
        // Every front member is undominated.
        for f in &front {
            for r in exp.reports() {
                if !std::ptr::eq(*f, r) {
                    let strictly_dominated =
                        r.cost.dominates(&f.cost) && !f.cost.dominates(&r.cost);
                    assert!(!strictly_dominated);
                }
            }
        }
    }

    #[test]
    fn best_rejects_bad_weights_without_panicking() {
        let lib = MemLibrary::default_07um();
        let mut exp = Exploration::new(&lib);
        exp.add("base", &spec(), &EvaluateOptions::default())
            .unwrap();
        // The regression this guards: NaN weights used to panic inside
        // the comparison ("costs are finite").
        for (aw, pw) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::NEG_INFINITY, 1.0),
            (-2.0, 1.0),
            (1.0, -0.1),
        ] {
            let err = exp.best(aw, pw).unwrap_err();
            assert!(
                matches!(err, ExploreError::BadCostWeights { .. }),
                "weights ({aw}, {pw})"
            );
        }
        // An empty exploration with valid weights is None, not an error.
        let empty = Exploration::new(&lib);
        assert!(empty.best(1.0, 1.0).unwrap().is_none());
    }

    #[test]
    fn pareto_indices_keep_duplicates_and_drop_dominated() {
        let costs = vec![
            CostBreakdown::new(1.0, 1.0, 1.0),
            CostBreakdown::new(1.0, 1.0, 1.0), // duplicate: kept too
            CostBreakdown::new(2.0, 2.0, 2.0), // dominated: dropped
            CostBreakdown::new(0.5, 3.0, 1.0), // trade-off: kept
        ];
        assert_eq!(pareto_indices(&costs), vec![0, 1, 3]);
    }

    #[test]
    fn infeasible_variant_is_not_recorded() {
        let lib = MemLibrary::default_07um();
        let mut exp = Exploration::new(&lib);
        let result = exp.add(
            "impossible",
            &spec(),
            &EvaluateOptions {
                cycle_budget: Some(10),
                ..EvaluateOptions::default()
            },
        );
        assert!(result.is_err());
        assert!(exp.reports().is_empty());
    }
}
