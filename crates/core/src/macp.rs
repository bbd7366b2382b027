//! Memory-access critical path (MACP) analysis (§4.2).
//!
//! "Dependencies between memory accesses demand a certain amount of
//! sequentialism. The minimal chain of dependencies limits the
//! application's execution speed." This stage computes, per loop body
//! and for the whole application, the minimum number of cycles the
//! memory accesses need even with unlimited memory bandwidth — taking
//! the *access durations* of the target technology into account (random
//! off-chip DRAM accesses occupy several cycles; see
//! [`memx_memlib::timing`]).
//!
//! If the MACP exceeds the storage cycle budget, no memory organization
//! can meet the real-time constraint and global loop/data-flow
//! transformations are required before continuing (the paper's §4.2;
//! those transformations are outside this crate's scope, as they are
//! outside the paper's).

use memx_ir::{Access, AppSpec, LoopNest, Placement};
use memx_memlib::timing;

/// Cycles one access occupies, from its group's placement and burst
/// flag.
pub(crate) fn access_duration(spec: &AppSpec, access: &Access) -> u64 {
    let off_chip = spec.group(access.group()).placement() == Placement::OffChip;
    timing::access_cycles(off_chip, access.is_burst())
}

/// Critical path of one body in cycles, honouring access durations.
pub(crate) fn body_critical_path(spec: &AppSpec, nest: &LoopNest) -> u64 {
    let n = nest.accesses().len();
    if n == 0 {
        return 0;
    }
    let dur: Vec<u64> = nest
        .accesses()
        .iter()
        .map(|a| access_duration(spec, a))
        .collect();
    let mut finish: Vec<u64> = dur.clone();
    let mut indeg = vec![0usize; n];
    for e in nest.dependencies() {
        indeg[e.to.index()] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = stack.pop() {
        for e in nest.dependencies().iter().filter(|e| e.from.index() == i) {
            let j = e.to.index();
            finish[j] = finish[j].max(finish[i] + dur[j]);
            indeg[j] -= 1;
            if indeg[j] == 0 {
                stack.push(j);
            }
        }
    }
    finish.into_iter().max().unwrap_or(0)
}

/// Per-body critical-path entry of a [`MacpReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct BodyPath {
    /// Loop nest name.
    pub nest: String,
    /// Body executions per application execution.
    pub iterations: u64,
    /// Critical path of one body execution, in cycles.
    pub critical_path: u64,
}

/// Result of MACP analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MacpReport {
    /// Per-body chains.
    pub bodies: Vec<BodyPath>,
    /// Total MACP: `sum(iterations x critical_path)` over bodies
    /// (sequential body execution), saturating at `u64::MAX`.
    pub total_cycles: u64,
    /// The spec's storage cycle budget.
    pub budget: u64,
}

impl MacpReport {
    /// `true` when the dependency chains alone fit the budget.
    pub fn is_feasible(&self) -> bool {
        self.total_cycles <= self.budget
    }

    /// Cycles of slack between MACP and budget (0 when infeasible).
    pub fn slack(&self) -> u64 {
        self.budget.saturating_sub(self.total_cycles)
    }

    /// The body with the largest total contribution, if any.
    pub fn dominant_body(&self) -> Option<&BodyPath> {
        self.bodies
            .iter()
            .max_by_key(|b| b.iterations.saturating_mul(b.critical_path))
    }
}

/// Analyzes the memory-access critical path of a specification.
pub fn analyze(spec: &AppSpec) -> MacpReport {
    let bodies: Vec<BodyPath> = spec
        .loop_nests()
        .iter()
        .map(|nest| BodyPath {
            nest: nest.name().to_owned(),
            iterations: nest.iterations(),
            critical_path: body_critical_path(spec, nest),
        })
        .collect();
    let total_cycles = bodies.iter().fold(0u64, |sum, b| {
        sum.saturating_add(b.iterations.saturating_mul(b.critical_path))
    });
    MacpReport {
        bodies,
        total_cycles,
        budget: spec.cycle_budget(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memx_ir::{AccessKind, AppSpecBuilder};

    fn spec(off_chip: bool) -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let placement = if off_chip {
            Placement::OffChip
        } else {
            Placement::Any
        };
        let g = b.basic_group_placed("g", 1024, 8, placement).unwrap();
        let n = b.loop_nest("l", 100).unwrap();
        let a0 = b.access(n, g, AccessKind::Read).unwrap();
        let a1 = b.access(n, g, AccessKind::Read).unwrap();
        let a2 = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, a0, a2).unwrap();
        b.depend(n, a1, a2).unwrap();
        b.cycle_budget(10_000);
        b.build().unwrap()
    }

    #[test]
    fn on_chip_chain_counts_single_cycles() {
        let report = analyze(&spec(false));
        // Chain read -> write: 2 cycles per body.
        assert_eq!(report.bodies[0].critical_path, 2);
        assert_eq!(report.total_cycles, 200);
        assert!(report.is_feasible());
        assert_eq!(report.slack(), 9_800);
    }

    #[test]
    fn off_chip_accesses_stretch_the_path() {
        let report = analyze(&spec(true));
        // Two random off-chip accesses in sequence: 2 x 4 cycles.
        assert_eq!(
            report.bodies[0].critical_path,
            2 * timing::OFF_CHIP_RANDOM_CYCLES
        );
    }

    #[test]
    fn infeasible_budget_detected() {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("g", 1 << 20, 8, Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("l", 1000).unwrap();
        let a0 = b.access(n, g, AccessKind::Read).unwrap();
        let a1 = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, a0, a1).unwrap();
        b.cycle_budget(3000); // need 1000 x 8
        let spec = b.build().unwrap();
        let report = analyze(&spec);
        assert!(!report.is_feasible());
        assert_eq!(report.slack(), 0);
    }

    #[test]
    fn burst_accesses_are_fast() {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("g", 1 << 20, 8, Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("copy", 10).unwrap();
        b.access_full(n, g, AccessKind::Read, 1.0, true).unwrap();
        b.cycle_budget(1000);
        let spec = b.build().unwrap();
        let report = analyze(&spec);
        assert_eq!(
            report.bodies[0].critical_path,
            timing::OFF_CHIP_BURST_CYCLES
        );
    }

    #[test]
    fn dominant_body_is_heaviest() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 64, 8).unwrap();
        let small = b.loop_nest("small", 10).unwrap();
        b.access(small, g, AccessKind::Read).unwrap();
        let big = b.loop_nest("big", 10_000).unwrap();
        b.access(big, g, AccessKind::Read).unwrap();
        b.cycle_budget(100_000);
        let spec = b.build().unwrap();
        let report = analyze(&spec);
        assert_eq!(report.dominant_body().unwrap().nest, "big");
    }
}
