//! The pruned application specification and its builder.

use std::collections::BTreeMap;

use crate::hash::StableHasher;
use crate::{
    Access, AccessId, AccessKind, BasicGroup, BasicGroupId, BuildSpecError, DependencyEdge,
    LoopNest, LoopNestId, Placement, ValidateSpecError,
};

/// The pruned system specification of §4.1: basic groups, loop nests with
/// access flow graphs, and the real-time constraint.
///
/// An `AppSpec` is immutable; the transforms of the methodology
/// (structuring, hierarchy insertion, ...) produce *new* specs, mirroring
/// how the paper produces variant source files of the pruned code.
///
/// # Example
///
/// ```
/// use memx_ir::{AppSpecBuilder, AccessKind};
///
/// # fn main() -> Result<(), memx_ir::BuildSpecError> {
/// let mut b = AppSpecBuilder::new("demo");
/// let img = b.basic_group("img", 4096, 8)?;
/// let nest = b.loop_nest("scan", 4096)?;
/// b.access(nest, img, AccessKind::Read)?;
/// let spec = b.cycle_budget(10_000).build()?;
/// let (reads, writes) = spec.total_accesses(img);
/// assert_eq!((reads, writes), (4096.0, 0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    name: String,
    groups: Vec<BasicGroup>,
    nests: Vec<LoopNest>,
    cycle_budget: u64,
    real_time_s: f64,
}

impl AppSpec {
    /// Name of the application.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All basic groups, indexed by [`BasicGroupId`].
    pub fn basic_groups(&self) -> &[BasicGroup] {
        &self.groups
    }

    /// The basic group with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this specification.
    pub fn group(&self, id: BasicGroupId) -> &BasicGroup {
        &self.groups[id.index()]
    }

    /// Looks a basic group up by name.
    pub fn group_by_name(&self, name: &str) -> Option<&BasicGroup> {
        self.groups.iter().find(|g| g.name == name)
    }

    /// All loop nests, indexed by [`LoopNestId`].
    pub fn loop_nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// The loop nest with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this specification.
    pub fn nest(&self, id: LoopNestId) -> &LoopNest {
        &self.nests[id.index()]
    }

    /// The storage cycle budget: the total number of cycles that may be
    /// spent on memory accesses per application execution (derived from
    /// the real-time constraint, §3 of the paper).
    pub fn cycle_budget(&self) -> u64 {
        self.cycle_budget
    }

    /// Wall-clock time allowed for one application execution, in seconds.
    ///
    /// Power figures are `energy per execution / real_time_seconds`.
    pub fn real_time_seconds(&self) -> f64 {
        self.real_time_s
    }

    /// Total weighted (reads, writes) to `group` per application
    /// execution, summed over all loop nests.
    pub fn total_accesses(&self, group: BasicGroupId) -> (f64, f64) {
        let mut reads = 0.0;
        let mut writes = 0.0;
        for nest in &self.nests {
            let (r, w) = nest.access_counts(group);
            reads += r;
            writes += w;
        }
        (reads, writes)
    }

    /// Total weighted accesses (reads + writes) over all groups.
    pub fn total_access_count(&self) -> f64 {
        self.groups
            .iter()
            .map(|g| {
                let (r, w) = self.total_accesses(g.id);
                r + w
            })
            .sum()
    }

    /// Lower bound on the cycles needed by the dependency chains alone:
    /// the sum over loop bodies of `iterations x critical-path length`,
    /// assuming unbounded memory bandwidth. This is the memory-access
    /// critical path (MACP) of §4.2 under sequential body execution.
    /// Saturates at `u64::MAX`.
    pub fn min_cycles(&self) -> u64 {
        self.nests.iter().fold(0u64, |sum, n| {
            sum.saturating_add(n.iterations.saturating_mul(n.critical_path_len()))
        })
    }

    /// Checks internal referential integrity. A spec built through
    /// [`AppSpecBuilder`] is always valid; this is useful after manual
    /// surgery by external tools.
    ///
    /// # Errors
    ///
    /// Returns an error if an access refers to a missing basic group or a
    /// dependency edge to a missing access.
    pub fn validate(&self) -> Result<(), ValidateSpecError> {
        for nest in &self.nests {
            for a in &nest.accesses {
                if a.group.index() >= self.groups.len() {
                    return Err(ValidateSpecError::DanglingGroup {
                        nest: nest.name.clone(),
                    });
                }
            }
            for e in &nest.deps {
                if e.from.index() >= nest.accesses.len() || e.to.index() >= nest.accesses.len() {
                    return Err(ValidateSpecError::DanglingAccess {
                        nest: nest.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Stable 64-bit content hash over every field that influences
    /// scheduling, allocation and cost evaluation (FNV-1a).
    ///
    /// Two specifications with equal content hash produce identical
    /// exploration results, so the hash serves as a memoization key —
    /// the exploration engine uses `(content_hash, cycle_budget)` to
    /// share one storage-cycle-budget distribution across design points
    /// that differ only in allocation options (e.g. a Table-4 sweep).
    /// The hash is *not* a cryptographic commitment; it is stable across
    /// processes and releases only as long as the IR layout is.
    pub fn content_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(&self.name);
        h.write_u64(self.groups.len() as u64);
        for g in &self.groups {
            h.write_str(&g.name);
            h.write_u64(g.words);
            h.write_u64(u64::from(g.bitwidth));
            h.write_u64(match g.placement {
                Placement::Any => 0,
                Placement::OnChip => 1,
                Placement::OffChip => 2,
            });
            h.write_u64(u64::from(g.min_ports));
        }
        h.write_u64(self.nests.len() as u64);
        for n in &self.nests {
            h.write_str(&n.name);
            h.write_u64(n.iterations);
            h.write_u64(n.accesses.len() as u64);
            for a in &n.accesses {
                h.write_u64(a.group.index() as u64);
                h.write_u64(match a.kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                });
                h.write_u64(a.weight.to_bits());
                h.write_u64(u64::from(a.burst));
            }
            h.write_u64(n.deps.len() as u64);
            for e in &n.deps {
                h.write_u64(e.from.index() as u64);
                h.write_u64(e.to.index() as u64);
            }
        }
        h.write_u64(self.cycle_budget);
        h.write_u64(self.real_time_s.to_bits());
        h.finish()
    }

    /// Re-opens this specification for modification, preserving all ids.
    ///
    /// This is how the methodology's transforms derive variant specs: the
    /// returned builder is pre-populated with every group, nest, access
    /// and dependency of `self`.
    pub fn to_builder(&self) -> AppSpecBuilder {
        AppSpecBuilder {
            name: self.name.clone(),
            groups: self.groups.clone(),
            nests: self.nests.clone(),
            names: self.groups.iter().map(|g| (g.name.clone(), g.id)).collect(),
            cycle_budget: Some(self.cycle_budget),
            real_time_s: self.real_time_s,
        }
    }
}

/// Builder for [`AppSpec`] (see the crate-level example).
///
/// The builder validates each element as it is added and the whole
/// specification once more on [`AppSpecBuilder::build`].
#[derive(Debug, Clone)]
pub struct AppSpecBuilder {
    name: String,
    groups: Vec<BasicGroup>,
    nests: Vec<LoopNest>,
    names: BTreeMap<String, BasicGroupId>,
    cycle_budget: Option<u64>,
    real_time_s: f64,
}

impl AppSpecBuilder {
    /// Creates an empty builder for an application called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AppSpecBuilder {
            name: name.into(),
            groups: Vec::new(),
            nests: Vec::new(),
            names: BTreeMap::new(),
            cycle_budget: None,
            real_time_s: 1.0,
        }
    }

    /// Declares a basic group with free placement.
    ///
    /// # Errors
    ///
    /// Rejects zero-word groups, bit widths outside `1..=64` and duplicate
    /// names.
    pub fn basic_group(
        &mut self,
        name: impl Into<String>,
        words: u64,
        bitwidth: u32,
    ) -> Result<BasicGroupId, BuildSpecError> {
        self.basic_group_placed(name, words, bitwidth, Placement::Any)
    }

    /// Declares a basic group with an explicit placement constraint.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AppSpecBuilder::basic_group`].
    pub fn basic_group_placed(
        &mut self,
        name: impl Into<String>,
        words: u64,
        bitwidth: u32,
        placement: Placement,
    ) -> Result<BasicGroupId, BuildSpecError> {
        self.basic_group_full(name, words, bitwidth, placement, 1)
    }

    /// Declares a basic group with placement and a minimum port count
    /// (see [`BasicGroup::min_ports`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AppSpecBuilder::basic_group`]; additionally
    /// rejects `min_ports == 0`.
    pub fn basic_group_full(
        &mut self,
        name: impl Into<String>,
        words: u64,
        bitwidth: u32,
        placement: Placement,
        min_ports: u32,
    ) -> Result<BasicGroupId, BuildSpecError> {
        let name = name.into();
        if words == 0 {
            return Err(BuildSpecError::EmptyGroup { name });
        }
        if bitwidth == 0 || bitwidth > 64 {
            return Err(BuildSpecError::BadBitwidth { name, bitwidth });
        }
        if min_ports == 0 {
            return Err(BuildSpecError::UnknownEntity {
                what: format!("port count 0 for group `{name}`"),
            });
        }
        if self.names.contains_key(&name) {
            return Err(BuildSpecError::DuplicateGroup { name });
        }
        let id = BasicGroupId(self.groups.len() as u32);
        self.names.insert(name.clone(), id);
        self.groups.push(BasicGroup {
            id,
            name,
            words,
            bitwidth,
            placement,
            min_ports,
        });
        Ok(id)
    }

    /// Declares a loop nest executing its body `iterations` times.
    ///
    /// # Errors
    ///
    /// Rejects zero iteration counts.
    pub fn loop_nest(
        &mut self,
        name: impl Into<String>,
        iterations: u64,
    ) -> Result<LoopNestId, BuildSpecError> {
        let name = name.into();
        if iterations == 0 {
            return Err(BuildSpecError::ZeroIterations { name });
        }
        let id = LoopNestId(self.nests.len() as u32);
        self.nests.push(LoopNest {
            id,
            name,
            iterations,
            accesses: Vec::new(),
            deps: Vec::new(),
        });
        Ok(id)
    }

    /// Adds an unconditional access to a loop body.
    ///
    /// # Errors
    ///
    /// Returns an error if `nest` or `group` is unknown.
    pub fn access(
        &mut self,
        nest: LoopNestId,
        group: BasicGroupId,
        kind: AccessKind,
    ) -> Result<AccessId, BuildSpecError> {
        self.access_weighted(nest, group, kind, 1.0)
    }

    /// Adds an access executed with profiled frequency `weight` in (0, 1]
    /// (data-dependent conditional, §4.1).
    ///
    /// # Errors
    ///
    /// Returns an error if `nest` or `group` is unknown or the weight is
    /// outside (0, 1].
    pub fn access_weighted(
        &mut self,
        nest: LoopNestId,
        group: BasicGroupId,
        kind: AccessKind,
        weight: f64,
    ) -> Result<AccessId, BuildSpecError> {
        self.access_full(nest, group, kind, weight, false)
    }

    /// Adds an access with full control over weight and burst flag
    /// (see [`Access::is_burst`]). Hierarchy copy loops mark their block
    /// transfers as bursts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AppSpecBuilder::access_weighted`].
    pub fn access_full(
        &mut self,
        nest: LoopNestId,
        group: BasicGroupId,
        kind: AccessKind,
        weight: f64,
        burst: bool,
    ) -> Result<AccessId, BuildSpecError> {
        if group.index() >= self.groups.len() {
            return Err(BuildSpecError::UnknownEntity {
                what: format!("basic group {group}"),
            });
        }
        if !(weight > 0.0 && weight <= 1.0) {
            return Err(BuildSpecError::BadWeight { weight });
        }
        let nest = self.nest_mut(nest)?;
        let id = AccessId(nest.accesses.len() as u32);
        nest.accesses.push(Access {
            id,
            group,
            kind,
            weight,
            burst,
        });
        Ok(id)
    }

    /// Adds a dependency edge `from -> to` inside a loop body.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown ids or if the edge would create a
    /// cycle.
    pub fn depend(
        &mut self,
        nest: LoopNestId,
        from: AccessId,
        to: AccessId,
    ) -> Result<(), BuildSpecError> {
        let nest_ref = self.nest_mut(nest)?;
        let len = nest_ref.accesses.len();
        if from.index() >= len || to.index() >= len {
            return Err(BuildSpecError::UnknownEntity {
                what: format!("access {from} or {to}"),
            });
        }
        nest_ref.deps.push(DependencyEdge { from, to });
        if Self::has_cycle(nest_ref) {
            let name = nest_ref.name.clone();
            nest_ref.deps.pop();
            return Err(BuildSpecError::CyclicDependency { nest: name });
        }
        Ok(())
    }

    /// Sets the storage cycle budget (mandatory).
    pub fn cycle_budget(&mut self, cycles: u64) -> &mut Self {
        self.cycle_budget = Some(cycles);
        self
    }

    /// Sets the wall-clock time allowed per execution (default 1 s).
    pub fn real_time_seconds(&mut self, seconds: f64) -> &mut Self {
        self.real_time_s = seconds;
        self
    }

    /// Finalizes the specification.
    ///
    /// # Errors
    ///
    /// Returns an error if no cycle budget was set or the budget is below
    /// the memory-access critical path (no legal schedule exists).
    pub fn build(&self) -> Result<AppSpec, BuildSpecError> {
        let budget = self
            .cycle_budget
            .ok_or(BuildSpecError::MissingCycleBudget)?;
        let spec = AppSpec {
            name: self.name.clone(),
            groups: self.groups.clone(),
            nests: self.nests.clone(),
            cycle_budget: budget,
            real_time_s: self.real_time_s,
        };
        let critical_path = spec.min_cycles();
        if budget < critical_path {
            return Err(BuildSpecError::InfeasibleBudget {
                critical_path,
                budget,
            });
        }
        Ok(spec)
    }

    /// Removes every access to `group` in all loop bodies, together with
    /// the dependency edges touching them (used by structuring transforms
    /// when a group is replaced).
    pub fn remove_group_accesses(&mut self, group: BasicGroupId) {
        for nest in &mut self.nests {
            // Build the keep-list and an old-id -> new-id map.
            let mut remap: Vec<Option<AccessId>> = Vec::with_capacity(nest.accesses.len());
            let mut kept = Vec::with_capacity(nest.accesses.len());
            for a in &nest.accesses {
                if a.group == group {
                    remap.push(None);
                } else {
                    let new_id = AccessId(kept.len() as u32);
                    remap.push(Some(new_id));
                    let mut na = a.clone();
                    na.id = new_id;
                    kept.push(na);
                }
            }
            nest.accesses = kept;
            nest.deps = nest
                .deps
                .iter()
                .filter_map(|e| {
                    Some(DependencyEdge {
                        from: remap[e.from.index()]?,
                        to: remap[e.to.index()]?,
                    })
                })
                .collect();
        }
    }

    /// Number of groups declared so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Looks up a declared basic group by name (how the textual
    /// front-end resolves access references).
    pub fn group_id(&self, name: &str) -> Option<BasicGroupId> {
        self.names.get(name).copied()
    }

    /// Read access to the nests assembled so far (transform support).
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    fn nest_mut(&mut self, id: LoopNestId) -> Result<&mut LoopNest, BuildSpecError> {
        let idx = id.index();
        if idx >= self.nests.len() {
            return Err(BuildSpecError::UnknownEntity {
                what: format!("loop nest {id}"),
            });
        }
        Ok(&mut self.nests[idx])
    }

    fn has_cycle(nest: &LoopNest) -> bool {
        let n = nest.accesses.len();
        let mut indeg = vec![0usize; n];
        for e in &nest.deps {
            indeg[e.to.index()] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = stack.pop() {
            seen += 1;
            for e in nest.deps.iter().filter(|e| e.from.index() == i) {
                let j = e.to.index();
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        seen != n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AppSpecBuilder {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 16, 8).unwrap();
        let n = b.loop_nest("l", 4).unwrap();
        let a0 = b.access(n, g, AccessKind::Read).unwrap();
        let a1 = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, a0, a1).unwrap();
        b.cycle_budget(100);
        b
    }

    #[test]
    fn build_round_trip() {
        let spec = tiny().build().unwrap();
        assert_eq!(spec.name(), "t");
        assert_eq!(spec.basic_groups().len(), 1);
        assert_eq!(spec.loop_nests().len(), 1);
        assert_eq!(spec.min_cycles(), 8); // 4 iterations x chain of 2
        spec.validate().unwrap();
    }

    #[test]
    fn missing_budget_rejected() {
        let mut b = AppSpecBuilder::new("t");
        b.basic_group("g", 1, 1).unwrap();
        assert_eq!(b.build().unwrap_err(), BuildSpecError::MissingCycleBudget);
    }

    #[test]
    fn infeasible_budget_rejected() {
        let mut b = tiny();
        b.cycle_budget(7); // need 8
        match b.build().unwrap_err() {
            BuildSpecError::InfeasibleBudget {
                critical_path,
                budget,
            } => {
                assert_eq!((critical_path, budget), (8, 7));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn overflowing_critical_path_rejected() {
        // 2^63 iterations of a 2-access chain need 2^64 cycles, one past
        // `u64::MAX`: the total saturates instead of wrapping to 0.
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 16, 8).unwrap();
        let n = b.loop_nest("l", 1 << 63).unwrap();
        let a0 = b.access(n, g, AccessKind::Read).unwrap();
        let a1 = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, a0, a1).unwrap();
        b.cycle_budget(10);
        assert_eq!(
            b.build().unwrap_err(),
            BuildSpecError::InfeasibleBudget {
                critical_path: u64::MAX,
                budget: 10,
            }
        );
    }

    #[test]
    fn duplicate_group_rejected() {
        let mut b = AppSpecBuilder::new("t");
        b.basic_group("g", 1, 1).unwrap();
        assert!(matches!(
            b.basic_group("g", 2, 2),
            Err(BuildSpecError::DuplicateGroup { .. })
        ));
    }

    #[test]
    fn zero_words_and_bad_width_rejected() {
        let mut b = AppSpecBuilder::new("t");
        assert!(matches!(
            b.basic_group("a", 0, 8),
            Err(BuildSpecError::EmptyGroup { .. })
        ));
        assert!(matches!(
            b.basic_group("b", 8, 0),
            Err(BuildSpecError::BadBitwidth { .. })
        ));
        assert!(matches!(
            b.basic_group("c", 8, 65),
            Err(BuildSpecError::BadBitwidth { .. })
        ));
    }

    #[test]
    fn cycle_detection_rejects_and_rolls_back() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 4, 4).unwrap();
        let n = b.loop_nest("l", 1).unwrap();
        let a0 = b.access(n, g, AccessKind::Read).unwrap();
        let a1 = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, a0, a1).unwrap();
        assert!(matches!(
            b.depend(n, a1, a0),
            Err(BuildSpecError::CyclicDependency { .. })
        ));
        // Edge rolled back: builder still produces a valid spec.
        b.cycle_budget(100);
        let spec = b.build().unwrap();
        assert_eq!(spec.nest(n).dependencies().len(), 1);
    }

    #[test]
    fn bad_weight_rejected() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 4, 4).unwrap();
        let n = b.loop_nest("l", 1).unwrap();
        assert!(matches!(
            b.access_weighted(n, g, AccessKind::Read, 0.0),
            Err(BuildSpecError::BadWeight { .. })
        ));
        assert!(matches!(
            b.access_weighted(n, g, AccessKind::Read, 1.5),
            Err(BuildSpecError::BadWeight { .. })
        ));
    }

    #[test]
    fn unknown_references_rejected() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 4, 4).unwrap();
        let n = b.loop_nest("l", 1).unwrap();
        assert!(b.access(LoopNestId(9), g, AccessKind::Read).is_err());
        assert!(b.access(n, BasicGroupId(9), AccessKind::Read).is_err());
        assert!(b.depend(n, AccessId(0), AccessId(1)).is_err());
    }

    #[test]
    fn to_builder_preserves_everything() {
        let spec = tiny().build().unwrap();
        let rebuilt = spec.to_builder().build().unwrap();
        assert_eq!(spec, rebuilt);
    }

    #[test]
    fn remove_group_accesses_drops_accesses_and_edges() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 16, 8).unwrap();
        let h = b.basic_group("h", 16, 8).unwrap();
        let n = b.loop_nest("l", 2).unwrap();
        let a0 = b.access(n, g, AccessKind::Read).unwrap();
        let a1 = b.access(n, h, AccessKind::Read).unwrap();
        let a2 = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, a0, a1).unwrap();
        b.depend(n, a1, a2).unwrap();
        b.remove_group_accesses(g);
        b.cycle_budget(100);
        let spec = b.build().unwrap();
        let nest = spec.nest(n);
        assert_eq!(nest.accesses().len(), 1);
        assert_eq!(nest.accesses()[0].group(), h);
        assert!(nest.dependencies().is_empty());
        spec.validate().unwrap();
    }

    #[test]
    fn total_accesses_sums_over_nests() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 16, 8).unwrap();
        let n1 = b.loop_nest("l1", 10).unwrap();
        let n2 = b.loop_nest("l2", 5).unwrap();
        b.access(n1, g, AccessKind::Read).unwrap();
        b.access(n2, g, AccessKind::Write).unwrap();
        b.cycle_budget(100);
        let spec = b.build().unwrap();
        assert_eq!(spec.total_accesses(g), (10.0, 5.0));
        assert_eq!(spec.total_access_count(), 15.0);
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let spec = tiny().build().unwrap();
        let again = tiny().build().unwrap();
        assert_eq!(spec.content_hash(), again.content_hash());
        // Round-tripping through the builder preserves the hash.
        assert_eq!(
            spec.content_hash(),
            spec.to_builder().build().unwrap().content_hash()
        );
        // Any semantic change moves the hash.
        let mut b = tiny();
        b.cycle_budget(101);
        assert_ne!(spec.content_hash(), b.build().unwrap().content_hash());
        let mut b = tiny();
        b.real_time_seconds(0.5).cycle_budget(100);
        assert_ne!(spec.content_hash(), b.build().unwrap().content_hash());
        let mut b = tiny();
        b.basic_group("extra", 8, 8).unwrap();
        assert_ne!(spec.content_hash(), b.build().unwrap().content_hash());
    }

    #[test]
    fn group_by_name_finds_groups() {
        let spec = tiny().build().unwrap();
        assert!(spec.group_by_name("g").is_some());
        assert!(spec.group_by_name("nope").is_none());
    }
}
