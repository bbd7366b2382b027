//! Storage-cycle-budget distribution (§4.5, Table 3).
//!
//! The real-time constraint gives an overall *storage cycle budget*; this
//! stage distributes it over the loop bodies and orders the memory
//! accesses of each body — **flow-graph balancing** — such that the
//! required memory bandwidth (simultaneous accesses, and thus ports and
//! separate memories) is minimized.
//!
//! Two cooperating pieces:
//!
//! * [`schedule_body`]: given a per-body cycle budget, place each access
//!   (with its technology-dependent duration, see
//!   [`memx_memlib::timing`]) in a start cycle between its ASAP and ALAP
//!   bounds, greedily minimizing overlap pressure (same-group overlaps
//!   are worst, off-chip/off-chip overlaps next — they force multi-port
//!   memories).
//! * [`Plan::distribute`] (or [`distribute`] for a single budget):
//!   assign every body its minimum (critical-path) budget, then spend
//!   the remaining global budget where it relieves the most pressure per
//!   cycle — each grant costs `iterations` cycles of global budget,
//!   which produces the paper's characteristic budget jumps ("a decrease
//!   of the budget of one loop body, which is executed 300 000 times,
//!   reduces the overall budget with 300 000 cycles").
//!
//! # Sparse occupancy
//!
//! Schedules are stored *sparsely*: per access a placed interval, plus
//! the list of busy cycles with their occupants. Memory and time scale
//! with the number of accesses and their durations, **not** with the
//! cycle budget — budgets derived from real-time constraints easily
//! reach 10⁸ cycles, where the former dense per-cycle table
//! (`vec![Vec::new(); budget]`) would allocate gigabytes and the
//! balancing scan over the `[ASAP, ALAP]` window would never terminate.
//! The balancer only evaluates the *breakpoints* of the piecewise-linear
//! overlap-cost function (interval endpoints shifted by the access
//! duration), which provably contains the leftmost cost minimizer, so
//! sparse and dense scheduling place every access identically.
//!
//! # Incremental grants
//!
//! A [`Plan`] derives each body's budget-independent data once:
//! durations, occupants, predecessor lists, topological order, ASAP,
//! tail lengths and the critical path. Every schedule of that body, at
//! any body budget and under any global budget the plan distributes,
//! reuses it.
//!
//! Within one schedule, placed intervals are kept sorted by start. The
//! overlap cost of starting an access of duration `d` at cycle `s` is
//! piecewise linear in `s`: a placed interval `[a, b)` of pair weight `w`
//! changes the slope by `+w` at `a - d`, `-w` at `a`, `-w` at `b - d` and
//! `+w` at `b`. Only intervals with `start + max_dur > earliest` and
//! `start < alap + d` can overlap the window, so only they are visited.
//! One ascending sweep over their slope changes scores every candidate
//! start: the window start, each breakpoint strictly inside the window,
//! then the window end. That is the order a scan scoring each candidate
//! separately uses, with the same strict comparison and the same early
//! exit at zero. Every pair cost is a multiple of 0.25, so the sweep
//! counts in integer quarters and every score is exact: the chosen start
//! and the `f64` pressure are bit-identical to summing the terms one by
//! one, in any order.
//!
//! A schedule depends only on `(nest, body budget)`. So the plan keeps,
//! per body, a memo from body budget to the pressure of the schedule at
//! that budget (16 bytes an entry, never whole schedules), and the memo
//! outlives one distribution. The marginal-relief loop reads every
//! candidate pressure from it and schedules only budgets it has not seen:
//! a budget sweep through one plan (the Table-3 crossover probe)
//! schedules each body budget once. The global budget enters the loop
//! only through the `max_extra` cap. Bodies and extras are visited in the
//! same order as a loop that re-schedules every candidate every round,
//! with the same cap and strict comparison, so the same grants are made.
//! Each body's final [`BodySchedule`] is built once, at its granted
//! budget.
//!
//! Both shortcuts only skip work whose result is already known, so every
//! schedule, budget and pressure is bit-identical to a full
//! recomputation (`reference.rs` tests this against the plain scheduler).
//! They are therefore not result-affecting changes in the sense of
//! `SCBD_ALGO_REVISION` in `core::cache`, and re-key no cached entry.

use std::collections::BTreeMap;

use memx_ir::{AppSpec, BasicGroupId, LoopNest, LoopNestId, Placement};

use crate::macp::access_duration;
use crate::ExploreError;

// fingerprinted(SCBD_ALGO_REVISION) — result-affecting changes
// to this scheduler (pressure weights aside, which are hashed directly)
// must bump the revision in `core::cache`.

/// Pressure cost of two accesses to the *same group* overlapping in one
/// cycle (forces a multi-port memory or a group split). `pub(crate)` so
/// the persistent cache can fold it into its model fingerprint: a
/// changed constant changes the schedules, so it must miss old entries.
pub(crate) const SAME_GROUP_COST: f64 = 8.0;
/// Pressure cost of two off-chip accesses overlapping (forces a
/// multi-port or second off-chip memory).
pub(crate) const OFF_CHIP_PAIR_COST: f64 = 4.0;
/// Pressure cost of two on-chip accesses overlapping (forces the groups
/// into different on-chip memories, or a multi-port module).
pub(crate) const ON_CHIP_PAIR_COST: f64 = 2.0;
/// Pressure cost of an on-chip access overlapping an off-chip one:
/// nearly free, since the groups live in different memories anyway.
pub(crate) const MIXED_PAIR_COST: f64 = 0.25;

/// Grant lookahead of the marginal-relief loop in
/// [`Plan::distribute`]: how many extra cycles a body may be
/// offered at once to escape plateaus where one cycle alone does not
/// reduce pressure yet. `pub(crate)` so the persistent cache folds it
/// into its knobs fingerprint — tuning it changes the schedules, so it
/// must re-key every cached entry automatically.
pub(crate) const GRANT_LOOKAHEAD: u64 = 4;

/// Pressure contributed by two overlapping occupants.
fn pair_cost(a: &Occupant, b: &Occupant) -> f64 {
    if a.group == b.group {
        SAME_GROUP_COST
    } else if a.off_chip && b.off_chip {
        OFF_CHIP_PAIR_COST
    } else if !a.off_chip && !b.off_chip {
        ON_CHIP_PAIR_COST
    } else {
        MIXED_PAIR_COST
    }
}

/// [`pair_cost`] in integer quarters: every pair cost is a multiple of
/// 0.25, so overlap costs summed in quarters are exact.
fn pair_quarters(a: &Occupant, b: &Occupant) -> u64 {
    (pair_cost(a, b) * 4.0) as u64
}

/// One access occupying cycles of a body schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// The accessed basic group.
    pub group: BasicGroupId,
    /// Whether the target is off-chip (placement at scheduling time).
    pub off_chip: bool,
}

/// One scheduled access: which cycles of the body it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedAccess {
    /// The occupant (group and placement).
    pub occupant: Occupant,
    /// First occupied cycle.
    pub start: u64,
    /// Occupied cycle count (the access duration).
    pub duration: u64,
}

impl PlacedAccess {
    /// One past the last occupied cycle.
    pub fn end(&self) -> u64 {
        self.start + self.duration
    }
}

/// The occupants of one *busy* cycle of a body schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancySlot {
    /// The cycle within the body budget.
    pub cycle: u64,
    /// Accesses overlapping this cycle (at least one).
    pub occupants: Vec<Occupant>,
}

/// The balanced schedule of one loop body.
#[derive(Debug, Clone)]
pub struct BodySchedule {
    /// The scheduled nest.
    pub nest: LoopNestId,
    /// Nest name (for reports).
    pub name: String,
    /// Body executions per application execution.
    pub iterations: u64,
    /// Cycles allotted to one body execution.
    pub budget: u64,
    /// Placed interval of every access, in access order.
    placements: Vec<PlacedAccess>,
    /// Sparse occupancy: busy cycles (ascending) with their occupants.
    slots: Vec<OccupancySlot>,
}

impl BodySchedule {
    /// Builds a schedule from its placed intervals, deriving the sparse
    /// occupancy table. `pub(crate)` so the persistent cache can
    /// rehydrate schedules from their serialized placements — the
    /// derived slots are always recomputed, never trusted from disk.
    pub(crate) fn new(
        nest: LoopNestId,
        name: String,
        iterations: u64,
        budget: u64,
        placements: Vec<PlacedAccess>,
    ) -> Self {
        let mut by_cycle: BTreeMap<u64, Vec<Occupant>> = BTreeMap::new();
        for p in &placements {
            for t in p.start..p.end() {
                by_cycle.entry(t).or_default().push(p.occupant);
            }
        }
        let slots = by_cycle
            .into_iter()
            .map(|(cycle, occupants)| OccupancySlot { cycle, occupants })
            .collect();
        BodySchedule {
            nest,
            name,
            iterations,
            budget,
            placements,
            slots,
        }
    }

    /// The placed interval of every access, in flow-graph access order.
    pub fn placements(&self) -> &[PlacedAccess] {
        &self.placements
    }

    /// The busy cycles of the schedule (ascending), each with the
    /// accesses overlapping it. Cycles without any access are not
    /// stored — memory is proportional to the access count, not the
    /// budget.
    pub fn busy_slots(&self) -> &[OccupancySlot] {
        &self.slots
    }

    /// Number of cycles in which at least one access is in flight.
    pub fn busy_cycles(&self) -> usize {
        self.slots.len()
    }

    /// Pressure cost of this schedule (see module docs), *per body
    /// execution*.
    pub fn pressure(&self) -> f64 {
        let mut cost = 0.0;
        for slot in &self.slots {
            for (i, a) in slot.occupants.iter().enumerate() {
                for b in &slot.occupants[i + 1..] {
                    cost += pair_cost(a, b);
                }
            }
        }
        cost
    }
}

/// Result of storage-cycle-budget distribution.
#[derive(Debug, Clone)]
pub struct ScbdResult {
    /// Balanced schedules, one per non-empty loop body.
    pub bodies: Vec<BodySchedule>,
    /// Cycles consumed: `sum(iterations x budget)`.
    pub used_cycles: u64,
    /// The global budget that was distributed.
    pub total_budget: u64,
}

impl ScbdResult {
    /// Unused cycles (available to the data-path scheduler, Table 3's
    /// "extra cycles for data-path").
    pub fn slack(&self) -> u64 {
        self.total_budget.saturating_sub(self.used_cycles)
    }

    /// Maximum number of simultaneous accesses to groups selected by
    /// `members`, over all bodies and cycles — the port requirement of a
    /// memory storing exactly those groups.
    pub fn required_ports(&self, mut members: impl FnMut(BasicGroupId) -> bool) -> u32 {
        let mut max = 0;
        for body in &self.bodies {
            for slot in body.busy_slots() {
                let n = slot.occupants.iter().filter(|o| members(o.group)).count();
                max = max.max(n);
            }
        }
        max as u32
    }

    /// `true` if accesses to `a` and `b` ever overlap (the groups then
    /// cannot share a single-port memory).
    pub fn conflicts(&self, a: BasicGroupId, b: BasicGroupId) -> bool {
        for body in &self.bodies {
            for slot in body.busy_slots() {
                let has_a = slot.occupants.iter().any(|o| o.group == a);
                let has_b = slot.occupants.iter().any(|o| o.group == b);
                if has_a && has_b {
                    return true;
                }
            }
        }
        false
    }
}

/// Balances the flow graph of one body into `budget` cycles.
///
/// Accesses are placed in topological order; each picks the start cycle
/// in its `[ASAP, ALAP]` window that adds the least overlap pressure
/// (earliest on ties). Placing every access at or before its static ALAP
/// keeps all successors feasible, so the schedule always fits.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if the body's critical path
/// exceeds `budget`.
pub fn schedule_body(
    spec: &AppSpec,
    nest: &LoopNest,
    budget: u64,
) -> Result<BodySchedule, ExploreError> {
    BodyPlan::new(spec, nest).body_schedule(budget, true)
}

/// The budget-independent facts about one body's flow graph, derived
/// once per body and reused for every budget it is scheduled at.
#[derive(Debug)]
struct BodyPlan<'a> {
    nest: &'a LoopNest,
    /// Access durations, in access order.
    dur: Vec<u64>,
    /// Occupant of every access, in access order.
    occupants: Vec<Occupant>,
    /// Predecessor access indices of every access.
    preds: Vec<Vec<usize>>,
    /// Placement order: topological, low indices first.
    topo: Vec<usize>,
    /// Longest path from the sources to the start of every access.
    asap: Vec<u64>,
    /// Longest path from the start of every access to the end.
    tail: Vec<u64>,
    /// The body's critical path: the smallest feasible budget.
    critical_path: u64,
    /// The sum of all durations: the budget of a fully serial body.
    serial: u64,
    /// The longest access duration (bounds the overlap window).
    max_dur: u64,
}

/// A schedule before it is turned into a [`BodySchedule`]: the
/// placements in access order and their pressure.
struct Schedule {
    placements: Vec<PlacedAccess>,
    pressure: f64,
}

impl<'a> BodyPlan<'a> {
    fn new(spec: &AppSpec, nest: &'a LoopNest) -> Self {
        let n = nest.accesses().len();
        let dur: Vec<u64> = nest
            .accesses()
            .iter()
            .map(|a| access_duration(spec, a))
            .collect();
        let occupants = nest
            .accesses()
            .iter()
            .map(|a| Occupant {
                group: a.group(),
                off_chip: spec.group(a.group()).placement() == Placement::OffChip,
            })
            .collect();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for e in nest.dependencies() {
            succs[e.from.index()].push(e.to.index());
            preds[e.to.index()].push(e.from.index());
            indeg[e.to.index()] += 1;
        }

        let mut stack: Vec<usize> = (0..n).rev().filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = stack.pop() {
            topo.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        debug_assert_eq!(topo.len(), n);

        let mut asap = vec![0u64; n];
        for &i in &topo {
            for &j in &succs[i] {
                asap[j] = asap[j].max(asap[i] + dur[i]);
            }
        }
        let mut tail = dur.clone();
        for &i in topo.iter().rev() {
            for &j in &succs[i] {
                tail[i] = tail[i].max(dur[i] + tail[j]);
            }
        }
        let critical_path = (0..n).map(|i| asap[i] + dur[i]).max().unwrap_or(0);
        let serial = dur.iter().sum();
        let max_dur = dur.iter().copied().max().unwrap_or(0);
        BodyPlan {
            nest,
            dur,
            occupants,
            preds,
            topo,
            asap,
            tail,
            critical_path,
            serial,
            max_dur,
        }
    }

    fn body_schedule(&self, budget: u64, balance: bool) -> Result<BodySchedule, ExploreError> {
        let schedule = self.schedule(budget, balance)?;
        Ok(self.body(budget, schedule))
    }

    fn body(&self, budget: u64, schedule: Schedule) -> BodySchedule {
        BodySchedule::new(
            self.nest.id(),
            self.nest.name().to_owned(),
            self.nest.iterations(),
            budget,
            schedule.placements,
        )
    }

    /// Places every access within `budget` cycles: balanced (least added
    /// pressure, earliest on ties) or packed as soon as possible.
    fn schedule(&self, budget: u64, balance: bool) -> Result<Schedule, ExploreError> {
        if self.critical_path > budget {
            return Err(ExploreError::BudgetTooTight {
                nest: self.nest.name().to_owned(),
                required: self.critical_path,
                available: budget,
            });
        }
        let n = self.dur.len();
        // Placed intervals, sorted by start, so the intervals that can
        // overlap a window form one contiguous run.
        let mut placed: Vec<PlacedAccess> = Vec::with_capacity(n);
        let mut start = vec![0u64; n];
        let mut quarters = 0;
        let mut slopes = Vec::new();
        for &i in &self.topo {
            let alap = budget - self.tail[i];
            // Earliest start after scheduled predecessors.
            let earliest = self.preds[i]
                .iter()
                .fold(self.asap[i], |e, &p| e.max(start[p] + self.dur[p]));
            debug_assert!(earliest <= alap, "window collapsed for access {i}");
            let mut access = PlacedAccess {
                occupant: self.occupants[i],
                start: earliest,
                duration: self.dur[i],
            };
            let mut cost = self.overlap_cost(&placed, &access);
            if balance && cost > 0 {
                (access.start, cost) = self.sweep(&placed, access, cost, alap, &mut slopes);
            }
            // Each pair of accesses is counted once, when the later one
            // is placed, which is exactly what `BodySchedule::pressure`
            // sums cycle by cycle.
            quarters += cost;
            start[i] = access.start;
            let at = placed.partition_point(|p| p.start <= access.start);
            placed.insert(at, access);
        }
        // Report placements in access order, not placement order.
        let placements = (0..n)
            .map(|i| PlacedAccess {
                occupant: self.occupants[i],
                start: start[i],
                duration: self.dur[i],
            })
            .collect();
        Ok(Schedule {
            placements,
            pressure: quarters as f64 / 4.0,
        })
    }

    /// Overlap cost, in quarters, of `access` against the placed
    /// intervals. Only the intervals that can overlap it are visited.
    fn overlap_cost(&self, placed: &[PlacedAccess], access: &PlacedAccess) -> u64 {
        let mut cost = 0;
        for p in self.overlapping(placed, access.start, access.end()) {
            let lo = access.start.max(p.start);
            let hi = access.end().min(p.end());
            if hi > lo {
                cost += (hi - lo) * pair_quarters(&p.occupant, &access.occupant);
            }
        }
        cost
    }

    /// The leftmost start in `[earliest, alap]` with the least overlap
    /// cost for an access, and that cost in quarters, given the access
    /// placed at its `earliest` start and its `cost` there. `slopes` is
    /// scratch space.
    ///
    /// The cost is piecewise linear in the start, so its leftmost
    /// minimizer is `earliest`, `alap` or a breakpoint in between. One
    /// ascending sweep over the slope changes scores them in that order
    /// (strict improvement, early exit on zero), as the module docs
    /// describe.
    fn sweep(
        &self,
        placed: &[PlacedAccess],
        at_earliest: PlacedAccess,
        cost: u64,
        alap: u64,
        slopes: &mut Vec<(u64, i64)>,
    ) -> (u64, u64) {
        let PlacedAccess {
            occupant,
            start: earliest,
            duration: dur,
        } = at_earliest;
        // The slope just right of `earliest`, and the slope changes
        // strictly inside the window. Wide integers, because the window
        // can span almost the whole `u64` range.
        let mut slope = 0i128;
        slopes.clear();
        for p in self.overlapping(placed, earliest, alap.saturating_add(dur)) {
            let w = pair_quarters(&p.occupant, &occupant) as i64;
            for (at, change) in [
                (p.start.checked_sub(dur), w),
                (Some(p.start), -w),
                (p.end().checked_sub(dur), -w),
                (Some(p.end()), w),
            ] {
                match at {
                    Some(at) if at > earliest => {
                        if at < alap {
                            slopes.push((at, change));
                        }
                    }
                    _ => slope += i128::from(change),
                }
            }
        }
        slopes.sort_unstable_by_key(|&(at, _)| at);
        let mut changes = slopes.iter().peekable();
        let (mut best, mut best_cost) = (earliest, i128::from(cost));
        let (mut at, mut cost) = (earliest, best_cost);
        while at < alap {
            // The cost is linear up to the next breakpoint, or `alap`
            // once every breakpoint is passed.
            let next = changes.peek().map_or(alap, |c| c.0);
            cost += slope * i128::from(next - at);
            at = next;
            if cost < best_cost {
                best_cost = cost;
                best = at;
                if cost == 0 {
                    break;
                }
            }
            while let Some(&(_, change)) = changes.next_if(|c| c.0 == at) {
                slope += i128::from(change);
            }
        }
        (best, best_cost as u64)
    }

    /// The placed intervals (sorted by start) that may overlap
    /// `[lo, hi)`: those with `start + max_dur > lo` and `start < hi`.
    fn overlapping<'p>(&self, placed: &'p [PlacedAccess], lo: u64, hi: u64) -> &'p [PlacedAccess] {
        let first = placed.partition_point(|p| p.start.saturating_add(self.max_dur) <= lo);
        let last = placed.partition_point(|p| p.start < hi);
        placed.get(first..last).unwrap_or_default()
    }
}

/// Distributes the spec's storage cycle budget over its loop bodies (see
/// module docs).
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if even the per-body
/// critical paths do not fit the global budget.
pub fn distribute(spec: &AppSpec) -> Result<ScbdResult, ExploreError> {
    distribute_with_budget(spec, spec.cycle_budget())
}

/// Naive baseline distribution for the balancing ablation: every body
/// gets its critical-path budget and is packed ASAP — no balancing, no
/// marginal-relief grants. This is what a schedule looks like *without*
/// the paper's flow-graph balancing.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if even the per-body
/// critical paths do not fit the global budget.
pub fn distribute_asap(spec: &AppSpec, budget: u64) -> Result<ScbdResult, ExploreError> {
    let plan = Plan::new(spec);
    let used = plan.critical_path_cycles(budget)?;
    let bodies = plan
        .bodies
        .iter()
        .map(|body| body.body_schedule(body.critical_path, false))
        .collect::<Result<_, _>>()?;
    Ok(ScbdResult {
        bodies,
        used_cycles: used,
        total_budget: budget,
    })
}

/// Like [`distribute`], but with an explicit global budget — the knob
/// the designer turns in Table 3 ("the designer can opt for a lower
/// storage cycle budget, to allow more cycles for the data processing").
///
/// Thanks to the sparse schedule representation this handles budgets of
/// any magnitude (10⁸-cycle real-time budgets and beyond): cost is
/// proportional to the number of accesses, not the budget. A sweep over
/// several budgets of one spec should share one [`Plan`] instead.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if the budget is below the
/// sum of per-body critical paths.
pub fn distribute_with_budget(spec: &AppSpec, budget: u64) -> Result<ScbdResult, ExploreError> {
    Plan::new(spec).distribute(budget)
}

/// The storage-cycle-budget distribution of one spec, prepared once and
/// reused across global budgets: each body's flow-graph facts, and a
/// memo of the pressure of every body budget scheduled so far (see
/// "Incremental grants" in the module docs). Distributing a budget
/// through a plan gives bit for bit what [`distribute_with_budget`]
/// gives, whatever budgets the plan distributed before.
#[derive(Debug)]
pub struct Plan<'a> {
    spec: &'a AppSpec,
    /// Every non-empty body, in nest order.
    bodies: Vec<BodyPlan<'a>>,
    /// Per body: body budget → pressure of the schedule at that budget.
    pressures: Vec<BTreeMap<u64, f64>>,
}

impl<'a> Plan<'a> {
    /// Derives the flow-graph facts of every non-empty body of `spec`.
    pub fn new(spec: &'a AppSpec) -> Self {
        let bodies: Vec<BodyPlan> = spec
            .loop_nests()
            .iter()
            .filter(|n| !n.accesses().is_empty())
            .map(|n| BodyPlan::new(spec, n))
            .collect();
        Plan {
            spec,
            pressures: vec![BTreeMap::new(); bodies.len()],
            bodies,
        }
    }

    /// The planned spec.
    pub fn spec(&self) -> &'a AppSpec {
        self.spec
    }

    /// Distributes the global `budget` over the bodies: every body starts
    /// at its critical path, then a greedy marginal-relief loop grants
    /// extra cycles to the body with the best pressure relief per global
    /// cycle until no grant relieves anything. A small lookahead (several
    /// cycles at once) escapes plateaus where one extra cycle alone does
    /// not reduce pressure yet.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::BudgetTooTight`] if the budget is below
    /// the sum of per-body critical paths.
    pub fn distribute(&mut self, budget: u64) -> Result<ScbdResult, ExploreError> {
        let mut used = self.critical_path_cycles(budget)?;
        let mut budgets: Vec<u64> = self.bodies.iter().map(|b| b.critical_path).collect();
        loop {
            let mut best: Option<(usize, u64, f64)> = None;
            for (i, (body, memo)) in self.bodies.iter().zip(&mut self.pressures).enumerate() {
                let mut pressure_at = |budget: u64| -> Result<f64, ExploreError> {
                    if let Some(&pressure) = memo.get(&budget) {
                        return Ok(pressure);
                    }
                    let pressure = body.schedule(budget, true)?.pressure;
                    memo.insert(budget, pressure);
                    Ok(pressure)
                };
                let pressure = pressure_at(budgets[i])?;
                if pressure == 0.0 {
                    continue;
                }
                let step = body.nest.iterations();
                let max_extra = GRANT_LOOKAHEAD
                    .min(body.serial.saturating_sub(budgets[i]))
                    .min(budget.saturating_sub(used) / step.max(1));
                for extra in 1..=max_extra {
                    let candidate = pressure_at(budgets[i] + extra)?;
                    let relief = (pressure - candidate) * step as f64;
                    let relief_per_cycle = relief / (extra * step) as f64;
                    if relief_per_cycle > 0.0
                        && best
                            .as_ref()
                            .map(|(_, _, r)| relief_per_cycle > *r)
                            .unwrap_or(true)
                    {
                        best = Some((i, extra, relief_per_cycle));
                    }
                }
            }
            match best {
                Some((i, extra, _)) => {
                    used += extra * self.bodies[i].nest.iterations();
                    budgets[i] += extra;
                }
                None => break,
            }
        }
        let bodies = self
            .bodies
            .iter()
            .zip(budgets)
            .map(|(body, budget)| body.body_schedule(budget, true))
            .collect::<Result<_, _>>()?;
        Ok(ScbdResult {
            bodies,
            used_cycles: used,
            total_budget: budget,
        })
    }

    /// The global cycles the bodies' critical paths use.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::BudgetTooTight`], naming the heaviest
    /// body, if they do not fit `budget`. A total past `u64::MAX` never
    /// fits, and is reported as `u64::MAX`.
    fn critical_path_cycles(&self, budget: u64) -> Result<u64, ExploreError> {
        let cycles = |b: &BodyPlan| b.nest.iterations().checked_mul(b.critical_path);
        let used = self
            .bodies
            .iter()
            .try_fold(0u64, |sum, b| sum.checked_add(cycles(b)?));
        match used {
            Some(used) if used <= budget => Ok(used),
            used => Err(ExploreError::BudgetTooTight {
                nest: self
                    .bodies
                    .iter()
                    .max_by_key(|b| cycles(b).unwrap_or(u64::MAX))
                    .map(|b| b.nest.name().to_owned())
                    .unwrap_or_default(),
                required: used.unwrap_or(u64::MAX),
                available: budget,
            }),
        }
    }
}

// Test-only (`#![cfg(test)]`): the naive scheduler the one above must
// match bit for bit, and the differential tests that check it.
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use memx_ir::{AccessKind, AppSpecBuilder};

    /// Two independent reads of different groups plus a dependent write.
    fn small_spec(budget: u64) -> AppSpec {
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 64, 8).unwrap();
        let y = b.basic_group("y", 64, 8).unwrap();
        let n = b.loop_nest("l", 100).unwrap();
        let rx = b.access(n, x, AccessKind::Read).unwrap();
        let ry = b.access(n, y, AccessKind::Read).unwrap();
        let w = b.access(n, x, AccessKind::Write).unwrap();
        b.depend(n, rx, w).unwrap();
        b.depend(n, ry, w).unwrap();
        b.cycle_budget(budget);
        b.build().unwrap()
    }

    #[test]
    fn tight_budget_forces_overlap() {
        let spec = small_spec(200); // 2 cycles/body: reads must overlap
        let result = distribute(&spec).unwrap();
        assert_eq!(result.bodies[0].budget, 2);
        // The two reads overlap -> x and y conflict.
        let x = memx_ir::BasicGroupId::from_index(0);
        let y = memx_ir::BasicGroupId::from_index(1);
        assert!(result.conflicts(x, y));
    }

    #[test]
    fn loose_budget_removes_conflicts() {
        let spec = small_spec(1000);
        let result = distribute(&spec).unwrap();
        assert!(result.bodies[0].budget >= 3);
        let x = memx_ir::BasicGroupId::from_index(0);
        let y = memx_ir::BasicGroupId::from_index(1);
        assert!(!result.conflicts(x, y));
        assert_eq!(result.bodies[0].pressure(), 0.0);
    }

    #[test]
    fn infeasible_budget_errors() {
        let spec = small_spec(200);
        let err = distribute_with_budget(&spec, 150).unwrap_err();
        assert!(matches!(err, ExploreError::BudgetTooTight { .. }));
    }

    #[test]
    fn slack_accounts_unused_cycles() {
        let spec = small_spec(1000);
        let result = distribute(&spec).unwrap();
        assert_eq!(result.slack(), 1000 - result.used_cycles);
        assert!(result.used_cycles <= 1000);
    }

    #[test]
    fn required_ports_counts_same_group_overlap() {
        // Two independent reads of the SAME group with budget 1 slot
        // each... they must overlap when the budget is the critical path.
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 64, 8).unwrap();
        let n = b.loop_nest("l", 10).unwrap();
        b.access(n, x, AccessKind::Read).unwrap();
        b.access(n, x, AccessKind::Read).unwrap();
        b.cycle_budget(10); // 1 cycle per body
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        let ports = result.required_ports(|g| g == x);
        assert_eq!(ports, 2);
    }

    #[test]
    fn budget_grants_go_to_the_hottest_body() {
        // One hot body (many iterations) and one cold body compete for
        // slack; relief per global cycle favours the hot one only if its
        // pressure drop is worth iterations x 1 cycle... with equal
        // bodies the cold one is cheaper to relieve.
        let mut b = AppSpecBuilder::new("t");
        let x = b.basic_group("x", 64, 8).unwrap();
        let y = b.basic_group("y", 64, 8).unwrap();
        let hot = b.loop_nest("hot", 1000).unwrap();
        b.access(hot, x, AccessKind::Read).unwrap();
        b.access(hot, y, AccessKind::Read).unwrap();
        let cold = b.loop_nest("cold", 10).unwrap();
        b.access(cold, x, AccessKind::Read).unwrap();
        b.access(cold, y, AccessKind::Read).unwrap();
        // Enough for cold to relax (adds 10 cycles) but not hot (needs
        // 1000).
        b.cycle_budget(1000 + 10 + 10 + 5);
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        let hot_sched = result.bodies.iter().find(|s| s.name == "hot").unwrap();
        let cold_sched = result.bodies.iter().find(|s| s.name == "cold").unwrap();
        assert_eq!(hot_sched.budget, 1);
        assert_eq!(cold_sched.budget, 2);
    }

    #[test]
    fn off_chip_durations_respected() {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("g", 1 << 20, 8, memx_ir::Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("l", 10).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.cycle_budget(40);
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        // A single random off-chip access occupies 4 cycles.
        assert_eq!(result.bodies[0].budget, 4);
        assert_eq!(result.bodies[0].busy_cycles(), 4);
    }

    #[test]
    fn asap_packing_never_beats_balancing() {
        let spec = small_spec(1000);
        let balanced = distribute(&spec).unwrap();
        let naive = distribute_asap(&spec, 1000).unwrap();
        let bp: f64 = balanced.bodies.iter().map(BodySchedule::pressure).sum();
        let np: f64 = naive.bodies.iter().map(BodySchedule::pressure).sum();
        assert!(bp <= np, "balanced {bp} > naive {np}");
        // With a loose budget the balanced schedule is conflict-free
        // while ASAP still packs the two reads together.
        assert_eq!(bp, 0.0);
        assert!(np > 0.0);
    }

    #[test]
    fn empty_nests_are_skipped() {
        let mut b = AppSpecBuilder::new("t");
        let g = b.basic_group("g", 64, 8).unwrap();
        let n = b.loop_nest("real", 10).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.loop_nest("empty", 1000).unwrap();
        b.cycle_budget(100);
        let spec = b.build().unwrap();
        let result = distribute(&spec).unwrap();
        assert_eq!(result.bodies.len(), 1);
    }

    #[test]
    fn hundred_million_cycle_budget_schedules_sparsely() {
        // A production-scale budget derived from a real-time constraint.
        // The dense per-cycle table would allocate 10^8 slot vectors;
        // the sparse schedule stays proportional to the access count.
        let spec = small_spec(100_000_000);
        let result = distribute_with_budget(&spec, 100_000_000).unwrap();
        let body = &result.bodies[0];
        // 3 accesses of 1 cycle each: at most 3 busy cycles stored.
        assert!(body.busy_cycles() <= 3);
        assert_eq!(body.placements().len(), 3);
        assert_eq!(body.pressure(), 0.0);
        assert!(result.used_cycles <= 100_000_000);
    }

    #[test]
    fn astronomical_body_budget_is_fine() {
        // Near-u64::MAX budgets must neither overflow nor allocate.
        let spec = small_spec(400);
        let nest = &spec.loop_nests()[0];
        let sched = schedule_body(&spec, nest, u64::MAX / 2).unwrap();
        assert!(sched.busy_cycles() <= 3);
        assert_eq!(sched.pressure(), 0.0);
    }

    #[test]
    fn an_overflowing_critical_path_total_is_too_tight() {
        // Two chained off-chip accesses take 8 cycles, and 2^62 bodies of
        // them 2^65 cycles: the total must not wrap and fit the budget.
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("g", 1 << 20, 8, memx_ir::Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("l", 1 << 62).unwrap();
        let r = b.access(n, g, AccessKind::Read).unwrap();
        let w = b.access(n, g, AccessKind::Write).unwrap();
        b.depend(n, r, w).unwrap();
        b.cycle_budget(u64::MAX);
        let spec = b.build().unwrap();
        assert_eq!(
            distribute(&spec).unwrap_err(),
            ExploreError::BudgetTooTight {
                nest: "l".into(),
                required: u64::MAX,
                available: u64::MAX,
            }
        );
    }

    #[test]
    fn busy_slots_match_placements() {
        let spec = small_spec(1000);
        let result = distribute(&spec).unwrap();
        for body in &result.bodies {
            let occupant_cycles: usize = body.busy_slots().iter().map(|s| s.occupants.len()).sum();
            let durations: u64 = body.placements().iter().map(|p| p.duration).sum();
            assert_eq!(occupant_cycles as u64, durations);
            for p in body.placements() {
                assert!(p.end() <= body.budget);
            }
            for w in body.busy_slots().windows(2) {
                assert!(w[0].cycle < w[1].cycle, "slots must be ascending");
            }
        }
    }
}
