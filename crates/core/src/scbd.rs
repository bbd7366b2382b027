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
//! * [`distribute`]: assign every body its minimum (critical-path)
//!   budget, then spend the remaining global budget where it relieves
//!   the most pressure per cycle — each grant costs
//!   `iterations` cycles of global budget, which produces the paper's
//!   characteristic budget jumps ("a decrease of the budget of one loop
//!   body, which is executed 300 000 times, reduces the overall budget
//!   with 300 000 cycles").
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
//! One `distribute` call derives each body's budget-independent data
//! once: durations, occupants, predecessor lists, topological order,
//! ASAP, tail lengths and the critical path. Every schedule of that body
//! at any budget reuses it.
//!
//! Within one schedule, placed intervals are kept sorted by start, and a
//! candidate start `s` of an access of duration `d` is scored only
//! against the intervals with `start + max_dur > s` and `start < s + d`.
//! The others cannot overlap `[s, s + d)`, so they add exactly zero.
//! Breakpoints come from the same window around `[earliest, alap + d)`.
//! Every cost term is an integer overlap times a multiple of 0.25, so
//! the sums are exact in `f64` and do not depend on the order in which
//! the terms are added. The windowed scorer therefore picks the same
//! start as a scan over every placed access.
//!
//! The marginal-relief loop keeps each body's candidate schedules across
//! rounds, keyed by absolute body budget. A candidate depends only on
//! `(nest, body budget)`, so a kept one is never stale. A grant of `e`
//! cycles keeps the granted body's candidates above its new budget and
//! drops the rest; the other bodies keep theirs. While a body waits for
//! its next grant its `max_extra` only shrinks, so each round offers it
//! only budgets it was already scheduled at, and it never holds more
//! than `GRANT_LOOKAHEAD` candidates. Bodies and extras are visited in the
//! same order as a loop that re-schedules every candidate every round,
//! with the same strict comparison, so the same grants are made.
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

// memx-lint: fingerprinted(SCBD_ALGO_REVISION) — result-affecting changes
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
/// [`distribute_with_budget`]: how many extra cycles a body may be
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
        let mut pressure = 0.0;
        let mut cands: Vec<u64> = Vec::new();
        for &i in &self.topo {
            let occupant = self.occupants[i];
            let dur = self.dur[i];
            let alap = budget - self.tail[i];
            // Earliest start after scheduled predecessors.
            let earliest = self.preds[i]
                .iter()
                .fold(self.asap[i], |e, &p| e.max(start[p] + self.dur[p]));
            debug_assert!(earliest <= alap, "window collapsed for access {i}");
            let mut best = earliest;
            let mut best_cost = self.placement_cost(&placed, &occupant, earliest, dur);
            if balance && best_cost > 0.0 {
                // The overlap cost is piecewise linear in the start
                // cycle; its leftmost minimizer over [earliest, alap] is
                // either a window endpoint or a breakpoint — an endpoint
                // of a placed interval, possibly shifted left by this
                // access's duration. Evaluating only those candidates
                // (ascending, strict improvement, early exit on zero)
                // picks exactly the cycle a full per-cycle scan would.
                // Only intervals starting in (earliest - max_dur,
                // alap + dur) have a breakpoint strictly inside the
                // window.
                cands.clear();
                cands.push(alap);
                let near = self.overlapping(&placed, earliest, alap.saturating_add(dur));
                for p in near {
                    for c in [
                        Some(p.start),
                        Some(p.end()),
                        p.start.checked_sub(dur),
                        p.end().checked_sub(dur),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        if c > earliest && c < alap {
                            cands.push(c);
                        }
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                for &s in &cands {
                    let cost = self.placement_cost(&placed, &occupant, s, dur);
                    if cost < best_cost {
                        best_cost = cost;
                        best = s;
                        if cost == 0.0 {
                            break;
                        }
                    }
                }
            }
            // Each pair of accesses is counted once, when the later one
            // is placed, which is exactly what `BodySchedule::pressure`
            // sums cycle by cycle.
            pressure += best_cost;
            start[i] = best;
            let at = placed.partition_point(|p| p.start <= best);
            placed.insert(
                at,
                PlacedAccess {
                    occupant,
                    start: best,
                    duration: dur,
                },
            );
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
            pressure,
        })
    }

    /// The placed intervals (sorted by start) that may overlap
    /// `[lo, hi)`: those with `start + max_dur > lo` and `start < hi`.
    fn overlapping<'p>(&self, placed: &'p [PlacedAccess], lo: u64, hi: u64) -> &'p [PlacedAccess] {
        let first = placed.partition_point(|p| p.start.saturating_add(self.max_dur) <= lo);
        let last = placed.partition_point(|p| p.start < hi);
        placed.get(first..last).unwrap_or_default()
    }

    /// Overlap cost of starting `occupant` (duration `dur`) at cycle `s`
    /// against the accesses placed so far. Only the intervals that can
    /// overlap `[s, s + dur)` are visited. Every term is an integer
    /// overlap times a multiple of 0.25, so the sum is exact in `f64`
    /// and does not depend on the order the terms are added in.
    fn placement_cost(
        &self,
        placed: &[PlacedAccess],
        occupant: &Occupant,
        s: u64,
        dur: u64,
    ) -> f64 {
        let mut cost = 0.0;
        for p in self.overlapping(placed, s, s + dur) {
            let lo = s.max(p.start);
            let hi = (s + dur).min(p.end());
            if hi > lo {
                cost += (hi - lo) as f64 * pair_cost(&p.occupant, occupant);
            }
        }
        cost
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
    let (plans, used) = critical_path_plans(spec, budget)?;
    let bodies = plans
        .iter()
        .map(|plan| plan.body_schedule(plan.critical_path, false))
        .collect::<Result<_, _>>()?;
    Ok(ScbdResult {
        bodies,
        used_cycles: used,
        total_budget: budget,
    })
}

/// The plan of every non-empty body, and the global cycles their
/// critical paths use.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`], naming the heaviest body,
/// if the critical paths do not fit `budget`.
fn critical_path_plans(
    spec: &AppSpec,
    budget: u64,
) -> Result<(Vec<BodyPlan<'_>>, u64), ExploreError> {
    let plans: Vec<BodyPlan> = spec
        .loop_nests()
        .iter()
        .filter(|n| !n.accesses().is_empty())
        .map(|n| BodyPlan::new(spec, n))
        .collect();
    let used: u64 = plans
        .iter()
        .map(|p| p.nest.iterations() * p.critical_path)
        .sum();
    if used > budget {
        let worst = plans
            .iter()
            .max_by_key(|p| p.nest.iterations() * p.critical_path)
            .map(|p| p.nest.name().to_owned())
            .unwrap_or_default();
        return Err(ExploreError::BudgetTooTight {
            nest: worst,
            required: used,
            available: budget,
        });
    }
    Ok((plans, used))
}

/// One body during the marginal-relief loop: its granted budget, its
/// schedule at that budget, and the candidate schedules above it that
/// earlier rounds already computed.
struct Grantee<'a> {
    plan: BodyPlan<'a>,
    budget: u64,
    current: Schedule,
    /// Candidates keyed by absolute body budget, all above `budget`;
    /// at most [`GRANT_LOOKAHEAD`] of them.
    lookahead: Vec<(u64, Schedule)>,
}

impl Grantee<'_> {
    /// Pressure of the candidate schedule at body budget `budget`,
    /// computed on first use and kept until a grant passes it.
    fn candidate_pressure(&mut self, budget: u64) -> Result<f64, ExploreError> {
        if let Some((_, kept)) = self.lookahead.iter().find(|(b, _)| *b == budget) {
            return Ok(kept.pressure);
        }
        let candidate = self.plan.schedule(budget, true)?;
        let pressure = candidate.pressure;
        self.lookahead.push((budget, candidate));
        Ok(pressure)
    }

    /// Grants `extra` cycles: the candidate at the new budget becomes
    /// the schedule, and candidates at or below it are dropped.
    fn grant(&mut self, extra: u64) -> Result<(), ExploreError> {
        self.budget += extra;
        let budget = self.budget;
        // The granted budget was scored this round, so its candidate is
        // kept; scheduling it afresh would give the same schedule.
        self.current = match self.lookahead.iter().position(|(b, _)| *b == budget) {
            Some(at) => self.lookahead.swap_remove(at).1,
            None => self.plan.schedule(budget, true)?,
        };
        self.lookahead.retain(|(b, _)| *b > budget);
        Ok(())
    }
}

/// Like [`distribute`], but with an explicit global budget — the knob
/// the designer turns in Table 3 ("the designer can opt for a lower
/// storage cycle budget, to allow more cycles for the data processing").
///
/// Thanks to the sparse schedule representation this handles budgets of
/// any magnitude (10⁸-cycle real-time budgets and beyond): cost is
/// proportional to the number of accesses, not the budget.
///
/// # Errors
///
/// Returns [`ExploreError::BudgetTooTight`] if the budget is below the
/// sum of per-body critical paths.
pub fn distribute_with_budget(spec: &AppSpec, budget: u64) -> Result<ScbdResult, ExploreError> {
    let (bodies, used) = grantees(spec, budget)?;
    relieve(bodies, used, budget)
}

/// Every non-empty body at its critical-path minimum budget, and the
/// global cycles those budgets use.
fn grantees(spec: &AppSpec, budget: u64) -> Result<(Vec<Grantee<'_>>, u64), ExploreError> {
    let (plans, used) = critical_path_plans(spec, budget)?;
    let bodies = plans
        .into_iter()
        .map(|plan| {
            let current = plan.schedule(plan.critical_path, true)?;
            Ok(Grantee {
                budget: plan.critical_path,
                plan,
                current,
                lookahead: Vec::with_capacity(GRANT_LOOKAHEAD as usize),
            })
        })
        .collect::<Result<_, ExploreError>>()?;
    Ok((bodies, used))
}

/// Greedy marginal-relief loop: grants extra cycles to the body with the
/// best pressure relief per global-budget cycle until no grant relieves
/// anything. A small lookahead (several cycles at once) escapes plateaus
/// where one extra cycle alone does not reduce pressure yet. Candidates
/// are kept across rounds (see "Incremental grants" in the module docs).
fn relieve(
    mut bodies: Vec<Grantee<'_>>,
    mut used: u64,
    budget: u64,
) -> Result<ScbdResult, ExploreError> {
    loop {
        let mut best: Option<(usize, u64, f64)> = None;
        for (i, body) in bodies.iter_mut().enumerate() {
            let pressure = body.current.pressure;
            if pressure == 0.0 {
                continue;
            }
            let step = body.plan.nest.iterations();
            let max_extra = GRANT_LOOKAHEAD
                .min(body.plan.serial.saturating_sub(body.budget))
                .min(budget.saturating_sub(used) / step.max(1));
            for extra in 1..=max_extra {
                let candidate = body.candidate_pressure(body.budget + extra)?;
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
                used += extra * bodies[i].plan.nest.iterations();
                bodies[i].grant(extra)?;
            }
            None => break,
        }
    }

    Ok(ScbdResult {
        bodies: bodies
            .into_iter()
            .map(|body| body.plan.body(body.budget, body.current))
            .collect(),
        used_cycles: used,
        total_budget: budget,
    })
}

// Test-only (`#![cfg(test)]`): the naive scheduler the one above must
// match bit for bit, and the differential tests that check it.
mod reference;

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
