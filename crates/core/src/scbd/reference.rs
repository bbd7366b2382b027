//! The straightforward scheduler the incremental one must match bit for
//! bit: every access is scored against every placed access, and every
//! round of the marginal-relief loop re-schedules every candidate.

#![cfg(test)]

use memx_ir::{AccessId, AppSpec, LoopNest, Placement};

use super::{pair_cost, BodySchedule, Occupant, PlacedAccess, Plan, ScbdResult, GRANT_LOOKAHEAD};
use crate::macp::{access_duration, body_critical_path};
use crate::ExploreError;

fn placement_cost(placed: &[PlacedAccess], occupant: &Occupant, s: u64, dur: u64) -> f64 {
    let mut cost = 0.0;
    for p in placed {
        let lo = s.max(p.start);
        let hi = (s + dur).min(p.end());
        if hi > lo {
            cost += (hi - lo) as f64 * pair_cost(&p.occupant, occupant);
        }
    }
    cost
}

fn topo_order(nest: &LoopNest) -> Vec<usize> {
    let n = nest.accesses().len();
    let mut indeg = vec![0usize; n];
    for e in nest.dependencies() {
        indeg[e.to.index()] += 1;
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    stack.reverse();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = stack.pop() {
        order.push(i);
        for e in nest.dependencies().iter().filter(|e| e.from.index() == i) {
            let j = e.to.index();
            indeg[j] -= 1;
            if indeg[j] == 0 {
                stack.push(j);
            }
        }
    }
    order
}

pub(super) fn schedule_body(
    spec: &AppSpec,
    nest: &LoopNest,
    budget: u64,
    balance: bool,
) -> Result<BodySchedule, ExploreError> {
    let n = nest.accesses().len();
    let cp = body_critical_path(spec, nest);
    if cp > budget {
        return Err(ExploreError::BudgetTooTight {
            nest: nest.name().to_owned(),
            required: cp,
            available: budget,
        });
    }
    let dur: Vec<u64> = nest
        .accesses()
        .iter()
        .map(|a| access_duration(spec, a))
        .collect();
    let topo = topo_order(nest);
    let mut asap = vec![0u64; n];
    for &i in &topo {
        for s in nest.successors(AccessId::from_index(i)) {
            let j = s.index();
            asap[j] = asap[j].max(asap[i] + dur[i]);
        }
    }
    let mut tail = dur.clone();
    for &i in topo.iter().rev() {
        for s in nest.successors(AccessId::from_index(i)) {
            let j = s.index();
            tail[i] = tail[i].max(dur[i] + tail[j]);
        }
    }
    let alap: Vec<u64> = (0..n).map(|i| budget - tail[i]).collect();

    let mut placed: Vec<PlacedAccess> = Vec::with_capacity(n);
    let mut start = vec![0u64; n];
    let mut placement_of = vec![usize::MAX; n];
    for &i in &topo {
        let a = &nest.accesses()[i];
        let occupant = Occupant {
            group: a.group(),
            off_chip: spec.group(a.group()).placement() == Placement::OffChip,
        };
        let mut earliest = asap[i];
        for pfrom in nest.predecessors(AccessId::from_index(i)) {
            let p = pfrom.index();
            earliest = earliest.max(start[p] + dur[p]);
        }
        let mut best = earliest;
        if balance && !placed.is_empty() {
            let mut cands: Vec<u64> = vec![earliest, alap[i]];
            for p in &placed {
                for c in [
                    Some(p.start),
                    Some(p.end()),
                    p.start.checked_sub(dur[i]),
                    p.end().checked_sub(dur[i]),
                ]
                .into_iter()
                .flatten()
                {
                    if c > earliest && c < alap[i] {
                        cands.push(c);
                    }
                }
            }
            cands.sort_unstable();
            cands.dedup();
            let mut best_cost = f64::INFINITY;
            for &s in &cands {
                let cost = placement_cost(&placed, &occupant, s, dur[i]);
                if cost < best_cost {
                    best_cost = cost;
                    best = s;
                    if cost == 0.0 {
                        break;
                    }
                }
            }
        }
        start[i] = best;
        placement_of[i] = placed.len();
        placed.push(PlacedAccess {
            occupant,
            start: best,
            duration: dur[i],
        });
    }
    let placements = (0..n).map(|i| placed[placement_of[i]]).collect();
    Ok(BodySchedule::new(
        nest.id(),
        nest.name().to_owned(),
        nest.iterations(),
        budget,
        placements,
    ))
}

pub(super) fn distribute_with_budget(
    spec: &AppSpec,
    budget: u64,
) -> Result<ScbdResult, ExploreError> {
    let nests: Vec<&LoopNest> = spec
        .loop_nests()
        .iter()
        .filter(|n| !n.accesses().is_empty())
        .collect();
    let mut budgets: Vec<u64> = nests.iter().map(|n| body_critical_path(spec, n)).collect();
    let serial: Vec<u64> = nests
        .iter()
        .map(|n| n.accesses().iter().map(|a| access_duration(spec, a)).sum())
        .collect();
    let mut used: u64 = nests
        .iter()
        .zip(&budgets)
        .map(|(n, &b)| n.iterations() * b)
        .sum();
    if used > budget {
        let worst = nests
            .iter()
            .zip(&budgets)
            .max_by_key(|(n, &b)| n.iterations() * b)
            .map(|(n, _)| n.name().to_owned())
            .unwrap_or_default();
        return Err(ExploreError::BudgetTooTight {
            nest: worst,
            required: used,
            available: budget,
        });
    }
    let mut schedules: Vec<BodySchedule> = nests
        .iter()
        .zip(&budgets)
        .map(|(n, &b)| schedule_body(spec, n, b, true))
        .collect::<Result<_, _>>()?;
    let mut pressures: Vec<f64> = schedules.iter().map(BodySchedule::pressure).collect();
    loop {
        let mut best: Option<(usize, u64, BodySchedule, f64)> = None;
        for (i, nest) in nests.iter().enumerate() {
            if pressures[i] == 0.0 {
                continue;
            }
            let step = nest.iterations();
            let max_extra = GRANT_LOOKAHEAD
                .min(serial[i].saturating_sub(budgets[i]))
                .min(budget.saturating_sub(used) / step.max(1));
            for extra in 1..=max_extra {
                let candidate = schedule_body(spec, nest, budgets[i] + extra, true)?;
                let relief = (pressures[i] - candidate.pressure()) * step as f64;
                let relief_per_cycle = relief / (extra * step) as f64;
                if relief_per_cycle > 0.0
                    && best
                        .as_ref()
                        .map(|(_, _, _, r)| relief_per_cycle > *r)
                        .unwrap_or(true)
                {
                    best = Some((i, extra, candidate, relief_per_cycle));
                }
            }
        }
        match best {
            Some((i, extra, candidate, _)) => {
                budgets[i] += extra;
                used += extra * nests[i].iterations();
                pressures[i] = candidate.pressure();
                schedules[i] = candidate;
            }
            None => break,
        }
    }
    Ok(ScbdResult {
        bodies: schedules,
        used_cycles: used,
        total_budget: budget,
    })
}

/// Describes the first difference between two distributions, or `None`
/// when they agree bit for bit.
fn difference(
    got: &Result<ScbdResult, ExploreError>,
    want: &Result<ScbdResult, ExploreError>,
) -> Option<String> {
    let (got, want) = match (got, want) {
        (Ok(got), Ok(want)) => (got, want),
        (Err(got), Err(want)) if got == want => return None,
        _ => return Some(format!("outcome {got:?} != {want:?}")),
    };
    if (got.used_cycles, got.total_budget) != (want.used_cycles, want.total_budget) {
        return Some(format!(
            "used/total {}/{} != {}/{}",
            got.used_cycles, got.total_budget, want.used_cycles, want.total_budget
        ));
    }
    if got.bodies.len() != want.bodies.len() {
        return Some("body count".into());
    }
    for (g, w) in got.bodies.iter().zip(&want.bodies) {
        if g.nest != w.nest || g.budget != w.budget {
            return Some(format!("{}: budget {} != {}", w.name, g.budget, w.budget));
        }
        if g.placements() != w.placements() {
            return Some(format!("{}: placements differ", w.name));
        }
        if g.busy_slots() != w.busy_slots() {
            return Some(format!("{}: busy slots differ", w.name));
        }
        if g.pressure().to_bits() != w.pressure().to_bits() {
            return Some(format!(
                "{}: pressure {} != {}",
                w.name,
                g.pressure(),
                w.pressure()
            ));
        }
    }
    None
}

fn assert_matches(spec: &AppSpec, budget: u64) {
    let got = super::distribute_with_budget(spec, budget);
    let want = distribute_with_budget(spec, budget);
    if let Some(diff) = difference(&got, &want) {
        panic!("{} at budget {budget}: {diff}", spec.name());
    }
}

/// Global budgets from the critical-path sum to twice the serial sum.
fn budget_range(spec: &AppSpec) -> Vec<u64> {
    let (mut lo, mut hi) = (0u64, 0u64);
    for nest in spec.loop_nests() {
        let serial: u64 = nest
            .accesses()
            .iter()
            .map(|a| access_duration(spec, a))
            .sum();
        lo += nest.iterations() * body_critical_path(spec, nest);
        hi += 2 * nest.iterations() * serial;
    }
    let steps = 12;
    let mut budgets: Vec<u64> = (0..=steps)
        .map(|k| lo + (hi - lo) / steps * k)
        .chain([lo.saturating_sub(1), hi])
        .collect();
    budgets.sort_unstable();
    budgets.dedup();
    budgets
}

/// `spec` rebuilt with only every third dependency edge. `specgen`
/// bodies are chains, which leave the balancer no choice; dropping
/// edges opens parallel accesses that compete for cycles.
fn loosened(spec: &AppSpec) -> AppSpec {
    let mut b = memx_ir::AppSpecBuilder::new(format!("{}-loose", spec.name()));
    for g in spec.basic_groups() {
        b.basic_group_full(
            g.name(),
            g.words(),
            g.bitwidth(),
            g.placement(),
            g.min_ports(),
        )
        .unwrap();
    }
    for nest in spec.loop_nests() {
        let id = b.loop_nest(nest.name(), nest.iterations()).unwrap();
        let accesses: Vec<AccessId> = nest
            .accesses()
            .iter()
            .map(|a| {
                b.access_full(id, a.group(), a.kind(), a.weight(), a.is_burst())
                    .unwrap()
            })
            .collect();
        for e in nest.dependencies().iter().step_by(3) {
            b.depend(id, accesses[e.from.index()], accesses[e.to.index()])
                .unwrap();
        }
    }
    b.cycle_budget(spec.cycle_budget());
    b.build().unwrap()
}

#[test]
fn specgen_specs_match_the_reference_scheduler() {
    for index in 0..48 {
        let spec = memx_ir::specgen::generate(0x5CBD, index).unwrap();
        for spec in [loosened(&spec), spec] {
            for budget in budget_range(&spec) {
                assert_matches(&spec, budget);
            }
        }
    }
}

#[test]
fn single_bodies_match_the_reference_scheduler() {
    for index in 0..48 {
        let spec = loosened(&memx_ir::specgen::generate(0xB0D1, index).unwrap());
        for nest in spec.loop_nests() {
            let serial: u64 = nest
                .accesses()
                .iter()
                .map(|a| access_duration(&spec, a))
                .sum();
            for budget in 0..=2 * serial + 1 {
                for balance in [true, false] {
                    let plan = super::BodyPlan::new(&spec, nest);
                    let got = plan.body_schedule(budget, balance);
                    let want = schedule_body(&spec, nest, budget, balance);
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(got.placements(), want.placements());
                            assert_eq!(got.pressure().to_bits(), want.pressure().to_bits());
                        }
                        (got, want) => assert_eq!(got.err(), want.err()),
                    }
                }
            }
        }
    }
}

/// The paper's best-hierarchy BTPC spec (the Table-1 merge, then the
/// Table-2 `ylocal` layer) profiled on a `frame`×`frame` image, with the
/// same constants as the reproduction binaries.
pub(crate) fn btpc_best_hierarchy(frame: usize) -> AppSpec {
    let profile = memx_btpc::spec::measure_profile(frame, frame, 0xB7C0DE);
    let btpc = memx_btpc::spec::btpc_app_spec(&profile, 1024, 1024, 20_000_000).unwrap();
    let merged = crate::structuring::merge(&btpc.spec, btpc.pyr, btpc.ridge).unwrap();
    let ylocal = crate::hierarchy::HierarchyLayer::new("ylocal", 12, 2, 2.0);
    crate::hierarchy::apply_hierarchy(&merged.spec, merged.new_group, &[ylocal])
        .unwrap()
        .spec
}

/// Every budget the crossover probe of the reproduction binaries can
/// visit: 20 M cycles minus 0 %, 1 %, ..., 39 %.
fn probe_budgets() -> impl Iterator<Item = u64> {
    (0..40).map(|pct| 20_000_000 - 200_000 * pct)
}

#[test]
fn smoke_btpc_probe_budgets_match_the_reference_scheduler() {
    let spec = btpc_best_hierarchy(64);
    for budget in probe_budgets() {
        assert_matches(&spec, budget);
    }
}

#[test]
fn full_btpc_probe_budgets_match_the_reference_scheduler() {
    let spec = btpc_best_hierarchy(128);
    for budget in probe_budgets() {
        assert_matches(&spec, budget);
    }
}

/// Drives `budgets` through one [`Plan`] per order: descending (the
/// crossover probe's order), ascending, and every budget twice in a row
/// after the whole list once. Every result must match an independent
/// reference call bit for bit, whatever the plan's memo already holds.
fn assert_plan_matches(spec: &AppSpec, budgets: &[u64]) {
    let mut descending: Vec<(u64, Result<ScbdResult, ExploreError>)> = budgets
        .iter()
        .map(|&b| (b, distribute_with_budget(spec, b)))
        .collect();
    descending.sort_by_key(|(b, _)| std::cmp::Reverse(*b));
    let ascending: Vec<_> = descending.iter().rev().collect();
    let repeated: Vec<_> = descending
        .iter()
        .chain(descending.iter().flat_map(|case| [case, case]))
        .collect();
    for (order, cases) in [
        ("descending", descending.iter().collect()),
        ("ascending", ascending),
        ("repeated", repeated),
    ] {
        let mut plan = Plan::new(spec);
        for (budget, want) in cases {
            if let Some(diff) = difference(&plan.distribute(*budget), want) {
                panic!("{} at budget {budget} ({order}): {diff}", spec.name());
            }
        }
    }
}

#[test]
fn specgen_budget_sweeps_through_one_plan_match_the_reference_scheduler() {
    for index in 0..48 {
        let spec = memx_ir::specgen::generate(0x5CBD, index).unwrap();
        for spec in [loosened(&spec), spec] {
            assert_plan_matches(&spec, &budget_range(&spec));
        }
    }
}

#[test]
fn btpc_probe_sweeps_through_one_plan_match_the_reference_scheduler() {
    let budgets: Vec<u64> = probe_budgets().collect();
    for frame in [64, 128] {
        assert_plan_matches(&btpc_best_hierarchy(frame), &budgets);
    }
}

/// The differential check must notice a memoized pressure that does not
/// belong to its budget: here, after one distribution, the body's
/// pressure at its critical path is filed under the next budget, as if a
/// schedule had been memoized under the wrong key.
#[test]
fn a_stale_candidate_is_caught() {
    let mut b = memx_ir::AppSpecBuilder::new("stale");
    let x = b.basic_group("x", 64, 8).unwrap();
    let y = b.basic_group("y", 64, 8).unwrap();
    let n = b.loop_nest("l", 100).unwrap();
    let rx = b.access(n, x, memx_ir::AccessKind::Read).unwrap();
    let ry = b.access(n, y, memx_ir::AccessKind::Read).unwrap();
    let w = b.access(n, x, memx_ir::AccessKind::Write).unwrap();
    b.depend(n, rx, w).unwrap();
    b.depend(n, ry, w).unwrap();
    b.cycle_budget(1000);
    let spec = b.build().unwrap();

    let want = distribute_with_budget(&spec, 1000);
    let mut plan = Plan::new(&spec);
    assert_eq!(difference(&plan.distribute(1000), &want), None);

    let body = &plan.bodies[0];
    let critical_path = body.critical_path;
    let stale = body.schedule(critical_path, true).unwrap().pressure;
    let poisoned = plan.pressures[0].insert(critical_path + 1, stale);
    assert!(poisoned.is_some(), "the next budget was never memoized");
    assert!(
        difference(&plan.distribute(1000), &want).is_some(),
        "a stale candidate went unnoticed"
    );
}
