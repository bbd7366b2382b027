//! Property-based tests on the exploration stages: scheduling and
//! assignment invariants over random specifications.

#![expect(
    clippy::disallowed_types,
    reason = "a case counter shared across proptest cases names each case's scratch cache directory"
)]

use memx_core::alloc::{
    assign_with_stats, bell_number, off_chip_exhaustive_reference, root_lower_bounds, AllocOptions,
    BoundKind, MemoryKind, Organization,
};
use memx_core::cache::{EvalCache, EvalCtx};
use memx_core::explore::pareto_indices;
use memx_core::{macp, scbd, ExploreError};
use memx_ir::{AccessKind, AppSpec, AppSpecBuilder, BasicGroupId, Placement};
use memx_memlib::{CostBreakdown, MemLibrary, OffChipCatalog, OnChipModel, OnChipSpec};
use proptest::prelude::*;

/// Random schedulable spec: a few groups (mixed placement), a few nests
/// with random chains, and a generous budget.
fn arb_spec() -> impl Strategy<Value = AppSpec> {
    let group = (1u64..5_000, 1u32..24, prop::bool::ANY);
    let access = (0usize..8, prop::bool::ANY);
    let nest = (
        1u64..200,
        prop::collection::vec(access, 1..7),
        prop::bool::ANY,
    );
    (
        prop::collection::vec(group, 1..5),
        prop::collection::vec(nest, 1..4),
    )
        .prop_map(|(groups, nests)| {
            let mut b = AppSpecBuilder::new("prop");
            let ids: Vec<BasicGroupId> = groups
                .iter()
                .enumerate()
                .map(|(i, &(words, width, off))| {
                    let placement = if off && words > 1000 {
                        Placement::OffChip
                    } else {
                        Placement::Any
                    };
                    b.basic_group_placed(format!("g{i}"), words, width, placement)
                        .expect("group params in range")
                })
                .collect();
            for (n, (iters, accesses, chain)) in nests.iter().enumerate() {
                let nid = b.loop_nest(format!("n{n}"), *iters).expect("iters > 0");
                let mut prev = None;
                for &(gidx, write) in accesses {
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let a = b
                        .access(nid, ids[gidx % ids.len()], kind)
                        .expect("valid access");
                    if *chain {
                        if let Some(p) = prev {
                            b.depend(nid, p, a).expect("chains are acyclic");
                        }
                    }
                    prev = Some(a);
                }
            }
            // Budget: generous enough for full serialization everywhere
            // (4 cycles covers the worst access duration).
            let budget: u64 = nests
                .iter()
                .map(|(iters, accesses, _)| iters * accesses.len() as u64 * 4)
                .sum::<u64>()
                .max(1);
            b.cycle_budget(budget);
            b.build().expect("constructed spec is valid")
        })
}

/// Small, purely on-chip spec (2–5 groups, mixed widths and minimum
/// port counts, occasionally overlapping accesses): small enough that
/// the true optimal assignment is computable by exhaustive partition
/// enumeration.
fn arb_onchip_spec() -> impl Strategy<Value = AppSpec> {
    let group = (1u64..3_000, 1u32..24, 1u32..3);
    let access = (0usize..8, prop::bool::ANY);
    let nest = (
        1u64..100,
        prop::collection::vec(access, 1..6),
        prop::bool::ANY,
    );
    (
        prop::collection::vec(group, 2..5),
        prop::collection::vec(nest, 1..3),
        // Budget slack factor: 1 forces maximal overlap, 4 none.
        1u64..5,
    )
        .prop_map(|(groups, nests, slack)| {
            let mut b = AppSpecBuilder::new("prop-onchip");
            let ids: Vec<BasicGroupId> = groups
                .iter()
                .enumerate()
                .map(|(i, &(words, width, min_ports))| {
                    b.basic_group_full(format!("g{i}"), words, width, Placement::Any, min_ports)
                        .expect("group params in range")
                })
                .collect();
            for (n, (iters, accesses, chain)) in nests.iter().enumerate() {
                let nid = b.loop_nest(format!("n{n}"), *iters).expect("iters > 0");
                let mut prev = None;
                for &(gidx, write) in accesses {
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let a = b
                        .access(nid, ids[gidx % ids.len()], kind)
                        .expect("valid access");
                    if *chain {
                        if let Some(p) = prev {
                            b.depend(nid, p, a).expect("chains are acyclic");
                        }
                    }
                    prev = Some(a);
                }
            }
            let budget: u64 = nests
                .iter()
                .map(|(iters, accesses, _)| iters * accesses.len() as u64 * slack)
                .sum::<u64>()
                .max(1);
            b.cycle_budget(budget);
            b.build().expect("constructed spec is valid")
        })
}

/// Off-chip-heavy spec: 2–6 off-chip groups with mixed widths, word
/// counts and access patterns (plus one on-chip sink), small enough
/// that the retired exhaustive set-partition scan is a usable ground
/// truth for the off-chip branch-and-bound.
fn arb_offchip_spec() -> impl Strategy<Value = AppSpec> {
    let group = (1u64..2_000_000, 1u32..24);
    let access = (0usize..8, prop::bool::ANY);
    let nest = (
        1u64..100,
        prop::collection::vec(access, 1..6),
        prop::bool::ANY,
    );
    (
        prop::collection::vec(group, 2..7),
        prop::collection::vec(nest, 1..3),
        // Budget slack factor: 1 forces maximal overlap, 8 none.
        1u64..9,
    )
        .prop_map(|(groups, nests, slack)| {
            let mut b = AppSpecBuilder::new("prop-offchip");
            let ids: Vec<BasicGroupId> = groups
                .iter()
                .enumerate()
                .map(|(i, &(words, width))| {
                    b.basic_group_placed(format!("g{i}"), words, width, Placement::OffChip)
                        .expect("group params in range")
                })
                .collect();
            let sink = b.basic_group("sink", 64, 8).expect("sink params in range");
            for (n, (iters, accesses, chain)) in nests.iter().enumerate() {
                let nid = b.loop_nest(format!("n{n}"), *iters).expect("iters > 0");
                let mut prev = None;
                for &(gidx, burst) in accesses {
                    let a = b
                        .access_full(nid, ids[gidx % ids.len()], AccessKind::Read, 1.0, burst)
                        .expect("valid access");
                    if *chain {
                        if let Some(p) = prev {
                            b.depend(nid, p, a).expect("chains are acyclic");
                        }
                    }
                    prev = Some(a);
                }
                let w = b
                    .access(nid, sink, AccessKind::Write)
                    .expect("valid access");
                if let Some(p) = prev {
                    b.depend(nid, p, w).expect("chains are acyclic");
                }
            }
            // Worst access duration is 4 cycles (off-chip random).
            let budget: u64 = nests
                .iter()
                .map(|(iters, accesses, _)| iters * (accesses.len() as u64 + 1) * slack)
                .sum::<u64>()
                .max(1);
            b.cycle_budget(budget * 4);
            b.build().expect("constructed spec is valid")
        })
}

/// All partitions of `{0..n}` into exactly `k` nonempty blocks.
fn partitions_into_k(n: usize, k: usize) -> Vec<Vec<Vec<usize>>> {
    let mut result = Vec::new();
    let mut current: Vec<Vec<usize>> = Vec::new();
    fn recurse(
        i: usize,
        n: usize,
        k: usize,
        cur: &mut Vec<Vec<usize>>,
        out: &mut Vec<Vec<Vec<usize>>>,
    ) {
        if i == n {
            if cur.len() == k {
                out.push(cur.clone());
            }
            return;
        }
        for b in 0..cur.len() {
            cur[b].push(i);
            recurse(i + 1, n, k, cur, out);
            cur[b].pop();
        }
        if cur.len() < k {
            cur.push(vec![i]);
            recurse(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    recurse(0, n, k, &mut current, &mut result);
    result
}

/// The true optimal on-chip scalar cost for exactly `k` memories, by
/// exhaustive enumeration against the public cost models (independent
/// of the branch-and-bound under test). `None` when no partition is
/// feasible under the 4-port module limit.
fn exhaustive_on_chip_optimum(
    spec: &AppSpec,
    schedule: &memx_core::scbd::ScbdResult,
    lib: &MemLibrary,
    groups: &[BasicGroupId],
    k: usize,
) -> Option<f64> {
    let time_s = spec.real_time_seconds();
    let mut best: Option<f64> = None;
    for partition in partitions_into_k(groups.len(), k) {
        let mut scalar = 0.0;
        let mut feasible = true;
        for block in &partition {
            let members: Vec<BasicGroupId> = block.iter().map(|&i| groups[i]).collect();
            let overlap = schedule.required_ports(|g| members.contains(&g));
            let min_ports = members
                .iter()
                .map(|&g| spec.group(g).min_ports())
                .max()
                .expect("block not empty");
            let ports = overlap.max(min_ports).max(1);
            if ports > 4 {
                feasible = false;
                break;
            }
            let words: u64 = members.iter().map(|&g| spec.group(g).words()).sum();
            let width = members
                .iter()
                .map(|&g| spec.group(g).bitwidth())
                .max()
                .expect("block not empty");
            let module = OnChipSpec::new(words, width, ports);
            let area = lib.on_chip().area_mm2(&module);
            let accesses: f64 = members
                .iter()
                .map(|&g| {
                    let (r, w) = spec.total_accesses(g);
                    r + w
                })
                .sum();
            let mw = lib.on_chip().energy_pj(&module) * accesses / time_s / 1e9;
            scalar += CostBreakdown::new(area, mw, 0.0).scalar(1.0, 1.0);
        }
        if feasible && best.map(|b| scalar < b).unwrap_or(true) {
            best = Some(scalar);
        }
    }
    best
}

/// Cost points on a small integer grid, so duplicate and dominated
/// points occur often.
fn arb_costs() -> impl Strategy<Value = Vec<CostBreakdown>> {
    prop::collection::vec((0u32..4, 0u32..4, 0u32..4), 1..12).prop_map(|points| {
        points
            .into_iter()
            .map(|(a, p, o)| CostBreakdown::new(f64::from(a), f64::from(p), f64::from(o)))
            .collect()
    })
}

fn strictly_dominates(a: &CostBreakdown, b: &CostBreakdown) -> bool {
    a.dominates(b) && !b.dominates(a)
}

/// The organization alone, for properties that ignore search effort.
fn assign_org(
    spec: &AppSpec,
    schedule: &scbd::ScbdResult,
    lib: &MemLibrary,
    options: &AllocOptions,
) -> Result<Organization, ExploreError> {
    assign_with_stats(spec, schedule, lib, options).map(|(org, _)| org)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_fit_their_budgets_and_respect_durations(spec in arb_spec()) {
        let result = scbd::distribute(&spec).expect("generous budget schedules");
        prop_assert!(result.used_cycles <= spec.cycle_budget());
        for body in &result.bodies {
            let nest = spec.nest(body.nest);
            // Total occupancy equals the sum of access durations.
            let occupancy: usize = body.busy_slots().iter().map(|s| s.occupants.len()).sum();
            let durations: u64 = nest
                .accesses()
                .iter()
                .map(|a| {
                    let off = spec.group(a.group()).placement() == Placement::OffChip;
                    memx_memlib::timing::access_cycles(off, a.is_burst())
                })
                .sum();
            prop_assert_eq!(occupancy as u64, durations);
        }
    }

    #[test]
    fn generous_budgets_reach_zero_pressure(spec in arb_spec()) {
        let result = scbd::distribute(&spec).expect("schedulable");
        for body in &result.bodies {
            prop_assert_eq!(body.pressure(), 0.0, "body {} still pressured", body.name);
        }
    }

    #[test]
    fn macp_is_a_lower_bound_for_scheduling(spec in arb_spec()) {
        let report = macp::analyze(&spec);
        let result = scbd::distribute(&spec).expect("schedulable");
        prop_assert!(result.used_cycles >= report.total_cycles);
    }

    #[test]
    fn assignment_partitions_all_accessed_groups(spec in arb_spec()) {
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let org = assign_org(&spec, &schedule, &lib, &AllocOptions::default())
            .expect("assignable with free allocation");
        let mut seen = vec![false; spec.basic_groups().len()];
        for mem in &org.memories {
            prop_assert!(!mem.groups.is_empty());
            for g in &mem.groups {
                prop_assert!(!seen[g.index()], "group assigned twice");
                seen[g.index()] = true;
            }
            // Memory dimensions cover the assigned groups.
            let words: u64 = mem.groups.iter().map(|&g| spec.group(g).words()).sum();
            prop_assert_eq!(words, mem.words);
            let width = mem
                .groups
                .iter()
                .map(|&g| spec.group(g).bitwidth())
                .max()
                .expect("non-empty");
            prop_assert_eq!(width, mem.width);
        }
        for (i, g) in spec.basic_groups().iter().enumerate() {
            let (r, w) = spec.total_accesses(g.id());
            if r + w > 0.0 {
                prop_assert!(seen[i], "accessed group {} unassigned", g.name());
            }
        }
    }

    #[test]
    fn off_chip_groups_land_in_off_chip_memories(spec in arb_spec()) {
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let org = assign_org(&spec, &schedule, &lib, &AllocOptions::default())
            .expect("assignable");
        for mem in &org.memories {
            for &g in &mem.groups {
                let off_group = spec.group(g).placement() == Placement::OffChip;
                let off_mem = matches!(mem.kind, MemoryKind::OffChip(_));
                prop_assert_eq!(off_group, off_mem);
            }
        }
    }

    #[test]
    fn parallel_assignment_is_bit_identical_to_serial(spec in arb_spec()) {
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let serial = assign_org(&spec, &schedule, &lib, &AllocOptions {
            workers: 1,
            ..AllocOptions::default()
        }).expect("assignable");
        for workers in [2usize, 8] {
            let parallel = assign_org(&spec, &schedule, &lib, &AllocOptions {
                workers,
                ..AllocOptions::default()
            }).expect("assignable");
            prop_assert_eq!(&serial, &parallel, "workers={}", workers);
        }
    }

    #[test]
    fn fan_exhaustion_stays_bit_identical_across_workers_on_chip(
        spec in arb_onchip_spec(),
        node_limit in 1u64..600,
    ) {
        // Under an exhausted node budget the fan harness must still
        // reproduce the serial solver exactly: the seed subtree runs
        // first with the full budget and the remainder is split by the
        // canonical prefix order, so whatever the budget cuts off is
        // cut off identically for every worker count.
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let serial = assign_org(&spec, &schedule, &lib, &AllocOptions {
            workers: 1,
            node_limit,
            ..AllocOptions::default()
        });
        for workers in [2usize, 8] {
            let fanned = assign_org(&spec, &schedule, &lib, &AllocOptions {
                workers,
                node_limit,
                ..AllocOptions::default()
            });
            prop_assert_eq!(&serial, &fanned, "workers={}", workers);
        }
    }

    #[test]
    fn fan_exhaustion_stays_bit_identical_across_workers_off_chip(
        spec in arb_offchip_spec(),
        node_limit in 1u64..600,
    ) {
        // Same determinism-under-exhaustion contract for the off-chip
        // partition search (2–6 off-chip groups plus the on-chip sink).
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let serial = assign_org(&spec, &schedule, &lib, &AllocOptions {
            workers: 1,
            node_limit,
            ..AllocOptions::default()
        });
        for workers in [2usize, 8] {
            let fanned = assign_org(&spec, &schedule, &lib, &AllocOptions {
                workers,
                node_limit,
                ..AllocOptions::default()
            });
            prop_assert_eq!(&serial, &fanned, "workers={}", workers);
        }
    }

    #[test]
    fn pairwise_bound_is_admissible_and_dominates_solo(spec in arb_onchip_spec()) {
        // The two properties that make BoundKind::Pairwise sound and
        // worthwhile, against a ground truth computed by exhaustive
        // partition enumeration (independent of the search under test):
        //   admissibility: pairwise root bound <= true optimal cost;
        //   dominance:     pairwise root bound >= solo root bound.
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let options = AllocOptions::default();
        let groups: Vec<BasicGroupId> = spec
            .basic_groups()
            .iter()
            .filter(|g| {
                let (r, w) = spec.total_accesses(g.id());
                r + w > 0.0
            })
            .map(|g| g.id())
            .collect();
        prop_assert!(!groups.is_empty(), "every nest has at least one access");
        for k in 1..=groups.len() {
            let (solo, pairwise) = root_lower_bounds(&spec, &schedule, &lib, &options, k as u32)
                .expect("weights valid")
                .expect("on-chip groups exist");
            prop_assert!(
                solo <= pairwise + 1e-12,
                "k={}: solo bound {} above pairwise {}", k, solo, pairwise
            );
            if let Some(optimum) =
                exhaustive_on_chip_optimum(&spec, &schedule, &lib, &groups, k)
            {
                prop_assert!(
                    pairwise <= optimum * (1.0 + 1e-9) + 1e-9,
                    "k={}: pairwise bound {} exceeds true optimum {}", k, pairwise, optimum
                );
            }
        }
    }

    #[test]
    fn exact_search_matches_exhaustive_optimum_for_both_bounds(spec in arb_onchip_spec()) {
        // With an unexhausted node budget the branch-and-bound is exact:
        // whatever bound prunes it, the returned on-chip cost must equal
        // the exhaustively-enumerated optimum.
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let groups: Vec<BasicGroupId> = spec
            .basic_groups()
            .iter()
            .filter(|g| {
                let (r, w) = spec.total_accesses(g.id());
                r + w > 0.0
            })
            .map(|g| g.id())
            .collect();
        prop_assert!(!groups.is_empty(), "every nest has at least one access");
        for k in 1..=groups.len() {
            let optimum = exhaustive_on_chip_optimum(&spec, &schedule, &lib, &groups, k);
            for bound in [BoundKind::Solo, BoundKind::Pairwise] {
                let result = assign_org(&spec, &schedule, &lib, &AllocOptions {
                    on_chip_memories: Some(k as u32),
                    bound,
                    ..AllocOptions::default()
                });
                match (&optimum, result) {
                    (Some(opt), Ok(org)) => {
                        let scalar = org.cost.scalar(1.0, 1.0);
                        prop_assert!(
                            (scalar - opt).abs() <= opt.abs() * 1e-9 + 1e-9,
                            "k={} bound={:?}: search {} vs optimum {}", k, bound, scalar, opt
                        );
                    }
                    (None, Err(_)) => {}
                    (opt, res) => {
                        prop_assert!(
                            false,
                            "k={} bound={:?}: feasibility disagrees ({:?} vs {:?})",
                            k, bound, opt, res.map(|o| o.cost)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn off_chip_bb_matches_the_exhaustive_scan(spec in arb_offchip_spec()) {
        // The off-chip branch-and-bound must reproduce the retired
        // exhaustive streaming scan exactly — same optimum, same
        // canonical-first tie-break, same block order — while expanding
        // no more nodes than the Bell-number partition space the scan
        // had to stream through, for every worker count.
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let reference = off_chip_exhaustive_reference(&spec, &schedule, &lib);
        let n = spec
            .basic_groups()
            .iter()
            .filter(|g| {
                let (r, w) = spec.total_accesses(g.id());
                g.placement() == Placement::OffChip && r + w > 0.0
            })
            .count();
        for workers in [1usize, 2, 8] {
            let result = assign_with_stats(&spec, &schedule, &lib, &AllocOptions {
                workers,
                ..AllocOptions::default()
            });
            match (&reference, result) {
                (Ok((want, _)), Ok((org, stats))) => {
                    let got: Vec<_> = org
                        .memories
                        .iter()
                        .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
                        .collect();
                    prop_assert_eq!(got.len(), want.len(), "workers={}", workers);
                    for (g, w) in got.iter().zip(want) {
                        prop_assert_eq!(*g, w, "workers={}", workers);
                    }
                    prop_assert!(
                        stats.off_chip_bb_nodes <= bell_number(n),
                        "workers={}: {} nodes > Bell({}) = {}",
                        workers, stats.off_chip_bb_nodes, n, bell_number(n)
                    );
                    prop_assert_eq!(
                        stats.off_chip_exhaustive_partitions,
                        bell_number(n),
                        "workers={}", workers
                    );
                }
                (Err(want), Err(got)) => prop_assert_eq!(&got, want, "workers={}", workers),
                (want, got) => prop_assert!(
                    false,
                    "workers={}: feasibility disagrees ({:?} vs {:?})",
                    workers, want, got
                ),
            }
        }
    }

    #[test]
    fn custom_model_search_stays_exact(
        spec in arb_onchip_spec(),
        scale_idx in 0usize..4,
    ) {
        let scale = [0.25f64, 0.5, 2.0, 4.0][scale_idx];
        // The pairwise floor is derived from the active OnChipModel: for
        // any area scaling of the technology library the bound must stay
        // admissible, i.e. the branch-and-bound still lands on the
        // exhaustively-enumerated optimum computed with that library.
        // (Reading the default calibration constants instead — the old
        // behavior — over-prunes any library with cheaper cells.)
        let base = OnChipModel::default_07um();
        let lib = MemLibrary::new(
            base.clone()
                .with_area_per_bit_mm2(base.area_per_bit_mm2() * scale)
                .with_module_overhead_mm2(base.module_overhead_mm2() * scale)
                .with_port_area_factor(base.port_area_factor() * scale),
            OffChipCatalog::default_edo(),
        );
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let groups: Vec<BasicGroupId> = spec
            .basic_groups()
            .iter()
            .filter(|g| {
                let (r, w) = spec.total_accesses(g.id());
                r + w > 0.0
            })
            .map(|g| g.id())
            .collect();
        prop_assert!(!groups.is_empty(), "every nest has at least one access");
        for k in 1..=groups.len() {
            let optimum = exhaustive_on_chip_optimum(&spec, &schedule, &lib, &groups, k);
            let result = assign_org(&spec, &schedule, &lib, &AllocOptions {
                on_chip_memories: Some(k as u32),
                ..AllocOptions::default()
            });
            match (&optimum, result) {
                (Some(opt), Ok(org)) => {
                    let scalar = org.cost.scalar(1.0, 1.0);
                    prop_assert!(
                        (scalar - opt).abs() <= opt.abs() * 1e-9 + 1e-9,
                        "k={} scale={}: search {} vs optimum {}", k, scale, scalar, opt
                    );
                }
                (None, Err(_)) => {}
                (opt, res) => prop_assert!(
                    false,
                    "k={} scale={}: feasibility disagrees ({:?} vs {:?})",
                    k, scale, opt, res.map(|o| o.cost)
                ),
            }
        }
    }

    #[test]
    fn alloc_cache_hits_are_bit_identical_to_recompute(spec in arb_spec()) {
        // A phase-2 cache hit must be indistinguishable from running the
        // solver: same organization (cost float bits included, via the
        // derived equality) and the same replayed AllocStats — for every
        // worker count, since worker count is deliberately excluded from
        // the key, and for both bound kinds, which key separately.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        for bound in [BoundKind::Solo, BoundKind::Pairwise] {
            let serial = AllocOptions { workers: 1, bound, ..AllocOptions::default() };
            let (want_org, want_stats) =
                assign_with_stats(&spec, &schedule, &lib, &serial).expect("assignable");

            let dir = std::env::temp_dir().join(format!(
                "memx-prop-alloc-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::remove_dir_all(&dir).ok();
            let cache = EvalCache::open(&dir).expect("cache opens");
            let ctx = EvalCtx { lib: &lib, cache: Some(&cache) };

            // Cold pass populates the entry and must already match the
            // uncached run exactly.
            let (cold_org, cold_stats) =
                assign_with_stats(&spec, &schedule, ctx, &serial).expect("assignable");
            prop_assert_eq!(&cold_org, &want_org, "cold bound={:?}", bound);
            prop_assert_eq!(&cold_stats, &want_stats, "cold bound={:?}", bound);
            prop_assert_eq!(cache.stats().alloc_misses, 1);
            prop_assert_eq!(cache.stats().alloc_hits, 0);

            for workers in [1usize, 2, 8] {
                let options = AllocOptions { workers, bound, ..AllocOptions::default() };
                let (org, stats) =
                    assign_with_stats(&spec, &schedule, ctx, &options).expect("assignable");
                prop_assert_eq!(&org, &want_org, "workers={} bound={:?}", workers, bound);
                prop_assert_eq!(&stats, &want_stats, "workers={} bound={:?}", workers, bound);
            }
            prop_assert_eq!(cache.stats().alloc_hits, 3, "bound={:?}", bound);
            prop_assert_eq!(cache.stats().alloc_misses, 1, "bound={:?}", bound);
            prop_assert_eq!(cache.stats().write_failures(), 0);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn pareto_front_keeps_no_dominated_point(costs in arb_costs()) {
        let front = pareto_indices(&costs);
        prop_assert!(!front.is_empty(), "a non-empty set has a non-empty front");
        for &i in &front {
            for (j, other) in costs.iter().enumerate() {
                if j != i {
                    prop_assert!(
                        !strictly_dominates(other, &costs[i]),
                        "kept point {} is dominated by {}", i, j
                    );
                }
            }
        }
        // Every dropped point is strictly dominated by someone.
        for i in 0..costs.len() {
            if !front.contains(&i) {
                prop_assert!(
                    costs.iter().enumerate().any(|(j, o)| j != i && strictly_dominates(o, &costs[i])),
                    "point {} dropped without a dominator", i
                );
            }
        }
    }

    #[test]
    fn pareto_front_keeps_all_duplicates(costs in arb_costs()) {
        // §4.6 semantics: identical-cost points are distinct design
        // options and must survive (or fall) together.
        let front = pareto_indices(&costs);
        for i in 0..costs.len() {
            for j in 0..costs.len() {
                if costs[i] == costs[j] {
                    prop_assert_eq!(
                        front.contains(&i),
                        front.contains(&j),
                        "duplicates {} and {} split", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn pareto_front_is_permutation_invariant(costs in arb_costs(), rot in 0usize..12) {
        // Rotate + reverse: an arbitrary-ish permutation that needs no
        // extra randomness.
        let rot = rot % costs.len();
        let mut permuted: Vec<CostBreakdown> = costs[rot..]
            .iter()
            .chain(&costs[..rot])
            .copied()
            .collect();
        permuted.reverse();
        let kept = |cs: &[CostBreakdown]| {
            let mut v: Vec<(u64, u64, u64)> = pareto_indices(cs)
                .into_iter()
                .map(|i| {
                    (
                        cs[i].on_chip_area_mm2.to_bits(),
                        cs[i].on_chip_power_mw.to_bits(),
                        cs[i].off_chip_power_mw.to_bits(),
                    )
                })
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(kept(&costs), kept(&permuted));
    }

    #[test]
    fn organization_cost_is_sum_of_memory_costs(spec in arb_spec()) {
        let lib = MemLibrary::default_07um();
        let schedule = scbd::distribute(&spec).expect("schedulable");
        let org = assign_org(&spec, &schedule, &lib, &AllocOptions::default())
            .expect("assignable");
        let total: memx_memlib::CostBreakdown = org.memories.iter().map(|m| m.cost).sum();
        prop_assert!((total.on_chip_area_mm2 - org.cost.on_chip_area_mm2).abs() < 1e-9);
        prop_assert!((total.total_power_mw() - org.cost.total_power_mw()).abs() < 1e-9);
    }
}
