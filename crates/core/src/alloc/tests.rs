//! Unit tests of the allocation stage: both solvers against the
//! exhaustive reference, determinism across worker counts, bounds and
//! error paths.

#![cfg(test)]

use memx_ir::{AccessKind, AppSpecBuilder};
use memx_memlib::MemLibrary;

use super::key::off_chip_blocks_fingerprint;
use super::*;
use crate::cache::EvalCache;
use crate::scbd;

fn lib() -> MemLibrary {
    MemLibrary::default_07um()
}

/// The organization alone, for tests that ignore search effort.
fn assign_org(
    spec: &AppSpec,
    s: &ScbdResult,
    lib: &MemLibrary,
    options: &AllocOptions,
) -> Result<Organization, ExploreError> {
    assign_with_stats(spec, s, lib, options).map(|(org, _)| org)
}

/// Spec with several on-chip groups of differing widths plus one
/// off-chip frame store.
fn mixed_spec(budget: u64) -> AppSpec {
    let mut b = AppSpecBuilder::new("t");
    let frame = b
        .basic_group_placed("frame", 1 << 20, 8, Placement::OffChip)
        .unwrap();
    let narrow = b.basic_group("narrow", 512, 2).unwrap();
    let wide = b.basic_group("wide", 512, 20).unwrap();
    let mid = b.basic_group("mid", 256, 8).unwrap();
    let n = b.loop_nest("l", 100_000).unwrap();
    let a0 = b.access(n, frame, AccessKind::Read).unwrap();
    let a1 = b.access(n, narrow, AccessKind::Read).unwrap();
    let a2 = b.access(n, wide, AccessKind::Read).unwrap();
    let a3 = b.access(n, mid, AccessKind::Write).unwrap();
    b.depend(n, a0, a3).unwrap();
    b.depend(n, a1, a3).unwrap();
    b.depend(n, a2, a3).unwrap();
    b.cycle_budget(budget).real_time_seconds(0.1);
    b.build().unwrap()
}

/// Spec with four overlapping off-chip stores (so the off-chip
/// partition enumeration has real work) plus two on-chip groups.
fn off_heavy_spec() -> AppSpec {
    let mut b = AppSpecBuilder::new("t");
    let frames: Vec<_> = (0..4)
        .map(|i| {
            b.basic_group_placed(
                format!("frame{i}"),
                (1 << 18) << i,
                8 + 2 * i as u32,
                Placement::OffChip,
            )
            .unwrap()
        })
        .collect();
    let small = b.basic_group("small", 512, 8).unwrap();
    let tiny = b.basic_group("tiny", 128, 4).unwrap();
    let n = b.loop_nest("l", 50_000).unwrap();
    let mut reads = Vec::new();
    for &f in &frames {
        reads.push(b.access(n, f, AccessKind::Read).unwrap());
    }
    let w0 = b.access(n, small, AccessKind::Write).unwrap();
    let w1 = b.access(n, tiny, AccessKind::Write).unwrap();
    for &r in &reads {
        b.depend(n, r, w0).unwrap();
    }
    b.depend(n, w0, w1).unwrap();
    // Tight enough that the frame reads overlap each other.
    b.cycle_budget(400_000).real_time_seconds(0.05);
    b.build().unwrap()
}

#[test]
fn assignment_produces_positive_costs() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    let org = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
    assert!(org.cost.on_chip_area_mm2 > 0.0);
    assert!(org.cost.on_chip_power_mw > 0.0);
    assert!(org.cost.off_chip_power_mw > 0.0);
    assert_eq!(org.off_chip_count(), 1);
    assert!(org.on_chip_count() >= 1);
}

#[test]
fn fixed_allocation_count_is_respected() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    for k in 1..=3 {
        let options = AllocOptions {
            on_chip_memories: Some(k),
            ..AllocOptions::default()
        };
        let org = assign_org(&spec, &s, &lib(), &options).unwrap();
        assert_eq!(org.on_chip_count(), k as usize, "k={k}");
    }
}

#[test]
fn more_memories_less_on_chip_power() {
    // Table 4's monotone power column.
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    let power = |k: u32| {
        let options = AllocOptions {
            on_chip_memories: Some(k),
            ..AllocOptions::default()
        };
        assign_org(&spec, &s, &lib(), &options)
            .unwrap()
            .cost
            .on_chip_power_mw
    };
    assert!(power(3) <= power(1));
}

#[test]
fn one_memory_wastes_bitwidth() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    let options = AllocOptions {
        on_chip_memories: Some(1),
        ..AllocOptions::default()
    };
    let org = assign_org(&spec, &s, &lib(), &options).unwrap();
    let on_chip = org
        .memories
        .iter()
        .find(|m| matches!(m.kind, MemoryKind::OnChip))
        .unwrap();
    // The single memory is as wide as the widest group.
    assert_eq!(on_chip.width, 20);
    assert_eq!(on_chip.words, 512 + 512 + 256);
}

#[test]
fn tight_budget_forces_multiport_or_split() {
    // Two parallel reads funnel into one write under a 2-cycle
    // budget: the reads must overlap, so sharing one memory needs
    // two ports while two memories stay single-ported.
    let mut b = AppSpecBuilder::new("t");
    let narrow = b.basic_group("narrow", 512, 2).unwrap();
    let wide = b.basic_group("wide", 512, 20).unwrap();
    let n = b.loop_nest("l", 1000).unwrap();
    let a0 = b.access(n, narrow, AccessKind::Read).unwrap();
    let a1 = b.access(n, wide, AccessKind::Read).unwrap();
    let a2 = b.access(n, narrow, AccessKind::Write).unwrap();
    b.depend(n, a0, a2).unwrap();
    b.depend(n, a1, a2).unwrap();
    b.cycle_budget(2000).real_time_seconds(0.01);
    let spec = b.build().unwrap();
    let s = scbd::distribute(&spec).unwrap();
    let options = AllocOptions {
        on_chip_memories: Some(1),
        ..AllocOptions::default()
    };
    let org = assign_org(&spec, &s, &lib(), &options).unwrap();
    let on_chip = org
        .memories
        .iter()
        .find(|m| matches!(m.kind, MemoryKind::OnChip))
        .unwrap();
    assert!(on_chip.ports >= 2, "ports = {}", on_chip.ports);
    // Splitting into two memories avoids the multi-port penalty.
    let options2 = AllocOptions {
        on_chip_memories: Some(2),
        ..AllocOptions::default()
    };
    let org2 = assign_org(&spec, &s, &lib(), &options2).unwrap();
    let max_ports = org2
        .memories
        .iter()
        .filter(|m| matches!(m.kind, MemoryKind::OnChip))
        .map(|m| m.ports)
        .max()
        .unwrap();
    assert_eq!(max_ports, 1);
}

#[test]
fn sweep_finds_a_no_worse_organization_than_any_fixed_k() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    let sweep = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
    let sweep_scalar = sweep.cost.scalar(1.0, 1.0);
    for k in 1..=3 {
        let options = AllocOptions {
            on_chip_memories: Some(k),
            ..AllocOptions::default()
        };
        let fixed = assign_org(&spec, &s, &lib(), &options).unwrap();
        assert!(sweep_scalar <= fixed.cost.scalar(1.0, 1.0) + 1e-9, "k={k}");
    }
}

#[test]
fn min_ports_respected() {
    let mut b = AppSpecBuilder::new("t");
    let g = b
        .basic_group_full("buf", 5 * 1024, 8, Placement::OnChip, 2)
        .unwrap();
    let n = b.loop_nest("l", 1000).unwrap();
    b.access(n, g, AccessKind::Read).unwrap();
    b.cycle_budget(100_000).real_time_seconds(0.01);
    let spec = b.build().unwrap();
    let s = scbd::distribute(&spec).unwrap();
    let org = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
    assert_eq!(org.memories[0].ports, 2);
}

#[test]
fn memory_members_come_out_in_search_order() {
    // `MemoryInstance::groups` is emitted as stored (organization
    // reports, served rows): on chip in the hardest-first push
    // order — non-increasing total traffic, ties by group id — and
    // off chip in canonical group order.
    for spec in [mixed_spec(2_000_000), off_heavy_spec()] {
        let s = scbd::distribute(&spec).unwrap();
        let traffic = group_traffic(&spec);
        for on_chip_memories in [None, Some(1), Some(2)] {
            let options = AllocOptions {
                on_chip_memories,
                ..AllocOptions::default()
            };
            let org = assign_org(&spec, &s, &lib(), &options).unwrap();
            for mem in &org.memories {
                let mut want = mem.groups.clone();
                match mem.kind {
                    MemoryKind::OnChip => want.sort_by(|a, b| {
                        traffic[b.index()]
                            .total()
                            .total_cmp(&traffic[a.index()].total())
                            .then(a.cmp(b))
                    }),
                    MemoryKind::OffChip(_) => want.sort(),
                }
                assert_eq!(mem.groups, want, "k={on_chip_memories:?}");
            }
        }
    }
}

#[test]
fn bell_numbers_match_the_oeis_prefix() {
    for (n, expect) in [
        (0u64, 1u64),
        (1, 1),
        (2, 2),
        (3, 5),
        (4, 15),
        (5, 52),
        (6, 203),
        (12, 4_213_597),
        (14, 190_899_322),
    ] {
        assert_eq!(bell_number(n as usize), expect, "Bell({n})");
    }
    // Saturates instead of overflowing for absurd group counts.
    assert_eq!(bell_number(64), u64::MAX);
}

#[test]
fn off_chip_search_reports_partition_and_node_counters() {
    let spec = off_heavy_spec();
    let s = scbd::distribute(&spec).unwrap();
    let (_, stats) = assign_with_stats(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
    // 4 off-chip groups -> at most Bell(4) = 15 partitions reached
    // (fewer when bandwidth or the bound prunes some), at least 1.
    assert!(stats.off_chip_partitions >= 1);
    assert!(stats.off_chip_partitions <= 15, "{stats:?}");
    assert_eq!(stats.off_chip_exhaustive_partitions, 15, "{stats:?}");
    assert!(stats.off_chip_bb_nodes >= 1);
    assert!(
        stats.off_chip_bb_nodes <= stats.off_chip_exhaustive_partitions,
        "{stats:?}"
    );
}

#[test]
fn off_chip_bb_matches_the_exhaustive_reference() {
    // The branch-and-bound must return the exhaustive scan's exact
    // canonical-first optimum — same blocks, same order, same bits.
    for spec in [off_heavy_spec(), mixed_spec(2_000_000)] {
        let s = scbd::distribute(&spec).unwrap();
        let (reference, ref_partitions) = off_chip_exhaustive_reference(&spec, &s, &lib()).unwrap();
        for workers in [1usize, 2, 8] {
            let (org, stats) = assign_with_stats(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            let off: Vec<&MemoryInstance> = org
                .memories
                .iter()
                .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
                .collect();
            assert_eq!(off.len(), reference.len(), "workers={workers}");
            for (got, want) in off.iter().zip(&reference) {
                assert_eq!(*got, want, "workers={workers}");
            }
            assert!(
                stats.off_chip_partitions <= ref_partitions,
                "workers={workers}: {stats:?} vs reference {ref_partitions}"
            );
        }
    }
}

#[test]
fn zero_access_groups_are_foreground() {
    let mut b = AppSpecBuilder::new("t");
    let used = b.basic_group("used", 64, 8).unwrap();
    let _unused = b.basic_group("unused", 64, 8).unwrap();
    let n = b.loop_nest("l", 10).unwrap();
    b.access(n, used, AccessKind::Read).unwrap();
    b.cycle_budget(1000);
    let spec = b.build().unwrap();
    let s = scbd::distribute(&spec).unwrap();
    let org = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
    let assigned: usize = org.memories.iter().map(|m| m.groups.len()).sum();
    assert_eq!(assigned, 1);
}

#[test]
fn parallel_matches_serial_bit_for_bit() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    for on_chip_memories in [None, Some(1), Some(2), Some(3)] {
        let serial = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                on_chip_memories,
                workers: 1,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        for workers in [2, 4, 7] {
            let parallel = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    on_chip_memories,
                    workers,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            assert_eq!(serial, parallel, "k={on_chip_memories:?} workers={workers}");
        }
    }
}

#[test]
fn off_chip_and_sweep_parallel_match_serial_for_all_worker_counts() {
    // The issue's determinism matrix: off-chip enumeration and the
    // k-sweep must be bit-identical for workers in {1, 2, 8}.
    let spec = off_heavy_spec();
    let s = scbd::distribute(&spec).unwrap();
    for bound in [BoundKind::Solo, BoundKind::Pairwise] {
        let serial = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers: 1,
                bound,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        assert!(serial.off_chip_count() >= 1);
        for workers in [2, 8] {
            let parallel = assign_org(
                &spec,
                &s,
                &lib(),
                &AllocOptions {
                    workers,
                    bound,
                    ..AllocOptions::default()
                },
            )
            .unwrap();
            assert_eq!(serial, parallel, "bound={bound:?} workers={workers}");
        }
    }
}

#[test]
fn node_limit_exhaustion_returns_deterministic_incumbent() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    // A node limit this small exhausts every subtree immediately:
    // the search must still return the greedy incumbent (never an
    // error) and do so identically across runs and worker counts.
    let run = |workers: usize| {
        assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                node_limit: 1,
                workers,
                ..AllocOptions::default()
            },
        )
        .expect("incumbent, not an error")
    };
    let serial_a = run(1);
    let serial_b = run(1);
    assert_eq!(serial_a, serial_b, "serial runs must be reproducible");
    for workers in [2, 4, 8] {
        assert_eq!(serial_a, run(workers), "workers={workers}");
    }
    // The exhausted search still yields a complete organization.
    assert!(serial_a.on_chip_count() >= 1);
}

#[test]
fn sweep_exhaustion_is_deterministic_on_the_off_heavy_spec() {
    // Same exhaustion matrix, but on a spec that exercises both the
    // off-chip enumeration and a multi-size k-sweep.
    let spec = off_heavy_spec();
    let s = scbd::distribute(&spec).unwrap();
    let run = |workers: usize| {
        assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                node_limit: 1,
                workers,
                ..AllocOptions::default()
            },
        )
        .expect("incumbent, not an error")
    };
    let serial = run(1);
    for workers in [2, 8] {
        assert_eq!(serial, run(workers), "workers={workers}");
    }
}

#[test]
fn solo_and_pairwise_bounds_agree_on_exact_results() {
    // Both bounds are admissible, so with an unexhausted node budget
    // the search returns the same optimum either way.
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    for on_chip_memories in [None, Some(1), Some(2), Some(3)] {
        let solo = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                on_chip_memories,
                bound: BoundKind::Solo,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        let pairwise = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                on_chip_memories,
                bound: BoundKind::Pairwise,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        assert_eq!(solo, pairwise, "k={on_chip_memories:?}");
    }
}

/// Many on-chip groups with mixed widths and a tight enough budget
/// to create real port conflicts — large enough that the
/// branch-and-bound actually expands nodes.
fn many_group_spec() -> AppSpec {
    let mut b = AppSpecBuilder::new("t");
    let groups: Vec<_> = (0..8)
        .map(|i| {
            b.basic_group(format!("g{i}"), 128 << (i % 4), 2 + 3 * (i as u32 % 5))
                .unwrap()
        })
        .collect();
    let n = b.loop_nest("l", 10_000).unwrap();
    let mut reads = Vec::new();
    for &g in &groups[..7] {
        reads.push(b.access(n, g, AccessKind::Read).unwrap());
    }
    let w = b.access(n, groups[7], AccessKind::Write).unwrap();
    for &r in &reads {
        b.depend(n, r, w).unwrap();
    }
    // Tight: the seven reads must overlap heavily.
    b.cycle_budget(30_000).real_time_seconds(0.01);
    b.build().unwrap()
}

#[test]
fn pairwise_bound_visits_no_more_nodes_than_solo() {
    let spec = many_group_spec();
    let s = scbd::distribute(&spec).unwrap();
    let nodes = |bound| {
        let (_, stats) = assign_with_stats(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers: 1,
                bound,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        stats.bb_nodes
    };
    let solo = nodes(BoundKind::Solo);
    let pairwise = nodes(BoundKind::Pairwise);
    assert!(pairwise <= solo, "pairwise {pairwise} > solo {solo}");
    assert!(solo > 0);
}

#[test]
fn root_bounds_are_ordered_and_admissible_on_the_mixed_spec() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    let options = AllocOptions::default();
    for k in 1..=3u32 {
        let (solo, pairwise) = root_lower_bounds(&spec, &s, &lib(), &options, k)
            .unwrap()
            .expect("on-chip groups exist");
        assert!(solo <= pairwise + 1e-12, "k={k}");
        // Admissibility against the exact fixed-k optimum (the
        // sweep's on-chip memories only).
        let org = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                on_chip_memories: Some(k),
                ..AllocOptions::default()
            },
        )
        .unwrap();
        let on_chip: CostBreakdown = org
            .memories
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::OnChip))
            .map(|m| m.cost)
            .sum();
        let optimum = on_chip.scalar(options.area_weight, options.power_weight);
        assert!(
            pairwise <= optimum + 1e-9,
            "k={k}: pairwise bound {pairwise} exceeds optimum {optimum}"
        );
    }
}

#[test]
fn accessed_groups_beyond_mask_limit_are_rejected_not_ub() {
    // 70 groups, only the last two accessed: their indices (68, 69)
    // cannot be bitmask positions in a u64. This must surface as a
    // clean error, not a shift overflow / aliased-mask organization.
    let mut b = AppSpecBuilder::new("t");
    for i in 0..68 {
        b.basic_group(format!("fg{i}"), 16, 8).unwrap();
    }
    let hi_a = b.basic_group("hi_a", 64, 8).unwrap();
    let hi_b = b.basic_group("hi_b", 64, 8).unwrap();
    let n = b.loop_nest("l", 100).unwrap();
    b.access(n, hi_a, AccessKind::Read).unwrap();
    b.access(n, hi_b, AccessKind::Read).unwrap();
    b.cycle_budget(10_000);
    let spec = b.build().unwrap();
    let s = scbd::distribute(&spec).unwrap();
    let err = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap_err();
    assert!(matches!(err, ExploreError::NoFeasibleAssignment { .. }));
    assert!(err.to_string().contains("mask limit"), "{err}");
}

#[test]
fn nan_weights_are_rejected_not_panicking() {
    let spec = mixed_spec(2_000_000);
    let s = scbd::distribute(&spec).unwrap();
    for (aw, pw) in [
        (f64::NAN, 1.0),
        (1.0, f64::NAN),
        (f64::INFINITY, 1.0),
        (-1.0, 1.0),
        (1.0, -0.5),
    ] {
        let err = assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                area_weight: aw,
                power_weight: pw,
                ..AllocOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ExploreError::BadCostWeights { .. }),
            "weights ({aw}, {pw})"
        );
    }
}

#[test]
fn serial_assignment_spawns_no_threads() {
    // The 1-worker path must be a genuinely straight serial path:
    // the spawn counter (thread-local, so parallel test runners do
    // not interfere) must not move.
    let spec = off_heavy_spec();
    let s = scbd::distribute(&spec).unwrap();
    let before = crate::fan::thread_spawns_on_current_thread();
    let org = assign_org(
        &spec,
        &s,
        &lib(),
        &AllocOptions {
            workers: 1,
            ..AllocOptions::default()
        },
    )
    .unwrap();
    assert!(org.on_chip_count() >= 1);
    assert_eq!(
        crate::fan::thread_spawns_on_current_thread(),
        before,
        "workers=1 assignment spawned a thread"
    );
    // Sanity check of the instrument itself: a parallel run spawns.
    // (The plateau spec guarantees a wide off-chip subtree fan; the
    // off-heavy spec above collapses to a single subtree now that
    // the bound prunes the off-chip tree.)
    let spec = plateau_off_chip_spec(10);
    let s = scbd::distribute(&spec).unwrap();
    let before = crate::fan::thread_spawns_on_current_thread();
    assign_org(
        &spec,
        &s,
        &lib(),
        &AllocOptions {
            workers: 4,
            ..AllocOptions::default()
        },
    )
    .unwrap();
    assert!(crate::fan::thread_spawns_on_current_thread() > before);
}

/// `count` mutually-compatible off-chip groups (light, non-overlapping
/// reads): the workload class the retired exhaustive enumeration
/// rejected beyond 12 groups.
fn many_off_chip_spec(count: usize) -> AppSpec {
    let mut b = AppSpecBuilder::new("t");
    let groups: Vec<_> = (0..count)
        .map(|i| {
            b.basic_group_placed(format!("f{i}"), 2048, 8, Placement::OffChip)
                .unwrap()
        })
        .collect();
    let n = b.loop_nest("l", 10).unwrap();
    for &g in &groups {
        b.access(n, g, AccessKind::Read).unwrap();
    }
    b.cycle_budget(100_000);
    b.build().unwrap()
}

#[test]
fn thirteen_off_chip_groups_no_longer_rejected() {
    // The exact instance the retired exhaustive enumeration refused
    // with `TooManyOffChipGroups` (13 > the old 12-group cap): the
    // branch-and-bound proves its optimum within the default budget.
    let spec = many_off_chip_spec(13);
    let s = scbd::distribute(&spec).unwrap();
    let (org, stats) = assign_with_stats(&spec, &s, &lib(), &AllocOptions::default()).unwrap();
    assert!(org.off_chip_count() >= 1);
    assert_eq!(
        org.memories.iter().map(|m| m.groups.len()).sum::<usize>(),
        13
    );
    assert_eq!(stats.off_chip_exhaustive_partitions, bell_number(13));
    assert!(
        stats.off_chip_bb_nodes < bell_number(13),
        "no pruning: {stats:?}"
    );
}

/// ≥14 off-chip frame stores whose reads all overlap pairwise twice
/// (every group is read twice in parallel): singletons need two
/// ports, any co-assignment needs four — so the only feasible
/// partition keeps every frame in its own dual-bank memory.
fn fourteen_conflicting_frames_spec() -> AppSpec {
    let mut b = AppSpecBuilder::new("t");
    let groups: Vec<_> = (0..14)
        .map(|i| {
            b.basic_group_placed(format!("frame{i}"), 1 << 18, 8, Placement::OffChip)
                .unwrap()
        })
        .collect();
    let sink = b.basic_group("sink", 64, 8).unwrap();
    let n = b.loop_nest("l", 1_000).unwrap();
    let w = b.access(n, sink, AccessKind::Write).unwrap();
    for &g in &groups {
        // Two independent reads per frame, both feeding the write:
        // under a tight budget they must overlap each other.
        let r0 = b.access(n, g, AccessKind::Read).unwrap();
        let r1 = b.access(n, g, AccessKind::Read).unwrap();
        b.depend(n, r0, w).unwrap();
        b.depend(n, r1, w).unwrap();
    }
    // Exactly the read->write critical path (4 + 1 cycles per
    // iteration): every read occupies cycles 0-3, so each frame's
    // two reads overlap themselves and every other frame's.
    b.cycle_budget(5_000).real_time_seconds(0.01);
    b.build().unwrap()
}

#[test]
fn fourteen_off_chip_groups_reach_a_proven_optimum() {
    // The lifted-limit acceptance scenario: 14 off-chip groups
    // (Bell(14) ≈ 1.9 x 10^8 — hopeless for the retired exhaustive
    // scan even without the cap) allocate to a proven optimum, with
    // identical results for every worker count.
    let spec = fourteen_conflicting_frames_spec();
    let s = scbd::distribute(&spec).unwrap();
    let run = |workers: usize| {
        assign_with_stats(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers,
                ..AllocOptions::default()
            },
        )
        .expect("proven optimum, not exhaustion")
    };
    let (serial, stats) = run(1);
    assert_eq!(serial.off_chip_count(), 14, "conflicts force singletons");
    for m in serial
        .memories
        .iter()
        .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
    {
        assert_eq!(m.groups.len(), 1);
        assert_eq!(m.ports, 2, "parallel self-reads need the dual bank");
    }
    assert!(
        stats.off_chip_bb_nodes < bell_number(14),
        "search must prune, not enumerate: {stats:?}"
    );
    for workers in [2usize, 8] {
        let (parallel, _) = run(workers);
        assert_eq!(serial, parallel, "workers={workers}");
    }
}

/// Worst-case plateau: `count` off-chip groups of exactly one
/// 4M-device each, so *every* partition prices identically (k merged
/// groups need k devices of the same part either way) and the bound
/// cannot cut the Bell-number tree down. The groups are bitwise
/// symmetric (same size, width, traffic, no conflicts), which makes
/// this the symmetric-group dominance rule's home turf: with it the
/// surviving tree collapses to the 2^(count-1) nondecreasing-choice
/// prefixes.
fn plateau_off_chip_spec(count: usize) -> AppSpec {
    let mut b = AppSpecBuilder::new("t");
    let groups: Vec<_> = (0..count)
        .map(|i| {
            b.basic_group_placed(format!("f{i}"), 4 << 20, 8, Placement::OffChip)
                .unwrap()
        })
        .collect();
    let n = b.loop_nest("l", 10).unwrap();
    for &g in &groups {
        b.access(n, g, AccessKind::Read).unwrap();
    }
    b.cycle_budget(100_000);
    b.build().unwrap()
}

#[test]
fn off_chip_exhaustion_is_a_deterministic_signal() {
    // A tie-heavy plateau with a starved node budget: the search
    // cannot prove an optimum and must say so — with the same error
    // for every worker count, never a silently unproven
    // organization. (16 groups: even the dominance-collapsed tree
    // has ~2^15 surviving prefixes, far beyond a 3-node budget.)
    let spec = plateau_off_chip_spec(16);
    let s = scbd::distribute(&spec).unwrap();
    let run = |workers: usize| {
        assign_org(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                node_limit: 3,
                workers,
                ..AllocOptions::default()
            },
        )
    };
    let serial = run(1);
    assert!(
        matches!(
            serial,
            Err(ExploreError::TooManyOffChipGroups {
                count: 16,
                node_limit: 3
            })
        ),
        "{serial:?}"
    );
    for workers in [2usize, 8] {
        assert_eq!(
            run(workers).unwrap_err(),
            serial.as_ref().unwrap_err().clone(),
            "workers={workers}"
        );
    }
}

#[test]
fn dominance_preserves_the_exhaustive_optimum_on_a_plateau() {
    // The dominance rule prunes only symmetric *duplicates*: on a
    // plateau of 8 bitwise-identical groups the search must still
    // return the exhaustive scan's canonical-first optimum — same
    // blocks, same order, same bits — while actually cutting nodes.
    let spec = plateau_off_chip_spec(8);
    let s = scbd::distribute(&spec).unwrap();
    let (reference, ref_partitions) = off_chip_exhaustive_reference(&spec, &s, &lib()).unwrap();
    for workers in [1usize, 2, 8] {
        let (org, stats) = assign_with_stats(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        let off: Vec<&MemoryInstance> = org
            .memories
            .iter()
            .filter(|m| matches!(m.kind, MemoryKind::OffChip(_)))
            .collect();
        assert_eq!(off.len(), reference.len(), "workers={workers}");
        for (got, want) in off.iter().zip(&reference) {
            assert_eq!(*got, want, "workers={workers}");
        }
        assert!(
            stats.off_chip_dominance_cuts > 0,
            "workers={workers}: symmetric plateau produced no cuts: {stats:?}"
        );
        assert!(
            stats.bound_incremental_updates > 0,
            "workers={workers}: {stats:?}"
        );
        assert!(
            stats.off_chip_partitions < ref_partitions,
            "workers={workers}: dominance left the full Bell tree: {stats:?}"
        );
    }
}

#[test]
fn dominance_collapses_the_sixteen_group_tie_plateau() {
    // The ROADMAP acceptance fixture: 16 mutually compatible
    // symmetric groups. Without dominance every one of the ~10^10
    // partitions prices identically, so the bound prunes nothing and
    // any practical budget exhausts. With the rule (the default) the
    // surviving tree is 2^16 - 1 nodes and the *default* budget
    // proves the optimum, identically for every worker count.
    let spec = plateau_off_chip_spec(16);
    let s = scbd::distribute(&spec).unwrap();
    let run = |workers: usize| {
        assign_with_stats(
            &spec,
            &s,
            &lib(),
            &AllocOptions {
                workers,
                ..AllocOptions::default()
            },
        )
        .expect("dominance must collapse the plateau within the default budget")
    };
    let (serial, stats) = run(1);
    assert_eq!(
        serial
            .memories
            .iter()
            .map(|m| m.groups.len())
            .sum::<usize>(),
        16
    );
    assert!(stats.off_chip_dominance_cuts > 0, "{stats:?}");
    assert!(
        stats.off_chip_bb_nodes < 200_000,
        "collapsed tree should be tiny: {stats:?}"
    );
    for workers in [2usize, 8] {
        let (parallel, _) = run(workers);
        assert_eq!(serial, parallel, "workers={workers}");
    }
    // Disabling the rule restores the plateau: the same instance
    // exhausts even a budget comfortably above the dominance run's
    // entire node count.
    let err = assign_org(
        &spec,
        &s,
        &lib(),
        &AllocOptions {
            off_chip_dominance: false,
            node_limit: 200_000,
            ..AllocOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, ExploreError::TooManyOffChipGroups { count: 16, .. }),
        "{err:?}"
    );
}

#[test]
fn incremental_sums_match_fresh_folds_across_budgets_and_workers() {
    // Differential property test for the incremental bound state:
    // `debug_assert!`s inside both solvers compare the maintained
    // running committed sum (off-chip) and the maintained open-count
    // (on-chip) against a from-scratch recomputation at *every
    // visited node* — this test's job is to drive those assertions
    // across the workers x node-limit matrix, accepting either a
    // proven result or the deterministic exhaustion signal, and to
    // pin bit-identical results across worker counts at every
    // budget.
    let specs = [
        off_heavy_spec(),
        plateau_off_chip_spec(6),
        many_group_spec(),
    ];
    for (si, spec) in specs.iter().enumerate() {
        let s = scbd::distribute(spec).unwrap();
        for node_limit in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 600] {
            let run = |workers: usize| {
                assign_org(
                    spec,
                    &s,
                    &lib(),
                    &AllocOptions {
                        node_limit,
                        workers,
                        ..AllocOptions::default()
                    },
                )
            };
            let serial = run(1);
            match &serial {
                Ok(org) => assert!(org.on_chip_count() + org.off_chip_count() >= 1),
                Err(ExploreError::TooManyOffChipGroups { .. }) => {}
                Err(e) => panic!("spec {si} limit {node_limit}: unexpected error {e}"),
            }
            for workers in [2usize, 8] {
                assert_eq!(
                    serial,
                    run(workers),
                    "spec {si} limit {node_limit} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn nonpositive_real_time_window_is_rejected_before_the_search() {
    // A zero or negative real-time window would turn every power
    // floor into NaN/∞ and silently defeat bound pruning; the search
    // must reject the instance up front with a typed error.
    for time_s in [0.0f64, -1.0] {
        let mut b = AppSpecBuilder::new("t");
        let g = b
            .basic_group_placed("f", 2048, 8, Placement::OffChip)
            .unwrap();
        let n = b.loop_nest("l", 10).unwrap();
        b.access(n, g, AccessKind::Read).unwrap();
        b.cycle_budget(100_000).real_time_seconds(time_s);
        let spec = b.build().unwrap();
        let s = scbd::distribute(&spec).unwrap();
        let err = assign_org(&spec, &s, &lib(), &AllocOptions::default()).unwrap_err();
        assert_eq!(err, ExploreError::BadOffChipPricing { time_s });
        assert!(err.to_string().contains("real-time window"), "{err}");
    }
}

#[test]
fn worker_priced_masks_are_persisted_in_the_block_catalog() {
    // A parallel run prices many masks inside *worker* memo
    // clones; the off-chip `merge_memo` hook must fold those memos back
    // before `store_off_chip_blocks`, so a cold parallel run
    // persists the same full catalog as a cold serial run (and a
    // warm run re-seeds all of it). Dominance is disabled so the
    // plateau fans real pricing work into the worker subtrees.
    let spec = plateau_off_chip_spec(8);
    let s = scbd::distribute(&spec).unwrap();
    let options = |workers: usize| AllocOptions {
        workers,
        off_chip_dominance: false,
        ..AllocOptions::default()
    };
    let blocks_key = || {
        let lib = lib();
        let inst = Instance::new(&spec, &s, &lib).unwrap();
        let instance = off_chip_blocks_fingerprint(&inst);
        cache::CacheKey::off_chip_blocks(instance, &lib)
    };
    let tmp =
        std::env::temp_dir().join(format!("memx-worker-catalog-merge-{}", std::process::id()));
    let lib = lib();
    let cold_catalog = |label: &str, workers: usize| {
        let dir = tmp.join(label);
        let cache = EvalCache::open(&dir).unwrap();
        let ctx = EvalCtx {
            lib: &lib,
            cache: Some(&cache),
        };
        let (org, _) = assign_with_stats(&spec, &s, ctx, &options(workers)).unwrap();
        assert!(org.off_chip_count() >= 1);
        assert_eq!(cache.stats().blocks_misses, 1, "{label} run must be cold");
        cache
            .load_off_chip_blocks(&blocks_key())
            .expect("cold run stores the catalog")
    };
    let serial = cold_catalog("serial", 1);
    let parallel = cold_catalog("parallel", 8);
    assert!(serial.len() > 1, "plateau must price several masks");
    assert_eq!(
        serial, parallel,
        "worker-discovered masks must be merged back before the store"
    );
    // Warm re-run against the parallel store, under a different
    // (keyed) node budget so the *allocation* entry misses and the
    // solver actually runs: the catalog is served from disk and
    // nothing is re-stored.
    let cache = EvalCache::open(tmp.join("parallel")).unwrap();
    let warm = AllocOptions {
        node_limit: AllocOptions::default().node_limit + 1,
        ..options(8)
    };
    let ctx = EvalCtx {
        lib: &lib,
        cache: Some(&cache),
    };
    assign_with_stats(&spec, &s, ctx, &warm).unwrap();
    assert_eq!(cache.stats().blocks_hits, 1);
    assert_eq!(cache.stats().blocks_misses, 0);
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn custom_model_bounds_follow_the_active_library() {
    // The pairwise floor must be derived from the *active*
    // `OnChipModel`: with cheaper cells the bound has to shrink
    // (reading the default constants would over-prune and lose the
    // optimum), with dearer cells it has to grow (prune as hard as
    // the built-in model).
    use memx_memlib::{OffChipCatalog, OnChipModel};
    let spec = many_group_spec();
    let s = scbd::distribute(&spec).unwrap();
    let options = AllocOptions::default();
    let scaled_lib = |f: f64| {
        let m = OnChipModel::default_07um();
        MemLibrary::new(
            m.clone()
                .with_area_per_bit_mm2(m.area_per_bit_mm2() * f)
                .with_module_overhead_mm2(m.module_overhead_mm2() * f),
            OffChipCatalog::default_edo(),
        )
    };
    let default_lib = lib();
    for k in 1..=3u32 {
        let (_, default_bound) = root_lower_bounds(&spec, &s, &default_lib, &options, k)
            .unwrap()
            .expect("on-chip groups exist");
        let (_, cheap) = root_lower_bounds(&spec, &s, &scaled_lib(0.25), &options, k)
            .unwrap()
            .expect("on-chip groups exist");
        let (_, dear) = root_lower_bounds(&spec, &s, &scaled_lib(4.0), &options, k)
            .unwrap()
            .expect("on-chip groups exist");
        assert!(cheap < default_bound, "k={k}: {cheap} !< {default_bound}");
        assert!(dear > default_bound, "k={k}: {dear} !> {default_bound}");
    }
    // Both bounds stay admissible on the cheap library: solo and
    // pairwise searches agree on the exact optimum.
    for on_chip_memories in [None, Some(2)] {
        let cheap = scaled_lib(0.25);
        let solo = assign_org(
            &spec,
            &s,
            &cheap,
            &AllocOptions {
                on_chip_memories,
                bound: BoundKind::Solo,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        let pairwise = assign_org(
            &spec,
            &s,
            &cheap,
            &AllocOptions {
                on_chip_memories,
                bound: BoundKind::Pairwise,
                ..AllocOptions::default()
            },
        )
        .unwrap();
        assert_eq!(solo, pairwise, "k={on_chip_memories:?}");
    }
}

/// The on-chip solver with every price checked: the memoized price must
/// carry the same bits as a fresh pricing. The memo is `(bin memo,
/// [hits, misses, infeasible])`; the counters of worker clones are
/// folded back.
struct Checked<'a, 'b>(&'a onchip::OnChipSweep<'b>);

impl search::PartitionSolver for Checked<'_, '_> {
    type Memo = (onchip::BinMemo, [u64; 3]);
    type Sum = onchip::ScalarSum;
    const STOP_AT_LIMIT: bool = <onchip::OnChipSweep as search::PartitionSolver>::STOP_AT_LIMIT;

    fn price(&self, (memo, counts): &mut Self::Memo, mask: u64) -> Option<f64> {
        let hit = memo.get(mask).is_some();
        let price = self.0.price(memo, mask);
        let want = self.0.fresh_price(mask);
        assert_eq!(
            price.map(f64::to_bits),
            want.map(f64::to_bits),
            "mask {mask:#x} (hit: {hit})"
        );
        counts[usize::from(!hit)] += 1;
        counts[2] += u64::from(price.is_none());
        price
    }

    fn suffix_bound(&self, depth: usize, to_open: usize) -> f64 {
        self.0.suffix_bound(depth, to_open)
    }

    fn cut(&self, lb: f64, outer: f64, best: Option<f64>) -> bool {
        self.0.cut(lb, outer, best)
    }

    fn skip(&self, lb: f64, bound: f64) -> bool {
        self.0.skip(lb, bound)
    }

    fn merge_memo(&self, main: &mut Self::Memo, worker: Self::Memo) {
        for (m, w) in main.1.iter_mut().zip(worker.1) {
            *m += w;
        }
    }
}

#[test]
fn memoized_bin_prices_match_fresh_pricing_bit_for_bit() {
    use search::Search;
    let (mut totals, mut specs) = ([0u64; 3], 0);
    for index in 0..32 {
        let spec = memx_ir::specgen::generate(0xB1A5, index).unwrap();
        // Generated budgets can be too tight for multi-cycle accesses.
        let Ok(s) = scbd::distribute(&spec) else {
            continue;
        };
        let lib = lib();
        let inst = Instance::new(&spec, &s, &lib).unwrap();
        let n = inst.on_groups.len();
        if n == 0 {
            continue;
        }
        specs += 1;
        // One and two ports make some bins infeasible; four is the
        // default generator limit.
        for max_on_chip_ports in [1, 2, 4] {
            let options = AllocOptions {
                max_on_chip_ports,
                ..AllocOptions::default()
            };
            let sweep = onchip::OnChipSweep::build(&inst, &options);
            let checked = Checked(&sweep);
            for (node_limit, workers) in [(40u64, 1usize), (5_000, 1), (5_000, 2)] {
                let mut memo = (onchip::BinMemo::new(n), [0; 3]);
                for k in 1..=n {
                    let greedy = onchip::greedy_bins(&checked, &mut memo, n, k);
                    let outer = greedy.as_ref().map_or(f64::INFINITY, |g| g.0);
                    let search = Search {
                        solver: &checked,
                        n,
                        min_bins: k,
                        max_bins: k,
                    };
                    search.run(&mut memo, outer, greedy, node_limit, workers);
                }
                for (t, c) in totals.iter_mut().zip(memo.1) {
                    *t += c;
                }
            }
        }
    }
    let [hits, misses, infeasible] = totals;
    assert!(specs >= 16, "only {specs} specs reached the on-chip search");
    assert!(hits > misses, "hits {hits}, misses {misses}");
    assert!(infeasible > 0, "no infeasible bin was priced");
}

#[test]
fn colliding_masks_never_return_each_others_price() {
    use search::PartitionSolver;
    let spec = many_group_spec();
    let s = scbd::distribute(&spec).unwrap();
    let lib = lib();
    // Two ports leave some of the overlapping reads' bins infeasible.
    let options = AllocOptions {
        max_on_chip_ports: 2,
        ..AllocOptions::default()
    };
    let inst = Instance::new(&spec, &s, &lib).unwrap();
    let sweep = onchip::OnChipSweep::build(&inst, &options);
    // A minimum-size table over eight groups: 255 masks share 16 slots.
    let mut memo = onchip::BinMemo::new(1);
    assert_eq!(memo.slots.len(), 16);
    let masks = 1u64..1 << inst.on_groups.len();
    let fresh = |mask| sweep.fresh_price(mask);
    let collides = |a: u64, b: u64| a != b && memo.slot(a) == memo.slot(b);
    // A feasible mask with two partners in its slot: one infeasible, one
    // with a different price.
    let (feasible, infeasible) = masks
        .clone()
        .filter(|&a| fresh(a).is_some())
        .find_map(|a| {
            let b = masks
                .clone()
                .find(|&b| collides(a, b) && fresh(b).is_none())?;
            Some((a, b))
        })
        .unwrap();
    let priced = masks
        .clone()
        .find(|&m| collides(m, feasible) && fresh(m).is_some_and(|p| p != fresh(feasible).unwrap()))
        .unwrap();
    for other in [priced, infeasible] {
        for (mask, evicted) in [(feasible, other), (other, feasible), (feasible, other)] {
            let want = fresh(mask).map(f64::to_bits);
            assert_eq!(sweep.price(&mut memo, mask).map(f64::to_bits), want);
            assert_eq!(memo.get(mask).map(|p| p.map(f64::to_bits)), Some(want));
            assert_eq!(memo.get(evicted), None, "{evicted:#x} still cached");
        }
    }
}

#[test]
fn bin_memo_tables_are_sized_from_the_group_count_and_capped() {
    let slots = |groups| onchip::BinMemo::new(groups).slots.len();
    assert_eq!(slots(4), 1 << 4);
    assert_eq!(slots(8), 1 << 8);
    assert_eq!(slots(60), 1 << 12);
    assert_eq!(std::mem::size_of::<onchip::Slot>(), 16);
}

/// SplitMix64: the random masks of the differential tests below.
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The schedules the differential tests run on: the smoke best-hierarchy
/// BTPC spec at its own budget and at 70 % of it, frames read twice per
/// cycle, and the generated specs that schedule.
fn differential_instances() -> Vec<(AppSpec, ScbdResult)> {
    let btpc = scbd::reference::btpc_best_hierarchy(64);
    let budgets = [btpc.cycle_budget(), btpc.cycle_budget() / 10 * 7];
    let mut out: Vec<_> = budgets
        .into_iter()
        .filter_map(|b| Some((btpc.clone(), scbd::distribute_with_budget(&btpc, b).ok()?)))
        .collect();
    assert_eq!(out.len(), 2, "both BTPC budgets schedule");
    let frames = fourteen_conflicting_frames_spec();
    let s = scbd::distribute(&frames).unwrap();
    out.push((frames, s));
    for index in 0..24 {
        let spec = memx_ir::specgen::generate(0xB1A5, index).unwrap();
        // Generated budgets can be too tight for multi-cycle accesses.
        if let Ok(s) = scbd::distribute(&spec) {
            out.push((spec, s));
        }
    }
    out
}

/// [`PortOracle::required`] by its definition: the largest group port
/// minimum, or the most simultaneous accesses of the mask's groups in
/// one conflict slot, found entry by entry.
fn slot_scan_required(oracle: &PortOracle, mask: u64) -> u32 {
    let mut ports = search::bits(mask)
        .filter_map(|i| oracle.min_ports.get(i).copied())
        .fold(1, u32::max);
    for slot in &oracle.slots {
        let overlap: u32 = slot
            .iter()
            .filter(|&&(g, _)| g < 64 && mask & (1 << g) != 0)
            .map(|&(_, c)| c)
            .sum();
        ports = ports.max(overlap);
    }
    ports
}

#[test]
fn popcount_port_requirements_match_the_slot_scan() {
    let (lib, mut rng) = (lib(), 0x5107u64);
    let (mut multi_port, mut multi_access) = (0, false);
    for (spec, s) in differential_instances() {
        let inst = Instance::new(&spec, &s, &lib).unwrap();
        multi_access |= inst.oracle.slots.iter().flatten().any(|&(_, c)| c > 1);
        let accessed: Vec<u64> = inst
            .on_groups
            .iter()
            .chain(&inst.off_groups)
            .map(|g| 1u64 << g.index())
            .collect();
        for _ in 0..2_000 {
            let pick = split_mix(&mut rng);
            let mask: u64 = accessed
                .iter()
                .enumerate()
                .filter(|&(i, _)| pick >> (i % 64) & 1 != 0)
                .map(|(_, &bit)| bit)
                .sum();
            for mask in [mask, split_mix(&mut rng)] {
                let want = slot_scan_required(&inst.oracle, mask);
                assert_eq!(inst.oracle.required(mask), want, "mask {mask:#x}");
                multi_port += u32::from(want > 1);
            }
        }
    }
    assert!(multi_port > 0, "no mask needed more than one port");
    assert!(multi_access, "no slot holds a group twice");
}

/// The on-chip bin price by its definition: `spec.group(g)` lookups
/// and the per-entry slot scan.
fn looked_up_price(
    inst: &Instance<'_>,
    options: &AllocOptions,
    order: &[BasicGroupId],
    mask: u64,
) -> Option<f64> {
    let members = search::bits(mask).map(|i| order[i]);
    let global = members.clone().map(|g| 1u64 << g.index()).sum();
    let ports = slot_scan_required(&inst.oracle, global);
    if ports > options.max_on_chip_ports {
        return None;
    }
    let words: u64 = members.clone().map(|g| inst.spec.group(g).words()).sum();
    let width = members
        .clone()
        .map(|g| inst.spec.group(g).bitwidth())
        .max()?;
    let module = memx_memlib::OnChipSpec::new(words, width, ports);
    let area = inst.lib.on_chip().area_mm2(&module);
    let energy = inst.lib.on_chip().energy_pj(&module);
    let accesses: f64 = members.map(|g| inst.traffic[g.index()].total()).sum();
    let mw = energy * accesses / inst.time_s / 1e9;
    Some(CostBreakdown::new(area, mw, 0.0).scalar(options.area_weight, options.power_weight))
}

#[test]
fn item_table_prices_match_group_lookups_bit_for_bit() {
    let (lib, mut rng) = (lib(), 0x9121u64);
    let mut infeasible = 0;
    for (spec, s) in differential_instances() {
        let inst = Instance::new(&spec, &s, &lib).unwrap();
        let n = inst.on_groups.len();
        if n == 0 {
            continue;
        }
        for max_on_chip_ports in [1, 2, 4] {
            let options = AllocOptions {
                max_on_chip_ports,
                ..AllocOptions::default()
            };
            let sweep = onchip::OnChipSweep::build(&inst, &options);
            let all = (1u64 << n) - 1;
            for _ in 0..1_000 {
                let mask = split_mix(&mut rng) & all;
                if mask == 0 {
                    continue;
                }
                let want = looked_up_price(&inst, &options, &sweep.order, mask);
                let got = sweep.fresh_price(mask);
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{mask:#x}");
                infeasible += u32::from(want.is_none());
            }
        }
    }
    assert!(infeasible > 0, "no infeasible bin was priced");
}

/// The materializing prefix expansion: every child a clone of its
/// parent's sum with one more [`search::RunningSum::set`], kept unless
/// pruned. Checks [`search::RunningSum::peek_total`] against each
/// materialized child on the way.
fn materialized_prefixes<S: search::PartitionSolver>(
    search: &search::Search<'_, S>,
    memo: &mut S::Memo,
    outer: f64,
) -> Vec<(Vec<u8>, S::Sum)> {
    use search::RunningSum;
    let mut level = vec![(Vec::new(), S::Sum::default())];
    let mut depth = 0;
    while level.len() < crate::fan::TARGET_SUBTREES && depth < search.n {
        let mut next = Vec::new();
        for (choices, sum) in &level {
            let (bit, open) = (1u64 << depth, sum.bins().len());
            let prev = choices.last().map_or(0, |&c| usize::from(c));
            let joins = (search.solver.dominance_start(depth, prev)..open)
                .map(|b| (b, sum.bins()[b] | bit));
            let new = (open < search.max_bins).then_some((open, bit));
            for (b, mask) in joins.chain(new) {
                let Some(price) = search.solver.price(memo, mask) else {
                    continue;
                };
                let mut child = sum.clone();
                child.set(b, mask, price);
                assert_eq!(sum.peek_total(b, price).to_bits(), child.total().to_bits());
                let bins = child.bins().len();
                let to_open = search.max_bins.saturating_sub(bins);
                let lb = child.total() + search.solver.suffix_bound(depth + 1, to_open);
                if bins + (search.n - depth - 1) >= search.min_bins
                    && !search.solver.cut(lb, outer, None)
                {
                    let mut choices = choices.clone();
                    choices.push(u8::try_from(b).unwrap());
                    next.push((choices, child));
                }
            }
        }
        if next.is_empty() {
            return next;
        }
        (level, depth) = (next, depth + 1);
    }
    level
}

/// Expands `search` against `outer` and checks every prefix against the
/// materialized expansion: the same choice strings in the same order,
/// the root bound of the materialized sum, and replays — fresh, and by
/// one cursor walking all prefixes in order — with the same bins and
/// total bits. Returns the prefix count.
fn check_replays<S: search::PartitionSolver>(
    search: &search::Search<'_, S>,
    memo: &mut S::Memo,
    outer: f64,
) -> usize {
    use search::RunningSum;
    let want = materialized_prefixes(search, memo, outer);
    let (prefixes, _) = search.expand(memo, outer);
    assert_eq!(prefixes.len(), want.len());
    let mut walker = search::Cursor::default();
    for (j, (choices, sum)) in want.iter().enumerate() {
        assert_eq!(prefixes.choices(j), &choices[..]);
        let to_open = search.max_bins.saturating_sub(sum.bins().len());
        let lb = sum.total() + search.solver.suffix_bound(choices.len(), to_open);
        assert_eq!(prefixes.bounds[j].to_bits(), lb.to_bits(), "prefix {j}");
        let mut fresh = search::Cursor::default();
        for cursor in [&mut fresh, &mut walker] {
            search.seek(memo, cursor, choices).unwrap();
            assert_eq!(cursor.sum.bins(), sum.bins(), "prefix {j}");
            assert_eq!(cursor.sum.total().to_bits(), sum.total().to_bits());
        }
    }
    want.len()
}

#[test]
fn replayed_on_chip_prefixes_match_the_materialized_sums() {
    let lib = lib();
    let mut prefixes = 0;
    for (spec, s) in differential_instances() {
        let inst = Instance::new(&spec, &s, &lib).unwrap();
        let n = inst.on_groups.len();
        let options = AllocOptions::default();
        let sweep = onchip::OnChipSweep::build(&inst, &options);
        let mut memo = onchip::BinMemo::new(n);
        for k in 1..=n {
            let greedy = onchip::greedy_bins(&sweep, &mut memo, n, k);
            let search = search::Search {
                solver: &sweep,
                n,
                min_bins: k,
                max_bins: k,
            };
            for outer in [greedy.map_or(f64::INFINITY, |g| g.0), f64::INFINITY] {
                prefixes += check_replays(&search, &mut memo, outer);
            }
        }
    }
    assert!(prefixes > 10_000, "only {prefixes} prefixes checked");
}

#[test]
fn replayed_off_chip_prefixes_match_the_materialized_sums() {
    let lib = lib();
    let btpc = scbd::reference::btpc_best_hierarchy(64);
    let specs = [
        btpc,
        off_heavy_spec(),
        many_off_chip_spec(13),
        fourteen_conflicting_frames_spec(),
        plateau_off_chip_spec(10),
    ];
    let mut prefixes = 0;
    for spec in &specs {
        let s = scbd::distribute(spec).unwrap();
        let inst = Instance::new(spec, &s, &lib).unwrap();
        let n = inst.off_groups.len();
        for dominance in [true, false] {
            let ctx = offchip::OffChipCtx::new(&inst, dominance);
            let mut memo = offchip::BlockPrices::new();
            let greedy = ctx.greedy(&mut memo).unwrap();
            let search = search::Search {
                solver: &ctx,
                n,
                min_bins: 0,
                max_bins: n,
            };
            for outer in [greedy, f64::INFINITY] {
                prefixes += check_replays(&search, &mut memo, outer);
            }
        }
    }
    assert!(prefixes > 2_000, "only {prefixes} prefixes checked");
}
