//! End-to-end pipeline integration: codec -> profile -> spec ->
//! transforms -> schedule -> organization.

use memexplore::btpc::spec::{btpc_app_spec, measure_profile};
use memexplore::btpc::{CodecConfig, Decoder, Encoder, Image};
use memexplore::core::explore::{evaluate, EvaluateOptions};
use memexplore::core::hierarchy::{apply_hierarchy, HierarchyLayer};
use memexplore::core::structuring::merge;
use memexplore::core::{alloc, macp, scbd};
use memexplore::memlib::MemLibrary;

#[test]
fn full_pipeline_from_pixels_to_organization() {
    // 1. A real encode/decode round trip produces the profile.
    let img = Image::synthetic_natural(64, 64, 99);
    let cfg = CodecConfig::lossless();
    let registry = memexplore::profile::ProfileRegistry::new();
    let encoded = Encoder::new(cfg)
        .encode_with_registry(&img, &registry)
        .expect("encode succeeds");
    let decoded = Decoder::new(cfg).decode(&encoded).expect("decode succeeds");
    assert_eq!(decoded, img);
    let profile = registry.snapshot();

    // 2. Spec construction from the measured profile.
    let btpc = btpc_app_spec(&profile, 1024, 1024, 20_000_000).expect("spec builds");
    btpc.spec.validate().expect("spec is consistent");

    // 3. MACP is feasible (the paper: "no loop transformations are
    //    strictly required" for BTPC).
    let report = macp::analyze(&btpc.spec);
    assert!(report.is_feasible());

    // 4. Transform chain: merge + hierarchy.
    let merged = merge(&btpc.spec, btpc.pyr, btpc.ridge).expect("merge valid");
    let layered = apply_hierarchy(
        &merged.spec,
        merged.new_group,
        &[HierarchyLayer::new("ylocal", 12, 2, 2.0)],
    )
    .expect("hierarchy valid");
    layered
        .spec
        .validate()
        .expect("transformed spec consistent");

    // 5. Schedule and allocate.
    let lib = MemLibrary::default_07um();
    let schedule = scbd::distribute(&layered.spec).expect("schedule fits");
    assert!(schedule.used_cycles <= layered.spec.cycle_budget());
    let (org, _) = alloc::assign_with_stats(
        &layered.spec,
        &schedule,
        &lib,
        &alloc::AllocOptions::default(),
    )
    .expect("assignment feasible");

    // Every accessed group is assigned exactly once.
    let mut assigned: Vec<usize> = org
        .memories
        .iter()
        .flat_map(|m| m.groups.iter().map(|g| g.index()))
        .collect();
    assigned.sort_unstable();
    let before = assigned.len();
    assigned.dedup();
    assert_eq!(before, assigned.len(), "a group was assigned twice");

    // Costs are positive and consistent with the sum over memories.
    let total: memexplore::memlib::CostBreakdown = org.memories.iter().map(|m| m.cost).sum();
    assert!((total.on_chip_area_mm2 - org.cost.on_chip_area_mm2).abs() < 1e-9);
    assert!(org.cost.total_power_mw() > 0.0);
}

#[test]
fn evaluation_is_deterministic() {
    let profile = measure_profile(48, 48, 5);
    let btpc = btpc_app_spec(&profile, 1024, 1024, 20_000_000).expect("spec builds");
    let lib = MemLibrary::default_07um();
    let a = evaluate(&btpc.spec, &lib, &EvaluateOptions::default()).expect("evaluation runs");
    let b = evaluate(&btpc.spec, &lib, &EvaluateOptions::default()).expect("evaluation runs");
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.organization.memories.len(), b.organization.memories.len());
}

#[test]
fn profiles_scale_linearly_with_frame_size() {
    let small = measure_profile(32, 32, 3);
    let large = measure_profile(64, 64, 3);
    let (r32, _) = small.counts("image").expect("image tracked");
    let (r64, _) = large.counts("image").expect("image tracked");
    // Image reads are exactly one per pixel.
    assert_eq!(r32, 32.0 * 32.0);
    assert_eq!(r64, 64.0 * 64.0);
    // Pyramid traffic per pixel is stable within 15 % across sizes
    // (border effects shrink with size).
    let (p32, _) = small.counts("pyr").expect("pyr tracked");
    let (p64, _) = large.counts("pyr").expect("pyr tracked");
    let per32 = p32 / (32.0 * 32.0);
    let per64 = p64 / (64.0 * 64.0);
    assert!((per32 - per64).abs() / per64 < 0.15, "{per32} vs {per64}");
}

#[test]
fn tighter_budgets_never_cost_less() {
    let profile = measure_profile(48, 48, 5);
    let btpc = btpc_app_spec(&profile, 1024, 1024, 20_000_000).expect("spec builds");
    let merged = merge(&btpc.spec, btpc.pyr, btpc.ridge).expect("merge valid");
    let lib = MemLibrary::default_07um();
    let mut last_scalar = 0.0;
    for budget in [20_000_000u64, 17_000_000, 15_000_000] {
        let options = EvaluateOptions {
            cycle_budget: Some(budget),
            ..EvaluateOptions::default()
        };
        let report = evaluate(&merged.spec, &lib, &options).expect("evaluation runs");
        let scalar = report.cost.scalar(1.0, 1.0);
        assert!(
            scalar + 1e-6 >= last_scalar,
            "tightening the budget reduced the cost: {scalar} < {last_scalar}"
        );
        last_scalar = scalar;
    }
}
