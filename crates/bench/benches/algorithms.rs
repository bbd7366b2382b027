//! Criterion benchmarks of the core exploration algorithms: MACP
//! analysis, flow-graph balancing / budget distribution, and memory
//! allocation + signal-to-memory assignment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use memx_bench::experiments::{self, RunKnobs};
use memx_core::alloc::{assign_with_stats, AllocOptions};
use memx_core::{macp, scbd};
use memx_memlib::MemLibrary;

fn bench_macp(c: &mut Criterion) {
    let ctx = experiments::paper_context();
    c.bench_function("macp/btpc_spec", |b| {
        b.iter(|| macp::analyze(std::hint::black_box(&ctx.btpc.spec)))
    });
}

fn bench_scbd(c: &mut Criterion) {
    // The smoke profile's best-hierarchy spec has the larger body: 49
    // accesses in `refine_ctx4`, against 19 at full fidelity.
    let full = experiments::paper_context();
    let smoke = experiments::context(RunKnobs {
        smoke: true,
        ..RunKnobs::default()
    });
    let mut group = c.benchmark_group("scbd");
    for (name, ctx) in [("", &full), ("smoke/", &smoke)] {
        let spec = experiments::best_hierarchy_spec(ctx).expect("transforms valid");
        for extra_pct in [0u64, 15, 30] {
            let budget = experiments::CYCLE_BUDGET - experiments::CYCLE_BUDGET * extra_pct / 100;
            group.bench_with_input(
                BenchmarkId::new("distribute", format!("{name}extra{extra_pct}pct")),
                &budget,
                |b, &budget| {
                    b.iter(|| {
                        scbd::distribute_with_budget(std::hint::black_box(&spec), budget)
                            .expect("budget feasible")
                    })
                },
            );
        }
    }
    // The crossover probe's sweep: its 33 budgets (20 M cycles minus
    // 0 %, 1 %, ..., 32 %) through one plan, in probe order.
    let spec = experiments::best_hierarchy_spec(&smoke).expect("transforms valid");
    let step = experiments::CYCLE_BUDGET / 100;
    let budgets: Vec<u64> = (0..33)
        .map(|pct| experiments::CYCLE_BUDGET - step * pct)
        .collect();
    group.bench_function("smoke/probe", |b| {
        b.iter(|| {
            let mut plan = scbd::Plan::new(std::hint::black_box(&spec));
            for &budget in &budgets {
                std::hint::black_box(plan.distribute(budget).expect("budget feasible"));
            }
        })
    });
    group.finish();
}

fn bench_alloc(c: &mut Criterion) {
    let ctx = experiments::paper_context();
    let spec = experiments::best_hierarchy_spec(&ctx).expect("transforms valid");
    let schedule = scbd::distribute(&spec).expect("schedulable");
    let lib = MemLibrary::default_07um();
    let mut group = c.benchmark_group("alloc");
    for k in [4u32, 8, 14] {
        group.bench_with_input(BenchmarkId::new("assign", k), &k, |b, &k| {
            let options = AllocOptions {
                on_chip_memories: Some(k),
                ..AllocOptions::default()
            };
            b.iter(|| {
                assign_with_stats(std::hint::black_box(&spec), &schedule, &lib, &options)
                    .expect("assignable")
            })
        });
    }
    group.bench_function("assign/sweep", |b| {
        b.iter(|| {
            assign_with_stats(
                std::hint::black_box(&spec),
                &schedule,
                &lib,
                &AllocOptions::default(),
            )
            .expect("assignable")
        })
    });
    // The smoke winner at the Table 3 crossover budget, swept serially
    // under the smoke node budget: the search where prefix expansion
    // is about a fifth of the time.
    let smoke = experiments::context(RunKnobs {
        smoke: true,
        workers: 1,
        ..RunKnobs::default()
    });
    let spec = experiments::best_hierarchy_spec(&smoke).expect("transforms valid");
    let crossover =
        experiments::on_chip_crossover_extra_cached(&spec, &smoke.lib).expect("probe runs");
    let schedule = scbd::distribute_with_budget(&spec, experiments::CYCLE_BUDGET - crossover)
        .expect("crossover budget feasible");
    group.bench_function("smoke/sweep", |b| {
        b.iter(|| {
            assign_with_stats(
                std::hint::black_box(&spec),
                &schedule,
                &smoke.lib,
                &smoke.alloc,
            )
            .expect("assignable")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_macp, bench_scbd, bench_alloc
}
criterion_main!(benches);
