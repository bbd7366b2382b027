//! Regenerates **Figure 1**: the stepwise-refinement methodology tree.
//!
//! Walks the whole decision tree of the paper — structuring variants ×
//! hierarchy variants × cycle budgets × allocations — through the
//! physical-memory-management pipeline and prints the explored tree with
//! the accurate cost feedback at every leaf, plus the chosen path.

use memx_bench::experiments::{self, CYCLE_BUDGET};
use memx_core::explore::{evaluate, EvaluateOptions};
use memx_core::hierarchy::apply_hierarchy;
use memx_core::structuring::{compact, merge};

fn main() {
    let ctx = experiments::context(experiments::RunKnobs::from_env());
    println!("Figure 1: stepwise refinement methodology (explored tree)");
    println!(
        "Pruned System Specification: {} basic groups, {} loop nests",
        ctx.btpc.spec.basic_groups().len(),
        ctx.btpc.spec.loop_nests().len()
    );

    // Level 1: basic group structuring.
    let structurings = vec![
        ("BG Struct: none", ctx.btpc.spec.clone(), ctx.btpc.pyr),
        (
            "BG Struct: ridge compacted",
            compact(&ctx.btpc.spec, ctx.btpc.ridge, 3)
                .expect("compaction is valid")
                .spec,
            ctx.btpc.pyr,
        ),
        {
            let merged =
                merge(&ctx.btpc.spec, ctx.btpc.pyr, ctx.btpc.ridge).expect("merge is valid");
            ("BG Struct: ridge+pyr merged", merged.spec, merged.new_group)
        },
    ];

    let (ylocal, yhier_serving, _) = experiments::figure3_layers();
    let mut evaluated = 0usize;
    let mut best: Option<(String, f64)> = None;
    for (slabel, sspec, pixel_store) in &structurings {
        println!("|- {slabel}");
        // Level 2: memory hierarchy (only explored fully on the merged
        // branch, as in the paper; the others evaluate flat).
        let hierarchies: Vec<(String, memx_ir::AppSpec)> = if slabel.contains("merged") {
            vec![
                ("Mem.Hier: none".to_owned(), sspec.clone()),
                (
                    "Mem.Hier: yhier".to_owned(),
                    apply_hierarchy(sspec, *pixel_store, std::slice::from_ref(&yhier_serving))
                        .expect("layer is valid")
                        .spec,
                ),
                (
                    "Mem.Hier: ylocal".to_owned(),
                    apply_hierarchy(sspec, *pixel_store, std::slice::from_ref(&ylocal))
                        .expect("layer is valid")
                        .spec,
                ),
            ]
        } else {
            vec![("Mem.Hier: none".to_owned(), sspec.clone())]
        };
        for (hlabel, hspec) in &hierarchies {
            println!("|  |- {hlabel}");
            // Level 3: cycle budget distribution alternatives.
            for (blabel, extra) in [("full budget", 0u64), ("tightened 15.7%", 3_133_568)] {
                // Level 4: memory organization (allocation sweep).
                let options = EvaluateOptions {
                    cycle_budget: Some(CYCLE_BUDGET - extra),
                    alloc: ctx.alloc.clone(),
                };
                match evaluate(hspec, ctx.eval_ctx(), &options) {
                    Ok(report) => {
                        evaluated += 1;
                        let scalar = report.cost.scalar(1.0, 1.0);
                        println!(
                            "|  |  |- Cycle Distr: {blabel:<16} -> Mem.Org: {} on-chip mems, {}",
                            report.organization.on_chip_count(),
                            report.cost
                        );
                        let label = format!("{slabel} / {hlabel} / {blabel}");
                        if best.as_ref().map(|(_, s)| scalar < *s).unwrap_or(true) {
                            best = Some((label, scalar));
                        }
                    }
                    Err(e) => println!("|  |  |- Cycle Distr: {blabel:<16} -> infeasible: {e}"),
                }
            }
        }
    }
    println!("\nEvaluated {evaluated} full memory organizations.");
    if let Some((label, scalar)) = best {
        println!("Chosen path (min area+power scalar {scalar:.1}): {label}");
    }
    experiments::print_cache_stat_lines(ctx.cache.as_deref());
}
