//! Extension demo: the *automatic* memory-hierarchy decision
//! (`memx_core::reuse`) versus the paper's manual Figure-3 choice.
//!
//! The paper picks `ylocal`/`yhier` by hand from cost feedback and cites
//! the formalized data-reuse methodology as the systematic alternative;
//! this binary runs that systematic step on the merged BTPC spec and
//! compares the outcome with the manual winner.

use memx_bench::experiments;
use memx_core::explore::evaluate;
use memx_core::reuse;

fn main() {
    let ctx = experiments::context(experiments::RunKnobs::from_env());
    let (merged, pixel_store) = experiments::merged_spec(&ctx).expect("merge valid");

    println!("Data-reuse analysis of the merged BTPC spec:");
    for stats in reuse::analyze(&merged) {
        if stats.reads > 0.0 {
            println!(
                "  {:<14} reads/word {:>8.2}  max reads/iteration {:>5.2}",
                merged.group(stats.group).name(),
                stats.reads_per_word,
                stats.max_reads_per_iteration
            );
        }
    }

    println!("\nCandidates proposed for the pixel store:");
    for cand in reuse::candidates(&merged, pixel_store) {
        let desc = if cand.layers.is_empty() {
            "no hierarchy".to_owned()
        } else {
            cand.layers
                .iter()
                .map(|l| format!("{} ({} words, reuse {:.1})", l.name, l.words, l.reuse))
                .collect::<Vec<_>>()
                .join(" -> ")
        };
        println!(
            "  {desc}  (absorbs {:.1} M reads)",
            cand.reads_absorbed / 1e6
        );
    }

    let options = ctx.options();
    let baseline = evaluate(&merged, ctx.eval_ctx(), &options).expect("baseline evaluates");
    let (auto_spec, auto_report) =
        reuse::auto_hierarchy(&merged, &ctx.lib, &options).expect("auto decision runs");
    let manual_spec = experiments::best_hierarchy_spec(&ctx).expect("manual winner builds");
    let manual = evaluate(&manual_spec, ctx.eval_ctx(), &options).expect("manual evaluates");

    println!("\n{:<26} {}", "no hierarchy:", baseline.cost);
    println!("{:<26} {}", "manual (paper, ylocal):", manual.cost);
    println!("{:<26} {}", "automatic (reuse pass):", auto_report.cost);
    let added: Vec<&str> = auto_spec
        .basic_groups()
        .iter()
        .skip(merged.basic_groups().len())
        .map(|g| g.name())
        .collect();
    println!(
        "automatic layers added: {}",
        if added.is_empty() {
            "none".to_owned()
        } else {
            added.join(", ")
        }
    );
    experiments::print_cache_stat_lines(ctx.cache.as_deref());
}
