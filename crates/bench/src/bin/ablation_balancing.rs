//! Ablation study: what does flow-graph **balancing** buy over naive
//! ASAP packing? (The design choice behind §4.5's storage-cycle-budget
//! distribution.)
//!
//! Both schedulers get the same specification and budget; the resulting
//! bandwidth requirements are fed to the same allocation/assignment
//! step. ASAP packing maximizes overlap, inflating port counts and
//! forcing memory splits — or making the assignment infeasible
//! altogether.

use memx_bench::experiments;
use memx_core::alloc::assign_with_stats;
use memx_core::scbd;
use memx_core::scbd::{BodySchedule, Plan};

fn main() {
    let ctx = experiments::context(experiments::RunKnobs::from_env());
    let eval_ctx = ctx.eval_ctx();
    let spec = experiments::best_hierarchy_spec(&ctx).expect("transforms valid");
    let budget = experiments::CYCLE_BUDGET;

    println!("Ablation: flow-graph balancing vs. naive ASAP packing");
    println!("(BTPC, merged + ylocal hierarchy, {budget} cycle budget)\n");

    for (label, result) in [
        (
            // The balanced path is exactly what the cache stores; the
            // ASAP baseline is a different algorithm and stays uncached.
            "balanced (paper)",
            eval_ctx.distribute(&mut Plan::new(&spec), budget),
        ),
        ("ASAP packed", scbd::distribute_asap(&spec, budget)),
    ] {
        match result {
            Ok(schedule) => {
                let pressure: f64 = schedule.bodies.iter().map(BodySchedule::pressure).sum();
                let max_ports_any_group = spec
                    .basic_groups()
                    .iter()
                    .map(|g| schedule.required_ports(|x| x == g.id()))
                    .max()
                    .unwrap_or(0);
                print!(
                    "{label:<18} pressure {pressure:>7.1}  max self-overlap {max_ports_any_group}  "
                );
                // Both arms share the allocation cache: the assignment
                // step is identical, only its input schedule differs
                // (and so, via the instance fingerprint, its cache key).
                match assign_with_stats(&spec, &schedule, eval_ctx, &ctx.alloc) {
                    Ok((org, _)) => println!(
                        "-> {} (off-chip ports {})",
                        org.cost,
                        org.max_off_chip_ports()
                    ),
                    Err(e) => println!("-> assignment FAILS: {e}"),
                }
            }
            Err(e) => println!("{label:<18} scheduling fails: {e}"),
        }
    }
    experiments::print_cache_stat_lines(ctx.cache.as_deref());
}
