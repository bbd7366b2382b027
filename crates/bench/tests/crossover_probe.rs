//! The crossover probe gives the same answer for every worker count, and
//! it always stays on the calling thread.

use memx_bench::experiments::{self, RunKnobs, CYCLE_BUDGET};
use memx_core::fan::thread_spawns_on_current_thread;
use memx_ir::{AccessKind, AppSpecBuilder};
use memx_memlib::MemLibrary;

#[test]
fn extended_extras_do_not_depend_on_the_worker_count() {
    for smoke in [true, false] {
        let mut ctx = experiments::context(RunKnobs {
            smoke,
            ..RunKnobs::default()
        });
        let mut answers = Vec::new();
        for workers in [1, 2, 8] {
            ctx.workers = workers;
            let before = thread_spawns_on_current_thread();
            answers.push(experiments::extended_extras(&ctx).unwrap());
            assert_eq!(
                thread_spawns_on_current_thread(),
                before,
                "the probe spawned threads (smoke: {smoke}, workers: {workers})"
            );
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "smoke: {smoke}: {answers:?}"
        );
    }
}

#[test]
fn a_too_tight_budget_ends_the_scan() {
    // A two-access chain on one single-port group never overlaps itself,
    // so no budget forces multiport. Its critical path of 2 cycles times
    // 9.25 M iterations fits budgets down to 18.5 M cycles: the probe
    // steps 1 % of the budget at a time, and 1.6 M extra cycles is the
    // first budget that is too tight.
    let mut b = AppSpecBuilder::new("chain");
    let x = b.basic_group("x", 64, 8).unwrap();
    let n = b.loop_nest("l", 9_250_000).unwrap();
    let r = b.access(n, x, AccessKind::Read).unwrap();
    let w = b.access(n, x, AccessKind::Write).unwrap();
    b.depend(n, r, w).unwrap();
    b.cycle_budget(CYCLE_BUDGET);
    let spec = b.build().unwrap();
    let lib = MemLibrary::default_07um();
    assert_eq!(
        experiments::on_chip_crossover_extra_cached(&spec, &lib).unwrap(),
        1_400_000
    );
}
