//! The offline workloads: exploration batches through the public entry
//! points of `memx_bench::experiments`, back to back on one caller.
//!
//! - `paper-tables`: full-fidelity BTPC; a batch is Table 1, Table 2,
//!   the extended Table-3 budgets (crossover probe included) with
//!   Table 3, and Table 4 at the paper's allocations.
//! - `smoke-sweep`: the smoke profile (64×64 frame, reduced node limit);
//!   a batch is the extended budgets with Table 3.
//!
//! Every batch is rendered in the golden snapshot's format and must
//! equal a serial (`workers = 1`) reference batch byte for byte;
//! `paper-tables` must also reproduce `tests/golden/paper_tables.txt`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use memx_bench::experiments::{
    self, AllocationRow, BudgetRow, PaperContext, RunKnobs, CYCLE_BUDGET, FRAME, PROFILE_FRAME,
    SEED, SMOKE_PROFILE_FRAME,
};
use memx_btpc::spec::{btpc_app_spec, measure_profile};
use memx_core::alloc::{AllocOptions, BoundKind, MemoryKind};
use memx_core::engine::{auto_workers, DesignPoint};
use memx_core::explore::{CostReport, EvaluateOptions, Exploration};
use memx_core::hierarchy::{apply_hierarchy, HierarchyLayer};
use memx_core::structuring::{compact, merge};
use memx_core::ExploreError;
use memx_ir::{AppSpec, Placement};

use crate::stages::{self, evaluate_staged};
use crate::stats::{self, Tally};
use crate::trace::Trace;
use crate::{Args, Outcome, SETUP_REPS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    PaperTables,
    SmokeSweep,
}

impl Sweep {
    fn smoke(self) -> bool {
        self == Sweep::SmokeSweep
    }

    fn paper(self) -> bool {
        self == Sweep::PaperTables
    }

    /// The workload's knobs, spelled out so no `MEMX_*` variable in the
    /// caller's shell can change them: uncached, default bound and
    /// dominance, the smoke node limit only in smoke mode.
    fn context(self, workers: usize) -> PaperContext {
        experiments::context(RunKnobs {
            smoke: self.smoke(),
            workers,
            node_limit: None,
            cache: None,
            dominance: true,
            bound: BoundKind::Pairwise,
        })
    }
}

/// One batch's results, as the experiment entry points return them.
struct Tables<'c> {
    paper: bool,
    t1: Option<Exploration<'c>>,
    t2: Option<Exploration<'c>>,
    t3: Vec<BudgetRow>,
    t4: Vec<AllocationRow>,
}

/// One exploration batch through the public experiment entry points.
/// A traced batch gets one span per entry point and a `first_row` event
/// when Table 3 streams its first row.
fn batch<'c>(
    ctx: &'c PaperContext,
    sweep: Sweep,
    tr: &mut Trace,
) -> Result<Tables<'c>, ExploreError> {
    let (t1, t2) = if sweep.paper() {
        (
            Some(tr.span("engine.table1", |_| experiments::table1(ctx))?),
            Some(tr.span("engine.table2", |_| experiments::table2(ctx))?),
        )
    } else {
        (None, None)
    };
    let extras = tr.span("engine.extras", |_| experiments::extended_extras(ctx))?;
    let mut t3 = Vec::new();
    tr.span("engine.table3", |tr| {
        experiments::table3_stream(ctx, &extras, |row| {
            if t3.is_empty() {
                tr.event("first_row");
            }
            t3.push(row);
        })
    })?;
    let t4 = if sweep.paper() {
        tr.span("engine.table4", |_| {
            experiments::table4(ctx, &experiments::paper_allocations())
        })?
    } else {
        Vec::new()
    };
    Ok(Tables {
        paper: sweep.paper(),
        t1,
        t2,
        t3,
        t4,
    })
}

/// The specs behind the rows, rebuilt exactly as the experiment entry
/// points build them, so group names resolve against the right variant.
struct RowSpecs {
    t1: Vec<AppSpec>,
    t2: Vec<AppSpec>,
    winner: AppSpec,
}

fn row_specs(ctx: &PaperContext) -> Result<RowSpecs, ExploreError> {
    let b = &ctx.btpc;
    let compacted = compact(&b.spec, b.ridge, 3)?.spec;
    let (merged, store) = experiments::merged_spec(ctx)?;
    let (ylocal, yhier_serving, yhier_feeding) = experiments::figure3_layers();
    let hier = |layers: &[HierarchyLayer]| apply_hierarchy(&merged, store, layers).map(|h| h.spec);
    let t2 = vec![
        merged.clone(),
        hier(std::slice::from_ref(&yhier_serving))?,
        hier(std::slice::from_ref(&ylocal))?,
        hier(&[ylocal, yhier_feeding])?,
    ];
    Ok(RowSpecs {
        t1: vec![b.spec.clone(), compacted, merged],
        t2,
        winner: experiments::best_hierarchy_spec(ctx)?,
    })
}

/// One report in the golden snapshot's format: the cost line, then one
/// line per memory with the sorted names of the groups it holds.
fn render_report(out: &mut String, spec: &AppSpec, head: &str, report: &CostReport) {
    let c = &report.cost;
    let _ = writeln!(
        out,
        "  {head}: area={:.4}mm2 on_power={:.4}mW off_power={:.4}mW",
        c.on_chip_area_mm2, c.on_chip_power_mw, c.off_chip_power_mw
    );
    for mem in &report.organization.memories {
        let kind = match mem.kind {
            MemoryKind::OnChip => "on",
            MemoryKind::OffChip(_) => "off",
        };
        let mut names: Vec<&str> = mem.groups.iter().map(|&g| spec.group(g).name()).collect();
        names.sort_unstable();
        let _ = writeln!(
            out,
            "    {kind}-chip {}x{}b/{}p: {}",
            mem.words,
            mem.width,
            mem.ports,
            names.join(", ")
        );
    }
}

/// Renders a batch. `paper_only` keeps exactly the rows the golden
/// snapshot pins: Table 3 at the paper's four budgets only.
fn render(specs: &RowSpecs, tables: &Tables, paper_only: bool) -> String {
    let mut out = String::new();
    let explorations = [
        ("Table 1: basic group structuring", &tables.t1, &specs.t1),
        ("Table 2: memory hierarchy", &tables.t2, &specs.t2),
    ];
    for (title, exploration, row_specs) in explorations {
        if let Some(exploration) = exploration {
            let _ = writeln!(out, "{title}");
            for (report, spec) in exploration.reports().iter().zip(row_specs) {
                render_report(&mut out, spec, &report.label, report);
            }
        }
    }
    let paper_extras = experiments::paper_extras();
    out.push_str("Table 3: storage cycle budget\n");
    for row in &tables.t3 {
        if paper_only && !paper_extras.contains(&row.extra_cycles) {
            continue;
        }
        let head = format!(
            "extra={} ({:.2}%)",
            row.extra_cycles,
            row.extra_fraction * 100.0
        );
        render_report(&mut out, &specs.winner, &head, &row.report);
    }
    if tables.paper {
        out.push_str("Table 4: on-chip memory allocation\n");
        for row in &tables.t4 {
            let head = format!("k={}", row.memories);
            render_report(&mut out, &specs.winner, &head, &row.report);
        }
    }
    out
}

/// The crossover scan of `experiments::on_chip_crossover_extra_cached`
/// (uncached), one traced `distribute_with_budget` call per budget, so
/// the probe's SCBD calls are timed one by one. The staged batch that
/// uses it must render identically to the reference batch, which checks
/// that this copy of the scan still finds the library's crossover.
fn crossover_probe(tr: &mut Trace, spec: &AppSpec) -> u64 {
    let step = CYCLE_BUDGET / 100;
    let mut last_free = 0;
    for extra in (0..CYCLE_BUDGET * 2 / 5).step_by(step as usize) {
        let Ok(result) = stages::distribute(tr, spec, CYCLE_BUDGET - extra) else {
            break;
        };
        let forced_multiport = spec.basic_groups().iter().any(|g| {
            g.placement() != Placement::OffChip
                && result.required_ports(|x| x == g.id()) > g.min_ports()
        });
        if forced_multiport {
            return extra;
        }
        last_free = extra;
    }
    last_free
}

/// `experiments::extended_extras` around an already-probed crossover.
fn extras_around(crossover: u64) -> Vec<u64> {
    let mut extras = experiments::paper_extras();
    for delta in [-2i64, 0, 2, 4, 6, 8, 10] {
        let extra = crossover as i64 + delta * (CYCLE_BUDGET / 100) as i64;
        if extra > 0 && (extra as u64) < CYCLE_BUDGET {
            extras.push(extra as u64);
        }
    }
    extras.sort_unstable();
    extras.dedup();
    extras
}

/// The batch again, on a serial context, with every stage a separate
/// traced call: transforms, the crossover probe, SCBD, allocation.
fn staged_batch<'c>(
    ctx: &'c PaperContext,
    sweep: Sweep,
    tr: &mut Trace,
) -> Result<Tables<'c>, ExploreError> {
    let lib = &ctx.lib;
    let b = &ctx.btpc;
    let options = ctx.options();
    let explore = |tr: &mut Trace, points: &[DesignPoint]| {
        let mut exploration = Exploration::new(lib);
        for report in evaluate_staged(tr, lib, points) {
            exploration.push(report?);
        }
        Ok::<_, ExploreError>(exploration)
    };
    let (ylocal, yhier_serving, yhier_feeding) = experiments::figure3_layers();
    let merged = |tr: &mut Trace| tr.span("transform", |_| merge(&b.spec, b.pyr, b.ridge));
    let winner = |tr: &mut Trace| -> Result<AppSpec, ExploreError> {
        let m = merged(tr)?;
        let layers = std::slice::from_ref(&ylocal);
        Ok(tr
            .span("transform", |_| {
                apply_hierarchy(&m.spec, m.new_group, layers)
            })?
            .spec)
    };

    let (mut t1, mut t2) = (None, None);
    if sweep.paper() {
        let compacted = tr.span("transform", |_| compact(&b.spec, b.ridge, 3))?;
        let m = merged(tr)?;
        t1 = Some(explore(
            tr,
            &[
                DesignPoint::new("No structuring", &b.spec, options.clone()),
                DesignPoint::new("ridge compacted", &compacted.spec, options.clone()),
                DesignPoint::new("ridge and pyr merged", &m.spec, options.clone()),
            ],
        )?);
        let m = merged(tr)?;
        let hier = |tr: &mut Trace, layers: &[HierarchyLayer]| {
            tr.span("transform", |_| {
                apply_hierarchy(&m.spec, m.new_group, layers)
            })
        };
        let l1 = hier(tr, std::slice::from_ref(&yhier_serving))?;
        let l0 = hier(tr, std::slice::from_ref(&ylocal))?;
        let both = hier(tr, &[ylocal.clone(), yhier_feeding.clone()])?;
        t2 = Some(explore(
            tr,
            &[
                DesignPoint::new("No hierarchy", &m.spec, options.clone()),
                DesignPoint::new("Only layer 1 (yhier)", &l1.spec, options.clone()),
                DesignPoint::new("Only layer 0 (ylocal)", &l0.spec, options.clone()),
                DesignPoint::new("2 layers (both)", &both.spec, options.clone()),
            ],
        )?);
    }

    let probed = winner(tr)?;
    let crossover = tr.span("scbd.probe", |tr| crossover_probe(tr, &probed));
    let extras = extras_around(crossover);
    let spec = winner(tr)?;
    let points: Vec<DesignPoint> = extras
        .iter()
        .map(|&extra| {
            DesignPoint::new(
                format!("{extra} extra cycles"),
                &spec,
                EvaluateOptions {
                    cycle_budget: Some(CYCLE_BUDGET - extra),
                    alloc: ctx.alloc.clone(),
                },
            )
        })
        .collect();
    let mut t3 = Vec::new();
    for (i, result) in evaluate_staged(tr, lib, &points).into_iter().enumerate() {
        match result {
            Ok(report) => t3.push(BudgetRow {
                extra_cycles: extras[i],
                extra_fraction: extras[i] as f64 / CYCLE_BUDGET as f64,
                report,
            }),
            // Table 3 stops at the first budget without a schedule.
            Err(ExploreError::BudgetTooTight { .. }) => break,
            Err(e) => return Err(e),
        }
    }

    let mut t4 = Vec::new();
    if sweep.paper() {
        let spec = winner(tr)?;
        let counts = experiments::paper_allocations();
        let points: Vec<DesignPoint> = counts
            .iter()
            .map(|&k| {
                DesignPoint::new(
                    format!("{k} on-chip memories"),
                    &spec,
                    EvaluateOptions {
                        cycle_budget: Some(CYCLE_BUDGET - 3_133_568),
                        alloc: AllocOptions {
                            on_chip_memories: Some(k),
                            ..ctx.alloc.clone()
                        },
                    },
                )
            })
            .collect();
        for (k, result) in counts.iter().zip(evaluate_staged(tr, lib, &points)) {
            t4.push(AllocationRow {
                memories: *k,
                report: result?,
            });
        }
    }
    Ok(Tables {
        paper: sweep.paper(),
        t1,
        t2,
        t3,
        t4,
    })
}

/// Times `SETUP_REPS` context builds (profile + spec) and keeps the last.
fn timed_setup(sweep: Sweep, workers: usize) -> (Vec<f64>, PaperContext) {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut ctx = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = sweep.context(workers);
        samples.push(t.elapsed().as_secs_f64());
        ctx = Some(built);
    }
    (samples, ctx.expect("SETUP_REPS >= 1"))
}

/// Profile and spec construction as two traced calls.
fn traced_setup(sweep: Sweep, tr: &mut Trace) -> Result<(), String> {
    let frame = if sweep.smoke() {
        SMOKE_PROFILE_FRAME
    } else {
        PROFILE_FRAME
    };
    let profile = tr.span("profile", |_| measure_profile(frame, frame, SEED));
    tr.span("spec", |_| {
        btpc_app_spec(&profile, FRAME, FRAME, CYCLE_BUDGET)
    })
    .map(|_| ())
    .map_err(|e| format!("spec construction failed: {e}"))
}

/// Runs batches until `seconds` have passed; returns each batch's wall
/// time and rendering (an error text for a failed batch).
fn timed_batches(
    ctx: &PaperContext,
    specs: &RowSpecs,
    sweep: Sweep,
    seconds: f64,
    tr: &mut Trace,
) -> (Vec<f64>, Vec<Result<String, String>>, f64) {
    let mut times = Vec::new();
    let mut renders = Vec::new();
    let start = Instant::now();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let tables = tr.span("batch", |tr| batch(ctx, sweep, tr));
        times.push(t.elapsed().as_secs_f64());
        renders.push(
            tables
                .map(|t| render(specs, &t, false))
                .map_err(|e| e.to_string()),
        );
    }
    (times, renders, start.elapsed().as_secs_f64())
}

pub fn run(sweep: Sweep, args: &Args, root: &std::path::Path) -> Result<Outcome, String> {
    let nproc = auto_workers();
    let err = |e: ExploreError| e.to_string();
    let mut outcome = Outcome::new(args);
    outcome.note("loop", "closed, 1 caller, one batch after another");
    outcome.note(
        "workers",
        &format!("engine and allocation: {nproc} (nproc)"),
    );

    let mut tr = Trace::new(args.trace);
    let (setup, ctx) = if args.trace {
        traced_setup(sweep, &mut tr)?;
        (Vec::new(), sweep.context(nproc))
    } else {
        timed_setup(sweep, nproc)
    };
    let specs = row_specs(&ctx).map_err(err)?;
    // Warm-up: first-touch allocations and page faults stay untimed.
    batch(&ctx, sweep, &mut Trace::new(false)).map_err(err)?;

    let (mut times, renders, wall) = if args.trace {
        // Untraced then traced halves; their medians give the overhead.
        let half = args.seconds / 2.0;
        let (untraced, mut renders, _) =
            timed_batches(&ctx, &specs, sweep, half, &mut Trace::new(false));
        let (traced, traced_renders, _) = timed_batches(&ctx, &specs, sweep, half, &mut tr);
        renders.extend(traced_renders);
        let overhead = stats::median(&traced) / stats::median(&untraced) - 1.0;
        outcome.layer("trace.overhead_pct", overhead * 100.0);
        outcome.layer(
            "engine.first_row_s",
            stats::median(&tr.event_offsets("first_row")),
        );
        (untraced, renders, 0.0)
    } else {
        timed_batches(&ctx, &specs, sweep, args.seconds, &mut Trace::new(false))
    };
    outcome.peak_rss_mb = crate::peak_rss_mb();

    // Serial reference batch: what every timed batch must equal.
    let serial_ctx = sweep.context(1);
    let t = Instant::now();
    let reference = batch(&serial_ctx, sweep, &mut Trace::new(false)).map_err(err)?;
    let serial_s = t.elapsed().as_secs_f64();
    let reference_text = render(&specs, &reference, false);
    // `renders` starts with the batches `times` holds (in a traced run,
    // the untraced half); a wrong batch misses every latency limit.
    let mut tally = Tally::default();
    for (i, r) in renders.iter().enumerate() {
        if !tally.record(r.as_deref() == Ok(reference_text.as_str())) && i < times.len() {
            times[i] = f64::INFINITY;
        }
    }
    if sweep.paper() {
        let golden_path = root.join("tests").join("golden").join("paper_tables.txt");
        let golden = std::fs::read_to_string(&golden_path)
            .map_err(|e| format!("cannot read {}: {e}", golden_path.display()))?;
        let ok = render(&specs, &reference, true) == golden;
        outcome.check("paper points equal tests/golden/paper_tables.txt", ok);
    }

    if args.trace {
        outcome.layer("engine.speedup", serial_s / stats::median(&times));
        let t = Instant::now();
        let staged = tr.span("batch.staged", |tr| staged_batch(&serial_ctx, sweep, tr));
        let staged_s = t.elapsed().as_secs_f64();
        let staged_ok = staged.is_ok_and(|t| render(&specs, &t, false) == reference_text);
        outcome.check("staged batch renders like the reference", staged_ok);
        let mut layers = BTreeMap::new();
        stages::stage_metrics(&tr, staged_s, &mut layers);
        for (name, value) in layers {
            outcome.layer(name, value);
        }
        outcome.write_trace(&tr, root)?;
    } else {
        let batch_s = stats::median(&times);
        outcome.e2e("setup_s", stats::median(&setup));
        outcome.e2e("batch_s", batch_s);
        outcome.e2e("latency_p50_ms", batch_s * 1e3);
        outcome.e2e("latency_p99_ms", stats::quantile(&times, 0.99) * 1e3);
        outcome.e2e("throughput_rps", times.len() as f64 / wall);
    }
    outcome.samples = times.len();
    outcome.tally = tally;
    Ok(outcome)
}
