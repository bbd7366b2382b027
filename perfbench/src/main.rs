//! memx-perfbench — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-tables|smoke-sweep|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in-process through the public APIs of
//! `memx_bench::experiments`, `memx_core` and `memx_serve`, verifies every
//! output, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` makes a separate traced run and
//! reports the per-layer metrics, writing its spans to
//! `.perfbench/trace-<workload>-seed<seed>.json`. The line before it
//! records the host (`nproc`, `rustc -V`, commit) and the workload's
//! shape. See `perfbench/README.md` for the metric map.

mod offline;
mod serve;
mod stages;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use memx_serve::json::Json;

use crate::stats::Tally;
use crate::trace::Trace;

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Every untraced run reports these, in this order: (name, unit).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Every traced run reports these. A layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("profile.s", "s"),
    ("transform.s", "s"),
    ("scbd.calls", "count"),
    ("scbd.s", "s"),
    ("scbd.share", "ratio"),
    ("scbd.ms_per_call", "ms"),
    ("scbd.us_per_access", "us"),
    ("scbd.probe_s", "s"),
    ("scbd.probe_calls", "count"),
    ("alloc.calls", "count"),
    ("alloc.s", "s"),
    ("alloc.onchip_nodes", "count"),
    ("alloc.onchip_mnodes_per_s", "Mnodes/s"),
    ("alloc.sweep_skips", "count"),
    ("alloc.offchip_nodes", "count"),
    ("alloc.offchip_pruned_subtrees", "count"),
    ("alloc.dominance_cuts", "count"),
    ("engine.speedup", "ratio"),
    ("engine.first_row_s", "s"),
    ("cache.scbd_hits", "count"),
    ("cache.scbd_misses", "count"),
    ("cache.alloc_hits", "count"),
    ("cache.alloc_misses", "count"),
    ("cache.blocks_hits", "count"),
    ("cache.blocks_misses", "count"),
    ("cache.write_failures", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.load_us.scbd", "us"),
    ("cache.store_us.scbd", "us"),
    ("cache.load_us.alloc", "us"),
    ("cache.store_us.alloc", "us"),
    ("cache.dir_bytes", "bytes"),
    ("ir.parse_us", "us"),
    ("http.read_us", "us"),
    ("json.parse_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.render_us", "us"),
    ("serve.requests", "count"),
    ("serve.rows", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
    ("failed_frac", "ratio"),
];

/// The command line, checked where it enters.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: memx-perfbench --workload paper-tables|smoke-sweep|serve-mixed --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("1..=600"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("1..=600"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    workload: String,
    seed: u64,
    notes: Vec<(String, Json)>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    pub tally: Tally,
    pub samples: usize,
    pub peak_rss_mb: f64,
}

impl Outcome {
    pub fn new(args: &Args) -> Self {
        Outcome {
            workload: args.workload.clone(),
            seed: args.seed,
            notes: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            checks: Vec::new(),
            tally: Tally::default(),
            samples: 0,
            peak_rss_mb: 0.0,
        }
    }

    pub fn note(&mut self, key: &str, text: &str) {
        self.notes
            .push((key.to_string(), Json::Str(text.to_string())));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// A whole-run check (beyond the per-operation tally); any failed
    /// check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn write_trace(&mut self, tr: &Trace, root: &Path) -> Result<(), String> {
        let path = out_dir(root).join(format!("trace-{}-seed{}.json", self.workload, self.seed));
        tr.write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.note("trace_file", &path.display().to_string());
        Ok(())
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The metrics this run reports, in the declared order and units.
    fn metrics(&mut self, trace: bool) -> Result<Json, String> {
        self.e2e.insert("peak_rss_mb", self.peak_rss_mb);
        self.layers.insert("failed_frac", self.tally.failed_frac());
        let (table, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        let mut members = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match values.get(name) {
                Some(v) => *v,
                // A bypassed layer reads 0; an end-to-end metric is never
                // missing from a finished run.
                None if trace => 0.0,
                None => return Err(format!("{name} was not measured")),
            };
            members.push((
                name.to_string(),
                Json::Obj(vec![
                    // A failed operation's latency is infinite; print it
                    // as a number far past any limit.
                    ("value".into(), Json::Num(value.min(1e12))),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            ));
        }
        Ok(Json::Obj(members))
    }
}

/// Where runs leave traces and keep their temporary caches.
pub fn out_dir(root: &Path) -> PathBuf {
    root.join(".perfbench")
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-tables" => offline::run(offline::Sweep::PaperTables, args, root),
        "smoke-sweep" => offline::run(offline::Sweep::SmokeSweep, args, root),
        "serve-mixed" => serve::run(args, root),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The repository checkout this benchmark was built in.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository");
    let mut outcome = match run(&args, root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = match outcome.metrics(args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checks = outcome
        .checks
        .iter()
        .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
        .collect();
    let mut info = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("samples".to_string(), Json::Num(outcome.samples as f64)),
        (
            "host".to_string(),
            Json::Obj(vec![
                (
                    "nproc".to_string(),
                    Json::Num(memx_core::engine::auto_workers() as f64),
                ),
                (
                    "rustc".to_string(),
                    Json::Str(env!("PERFBENCH_RUSTC").into()),
                ),
                (
                    "commit".to_string(),
                    Json::Str(env!("PERFBENCH_COMMIT").into()),
                ),
            ]),
        ),
        ("checks".to_string(), Json::Obj(checks)),
    ];
    info.extend(outcome.notes.iter().cloned());
    println!(
        "{}",
        Json::Obj(vec![("perfbench".into(), Json::Obj(info))]).encode()
    );

    let correct = outcome.correct();
    let failed_checks = outcome.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(outcome.tally.attempted.max(1) as f64),
        ),
        (
            "failed".into(),
            Json::Num((outcome.tally.failed + failed_checks) as f64),
        ),
        ("metrics".into(), metrics),
    ]);
    println!("{}", result.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output verification failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a = args(&[
            "--workload",
            "smoke-sweep",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("smoke-sweep", 3, 5.0, true)
        );
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "x", "--seed", "1"]).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn failed_runs_count_checks_and_bypassed_layers_read_zero() {
        let a = args(&[
            "--workload",
            "w",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .unwrap();
        let mut o = Outcome::new(&a);
        o.tally.record(true);
        assert!(o.correct());
        o.check("golden", false);
        assert!(!o.correct());
        let metrics = o.metrics(true).unwrap();
        assert_eq!(
            metrics.get("cache.scbd_hits").and_then(|m| m.get("value")),
            Some(&Json::Num(0.0))
        );
        // An untraced run must have measured every end-to-end metric.
        assert!(o.metrics(false).is_err());
    }
}
