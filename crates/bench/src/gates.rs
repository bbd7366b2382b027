//! The end-to-end gates behind the `memx-gates` binary.
//!
//! One uncached serial reference pass of [`BINARIES`] (smoke mode,
//! pairwise bound) anchors every check after it, each of which compares
//! stdout bytes against a reference:
//!
//! - **smoke**: every binary exits 0 and prints something;
//! - **determinism**: workers {1, 2, 8} × bound {pairwise, solo}, each
//!   cell against the serial run of its own bound (with an exhausted
//!   smoke node budget the two admissible bounds may keep different
//!   incumbents), then the same six cells against one shared cache
//!   store, cold for the first cell and warm after;
//! - **cache**: a pass on the caller's store (possibly carried over from
//!   an older build, so a stale entry shows up as a diff), a warm pass
//!   that must hit both the `scbd` and `alloc` kinds, and miss neither,
//!   for every [`SCHEDULING`] binary, then every entry corrupted
//!   (truncation and garbage alternating): stdout must not change, and a
//!   last run must hit again without a miss because the entries were
//!   repaired;
//! - **shards**: two concurrent processes split the suite by binary
//!   index over one fresh store, cold then warm; every binary must run
//!   in exactly one shard and match the reference, so the merged stdout
//!   equals the reference, and each warm shard must hit the alloc cache;
//! - **serve**: a `memx-serve` daemon on an ephemeral port driven by
//!   `serve_client`: cold and warm rows equal the offline rows, the warm
//!   trailers report hits, and `/v1/stats` counts both requests.
//!
//! Every child runs with the workspace root as its working directory
//! and every [`KNOB_VARS`] entry its cell does not set removed, so the
//! caller's shell cannot change a cell. Failures are collected, each
//! naming the binary and the cell.

use std::fmt::Display;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::thread;

use crate::experiments::{parse_cache_stat_line, KNOB_VARS};

/// The paper-reproduction binaries, in suite order. The daemon is not
/// one of them: it never exits on its own, so the serve gate drives it.
pub const BINARIES: [&str; 12] = [
    "table1_structuring",
    "table2_hierarchy",
    "table3_cycle_budget",
    "table4_allocation",
    "fig1_methodology",
    "fig2_structuring_semantics",
    "fig3_hierarchy_chain",
    "codec_rd_sweep",
    "auto_hierarchy",
    "ablation_balancing",
    "plateau_dominance",
    "memx-corpus",
];

/// The binaries that schedule and allocate, so a warm cache must serve
/// them. The others never schedule; they are held to byte identity only.
pub const SCHEDULING: [&str; 8] = [
    "table1_structuring",
    "table2_hierarchy",
    "table3_cycle_budget",
    "table4_allocation",
    "fig1_methodology",
    "auto_hierarchy",
    "ablation_balancing",
    "memx-corpus",
];

/// The binary whose run after the corrupted pass proves the repair.
const REPAIR_PROBE: &str = "table4_allocation";
/// The cache's entry-kind directories.
const CACHE_KINDS: [&str; 3] = ["scbd", "alloc", "offblocks"];
const SERVE: &str = "memx-serve";
const CLIENT: &str = "serve_client";

/// The knobs of one cell: `MEMX_WORKERS`, `MEMX_BOUND` and
/// `MEMX_CACHE_DIR`, each removed when `None`. `MEMX_SMOKE` is always on
/// and every other knob is removed.
type Cell<'a> = (Option<&'a str>, Option<&'a str>, Option<&'a Path>);
const NO_KNOBS: Cell<'static> = (None, None, None);

/// Each run by binary index: its output, or why it failed.
type Runs = Vec<(usize, Result<Output, String>)>;
/// The runs that exited 0, by binary index.
type Passed = Vec<(usize, Output)>;

/// The gate runner: where the binaries are, where they run, and the
/// failures seen so far.
#[derive(Debug)]
pub struct Gates {
    bin_dir: PathBuf,
    root: PathBuf,
    work: PathBuf,
    failures: Vec<String>,
}

impl Gates {
    /// A runner for the binaries in `bin_dir`, run from `root`, with
    /// its scratch stores under `work`.
    pub fn new(bin_dir: PathBuf, root: PathBuf, work: PathBuf) -> Self {
        Gates {
            bin_dir,
            root,
            work,
            failures: Vec::new(),
        }
    }

    /// Every failure so far, each naming its binary and cell.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Runs every gate; `store` is the cache the cache gate uses (a
    /// throwaway one when `None`). Returns whether all of them held.
    pub fn run_all(&mut self, store: Option<&Path>) -> bool {
        let _ = fs::remove_dir_all(&self.work);
        let store = match store {
            Some(dir) => std::path::absolute(dir).unwrap_or_else(|_| dir.to_path_buf()),
            None => self.fresh_dir("cache-store"),
        };
        if let Some(reference) = self.reference("pairwise") {
            println!("gates: reference: {} binaries exit 0", BINARIES.len());
            self.phase("determinism", |g| g.determinism(&reference));
            self.phase("cache", |g| g.cache_roundtrip(&reference, &store));
            let plan = shard_plan(BINARIES.len(), 2);
            self.phase("shards", |g| g.shards(&reference, &plan));
            self.phase("serve", Gates::serve);
        }
        let _ = fs::remove_dir_all(&self.work);
        println!("gates: {} failure(s)", self.failures.len());
        self.failures.is_empty()
    }

    fn phase(&mut self, name: &str, check: impl FnOnce(&mut Self)) {
        let before = self.failures.len();
        check(self);
        match self.failures.len() - before {
            0 => println!("gates: {name}: ok"),
            n => println!("gates: {name}: {n} failure(s)"),
        }
    }

    fn fail(&mut self, subject: &str, cell: &str, what: impl Display) {
        let msg = format!("FAIL {subject} [{cell}]: {what}");
        eprintln!("{msg}");
        self.failures.push(msg);
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::create_dir_all(&dir);
        dir
    }

    fn command(&self, bin: &str, (workers, bound, store): Cell, args: &[&str]) -> Command {
        let mut cmd = Command::new(self.bin_dir.join(bin));
        cmd.args(args).current_dir(&self.root);
        for var in KNOB_VARS {
            cmd.env_remove(var);
        }
        cmd.env("MEMX_SMOKE", "1");
        if let Some(workers) = workers {
            cmd.env("MEMX_WORKERS", workers);
        }
        if let Some(bound) = bound {
            cmd.env("MEMX_BOUND", bound);
        }
        if let Some(store) = store {
            cmd.env("MEMX_CACHE_DIR", store);
        }
        cmd
    }

    /// Runs `bin` to completion; unless it exits 0, the error names its
    /// status and last stderr line.
    fn run(&self, bin: &str, cell: Cell, args: &[&str], stdin: Stdio) -> Result<Output, String> {
        let mut cmd = self.command(bin, cell, args);
        let out = cmd
            .stdin(stdin)
            .output()
            .map_err(|e| format!("cannot start: {e}"))?;
        if out.status.success() {
            return Ok(out);
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        let last = stderr.lines().last().unwrap_or_default();
        Err(format!("{}: {last}", out.status))
    }

    fn run_each(&self, bins: &[usize], cell: Cell) -> Runs {
        let run = |i: usize| self.run(BINARIES[i], cell, &[], Stdio::null());
        bins.iter().map(|&i| (i, run(i))).collect()
    }

    /// Records each failed run and each stdout that differs from its
    /// `reference`; returns the runs that exited 0.
    fn check(&mut self, label: &str, runs: Runs, reference: Option<&[Vec<u8>]>) -> Passed {
        let mut passed = Vec::new();
        for (i, run) in runs {
            match run {
                Err(e) => self.fail(BINARIES[i], label, e),
                Ok(out) => {
                    if let Some(expected) = reference.map(|r| &r[i]) {
                        if *expected != out.stdout {
                            self.fail(BINARIES[i], label, first_difference(expected, &out.stdout));
                        }
                    }
                    passed.push((i, out));
                }
            }
        }
        passed
    }

    fn pass(&mut self, label: &str, cell: Cell, reference: Option<&[Vec<u8>]>) -> Passed {
        let all: Vec<usize> = (0..BINARIES.len()).collect();
        let runs = self.run_each(&all, cell);
        self.check(label, runs, reference)
    }

    /// The serial uncached stdout of every binary under `bound`, or
    /// `None` when a binary fails or prints nothing.
    fn reference(&mut self, bound: &str) -> Option<Vec<Vec<u8>>> {
        let label = format!("workers=1 bound={bound}");
        let before = self.failures.len();
        let passed = self.pass(&label, (Some("1"), Some(bound), None), None);
        for (i, out) in &passed {
            if out.stdout.is_empty() {
                self.fail(BINARIES[*i], &label, "printed nothing");
            }
        }
        let reference = passed.into_iter().map(|(_, out)| out.stdout).collect();
        (self.failures.len() == before).then_some(reference)
    }

    fn determinism(&mut self, pairwise: &[Vec<u8>]) {
        let solo = self.reference("solo");
        let store = self.fresh_dir("matrix-store");
        for cached in [false, true] {
            // Uncached, the workers=1 cells are the references themselves.
            let (tag, workers) = if cached {
                (" cached", &["1", "2", "8"][..])
            } else {
                ("", &["2", "8"][..])
            };
            for (bound, serial) in [("pairwise", Some(pairwise)), ("solo", solo.as_deref())] {
                let Some(serial) = serial else { continue };
                for &w in workers {
                    let cell = (Some(w), Some(bound), cached.then_some(store.as_path()));
                    self.pass(
                        &format!("workers={w} bound={bound}{tag}"),
                        cell,
                        Some(serial),
                    );
                }
            }
        }
    }

    fn cache_roundtrip(&mut self, reference: &[Vec<u8>], store: &Path) {
        let cell = (None, None, Some(store));
        self.pass("cache carried", cell, Some(reference));
        for (i, out) in self.pass("cache warm", cell, Some(reference)) {
            if SCHEDULING.contains(&BINARIES[i]) {
                self.require_hits(BINARIES[i], "cache warm", &out);
            }
        }
        let mut entries = Vec::new();
        for kind in CACHE_KINDS {
            let mut found: Vec<PathBuf> = fs::read_dir(store.join(kind))
                .into_iter()
                .flatten()
                .flatten()
                .map(|entry| entry.path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "bin"))
                .collect();
            if found.is_empty() {
                self.fail(&format!("{kind}/"), "cache warm", "no entries were written");
            }
            found.sort();
            entries.append(&mut found);
        }
        // Every other entry is truncated to 10 bytes, the rest overwritten.
        for (i, entry) in entries.iter().enumerate() {
            let corrupted = match fs::read(entry) {
                Ok(bytes) if i % 2 == 0 => fs::write(entry, &bytes[..bytes.len().min(10)]),
                Ok(_) => fs::write(entry, "not a cache entry"),
                Err(e) => Err(e),
            };
            if let Err(e) = corrupted {
                self.fail(&entry.display().to_string(), "cache corrupt", e);
            }
        }
        println!("gates: corrupted all {} cache entries", entries.len());
        self.pass("cache corrupted", cell, Some(reference));
        match self.run(REPAIR_PROBE, cell, &[], Stdio::null()) {
            Ok(out) => self.require_hits(REPAIR_PROBE, "cache repaired", &out),
            Err(e) => self.fail(REPAIR_PROBE, "cache repaired", e),
        }
    }

    /// Fails `bin` unless each of its `scbd` and `alloc` cache lines
    /// reports hits and no misses: a warm store must serve everything.
    fn require_hits(&mut self, bin: &str, label: &str, out: &Output) {
        for kind in ["scbd", "alloc"] {
            match cache_counts(out, kind) {
                (0, _) => self.fail(bin, label, format!("no {kind} cache hits")),
                (_, 0) => {}
                (_, misses) => self.fail(bin, label, format!("{misses} {kind} cache misses")),
            }
        }
    }

    /// Runs `plan` (binary indices per shard) concurrently on one fresh
    /// store, cold then warm.
    fn shards(&mut self, reference: &[Vec<u8>], plan: &[Vec<usize>]) {
        let store = self.fresh_dir("shard-store");
        let cell = (None, None, Some(store.as_path()));
        for pass in ["cold", "warm"] {
            let this = &*self;
            let shards: Vec<Runs> = thread::scope(|scope| {
                let handles: Vec<_> = plan
                    .iter()
                    .map(|bins| scope.spawn(move || this.run_each(bins, cell)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_default())
                    .collect()
            });
            let mut ran = [0; BINARIES.len()];
            for (shard, runs) in shards.into_iter().enumerate() {
                runs.iter().for_each(|(i, _)| ran[*i] += 1);
                let passed = self.check(&format!("shard {shard} {pass}"), runs, Some(reference));
                let alloc_hits: u64 = passed
                    .iter()
                    .map(|(_, out)| cache_counts(out, "alloc").0)
                    .sum();
                if pass == "warm" && alloc_hits == 0 {
                    self.fail(&format!("shard {shard}"), pass, "no alloc cache hits");
                }
            }
            let label = format!("shards {pass}");
            for (bin, n) in BINARIES.iter().zip(ran) {
                match n {
                    1 => {}
                    0 => self.fail(bin, &label, "missing from the merged output"),
                    n => self.fail(bin, &label, format!("ran in {n} shards")),
                }
            }
        }
    }

    fn serve(&mut self) {
        if let Err(e) = self.drive_daemon() {
            self.fail(SERVE, "daemon", e);
        }
    }

    fn drive_daemon(&self) -> Result<(), String> {
        let dir = self.fresh_dir("serve");
        let mut cmd = self.command(SERVE, NO_KNOBS, &["--addr", "127.0.0.1:0", "--cache-dir"]);
        let child = cmd.arg(dir.join("store")).stdout(Stdio::piped()).spawn();
        let mut daemon = Daemon(child.map_err(|e| format!("cannot start: {e}"))?);
        let mut line = String::new();
        if let Some(stdout) = daemon.0.stdout.take() {
            // Blocks until the daemon is listening, or has exited.
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| e.to_string())?;
        }
        let addr = line
            .trim_end()
            .strip_prefix("memx-serve listening on ")
            .ok_or_else(|| format!("no address reported (got {line:?})"))?;
        let client = |args: &[&str], stdin: Stdio| {
            self.run(CLIENT, NO_KNOBS, args, stdin)
                .map_err(|e| format!("{CLIENT} {}: {e}", args[0]))
        };
        let request = dir.join("request.json");
        fs::write(&request, client(&["demo"], Stdio::null())?.stdout).map_err(|e| e.to_string())?;
        let input = || {
            fs::File::open(&request)
                .map(Stdio::from)
                .map_err(|e| e.to_string())
        };
        let offline = client(&["offline"], input()?)?.stdout;
        for pass in ["cold", "warm"] {
            let served = client(&["evaluate", addr], input()?)?;
            if served.stdout != offline {
                let diff = first_difference(&offline, &served.stdout);
                return Err(format!("{pass} rows against offline: {diff}"));
            }
            // Trailers read `x-memx-cache-<kind>: <hits> hits / <misses> misses`.
            let trailers = String::from_utf8_lossy(&served.stderr);
            let hits: u64 = trailers
                .lines()
                .filter_map(|l| l.strip_prefix("x-memx-cache-")?.split_once(": "))
                .filter_map(|(_, value)| value.split(' ').next()?.parse::<u64>().ok())
                .sum();
            if pass == "warm" && hits == 0 {
                return Err(format!("no cache hits in the warm trailers: {trailers:?}"));
            }
        }
        let stats = client(&["stats", addr], Stdio::null())?.stdout;
        let stats = String::from_utf8_lossy(&stats);
        if !stats.contains("\"requests\":2") {
            return Err(format!("/v1/stats did not count 2 requests: {stats:?}"));
        }
        Ok(())
    }
}

/// The hits and misses on `out`'s `[<kind> cache: ...]` stderr line
/// (both 0 without one).
fn cache_counts(out: &Output, kind: &str) -> (u64, u64) {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter_map(parse_cache_stat_line)
        .find(|(k, _, _)| *k == kind)
        .map_or((0, 0), |(_, hits, misses)| (hits, misses))
}

/// Binary indices `0..binaries` split round-robin over `shards`.
fn shard_plan(binaries: usize, shards: usize) -> Vec<Vec<usize>> {
    (0..shards)
        .map(|s| (s..binaries).step_by(shards).collect())
        .collect()
}

/// The first line where two outputs differ, for a failure message.
fn first_difference(expected: &[u8], got: &[u8]) -> String {
    let (expected, got) = (
        String::from_utf8_lossy(expected),
        String::from_utf8_lossy(got),
    );
    let (e, g): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), got.lines().collect());
    let at = (0..e.len().max(g.len()))
        .find(|&i| e.get(i) != g.get(i))
        .unwrap_or(e.len());
    let show = |lines: &[&str]| {
        lines
            .get(at)
            .map_or("<end of output>".into(), |l| format!("{l:?}"))
    };
    format!(
        "stdout differs at line {}: expected {}, got {}",
        at + 1,
        show(&e),
        show(&g)
    )
}

/// The daemon child, killed on every exit path.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::fs::PermissionsExt;
    use std::sync::OnceLock;

    /// A stand-in for every reproduction binary: prints a table, keeps
    /// one entry per cache kind, and prints the per-kind cache lines.
    /// The `faults` file next to it names the binaries that misbehave.
    const FAKE: &str = r#"#!/bin/sh
name=${0##*/}
DRIFT= NO_HIT= NO_REPAIR= MISS=
. "${0%/*}/faults"
echo "table of $name"
if [ "$name" = "$DRIFT" ] && [ "$MEMX_WORKERS" = 8 ]; then echo drift; fi
for pair in scbd:scbd alloc:alloc block:offblocks; do
    hits=0 misses=0
    if [ -n "$MEMX_CACHE_DIR" ]; then
        entry=$MEMX_CACHE_DIR/${pair#*:}/$name.bin
        mkdir -p "${entry%/*}"
        if [ "$name" != "$NO_HIT" ] && [ "$(cat "$entry" 2>/dev/null)" = "valid entry of $name" ]; then
            hits=1
            if [ "$name" = "$MISS" ]; then misses=1; fi
        else
            misses=1
            if [ "$name" != "$NO_REPAIR" ] || [ ! -e "$entry" ]; then
                echo "valid entry of $name" > "$entry"
            fi
        fi
    fi
    echo "[${pair%%:*} cache: $hits hits / $misses misses]" >&2
done
"#;

    /// The fake script, written once per test process (renamed into
    /// place, so a concurrent test process keeps running the copy it
    /// started). Each test links its binaries to it: a link never opens
    /// an executable for writing, so another test's spawn cannot leave
    /// it busy.
    fn fake_script() -> &'static Path {
        static SCRIPT: OnceLock<PathBuf> = OnceLock::new();
        SCRIPT.get_or_init(|| {
            let tmp = std::env::temp_dir();
            let staged = tmp.join(format!("memx-gates-fake-{}.tmp", std::process::id()));
            fs::write(&staged, FAKE).unwrap();
            fs::set_permissions(&staged, fs::Permissions::from_mode(0o755)).unwrap();
            let path = tmp.join("memx-gates-fake.sh");
            fs::rename(staged, &path).unwrap();
            path
        })
    }

    /// A runner over fake [`BINARIES`] with `faults`, and its reference.
    fn fakes(test: &str, faults: &str) -> (Gates, Vec<Vec<u8>>, PathBuf) {
        let dir = std::env::temp_dir().join(format!("memx-gates-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("faults"), faults).unwrap();
        for bin in BINARIES {
            std::os::unix::fs::symlink(fake_script(), dir.join(bin)).unwrap();
        }
        let mut gates = Gates::new(dir.clone(), dir.clone(), dir.join("work"));
        let reference = gates.reference("pairwise").expect("fakes exit 0");
        (gates, reference, dir)
    }

    fn assert_only_failures(gates: &Gates, expected: &[&str]) {
        assert_eq!(
            gates.failures().len(),
            expected.len(),
            "{:#?}",
            gates.failures()
        );
        for (got, want) in gates.failures().iter().zip(expected) {
            assert!(
                got.starts_with(want),
                "{got:?} does not start with {want:?}"
            );
        }
    }

    #[test]
    fn healthy_fakes_pass_every_gate() {
        let (mut gates, reference, dir) = fakes("healthy", "");
        gates.determinism(&reference);
        gates.cache_roundtrip(&reference, &dir.join("store"));
        gates.shards(&reference, &shard_plan(BINARIES.len(), 2));
        assert_only_failures(&gates, &[]);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn worker_dependent_stdout_names_binary_and_cells() {
        let (mut gates, reference, dir) = fakes("drift", "DRIFT=fig2_structuring_semantics");
        gates.determinism(&reference);
        assert_only_failures(
            &gates,
            &[
                "FAIL fig2_structuring_semantics [workers=8 bound=pairwise]: stdout differs at line 2",
                "FAIL fig2_structuring_semantics [workers=8 bound=solo]",
                "FAIL fig2_structuring_semantics [workers=8 bound=pairwise cached]",
                "FAIL fig2_structuring_semantics [workers=8 bound=solo cached]",
            ],
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn warm_pass_without_hits_names_binary() {
        let (mut gates, reference, dir) = fakes("nohit", "NO_HIT=table3_cycle_budget");
        gates.cache_roundtrip(&reference, &dir.join("store"));
        assert_only_failures(
            &gates,
            &[
                "FAIL table3_cycle_budget [cache warm]: no scbd cache hits",
                "FAIL table3_cycle_budget [cache warm]: no alloc cache hits",
            ],
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn warm_pass_with_a_miss_names_binary() {
        let (mut gates, reference, dir) = fakes("miss", "MISS=memx-corpus");
        gates.cache_roundtrip(&reference, &dir.join("store"));
        assert_only_failures(
            &gates,
            &[
                "FAIL memx-corpus [cache warm]: 1 scbd cache misses",
                "FAIL memx-corpus [cache warm]: 1 alloc cache misses",
            ],
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unrepaired_corruption_names_the_probe() {
        let (mut gates, reference, dir) = fakes("norepair", "NO_REPAIR=table4_allocation");
        gates.cache_roundtrip(&reference, &dir.join("store"));
        assert_only_failures(
            &gates,
            &[
                "FAIL table4_allocation [cache repaired]: no scbd cache hits",
                "FAIL table4_allocation [cache repaired]: no alloc cache hits",
            ],
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn shard_that_drops_a_binary_is_named() {
        let (mut gates, reference, dir) = fakes("dropshard", "");
        let mut plan = shard_plan(BINARIES.len(), 2);
        assert_eq!(plan, [vec![0, 2, 4, 6, 8, 10], vec![1, 3, 5, 7, 9, 11]]);
        plan[1].retain(|&i| i != 5);
        gates.shards(&reference, &plan);
        assert_only_failures(
            &gates,
            &[
                "FAIL fig2_structuring_semantics [shards cold]: missing from the merged output",
                "FAIL fig2_structuring_semantics [shards warm]: missing from the merged output",
            ],
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn first_difference_points_at_the_line() {
        assert_eq!(
            first_difference(b"a\nb\n", b"a\nc\n"),
            "stdout differs at line 2: expected \"b\", got \"c\""
        );
        assert_eq!(
            first_difference(b"a\n", b"a\nextra\n"),
            "stdout differs at line 2: expected <end of output>, got \"extra\""
        );
    }
}
