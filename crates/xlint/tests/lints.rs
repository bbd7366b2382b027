//! memx-lint self-tests: each lint catches its seeded fixture
//! violation, justified suppressions pass, and the real workspace is
//! clean under the shipped policy.

use std::path::Path;

use xlint::{collect_workspace_files, lint_file, lint_files, Config, Lint};

const PANIC_FIXTURE: &str = include_str!("fixtures/panic_paths.rs");
const ATOMICS_FIXTURE: &str = include_str!("fixtures/atomics.rs");
const UNORDERED_FIXTURE: &str = include_str!("fixtures/unordered_iter.rs");
const AMBIENT_FIXTURE: &str = include_str!("fixtures/ambient_state.rs");
const SUPPRESSED_FIXTURE: &str = include_str!("fixtures/suppressed_ok.rs");
const ERR_IMPL_FIXTURE: &str = include_str!("fixtures/err_impl.rs");
const DEPRECATED_FIXTURE: &str = include_str!("fixtures/deprecated.rs");

fn names(report: &xlint::FileReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.lint).collect()
}

#[test]
fn panic_paths_fixture_is_caught_outside_tests_only() {
    let cfg = Config::workspace();
    let report = lint_file("crates/core/src/fake.rs", PANIC_FIXTURE, &cfg);
    let panics = names(&report)
        .iter()
        .filter(|n| **n == Lint::NoPanicPaths.name())
        .count();
    // unwrap + expect + panic! + unreachable! in `broken`, nothing from
    // `fine` (unwrap_or*) and nothing from the test module.
    assert_eq!(panics, 4, "findings: {:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.line < 20));
}

#[test]
fn panic_paths_scope_is_solver_crates_only() {
    let cfg = Config::workspace();
    let report = lint_file("crates/bench/src/fake.rs", PANIC_FIXTURE, &cfg);
    assert!(
        !names(&report).contains(&Lint::NoPanicPaths.name()),
        "bench crate is outside the panic policy: {:?}",
        report.findings
    );
}

#[test]
fn atomics_fixture_is_caught_outside_the_allowlist() {
    let cfg = Config::workspace();
    let report = lint_file("crates/core/src/engine.rs", ATOMICS_FIXTURE, &cfg);
    let atomics = names(&report)
        .iter()
        .filter(|n| **n == Lint::AtomicsConfined.name())
        .count();
    // AtomicU64 (use + field) and Ordering::Relaxed; cmp::Ordering in
    // the return type must not be flagged.
    assert_eq!(atomics, 3, "findings: {:?}", report.findings);

    let harness = lint_file("crates/core/src/fan.rs", ATOMICS_FIXTURE, &cfg);
    assert!(
        !names(&harness).contains(&Lint::AtomicsConfined.name()),
        "fan harness is allowlisted: {:?}",
        harness.findings
    );
}

#[test]
fn unordered_iter_fixture_is_caught_and_strings_are_not() {
    let cfg = Config::workspace();
    let report = lint_file("crates/bench/src/bin/fake.rs", UNORDERED_FIXTURE, &cfg);
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == Lint::NoUnorderedIter.name())
        .collect();
    // use-line (both tokens) + one per declaration line (a lint fires
    // once per token per line); the "HashMap iteration" string mention
    // is not a finding (its line holds only the blanked literal).
    assert_eq!(hits.len(), 4, "findings: {:?}", report.findings);
    assert!(hits.iter().all(|f| f.line <= 9));
}

#[test]
fn unordered_iter_carve_out_is_per_file_not_per_crate() {
    let cfg = Config::workspace();
    // The serve crate's response-map module is scope-carved: header
    // lookups never iterate the map, so `HashMap` is legal there.
    let carved = lint_file("crates/serve/src/http.rs", UNORDERED_FIXTURE, &cfg);
    assert!(
        !names(&carved).contains(&Lint::NoUnorderedIter.name()),
        "http.rs is carved out: {:?}",
        carved.findings
    );
    // The carve-out is the file, not the crate: the same source in any
    // sibling serve module still gets flagged.
    let sibling = lint_file("crates/serve/src/server.rs", UNORDERED_FIXTURE, &cfg);
    assert!(
        names(&sibling).contains(&Lint::NoUnorderedIter.name()),
        "server.rs stays in scope: {:?}",
        sibling.findings
    );
}

#[test]
fn ambient_state_fixture_is_caught_outside_bench_modules() {
    let cfg = Config::workspace();
    let report = lint_file("crates/core/src/fake.rs", AMBIENT_FIXTURE, &cfg);
    let ambient = names(&report)
        .iter()
        .filter(|n| **n == Lint::NoAmbientState.name())
        .count();
    // SystemTime (use line, return type, ::now call) + Instant::now +
    // env::var; env::args stays legal.
    assert_eq!(ambient, 5, "findings: {:?}", report.findings);

    let bench = lint_file("crates/bench/src/experiments.rs", AMBIENT_FIXTURE, &cfg);
    assert!(
        !names(&bench).contains(&Lint::NoAmbientState.name()),
        "experiments module is allowlisted: {:?}",
        bench.findings
    );
}

#[test]
fn err_impl_fixture_flags_only_the_uncovered_public_type() {
    let cfg = Config::workspace();
    let report = lint_file("crates/core/src/fake.rs", ERR_IMPL_FIXTURE, &cfg);
    let hits: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == Lint::ErrImplError.name())
        .collect();
    // NakedError alone: CoveredError and QualifiedError carry impls,
    // PrivateError / ScopedError are not plain `pub`, ErrorReport does
    // not end in `Error`, WaivedError is suppressed, and the
    // `From<NakedError>` impl must not count as coverage.
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert!(hits[0].message.contains("NakedError"), "{}", hits[0]);
    assert!(
        report
            .suppressed
            .iter()
            .any(|f| f.lint == Lint::ErrImplError.name() && f.message.contains("WaivedError")),
        "suppressed: {:?}",
        report.suppressed
    );
}

#[test]
fn err_impl_accepts_an_unqualified_error_impl() {
    let src = "\
use std::error::Error;\n\
pub enum LocalError { Case }\n\
impl std::fmt::Display for LocalError {\n\
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { f.write_str(\"x\") }\n\
}\n\
impl std::fmt::Debug for LocalError {\n\
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { f.write_str(\"x\") }\n\
}\n\
impl Error for LocalError {}\n";
    let report = lint_file("crates/core/src/fake.rs", src, &Config::workspace());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn deprecated_fixture_flags_each_attribute_form_in_every_crate() {
    let cfg = Config::workspace();
    for path in ["crates/core/src/fake.rs", "crates/bench/src/bin/fake.rs"] {
        let report = lint_file(path, DEPRECATED_FIXTURE, &cfg);
        let lines: Vec<usize> = report
            .findings
            .iter()
            .filter(|f| f.lint == Lint::NoDeprecated.name())
            .map(|f| f.line)
            .collect();
        // The bare, `note = ..`, `= ".."` and spaced forms; not the
        // `allow(deprecated)`, the comment, the string, the
        // `deprecated_since` attribute or the test module.
        assert_eq!(lines, [4, 7, 10, 13], "{path}: {:?}", report.findings);
    }
}

#[test]
fn deprecated_honours_a_justified_allow() {
    let src = "\
// memx-lint: allow(no-deprecated) — kept one release for an out-of-tree caller.\n\
#[deprecated(note = \"use `g`\")]\n\
pub fn f() {}\n";
    let report = lint_file("crates/core/src/fake.rs", src, &Config::workspace());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, Lint::NoDeprecated.name());
}

#[test]
fn justified_suppressions_pass_and_are_counted() {
    let cfg = Config::workspace();
    let report = lint_file("crates/core/src/fake.rs", SUPPRESSED_FIXTURE, &cfg);
    assert!(
        report.findings.is_empty(),
        "suppressed fixture must lint clean: {:?}",
        report.findings
    );
    assert_eq!(report.suppressed.len(), 2);
}

#[test]
fn allow_without_reason_is_itself_a_finding() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n\
               // memx-lint: allow(no-panic-paths)\n\
               v.first().unwrap() + 1\n\
               }\n";
    let cfg = Config::workspace();
    let report = lint_file("crates/core/src/fake.rs", src, &cfg);
    let lints = names(&report);
    assert!(
        lints.contains(&"malformed-directive"),
        "{:?}",
        report.findings
    );
    // The reason-less allow does not suppress: the unwrap still fires.
    assert!(lints.contains(&Lint::NoPanicPaths.name()));
}

#[test]
fn allow_of_unknown_lint_is_a_finding() {
    let src = "// memx-lint: allow(no-such-lint) — because\npub fn f() {}\n";
    let report = lint_file("crates/core/src/fake.rs", src, &Config::workspace());
    assert_eq!(names(&report), vec!["malformed-directive"]);
}

#[test]
fn comments_strings_and_cfg_test_items_are_invisible() {
    let src = "\
// HashMap in a comment is fine\n\
/* and Instant::now() in a block comment */\n\
pub fn f<'a>(x: &'a str) -> String {\n\
    let s = \"HashMap says panic!(now)\";\n\
    let r = r#\"SystemTime in a raw \"string\" too\"#;\n\
    let c = 'x';\n\
    format!(\"{s}{r}{c}{x}\")\n\
}\n\
#[cfg(test)]\n\
use std::collections::HashMap;\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::time::Instant;\n\
    #[test]\n\
    fn t() {\n\
        let _ = Instant::now();\n\
        let _: HashMap<u32, u32> = HashMap::new();\n\
    }\n\
}\n";
    let report = lint_file("crates/core/src/fake.rs", src, &Config::workspace());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn a_file_marked_cfg_test_is_invisible() {
    let body = "\
use std::collections::HashMap;\n\
pub fn f(v: &[u32]) -> u32 {\n\
    let _: HashMap<u32, u32> = HashMap::new();\n\
    v.first().copied().unwrap()\n\
}\n";
    let cfg = Config::workspace();
    let plain = lint_file("crates/core/src/fake/reference.rs", body, &cfg);
    assert!(!plain.findings.is_empty());
    let marked = format!("//! A test-only module.\n\n#![cfg(test)]\n\n{body}");
    let report = lint_file("crates/core/src/fake/reference.rs", &marked, &cfg);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

fn workspace_files() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xlint sits two levels under the workspace root");
    collect_workspace_files(root).expect("workspace walks")
}

#[test]
fn the_real_workspace_has_no_deprecated_items() {
    let files = workspace_files();
    // The engine is where the last shims lived.
    assert!(files.iter().any(|(p, _)| p == "crates/core/src/engine.rs"));
    let report = lint_files(&files, &Config::workspace());
    let deprecated: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == Lint::NoDeprecated.name())
        .collect();
    assert!(deprecated.is_empty(), "{deprecated:?}");
}

fn revision_cfg() -> Config {
    Config {
        fingerprinted: vec![(
            "crates/core/src/scbd.rs".to_string(),
            vec!["SCBD_ALGO_REVISION".to_string()],
        )],
        cache_file: "crates/core/src/cache.rs".to_string(),
        ..Config::workspace()
    }
}

const FAKE_CACHE: &str = "\
pub const SCBD_ALGO_REVISION: u32 = 1;\n\
pub fn key() -> u32 { SCBD_ALGO_REVISION }\n";

#[test]
fn revision_guard_catches_a_missing_marker() {
    let files = vec![
        (
            "crates/core/src/scbd.rs".to_string(),
            "pub const SAME_GROUP_COST: f64 = 1.0;\n".to_string(),
        ),
        (
            "crates/core/src/cache.rs".to_string(),
            FAKE_CACHE.to_string(),
        ),
    ];
    let report = lint_files(&files, &revision_cfg());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].lint, Lint::RevisionGuard.name());
    assert!(report.findings[0].message.contains("SCBD_ALGO_REVISION"));
}

#[test]
fn revision_guard_passes_with_the_marker() {
    let files =
        vec![
        (
            "crates/core/src/scbd.rs".to_string(),
            "// memx-lint: fingerprinted(SCBD_ALGO_REVISION) — cost weights feed the cache key.\n\
             pub const SAME_GROUP_COST: f64 = 1.0;\n"
                .to_string(),
        ),
        ("crates/core/src/cache.rs".to_string(), FAKE_CACHE.to_string()),
    ];
    let report = lint_files(&files, &revision_cfg());
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn revision_guard_rejects_markers_cache_does_not_reference() {
    let files =
        vec![
        (
            "crates/core/src/scbd.rs".to_string(),
            "// memx-lint: fingerprinted(SCBD_ALGO_REVISION) — cost weights feed the cache key.\n\
             // memx-lint: fingerprinted(NO_SUCH_REVISION) — stale marker.\n\
             pub const SAME_GROUP_COST: f64 = 1.0;\n"
                .to_string(),
        ),
        ("crates/core/src/cache.rs".to_string(), FAKE_CACHE.to_string()),
    ];
    let report = lint_files(&files, &revision_cfg());
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("NO_SUCH_REVISION"));
}

#[test]
fn the_real_workspace_is_clean() {
    let files = workspace_files();
    assert!(files.len() > 40, "walked only {} files", files.len());
    let report = lint_files(&files, &Config::workspace());
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.suppressed > 0,
        "the justified allows should register"
    );
}
