//! Source invariants that clippy cannot express. The type- and
//! path-level rules live in `clippy.toml` and in the crate roots'
//! `deny(clippy::unwrap_used, ...)` attributes; the three text rules
//! here are each a pure function over one file's path and text, run
//! over every non-test source under `crates/` and `src/`.

use std::collections::BTreeSet;
use std::path::Path;

/// Modules whose code can change a cached result, with the revision
/// constants or model fingerprints of `core::cache` each one feeds. A
/// module carries one `// fingerprinted(<NAME>)` marker per name, so an
/// edit there is made next to a reminder to bump the revision.
const FINGERPRINTED: [(&str, &[&str]); 10] = [
    ("crates/core/src/scbd.rs", &[SCBD]),
    ("crates/core/src/alloc/mod.rs", &[ALLOC]),
    ("crates/core/src/alloc/search.rs", &[ALLOC]),
    ("crates/core/src/alloc/onchip.rs", &[ALLOC]),
    ("crates/core/src/alloc/offchip.rs", &[ALLOC, BLOCKS]),
    ("crates/core/src/alloc/key.rs", &[ALLOC, BLOCKS]),
    ("crates/memlib/src/timing.rs", &[SCBD_MODEL, MODEL]),
    ("crates/memlib/src/calibration.rs", &[MODEL]),
    ("crates/memlib/src/onchip.rs", &[MODEL]),
    ("crates/memlib/src/offchip.rs", &[MODEL]),
];
const SCBD: &str = "SCBD_ALGO_REVISION";
const SCBD_MODEL: &str = "scbd_model_fingerprint";
const ALLOC: &str = "ALLOC_ALGO_REVISION";
const BLOCKS: &str = "OFF_CHIP_BLOCKS_ALGO_REVISION";
const MODEL: &str = "alloc_model_fingerprint";
const CACHE_FILE: &str = "crates/core/src/cache.rs";

/// The text of `line` before any `//` comment.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// The identifiers of `s`, in order.
fn words(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// revision-guard: a fingerprinted module carries exactly the markers
/// its table row names, and the cache module both defines and uses
/// every name in the table.
fn revision_guard(path: &str, text: &str) -> Vec<String> {
    let markers: BTreeSet<&str> = text
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("// fingerprinted("))
        .filter_map(|rest| rest.split(')').next())
        .collect();
    let row = FINGERPRINTED.iter().find(|(p, _)| *p == path);
    let required: BTreeSet<&str> = row.map_or(&[][..], |(_, n)| *n).iter().copied().collect();
    let mut out: Vec<String> = (markers.symmetric_difference(&required))
        .map(|name| format!("{path}: `// fingerprinted({name})` marker does not match its row"))
        .collect();
    if path == CACHE_FILE {
        let names: BTreeSet<&str> = FINGERPRINTED
            .iter()
            .flat_map(|(_, n)| *n)
            .copied()
            .collect();
        for name in names {
            let uses = text.lines().filter(|l| words(code(l)).any(|w| w == name));
            if uses.count() < 2 {
                out.push(format!("{path}: does not both define and use `{name}`"));
            }
        }
    }
    out
}

/// err-impl-error: every plain-`pub` type named `*Error` has an
/// `impl ... Error for <Name>` in the same file, so callers can
/// `?`-chain it and walk its `source()`.
fn err_impl_error(path: &str, text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().map(|l| code(l).trim()).collect();
    let covered: BTreeSet<&str> = lines
        .iter()
        .filter(|l| l.starts_with("impl"))
        .filter_map(|l| l.split_once(" for "))
        .filter(|(head, _)| head.ends_with("Error"))
        .filter_map(|(_, tail)| words(tail).next())
        .collect();
    lines
        .iter()
        .filter_map(|l| {
            l.strip_prefix("pub struct ")
                .or(l.strip_prefix("pub enum "))
        })
        .filter_map(|decl| words(decl).next())
        .filter(|name| name.ends_with("Error") && !covered.contains(name))
        .map(|name| format!("{path}: pub `{name}` has no `impl std::error::Error` in this file"))
        .collect()
}

/// no-deprecated: every caller is in-tree, so a `#[deprecated]` shim
/// only delays a migration.
fn no_deprecated(path: &str, text: &str) -> Vec<String> {
    text.lines()
        .map(|l| code(l).replace(char::is_whitespace, ""))
        .filter(|l| {
            let after = |attr| {
                l.split(attr)
                    .skip(1)
                    .any(|r: &str| r.starts_with([']', '(', '=']))
            };
            after("#[deprecated") || after("#![deprecated")
        })
        .map(|_| format!("{path}: `#[deprecated]` shim; migrate its callers and delete it"))
        .collect()
}

/// Every `.rs` file under `dir` outside `tests/` and `benches/`, as
/// `(workspace-relative path, text)`.
fn sources(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() && name != "tests" && name != "benches" {
            sources(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path).expect("readable")));
        }
    }
}

/// Every non-test source under `crates/` and `src/`.
fn workspace_files() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(root, &root.join("crates"), &mut files);
    sources(root, &root.join("src"), &mut files);
    files
}

/// A `core::cache` that defines and uses every name of the table.
fn fake_cache() -> String {
    [SCBD, ALLOC, BLOCKS, SCBD_MODEL, MODEL]
        .iter()
        .map(|n| format!("const {n}: u8 = 1;\nfn k() -> u8 {{ {n} }}\n"))
        .collect()
}

const SCBD_FILE: &str = "crates/core/src/scbd.rs";
const SCBD_MARKED: &str =
    "// fingerprinted(SCBD_ALGO_REVISION) — weights feed the key.\nconst W: u8 = 1;\n";

#[test]
fn the_real_workspace_is_clean() {
    let files = workspace_files();
    assert!(files.len() > 40, "walked only {} files", files.len());
    for path in FINGERPRINTED.iter().map(|(p, _)| *p).chain([CACHE_FILE]) {
        assert!(files.iter().any(|(p, _)| p == path), "{path} is missing");
    }
    let found: Vec<String> = files
        .iter()
        .flat_map(|(p, t)| [revision_guard(p, t), err_impl_error(p, t)])
        .flatten()
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn the_real_workspace_has_no_deprecated_items() {
    let files = workspace_files();
    // The engine is where the last shims lived.
    assert!(files.iter().any(|(p, _)| p == "crates/core/src/engine.rs"));
    let found: Vec<String> = files
        .iter()
        .flat_map(|(p, t)| no_deprecated(p, t))
        .collect();
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn revision_guard_catches_a_missing_marker() {
    let found = revision_guard(SCBD_FILE, "const W: u8 = 1;\n");
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains(SCBD), "{}", found[0]);
}

#[test]
fn revision_guard_passes_with_the_marker() {
    assert!(revision_guard(SCBD_FILE, SCBD_MARKED).is_empty());
    assert!(revision_guard(CACHE_FILE, &fake_cache()).is_empty());
}

#[test]
fn revision_guard_rejects_markers_cache_does_not_reference() {
    let stale = format!("{SCBD_MARKED}// fingerprinted(NO_SUCH_REVISION)\n");
    let found = revision_guard(SCBD_FILE, &stale);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("NO_SUCH_REVISION"), "{}", found[0]);
    // A marker in a file outside the table has no row to match.
    assert_eq!(
        revision_guard("crates/core/src/fan.rs", SCBD_MARKED).len(),
        1
    );
    // The cache must use, not only mention, each name it defines.
    let unused = fake_cache().replace(&format!("{{ {MODEL} }}"), &format!("{{ 1 }} // {MODEL}"));
    let found = revision_guard(CACHE_FILE, &unused);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains(MODEL), "{}", found[0]);
}

#[test]
fn err_impl_fixture_flags_only_the_uncovered_public_type() {
    // NakedError alone: FooError carries an impl, BarError is not plain
    // `pub`, ErrorLog does not end in `Error`, and the `From<NakedError>`
    // impl must not count as coverage.
    let src = "pub enum FooError { A }\npub(crate) struct BarError;\npub struct ErrorLog;\n\
               pub struct NakedError;\n\
               impl std::error::Error for FooError {}\n\
               impl From<NakedError> for u8 { fn from(_: NakedError) -> u8 { 0 } }\n";
    let found = err_impl_error("crates/core/src/fake.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("NakedError"), "{}", found[0]);
}

#[test]
fn err_impl_accepts_an_unqualified_error_impl() {
    let src =
        "use std::error::Error;\npub enum LocalError { Case }\nimpl Error for LocalError {}\n";
    assert!(err_impl_error("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn deprecated_fixture_flags_each_attribute_form_in_every_crate() {
    let clean = "// a #[deprecated] shim\n#[allow(deprecated)]\nfn f() {}\nconst S: &str = \"deprecated\";\n";
    for path in ["crates/core/src/fake.rs", "crates/bench/src/bin/fake.rs"] {
        assert!(no_deprecated(path, clean).is_empty(), "{path}");
        for attr in [
            "#[deprecated]",
            "#[deprecated(note = \"use g\")]",
            "# [ deprecated = \"x\" ]",
        ] {
            assert_eq!(
                no_deprecated(path, &format!("{attr}\nfn f() {{}}\n")).len(),
                1,
                "{path}: {attr}"
            );
        }
    }
}
