//! `memx-lint`: a registry-free static analyzer for the memexplore
//! workspace.
//!
//! The exploration pipeline pins its claims on invariants a compiler
//! cannot check for us: solver crates must surface failures as
//! `Result`s instead of panicking, the deterministic fan-out
//! choreography must be the *only* place that touches atomics, crates
//! whose stdout is golden-pinned must never iterate a `HashMap`, and
//! modules whose constants feed a cache fingerprint must say so next to
//! the constants. This crate enforces those invariants with a
//! hand-rolled lexer (no `syn` — the build environment is offline) and
//! token-pattern rules over the blanked source.
//!
//! # Lints (all deny-by-default)
//!
//! | lint | invariant |
//! |------|-----------|
//! | `no-panic-paths` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test code of the solver crates (`core`, `ir`, `memlib`, `profile`) |
//! | `atomics-confined` | atomic types and memory orderings appear only in `core::fan` plus an explicit allowlist (cache statistics, profile counters) |
//! | `no-unordered-iter` | `HashMap`/`HashSet` are banned everywhere golden stdout could observe their iteration order (the whole workspace, after the BTreeMap conversion) |
//! | `no-ambient-state` | `Instant::now`/`SystemTime`/`env::var` only in the bench-facing experiment module |
//! | `revision-guard` | fingerprinted modules carry a `// memx-lint: fingerprinted(<CONST>)` marker and the named const/fn exists in and is referenced by `core::cache` |
//! | `err-impl-error` | every `pub` type named `*Error` has an `impl std::error::Error for` it in the declaring file (callers must be able to `?`-chain and `source()`-walk any public failure) |
//! | `no-deprecated` | no `#[deprecated]` items anywhere in the workspace: every caller is in-tree, so a shim only delays a migration |
//!
//! # Suppressions
//!
//! A finding is suppressed by `// memx-lint: allow(<lint>) — <reason>`
//! on the same line or the line directly above it. The reason is
//! mandatory: an allow without one is itself reported
//! (`malformed-directive`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The seven workspace lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Panicking constructs in non-test solver code.
    NoPanicPaths,
    /// Atomics outside the fan harness and its allowlist.
    AtomicsConfined,
    /// Iteration-order-unstable collections.
    NoUnorderedIter,
    /// Wall clocks and environment reads outside bench modules.
    NoAmbientState,
    /// Missing or dangling cache-fingerprint markers.
    RevisionGuard,
    /// `pub` error types without a `std::error::Error` impl.
    ErrImplError,
    /// `#[deprecated]` shims kept alive instead of migrated callers.
    NoDeprecated,
}

impl Lint {
    /// Every lint, in reporting order.
    pub const ALL: [Lint; 7] = [
        Lint::NoPanicPaths,
        Lint::AtomicsConfined,
        Lint::NoUnorderedIter,
        Lint::NoAmbientState,
        Lint::RevisionGuard,
        Lint::ErrImplError,
        Lint::NoDeprecated,
    ];

    /// The kebab-case name used in diagnostics and `allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanicPaths => "no-panic-paths",
            Lint::AtomicsConfined => "atomics-confined",
            Lint::NoUnorderedIter => "no-unordered-iter",
            Lint::NoAmbientState => "no-ambient-state",
            Lint::RevisionGuard => "revision-guard",
            Lint::ErrImplError => "err-impl-error",
            Lint::NoDeprecated => "no-deprecated",
        }
    }

    /// Parses a lint name as written in an `allow(...)` directive.
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a lint fired at a source location.
///
/// `lint` is the lint *name* rather than the enum so that directive
/// errors (`malformed-directive`) share the same reporting path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint name (one of [`Lint::name`] or `"malformed-directive"`).
    pub lint: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A `// memx-lint: ...` comment directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `allow(<lint>) — <reason>`: suppress the lint on this or the
    /// next code line.
    Allow {
        /// The named lint, if the name parsed.
        lint: Option<Lint>,
        /// The name exactly as written.
        raw: String,
        /// Whether a non-empty reason follows the closing paren.
        has_reason: bool,
    },
    /// `fingerprinted(<CONST>)`: this module feeds the named cache
    /// revision const / fingerprint fn.
    Fingerprinted {
        /// The named const or fn in `core::cache`.
        name: String,
    },
    /// A `memx-lint:` comment that is neither of the above.
    Unknown,
}

/// Lexer output: the source with comments, literals and test regions
/// blanked, plus the extracted comment directives.
#[derive(Debug)]
pub struct Stripped {
    /// Per-line code; comments and string/char contents replaced by
    /// spaces, test-region lines emptied.
    pub code: Vec<String>,
    /// Per-line comment text (empty for lines without comments; test
    /// regions emptied).
    pub comments: Vec<String>,
    /// 0-based line → directive parsed from that line's comment.
    pub directives: Vec<(usize, Directive)>,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Strips `source` down to lintable code: comments and literal
/// contents are blanked (quotes kept so token boundaries survive),
/// `#[cfg(test)]` regions, `mod tests` bodies and `#![cfg(test)]` files
/// are emptied, and
/// `memx-lint:` comment directives are collected.
pub fn strip(source: &str) -> Stripped {
    let chars: Vec<char> = source.chars().collect();
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];

    // Directives are only honored in plain `//` / `/* */` comments:
    // doc comments (`///`, `//!`, `/** */`, `/*! */`) describe the
    // directives without issuing them, so their text is discarded
    // (the `bool` is "collect into the comment buffer").
    enum St {
        Code,
        Line(bool),
        Block(u32, bool),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A newline ends line comments but not block comments or
            // (raw/regular) string literals.
            if matches!(st, St::Line(_)) {
                st = St::Code;
            }
            code.push(String::new());
            comments.push(String::new());
            i += 1;
            continue;
        }
        let line = code.len() - 1;
        match st {
            St::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    let doc = matches!(chars.get(i + 2), Some(&'/') | Some(&'!'));
                    st = St::Line(!doc);
                    code[line].push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    let doc = matches!(chars.get(i + 2), Some(&'*') | Some(&'!'))
                        && chars.get(i + 3) != Some(&'/');
                    st = St::Block(1, !doc);
                    code[line].push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str;
                    code[line].push('"');
                    i += 1;
                } else if c == 'r'
                    && !prev_is_ident(&chars, i)
                    && raw_str_hashes(&chars, i + 1).is_some()
                {
                    let n = raw_str_hashes(&chars, i + 1).unwrap_or(0);
                    st = St::RawStr(n);
                    code[line].push('"');
                    i += 2 + n as usize; // r, hashes, quote
                } else if c == 'b'
                    && !prev_is_ident(&chars, i)
                    && chars.get(i + 1) == Some(&'r')
                    && raw_str_hashes(&chars, i + 2).is_some()
                {
                    let n = raw_str_hashes(&chars, i + 2).unwrap_or(0);
                    st = St::RawStr(n);
                    code[line].push('"');
                    i += 3 + n as usize;
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`): a
                    // lifetime is an identifier not closed by a quote.
                    let next_ident = chars.get(i + 1).copied().is_some_and(is_ident_char);
                    let closes = chars.get(i + 2) == Some(&'\'');
                    if next_ident && !closes {
                        code[line].push('\'');
                        i += 1;
                    } else {
                        st = St::Char;
                        code[line].push('\'');
                        i += 1;
                    }
                } else {
                    code[line].push(c);
                    i += 1;
                }
            }
            St::Line(collect) => {
                code[line].push(' ');
                if collect {
                    comments[line].push(c);
                }
                i += 1;
            }
            St::Block(d, collect) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::Block(d + 1, collect);
                    i += 2;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::Block(d - 1, collect)
                    };
                    code[line].push_str("  ");
                    i += 2;
                } else {
                    code[line].push(' ');
                    if collect {
                        comments[line].push(c);
                    }
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    code[line].push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    code[line].push('"');
                    i += 1;
                } else {
                    code[line].push(' ');
                    i += 1;
                }
            }
            St::RawStr(n) => {
                if c == '"' && hashes_follow(&chars, i + 1, n) {
                    st = St::Code;
                    code[line].push('"');
                    i += 1 + n as usize;
                } else {
                    code[line].push(' ');
                    i += 1;
                }
            }
            St::Char => {
                if c == '\\' {
                    code[line].push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    code[line].push('\'');
                    i += 1;
                } else {
                    code[line].push(' ');
                    i += 1;
                }
            }
        }
    }

    mask_test_regions(&mut code, &mut comments);

    let mut directives = Vec::new();
    for (idx, comment) in comments.iter().enumerate() {
        if let Some(d) = parse_directive(comment) {
            directives.push((idx, d));
        }
    }
    Stripped {
        code,
        comments,
        directives,
    }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

/// If `chars[i..]` opens a raw string (`#*"`), returns the hash count.
fn raw_str_hashes(chars: &[char], mut i: usize) -> Option<u32> {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    (chars.get(i) == Some(&'"')).then_some(n)
}

fn hashes_follow(chars: &[char], mut i: usize, n: u32) -> bool {
    for _ in 0..n {
        if chars.get(i) != Some(&'#') {
            return false;
        }
        i += 1;
    }
    true
}

/// Empties every line belonging to a `#[cfg(test)]` item or a
/// `mod tests { ... }` body, by brace-counting the blanked code. A file
/// carrying the inner attribute `#![cfg(test)]` (a test-only module in a
/// file of its own) is emptied as a whole.
fn mask_test_regions(code: &mut [String], comments: &mut [String]) {
    if code
        .iter()
        .any(|l| l.trim_start().starts_with("#![cfg(test)]"))
    {
        code.iter_mut()
            .chain(comments.iter_mut())
            .for_each(String::clear);
        return;
    }
    let mut line = 0;
    while line < code.len() {
        let start_col = if let Some(col) = code[line].find("#[cfg(test)]") {
            Some(col + "#[cfg(test)]".len())
        } else {
            find_mod_tests(&code[line])
        };
        let Some(col) = start_col else {
            line += 1;
            continue;
        };
        let end = region_end(code, line, col);
        for masked in code.iter_mut().take(end + 1).skip(line) {
            masked.clear();
        }
        for masked in comments.iter_mut().take(end + 1).skip(line) {
            masked.clear();
        }
        line = end + 1;
    }
}

/// Finds a `mod tests` token pair and returns the column after it.
fn find_mod_tests(line: &str) -> Option<usize> {
    let col = line.find("mod tests")?;
    let bytes = line.as_bytes();
    let before_ok = col == 0 || !is_ident_char(bytes[col - 1] as char);
    let after = col + "mod tests".len();
    let after_ok = after >= bytes.len() || !is_ident_char(bytes[after] as char);
    (before_ok && after_ok).then_some(after)
}

/// Scans forward from (`line`, `col`) for the item the attribute /
/// module header introduces: a `;` ends it immediately (attribute on a
/// statement), a `{` opens a body that is brace-counted to its close.
/// Returns the 0-based last line of the region.
fn region_end(code: &[String], mut line: usize, mut col: usize) -> usize {
    let mut depth = 0usize;
    loop {
        let chars: Vec<char> = code[line].chars().collect();
        while col < chars.len() {
            match chars[col] {
                ';' if depth == 0 => return line,
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return line;
                    }
                }
                _ => {}
            }
            col += 1;
        }
        line += 1;
        col = 0;
        if line >= code.len() {
            return code.len() - 1;
        }
    }
}

/// Parses a `memx-lint:` directive out of one line's comment text.
fn parse_directive(comment: &str) -> Option<Directive> {
    let pos = comment.find("memx-lint:")?;
    let rest = comment[pos + "memx-lint:".len()..].trim_start();
    if let Some(inner) = rest.strip_prefix("allow(") {
        let close = inner.find(')')?;
        let raw = inner[..close].trim().to_string();
        let reason = inner[close + 1..]
            .trim_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ','));
        return Some(Directive::Allow {
            lint: Lint::from_name(&raw),
            raw,
            has_reason: !reason.is_empty(),
        });
    }
    if let Some(inner) = rest.strip_prefix("fingerprinted(") {
        let close = inner.find(')')?;
        return Some(Directive::Fingerprinted {
            name: inner[..close].trim().to_string(),
        });
    }
    Some(Directive::Unknown)
}

/// Where each lint applies. Paths are workspace-relative with `/`
/// separators.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes where `no-panic-paths` is enforced.
    pub panic_prefixes: Vec<String>,
    /// Files exempt from `atomics-confined`.
    pub atomics_allowed: Vec<String>,
    /// Files exempt from `no-ambient-state`.
    pub ambient_allowed: Vec<String>,
    /// Files exempt from `no-unordered-iter`. Scope carve-out for maps
    /// that are never iterated into output (e.g. the serve crate's
    /// case-insensitive request-header lookup) — golden-pinned crates
    /// stay under the workspace-wide ban.
    pub unordered_allowed: Vec<String>,
    /// `revision-guard` table: file → required marker names.
    pub fingerprinted: Vec<(String, Vec<String>)>,
    /// The file that must define and reference every marker name.
    pub cache_file: String,
}

impl Config {
    /// The memexplore workspace policy.
    pub fn workspace() -> Self {
        let s = String::from;
        Config {
            panic_prefixes: vec![
                s("crates/core/src/"),
                // The ir prefix also covers the textual front-end
                // (spec_text/parse/specgen): a malformed .mxspec file
                // or a hostile serve `spec_text` body must surface as
                // a positioned SpecTextError, never a parser panic.
                s("crates/ir/src/"),
                s("crates/memlib/src/"),
                s("crates/profile/src/"),
                // The daemon must not take itself down on a bad
                // request: handler code returns errors to the wire.
                s("crates/serve/src/"),
            ],
            atomics_allowed: vec![
                // The audited fan-out harness: the only algorithmic
                // atomics in the tree.
                s("crates/core/src/fan.rs"),
                // Monotone hit/miss statistics on the evaluation cache.
                s("crates/core/src/cache.rs"),
                // The profiling counter primitive itself.
                s("crates/profile/src/counter.rs"),
            ],
            ambient_allowed: vec![
                // The bench experiment harness: reads MEMX_* knobs and
                // times runs by design.
                s("crates/bench/src/experiments.rs"),
                // The daemon's only wall-clock surface: uptime and
                // Retry-After bookkeeping. Request handling itself
                // derives everything from the request body.
                s("crates/serve/src/telemetry.rs"),
            ],
            unordered_allowed: vec![
                // Request headers are a case-insensitive lookup table,
                // never iterated into a response; responses are built
                // from order-preserving vectors.
                s("crates/serve/src/http.rs"),
            ],
            fingerprinted: vec![
                (s("crates/core/src/scbd.rs"), vec![s("SCBD_ALGO_REVISION")]),
                // Every allocation file whose code can change results.
                (
                    s("crates/core/src/alloc/mod.rs"),
                    vec![s("ALLOC_ALGO_REVISION")],
                ),
                (
                    s("crates/core/src/alloc/search.rs"),
                    vec![s("ALLOC_ALGO_REVISION")],
                ),
                (
                    s("crates/core/src/alloc/onchip.rs"),
                    vec![s("ALLOC_ALGO_REVISION")],
                ),
                (
                    s("crates/core/src/alloc/offchip.rs"),
                    vec![s("ALLOC_ALGO_REVISION"), s("OFF_CHIP_BLOCKS_ALGO_REVISION")],
                ),
                (
                    s("crates/core/src/alloc/key.rs"),
                    vec![s("ALLOC_ALGO_REVISION"), s("OFF_CHIP_BLOCKS_ALGO_REVISION")],
                ),
                (
                    s("crates/memlib/src/timing.rs"),
                    vec![s("scbd_model_fingerprint"), s("alloc_model_fingerprint")],
                ),
                (
                    s("crates/memlib/src/calibration.rs"),
                    vec![s("alloc_model_fingerprint")],
                ),
                (
                    s("crates/memlib/src/onchip.rs"),
                    vec![s("alloc_model_fingerprint")],
                ),
                (
                    s("crates/memlib/src/offchip.rs"),
                    vec![s("alloc_model_fingerprint")],
                ),
            ],
            cache_file: s("crates/core/src/cache.rs"),
        }
    }
}

/// True when `line` contains `tok` with non-identifier characters on
/// both sides.
fn has_token(line: &str, tok: &str) -> bool {
    token_col(line, tok).is_some()
}

/// Column of the first word-boundary occurrence of `tok` in `line`.
fn token_col(line: &str, tok: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = line[from..].find(tok) {
        let col = from + rel;
        let before_ok = col == 0 || !is_ident_char(line[..col].chars().next_back().unwrap_or(' '));
        let after = col + tok.len();
        let after_ok = line[after..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return Some(col);
        }
        from = col + tok.len().max(1);
    }
    None
}

/// The identifier starting at or after `col` (leading whitespace
/// skipped), when the next non-space characters form one.
fn ident_after(line: &str, col: usize) -> Option<&str> {
    let rest = line.get(col..)?.trim_start();
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// True when `line` calls `.name(` (a method, not `name_or`-style
/// variants — the `(` must directly follow).
fn calls_method(line: &str, name: &str) -> bool {
    let pat = format!(".{name}(");
    line.contains(&pat)
}

/// True when `line` invokes the macro `name!(` at a word boundary.
fn calls_macro(line: &str, name: &str) -> bool {
    let pat = format!("{name}!(");
    let mut from = 0;
    while let Some(rel) = line[from..].find(&pat) {
        let col = from + rel;
        let before_ok = col == 0 || !is_ident_char(line[..col].chars().next_back().unwrap_or(' '));
        if before_ok {
            return true;
        }
        from = col + pat.len();
    }
    false
}

/// True when `line` carries a `#[deprecated]` attribute, in any of its
/// forms (`#[deprecated(note = ..)]`, `#[deprecated = ..]`, inner
/// `#![deprecated]`), but not `#[allow(deprecated)]`.
fn has_deprecated_attr(line: &str) -> bool {
    let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
    ["#[deprecated", "#![deprecated"].iter().any(|pat| {
        compact.match_indices(pat).any(|(col, _)| {
            compact[col + pat.len()..]
                .chars()
                .next()
                .is_none_or(|c| !is_ident_char(c))
        })
    })
}

/// Per-file lint result, before workspace-level rules.
#[derive(Debug)]
pub struct FileReport {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified `allow`.
    pub suppressed: Vec<Finding>,
    /// `fingerprinted(...)` marker names declared in this file.
    pub markers: Vec<String>,
}

const ATOMIC_TOKENS: [&str; 7] = [
    "AtomicU64",
    "AtomicUsize",
    "AtomicU32",
    "AtomicU8",
    "AtomicBool",
    "AtomicI64",
    "AtomicIsize",
];
const ORDERING_TOKENS: [&str; 5] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// Runs the per-file lints on one source file.
pub fn lint_file(path: &str, source: &str, cfg: &Config) -> FileReport {
    let stripped = strip(source);
    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |lint: Lint, line: usize, message: String| {
        raw.push(Finding {
            lint: lint.name(),
            file: path.to_string(),
            line: line + 1,
            message,
        });
    };

    let panic_scoped = cfg.panic_prefixes.iter().any(|p| path.starts_with(p));
    let atomics_scoped = !cfg.atomics_allowed.iter().any(|p| p == path);
    let ambient_scoped = !cfg.ambient_allowed.iter().any(|p| p == path);
    let unordered_scoped = !cfg.unordered_allowed.iter().any(|p| p == path);

    for (idx, line) in stripped.code.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if panic_scoped {
            for m in ["unwrap", "expect"] {
                if calls_method(line, m) {
                    push(
                        Lint::NoPanicPaths,
                        idx,
                        format!("`.{m}()` in non-test solver code; return a Result or justify with an allow"),
                    );
                }
            }
            for m in ["panic", "unreachable", "todo", "unimplemented"] {
                if calls_macro(line, m) {
                    push(
                        Lint::NoPanicPaths,
                        idx,
                        format!("`{m}!` in non-test solver code; return a Result or justify with an allow"),
                    );
                }
            }
        }
        if has_deprecated_attr(line) {
            push(
                Lint::NoDeprecated,
                idx,
                "`#[deprecated]` shim; every caller is in-tree, so migrate them and delete the old item"
                    .to_string(),
            );
        }
        if atomics_scoped {
            for tok in ATOMIC_TOKENS.iter().chain(ORDERING_TOKENS.iter()) {
                if has_token(line, tok) {
                    push(
                        Lint::AtomicsConfined,
                        idx,
                        format!(
                            "`{tok}` outside the audited fan harness (core::fan) and its allowlist"
                        ),
                    );
                }
            }
        }
        if unordered_scoped {
            for tok in ["HashMap", "HashSet"] {
                if has_token(line, tok) {
                    push(
                        Lint::NoUnorderedIter,
                        idx,
                        format!("`{tok}` has unstable iteration order; use BTreeMap/BTreeSet in golden-pinned crates"),
                    );
                }
            }
        }
        if ambient_scoped {
            if has_token(line, "Instant::now") {
                push(
                    Lint::NoAmbientState,
                    idx,
                    "`Instant::now` outside bench-facing modules makes results time-dependent"
                        .to_string(),
                );
            }
            if has_token(line, "SystemTime") {
                push(
                    Lint::NoAmbientState,
                    idx,
                    "`SystemTime` outside bench-facing modules makes results time-dependent"
                        .to_string(),
                );
            }
            for tok in ["env::var", "env::var_os"] {
                if let Some(col) = token_col(line, tok) {
                    if line[col + tok.len()..].starts_with('(') {
                        push(
                            Lint::NoAmbientState,
                            idx,
                            format!("`{tok}` outside bench-facing modules makes results environment-dependent"),
                        );
                    }
                }
            }
        }
    }

    // err-impl-error is a two-pass rule: collect every `pub ... Error`
    // type declaration and every `impl ... Error for <Name>` line, then
    // flag the declarations left unmatched. Same-file matching is
    // deliberate — the workspace convention keeps an error type's
    // `std::error::Error` impl next to its definition.
    let mut error_decls: Vec<(usize, String)> = Vec::new();
    let mut error_impls: BTreeSet<String> = BTreeSet::new();
    for (idx, line) in stripped.code.iter().enumerate() {
        for kw in ["enum", "struct"] {
            if let Some(col) = token_col(line, kw) {
                // Plain `pub` only: `pub(crate)` types are not public
                // API, so their error ergonomics are a local concern.
                let public = token_col(line, "pub")
                    .is_some_and(|p| p < col && line[p + 3..].starts_with(char::is_whitespace));
                if public {
                    if let Some(name) = ident_after(line, col + kw.len()) {
                        if name.ends_with("Error") {
                            error_decls.push((idx, name.to_string()));
                        }
                    }
                }
            }
        }
        if has_token(line, "impl") {
            if let Some(col) = token_col(line, "for") {
                // `impl Error for X` / `impl std::error::Error for X`,
                // but not `impl Display for X` or `impl From<XError>`.
                if line[..col].trim_end().ends_with("Error") {
                    if let Some(name) = ident_after(line, col + "for".len()) {
                        error_impls.insert(name.to_string());
                    }
                }
            }
        }
    }
    for (idx, name) in error_decls {
        if !error_impls.contains(&name) {
            push(
                Lint::ErrImplError,
                idx,
                format!(
                    "`pub` error type `{name}` has no `impl std::error::Error` in this file; callers cannot `?`-chain or `source()`-walk it"
                ),
            );
        }
    }

    apply_suppressions(path, &stripped, raw)
}

/// Applies `allow` directives: a directive covers its own line and the
/// next non-blank code line. Malformed directives become findings.
fn apply_suppressions(path: &str, stripped: &Stripped, raw: Vec<Finding>) -> FileReport {
    // 0-based line → lints allowed there.
    let mut allowed: BTreeMap<usize, BTreeSet<Lint>> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut markers: Vec<String> = Vec::new();

    for (idx, directive) in &stripped.directives {
        match directive {
            Directive::Allow {
                lint,
                raw,
                has_reason,
            } => {
                let Some(lint) = lint else {
                    findings.push(Finding {
                        lint: "malformed-directive",
                        file: path.to_string(),
                        line: idx + 1,
                        message: format!("allow names unknown lint `{raw}`"),
                    });
                    continue;
                };
                if !has_reason {
                    findings.push(Finding {
                        lint: "malformed-directive",
                        file: path.to_string(),
                        line: idx + 1,
                        message: format!(
                            "allow({lint}) carries no reason; write `allow({lint}) — <why this is safe>`"
                        ),
                    });
                    continue;
                }
                allowed.entry(*idx).or_default().insert(*lint);
                // The next non-blank code line is covered too.
                if let Some(next) = stripped
                    .code
                    .iter()
                    .enumerate()
                    .skip(idx + 1)
                    .find(|(_, l)| !l.trim().is_empty())
                    .map(|(j, _)| j)
                {
                    allowed.entry(next).or_default().insert(*lint);
                }
            }
            Directive::Fingerprinted { name } => markers.push(name.clone()),
            Directive::Unknown => findings.push(Finding {
                lint: "malformed-directive",
                file: path.to_string(),
                line: idx + 1,
                message: "unrecognized memx-lint directive; expected allow(<lint>) or fingerprinted(<CONST>)"
                    .to_string(),
            }),
        }
    }

    let mut suppressed: Vec<Finding> = Vec::new();
    for f in raw {
        let lint = Lint::from_name(f.lint);
        let is_allowed = lint.is_some_and(|l| {
            allowed
                .get(&(f.line - 1))
                .is_some_and(|lints| lints.contains(&l))
        });
        if is_allowed {
            suppressed.push(f);
        } else {
            findings.push(f);
        }
    }
    FileReport {
        findings,
        suppressed,
        markers,
    }
}

/// Workspace lint result.
#[derive(Debug)]
pub struct Report {
    /// Number of files scanned.
    pub files: usize,
    /// Unsuppressed findings, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Count of findings silenced by justified allows.
    pub suppressed: usize,
}

/// Lints a set of `(workspace-relative path, source)` files: per-file
/// rules plus the cross-file `revision-guard`.
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> Report {
    let mut findings = Vec::new();
    let mut suppressed = 0;
    let mut markers: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for (path, source) in files {
        let report = lint_file(path, source, cfg);
        findings.extend(report.findings);
        suppressed += report.suppressed.len();
        markers.insert(path, report.markers);
    }

    // revision-guard: every fingerprinted module carries its markers,
    // and every marker names a const/fn that core::cache defines AND
    // references (>= 2 word occurrences in its blanked code).
    let cache_code: Option<String> = files
        .iter()
        .find(|(p, _)| *p == cfg.cache_file)
        .map(|(_, src)| strip(src).code.join("\n"));
    let cache_mentions = |name: &str| -> usize {
        let Some(code) = cache_code.as_deref() else {
            return 0;
        };
        let mut count = 0;
        let mut from = 0;
        while let Some(col) = token_col(&code[from..], name) {
            count += 1;
            from += col + name.len();
        }
        count
    };
    if cache_code.is_none() && !cfg.fingerprinted.is_empty() {
        findings.push(Finding {
            lint: Lint::RevisionGuard.name(),
            file: cfg.cache_file.clone(),
            line: 1,
            message: "cache file not in the scanned set; revision markers cannot be validated"
                .to_string(),
        });
    }
    for (file, consts) in &cfg.fingerprinted {
        let Some(found) = markers.get(file.as_str()) else {
            findings.push(Finding {
                lint: Lint::RevisionGuard.name(),
                file: file.clone(),
                line: 1,
                message: "fingerprinted module not in the scanned set".to_string(),
            });
            continue;
        };
        for c in consts {
            if !found.contains(c) {
                findings.push(Finding {
                    lint: Lint::RevisionGuard.name(),
                    file: file.clone(),
                    line: 1,
                    message: format!(
                        "module feeds cache key `{c}` but carries no `// memx-lint: fingerprinted({c})` marker"
                    ),
                });
            }
        }
    }
    for (path, names) in &markers {
        for name in names {
            if cache_code.is_some() && cache_mentions(name) < 2 {
                findings.push(Finding {
                    lint: Lint::RevisionGuard.name(),
                    file: path.to_string(),
                    line: 1,
                    message: format!(
                        "marker names `{name}`, which {} does not both define and reference",
                        cfg.cache_file
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        files: files.len(),
        findings,
        suppressed,
    }
}

/// Directory names never descended into: build output, vendored shims,
/// and test-only trees (integration tests, benches, lint fixtures are
/// exercised by their own harnesses, not production invariants).
pub const EXCLUDED_DIRS: [&str; 7] = [
    "target", "vendor", "tests", "benches", "examples", "fixtures", ".git",
];

/// Collects every lintable `.rs` file under `root`'s `crates/` and
/// `src/` trees, as `(workspace-relative path, source)`, sorted by
/// path.
pub fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED_DIRS.iter().any(|d| *d == name) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}
