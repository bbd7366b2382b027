//! Recursive-descent parser for the textual specification format.
//!
//! Mirrors the registry-free style of the serve daemon's JSON reader:
//! a hand-rolled lexer over the raw characters, a cursor-based parser,
//! and positioned diagnostics ([`SpecTextError`]) naming the offending
//! field — never a panic, whatever the input. Every declaration funnels
//! through [`AppSpecBuilder`], so a parsed spec carries exactly the
//! invariants (and content hash) of a Rust-built one; builder
//! rejections are re-positioned onto the token that introduced the
//! offending entity.
//!
//! The grammar is small and flat (two block levels, no recursion into
//! user-controlled depth), so parsing is O(input) with no depth limit
//! needed. See `docs/spec_format.md` for the grammar reference.

use crate::spec_text::{SpecTextError, SPEC_TEXT_VERSION};
use crate::{AccessId, AccessKind, AppSpec, AppSpecBuilder, Placement};

/// Parses one textual specification into a validated [`AppSpec`].
///
/// # Errors
///
/// Returns a [`SpecTextError`] with the 1-based line/column of the
/// first offending token: lexical errors (unterminated strings, stray
/// characters), grammar errors (unknown fields, missing or duplicate
/// declarations, unsupported versions), and semantic rejections from
/// [`AppSpecBuilder`] (duplicate group names, cyclic dependencies,
/// infeasible budgets, ...) re-positioned onto the declaration that
/// caused them.
pub fn parse_spec(text: &str) -> Result<AppSpec, SpecTextError> {
    let tokens = lex(text)?;
    // The lexer always appends an EOF sentinel; clone it as the
    // cursor's fallback so the parser is total without indexing.
    let eof = tokens.last().cloned().unwrap_or(Token {
        kind: Tok::Eof,
        line: 1,
        column: 1,
    });
    Parser {
        tokens,
        pos: 0,
        eof,
    }
    .spec()
}

/// One lexed token with its 1-based position.
#[derive(Debug, Clone, PartialEq)]
struct Token {
    kind: Tok,
    line: u32,
    column: u32,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// A bare keyword/identifier (`spec`, `group`, `v1`, ...).
    Word(String),
    /// A quoted string literal, unescaped.
    Str(String),
    /// A number, kept as raw text until the grammar knows whether an
    /// integer or a real is expected.
    Num(String),
    LBrace,
    RBrace,
    Arrow,
    Eof,
}

impl Tok {
    /// Short description for "expected X, found Y" diagnostics.
    fn describe(&self) -> String {
        match self {
            Tok::Word(w) => format!("`{w}`"),
            Tok::Str(_) => "a string".to_string(),
            Tok::Num(n) => format!("number `{n}`"),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
            Tok::Arrow => "`->`".to_string(),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

fn err(line: u32, column: u32, message: impl Into<String>) -> SpecTextError {
    SpecTextError::new(line, column, message)
}

fn lex(text: &str) -> Result<Vec<Token>, SpecTextError> {
    let mut tokens = Vec::new();
    let mut chars = text.chars().peekable();
    let mut line: u32 = 1;
    let mut column: u32 = 1;
    macro_rules! bump {
        () => {{
            let c = chars.next();
            if c == Some('\n') {
                line += 1;
                column = 1;
            } else if c.is_some() {
                column += 1;
            }
            c
        }};
    }
    loop {
        let (tok_line, tok_column) = (line, column);
        let c = match chars.peek().copied() {
            None => break,
            Some(c) => c,
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '#' => {
                while let Some(&c) = chars.peek() {
                    if c == '\n' {
                        break;
                    }
                    bump!();
                }
            }
            '{' => {
                bump!();
                tokens.push(Token {
                    kind: Tok::LBrace,
                    line: tok_line,
                    column: tok_column,
                });
            }
            '}' => {
                bump!();
                tokens.push(Token {
                    kind: Tok::RBrace,
                    line: tok_line,
                    column: tok_column,
                });
            }
            '-' => {
                bump!();
                match chars.peek() {
                    Some('>') => {
                        bump!();
                        tokens.push(Token {
                            kind: Tok::Arrow,
                            line: tok_line,
                            column: tok_column,
                        });
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let mut raw = String::from('-');
                        lex_number_tail(&mut raw, &mut chars, &mut line, &mut column);
                        tokens.push(Token {
                            kind: Tok::Num(raw),
                            line: tok_line,
                            column: tok_column,
                        });
                    }
                    _ => {
                        return Err(err(
                            tok_line,
                            tok_column,
                            "unexpected `-`: expected `->` or a number",
                        ))
                    }
                }
            }
            '"' => {
                bump!();
                let mut s = String::new();
                loop {
                    match bump!() {
                        None | Some('\n') => {
                            return Err(err(tok_line, tok_column, "unterminated string literal"))
                        }
                        Some('"') => break,
                        Some('\\') => match bump!() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            other => {
                                let what = other
                                    .map(|c| format!("`\\{c}`"))
                                    .unwrap_or_else(|| "end of input".to_string());
                                return Err(err(
                                    tok_line,
                                    tok_column,
                                    format!(
                                        "unknown escape {what} in string literal \
                                         (supported: \\\" \\\\ \\n \\t \\r)"
                                    ),
                                ));
                            }
                        },
                        Some(c) => s.push(c),
                    }
                }
                tokens.push(Token {
                    kind: Tok::Str(s),
                    line: tok_line,
                    column: tok_column,
                });
            }
            c if c.is_ascii_digit() => {
                let mut raw = String::new();
                lex_number_tail(&mut raw, &mut chars, &mut line, &mut column);
                tokens.push(Token {
                    kind: Tok::Num(raw),
                    line: tok_line,
                    column: tok_column,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut w = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        w.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: Tok::Word(w),
                    line: tok_line,
                    column: tok_column,
                });
            }
            other => {
                return Err(err(
                    tok_line,
                    tok_column,
                    format!("unexpected character `{other}`"),
                ))
            }
        }
    }
    tokens.push(Token {
        kind: Tok::Eof,
        line,
        column,
    });
    Ok(tokens)
}

/// Consumes digits, an optional fraction and an optional exponent into
/// `raw`. The leading sign/digit handling is the caller's.
fn lex_number_tail(
    raw: &mut String,
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    _line: &mut u32,
    column: &mut u32,
) {
    // Number characters never include a newline, so only the column
    // advances here.
    fn take_digits(
        raw: &mut String,
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        column: &mut u32,
    ) {
        while let Some(&c) = chars.peek() {
            if c.is_ascii_digit() {
                raw.push(c);
                chars.next();
                *column += 1;
            } else {
                break;
            }
        }
    }
    take_digits(raw, chars, column);
    if chars.peek() == Some(&'.') {
        raw.push('.');
        chars.next();
        *column += 1;
        take_digits(raw, chars, column);
    }
    if matches!(chars.peek(), Some('e') | Some('E')) {
        raw.push('e');
        chars.next();
        *column += 1;
        if matches!(chars.peek(), Some('+') | Some('-')) {
            if chars.peek() == Some(&'-') {
                raw.push('-');
            }
            chars.next();
            *column += 1;
        }
        take_digits(raw, chars, column);
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The EOF sentinel, handed out whenever the cursor is past the
    /// end (repeated `next()` on a truncated input parks here).
    eof: Token,
}

impl Parser {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&self.eof)
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expect_word(&mut self, want: &str) -> Result<Token, SpecTextError> {
        let t = self.next();
        match &t.kind {
            Tok::Word(w) if w == want => Ok(t),
            other => Err(err(
                t.line,
                t.column,
                format!("expected `{want}`, found {}", other.describe()),
            )),
        }
    }

    fn expect_lbrace(&mut self, what: &str) -> Result<(), SpecTextError> {
        let t = self.next();
        match t.kind {
            Tok::LBrace => Ok(()),
            other => Err(err(
                t.line,
                t.column,
                format!(
                    "expected `{{` to open the {what} block, found {}",
                    other.describe()
                ),
            )),
        }
    }

    fn string(&mut self, what: &str) -> Result<(String, Token), SpecTextError> {
        let t = self.next();
        match &t.kind {
            Tok::Str(s) => Ok((s.clone(), t.clone())),
            other => Err(err(
                t.line,
                t.column,
                format!("expected a quoted {what}, found {}", other.describe()),
            )),
        }
    }

    fn integer(&mut self, field: &str) -> Result<(u64, Token), SpecTextError> {
        let t = self.next();
        match &t.kind {
            Tok::Num(raw) => match raw.parse::<u64>() {
                Ok(v) => Ok((v, t.clone())),
                Err(_) => Err(err(
                    t.line,
                    t.column,
                    format!("`{field}` expects a non-negative integer, found `{raw}`"),
                )),
            },
            other => Err(err(
                t.line,
                t.column,
                format!(
                    "`{field}` expects a non-negative integer, found {}",
                    other.describe()
                ),
            )),
        }
    }

    fn number(&mut self, field: &str) -> Result<(f64, Token), SpecTextError> {
        let t = self.next();
        match &t.kind {
            Tok::Num(raw) => match raw.parse::<f64>() {
                Ok(v) => Ok((v, t.clone())),
                Err(_) => Err(err(
                    t.line,
                    t.column,
                    format!("`{field}` expects a number, found `{raw}`"),
                )),
            },
            other => Err(err(
                t.line,
                t.column,
                format!("`{field}` expects a number, found {}", other.describe()),
            )),
        }
    }

    fn no_duplicate(
        &self,
        seen: bool,
        field: &str,
        scope: &str,
        at: &Token,
    ) -> Result<(), SpecTextError> {
        if seen {
            Err(err(
                at.line,
                at.column,
                format!("duplicate `{field}` in {scope}"),
            ))
        } else {
            Ok(())
        }
    }

    fn spec(&mut self) -> Result<AppSpec, SpecTextError> {
        self.expect_word("spec")?;
        let vt = self.next();
        match &vt.kind {
            Tok::Word(v) if *v == format!("v{SPEC_TEXT_VERSION}") => {}
            Tok::Word(v) if v.len() > 1 && v.starts_with('v') => {
                return Err(err(
                    vt.line,
                    vt.column,
                    format!(
                        "unsupported spec version `{v}`: this build reads v{SPEC_TEXT_VERSION}"
                    ),
                ))
            }
            other => {
                return Err(err(
                    vt.line,
                    vt.column,
                    format!(
                        "expected the format version `v{SPEC_TEXT_VERSION}`, found {}",
                        other.describe()
                    ),
                ))
            }
        }
        let (name, _) = self.string("spec name")?;
        let scope = format!("spec `{name}`");
        let mut builder = AppSpecBuilder::new(name);
        self.expect_lbrace("spec")?;

        let mut budget: Option<Token> = None;
        let mut real_time: Option<Token> = None;
        let close = loop {
            let t = self.next();
            match &t.kind {
                Tok::RBrace => break t,
                Tok::Word(w) => match w.as_str() {
                    "cycle_budget" => {
                        self.no_duplicate(budget.is_some(), "cycle_budget", &scope, &t)?;
                        let (v, vt) = self.integer("cycle_budget")?;
                        builder.cycle_budget(v);
                        budget = Some(vt);
                    }
                    "real_time_seconds" => {
                        self.no_duplicate(real_time.is_some(), "real_time_seconds", &scope, &t)?;
                        let (v, vt) = self.number("real_time_seconds")?;
                        if !(v.is_finite() && v > 0.0) {
                            return Err(err(
                                vt.line,
                                vt.column,
                                "`real_time_seconds` expects a positive real",
                            ));
                        }
                        builder.real_time_seconds(v);
                        real_time = Some(vt);
                    }
                    "group" => self.group(&mut builder)?,
                    "nest" => self.nest(&mut builder)?,
                    other => {
                        return Err(err(
                            t.line,
                            t.column,
                            format!(
                                "unknown spec field `{other}`: expected `cycle_budget`, \
                                 `real_time_seconds`, `group` or `nest`"
                            ),
                        ))
                    }
                },
                other => {
                    return Err(err(
                        t.line,
                        t.column,
                        format!("expected a spec field or `}}`, found {}", other.describe()),
                    ))
                }
            }
        };
        let t = self.next();
        if t.kind != Tok::Eof {
            return Err(err(
                t.line,
                t.column,
                format!(
                    "expected end of input after the spec block, found {}",
                    t.kind.describe()
                ),
            ));
        }
        let budget = match budget {
            Some(b) => b,
            None => {
                return Err(err(
                    close.line,
                    close.column,
                    format!("{scope}: missing `cycle_budget`"),
                ))
            }
        };
        builder
            .build()
            .map_err(|e| err(budget.line, budget.column, e.to_string()))
    }

    fn group(&mut self, builder: &mut AppSpecBuilder) -> Result<(), SpecTextError> {
        let (name, name_tok) = self.string("group name")?;
        let scope = format!("group `{name}`");
        self.expect_lbrace("group")?;
        let mut words: Option<u64> = None;
        let mut bitwidth: Option<u64> = None;
        let mut placement: Option<Placement> = None;
        let mut min_ports: Option<u64> = None;
        let close = loop {
            let t = self.next();
            match &t.kind {
                Tok::RBrace => break t,
                Tok::Word(w) => match w.as_str() {
                    "words" => {
                        self.no_duplicate(words.is_some(), "words", &scope, &t)?;
                        words = Some(self.integer("words")?.0);
                    }
                    "bitwidth" => {
                        self.no_duplicate(bitwidth.is_some(), "bitwidth", &scope, &t)?;
                        bitwidth = Some(self.integer("bitwidth")?.0);
                    }
                    "placement" => {
                        self.no_duplicate(placement.is_some(), "placement", &scope, &t)?;
                        let pt = self.next();
                        placement = Some(match &pt.kind {
                            Tok::Word(p) if p == "any" => Placement::Any,
                            Tok::Word(p) if p == "on_chip" => Placement::OnChip,
                            Tok::Word(p) if p == "off_chip" => Placement::OffChip,
                            other => {
                                return Err(err(
                                    pt.line,
                                    pt.column,
                                    format!(
                                        "`placement` expects `any`, `on_chip` or `off_chip`, \
                                         found {}",
                                        other.describe()
                                    ),
                                ))
                            }
                        });
                    }
                    "min_ports" => {
                        self.no_duplicate(min_ports.is_some(), "min_ports", &scope, &t)?;
                        min_ports = Some(self.integer("min_ports")?.0);
                    }
                    other => {
                        return Err(err(
                            t.line,
                            t.column,
                            format!(
                                "unknown group field `{other}`: expected `words`, `bitwidth`, \
                                 `placement` or `min_ports`"
                            ),
                        ))
                    }
                },
                other => {
                    return Err(err(
                        t.line,
                        t.column,
                        format!("expected a group field or `}}`, found {}", other.describe()),
                    ))
                }
            }
        };
        let words = words.ok_or_else(|| {
            err(
                close.line,
                close.column,
                format!("{scope}: missing `words`"),
            )
        })?;
        let bitwidth = bitwidth.ok_or_else(|| {
            err(
                close.line,
                close.column,
                format!("{scope}: missing `bitwidth`"),
            )
        })?;
        let bitwidth = u32::try_from(bitwidth).map_err(|_| {
            err(
                close.line,
                close.column,
                format!("{scope}: `bitwidth` out of range"),
            )
        })?;
        let min_ports = min_ports.unwrap_or(1);
        let min_ports = u32::try_from(min_ports).map_err(|_| {
            err(
                close.line,
                close.column,
                format!("{scope}: `min_ports` out of range"),
            )
        })?;
        builder
            .basic_group_full(
                name,
                words,
                bitwidth,
                placement.unwrap_or(Placement::Any),
                min_ports,
            )
            .map(|_| ())
            .map_err(|e| err(name_tok.line, name_tok.column, e.to_string()))
    }

    fn nest(&mut self, builder: &mut AppSpecBuilder) -> Result<(), SpecTextError> {
        let (name, _) = self.string("nest name")?;
        let scope = format!("nest `{name}`");
        self.expect_lbrace("nest")?;
        // The nest must exist before accesses are added, but its
        // iteration count arrives as a field inside the block: declare
        // with a placeholder of 1 and rebuild at the close if needed?
        // No — the builder validates iterations at declaration, so the
        // parser instead queues accesses/deps until the block closes.
        let mut iterations: Option<(u64, Token)> = None;
        // (kind, group name token, group name, weight, burst, keyword token)
        struct PendingAccess {
            kind: AccessKind,
            group: String,
            group_tok: Token,
            weight: f64,
            burst: bool,
        }
        let mut accesses: Vec<PendingAccess> = Vec::new();
        // (from, to, position)
        let mut deps: Vec<(u64, u64, Token)> = Vec::new();
        let close = loop {
            let t = self.next();
            match &t.kind {
                Tok::RBrace => break t,
                Tok::Word(w) => match w.as_str() {
                    "iterations" => {
                        self.no_duplicate(iterations.is_some(), "iterations", &scope, &t)?;
                        iterations = Some(self.integer("iterations")?);
                    }
                    "read" | "write" => {
                        let kind = if w == "read" {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        };
                        let (group, group_tok) = self.string("group name")?;
                        let mut weight: Option<f64> = None;
                        let mut burst = false;
                        loop {
                            match &self.peek().kind {
                                Tok::Word(o) if o == "weight" => {
                                    let wt = self.next();
                                    self.no_duplicate(weight.is_some(), "weight", "access", &wt)?;
                                    weight = Some(self.number("weight")?.0);
                                }
                                Tok::Word(o) if o == "burst" => {
                                    let bt = self.next();
                                    self.no_duplicate(burst, "burst", "access", &bt)?;
                                    burst = true;
                                }
                                _ => break,
                            }
                        }
                        accesses.push(PendingAccess {
                            kind,
                            group,
                            group_tok,
                            weight: weight.unwrap_or(1.0),
                            burst,
                        });
                    }
                    "dep" => {
                        let (from, _) = self.integer("dep")?;
                        let at = self.next();
                        if at.kind != Tok::Arrow {
                            return Err(err(
                                at.line,
                                at.column,
                                format!("`dep` expects `from -> to`, found {}", at.kind.describe()),
                            ));
                        }
                        let (to, _) = self.integer("dep")?;
                        deps.push((from, to, t.clone()));
                    }
                    other => {
                        return Err(err(
                            t.line,
                            t.column,
                            format!(
                                "unknown nest field `{other}`: expected `iterations`, `read`, \
                                 `write` or `dep`"
                            ),
                        ))
                    }
                },
                other => {
                    return Err(err(
                        t.line,
                        t.column,
                        format!("expected a nest field or `}}`, found {}", other.describe()),
                    ))
                }
            }
        };
        let (iterations, iter_tok) = iterations.ok_or_else(|| {
            err(
                close.line,
                close.column,
                format!("{scope}: missing `iterations`"),
            )
        })?;
        let nest_id = builder
            .loop_nest(name, iterations)
            .map_err(|e| err(iter_tok.line, iter_tok.column, e.to_string()))?;
        let mut ids: Vec<AccessId> = Vec::with_capacity(accesses.len());
        for a in accesses {
            let group = builder.group_id(&a.group).ok_or_else(|| {
                err(
                    a.group_tok.line,
                    a.group_tok.column,
                    format!("unknown group `{}`", a.group),
                )
            })?;
            let id = builder
                .access_full(nest_id, group, a.kind, a.weight, a.burst)
                .map_err(|e| err(a.group_tok.line, a.group_tok.column, e.to_string()))?;
            ids.push(id);
        }
        for (from, to, at) in deps {
            let resolve = |i: u64| usize::try_from(i).ok().and_then(|i| ids.get(i).copied());
            let (from_id, to_id) = match (resolve(from), resolve(to)) {
                (Some(f), Some(t)) => (f, t),
                _ => {
                    return Err(err(
                        at.line,
                        at.column,
                        format!(
                            "dep {from} -> {to}: access index out of range ({scope} has {} \
                             accesses)",
                            ids.len()
                        ),
                    ))
                }
            };
            builder
                .depend(nest_id, from_id, to_id)
                .map_err(|e| err(at.line, at.column, e.to_string()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_text::print_spec;

    const DEMO: &str = r#"
# Full-search motion estimation, trimmed.
spec v1 "demo" {
  cycle_budget 100000
  real_time_seconds 0.01
  group "x" { words 1024 bitwidth 8 }
  group "frame" {
    words 65536
    bitwidth 16
    placement off_chip
    min_ports 2
  }
  nest "scan" {
    iterations 4096
    read "x"
    write "frame" weight 0.5 burst
    dep 0 -> 1
  }
}
"#;

    #[test]
    fn parses_the_demo_spec() {
        let spec = parse_spec(DEMO).unwrap();
        assert_eq!(spec.name(), "demo");
        assert_eq!(spec.cycle_budget(), 100_000);
        assert_eq!(spec.real_time_seconds(), 0.01);
        assert_eq!(spec.basic_groups().len(), 2);
        let frame = spec.group_by_name("frame").unwrap();
        assert_eq!(frame.placement(), Placement::OffChip);
        assert_eq!(frame.min_ports(), 2);
        let nest = &spec.loop_nests()[0];
        assert_eq!(nest.iterations(), 4096);
        assert_eq!(nest.accesses().len(), 2);
        assert_eq!(nest.accesses()[1].weight(), 0.5);
        assert!(nest.accesses()[1].is_burst());
        assert_eq!(nest.dependencies().len(), 1);
    }

    #[test]
    fn round_trips_through_the_printer() {
        let spec = parse_spec(DEMO).unwrap();
        let printed = print_spec(&spec);
        let reparsed = parse_spec(&printed).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.content_hash(), reparsed.content_hash());
        // The canonical form is a fixed point.
        assert_eq!(printed, print_spec(&reparsed));
    }

    #[test]
    fn an_overflowing_critical_path_is_refused() {
        let text = r#"
spec v1 "wrap" {
  cycle_budget 10
  group "g" { words 16 bitwidth 8 }
  nest "l" {
    iterations 9223372036854775808
    read "g"
    write "g"
    dep 0 -> 1
  }
}
"#;
        let e = parse_spec(text).unwrap_err();
        assert_eq!((e.line(), e.column()), (3, 16));
        assert!(e.message().contains("critical path"), "{e}");
    }

    #[test]
    fn unknown_version_is_refused_with_position() {
        let e = parse_spec("spec v2 \"x\" {}").unwrap_err();
        assert_eq!((e.line(), e.column()), (1, 6));
        assert!(e.message().contains("unsupported spec version `v2`"), "{e}");
    }

    #[test]
    fn missing_required_fields_name_the_scope() {
        let e = parse_spec("spec v1 \"x\" {\n  group \"g\" { words 4 }\n}").unwrap_err();
        assert_eq!((e.line(), e.column()), (2, 23));
        assert_eq!(e.message(), "group `g`: missing `bitwidth`");

        let e = parse_spec("spec v1 \"x\" {\n}").unwrap_err();
        assert_eq!((e.line(), e.column()), (2, 1));
        assert_eq!(e.message(), "spec `x`: missing `cycle_budget`");
    }

    #[test]
    fn duplicate_fields_are_rejected_in_place() {
        let e = parse_spec("spec v1 \"x\" {\n  cycle_budget 5\n  cycle_budget 6\n}").unwrap_err();
        assert_eq!((e.line(), e.column()), (3, 3));
        assert_eq!(e.message(), "duplicate `cycle_budget` in spec `x`");
    }

    #[test]
    fn builder_rejections_are_positioned_on_the_declaration() {
        // Duplicate group name: flagged at the second name literal.
        let text = "spec v1 \"x\" {\n  cycle_budget 5\n  group \"g\" { words 1 bitwidth 1 }\n  group \"g\" { words 2 bitwidth 2 }\n}";
        let e = parse_spec(text).unwrap_err();
        assert_eq!((e.line(), e.column()), (4, 9));
        assert!(e.message().contains("declared twice"), "{e}");

        // Infeasible budget: flagged at the budget value.
        let text = "spec v1 \"x\" {\n  cycle_budget 1\n  group \"g\" { words 1 bitwidth 1 }\n  nest \"n\" {\n    iterations 5\n    read \"g\"\n  }\n}";
        let e = parse_spec(text).unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.message().contains("cycle budget"), "{e}");
    }

    #[test]
    fn dep_bounds_and_cycles_are_diagnosed() {
        let base = "spec v1 \"x\" {\n  cycle_budget 100\n  group \"g\" { words 1 bitwidth 1 }\n  nest \"n\" {\n    iterations 1\n    read \"g\"\n    write \"g\"\n";
        let e = parse_spec(&format!("{base}    dep 0 -> 7\n  }}\n}}")).unwrap_err();
        assert_eq!((e.line(), e.column()), (8, 5));
        assert!(e.message().contains("out of range"), "{e}");

        let e = parse_spec(&format!("{base}    dep 0 -> 1\n    dep 1 -> 0\n  }}\n}}")).unwrap_err();
        assert_eq!((e.line(), e.column()), (9, 5));
        assert!(e.message().contains("dependency cycle"), "{e}");
    }

    #[test]
    fn lexer_failures_never_panic() {
        for text in [
            "",
            "spec",
            "spec v1",
            "spec v1 \"x\"",
            "spec v1 \"x\" {",
            "spec v1 \"x\" { cycle_budget }",
            "spec v1 \"x\" { cycle_budget 1 } trailing",
            "spec v1 \"unterminated",
            "spec v1 \"bad\\q\" {}",
            "spec v1 \"x\" @ {}",
            "spec v1 \"x\" { group \"g\" { words -3 bitwidth 1 } cycle_budget 1 }",
            "spec v1 \"x\" { - }",
            "spec v1 \"x\" { cycle_budget 99999999999999999999999999 }",
        ] {
            let e = parse_spec(text).unwrap_err();
            assert!(e.line() >= 1 && e.column() >= 1, "{text:?}: {e}");
        }
    }

    #[test]
    fn comments_and_negative_exponent_numbers_lex() {
        let text = "# header\nspec v1 \"x\" { # inline\n  cycle_budget 10\n  real_time_seconds 1.5e-2\n  group \"g\" { words 1 bitwidth 1 }\n}";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.real_time_seconds(), 1.5e-2);
    }
}
