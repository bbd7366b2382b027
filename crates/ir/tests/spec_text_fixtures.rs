//! Parser failure-mode fixtures: each malformed spec file produces the
//! documented diagnostic — exact line and column pinned — and never a
//! panic.

use memx_ir::{parse_spec, print_spec};

const UNKNOWN_VERSION: &str = include_str!("fixtures/unknown_version.mxspec");
const DUPLICATE_FIELD: &str = include_str!("fixtures/duplicate_field.mxspec");
const TRUNCATED: &str = include_str!("fixtures/truncated.mxspec");
const MALFORMED: &str = include_str!("fixtures/malformed.mxspec");
const VALID_MINIMAL: &str = include_str!("fixtures/valid_minimal.mxspec");

#[test]
fn unknown_version_fixture_names_the_supported_revision() {
    let e = parse_spec(UNKNOWN_VERSION).unwrap_err();
    assert_eq!((e.line(), e.column()), (2, 6), "{e}");
    assert_eq!(
        e.message(),
        "unsupported spec version `v3`: this build reads v1"
    );
}

#[test]
fn duplicate_field_fixture_points_at_the_second_occurrence() {
    let e = parse_spec(DUPLICATE_FIELD).unwrap_err();
    assert_eq!((e.line(), e.column()), (3, 3), "{e}");
    assert_eq!(e.message(), "duplicate `cycle_budget` in spec `dup`");
}

#[test]
fn truncated_fixture_reports_end_of_input_in_the_open_block() {
    let e = parse_spec(TRUNCATED).unwrap_err();
    assert_eq!((e.line(), e.column()), (5, 1), "{e}");
    assert_eq!(
        e.message(),
        "expected a group field or `}`, found end of input"
    );
}

#[test]
fn malformed_fixture_pins_the_stray_character() {
    let e = parse_spec(MALFORMED).unwrap_err();
    assert_eq!((e.line(), e.column()), (2, 20), "{e}");
    assert_eq!(e.message(), "unexpected character `@`");
}

#[test]
fn valid_fixture_parses_and_round_trips() {
    let spec = parse_spec(VALID_MINIMAL).expect("control fixture parses");
    assert_eq!(spec.name(), "minimal");
    let reparsed = parse_spec(&print_spec(&spec)).expect("canonical form parses");
    assert_eq!(spec, reparsed);
    assert_eq!(spec.content_hash(), reparsed.content_hash());
}

// No malformed input may escape the diagnostic path: every prefix of
// every fixture either parses or returns a positioned error. This is a
// poor man's fuzz pass over realistic truncation points.
#[test]
fn every_fixture_prefix_errors_gracefully() {
    for fixture in [
        UNKNOWN_VERSION,
        DUPLICATE_FIELD,
        TRUNCATED,
        MALFORMED,
        VALID_MINIMAL,
    ] {
        for end in 0..=fixture.len() {
            if !fixture.is_char_boundary(end) {
                continue;
            }
            if let Err(e) = parse_spec(&fixture[..end]) {
                assert!(e.line() >= 1 && e.column() >= 1, "unpositioned: {e}");
                assert!(!e.message().is_empty());
            }
        }
    }
}
