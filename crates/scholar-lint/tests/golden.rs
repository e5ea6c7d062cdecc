//! Golden-file tests: each fixture workspace under `tests/fixtures/` is
//! scanned by the real engine and its full diagnostic transcript is
//! compared, byte for byte, against the checked-in `expected.txt`.
//!
//! The fixtures double as the rule-behavior spec: every rule has a case
//! proving it fires on violations, does NOT fire inside string literals,
//! comments, or `#[cfg(test)]` code, and respects (or reports) allow
//! comments. Regenerate a transcript after an intentional rule change
//! with `UPDATE_GOLDEN=1 cargo test -p scholar-lint --test golden`.

use std::path::{Path, PathBuf};

fn fixture_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(case)
}

fn transcript(case: &str) -> String {
    let diags = scholar_lint::check_workspace(&fixture_root(case))
        .unwrap_or_else(|e| panic!("scanning fixture {case:?} failed: {e}"));
    let mut out = String::new();
    for d in &diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

fn assert_golden(case: &str) {
    let got = transcript(case);
    let golden = fixture_root(case).join("expected.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &got).expect("write golden transcript");
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
    assert_eq!(
        got, want,
        "fixture {case:?} diverged from its golden transcript \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

#[test]
fn determinism_fixture_matches_golden() {
    assert_golden("determinism");
}

#[test]
fn hotpath_fixture_matches_golden() {
    assert_golden("hotpath");
}

#[test]
fn failpoint_drift_fixture_matches_golden() {
    assert_golden("failpoint");
}

#[test]
fn safety_fixture_matches_golden() {
    assert_golden("safety");
}

#[test]
fn lock_order_fixture_matches_golden() {
    assert_golden("lockorder");
}

#[test]
fn atomic_ordering_fixture_matches_golden() {
    assert_golden("atomic");
}

#[test]
fn durability_fixture_matches_golden() {
    assert_golden("durability");
}

#[test]
fn event_loop_fixture_matches_golden() {
    assert_golden("eventloop");
}

#[test]
fn stale_allow_fixture_matches_golden() {
    assert_golden("allowstale");
}

/// The acceptance property behind the golden transcripts, stated
/// directly: rules never fire on banned names that appear only inside
/// string literals or comments.
#[test]
fn literals_and_comments_never_fire() {
    for case in ["determinism", "hotpath", "safety"] {
        let got = transcript(case);
        for line in got.lines() {
            // Every diagnostic line in the goldens points at real code;
            // the fixture lines holding only strings/comments are known.
            assert!(!line.contains("never fire"), "fired inside a literal/comment: {line}");
        }
    }
}

/// FAILPOINT-SYNC drift detection, asserted semantically on top of the
/// golden bytes: a code site absent from the catalogue and the docs is
/// reported against the code line, and stale catalogue/doc entries are
/// reported against their own files.
#[test]
fn failpoint_drift_is_reported_in_every_direction() {
    let got = transcript("failpoint");
    assert!(got.contains("\"drift.new\" is missing from scholar_testkit::fp::SITES"));
    assert!(got.contains("\"drift.new\" is not documented"));
    assert!(got.contains("fp::SITES lists \"stale.gone\""));
    assert!(got.contains("documents site \"stale.doc\""));
    assert!(!got.contains("serve.good"), "the in-sync site must stay silent:\n{got}");
    assert!(!got.contains("outside.section"), "sites outside §2.7 must not count:\n{got}");
}
