//! `scholar-lint` CLI: `cargo run -p scholar-lint -- check [--root DIR]
//! [--json]`.
//!
//! Prints one `file:line:col [RULE-ID] message` line per finding and
//! exits 1 when any survive the allowlist — the shape CI's lint step
//! and editors both understand. `--json` writes a machine-readable
//! array to stdout (the human lines move to stderr) so CI can archive
//! the findings as an artifact and grep them into the job summary.
//! `rules` lists the rule set.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for (id, what) in RULE_SUMMARIES {
                println!("{id:23} {what}");
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: scholar-lint check [--root DIR] [--json] | scholar-lint rules");
            ExitCode::from(2)
        }
    }
}

const RULE_SUMMARIES: [(&str, &str); 10] = [
    (
        "DETERMINISM",
        "no HashMap/HashSet/RandomState/SystemTime/Instant::now in score-producing crates",
    ),
    (
        "HOTPATH-PANIC",
        "no unwrap/expect/panic!-family/slice-index in scholar-serve production code",
    ),
    ("FAILPOINT-SYNC", "failpoint! sites == scholar_testkit::fp::SITES == DESIGN.md §2.7 table"),
    ("SAFETY-COMMENT", "every unsafe carries an adjacent // SAFETY: comment"),
    ("LOCK-ORDER", "the call-graph-propagated lock acquisition digraph stays acyclic"),
    (
        "ATOMIC-ORDERING",
        "Ordering::Relaxed in serve/publish crates needs // ORDERING:; publish/consume pairs agree",
    ),
    (
        "DURABILITY-PROTOCOL",
        "rename reaches fsync of file (before) + dir (after), transitively; WAL append fsyncs before send",
    ),
    (
        "BLOCKING-IN-EVENT-LOOP",
        "no fsync/blocking lock/unbounded read/fs call reachable from the epoll drive loop",
    ),
    ("ALLOW-SYNTAX", "lint: allow(...) comments must name a real rule and carry a reason"),
    ("ALLOW-UNUSED", "allows that no longer suppress anything must be deleted"),
];

fn check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    match scholar_lint::check_workspace(&root) {
        Ok(diags) => {
            if json {
                println!("{}", render_json(&diags));
                for d in &diags {
                    eprintln!("{d}");
                }
                if !diags.is_empty() {
                    eprintln!("scholar-lint: {} finding(s)", diags.len());
                }
            } else if diags.is_empty() {
                println!("scholar-lint: clean");
            } else {
                for d in &diags {
                    println!("{d}");
                }
                println!("scholar-lint: {} finding(s)", diags.len());
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("scholar-lint: cannot scan {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Render diagnostics as a JSON array — hand-rolled, like everything
/// else in this workspace's tooling (no serde in the dependency graph).
fn render_json(diags: &[scholar_lint::Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.path),
            d.line,
            d.col,
            json_escape(&d.rule),
            json_escape(&d.message),
        ));
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Escape a string for a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
