#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # scholar-lint — workspace invariant checker
//!
//! The reproduction's load-bearing properties — bit-identical ranks at
//! any thread count, a serve path that answers `4xx`/`5xx` instead of
//! panicking, a failpoint catalogue that matches reality — are exactly
//! the invariants `clippy` cannot see, because they are *this
//! workspace's* contracts, not the language's. This crate is a
//! dependency-free static-analysis pass that encodes them as eight
//! machine-checked rules over a hand-rolled, literal-aware Rust lexer —
//! four token-level, and four interprocedural rules over a
//! name-resolved workspace call graph ([`items`] + [`callgraph`]):
//!
//! | rule | invariant |
//! |---|---|
//! | `DETERMINISM` | no `HashMap`/`HashSet`/`RandomState`/`SystemTime`/`Instant::now` in the score-producing crates (`sgraph`, `scholar-rank`, `core`) — `srand` is the only sanctioned randomness |
//! | `HOTPATH-PANIC` | no `unwrap`/`expect`/`panic!`-family/slice-index in `scholar-serve` production code — errors must flow to the 4xx/5xx counters |
//! | `FAILPOINT-SYNC` | `failpoint!` sites in code ≡ `scholar_testkit::fp::SITES` ≡ the DESIGN.md §2.7 table, bijectively |
//! | `SAFETY-COMMENT` | every `unsafe` is preceded (or trailed on its line) by a `// SAFETY:` comment |
//! | `LOCK-ORDER` | the workspace's Mutex/RwLock acquisition digraph, propagated through the call graph, stays acyclic — no potential deadlocks |
//! | `ATOMIC-ORDERING` | every `Ordering::Relaxed` in the serve/score-publishing crates carries a reasoned `// ORDERING:` comment, and publish/consume pairs on one atomic field use Release/Acquire-compatible orderings |
//! | `DURABILITY-PROTOCOL` | rename-into-published-path reaches fsync of file (before) and directory (after), transitively; WAL append fsyncs before the send |
//! | `BLOCKING-IN-EVENT-LOOP` | no fsync / blocking lock / unbounded read / filesystem call reachable from the epoll `drive` loop |
//!
//! Exceptions are spelled in-source — `// lint: allow(RULE-ID) reason`
//! — and are themselves policed: a missing reason is `ALLOW-SYNTAX`, an
//! allow that suppresses nothing is `ALLOW-UNUSED`. See [`source`] for
//! the exact syntax.
//!
//! Run it three ways: `cargo run -p scholar-lint -- check` (CI's lint
//! step), the workspace test in `tests/workspace_clean.rs` (fails the
//! default test suite on any undocumented diagnostic), or
//! [`check_workspace`] from code.

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

use source::AllowScope;
use std::fmt;
use std::io;
use std::path::Path;
use workspace::Workspace;

/// The rule identifiers an allowlist entry may name.
pub const RULES: [&str; 8] = [
    "DETERMINISM",
    "HOTPATH-PANIC",
    "FAILPOINT-SYNC",
    "SAFETY-COMMENT",
    "LOCK-ORDER",
    "ATOMIC-ORDERING",
    "DURABILITY-PROTOCOL",
    "BLOCKING-IN-EVENT-LOOP",
];

/// One finding, rendered as `file:line:col [RULE-ID] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier (one of [`RULES`], `ALLOW-SYNTAX`, or
    /// `ALLOW-UNUSED`).
    pub rule: String,
    /// Human-readable explanation, including how to fix or allowlist.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(path: &str, line: u32, col: u32, rule: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            path: path.to_string(),
            line,
            col,
            rule: rule.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{} [{}] {}", self.path, self.line, self.col, self.rule, self.message)
    }
}

/// Run every rule over the workspace at `root` and return the surviving
/// diagnostics: rule findings not covered by an allowlist entry, plus
/// allowlist hygiene findings (`ALLOW-SYNTAX`, `ALLOW-UNUSED`). Sorted
/// by path, line, column, rule.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let ws = Workspace::load(root)?;
    let mut raw = Vec::new();
    rules::run_all(&ws, &mut raw);
    let mut out = apply_allows(&ws, raw);
    for f in &ws.files {
        out.extend(f.allow_issues.iter().cloned());
    }
    out.sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(out)
}

/// Drop diagnostics covered by allowlist entries; report entries that
/// covered nothing.
fn apply_allows(ws: &Workspace, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut used = vec![Vec::new(); ws.files.len()];
    for (fi, f) in ws.files.iter().enumerate() {
        used[fi] = vec![false; f.allows.len()];
    }
    let mut kept = Vec::new();
    'diags: for d in raw {
        if let Some(fi) = ws.files.iter().position(|f| f.rel_path == d.path) {
            for (ai, a) in ws.files[fi].allows.iter().enumerate() {
                let covers = a.rule == d.rule
                    && match a.scope {
                        AllowScope::File => true,
                        AllowScope::Line(l) => l == d.line,
                    };
                if covers {
                    used[fi][ai] = true;
                    continue 'diags;
                }
            }
        }
        kept.push(d);
    }
    for (fi, f) in ws.files.iter().enumerate() {
        for (ai, a) in f.allows.iter().enumerate() {
            if !used[fi][ai] {
                kept.push(Diagnostic::new(
                    &f.rel_path,
                    a.line,
                    a.col,
                    "ALLOW-UNUSED",
                    format!(
                        "allow({}) suppresses nothing — the violation it excused is gone; delete the allow",
                        a.rule
                    ),
                ));
            }
        }
    }
    kept
}
