//! **HOTPATH-PANIC** — the serve path must answer, never die.
//!
//! A panic anywhere between accept and respond either kills an
//! event-loop shard (and with it every connection the shard holds) or
//! burns a `catch_unwind` converting it to a `500` that proper error
//! flow would have made a precise `4xx`. The serving contract is that every
//! failure reaches the client as a status code and the `/metrics`
//! counters as an increment — so `scholar-serve` production code may
//! not `unwrap`/`expect`, may not `panic!` (or its `unreachable!` /
//! `todo!` / `unimplemented!` siblings), and may not index slices
//! (`xs[i]` panics; `xs.get(i)` flows).
//!
//! `assert!` is deliberately *not* banned: construction-time contracts
//! (`ScoreIndex::build`) run at publish time, not per-request, and a
//! loud publish failure beats serving a corrupt index. Sites whose
//! bounds are guaranteed by construction carry
//! `// lint: allow(HOTPATH-PANIC) <the bounding invariant>` — the
//! allowlist doubles as the audit trail.

use crate::lexer::TokenKind;
use crate::workspace::Workspace;
use crate::Diagnostic;

/// The crate whose production code is the request path.
pub const HOTPATH_CRATE: &str = "scholar-serve";

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede a `[` that is *not* an index
/// (`for x in [..]`, `return [..]`, `impl Trait for [T]`, …).
const KEYWORDS_BEFORE_BRACKET: [&str; 14] = [
    "in", "return", "break", "for", "if", "else", "match", "impl", "as", "dyn", "mut", "ref",
    "move", "where",
];

/// Flag panic sources in `scholar-serve` production code.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        let in_scope =
            file.crate_name.as_deref() == Some(HOTPATH_CRATE) && file.rel_path.contains("/src/");
        if !in_scope {
            continue;
        }
        let code: Vec<(usize, &crate::lexer::Token)> = file.code_tokens().collect();
        for (k, (_, tok)) in code.iter().enumerate() {
            let prev = k.checked_sub(1).and_then(|p| code.get(p)).map(|(_, t)| *t);
            let next = code.get(k + 1).map(|(_, t)| *t);
            // `.unwrap()` / `.expect(` as method calls.
            if (tok.is_ident("unwrap") || tok.is_ident("expect"))
                && prev.is_some_and(|t| t.is_punct("."))
                && next.is_some_and(|t| t.is_punct("("))
            {
                out.push(Diagnostic::new(
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    "HOTPATH-PANIC",
                    format!(
                        ".{}() in the serve path can panic; return an error that reaches the \
                         4xx/5xx counters (or recover, e.g. PoisonError::into_inner)",
                        tok.text
                    ),
                ));
            }
            // panic!-family macros.
            if PANIC_MACROS.iter().any(|m| tok.is_ident(m)) && next.is_some_and(|t| t.is_punct("!"))
            {
                out.push(Diagnostic::new(
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    "HOTPATH-PANIC",
                    format!(
                        "{}! in the serve path kills the request (at best a recorded 500); \
                         make the failure a status code instead",
                        tok.text
                    ),
                ));
            }
            // Index expressions: `[` in index position — the previous
            // token is a value (ident, `)`, or `]`). Array types
            // (`: [u64; 3]`), attributes (`#[…]`), macro brackets
            // (`vec![…]`), and slice patterns all have non-value
            // predecessors and are not flagged.
            if tok.is_punct("[")
                && prev.is_some_and(|t| {
                    (t.kind == TokenKind::Ident
                        && !KEYWORDS_BEFORE_BRACKET.contains(&t.text.as_str()))
                        || t.kind == TokenKind::Num
                        || t.kind == TokenKind::Str
                        || t.is_punct(")")
                        || t.is_punct("]")
                })
            {
                out.push(Diagnostic::new(
                    &file.rel_path,
                    tok.line,
                    tok.col,
                    "HOTPATH-PANIC",
                    "slice/array index in the serve path panics out of bounds; use .get() \
                     (or allowlist with the invariant that bounds it)"
                        .to_string(),
                ));
            }
        }
    }
}
