//! **BLOCKING-IN-EVENT-LOOP** — nothing reachable from the epoll
//! handler may block the event thread.
//!
//! The roots are the functions named `drive` in `scholar-serve` (the
//! server's event loop — a naming convention this rule
//! makes load-bearing). From there the call graph is walked, and every
//! reachable function is scanned for operations that can stall the
//! loop:
//!
//! - fsync (`.sync_all()`, `.sync_data()`) — milliseconds per call,
//!   the whole point of moving durability off the accept path;
//! - blocking lock acquisitions (zero-arg `.lock()`/`.read()`/
//!   `.write()`; `try_*` is fine — it returns immediately);
//! - unbounded reads (`.read_to_end(…)`, `.read_to_string(…)`) — an
//!   attacker-paced allocation loop;
//! - filesystem calls (`fs::…`, `File::open`/`create`) — every one is
//!   a potential disk stall.
//!
//! Each finding carries the call chain from `drive` so the fix (move
//! the work to another thread, or break the edge) is obvious. The rule
//! is reachability-based, so a false edge in the call graph can
//! manufacture a finding — the graph therefore refuses ambiguous
//! names, and the allowlist takes the residue with a bounding
//! argument.

use crate::callgraph::CallGraph;
use crate::items::{next_code, prev_code, FnTable};
use crate::lexer::TokenKind;
use crate::workspace::Workspace;
use crate::Diagnostic;

/// Methods that fsync — always banned on the event thread.
const SYNC_METHODS: [&str; 2] = ["sync_all", "sync_data"];
/// Zero-arg blocking lock acquisitions.
const BLOCKING_LOCKS: [&str; 3] = ["lock", "read", "write"];
/// Unbounded-allocation reads.
const UNBOUNDED_READS: [&str; 2] = ["read_to_end", "read_to_string"];
/// Path-call qualifiers that mean "filesystem".
const FS_QUALIFIERS: [&str; 2] = ["fs", "File"];

/// Walk from every `drive` in `scholar-serve`; flag blocking ops in
/// reachable functions.
pub fn check(ws: &Workspace, table: &FnTable, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let roots: Vec<usize> = table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name == "drive" && f.crate_name.as_deref() == Some("scholar-serve"))
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let seen = graph.reach_parents(&roots);
    for (id, item) in table.fns.iter().enumerate() {
        if seen[id].is_none() {
            continue;
        }
        let file = &ws.files[item.file];
        let toks = &file.tokens;
        for i in item.body.clone() {
            let t = &toks[i];
            if t.kind != TokenKind::Ident
                || file.test_mask[i]
                || table.innermost_at(item.file, i) != Some(id)
            {
                continue;
            }
            let Some(open) = next_code(toks, i + 1) else { continue };
            if !toks[open].is_punct("(") {
                continue;
            }
            let prev = prev_code(toks, i).map(|p| &toks[p]);
            if prev.is_some_and(|p| p.is_ident("fn") || p.is_punct("!") || p.is_punct("#")) {
                continue;
            }
            let name = t.text.as_str();
            let is_method = prev.is_some_and(|p| p.is_punct("."));
            let is_path = prev.is_some_and(|p| p.is_punct("::"));
            let what = if is_method && SYNC_METHODS.contains(&name) {
                Some("fsyncs")
            } else if is_method && UNBOUNDED_READS.contains(&name) {
                Some("performs an unbounded read")
            } else if is_method && BLOCKING_LOCKS.contains(&name) && zero_arg(toks, open) {
                Some("takes a blocking lock")
            } else if is_path && fs_qualified(toks, i) {
                Some("touches the filesystem")
            } else {
                None
            };
            let Some(what) = what else { continue };
            let chain = chain_to(table, &seen, id);
            out.push(Diagnostic::new(
                &file.rel_path,
                t.line,
                t.col,
                "BLOCKING-IN-EVENT-LOOP",
                format!(
                    "`{name}` {what} but is reachable from the epoll event loop ({chain}) — \
                     the event thread must never stall; move this off the hot path, or \
                     allowlist with the argument that bounds it"
                ),
            ));
        }
    }
}

/// Is the paren group opening at `open` empty?
fn zero_arg(toks: &[crate::lexer::Token], open: usize) -> bool {
    next_code(toks, open + 1).is_some_and(|j| toks[j].is_punct(")"))
}

/// Does the path call at name token `i` have an `fs`/`File` qualifier
/// segment (e.g. `std::fs::rename`, `File::open`)?
fn fs_qualified(toks: &[crate::lexer::Token], i: usize) -> bool {
    let mut j = prev_code(toks, i);
    while let Some(colon) = j {
        if !toks[colon].is_punct("::") {
            break;
        }
        let Some(seg) = prev_code(toks, colon) else { break };
        if toks[seg].kind != TokenKind::Ident {
            break;
        }
        if FS_QUALIFIERS.contains(&toks[seg].text.as_str()) {
            return true;
        }
        j = prev_code(toks, seg);
    }
    false
}

/// Render the call chain from the nearest root to fn `id`.
fn chain_to(
    table: &FnTable,
    seen: &[Option<Option<(usize, crate::callgraph::Call)>>],
    id: usize,
) -> String {
    let mut names = vec![table.fns[id].name.clone()];
    let mut cur = id;
    for _ in 0..16 {
        match seen[cur] {
            Some(Some((parent, _))) => {
                names.push(table.fns[parent].name.clone());
                cur = parent;
            }
            _ => break,
        }
    }
    names.reverse();
    names.join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace {
            root: PathBuf::new(),
            files: files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect(),
            design: None,
        };
        let table = FnTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let mut out = Vec::new();
        check(&ws, &table, &graph, &mut out);
        out
    }

    #[test]
    fn fsync_reachable_from_drive_is_flagged_with_chain() {
        let src = "fn drive(&mut self) { self.flush_one(); }\n\
                   fn flush_one(&mut self) { self.file.sync_all(); }";
        let d = run(&[("crates/scholar-serve/src/e.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("drive -> flush_one"), "{}", d[0].message);
    }

    #[test]
    fn unreachable_fsync_is_fine() {
        let src = "fn drive(&mut self) { self.answer(); }\n\
                   fn answer(&mut self) {}\n\
                   fn snapshot(&mut self) { self.file.sync_all(); }";
        let d = run(&[("crates/scholar-serve/src/e.rs", src)]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn blocking_lock_flagged_try_lock_not() {
        let src = "fn drive(&mut self) { self.sample(); }\n\
                   fn sample(&self) { if self.ring.try_lock().is_ok() {} let g = self.state.lock(); }";
        let d = run(&[("crates/scholar-serve/src/e.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("blocking lock"));
    }

    #[test]
    fn fs_calls_and_unbounded_reads_flagged() {
        let src = "fn drive(&mut self) { fs::read_to_string(p); s.read_to_end(&mut buf); }";
        let d = run(&[("crates/scholar-serve/src/e.rs", src)]);
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn other_crates_drive_is_not_a_root() {
        let src = "fn drive(&mut self) { self.file.sync_all(); }";
        let d = run(&[("crates/sgraph/src/e.rs", src)]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn io_read_with_buffer_is_not_a_lock() {
        let src = "fn drive(&mut self) { self.conn.read(&mut buf); }";
        let d = run(&[("crates/scholar-serve/src/e.rs", src)]);
        assert!(d.is_empty(), "buffered read() is I/O, not a lock: {d:?}");
    }
}
