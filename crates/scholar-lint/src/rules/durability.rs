//! **DURABILITY-PROTOCOL** — publishing via `rename` and journaling via
//! the WAL must follow the fsync protocol, transitively.
//!
//! Two contracts, both interprocedural:
//!
//! 1. **tmp → fsync → rename → fsync(dir), in one place**: `rename` may
//!    be called only inside the durable-file kit
//!    (`crates/sgraph/src/sfile.rs`, DESIGN.md §2.14) — anywhere else it
//!    is a hand-rolled publish sequence and a finding, however careful.
//!    Inside the kit, a function that calls `rename` must (a) reach an
//!    fsync of the file content *before* the rename — a direct
//!    `.sync_all()`/`.sync_data()` or a call whose callee transitively
//!    fsyncs — and (b) fsync the parent directory *after* it (directly,
//!    or via a `fsync_dir`/`sync_dir`-named helper). Without (a) a crash
//!    can publish an empty or torn file; without (b) the rename itself
//!    can be lost.
//!
//! 2. **journal-then-send** (PR 9 contract, `scholar-serve` only): a
//!    function that appends to the WAL (`wal.append(…)` by receiver
//!    name) and then hands the batch onward (`.send(…)`) must append
//!    before sending, and the append callee must transitively reach an
//!    fsync — otherwise a crash between the send and the sync acks
//!    work the journal never made durable.
//!
//! "Transitively reaches an fsync" is a fixpoint over the call graph:
//! conservative in the safe direction for (1a), since an unresolved
//! callee simply does not count as syncing.

use crate::callgraph::{receiver_ident, CallGraph};
use crate::items::{next_code, prev_code, FnTable};
use crate::lexer::TokenKind;
use crate::workspace::Workspace;
use crate::Diagnostic;

/// Method names that make file content durable.
const SYNC_METHODS: [&str; 2] = ["sync_all", "sync_data"];
/// Helper-function names that make the *directory entry* durable.
const DIR_SYNC_FNS: [&str; 2] = ["fsync_dir", "sync_dir"];
/// The one file allowed to call `rename`: the durable-file kit.
const KIT_FILE: &str = "crates/sgraph/src/sfile.rs";

/// Run both contracts over the workspace.
pub fn check(ws: &Workspace, table: &FnTable, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let syncs = transitive_sync(ws, table, graph);
    for (id, item) in table.fns.iter().enumerate() {
        let file = &ws.files[item.file];
        let toks = &file.tokens;
        // Token positions of interest inside this fn's body.
        let mut renames = Vec::new();
        let mut sync_positions = Vec::new();
        let mut dir_sync_positions = Vec::new();
        let mut wal_appends = Vec::new();
        let mut sends = Vec::new();
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
            match t.text.as_str() {
                "rename" => renames.push(i),
                m if SYNC_METHODS.contains(&m) => sync_positions.push(i),
                m if DIR_SYNC_FNS.contains(&m) => dir_sync_positions.push(i),
                "append" if receiver_ident(toks, i).as_deref() == Some("wal") => {
                    wal_appends.push(i)
                }
                "send" => sends.push(i),
                _ => {}
            }
        }
        // Calls whose callee transitively fsyncs count as sync points;
        // calls to dir-sync helpers count wherever they resolve to.
        for c in &graph.calls[id] {
            if syncs[c.callee] {
                sync_positions.push(c.tok);
            }
            if DIR_SYNC_FNS.contains(&table.fns[c.callee].name.as_str()) {
                dir_sync_positions.push(c.tok);
            }
        }

        // Contract 1: renames live in the kit, and there every rename
        // needs a sync before and a dir sync after, within this function.
        for &r in &renames {
            let t = &toks[r];
            if file.rel_path != KIT_FILE {
                out.push(Diagnostic::new(
                    &file.rel_path,
                    t.line,
                    t.col,
                    "DURABILITY-PROTOCOL",
                    format!(
                        "`{}` calls `rename` outside the durable-file kit — publish through \
                         `sgraph::sfile` (`TmpFile::publish` / `publish_all`), the one place the \
                         tmp → fsync → rename → fsync(dir) protocol is implemented and verified",
                        item.name
                    ),
                ));
                continue;
            }
            if !sync_positions.iter().any(|&s| s < r) {
                out.push(Diagnostic::new(
                    &file.rel_path,
                    t.line,
                    t.col,
                    "DURABILITY-PROTOCOL",
                    format!(
                        "`{}` renames into a published path without an fsync of the file \
                         content first (directly or via a callee) — a crash can publish an \
                         empty or torn file; sync_all/sync_data the temp file before the rename",
                        item.name
                    ),
                ));
            }
            if !dir_sync_positions.iter().chain(sync_positions.iter()).any(|&s| s > r) {
                out.push(Diagnostic::new(
                    &file.rel_path,
                    t.line,
                    t.col,
                    "DURABILITY-PROTOCOL",
                    format!(
                        "`{}` renames into a published path but never fsyncs the parent \
                         directory afterwards — the rename itself can be lost on crash; open \
                         the directory and sync_all it (see `fsync_dir`)",
                        item.name
                    ),
                ));
            }
        }

        // Contract 2: journal-then-send, serve crate only.
        if item.crate_name.as_deref() != Some("scholar-serve") || wal_appends.is_empty() {
            continue;
        }
        for &s in &sends {
            if !wal_appends.iter().any(|&a| a < s) {
                let t = &toks[s];
                out.push(Diagnostic::new(
                    &file.rel_path,
                    t.line,
                    t.col,
                    "DURABILITY-PROTOCOL",
                    format!(
                        "`{}` sends a batch onward before appending it to the WAL — the \
                         journal-then-send contract requires the append (and its fsync) to \
                         precede the send",
                        item.name
                    ),
                ));
            }
        }
        if !sends.is_empty() {
            // The append must itself be durable: its callee (or this fn,
            // before the send) must reach an fsync.
            let append_syncs = graph.calls[id]
                .iter()
                .any(|c| table.fns[c.callee].name == "append" && syncs[c.callee])
                || wal_appends.iter().any(|&a| {
                    sync_positions.iter().any(|&sp| sp >= a && sends.iter().any(|&s| sp < s))
                });
            if !append_syncs {
                let t = &toks[wal_appends[0]];
                out.push(Diagnostic::new(
                    &file.rel_path,
                    t.line,
                    t.col,
                    "DURABILITY-PROTOCOL",
                    format!(
                        "`{}` appends to the WAL and sends, but the append path never reaches \
                         an fsync — a crash after the send acks work the journal never made \
                         durable",
                        item.name
                    ),
                ));
            }
        }
    }
}

/// For each fn: does it transitively contain a `sync_all`/`sync_data`
/// call? Fixpoint over the call graph.
fn transitive_sync(ws: &Workspace, table: &FnTable, graph: &CallGraph) -> Vec<bool> {
    let mut syncs = vec![false; table.fns.len()];
    for (id, item) in table.fns.iter().enumerate() {
        let file = &ws.files[item.file];
        syncs[id] = item.body.clone().any(|i| {
            let t = &file.tokens[i];
            t.kind == TokenKind::Ident
                && SYNC_METHODS.contains(&t.text.as_str())
                && !file.test_mask[i]
        });
    }
    loop {
        let mut changed = false;
        for id in 0..table.fns.len() {
            if syncs[id] {
                continue;
            }
            if graph.calls[id].iter().any(|c| syncs[c.callee]) {
                syncs[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    syncs
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
    fn compliant_publish_protocol_is_clean() {
        let src = "fn publish(f: &File) -> io::Result<()> {\n\
                   f.sync_all()?;\n\
                   fs::rename(tmp, dst)?;\n\
                   fsync_dir(dir)\n\
                   }\n\
                   fn fsync_dir(d: &Path) -> io::Result<()> { File::open(d)?.sync_all() }";
        let d = run(&[(KIT_FILE, src)]);
        assert!(d.is_empty(), "{d:?}");
        // The same compliant sequence anywhere else is a sixth
        // hand-rolled publish: one finding, naming the kit.
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("outside the durable-file kit"));
    }

    #[test]
    fn rename_without_prior_sync_is_flagged() {
        let src = "fn publish(f: &File) { fs::rename(tmp, dst); fsync_dir(dir); }\n\
                   fn fsync_dir(d: &Path) -> io::Result<()> { File::open(d)?.sync_all() }";
        let d = run(&[(KIT_FILE, src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("empty or torn"));
    }

    #[test]
    fn rename_without_dir_sync_is_flagged() {
        let src = "fn publish(f: &File) { f.sync_all(); fs::rename(tmp, dst); }";
        let d = run(&[(KIT_FILE, src)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("parent"));
    }

    #[test]
    fn sync_through_a_callee_counts() {
        let src = "fn publish(w: &W) { w.finish(); fs::rename(tmp, dst); fsync_dir(d); }\n\
                   fn finish(&self) { self.file.sync_all(); }\n\
                   fn fsync_dir(d: &Path) { File::open(d).sync_all(); }";
        let d = run(&[(KIT_FILE, src)]);
        assert!(d.is_empty(), "callee fsync must satisfy the pre-rename sync: {d:?}");
    }

    #[test]
    fn journal_then_send_requires_append_first_and_durable_append() {
        let ok = "fn submit(&self) { self.wal.append(batch); self.tx.send(batch); }\n\
                  fn append(&mut self, b: B) { self.file.sync_all(); }";
        assert!(run(&[("crates/scholar-serve/src/d.rs", ok)]).is_empty());

        let send_first = "fn submit(&self) { self.tx.send(batch); self.wal.append(batch); }\n\
                          fn append(&mut self, b: B) { self.file.sync_all(); }";
        let d = run(&[("crates/scholar-serve/src/d.rs", send_first)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("before appending"));

        let no_sync = "fn submit(&self) { self.wal.append(batch); self.tx.send(batch); }\n\
                       fn append(&mut self, b: B) { self.buf.push(b); }";
        let d = run(&[("crates/scholar-serve/src/d.rs", no_sync)]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("never reaches an fsync"));
    }

    #[test]
    fn journal_contract_is_serve_scoped() {
        let src = "fn submit(&self) { self.tx.send(batch); self.wal.append(batch); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert!(d.is_empty(), "journal-then-send only binds scholar-serve: {d:?}");
    }
}
