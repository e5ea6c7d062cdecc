//! **LOCK-ORDER** — the workspace's lock digraph must stay acyclic.
//!
//! Every `Mutex`/`RwLock` acquisition (`.lock()`, `.read()`, `.write()`
//! with empty parens — the I/O traits' methods take buffers, so the
//! zero-arg form is the lock form) is extracted per function, with a
//! conservative hold span: a `let`-bound guard lives to the end of its
//! enclosing block; a temporary (the guard is consumed mid-chain, e.g.
//! `self.solves.lock().unwrap().len()`) lives to the end of its
//! statement — which for an `if let`/`match` scrutinee is the end of
//! the whole construct, exactly Rust's temporary-scope rule. A function
//! whose tail expression *returns* the guard (`shadow_read`-style
//! helpers) turns its callers' call sites into acquisition sites.
//!
//! An edge `A → B` means "while holding `A`, something blocked
//! acquiring `B`" — directly, or transitively through the call graph
//! (`try_lock`/`try_read`/`try_write` hold but never block, so they
//! produce spans, not edge targets). A cycle in that digraph is a
//! potential deadlock: two threads entering it from different locks can
//! each hold what the other waits for. Locks are identified as
//! `crate/receiver-field`; two same-named fields in one crate merge
//! into one node (a documented coarseness — rename the field or
//! allowlist).

use crate::callgraph::{block_end, matching_paren, receiver_ident, statement_end, CallGraph};
use crate::items::{next_code, prev_code, FnTable};
use crate::lexer::Token;
use crate::source::SourceFile;
use crate::workspace::Workspace;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const BLOCKING: [&str; 3] = ["lock", "read", "write"];
const NONBLOCKING: [&str; 3] = ["try_lock", "try_read", "try_write"];
/// Guard-preserving adapters: the chain still yields the guard after
/// these, so the binding they feed holds the lock.
const ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// One lock acquisition inside a function.
#[derive(Debug, Clone)]
struct Acq {
    /// `crate/receiver` lock identity.
    lock: String,
    /// Token index of the method-name token.
    tok: usize,
    /// Token index the hold span ends at (inclusive bound).
    span_end: usize,
    /// Whether acquiring blocks (false for `try_*`).
    blocking: bool,
    line: u32,
    col: u32,
}

/// Per-function lock facts.
#[derive(Debug, Default)]
struct FnLocks {
    acqs: Vec<Acq>,
    /// Lock returned as a guard from the tail expression, if any.
    returns_guard: Option<(String, bool)>,
}

/// Check the workspace lock digraph for cycles.
pub fn check(ws: &Workspace, table: &FnTable, graph: &CallGraph, out: &mut Vec<Diagnostic>) {
    let mut per_fn: Vec<FnLocks> = Vec::with_capacity(table.fns.len());
    for id in 0..table.fns.len() {
        per_fn.push(fn_locks(ws, table, id));
    }
    // Calls to guard-returning fns act as acquisitions at the call site.
    let mut extra: Vec<(usize, Acq)> = Vec::new();
    for (caller, calls) in graph.calls.iter().enumerate() {
        for c in calls {
            if let Some((lock, blocking)) = per_fn[c.callee].returns_guard.clone() {
                let file = &ws.files[table.fns[caller].file];
                let tok = &file.tokens[c.tok];
                extra.push((
                    caller,
                    Acq {
                        lock,
                        tok: c.tok,
                        span_end: guard_span(file, c.tok, true),
                        blocking,
                        line: tok.line,
                        col: tok.col,
                    },
                ));
            }
        }
    }
    for (caller, acq) in extra {
        per_fn[caller].acqs.push(acq);
    }

    // The set of locks each fn acquires blocking, transitively (fixpoint).
    let mut sets: Vec<BTreeSet<String>> = per_fn
        .iter()
        .map(|fl| fl.acqs.iter().filter(|a| a.blocking).map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for f in 0..graph.calls.len() {
            for ci in 0..graph.calls[f].len() {
                let callee = graph.calls[f][ci].callee;
                let add: Vec<String> =
                    sets[callee].iter().filter(|l| !sets[f].contains(*l)).cloned().collect();
                if !add.is_empty() {
                    sets[f].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges with a witness site per (from, to); the lexicographically
    // smallest witness is kept so diagnostics are stable across runs.
    type Witness = (String, u32, u32, String);
    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, w: Witness| {
        if from == to {
            return; // reentrant same-lock holds are out of scope here
        }
        let key = (from.to_string(), to.to_string());
        match edges.get(&key) {
            Some(old) if *old <= w => {}
            _ => {
                edges.insert(key, w);
            }
        }
    };
    for (f, fl) in per_fn.iter().enumerate() {
        let item = &table.fns[f];
        let file = &ws.files[item.file];
        for a in &fl.acqs {
            // Direct later blocking acquisitions inside the hold span.
            for b in &fl.acqs {
                if b.blocking && b.tok > a.tok && b.tok <= a.span_end {
                    add_edge(
                        &a.lock,
                        &b.lock,
                        (file.rel_path.clone(), b.line, b.col, item.name.clone()),
                    );
                }
            }
            // Calls inside the hold span pull in the callee's lock set.
            for c in &graph.calls[f] {
                if c.tok > a.tok && c.tok <= a.span_end {
                    let ctok = &file.tokens[c.tok];
                    for m in &sets[c.callee] {
                        add_edge(
                            &a.lock,
                            m,
                            (file.rel_path.clone(), ctok.line, ctok.col, item.name.clone()),
                        );
                    }
                }
            }
        }
    }

    report_cycles(&edges, out);
}

/// Extract acquisitions (and a tail-returned guard) from one fn body.
fn fn_locks(ws: &Workspace, table: &FnTable, id: usize) -> FnLocks {
    let item = &table.fns[id];
    let file = &ws.files[item.file];
    let toks = &file.tokens;
    let krate = item.crate_name.as_deref().unwrap_or("?");
    let mut fl = FnLocks::default();
    for i in item.body.clone() {
        let t = &toks[i];
        if t.is_comment() || file.test_mask[i] {
            continue;
        }
        let blocking = BLOCKING.contains(&t.text.as_str());
        let nonblocking = NONBLOCKING.contains(&t.text.as_str());
        if !(blocking || nonblocking) || table.innermost_at(item.file, i) != Some(id) {
            continue;
        }
        // Must be a zero-arg method call: `.name()`.
        let Some(open) = next_code(toks, i + 1) else { continue };
        if !toks[open].is_punct("(") {
            continue;
        }
        let Some(close) = next_code(toks, open + 1) else { continue };
        if !toks[close].is_punct(")") {
            continue; // has arguments: io::Read/Write, not a lock
        }
        let Some(prev) = prev_code(toks, i) else { continue };
        if !toks[prev].is_punct(".") {
            continue;
        }
        let Some(receiver) = receiver_ident(toks, i) else { continue };
        // Guard fate: skip adapter calls, then look at what follows.
        let mut end = close;
        while let Some(dot) = next_code(toks, end + 1) {
            if !toks[dot].is_punct(".") {
                break;
            }
            let Some(name) = next_code(toks, dot + 1) else { break };
            if !ADAPTERS.contains(&toks[name].text.as_str()) {
                break;
            }
            let Some(aopen) = next_code(toks, name + 1) else { break };
            if !toks[aopen].is_punct("(") {
                break;
            }
            end = matching_paren(toks, aopen);
        }
        let after = next_code(toks, end + 1);
        if after == Some(item.body.end) {
            // Tail expression of the fn: the guard is returned.
            fl.returns_guard = Some((format!("{krate}/{receiver}"), blocking));
        }
        let bound = after.is_some_and(|j| toks[j].is_punct(";"));
        fl.acqs.push(Acq {
            lock: format!("{krate}/{receiver}"),
            tok: i,
            span_end: guard_span(file, i, bound),
            blocking,
            line: t.line,
            col: t.col,
        });
    }
    fl
}

/// Hold-span end for an acquisition at token `i`. `bound` means the
/// guard survives its own expression (the chain ends at `;`); only a
/// `let`-bound guard gets the enclosing block, everything else ends
/// with its statement — which subsumes `if let`/`match` scrutinee
/// temporaries, since [`statement_end`] runs past balanced braces to
/// the construct's end.
fn guard_span(file: &SourceFile, i: usize, bound: bool) -> usize {
    let toks = &file.tokens;
    if bound && statement_start_kw(toks, i).as_deref() == Some("let") {
        return block_end(toks, i);
    }
    statement_end(toks, i)
}

/// The first token text of the statement containing token `i` (walking
/// back to the previous `;`, `{`, or `}`).
fn statement_start_kw(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    while let Some(p) = prev_code(toks, j) {
        let t = &toks[p];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            let first = next_code(toks, p + 1)?;
            return Some(toks[first].text.clone());
        }
        j = p;
    }
    toks.first().map(|t| t.text.clone())
}

/// Find cycles in the lock digraph and report one diagnostic per cycle.
fn report_cycles(
    edges: &BTreeMap<(String, String), (String, u32, u32, String)>,
    out: &mut Vec<Diagnostic>,
) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    // For each node in sorted order, BFS for a shortest path back to
    // itself; the first node that closes a cycle reports it, and every
    // node on that cycle is marked done so one cycle = one finding.
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut done: BTreeSet<&str> = BTreeSet::new();
    for start in nodes {
        if done.contains(start) {
            continue;
        }
        let Some(cycle) = shortest_cycle(&adj, start) else { continue };
        for n in &cycle {
            done.insert(n);
        }
        // Describe the cycle with each edge's witness site.
        let mut desc = Vec::new();
        for k in 0..cycle.len() {
            let from = cycle[k];
            let to = cycle[(k + 1) % cycle.len()];
            let (f, l, _c, in_fn) = &edges[&(from.to_string(), to.to_string())];
            desc.push(format!("{from} -> {to} at {f}:{l} (in `{in_fn}`)"));
        }
        let (file, line, col, _) = &edges[&(cycle[0].to_string(), cycle[1].to_string())];
        out.push(Diagnostic::new(
            file,
            *line,
            *col,
            "LOCK-ORDER",
            format!(
                "lock-order cycle: {} -> {}; {} — threads entering from different locks can \
                 deadlock; acquire in one global order (or allowlist with the reason the paths \
                 cannot run concurrently)",
                cycle.join(" -> "),
                cycle[0],
                desc.join(", "),
            ),
        ));
    }
}

/// Shortest cycle through `start`, as the node list (without repeating
/// `start` at the end). `None` if no path returns to `start`. Cycles
/// always have ≥ 2 nodes — self-edges are filtered at construction.
fn shortest_cycle<'a>(
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    start: &'a str,
) -> Option<Vec<&'a str>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for &next in adj.get(n).into_iter().flatten() {
            if next == start {
                let mut path = vec![n];
                let mut cur = n;
                while cur != start {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            if !parent.contains_key(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn direct_cycle_in_one_crate_is_reported() {
        let src = "fn ab(&self) { let a = self.alpha.lock().unwrap(); self.beta.lock().unwrap().push(1); }\n\
                   fn ba(&self) { let b = self.beta.lock().unwrap(); self.alpha.lock().unwrap().push(1); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(d.len(), 1, "one cycle, one finding: {d:?}");
        assert!(d[0].message.contains("app/alpha -> app/beta"), "{}", d[0].message);
    }

    #[test]
    fn transitive_cycle_through_a_callee_is_reported() {
        let src = "fn outer(&self) { let a = self.alpha.lock().unwrap(); self.helper(); }\n\
                   fn helper(&self) { self.beta.lock().unwrap().push(1); }\n\
                   fn other(&self) { let b = self.beta.lock().unwrap(); self.alpha.lock().unwrap().push(1); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "fn one(&self) { let a = self.alpha.lock().unwrap(); self.beta.lock().unwrap().push(1); }\n\
                   fn two(&self) { let a = self.alpha.lock().unwrap(); self.beta.lock().unwrap().push(2); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn temporary_guard_span_ends_at_its_statement() {
        // Each lock is released before the other is taken: no edges.
        let src = "fn ab(&self) { self.alpha.lock().unwrap().push(1); self.beta.lock().unwrap().push(1); }\n\
                   fn ba(&self) { self.beta.lock().unwrap().push(1); self.alpha.lock().unwrap().push(1); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert!(d.is_empty(), "statement-scoped temporaries must not overlap: {d:?}");
    }

    #[test]
    fn try_lock_never_becomes_an_edge_target() {
        let src = "fn ab(&self) { let a = self.alpha.lock().unwrap(); let b = self.beta.try_lock(); }\n\
                   fn ba(&self) { let b = self.beta.try_lock(); if b.is_ok() { self.alpha.lock().unwrap().push(1); } }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        // alpha -> beta would need beta *blocking*-acquired; try_lock is
        // not. And beta -> alpha alone is no cycle.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn guard_returning_helper_charges_the_caller() {
        let src = "fn shadow_read(&self) -> G { self.shadow.read().unwrap_or_else(e) }\n\
                   fn a(&self) { let g = self.shadow_read(); self.current.write().unwrap().x(); }\n\
                   fn b(&self) { let c = self.current.write().unwrap(); self.shadow_read().y(); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(d.len(), 1, "shadow->current and current->shadow must cycle: {d:?}");
    }

    #[test]
    fn match_scrutinee_holds_across_arms() {
        let src = "fn ab(&self) { match self.alpha.lock().unwrap().take() { Some(v) => { self.beta.lock().unwrap().push(v); } None => {} } }\n\
                   fn ba(&self) { let b = self.beta.lock().unwrap(); self.alpha.lock().unwrap().push(1); }";
        let d = run(&[("crates/app/src/lib.rs", src)]);
        assert_eq!(d.len(), 1, "scrutinee temporary lives across the arms: {d:?}");
    }
}
