//! The rule set. Each rule is a function from the loaded
//! [`Workspace`] to diagnostics; [`run_all`] is the engine's whole
//! dispatch. Rules only see production code — tokens inside
//! `#[cfg(test)]` items are masked out by [`crate::source`] — and never
//! see the inside of string literals or comments, by construction of
//! the lexer.
//!
//! The interprocedural rules (LOCK-ORDER, DURABILITY-PROTOCOL,
//! BLOCKING-IN-EVENT-LOOP) share one [`FnTable`] and [`CallGraph`]
//! built here, so the workspace is item-parsed and name-resolved
//! exactly once per run.

pub mod atomic_ordering;
pub mod determinism;
pub mod durability;
pub mod event_loop;
pub mod failpoint_sync;
pub mod hotpath;
pub mod lock_order;
pub mod safety;

use crate::callgraph::CallGraph;
use crate::items::FnTable;
use crate::workspace::Workspace;
use crate::Diagnostic;

/// Run every rule.
pub fn run_all(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    determinism::check(ws, out);
    hotpath::check(ws, out);
    failpoint_sync::check(ws, out);
    safety::check(ws, out);
    atomic_ordering::check(ws, out);
    let table = FnTable::build(ws);
    let graph = CallGraph::build(ws, &table);
    lock_order::check(ws, &table, &graph, out);
    durability::check(ws, &table, &graph, out);
    event_loop::check(ws, &table, &graph, out);
}
