//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call into a layer (`read_jsonl_file`,
//! `QRankEngine::build`, `ScoreIndex::build`, one HTTP exchange, …) in a
//! span; spans inside the program are a later change. A span is a name,
//! start and end in nanoseconds since the recorder's epoch, the span
//! that caused it, and an operation id shared by all spans of one
//! operation (one boot, one request batch, one publish). Counts are
//! attached at the same boundaries. Everything stays in memory until
//! [`Tracer::write_jsonl`] at exit.
//!
//! With tracing off (`--trace 0`) [`Tracer::timed`] still times the call
//! — the metric and the span come from the same two clock reads — but
//! records nothing, so end-to-end numbers never carry recorder cost.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub name: &'static str,
    pub span: Option<SpanId>,
    pub value: f64,
}

/// One thread's recorder. Threads that record concurrently each own one
/// (sharing the epoch via [`Tracer::sibling`]) and are folded together
/// with [`Tracer::absorb`] once they are joined.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread on the same clock.
    pub fn sibling(&self) -> Tracer {
        Tracer { epoch: self.epoch, ..Tracer::new(self.enabled) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        let start = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns: start, end_ns: start, parent, op });
        self.stack.push(id);
        Some(id)
    }

    /// Close `id` (and anything left open inside it).
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        while let Some(open) = self.stack.pop() {
            if let Some(span) = self.spans.get_mut(open as usize) {
                span.end_ns = end;
            }
            if open == id {
                break;
            }
        }
    }

    /// Run `f` inside a span and return its result with the seconds it
    /// took. The duration is measured whether or not tracing is on.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.begin(name, op);
        let started = Instant::now();
        let out = f(self);
        let secs = started.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// Attach a count to the innermost open span (or to the trace as a
    /// whole when none is open).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push(Count { name, span: self.stack.last().copied(), value });
        }
    }

    /// Fold a joined thread's recorder into this one, re-basing its ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
        self.counts.extend(
            other.counts.into_iter().map(|c| Count { span: c.span.map(|s| s + base), ..c }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, seconds, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let own = self_times_ns(&self.spans);
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, usize)> =
            std::collections::BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            let e = by_name.entry(span.name).or_default();
            e.0 += ns;
            e.1 += 1;
        }
        let mut rows: Vec<_> =
            by_name.into_iter().map(|(name, (ns, n))| (name, ns as f64 / 1e9, n)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Write one JSON object per line: spans first (`id` = line order),
    /// then counts. A no-op with tracing off.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            writeln!(out, ",\"op\":{}}}", s.op)?;
        }
        for c in &self.counts {
            write!(out, "{{\"count\":\"{}\",\"span\":", c.name)?;
            match c.span {
                Some(s) => write!(out, "{s}")?,
                None => write!(out, "null")?,
            }
            writeln!(out, ",\"value\":{}}}", crate::report::json_number(c.value))?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (overlapping children counted once).
fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    // Children grouped per parent, then merged left to right.
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = s.parent.and_then(|p| children.get_mut(p as usize)) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(start, s.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("boot", 0, 100, None),
            span("load", 10, 40, Some(0)),
            span("solve", 40, 90, Some(0)),
            // A grandchild shortens its parent only.
            span("iterate", 50, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("parent", 100, 200, None),
            // Two children overlapping on [130, 150): covered = [110, 170).
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)),
            // A child from another thread's clock overhanging the end.
            span("c", 190, 260, Some(0)),
            // And one entirely inside an already-covered stretch.
            span("d", 120, 125, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_times_and_merges() {
        let mut t = Tracer::new(true);
        let ((), secs) = t.timed("outer", 7, |t| {
            let ((), _) = t.timed("inner", 7, |t| t.count("items", 3.0));
        });
        assert!(secs >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.counts[0], Count { name: "items", span: Some(1), value: 3.0 });

        let mut other = t.sibling();
        other.timed("writer", 9, |t| t.timed("submit", 9, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, Some(2), "absorbed parents are re-based");
        let rows = t.self_time_by_name();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn disabled_recorder_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.timed("x", 0, |t| {
            t.count("n", 1.0);
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty() && t.counts.is_empty());
    }
}
