//! Mutable staging area for assembling [`CsrGraph`]s.

use crate::csr::{CsrGraph, NodeId};
use crate::scatter::{by_row_then_col, scatter};
use crate::{GraphError, Result};
use std::ops::Range;

/// Incrementally collects edges, then produces a canonical [`CsrGraph`].
///
/// The builder is intentionally permissive while staging (edges land in a
/// flat vector); all validation, ordering, deduplication and the in-CSR
/// assembly happen in [`GraphBuilder::build`] / [`GraphBuilder::try_build`].
/// A pair staged more than once becomes one edge whose weight is the sum of
/// its contributions, added one at a time in staging order (how citation
/// multi-edges aggregate into the venue graph).
/// The in-CSR comes out of one stable counting scatter by target (count
/// per row → prefix sum → place in arrival order), so a build is O(V + E)
/// plus a sort of each node's own out-row — no sort over the whole edge
/// set.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(u32, u32, f64)>,
    allow_self_loops: bool,
}

impl GraphBuilder {
    /// A builder for a graph with `num_nodes` nodes (ids `0..num_nodes`).
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder { num_nodes, edges: Vec::new(), allow_self_loops: true }
    }

    /// Pre-reserve capacity for `n` edges.
    pub fn with_edge_capacity(mut self, n: usize) -> Self {
        self.edges.reserve(n);
        self
    }

    /// When `false`, self-loops are silently dropped at build time
    /// (citation graphs never contain them; aggregated venue graphs
    /// do, and whether to keep them is a modeling choice).
    pub fn self_loops(mut self, allow: bool) -> Self {
        self.allow_self_loops = allow;
        self
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Stage a weighted edge.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f64) {
        self.edges.push((src.0, dst.0, weight));
    }

    /// Stage an unweighted edge (weight 1.0).
    pub fn add_unweighted(&mut self, src: NodeId, dst: NodeId) {
        self.add_edge(src, dst, 1.0);
    }

    /// Build, panicking on invalid input. Prefer [`Self::try_build`] when
    /// edges come from untrusted data.
    pub fn build(self) -> CsrGraph {
        self.try_build().expect("GraphBuilder::build: invalid graph input")
    }

    /// Build, validating node bounds and weights.
    pub fn try_build(mut self) -> Result<CsrGraph> {
        let n = self.num_nodes as usize;
        self.check_and_order()?;

        // Sum each pair's contributions, left to right.
        let mut deduped: Vec<(u32, u32, f64)> = Vec::with_capacity(self.edges.len());
        for (s, d, w) in std::mem::take(&mut self.edges) {
            match deduped.last_mut() {
                Some(last) if last.0 == s && last.1 == d => last.2 += w,
                _ => deduped.push((s, d, w)),
            }
        }

        // deduped is sorted by (src, dst), so within each target's row the
        // sources arrive in ascending order — the in-adjacency comes out
        // sorted for free.
        let m = deduped.len();
        let (mut in_sources, mut in_weights) = (vec![0u32; m], vec![0f64; m]);
        let in_offsets = scatter(
            n,
            &deduped,
            |e| e.1 as usize,
            |slot, &(s, _, w)| {
                in_sources[slot] = s;
                in_weights[slot] = w;
            },
        );

        Ok(CsrGraph { num_nodes: self.num_nodes, in_offsets, in_sources, in_weights })
    }

    /// Validate node bounds and weights, drop self-loops when they are
    /// disallowed, and order the staged edges by `(src, dst)` — stably, so
    /// the contributions to one pair stay in staging order.
    fn check_and_order(&mut self) -> Result<()> {
        for &(s, d, w) in &self.edges {
            if s >= self.num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: s, num_nodes: self.num_nodes });
            }
            if d >= self.num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: d, num_nodes: self.num_nodes });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight { src: s, dst: d, weight: w });
            }
        }
        if !self.allow_self_loops {
            self.edges.retain(|&(s, d, _)| s != d);
        }
        self.edges = by_row_then_col(self.num_nodes as usize, &self.edges);
        Ok(())
    }

    /// [`Self::try_build_onto`], panicking on invalid input.
    pub fn build_onto(self, base: &mut CsrGraph) {
        self.try_build_onto(base).expect("GraphBuilder::build_onto: invalid graph input")
    }

    /// Build the staged edges *onto* an existing graph, in place: `base`
    /// becomes the graph [`Self::try_build`] would have produced had
    /// `base`'s own staged edges come first in one builder with this
    /// builder's self-loop flag,
    ///
    /// ```text
    /// build(base ++ delta) == build(base).then(build_onto(delta))
    /// ```
    ///
    /// bit for bit in every offset, id and weight. The node count grows to
    /// the larger of the two. Cost: a search per staged edge, then one
    /// backward pass moving the tail of each adjacency array behind the
    /// first inserted edge — proportional to the delta when every staged
    /// pair already exists, never more than linear in `base`.
    ///
    /// Each staged contribution is added to the stored weight **one at a
    /// time, in staging order**, exactly as `try_build` sums a pair's
    /// duplicates left to right: floating-point addition is not
    /// associative, so adding a delta's pre-summed subtotal would differ
    /// in the last bit whenever one delta hits a pair twice.
    ///
    /// On `Err`, `base` is untouched.
    pub fn try_build_onto(mut self, base: &mut CsrGraph) -> Result<()> {
        self.num_nodes = self.num_nodes.max(base.num_nodes);
        self.check_and_order()?;
        // Scattering the (src, dst)-ordered edges by dst leaves each row
        // source-ascending: (dst, src) order, pairs still in staging order.
        let mut by_dst = vec![(0, 0, 0.0); self.edges.len()];
        scatter(
            self.num_nodes as usize,
            &self.edges,
            |e| e.1 as usize,
            |slot, &(s, d, w)| by_dst[slot] = (d, s, w),
        );
        let landings = locate(&base.in_offsets, &base.in_sources, &by_dst);
        let n = self.num_nodes as usize;
        absorb(
            &mut base.in_offsets,
            &mut base.in_sources,
            &mut base.in_weights,
            n,
            &by_dst,
            &landings,
        );
        base.num_nodes = self.num_nodes;
        Ok(())
    }

    /// Convenience: build a graph directly from an edge list.
    pub fn from_edges(num_nodes: u32, edges: &[(u32, u32)]) -> CsrGraph {
        let mut b = GraphBuilder::new(num_nodes).with_edge_capacity(edges.len());
        for &(s, d) in edges {
            b.add_unweighted(NodeId(s), NodeId(d));
        }
        b.build()
    }

    /// Convenience: build a weighted graph directly from an edge list.
    pub fn from_weighted_edges(num_nodes: u32, edges: &[(u32, u32, f64)]) -> CsrGraph {
        let mut b = GraphBuilder::new(num_nodes).with_edge_capacity(edges.len());
        for &(s, d, w) in edges {
            b.add_edge(NodeId(s), NodeId(d), w);
        }
        b.build()
    }
}

/// Where one distinct `(row, col)` pair of a sorted delta lands in a CSR.
pub(crate) struct Landing {
    /// Index, in the adjacency arrays as they are, of the first entry not
    /// before the pair.
    at: usize,
    /// `true` when that entry *is* the pair: its weight absorbs the
    /// contributions. Otherwise the pair is inserted in front of it.
    present: bool,
    /// The pair's contributions within the delta, in staging order.
    contributions: Range<usize>,
}

/// Find where each distinct pair of `delta` — `(row, col, weight)`, stably
/// sorted by `(row, col)` — lands in the CSR `offsets`/`ids`.
/// Rows past the last existing one land at the end. Ascending in `at`.
pub(crate) fn locate(offsets: &[usize], ids: &[u32], delta: &[(u32, u32, f64)]) -> Vec<Landing> {
    let rows = offsets.len() - 1;
    let mut landings = Vec::new();
    let mut first = 0;
    while first < delta.len() {
        let (row, col, _) = delta[first];
        let end = first + delta[first..].iter().take_while(|e| (e.0, e.1) == (row, col)).count();
        let (at, present) = if (row as usize) < rows {
            let lo = offsets[row as usize];
            match ids[lo..offsets[row as usize + 1]].binary_search(&col) {
                Ok(k) => (lo + k, true),
                Err(k) => (lo + k, false),
            }
        } else {
            (ids.len(), false)
        };
        landings.push(Landing { at, present, contributions: first..end });
        first = end;
    }
    landings
}

/// Add `delta` into a CSR in place, growing it to `rows`
/// rows. Walks the landings from the back so every old entry moves at
/// most once, straight to its final slot; entries in front of the first
/// inserted pair never move.
pub(crate) fn absorb(
    offsets: &mut Vec<usize>,
    ids: &mut Vec<u32>,
    weights: &mut Vec<f64>,
    rows: usize,
    delta: &[(u32, u32, f64)],
    landings: &[Landing],
) {
    let old_len = ids.len();
    // Entries still to be inserted in front of the position being handled.
    let mut shift = landings.iter().filter(|l| !l.present).count();
    ids.resize(old_len + shift, 0);
    weights.resize(old_len + shift, 0.0);

    offsets.resize(rows + 1, old_len);
    let mut pending = landings.iter().peekable();
    let mut inserted_before = 0;
    for (row, offset) in offsets.iter_mut().enumerate() {
        while let Some(l) = pending.next_if(|l| (delta[l.contributions.start].0 as usize) < row) {
            inserted_before += usize::from(!l.present);
        }
        *offset += inserted_before;
    }

    // Old entries from `settled` on already sit in their final slots.
    let mut settled = old_len;
    for l in landings.iter().rev() {
        let contributions = &delta[l.contributions.clone()];
        let col = contributions[0].1;
        let from = l.at + usize::from(l.present);
        if shift > 0 {
            ids.copy_within(from..settled, from + shift);
            weights.copy_within(from..settled, from + shift);
        }
        // A pair the graph holds adds every contribution to the stored
        // weight; a new pair starts from its first contribution as it is.
        let (mut weight, added) = if l.present {
            (weights[l.at], contributions)
        } else {
            shift -= 1;
            (contributions[0].2, &contributions[1..])
        };
        for &(_, _, w) in added {
            weight += w;
        }
        ids[l.at + shift] = col;
        weights[l.at + shift] = weight;
        settled = l.at;
    }
    debug_assert_eq!(shift, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_duplicate_weights_by_default() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1.5);
        b.add_edge(NodeId(0), NodeId(1), 2.5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4.0));
    }

    #[test]
    fn out_of_bounds_src_and_dst_error() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(5), NodeId(0), 1.0);
        assert!(matches!(b.try_build(), Err(GraphError::NodeOutOfBounds { node: 5, .. })));
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        assert!(matches!(b.try_build(), Err(GraphError::NodeOutOfBounds { node: 2, .. })));
    }

    #[test]
    fn invalid_weights_error() {
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let mut b = GraphBuilder::new(2);
            b.add_edge(NodeId(0), NodeId(1), bad);
            assert!(b.try_build().is_err(), "weight {bad} should be rejected");
        }
    }

    #[test]
    fn zero_weight_is_allowed() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.0);
        let g = b.build();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(0.0));
    }

    #[test]
    fn self_loops_dropped_when_disallowed() {
        let mut b = GraphBuilder::new(2).self_loops(false);
        b.add_edge(NodeId(0), NodeId(0), 1.0);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    fn self_loops_kept_by_default() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(0), 2.0);
        let g = b.build();
        assert!(g.has_edge(NodeId(0), NodeId(0)));
    }

    #[test]
    fn unsorted_input_becomes_canonical() {
        let g1 = GraphBuilder::from_edges(4, &[(2, 1), (0, 3), (0, 1), (2, 0)]);
        let g2 = GraphBuilder::from_edges(4, &[(0, 1), (0, 3), (2, 0), (2, 1)]);
        assert_eq!(g1, g2);
    }

    #[test]
    fn from_weighted_edges_roundtrip() {
        let g = GraphBuilder::from_weighted_edges(3, &[(0, 1, 0.25), (1, 2, 0.75)]);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(0.25));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(0.75));
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_edges(), 0);
    }
}
