//! Immutable compressed-sparse-row graph storage.
//!
//! [`CsrGraph`] stores a weighted directed graph once, as its
//! in-adjacency: every walk in the stack is pull-form, `y[v] = Σ_{u→v}
//! w(u,v)·z[u]`, a sequential scan of `v`'s in-row (the kernels in
//! [`crate::stochastic`]). The few readers that need a per-source view
//! derive it from the in-rows: the out-weight sums
//! ([`CsrGraph::out_weight_sums`]), or a scatter over them.

/// A dense node identifier.
///
/// Nodes of a [`CsrGraph`] are always numbered `0..num_nodes`, so the
/// wrapped `u32` doubles as an index into score vectors and attribute
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing slices.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(v: NodeId) -> u32 {
        v.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An immutable weighted directed graph in CSR form: the in-adjacency.
///
/// Construct via [`crate::GraphBuilder`]. Row `v` lists the sources of
/// `v`'s in-edges, sorted ascending, with their weights, which makes edge
/// lookups binary-searchable and graph equality canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    pub(crate) num_nodes: u32,
    pub(crate) in_offsets: Vec<usize>, // len = num_nodes + 1
    pub(crate) in_sources: Vec<u32>,   // len = num_edges
    pub(crate) in_weights: Vec<f64>,   // len = num_edges
}

impl CsrGraph {
    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: u32) -> Self {
        CsrGraph {
            num_nodes: n,
            in_offsets: vec![0; n as usize + 1],
            in_sources: Vec::new(),
            in_weights: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline(always)]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of nodes as `usize` (handy for allocating score vectors).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.num_nodes as usize
    }

    /// `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// Number of directed edges.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.in_sources.len()
    }

    /// Iterator over all node ids, `0..num_nodes`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    #[inline(always)]
    fn in_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.in_offsets[u.index()]..self.in_offsets[u.index() + 1]
    }

    /// In-degree of `u`.
    #[inline(always)]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_range(u).len()
    }

    /// The sources of `u`'s in-edges, sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        let r = self.in_range(u);
        node_slice(&self.in_sources[r])
    }

    /// The weights of `u`'s in-edges, parallel to [`Self::in_neighbors`].
    #[inline]
    pub fn in_edge_weights(&self, u: NodeId) -> &[f64] {
        let r = self.in_range(u);
        &self.in_weights[r]
    }

    /// Every node's out-weight sum: one pass over the in-rows in ascending
    /// target, so each source's weights are added in ascending target
    /// order, left to right from zero.
    pub fn out_weight_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.len()];
        for (&u, &w) in self.in_sources.iter().zip(&self.in_weights) {
            sums[u as usize] += w;
        }
        sums
    }

    /// `true` if the edge `u -> v` exists (binary search of `v`'s in-row).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let r = self.in_range(v);
        let base = r.start;
        self.in_sources[r].binary_search(&u.0).ok().map(|i| self.in_weights[base + i])
    }
}

/// Reinterpret a `&[u32]` as `&[NodeId]` without copying.
///
/// Sound because `NodeId` is a newtype with the same layout as `u32`
/// (single public field; identical size and alignment enforced via the
/// const assertions below).
#[inline(always)]
fn node_slice(raw: &[u32]) -> &[NodeId] {
    const _: () = assert!(std::mem::size_of::<NodeId>() == std::mem::size_of::<u32>());
    const _: () = assert!(std::mem::align_of::<NodeId>() == std::mem::align_of::<u32>());
    // SAFETY: NodeId is a single-field tuple struct over u32 with identical
    // size and alignment (checked above); its only invariant is "any u32".
    unsafe { std::slice::from_raw_parts(raw.as_ptr() as *const NodeId, raw.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 2.0);
        b.add_edge(NodeId(1), NodeId(3), 3.0);
        b.add_edge(NodeId(2), NodeId(3), 4.0);
        b.build()
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.in_neighbors(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_edge_weights(NodeId(3)), &[3.0, 4.0]);
        assert_eq!(g.in_offsets, [0, 0, 1, 2, 4]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_empty());
        assert!(g.nodes().all(|u| g.in_degree(u) == 0));
        assert_eq!(g.out_weight_sums(), [0.0; 5]);
        assert!(CsrGraph::empty(0).is_empty());
    }

    #[test]
    fn edge_queries() {
        let g = diamond();
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(2), NodeId(0)));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(3)), Some(4.0));
        assert_eq!(g.edge_weight(NodeId(3), NodeId(2)), None);
    }

    #[test]
    fn weight_sums() {
        let g = diamond();
        assert_eq!(g.out_weight_sums(), [3.0, 3.0, 4.0, 0.0]);
    }

    /// Each source's sum is its weights added in ascending target order:
    /// `(1e-16 + 1e-16) + 1` is one ulp above 1, `(1 + 1e-16) + 1e-16` is 1.
    #[test]
    fn weight_sums_add_in_ascending_target_order() {
        let g = GraphBuilder::from_weighted_edges(
            4,
            &[(0, 3, 1.0), (0, 2, 1e-16), (0, 1, 1e-16), (2, 0, 1.0), (2, 1, 1e-16), (2, 3, 1e-16)],
        );
        let sums = g.out_weight_sums();
        assert_eq!(sums[0], 1.0 + f64::EPSILON);
        assert_eq!(sums[2], 1.0);
    }

    #[test]
    fn node_id_conversions() {
        let n: NodeId = 7u32.into();
        assert_eq!(n.index(), 7);
        let raw: u32 = n.into();
        assert_eq!(raw, 7);
        assert_eq!(n.to_string(), "7");
    }
}
