//! Immutable compressed-sparse-row graph storage.
//!
//! [`CsrGraph`] stores a weighted directed graph with both the out- and
//! in-adjacency materialized. This doubles edge memory but makes both
//! push-style (follow out-edges) and pull-style (gather over in-edges)
//! propagation sequential-scan friendly; the PageRank-family kernels in
//! [`crate::stochastic`] are all pull-style and rely on the in-CSR.

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

/// A borrowed view of one directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge weight (finite, non-negative).
    pub weight: f64,
}

/// An immutable weighted directed graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`]. Within each node's adjacency
/// list, neighbors are sorted by target index, which makes neighbor
/// lookups binary-searchable and graph equality canonical.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    pub(crate) num_nodes: u32,
    // Out-adjacency.
    pub(crate) out_offsets: Vec<usize>, // len = num_nodes + 1
    pub(crate) out_targets: Vec<u32>,   // len = num_edges
    pub(crate) out_weights: Vec<f64>,   // len = num_edges
    // In-adjacency (transpose), derived at build time.
    pub(crate) in_offsets: Vec<usize>,
    pub(crate) in_sources: Vec<u32>,
    pub(crate) in_weights: Vec<f64>,
}

impl CsrGraph {
    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: u32) -> Self {
        CsrGraph {
            num_nodes: n,
            out_offsets: vec![0; n as usize + 1],
            out_targets: Vec::new(),
            out_weights: Vec::new(),
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
        self.out_targets.len()
    }

    /// Iterator over all node ids, `0..num_nodes`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.num_nodes).map(NodeId)
    }

    #[inline(always)]
    fn out_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.out_offsets[u.index()]..self.out_offsets[u.index() + 1]
    }

    #[inline(always)]
    fn in_range(&self, u: NodeId) -> std::ops::Range<usize> {
        self.in_offsets[u.index()]..self.in_offsets[u.index() + 1]
    }

    /// Out-degree of `u`.
    #[inline(always)]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_range(u).len()
    }

    /// In-degree of `u`.
    #[inline(always)]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_range(u).len()
    }

    /// The targets of `u`'s out-edges, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let r = self.out_range(u);
        node_slice(&self.out_targets[r])
    }

    /// The weights of `u`'s out-edges, parallel to [`Self::out_neighbors`].
    #[inline]
    pub fn out_edge_weights(&self, u: NodeId) -> &[f64] {
        let r = self.out_range(u);
        &self.out_weights[r]
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

    /// Sum of `u`'s out-edge weights.
    #[inline]
    pub fn out_weight_sum(&self, u: NodeId) -> f64 {
        self.out_edge_weights(u).iter().sum()
    }

    /// `true` if the edge `u -> v` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let r = self.out_range(u);
        self.out_targets[r].binary_search(&v.0).is_ok()
    }

    /// Weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let r = self.out_range(u);
        let base = r.start;
        self.out_targets[r].binary_search(&v.0).ok().map(|i| self.out_weights[base + i])
    }

    /// Iterator over every edge in source order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |u| {
            let r = self.out_range(u);
            let base = r.start;
            self.out_targets[r].iter().enumerate().map(move |(i, &t)| EdgeRef {
                src: u,
                dst: NodeId(t),
                weight: self.out_weights[base + i],
            })
        })
    }

    /// Total weight across all edges.
    pub fn total_weight(&self) -> f64 {
        self.out_weights.iter().sum()
    }

    /// Internal consistency check: offsets monotone, transpose matches,
    /// adjacency sorted, weights valid. O(V + E log d).
    pub fn validate(&self) -> crate::Result<()> {
        use crate::GraphError;
        let n = self.len();
        if self.out_offsets.len() != n + 1 || self.in_offsets.len() != n + 1 {
            return Err(GraphError::BadBinaryFormat("offset array length mismatch".into()));
        }
        if *self.out_offsets.last().unwrap() != self.out_targets.len()
            || *self.in_offsets.last().unwrap() != self.in_sources.len()
            || self.out_targets.len() != self.out_weights.len()
            || self.in_sources.len() != self.in_weights.len()
            || self.out_targets.len() != self.in_sources.len()
        {
            return Err(GraphError::BadBinaryFormat("edge array length mismatch".into()));
        }
        for w in windows_pairs(&self.out_offsets).chain(windows_pairs(&self.in_offsets)) {
            if w.1 < w.0 {
                return Err(GraphError::BadBinaryFormat("offsets not monotone".into()));
            }
        }
        let mut in_degree_check = vec![0usize; n];
        for u in self.nodes() {
            let ts = self.out_neighbors(u);
            for pair in ts.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(GraphError::BadBinaryFormat(
                        "out adjacency not strictly sorted".into(),
                    ));
                }
            }
            for (&t, &w) in ts.iter().zip(self.out_edge_weights(u)) {
                if t.0 >= self.num_nodes {
                    return Err(GraphError::NodeOutOfBounds {
                        node: t.0,
                        num_nodes: self.num_nodes,
                    });
                }
                if !w.is_finite() || w < 0.0 {
                    return Err(GraphError::InvalidWeight { src: u.0, dst: t.0, weight: w });
                }
                in_degree_check[t.index()] += 1;
            }
        }
        for u in self.nodes() {
            if self.in_degree(u) != in_degree_check[u.index()] {
                return Err(GraphError::BadBinaryFormat(format!(
                    "in-degree of node {u} inconsistent with out-adjacency"
                )));
            }
            for (&s, &w) in self.in_neighbors(u).iter().zip(self.in_edge_weights(u)) {
                match self.edge_weight(s, u) {
                    Some(ow) if ow == w => {}
                    _ => {
                        return Err(GraphError::BadBinaryFormat(format!(
                            "in-edge {s} -> {u} does not match out-adjacency"
                        )))
                    }
                }
            }
        }
        Ok(())
    }
}

fn windows_pairs(v: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    v.windows(2).map(|w| (w[0], w[1]))
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
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_neighbors(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.out_edge_weights(NodeId(0)), &[1.0, 2.0]);
        assert_eq!(g.in_edge_weights(NodeId(3)), &[3.0, 4.0]);
        g.validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.is_empty());
        assert!(g.nodes().all(|u| g.out_degree(u) == 0));
        g.validate().unwrap();
        let g0 = CsrGraph::empty(0);
        assert!(g0.is_empty());
        g0.validate().unwrap();
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
    fn edges_iterator_yields_all_in_source_order() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], EdgeRef { src: NodeId(0), dst: NodeId(1), weight: 1.0 });
        assert!(edges.windows(2).all(|w| w[0].src <= w[1].src));
        let total: f64 = edges.iter().map(|e| e.weight).sum();
        assert_eq!(total, g.total_weight());
    }

    #[test]
    fn weight_sums() {
        let g = diamond();
        assert_eq!(g.out_weight_sum(NodeId(0)), 3.0);
        assert_eq!(g.out_weight_sum(NodeId(3)), 0.0);
    }

    #[test]
    fn node_id_conversions() {
        let n: NodeId = 7u32.into();
        assert_eq!(n.index(), 7);
        let raw: u32 = n.into();
        assert_eq!(raw, 7);
        assert_eq!(n.to_string(), "7");
    }

    #[test]
    fn validate_rejects_corruption() {
        let mut g = diamond();
        g.out_weights[0] = -1.0;
        assert!(g.validate().is_err());
        let mut g2 = diamond();
        g2.in_weights[0] = 99.0;
        assert!(g2.validate().is_err());
        let mut g3 = diamond();
        g3.out_offsets[2] = 0; // non-monotone
        assert!(g3.validate().is_err());
    }
}
