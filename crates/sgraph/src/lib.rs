#![warn(missing_docs)]

//! # sgraph — a compact directed-graph substrate for link analysis
//!
//! `sgraph` is the storage and walk layer underneath the `qrank`
//! scholarly-ranking stack. It provides:
//!
//! * [`CsrGraph`] — an immutable, weighted, directed graph in compressed
//!   sparse row form, stored once as its in-adjacency: the pull every walk
//!   runs is a sequential scan of each target's in-row.
//! * [`GraphBuilder`] — the mutable staging area used to assemble graphs
//!   (duplicate edges summed, validation) and to grow one in place
//!   ([`GraphBuilder::build_onto`]).
//! * [`Bipartite`] — weighted bipartite graphs (author↔article,
//!   venue↔article) with both orientations materialized.
//! * Degree statistics and power-law fitting ([`stats`]).
//! * [`stochastic`] — the row-stochastic random walk every
//!   PageRank-family algorithm in the stack runs, borrowing the graph it
//!   steps over, with sequential and multi-threaded ([`par`]) steps and
//!   principled dangling-node handling.
//! * [`store`] — the two walk solvers over any backing store: the power
//!   iteration ([`stationary_store`]) for cyclic walks, and the reverse
//!   sweep ([`reverse_sweep`]) for citation walks, whose edges point back
//!   in time.
//! * Out-of-core storage: read-only file maps ([`mmap`]), the SCSRv4
//!   sharded pull CSR ([`mmap_csr`]) behind the [`store`] seam, and
//!   [`sfile`] — the durable-file kit (atomic publish, checksum, varint,
//!   record frames) every on-disk format in the workspace is built on.
//!
//! Node identifiers are dense `u32` indices wrapped in [`NodeId`]; graphs
//! are therefore limited to fewer than 2³² nodes, which comfortably covers
//! the scholarly corpora this stack targets (the largest preset,
//! `generate --preset mag-scale`, defaults to 10⁷ articles) while halving
//! index memory versus `usize`.
//!
//! ## Quick example
//!
//! ```
//! use sgraph::{GraphBuilder, NodeId};
//!
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(NodeId(0), NodeId(1), 1.0);
//! b.add_edge(NodeId(1), NodeId(2), 2.0);
//! b.add_edge(NodeId(0), NodeId(2), 0.5);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.in_neighbors(NodeId(2)), &[NodeId(0), NodeId(1)]);
//! assert_eq!(g.in_edge_weights(NodeId(2)), &[0.5, 2.0]);
//! assert_eq!(g.out_weight_sums(), [1.5, 2.0, 0.0]);
//! ```

pub mod bipartite;
pub mod builder;
pub mod csr;
pub mod error;
pub mod mmap;
pub mod mmap_csr;
pub mod par;
pub mod scatter;
pub mod sfile;
pub mod stats;
pub mod stochastic;
pub mod store;

pub use bipartite::{Bipartite, BipartiteBuilder};
pub use builder::GraphBuilder;
pub use csr::{CsrGraph, NodeId};
pub use error::GraphError;
pub use mmap_csr::{MmapCsr, MmapCsrBuilder};
pub use stochastic::{JumpVector, RowStochastic};
pub use store::{reverse_sweep, stationary_store, CsrStore, ReverseSweep};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
