//! Error type shared across the crate.

use std::fmt;

/// Errors produced while building graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a node index `>= num_nodes`.
    NodeOutOfBounds {
        /// The offending node index.
        node: u32,
        /// Number of nodes in the graph being built.
        num_nodes: u32,
    },
    /// An edge weight was NaN, infinite, or negative.
    InvalidWeight {
        /// Source of the offending edge.
        src: u32,
        /// Destination of the offending edge.
        dst: u32,
        /// The offending weight.
        weight: f64,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(f, "node index {node} out of bounds (graph has {num_nodes} nodes)")
            }
            GraphError::InvalidWeight { src, dst, weight } => {
                write!(
                    f,
                    "invalid weight {weight} on edge {src} -> {dst} (must be finite and >= 0)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<GraphError> = vec![
            GraphError::NodeOutOfBounds { node: 7, num_nodes: 3 },
            GraphError::InvalidWeight { src: 0, dst: 1, weight: f64::NAN },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
