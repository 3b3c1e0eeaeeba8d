//! Error type for labeling construction.

use std::fmt;

use chl_graph::types::{Distance, VertexId};

/// Errors produced by the labeling constructors.
#[derive(Debug)]
pub enum LabelingError {
    /// The supplied ranking does not cover exactly the graph's vertices.
    RankingMismatch {
        /// Vertices in the graph.
        graph_vertices: usize,
        /// Vertices covered by the ranking.
        ranking_vertices: usize,
    },
    /// A configuration value is out of its valid range.
    InvalidConfig(String),
    /// An index was assembled from label sets whose count differs from the
    /// ranking's vertex count.
    LabelShapeMismatch {
        /// Number of per-vertex label sets supplied.
        label_sets: usize,
        /// Vertices covered by the ranking.
        ranking_vertices: usize,
    },
    /// A finished label's distance does not fit the 32-bit distance of a
    /// stored [`crate::labels::FlatEntry`]. The labeling is refused whole,
    /// never truncated.
    DistanceOverflow {
        /// The labeled vertex.
        vertex: VertexId,
        /// The hub's rank position.
        hub: u32,
        /// The label's distance, past `u32::MAX`.
        dist: Distance,
    },
}

impl fmt::Display for LabelingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelingError::RankingMismatch { graph_vertices, ranking_vertices } => write!(
                f,
                "ranking covers {ranking_vertices} vertices but the graph has {graph_vertices}"
            ),
            LabelingError::InvalidConfig(msg) => write!(f, "invalid labeling configuration: {msg}"),
            LabelingError::LabelShapeMismatch { label_sets, ranking_vertices } => write!(
                f,
                "index assembled from {label_sets} label sets but the ranking covers {ranking_vertices} vertices"
            ),
            LabelingError::DistanceOverflow { vertex, hub, dist } => write!(
                f,
                "distance overflow: vertex {vertex}'s label at hub position {hub} has distance \
                 {dist}, more than a stored label holds ({})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for LabelingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LabelingError::RankingMismatch {
            graph_vertices: 10,
            ranking_vertices: 9,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("9"));
        let e = LabelingError::InvalidConfig("alpha must be >= 1".into());
        assert!(e.to_string().contains("alpha"));
        let e = LabelingError::LabelShapeMismatch {
            label_sets: 4,
            ranking_vertices: 5,
        };
        assert!(e.to_string().contains("4") && e.to_string().contains("5"));
        let e = LabelingError::DistanceOverflow {
            vertex: 2,
            hub: 0,
            dist: 1 << 32,
        };
        assert!(e.to_string().contains("4294967296") && e.to_string().contains("4294967295"));
    }
}
