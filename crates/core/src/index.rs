//! The queryable hub-label index: every vertex's label set plus the ranking
//! that gives hubs their meaning.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use chl_graph::types::{Distance, VertexId};
use chl_ranking::Ranking;

use crate::error::LabelingError;
use crate::labels::{LabelEntry, LabelSet};
use crate::stats::ConstructionStats;

/// A complete hub labeling of a graph, ready to answer PPSD queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HubLabelIndex {
    labels: Vec<LabelSet>,
    ranking: Ranking,
}

/// What a labeling constructor returns: the index plus construction-time
/// statistics (timings, per-SPT label counts, Ψ traces, ...).
#[derive(Debug, Clone)]
pub struct LabelingResult {
    /// The constructed hub labeling.
    pub index: HubLabelIndex,
    /// Instrumentation collected while constructing it.
    pub stats: ConstructionStats,
}

impl LabelingResult {
    /// A constructor's final label sets as a result: `stats` gets the total
    /// time since `start` and the label count after cleaning.
    pub(crate) fn finish(
        labels: Vec<LabelSet>,
        ranking: &Ranking,
        mut stats: ConstructionStats,
        start: Instant,
    ) -> Self {
        let index = HubLabelIndex::new(labels, ranking.clone())
            .expect("constructor produced one label set per vertex");
        stats.labels_after_cleaning = index.total_labels();
        stats.total_time = start.elapsed();
        LabelingResult { index, stats }
    }
}

impl HubLabelIndex {
    /// Creates an index from per-vertex label sets (indexed by vertex id) and
    /// the ranking whose positions the labels refer to.
    ///
    /// The shape check runs in release builds too: an index whose label-set
    /// count disagrees with its ranking corrupts every query that touches the
    /// missing tail, so the mismatch is an error, not a debug assertion.
    pub fn new(labels: Vec<LabelSet>, ranking: Ranking) -> Result<Self, LabelingError> {
        if labels.len() != ranking.len() {
            return Err(LabelingError::LabelShapeMismatch {
                label_sets: labels.len(),
                ranking_vertices: ranking.len(),
            });
        }
        Ok(HubLabelIndex { labels, ranking })
    }

    /// Creates an empty index (no labels at all) for `ranking`.
    pub fn empty(ranking: Ranking) -> Self {
        let labels = vec![LabelSet::new(); ranking.len()];
        HubLabelIndex { labels, ranking }
    }

    /// Number of vertices covered by the index.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// The ranking the labeling respects.
    pub fn ranking(&self) -> &Ranking {
        &self.ranking
    }

    /// Label set of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v >= num_vertices()`; use [`Self::try_labels_of`] for
    /// ids that may come from untrusted input.
    pub fn labels_of(&self, v: VertexId) -> &LabelSet {
        &self.labels[v as usize]
    }

    /// Label set of vertex `v`, or `None` when `v` is out of range.
    pub fn try_labels_of(&self, v: VertexId) -> Option<&LabelSet> {
        self.labels.get(v as usize)
    }

    /// Mutable label set of vertex `v` (used by the cleaning pass).
    pub fn labels_of_mut(&mut self, v: VertexId) -> &mut LabelSet {
        &mut self.labels[v as usize]
    }

    /// Consumes the index, returning the raw per-vertex label sets.
    pub fn into_label_sets(self) -> Vec<LabelSet> {
        self.labels
    }

    /// Answers a PPSD query: the exact shortest-path distance between `u` and
    /// `v`, or [`INFINITY`](chl_graph::types::INFINITY) when they are not
    /// connected. Ids outside `0..num_vertices()` name no vertex and are
    /// treated as unreachable — including `query(u, u)` for `u >= n`, which
    /// must not pretend a nonexistent vertex is at distance 0 from itself.
    pub fn query(&self, u: VertexId, v: VertexId) -> Distance {
        let (Some(lu), Some(lv)) = (self.try_labels_of(u), self.try_labels_of(v)) else {
            return chl_graph::types::INFINITY;
        };
        if u == v {
            return 0;
        }
        lu.query_distance(lv)
    }

    /// Like [`Self::query`] but also reports the hub (as a vertex id) through
    /// which the minimum distance is achieved. `None` for disconnected pairs
    /// and for out-of-range ids.
    pub fn query_with_hub(&self, u: VertexId, v: VertexId) -> Option<(VertexId, Distance)> {
        let (lu, lv) = (self.try_labels_of(u)?, self.try_labels_of(v)?);
        if u == v {
            return Some((u, 0));
        }
        lu.query_join(lv)
            .map(|(hub_pos, d)| (self.ranking.vertex_at(hub_pos), d))
    }

    /// Total number of labels stored.
    pub fn total_labels(&self) -> usize {
        self.labels.iter().map(LabelSet::len).sum()
    }

    /// Average label size per vertex (ALS), the paper's headline quality
    /// metric (Table 3).
    pub fn average_label_size(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.total_labels() as f64 / self.labels.len() as f64
        }
    }

    /// Maximum label-set size over all vertices.
    pub fn max_label_size(&self) -> usize {
        self.labels.iter().map(LabelSet::len).max().unwrap_or(0)
    }

    /// Approximate heap memory consumed by the label sets, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.labels.iter().map(LabelSet::memory_bytes).sum()
    }

    /// Per-hub label counts: for each rank position, how many labels name it
    /// as the hub. This is the "labels generated per SPT" series of Figure 2.
    pub fn labels_per_hub(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ranking.len()];
        for set in &self.labels {
            for e in set.entries() {
                counts[e.hub as usize] += 1;
            }
        }
        counts
    }

    /// Builds an index from labels expressed as `(vertex, hub vertex id,
    /// distance)` triples; mainly a convenience for tests and for assembling
    /// distributed partitions.
    pub fn from_triples(
        triples: impl IntoIterator<Item = (VertexId, VertexId, Distance)>,
        ranking: Ranking,
    ) -> Self {
        let mut per_vertex: Vec<Vec<LabelEntry>> = vec![Vec::new(); ranking.len()];
        for (v, hub, dist) in triples {
            per_vertex[v as usize].push(LabelEntry::new(ranking.position(hub), dist));
        }
        let labels = per_vertex.into_iter().map(LabelSet::from_entries).collect();
        HubLabelIndex { labels, ranking }
    }

    /// Merges the label sets of `other` into `self` (per-vertex union, keeping
    /// the minimum distance per hub). Both indexes must share the same
    /// ranking; used to reassemble distributed label partitions.
    ///
    /// The compatibility check runs in release builds too: partitions built
    /// over different rankings interpret hub positions differently, so a
    /// silent union would corrupt the index. `self` is untouched on error.
    pub fn merge(&mut self, other: &HubLabelIndex) -> Result<(), LabelingError> {
        if self.ranking != other.ranking {
            return Err(LabelingError::MergeRankingMismatch {
                left_vertices: self.ranking.len(),
                right_vertices: other.ranking.len(),
            });
        }
        for (mine, theirs) in self.labels.iter_mut().zip(other.labels.iter()) {
            mine.merge(theirs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::types::INFINITY;

    fn tiny_index() -> HubLabelIndex {
        // Path 0 - 1 - 2 with unit weights, ranking 1 > 0 > 2 (vertex 1 most
        // important). Canonical labels:
        //   L_0 = {(0,0), (1,1)}   L_1 = {(1,0)}   L_2 = {(1,1), (2,0)}
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        )
    }

    #[test]
    fn query_answers_exact_distances() {
        let idx = tiny_index();
        assert_eq!(idx.query(0, 2), 2);
        assert_eq!(idx.query(0, 1), 1);
        assert_eq!(idx.query(2, 1), 1);
        assert_eq!(idx.query(1, 1), 0);
    }

    #[test]
    fn query_with_hub_reports_vertex_id() {
        let idx = tiny_index();
        let (hub, d) = idx.query_with_hub(0, 2).unwrap();
        assert_eq!(hub, 1);
        assert_eq!(d, 2);
        assert_eq!(idx.query_with_hub(2, 2), Some((2, 0)));
    }

    #[test]
    fn disconnected_vertices_report_infinity() {
        let ranking = Ranking::identity(3);
        let idx = HubLabelIndex::from_triples(vec![(0, 0, 0), (1, 1, 0), (2, 2, 0)], ranking);
        assert_eq!(idx.query(0, 2), INFINITY);
        assert_eq!(idx.query_with_hub(0, 2), None);
    }

    #[test]
    fn size_statistics() {
        let idx = tiny_index();
        assert_eq!(idx.total_labels(), 5);
        assert!((idx.average_label_size() - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(idx.max_label_size(), 2);
        assert!(idx.memory_bytes() > 0);
        assert_eq!(idx.num_vertices(), 3);
    }

    #[test]
    fn labels_per_hub_counts_by_rank_position() {
        let idx = tiny_index();
        // Rank position 0 is vertex 1, which hubs three labels.
        assert_eq!(idx.labels_per_hub(), vec![3, 1, 1]);
    }

    #[test]
    fn merge_unions_label_sets() {
        let ranking = Ranking::identity(2);
        let mut a = HubLabelIndex::from_triples(vec![(0, 0, 0)], ranking.clone());
        let b = HubLabelIndex::from_triples(vec![(1, 0, 4), (1, 1, 0)], ranking);
        a.merge(&b).unwrap();
        assert_eq!(a.total_labels(), 3);
        assert_eq!(a.query(0, 1), 4);
    }

    #[test]
    fn new_rejects_mismatched_shapes_in_release_builds() {
        let err = HubLabelIndex::new(vec![LabelSet::new(); 2], Ranking::identity(3)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::LabelingError::LabelShapeMismatch {
                label_sets: 2,
                ranking_vertices: 3
            }
        ));
        assert!(HubLabelIndex::new(vec![LabelSet::new(); 3], Ranking::identity(3)).is_ok());
    }

    #[test]
    fn merge_rejects_incompatible_rankings() {
        // Different sizes.
        let mut a = HubLabelIndex::empty(Ranking::identity(2));
        let b = HubLabelIndex::empty(Ranking::identity(3));
        assert!(a.merge(&b).is_err());
        // Same size, different order: positions mean different hubs.
        let mut c = HubLabelIndex::from_triples(vec![(0, 0, 0)], Ranking::identity(2));
        let d = HubLabelIndex::from_triples(
            vec![(0, 0, 0)],
            Ranking::from_order(vec![1, 0], 2).unwrap(),
        );
        let before = c.clone();
        assert!(c.merge(&d).is_err());
        assert_eq!(
            c, before,
            "failed merge must leave the destination untouched"
        );
    }

    #[test]
    fn out_of_range_ids_are_unreachable_not_a_panic() {
        let idx = tiny_index(); // 3 vertices
        for &(u, v) in &[(0, 3), (3, 0), (3, 3), (7, 9), (u32::MAX, 0)] {
            assert_eq!(idx.query(u, v), INFINITY, "({u}, {v})");
            assert_eq!(idx.query_with_hub(u, v), None, "({u}, {v})");
        }
        // In particular a self-query on a nonexistent vertex is NOT 0.
        assert_eq!(idx.query(3, 3), INFINITY);
        assert!(idx.try_labels_of(2).is_some());
        assert!(idx.try_labels_of(3).is_none());
    }

    #[test]
    fn empty_index_has_no_labels() {
        let idx = HubLabelIndex::empty(Ranking::identity(4));
        assert_eq!(idx.total_labels(), 0);
        assert_eq!(idx.average_label_size(), 0.0);
        assert_eq!(idx.query(1, 2), INFINITY);
        assert_eq!(idx.query(3, 3), 0);
    }
}
