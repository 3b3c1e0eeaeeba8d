//! The name the pointer-per-vertex index once had. A complete labeling is a
//! [`FlatIndex`] from the constructor on; the alias keeps the name for
//! callers outside this workspace that still spell it.

use crate::flat::FlatIndex;

/// A complete hub labeling: the same type as [`FlatIndex`].
pub type HubLabelIndex = FlatIndex;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::LabelSet;
    use chl_graph::types::INFINITY;
    use chl_ranking::Ranking;

    fn tiny_index() -> HubLabelIndex {
        // Path 0 - 1 - 2 with unit weights, ranking 1 > 0 > 2 (vertex 1 most
        // important). Canonical labels:
        //   L_0 = {(0,0), (1,1)}   L_1 = {(1,0)}   L_2 = {(1,1), (2,0)}
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_triples(
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
        let idx = FlatIndex::from_triples(vec![(0, 0, 0), (1, 1, 0), (2, 2, 0)], ranking);
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
    fn new_rejects_mismatched_shapes_in_release_builds() {
        let err = FlatIndex::new(vec![LabelSet::new(); 2], Ranking::identity(3)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::LabelingError::LabelShapeMismatch {
                label_sets: 2,
                ranking_vertices: 3
            }
        ));
        assert!(FlatIndex::new(vec![LabelSet::new(); 3], Ranking::identity(3)).is_ok());
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
        let idx = FlatIndex::new(vec![LabelSet::new(); 4], Ranking::identity(4)).unwrap();
        assert_eq!(idx.total_labels(), 0);
        assert_eq!(idx.average_label_size(), 0.0);
        assert_eq!(idx.query(1, 2), INFINITY);
        assert_eq!(idx.query(3, 3), 0);
    }
}
