//! Label cleaning: detection and removal of redundant labels.
//!
//! The optimistic parallel construction phases (LCC-I, each GLL superstep)
//! may generate labels that are not part of the Canonical Hub Labeling.
//! Because the constructed labeling *respects the hierarchy* (guaranteed by
//! the rank queries), Lemma 2 of the paper shows every redundant label
//! `(h, d(v,h)) ∈ L_v` is exposed by a single PPSD-style query between `v`
//! and `h`: some more important common hub certifies a distance `<= d(v,h)`.
//!
//! Cleaning therefore never needs the graph — only the labeling itself.

use chl_graph::types::VertexId;
use chl_ranking::Ranking;

use crate::labels::{LabelEntry, LabelSet};

/// Removes every redundant label from `labels` (one sorted [`LabelSet`] per
/// vertex), returning the cleaned per-vertex sets and the number of labels
/// deleted.
///
/// The pass reads the *input* labeling for all queries and writes fresh
/// output sets, so it parallelizes over vertices without any locking and is
/// independent of the order in which redundancies are discovered (canonical
/// labels are never redundant, hence never deleted, hence every redundancy
/// witness used by a query survives the pass). It runs at the ambient
/// `rayon::current_num_threads`; callers with a thread budget (the LCC
/// constructor honoring `LabelingConfig::num_threads`) wrap the call in
/// `rayon::with_threads`.
pub fn clean_labels(labels: &[LabelSet], ranking: &Ranking) -> (Vec<LabelSet>, usize) {
    let cleaned: Vec<LabelSet> = rayon::map(labels.len(), |v| {
        let kept: Vec<LabelEntry> = labels[v]
            .entries()
            .iter()
            .copied()
            .filter(|e| !is_redundant(v as VertexId, *e, labels, ranking))
            .collect();
        LabelSet::from_entries(kept)
    });
    let before: usize = labels.iter().map(LabelSet::len).sum();
    let after: usize = cleaned.iter().map(LabelSet::len).sum();
    (cleaned, before - after)
}

/// The paper's `DQ_Clean`: is the label `entry` of vertex `v` redundant with
/// respect to the labeling `labels`?
pub fn is_redundant(
    v: VertexId,
    entry: LabelEntry,
    labels: &[LabelSet],
    ranking: &Ranking,
) -> bool {
    let hub_vertex = ranking.vertex_at(entry.hub);
    if hub_vertex == v {
        // A vertex's self label is never redundant.
        return false;
    }
    labels[v as usize].is_redundant_label(entry.hub, entry.dist, &labels[hub_vertex as usize])
}

/// Counts redundant labels without removing them (used by diagnostics and by
/// the DGLL superstep accounting, which needs the per-vertex verdicts).
pub fn count_redundant(labels: &[LabelSet], ranking: &Ranking) -> usize {
    rayon::map(labels.len(), |v| {
        labels[v]
            .entries()
            .iter()
            .filter(|e| is_redundant(v as VertexId, **e, labels, ranking))
            .count()
    })
    .into_iter()
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::HubLabelIndex;
    use crate::para_pll::spara_pll;
    use crate::pll::sequential_pll;
    use crate::LabelingConfig;
    use chl_graph::generators::{barabasi_albert, erdos_renyi};
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    #[test]
    fn canonical_labeling_is_left_untouched() {
        let g = erdos_renyi(50, 0.1, 10, 4);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let sets: Vec<LabelSet> = canonical.clone().into_label_sets();
        let (cleaned, removed) = clean_labels(&sets, &ranking);
        assert_eq!(removed, 0);
        assert_eq!(cleaned, sets);
    }

    #[test]
    fn redundant_labels_from_rankless_construction_are_removed() {
        // paraPLL with many threads produces redundant labels on scale-free
        // graphs; cleaning a labeling that respects R would give the CHL, but
        // paraPLL does NOT respect R, so here we only verify that cleaning
        // never breaks query correctness and never grows the labeling.
        let g = barabasi_albert(120, 3, 8);
        let ranking = degree_ranking(&g);
        let loose = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(8)).index;
        let sets = loose.clone().into_label_sets();
        let before: usize = sets.iter().map(LabelSet::len).sum();
        let (cleaned, removed) = clean_labels(&sets, &ranking);
        let after: usize = cleaned.iter().map(LabelSet::len).sum();
        assert_eq!(before - after, removed);
        assert!(after <= before);
    }

    #[test]
    fn hand_built_redundant_label_is_detected() {
        // Path 0-1-2, ranking 1 > 0 > 2. The label (0, d=1) at vertex 2 ...
        // does not exist in the CHL; build it by hand and ensure DQ_Clean
        // flags it: 1 is a more important common hub of 2 and 0 with
        // d(2,1)+d(0,1) = 2 <= 2.
        let ranking = chl_ranking::Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        let idx = HubLabelIndex::from_triples(
            vec![
                (0, 1, 1),
                (0, 0, 0),
                (1, 1, 0),
                (2, 1, 1),
                (2, 2, 0),
                (2, 0, 2), // redundant: covered through hub 1
            ],
            ranking.clone(),
        );
        let sets = idx.into_label_sets();
        let redundant_entry = LabelEntry::new(ranking.position(0), 2);
        assert!(is_redundant(2, redundant_entry, &sets, &ranking));
        assert_eq!(count_redundant(&sets, &ranking), 1);
        let (cleaned, removed) = clean_labels(&sets, &ranking);
        assert_eq!(removed, 1);
        assert!(!cleaned[2].contains_hub(ranking.position(0)));
        // Queries remain exact after cleaning.
        let cleaned_idx = HubLabelIndex::new(cleaned, ranking).unwrap();
        assert_eq!(cleaned_idx.query(0, 2), 2);
    }

    #[test]
    fn cleaning_preserves_query_answers() {
        let g = erdos_renyi(70, 0.07, 12, 30);
        let ranking = degree_ranking(&g);
        // Build an inflated labeling by disabling distance pruning.
        let inflated = crate::pll::pll_with_restricted_pruning(&g, &ranking, 0).index;
        let sets = inflated.into_label_sets();
        let (cleaned, _) = clean_labels(&sets, &ranking);
        let idx = HubLabelIndex::new(cleaned, ranking).unwrap();
        for src in [0u32, 33, 69] {
            let d = dijkstra(&g, src);
            for v in 0..70u32 {
                assert_eq!(idx.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn self_labels_are_never_removed() {
        let ranking = chl_ranking::Ranking::identity(2);
        let idx =
            HubLabelIndex::from_triples(vec![(0, 0, 0), (1, 1, 0), (1, 0, 5)], ranking.clone());
        let sets = idx.into_label_sets();
        let (cleaned, removed) = clean_labels(&sets, &ranking);
        assert_eq!(removed, 0);
        assert!(cleaned[1].contains_hub(1));
    }
}
