//! Label cleaning: detection and removal of redundant labels.
//!
//! The optimistic parallel construction phases (LCC-I, each GLL and DGLL
//! superstep) may generate labels that are not part of the Canonical Hub
//! Labeling. Because the constructed labeling *respects the hierarchy*
//! (guaranteed by the rank queries), Lemma 2 of the paper shows every
//! redundant label `(h, d(v,h)) ∈ L_v` is exposed by a single PPSD-style
//! query between `v` and `h`: some more important common hub certifies a
//! distance `<= d(v,h)`.
//!
//! Cleaning therefore never needs the graph — only the labeling itself. One
//! kernel, [`clean_superstep`], serves every constructor. A superstep's
//! labels come from a contiguous range of roots, so it transposes them by
//! hub with a counting sort. For each hub `h` it loads the hub vertex's
//! labels ranked above `h` into a dense [`HubDistances`] probe, then checks
//! each label `(v, h, d)` by scanning `v`'s labels against it. This is the
//! paper's `DQ_Clean` without its merge walk. Survivors come out in
//! ascending hub order, and every in-flight hub ranks below every committed
//! one, so committing them is an append. GLL and DGLL call the kernel once
//! per superstep; LCC ([`clean_labels`]) treats the whole labeling as one
//! superstep.

use std::ops::Range;

use chl_graph::types::{Distance, VertexId};
use chl_ranking::Ranking;

use crate::labels::{HubDistances, LabelEntry, LabelSet};
use crate::table::LabelRuns;

/// Removes every redundant label from `labels` (one [`LabelSet`] per
/// vertex), returning the cleaned per-vertex sets and the number of labels
/// deleted.
///
/// The whole labeling is one superstep for [`clean_superstep`]: every query
/// reads the *input* labeling, so the verdicts do not depend on the order in
/// which redundancies are found (canonical labels are never redundant, hence
/// never deleted, hence every redundancy witness survives the pass). It
/// runs at the ambient `rayon::current_num_threads`; callers with a thread
/// budget (the LCC constructor honoring `LabelingConfig::num_threads`) wrap
/// the call in `rayon::with_threads`.
pub fn clean_labels(labels: &[LabelSet], ranking: &Ranking) -> (Vec<LabelSet>, usize) {
    let before: usize = labels.iter().map(LabelSet::len).sum();
    let kept = clean_superstep(labels, labels, 0..labels.len() as u32, ranking);
    let mut cleaned = vec![LabelSet::new(); labels.len()];
    let removed = before - kept.len();
    commit(&mut cleaned, kept);
    (cleaned, removed)
}

/// Cleans one superstep: decides every label `in_flight` holds and returns
/// the survivors as `(vertex, label)` pairs in ascending hub order
/// (ascending vertex within a hub).
///
/// * `labels` reads every label of a vertex the queries may use: committed
///   and in flight alike.
/// * `in_flight` reads the superstep's labels, whose hubs all lie in `hubs`
///   and rank below every committed hub.
///
/// A label `(v, h, d)` is redundant when `v` is not `h`'s own vertex and
/// some hub ranked above `h` joins `v`'s and the hub vertex's labels within
/// `d`. Hubs run in parallel chunks of about equal label count, one
/// [`HubDistances`] per chunk, at the ambient `rayon::current_num_threads`.
pub fn clean_superstep<L, F>(
    labels: &L,
    in_flight: &F,
    hubs: Range<u32>,
    ranking: &Ranking,
) -> Vec<(VertexId, LabelEntry)>
where
    L: LabelRuns + ?Sized,
    F: LabelRuns + ?Sized,
{
    let by_hub = ByHub::transpose(in_flight, hubs, ranking.len());
    let total = by_hub.labels.len();
    let parts = (rayon::current_num_threads() * 4).clamp(1, by_hub.offsets.len());
    // Chunk c starts at the first hub whose labels begin at or past
    // c/parts of the total; the last one ends at the last hub.
    let mut starts: Vec<usize> = (0..parts)
        .map(|c| by_hub.offsets.partition_point(|&o| o < c * total / parts))
        .collect();
    starts.push(by_hub.hubs.len());
    let chunks = rayon::map(parts, |c| {
        let mut probe = HubDistances::new(by_hub.hubs.end as usize);
        let mut kept = Vec::new();
        for i in starts[c]..starts[c + 1] {
            let hub = by_hub.hubs.start + i as u32;
            let hub_vertex = ranking.vertex_at(hub);
            let bucket = &by_hub.labels[by_hub.offsets[i]..by_hub.offsets[i + 1]];
            // A bucket of only the self label has nothing to check.
            if bucket.iter().any(|&(v, _)| v != hub_vertex) {
                labels.any_run(hub_vertex, |run| {
                    probe.load(run, hub);
                    false
                });
            }
            for &(v, d) in bucket {
                // A vertex's self label is never redundant.
                if v == hub_vertex || !labels.any_run(v, |run| probe.covers(run, d)) {
                    kept.push((v, LabelEntry::new(hub, d)));
                }
            }
            probe.clear();
        }
        kept
    });
    chunks.concat()
}

/// Appends survivors in ascending hub order to sets whose hubs all rank
/// above theirs, keeping every set sorted.
pub(crate) fn commit(sets: &mut [LabelSet], kept: Vec<(VertexId, LabelEntry)>) {
    for (v, e) in kept {
        sets[v as usize].push(e);
    }
}

/// A superstep's labels transposed by hub: hub `hubs.start + i` owns
/// `labels[offsets[i]..offsets[i + 1]]`, as `(vertex, distance)` pairs in
/// ascending vertex order.
struct ByHub {
    hubs: Range<u32>,
    offsets: Vec<usize>,
    labels: Vec<(VertexId, Distance)>,
}

impl ByHub {
    /// Counting sort of `in_flight`'s labels over vertices `0..n` by hub.
    fn transpose<F: LabelRuns + ?Sized>(in_flight: &F, hubs: Range<u32>, n: usize) -> Self {
        let slot = |e: &LabelEntry| {
            debug_assert!(hubs.contains(&e.hub), "hub {} outside {hubs:?}", e.hub);
            (e.hub - hubs.start) as usize
        };
        let mut offsets = vec![0usize; hubs.len() + 1];
        for v in 0..n as VertexId {
            in_flight.any_run(v, |run| {
                for e in run {
                    offsets[slot(e) + 1] += 1;
                }
                false
            });
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut labels = vec![(0, 0); offsets[hubs.len()]];
        for v in 0..n as VertexId {
            in_flight.any_run(v, |run| {
                for e in run {
                    let at = &mut cursor[slot(e)];
                    labels[*at] = (v, e.dist);
                    *at += 1;
                }
                false
            });
        }
        ByHub {
            hubs,
            offsets,
            labels,
        }
    }
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
        let (cleaned, removed) = clean_labels(&sets, &ranking);
        assert_eq!(removed, 1);
        assert!(!cleaned[2].contains_hub(ranking.position(0)));
        // Queries remain exact after cleaning.
        let cleaned_idx = HubLabelIndex::new(cleaned, ranking).unwrap();
        assert_eq!(cleaned_idx.query(0, 2), 2);
    }

    #[test]
    fn dq_clean_needs_a_more_important_common_hub() {
        // Identity ranking. Vertex 1 holds {h0: 4, h3: d}; hub vertex 3
        // holds {h0: 2, h3: 0}. Hub 0 ranks above 3 and certifies
        // d(1,0) + d(3,0) = 6, so (1, h3, 6) is redundant and (1, h3, 5)
        // is not. Hub 3 itself always joins the pair; it must not count.
        let ranking = chl_ranking::Ranking::identity(4);
        let labeling = |d: u64, witness: bool| {
            let own = if witness {
                vec![LabelEntry::new(0, 4), LabelEntry::new(3, d)]
            } else {
                vec![LabelEntry::new(3, d)]
            };
            let hub = vec![LabelEntry::new(0, 2), LabelEntry::new(3, 0)];
            vec![vec![], own, vec![], hub]
        };
        let survivors = |labels: Vec<Vec<LabelEntry>>| {
            clean_superstep(&labels[..], &labels[..], 0..4, &ranking)
        };
        assert!(!survivors(labeling(6, true)).contains(&(1, LabelEntry::new(3, 6))));
        assert!(survivors(labeling(5, true)).contains(&(1, LabelEntry::new(3, 5))));
        assert!(survivors(labeling(6, false)).contains(&(1, LabelEntry::new(3, 6))));
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
