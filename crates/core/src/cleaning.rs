//! Label cleaning: detection and removal of redundant labels.
//!
//! The optimistic parallel construction phases (LCC-I, Hybrid's pruned
//! tail, each GLL and DGLL superstep) may generate labels that are not part
//! of the Canonical Hub Labeling. Because the constructed labeling
//! *respects the hierarchy* (guaranteed by the rank queries), Lemma 2 of
//! the paper shows every redundant label `(h, d(v,h)) ∈ L_v` is exposed by
//! a single PPSD-style query between `v` and `h`: some more important
//! common hub certifies a distance `<= d(v,h)`.
//!
//! Cleaning therefore never needs the graph — only the labeling itself.
//! Two kernels decide it.
//!
//! `clean_window` serves a pass whose trees all ran on the root scheduler
//! (LCC, Hybrid's tail). The scheduler recorded each tree's floor, below
//! which every tree had finished when it started, so a label can only be
//! redundant through the few hubs between its tree's floor and its hub
//! (Pruned Landmark Labeling's invariant). The kernel walks each vertex's
//! sorted set once and checks only those entries.
//!
//! [`clean_superstep`] checks a label against every hub ranked above it,
//! for callers that know no floor. A superstep's labels come from a
//! contiguous range of roots, so it transposes them by hub with a counting
//! sort. For each hub `h` it loads the hub vertex's labels ranked above `h`
//! into a dense [`HubDistances`] probe, then checks each label `(v, h, d)`
//! by scanning `v`'s labels against it. This is the paper's `DQ_Clean`
//! without its merge walk. Survivors come out in ascending hub order, and
//! every in-flight hub ranks below every committed one, so committing them
//! is an append. GLL and DGLL call it once per superstep, and
//! [`clean_labels`] treats a whole labeling as one superstep.

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
/// budget wrap the call in `rayon::with_threads`. It needs no floors, so it
/// cleans any hierarchy-respecting labeling, and it is the reference
/// `clean_window` is tested against.
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
///   and in flight alike. It must hold every label through which an
///   `in_flight` label can be redundant. A caller may leave out committed
///   hubs that every tree of the superstep consulted while pruning: GLL
///   reads its global table only from `hubs.start` on. DGLL's nodes prune
///   with their own partition alone, so DGLL reads every partition whole.
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

/// Removes the redundant labels of one pass of concurrent pruned trees
/// from `sets` (one hub-sorted [`LabelSet`] per vertex), returning how many
/// it removed. The pass grew the trees of positions `first..` and
/// `floors[p - first]` is tree `p`'s floor ([`crate::schedule`]): every
/// tree below it had finished when tree `p` started, so every pruning
/// query of `p` consulted those hubs, and a label of hub `p` can only be
/// redundant through a hub in `[floor, p)`.
///
/// Each vertex's set is walked once. A label `(v, p, d)` whose window is
/// not empty is checked against the entries of `v` right before it whose
/// hubs lie in the window, each with one binary search in the hub vertex's
/// set. Labels of hubs below `first` and self labels are never checked.
/// All verdicts read the input labeling, as [`clean_labels`]' do, so the
/// same labels go: the checks run in parallel chunks of vertices at the
/// ambient `rayon::current_num_threads`, and the few redundant labels are
/// removed afterwards.
pub(crate) fn clean_window(
    sets: &mut [LabelSet],
    first: u32,
    floors: &[u32],
    ranking: &Ranking,
) -> usize {
    let labels: &[LabelSet] = sets;
    let n = labels.len();
    let parts = (rayon::current_num_threads() * 4).clamp(1, n.max(1));
    let redundant = rayon::map(parts, |c| {
        let mut found = Vec::new();
        for v in c * n / parts..(c + 1) * n / parts {
            let entries = labels[v].entries();
            let from = entries.partition_point(|e| e.hub < first);
            for (i, e) in entries.iter().enumerate().skip(from) {
                let floor = floors[(e.hub - first) as usize];
                let hub_vertex = ranking.vertex_at(e.hub) as usize;
                // An empty window, or a self label: nothing to check.
                if floor == e.hub || hub_vertex == v {
                    continue;
                }
                let hub_entries = labels[hub_vertex].entries();
                let witnessed = entries[..i]
                    .iter()
                    .rev()
                    .take_while(|w| w.hub >= floor)
                    .any(|w| {
                        hub_entries
                            .binary_search_by_key(&w.hub, |x| x.hub)
                            .is_ok_and(|j| w.dist.saturating_add(hub_entries[j].dist) <= e.dist)
                    });
                if witnessed {
                    found.push((v, e.hub));
                }
            }
        }
        found
    });
    let mut removed = 0;
    for (v, hub) in redundant.into_iter().flatten() {
        removed += usize::from(sets[v].remove_hub(hub));
    }
    removed
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
    use crate::pll::{pruned_trees, sequential_pll};
    use crate::pruned_dijkstra::PruneOptions;
    use crate::LabelingConfig;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
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

    /// `(hub, dist)` pairs as a hub-sorted set.
    fn set(entries: &[(u32, u64)]) -> LabelSet {
        LabelSet::from_entries(
            entries
                .iter()
                .map(|&(h, d)| LabelEntry::new(h, d))
                .collect(),
        )
    }

    #[test]
    fn window_clean_checks_only_hubs_in_each_trees_window() {
        // Identity ranking: hub h is vertex h. The pass grew trees 2..5;
        // tree 3 started while tree 2 ran (floor 2), tree 4 after both had
        // finished (floor 4).
        let ranking = chl_ranking::Ranking::identity(5);
        let floors = [2, 2, 4];
        let clean = |mut sets: Vec<LabelSet>| {
            let removed = clean_window(&mut sets, 2, &floors, &ranking);
            (sets, removed)
        };

        // A witness inside the window drops the label: (4, hub 3, 2) is
        // covered through hub 2, 1 + 1 <= 2.
        let sets = vec![
            set(&[(0, 0)]),
            set(&[(1, 0)]),
            set(&[(2, 0)]),
            set(&[(2, 1), (3, 0)]),
            set(&[(2, 1), (3, 2), (4, 0)]),
        ];
        let (cleaned, removed) = clean(sets.clone());
        assert_eq!(removed, 1);
        assert_eq!(cleaned[4], set(&[(2, 1), (4, 0)]));
        assert_eq!(cleaned[..4], sets[..4]);
        assert_eq!(clean_labels(&sets, &ranking).0, cleaned);

        // A witness one longer keeps it: 1 + 2 > 2.
        let mut longer = sets.clone();
        longer[3] = set(&[(2, 2), (3, 0)]);
        assert_eq!(clean(longer.clone()), (longer, 0));

        // Self labels are untouched, even where a zero-length witness in
        // the window would cover one: vertex 3's (hub 3, 0) against its own
        // (hub 2, 0).
        let zero = vec![
            set(&[(0, 0)]),
            set(&[(1, 0)]),
            set(&[(2, 0)]),
            set(&[(2, 0), (3, 0)]),
            set(&[(4, 0)]),
        ];
        assert_eq!(clean(zero.clone()), (zero, 0));

        // Hubs below the pass's first position are untouched: (4, hub 1, 2)
        // is covered through hub 0, 1 + 1 <= 2, but hub 1 is no tree of
        // the pass. Nor is a witness below a tree's floor consulted: had
        // tree 3 started after tree 2 finished (floor 3), (4, hub 3, 2)
        // would stay though hub 2 covers it.
        let outside = vec![
            set(&[(0, 0)]),
            set(&[(0, 1), (1, 0)]),
            set(&[(2, 0)]),
            set(&[(2, 1), (3, 0)]),
            set(&[(0, 1), (1, 2), (2, 1), (3, 2), (4, 0)]),
        ];
        let mut kept = outside.clone();
        assert_eq!(clean_window(&mut kept, 2, &[2, 3, 4], &ranking), 0);
        assert_eq!(kept, outside);
        assert_eq!(clean(outside).1, 1, "with floor 2, hub 2 is consulted");
    }

    #[test]
    fn window_clean_matches_the_full_clean_on_real_passes() {
        // More threads than cores, so many trees overlap and windows are
        // wide. Both cleans read the same uncleaned labeling; the window
        // clean must keep exactly the labels the full clean keeps, and both
        // must leave PLL's labeling.
        for seed in 1..=4 {
            let grid = grid_network(
                &GridOptions {
                    rows: 12,
                    cols: 12,
                    max_weight: 1000,
                    ..GridOptions::default()
                },
                seed,
            );
            let ba = barabasi_albert(300, 3, seed);
            for (name, g) in [("grid", &grid), ("barabasi-albert", &ba)] {
                let ranking = degree_ranking(g);
                let reference = sequential_pll(g, &ranking).index.into_label_sets();
                for threads in [6, 8] {
                    let (uncleaned, pass) =
                        pruned_trees(g, &ranking, threads, PruneOptions::default());
                    let (full, removed) = clean_labels(&uncleaned, &ranking);
                    let mut windowed = uncleaned;
                    let removed_windowed = rayon::with_threads(threads, || {
                        clean_window(&mut windowed, 0, &pass.floors, &ranking)
                    });
                    let at = format!("{name} seed {seed} at {threads} threads");
                    assert_eq!(windowed, full, "{at}");
                    assert_eq!(removed_windowed, removed, "{at}");
                    assert_eq!(windowed, reference, "{at}");
                }
            }
        }
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
