//! Differential property test for the grouped cleaning kernel: on random
//! labelings that respect the hierarchy, split at random into committed and
//! in-flight hubs, `clean_superstep` must keep exactly the labels the
//! merge-walk `DQ_Clean` predicate keeps (Algorithm 2, lines 12-16) — the
//! predicate the kernel replaced, kept here as the reference. The
//! labelings include self labels and distances up to `INFINITY - 1`, the
//! largest a label can carry, so a saturating sum against an absent hub
//! must never cover, even at `d = INFINITY - 1`.

use proptest::prelude::*;

use chl_core::cleaning::{clean_labels, clean_superstep};
use chl_core::labels::{LabelEntry, LabelSet};
use chl_graph::types::{Distance, VertexId, INFINITY};
use chl_ranking::Ranking;

const MAX_N: usize = 14;

/// The reference: is the label `(hub, dist)` of the owner of `own`
/// redundant, given `hub_labels`, the hub vertex's labels? A merge walk
/// over the two hub-sorted sets, in rank order, for a common hub ranked
/// above `hub` that certifies a distance `<= dist`.
fn merge_walk_redundant(
    own: &[LabelEntry],
    hub_labels: &[LabelEntry],
    hub: u32,
    dist: Distance,
) -> bool {
    let (mut a, mut b) = (own.iter().peekable(), hub_labels.iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        if x.hub < y.hub {
            a.next();
        } else if y.hub < x.hub {
            b.next();
        } else {
            if x.hub >= hub {
                return false;
            }
            if x.dist.saturating_add(y.dist) <= dist {
                return true;
            }
            a.next();
            b.next();
        }
    }
    false
}

/// Adversarial label distances: ties, `INFINITY - 1` (no label is
/// unreachable) and halves of `INFINITY` whose sums saturate.
fn pick_dist(selector: u64, small: u64) -> Distance {
    match selector % 8 {
        0 | 1 => INFINITY - 1,
        2 => INFINITY / 2 + small % 4,
        _ => small % 6,
    }
}

/// A random ranking and a labeling that respects it: every label of `v`
/// has a hub ranked at or above `v`, the hub of `v` itself being its self
/// label.
fn labeling(
    n: usize,
    keys: &[u32],
    self_mask: u32,
    items: &[(u32, u32, u64, u64)],
) -> (Ranking, Vec<LabelSet>) {
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| (keys[v as usize], v));
    let ranking = Ranking::from_order(order, n).unwrap();
    let mut raw: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    for v in 0..n as VertexId {
        if self_mask & (1 << v) != 0 {
            raw[v as usize].push(LabelEntry::new(ranking.position(v), 0));
        }
    }
    for &(v, hub, selector, small) in items {
        let v = v % n as u32;
        let hub = hub % (ranking.position(v) + 1);
        raw[v as usize].push(LabelEntry::new(hub, pick_dist(selector, small)));
    }
    (
        ranking,
        raw.into_iter().map(LabelSet::from_entries).collect(),
    )
}

/// The survivors the reference keeps among hubs `lo..hi`, in the kernel's
/// order: ascending hub, then ascending vertex.
fn reference(
    sets: &[LabelSet],
    ranking: &Ranking,
    lo: u32,
    hi: u32,
) -> Vec<(VertexId, LabelEntry)> {
    let mut kept = Vec::new();
    for hub in lo..hi {
        let hub_vertex = ranking.vertex_at(hub);
        for (v, set) in sets.iter().enumerate() {
            let Some(dist) = set.distance_to_hub(hub) else {
                continue;
            };
            let redundant = hub_vertex != v as VertexId
                && merge_walk_redundant(
                    set.entries(),
                    sets[hub_vertex as usize].entries(),
                    hub,
                    dist,
                );
            if !redundant {
                kept.push((v as VertexId, LabelEntry::new(hub, dist)));
            }
        }
    }
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grouped_clean_matches_merge_walk_reference(
        n in 1usize..MAX_N + 1,
        keys in proptest::collection::vec(any::<u32>(), MAX_N..MAX_N + 1),
        self_mask in any::<u32>(),
        items in proptest::collection::vec((0u32..64, 0u32..64, any::<u64>(), any::<u64>()), 0..96),
        split in (any::<u32>(), any::<u32>()),
    ) {
        let (ranking, sets) = labeling(n, &keys, self_mask, &items);
        let lo = split.0 % (n as u32 + 1);
        let hi = lo + split.1 % (n as u32 - lo + 1);

        // Hubs below `lo` are committed, `lo..hi` in flight; later hubs do
        // not exist yet. In-flight runs are stored reversed: the kernel
        // must not rely on their order.
        let visible: Vec<LabelSet> = sets
            .iter()
            .map(|s| LabelSet::from_entries(s.entries().iter().copied().filter(|e| e.hub < hi).collect()))
            .collect();
        let global: Vec<LabelSet> = visible
            .iter()
            .map(|s| LabelSet::from_entries(s.entries().iter().copied().filter(|e| e.hub < lo).collect()))
            .collect();
        let local: Vec<Vec<LabelEntry>> = visible
            .iter()
            .map(|s| s.entries().iter().rev().copied().filter(|e| e.hub >= lo).collect())
            .collect();

        let expect = reference(&visible, &ranking, lo, hi);
        for threads in [1, 3] {
            let got = rayon::with_threads(threads, || {
                clean_superstep(&(&global[..], &local[..]), &local[..], lo..hi, &ranking)
            });
            prop_assert_eq!(&got, &expect, "superstep {}..{} at {} threads", lo, hi, threads);
        }

        // LCC's pass: the whole labeling as one superstep.
        let expect = reference(&sets, &ranking, 0, n as u32);
        let (cleaned, removed) = clean_labels(&sets, &ranking);
        let mut want = vec![LabelSet::new(); n];
        for &(v, e) in &expect {
            want[v as usize].push(e);
        }
        prop_assert_eq!(&cleaned, &want);
        let before: usize = sets.iter().map(LabelSet::len).sum();
        prop_assert_eq!(removed, before - expect.len());
    }
}

#[test]
fn absent_hub_never_covers_at_infinity_minus_one() {
    // Vertex 2's label (hub 1, INFINITY - 1) against hub vertex 1's
    // labels: the only hub ranked above hub 1 is 0, which vertex 2 lacks,
    // so none of vertex 2's entries may cover — their sums against unset
    // slots saturate to INFINITY, one past the label's distance.
    let ranking = Ranking::identity(3);
    let sets = vec![
        LabelSet::from_entries(vec![LabelEntry::new(0, 0)]),
        LabelSet::from_entries(vec![LabelEntry::new(0, 1), LabelEntry::new(1, 0)]),
        LabelSet::from_entries(vec![
            LabelEntry::new(1, INFINITY - 1),
            LabelEntry::new(2, 0),
        ]),
    ];
    let (cleaned, removed) = clean_labels(&sets, &ranking);
    assert_eq!(removed, 0);
    assert_eq!(cleaned, sets);
}
