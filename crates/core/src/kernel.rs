//! Tiered PPSD merge-join kernels.
//!
//! Every distance query in the workspace reduces to one operation: given the
//! hub-sorted label runs of `u` and `v`, find the minimum
//! `d(u,h) + d(v,h)` over common hubs `h` (and the first hub achieving it).
//! The reference implementation is the branchy two-pointer iterator join in
//! [`crate::labels::join_sorted_iters`]; this module supplies drop-in
//! replacements over plain `&[FlatEntry]` slices that trade generality for
//! throughput, plus the dispatch that picks between them:
//!
//! * [`join_branchless`] — two-pointer scan with conditional-move advance
//!   and a branchless best-accumulator: no per-step `Option` matching, no
//!   data-dependent branches in the loop body.
//! * [`join_gallop`] — exponential search of the longer run for each entry
//!   of the shorter one; selected when the runs' lengths differ by
//!   [`GALLOP_FACTOR`] or more (hub vertices carry runs orders of magnitude
//!   longer than leaf vertices).
//! * [`join_adaptive`] — the tier selector [`crate::flat::IndexView`] calls
//!   for every pair of flat (slice) runs; streaming compressed runs keep
//!   the iterator kernel.
//!
//! All tiers return **exactly** what the reference join returns — same
//! `Option`, same hub on ties (the first, i.e. highest-ranked, hub achieving
//! the minimal sum) — a property pinned down by the differential proptests
//! in `tests/proptest_kernels.rs`. A stored distance is a `u32`, and each
//! sum is taken in `u64`: it is exact, at most `2 * u32::MAX`, and so
//! always below `INFINITY`, which therefore marks "no common hub yet".

// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use chl_graph::types::{Distance, VertexId, INFINITY};

use crate::flat::IndexView;
use crate::labels::FlatEntry;

/// Length ratio at which [`join_adaptive`] switches from block scanning to
/// galloping: the longer run must be at least this many times the shorter.
///
/// Label-run length distributions are heavily skewed (see
/// `chl inspect --histogram` percentiles): the top-ranked hub's run covers
/// most of the graph while leaf runs hold a handful of entries, so skewed
/// pairs are common and galloping turns them from O(long) into
/// O(short · log long).
pub const GALLOP_FACTOR: usize = 16;

/// The running best of a merge join: first (highest-ranked) hub achieving
/// the strictly minimal `d(u,h) + d(v,h)` seen so far, `INFINITY` until a
/// common hub is found.
#[derive(Clone, Copy)]
struct Best {
    hub: u32,
    dist: Distance,
}

impl Best {
    #[inline(always)]
    fn new() -> Best {
        Best {
            hub: 0,
            dist: INFINITY,
        }
    }

    /// Folds one common-hub hit in, branchlessly, with the reference join's
    /// exact tie-break: a later hub replaces the best only on a strictly
    /// smaller sum.
    #[inline(always)]
    fn update(&mut self, hub: u32, total: Distance) {
        let take = total < self.dist;
        self.hub = if take { hub } else { self.hub };
        self.dist = if take { total } else { self.dist };
    }

    #[inline(always)]
    fn into_option(self) -> Option<(u32, Distance)> {
        (self.dist != INFINITY).then_some((self.hub, self.dist))
    }
}

/// The exact `u64` sum of two stored distances.
#[inline(always)]
fn sum(a: FlatEntry, b: FlatEntry) -> Distance {
    Distance::from(a.dist) + Distance::from(b.dist)
}

/// The branchless two-pointer core of [`join_branchless`], folding hits
/// into a caller-supplied [`Best`].
#[inline(always)]
fn join_branchless_into(a: &[FlatEntry], b: &[FlatEntry], best: &mut Best) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        // SAFETY: `i < a.len()` holds by the loop condition just checked.
        let x = unsafe { *a.get_unchecked(i) };
        // SAFETY: `j < b.len()` holds by the loop condition just checked.
        let y = unsafe { *b.get_unchecked(j) };
        let total = sum(x, y);
        let take = (x.hub == y.hub) & (total < best.dist);
        best.hub = if take { x.hub } else { best.hub };
        best.dist = if take { total } else { best.dist };
        // <= / >= advance both pointers on a hub match and exactly one
        // otherwise — the whole step compiles to conditional moves.
        i += usize::from(x.hub <= y.hub);
        j += usize::from(y.hub <= x.hub);
    }
}

/// Branchless two-pointer merge join over hub-sorted slices. Equivalent to
/// [`crate::labels::join_sorted_iters`] on every input (both runs sorted
/// strictly ascending by hub).
pub fn join_branchless(a: &[FlatEntry], b: &[FlatEntry]) -> Option<(u32, Distance)> {
    let mut best = Best::new();
    join_branchless_into(a, b, &mut best);
    best.into_option()
}

/// Galloping (exponential-search) merge join for length-skewed runs: each
/// entry of the shorter run probes the longer one with a doubling search
/// followed by a binary search of the bracketed window, so the cost is
/// `O(short · log long)` instead of `O(short + long)`.
pub fn join_gallop(a: &[FlatEntry], b: &[FlatEntry]) -> Option<(u32, Distance)> {
    // Swapping the sides never changes the answer: the common-hub set and
    // the per-hub sums are symmetric, and matches are still visited in
    // ascending hub order, so the tie-break picks the same hub.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut best = Best::new();
    let mut base = 0usize;
    for x in small {
        let Some(rest) = large.get(base..) else {
            break;
        };
        let Some(first) = rest.first() else {
            break;
        };
        // Find `p`, the index in `rest` of the first hub >= x.hub.
        let p = if first.hub >= x.hub {
            0
        } else {
            // Invariant: rest[lo].hub < x.hub; double until the window
            // (lo, hi] brackets the boundary or runs off the end.
            let mut lo = 0usize;
            let mut hi = 1usize;
            while rest.get(hi).is_some_and(|e| e.hub < x.hub) {
                lo = hi;
                hi <<= 1;
            }
            let win = rest.get(lo + 1..hi.min(rest.len())).unwrap_or_default();
            lo + 1 + win.partition_point(|e| e.hub < x.hub)
        };
        match rest.get(p) {
            Some(y) if y.hub == x.hub => {
                best.update(x.hub, sum(*x, *y));
                base += p + 1;
            }
            Some(_) => base += p,
            // Every remaining hub of `large` is below x.hub; later probes
            // only grow, so no further match is possible.
            None => break,
        }
    }
    best.into_option()
}

/// The tier selector: the merge join [`crate::flat::IndexView`] runs for
/// every pair of flat runs.
///
/// Selection uses only the two lengths: heavily skewed pairs gallop, every
/// other pair takes the branchless scan, whose conditional-move loop never
/// mispredicts a hub comparison.
#[inline]
pub fn join_adaptive(a: &[FlatEntry], b: &[FlatEntry]) -> Option<(u32, Distance)> {
    let (s, l) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    if s == 0 {
        return None;
    }
    if l >= s.saturating_mul(GALLOP_FACTOR) {
        return join_gallop(a, b);
    }
    join_branchless(a, b)
}

/// Hub-side pivoted evaluation of an S×T distance block, row-major —
/// the override behind [`DistanceOracle::matrix`] on every label-backed
/// oracle. Instead of |S|·|T| independent merge joins, the targets' label
/// unions are gathered **once** into a hub-sorted pool of
/// `(hub, column, distance)` triples; each source row then walks its own
/// run and relaxes only the pool slice of each hub it actually carries —
/// `O(|L(s)| + hits)` per row rather than `O(Σ_t(|L(s)| + |L(t)|))`. Rows
/// are computed in parallel (`rayon::map`).
///
/// Answers are exactly [`IndexView::query`] per cell: same exact `u64`
/// sums, same `INFINITY` for disconnected/out-of-range cells, and the same
/// `s == t → 0` self-distance rule (which on a shard file applies to
/// foreign vertices too, matching the shard-blind point query).
///
/// [`DistanceOracle::matrix`]: crate::oracle::DistanceOracle::matrix
pub(crate) fn matrix_pivot(
    view: &IndexView<'_>,
    sources: &[VertexId],
    targets: &[VertexId],
) -> Vec<Distance> {
    let n = view.num_vertices();
    let cols = targets.len();
    // Pool every target label once: (hub position, column, distance),
    // sorted by (hub, column), 12 bytes a label. Out-of-range targets
    // contribute nothing and therefore stay INFINITY in every row.
    let mut pool: Vec<(u32, u32, u32)> = Vec::new();
    for (j, &t) in targets.iter().enumerate() {
        if let Some(run) = view.run(t) {
            pool.reserve(run.size_hint().0);
            run.for_each(|e| pool.push((e.hub, j as u32, e.dist)));
        }
    }
    pool.sort_unstable_by_key(|&(h, j, _)| (h, j));

    let rows: Vec<Vec<Distance>> = rayon::map(sources.len(), |i| {
        let mut row = vec![INFINITY; cols];
        let Some(&s) = sources.get(i) else {
            return row;
        };
        if let Some(run) = view.run(s) {
            run.for_each(|e| {
                let lo = pool.partition_point(|&(h, _, _)| h < e.hub);
                for &(h, j, d) in pool.iter().skip(lo) {
                    if h != e.hub {
                        break;
                    }
                    let cand = Distance::from(e.dist) + Distance::from(d);
                    if let Some(cell) = row.get_mut(j as usize) {
                        if cand < *cell {
                            *cell = cand;
                        }
                    }
                }
            });
        }
        if (s as usize) < n {
            for (cell, &t) in row.iter_mut().zip(targets) {
                if t == s {
                    *cell = 0;
                }
            }
        }
        row
    });
    let mut out = Vec::with_capacity(sources.len() * cols);
    for row in rows {
        out.extend(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(entries: &[(u32, u32)]) -> Vec<FlatEntry> {
        entries.iter().map(|&(h, d)| FlatEntry::new(h, d)).collect()
    }

    fn reference(a: &[FlatEntry], b: &[FlatEntry]) -> Option<(u32, Distance)> {
        crate::labels::join_sorted_iters(a.iter().copied(), b.iter().copied())
    }

    fn assert_all_tiers(a: &[FlatEntry], b: &[FlatEntry]) {
        let want = reference(a, b);
        assert_eq!(join_branchless(a, b), want, "branchless");
        assert_eq!(join_gallop(a, b), want, "gallop");
        assert_eq!(join_adaptive(a, b), want, "adaptive");
        // Symmetric in the distance (the hub is too — same common set).
        assert_eq!(join_adaptive(b, a).map(|(_, d)| d), want.map(|(_, d)| d));
    }

    #[test]
    fn empty_and_singleton_runs() {
        let e: Vec<FlatEntry> = Vec::new();
        let s = run(&[(3, 7)]);
        assert_all_tiers(&e, &e);
        assert_all_tiers(&e, &s);
        assert_all_tiers(&s, &e);
        assert_all_tiers(&s, &s);
        assert_all_tiers(&run(&[(2, 1)]), &s);
    }

    #[test]
    fn disjoint_hub_sets_yield_none() {
        let a = run(&[(0, 1), (2, 2), (4, 3), (6, 4), (8, 5)]);
        let b = run(&[(1, 1), (3, 2), (5, 3), (7, 4), (9, 5)]);
        assert_all_tiers(&a, &b);
        assert_eq!(join_adaptive(&a, &b), None);
    }

    #[test]
    fn tie_break_keeps_the_first_minimal_hub() {
        // Hubs 1 and 5 both sum to 10; the reference keeps hub 1.
        let a = run(&[(1, 4), (5, 3), (9, 50)]);
        let b = run(&[(1, 6), (5, 7), (9, 1)]);
        assert_all_tiers(&a, &b);
        assert_eq!(join_adaptive(&a, &b), Some((1, 10)));
    }

    #[test]
    fn distance_max_sums_exactly_without_losing_the_hub() {
        let max = u32::MAX;
        let a = run(&[(2, max), (7, max)]);
        let b = run(&[(2, max), (7, max)]);
        assert_all_tiers(&a, &b);
        // Both common hubs sum to 2 * u32::MAX, exactly and below INFINITY;
        // the first one is reported.
        let widened = 2 * Distance::from(max);
        assert_eq!(join_adaptive(&a, &b), Some((2, widened)));
        assert_eq!(join_gallop(&a, &b), Some((2, widened)));
    }

    #[test]
    fn long_skewed_runs_agree_across_tiers() {
        // 1:1000-style skew with matches sprinkled through the long run.
        let long: Vec<FlatEntry> = (0..1000).map(|h| FlatEntry::new(h * 3, h % 97)).collect();
        let short = run(&[(0, 5), (2997, 1), (1500, 2), (901, 3)]);
        let mut short = short;
        short.sort_unstable_by_key(|e| e.hub);
        assert_all_tiers(&short, &long);
        assert_all_tiers(&long, &long);
    }

    #[test]
    fn block_boundary_lengths_are_covered() {
        // Every small length pair on both sides of the gallop switch at a
        // 16x length ratio.
        for la in 0..=17u32 {
            for lb in 0..=17u32 {
                let a: Vec<FlatEntry> = (0..la).map(|h| FlatEntry::new(h * 2, h + 1)).collect();
                let b: Vec<FlatEntry> = (0..lb).map(|h| FlatEntry::new(h * 3, h + 1)).collect();
                assert_all_tiers(&a, &b);
            }
        }
    }

    #[test]
    fn adaptive_picks_gallop_on_skew() {
        let short = run(&[(64, 1)]);
        let long: Vec<FlatEntry> = (0..64).map(|h| FlatEntry::new(h, 2)).collect();
        // 64 >= 16 * 1: gallop tier; result still matches.
        assert_eq!(join_adaptive(&short, &long), reference(&short, &long));
        assert_eq!(join_gallop(&short, &long), reference(&short, &long));
    }
}
