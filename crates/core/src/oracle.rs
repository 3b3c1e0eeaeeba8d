//! The [`DistanceOracle`] trait: the workspace's single query surface.
//!
//! Every structure that can answer exact point-to-point shortest-distance
//! (PPSD) queries implements this trait — the shared-memory
//! [`crate::flat::FlatIndex`] and its views, the distributed label partitions
//! (`chl_distributed::DistributedLabeling`) and the three query-serving
//! engines of `chl-query` (QLSN / QFDL / QDOL). Callers that only need
//! distances can therefore be written once against `&dyn DistanceOracle` and
//! swap storage layouts and serving modes freely; batch evaluation and
//! memory accounting come with the trait.

use chl_graph::types::{Distance, VertexId, INFINITY};

/// An exact PPSD distance oracle over a fixed vertex set `0..num_vertices`.
///
/// Implementations must return the true shortest-path distance for every
/// valid vertex pair ([`INFINITY`] for disconnected pairs) — hub labelings
/// make this cheap, but nothing in the trait assumes labels. Ids outside
/// `0..num_vertices()` name no vertex and must behave as unreachable:
/// [`Self::distance`] returns [`INFINITY`] (even for `u == v`) and
/// [`Self::connected`] returns `false`, never a panic. Workload files and
/// network requests routinely carry stale ids, so the serving surface treats
/// them as data, not as programmer error.
///
/// Oracles are `Sync`: an index answers queries from many threads at once,
/// which is what lets [`Self::distances`] fan a batch out across threads by
/// default.
pub trait DistanceOracle: Sync {
    /// Exact shortest-path distance between `u` and `v`, [`INFINITY`] when
    /// they are not connected or either id is out of range.
    fn distance(&self, u: VertexId, v: VertexId) -> Distance;

    /// Number of vertices the oracle covers (valid ids are `0..n`).
    fn num_vertices(&self) -> usize;

    /// Total label memory backing the oracle, in bytes, summed over every
    /// copy actually held (a replicated engine reports every replica).
    fn memory_bytes(&self) -> usize;

    /// Evaluates a batch of queries, mapping [`Self::distance`] over `pairs`
    /// in parallel chunks (`rayon::map`). `distances(pairs)[i]`
    /// always equals `distance(pairs[i].0, pairs[i].1)` — output order and
    /// values are independent of the thread count (property-tested for every
    /// implementation in this workspace). Engines with cheaper batch paths
    /// may override it, but must preserve that contract.
    fn distances(&self, pairs: &[(VertexId, VertexId)]) -> Vec<Distance> {
        rayon::map(pairs.len(), |i| {
            let (u, v) = pairs[i];
            self.distance(u, v)
        })
    }

    /// `true` when `u` and `v` are in the same connected component (`false`
    /// whenever either id is out of range).
    fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.distance(u, v) != INFINITY
    }

    /// Evaluates the `|sources| × |targets|` distance block, row-major:
    /// `matrix(s, t)[i * t.len() + j] == distance(s[i], t[j])`, exactly —
    /// the defaulted body **is** that brute-force map (over the parallel
    /// [`Self::distances`] path). Hub-labeling backends override it with a
    /// hub-side pivot that gathers each side's labels once instead of
    /// joining per pair, but must preserve byte-identical answers
    /// (property-tested per backend). Duplicate ids contribute one
    /// row/column per occurrence.
    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        let pairs: Vec<(VertexId, VertexId)> = sources
            .iter()
            .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
            .collect();
        self.distances(&pairs)
    }

    /// The `k` targets nearest to `source`, as `(target, distance)` sorted
    /// ascending by `(distance, target id)` — the id tiebreak makes the
    /// answer deterministic. Unreachable and out-of-range targets never
    /// appear; duplicate ids in `targets` appear once per occurrence.
    fn topk(&self, source: VertexId, targets: &[VertexId], k: usize) -> Vec<(VertexId, Distance)> {
        let mut hits: Vec<(VertexId, Distance)> = targets
            .iter()
            .zip(self.matrix(&[source], targets))
            .filter(|&(_, d)| d != INFINITY)
            .map(|(&t, d)| (t, d))
            .collect();
        hits.sort_unstable_by_key(|&(t, d)| (d, t));
        hits.truncate(k);
        hits
    }

    /// Every target within `radius` of `source` (inclusive), as
    /// `(target, distance)` sorted ascending by `(distance, target id)` —
    /// the POI-within-radius workload. Same reachability and duplicate
    /// semantics as [`Self::topk`].
    fn within_radius(
        &self,
        source: VertexId,
        targets: &[VertexId],
        radius: Distance,
    ) -> Vec<(VertexId, Distance)> {
        let mut hits: Vec<(VertexId, Distance)> = targets
            .iter()
            .zip(self.matrix(&[source], targets))
            .filter(|&(_, d)| d <= radius)
            .map(|(&t, d)| (t, d))
            .collect();
        hits.sort_unstable_by_key(|&(t, d)| (d, t));
        hits
    }
}

/// Shared references serve like the oracle they point at, so borrowed
/// storage (a [`crate::flat::FlatView`] handed out by an mmap-backed index,
/// a `&FlatIndex` shared across request handlers) can flow anywhere a
/// `DistanceOracle` is expected without taking ownership.
impl<T: DistanceOracle + ?Sized> DistanceOracle for &T {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        (**self).distance(u, v)
    }

    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    // Forward the defaulted methods too, so an implementation's cheaper
    // batch path is not lost behind the reference.
    fn distances(&self, pairs: &[(VertexId, VertexId)]) -> Vec<Distance> {
        (**self).distances(pairs)
    }

    fn connected(&self, u: VertexId, v: VertexId) -> bool {
        (**self).connected(u, v)
    }

    fn matrix(&self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Distance> {
        (**self).matrix(sources, targets)
    }

    fn topk(&self, source: VertexId, targets: &[VertexId], k: usize) -> Vec<(VertexId, Distance)> {
        (**self).topk(source, targets, k)
    }

    fn within_radius(
        &self,
        source: VertexId,
        targets: &[VertexId],
        radius: Distance,
    ) -> Vec<(VertexId, Distance)> {
        (**self).within_radius(source, targets, radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use chl_ranking::Ranking;

    fn path_index() -> FlatIndex {
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        FlatIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 1, 1), (2, 2, 0)],
            ranking,
        )
    }

    #[test]
    fn index_answers_through_the_trait_object() {
        let idx = path_index();
        let oracle: &dyn DistanceOracle = &idx;
        assert_eq!(oracle.distance(0, 2), 2);
        assert_eq!(oracle.num_vertices(), 3);
        assert!(oracle.memory_bytes() > 0);
        assert!(oracle.connected(0, 2));
        assert_eq!(oracle.distances(&[(0, 1), (1, 2), (0, 0)]), vec![1, 1, 0]);
    }

    #[test]
    fn disconnected_pairs_are_reported() {
        let idx = FlatIndex::from_triples(vec![(0, 0, 0), (1, 1, 0)], Ranking::identity(2));
        let oracle: &dyn DistanceOracle = &idx;
        assert!(!oracle.connected(0, 1));
        assert_eq!(oracle.distance(0, 1), INFINITY);
    }

    #[test]
    fn out_of_range_ids_answer_infinity_through_the_trait() {
        let idx = path_index(); // 3 vertices
        let oracle: &dyn DistanceOracle = &idx;
        assert_eq!(oracle.distance(0, 3), INFINITY);
        assert_eq!(
            oracle.distance(3, 3),
            INFINITY,
            "no vertex 3, even for u == v"
        );
        assert!(!oracle.connected(3, 3));
        assert_eq!(
            oracle.distances(&[(0, 2), (3, 0), (9, 9)]),
            vec![2, INFINITY, INFINITY]
        );
    }

    #[test]
    fn batch_distances_preserve_order_at_every_thread_count() {
        let idx = path_index();
        let pairs: Vec<(u32, u32)> = (0..64).map(|i| (i % 4, (i * 7) % 5)).collect();
        let sequential: Vec<_> = pairs.iter().map(|&(u, v)| idx.query(u, v)).collect();
        for threads in [1, 2, 8] {
            let parallel = rayon::with_threads(threads, || DistanceOracle::distances(&idx, &pairs));
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }
}
