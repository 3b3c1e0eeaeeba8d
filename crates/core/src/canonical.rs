//! Ground-truth canonical labeling and labeling-property checkers.
//!
//! The Canonical Hub Labeling has a direct definition (Abraham et al.,
//! restated in §1 of the paper): for every connected pair `(u, v)`, the
//! single most important vertex on the union of their shortest paths is a hub
//! of both. This module computes that labeling by brute force (all-pairs
//! Dijkstra with max-rank-on-path propagation) and provides checkers for the
//! three properties the paper reasons with — the **cover property**,
//! **respecting the hierarchy** and **minimality**. They are the backbone of
//! the correctness test-suite: every constructor is compared against
//! [`brute_force_chl`] on randomized graphs.

use chl_graph::sssp::heap::DistanceQueue;
use chl_graph::types::{dist_add, Distance, VertexId, INFINITY};
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::index::HubLabelIndex;
use crate::labels::LabelSet;

/// For one source `u`, the distance to every vertex plus the most important
/// vertex on the union of all shortest `u`-paths (including both endpoints).
#[derive(Debug, Clone)]
pub struct PathMaxima {
    /// Shortest distances from the source.
    pub dist: Vec<Distance>,
    /// `max_on_path[v]` = most important vertex on any shortest path from the
    /// source to `v`; meaningless when `dist[v] == INFINITY`.
    pub max_on_path: Vec<VertexId>,
}

/// Dijkstra from `source` that additionally propagates, for every reached
/// vertex, the most important vertex over the **union** of all shortest paths
/// from the source.
pub fn shortest_path_maxima(g: &CsrGraph, ranking: &Ranking, source: VertexId) -> PathMaxima {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut max_on_path: Vec<VertexId> = (0..n as VertexId).collect();
    if n == 0 {
        return PathMaxima { dist, max_on_path };
    }

    // Plain Dijkstra first: exact distances, unaffected by tie-breaking.
    let mut queue = DistanceQueue::new();
    dist[source as usize] = 0;
    queue.push(0, source);
    let mut settle_order: Vec<VertexId> = Vec::with_capacity(n);
    let mut settled = vec![false; n];
    while let Some((d, v)) = queue.pop() {
        if settled[v as usize] || d > dist[v as usize] {
            continue;
        }
        settled[v as usize] = true;
        settle_order.push(v);
        for (u, w) in g.neighbors(v) {
            let cand = dist_add(d, w);
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                queue.push(cand, u);
            }
        }
    }

    // Propagate maxima over *every* shortest-path predecessor, in settle
    // order (predecessors always settle before successors).
    max_on_path[source as usize] = source;
    for &v in &settle_order {
        if v == source {
            continue;
        }
        let mut best = v;
        for (p, w) in g.in_neighbors(v) {
            if dist[p as usize] != INFINITY && dist_add(dist[p as usize], w) == dist[v as usize] {
                best = ranking.more_important_of(best, max_on_path[p as usize]);
            }
        }
        max_on_path[v as usize] = best;
    }

    PathMaxima { dist, max_on_path }
}

/// Computes the Canonical Hub Labeling by brute force. Quadratic in the graph
/// size — intended for tests and small reference runs only.
pub fn brute_force_chl(g: &CsrGraph, ranking: &Ranking) -> HubLabelIndex {
    let n = g.num_vertices();
    let mut per_vertex: Vec<std::collections::BTreeMap<u32, Distance>> =
        vec![std::collections::BTreeMap::new(); n];

    for u in 0..n as VertexId {
        let maxima = shortest_path_maxima(g, ranking, u);
        for v in 0..n as VertexId {
            if maxima.dist[v as usize] == INFINITY {
                continue;
            }
            let hub = maxima.max_on_path[v as usize];
            let hub_pos = ranking.position(hub);
            // d(u, hub): the hub lies on a shortest u-v path, so
            // d(u,hub) = d(u,v) - d(hub,v); we know d(u,·) from this run.
            let d_u_hub = maxima.dist[hub as usize];
            per_vertex[u as usize].entry(hub_pos).or_insert(d_u_hub);
            let d_v_hub = maxima.dist[v as usize] - d_u_hub;
            per_vertex[v as usize].entry(hub_pos).or_insert(d_v_hub);
        }
    }

    let labels: Vec<LabelSet> = per_vertex
        .into_iter()
        .map(|m| {
            LabelSet::from_entries(
                m.into_iter()
                    .map(|(hub, dist)| crate::labels::LabelEntry::new(hub, dist))
                    .collect(),
            )
        })
        .collect();
    HubLabelIndex::new(labels, ranking.clone())
        .expect("brute force produces one label set per vertex")
}

/// Violations found by [`check_labeling`].
#[derive(Debug, Clone, PartialEq)]
pub enum LabelingViolation {
    /// A query returned the wrong distance for a pair.
    WrongDistance {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Distance reported by the labeling.
        reported: Distance,
        /// True shortest-path distance.
        expected: Distance,
    },
    /// A label stores a distance different from the true distance to its hub.
    WrongLabelDistance {
        /// Labeled vertex.
        vertex: VertexId,
        /// Hub vertex.
        hub: VertexId,
        /// Stored distance.
        stored: Distance,
        /// True distance.
        expected: Distance,
    },
    /// The labeling does not respect the hierarchy for a pair: neither is the
    /// canonical hub labeled at both endpoints.
    DoesNotRespectHierarchy {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// The canonical hub that should cover the pair.
        canonical_hub: VertexId,
    },
    /// A redundant label was found (violates minimality).
    RedundantLabel {
        /// Labeled vertex.
        vertex: VertexId,
        /// Hub vertex of the redundant label.
        hub: VertexId,
    },
}

/// Checks the three labeling properties of §4.1 against ground truth computed
/// with plain Dijkstra. Returns every violation found (empty = the labeling
/// is the CHL for `ranking`).
pub fn check_labeling(
    g: &CsrGraph,
    ranking: &Ranking,
    index: &HubLabelIndex,
) -> Vec<LabelingViolation> {
    let n = g.num_vertices();
    let mut violations = Vec::new();
    let canonical = brute_force_chl(g, ranking);

    for u in 0..n as VertexId {
        let maxima = shortest_path_maxima(g, ranking, u);

        // Label distances must be exact.
        for e in index.labels_of(u).entries() {
            let hub_vertex = ranking.vertex_at(e.hub);
            let true_d = maxima.dist[hub_vertex as usize];
            if e.dist != true_d {
                violations.push(LabelingViolation::WrongLabelDistance {
                    vertex: u,
                    hub: hub_vertex,
                    stored: e.dist,
                    expected: true_d,
                });
            }
        }

        for v in 0..n as VertexId {
            let expected = maxima.dist[v as usize];
            let reported = index.query(u, v);
            // Cover property ⇔ exact distances for every pair.
            if reported != expected {
                violations.push(LabelingViolation::WrongDistance {
                    u,
                    v,
                    reported,
                    expected,
                });
            }
            // Respecting the hierarchy: the canonical hub must label both.
            if u != v && expected != INFINITY {
                let hub = maxima.max_on_path[v as usize];
                let hub_pos = ranking.position(hub);
                if !index.labels_of(u).contains_hub(hub_pos)
                    || !index.labels_of(v).contains_hub(hub_pos)
                {
                    violations.push(LabelingViolation::DoesNotRespectHierarchy {
                        u,
                        v,
                        canonical_hub: hub,
                    });
                }
            }
        }

        // Minimality: every stored label must be canonical.
        for e in index.labels_of(u).entries() {
            if !canonical.labels_of(u).contains_hub(e.hub) {
                violations.push(LabelingViolation::RedundantLabel {
                    vertex: u,
                    hub: ranking.vertex_at(e.hub),
                });
            }
        }
    }
    violations
}

/// Convenience wrapper: `true` iff `index` is exactly the CHL of `g` under
/// `ranking`.
pub fn is_canonical(g: &CsrGraph, ranking: &Ranking, index: &HubLabelIndex) -> bool {
    check_labeling(g, ranking, index).is_empty()
}

/// Checks only the cover property (exact query answers), which is the
/// correctness bar for non-canonical baselines such as paraPLL.
pub fn satisfies_cover_property(g: &CsrGraph, index: &HubLabelIndex) -> bool {
    let n = g.num_vertices();
    for u in 0..n as VertexId {
        let dist = chl_graph::sssp::dijkstra(g, u);
        for v in 0..n as VertexId {
            if index.query(u, v) != dist[v as usize] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcc::lcc;
    use crate::pll::sequential_pll;
    use crate::LabelingConfig;
    use chl_graph::generators::{erdos_renyi, path_graph, star_graph};
    use chl_ranking::degree_ranking;

    #[test]
    fn maxima_on_a_path_graph() {
        // Path 0-1-2-3 with importance 2 > 1 > 0 > 3.
        let g = path_graph(4);
        let ranking = Ranking::from_order(vec![2, 1, 0, 3], 4).unwrap();
        let m = shortest_path_maxima(&g, &ranking, 0);
        assert_eq!(m.dist, vec![0, 1, 2, 3]);
        assert_eq!(m.max_on_path[1], 1);
        assert_eq!(m.max_on_path[2], 2);
        assert_eq!(m.max_on_path[3], 2);
    }

    #[test]
    fn maxima_uses_union_of_shortest_paths() {
        // Diamond: 0-1-3 and 0-2-3, both length 2. Vertex 1 is the most
        // important overall, so the max for pair (0,3) must be 1 even though
        // the path through 2 avoids it.
        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build().unwrap();
        let ranking = Ranking::from_order(vec![1, 0, 2, 3], 4).unwrap();
        let m = shortest_path_maxima(&g, &ranking, 0);
        assert_eq!(m.max_on_path[3], 1);
    }

    #[test]
    fn brute_force_chl_on_star() {
        let g = star_graph(5);
        let ranking = Ranking::identity(5);
        let chl = brute_force_chl(&g, &ranking);
        // Center: one label; each leaf: center + itself.
        assert_eq!(chl.labels_of(0).len(), 1);
        for leaf in 1..5u32 {
            assert_eq!(chl.labels_of(leaf).len(), 2);
        }
        assert!(is_canonical(&g, &ranking, &chl));
    }

    #[test]
    fn pll_and_lcc_match_brute_force() {
        let g = erdos_renyi(40, 0.12, 10, 17);
        let ranking = degree_ranking(&g);
        let reference = brute_force_chl(&g, &ranking);
        assert_eq!(sequential_pll(&g, &ranking).index, reference);
        assert_eq!(
            lcc(&g, &ranking, &LabelingConfig::default().with_threads(4)).index,
            reference
        );
        assert!(check_labeling(&g, &ranking, &reference).is_empty());
    }

    #[test]
    fn checker_detects_missing_and_redundant_labels() {
        let g = path_graph(3);
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        // Missing the label (hub 1) at vertex 2 breaks cover + hierarchy.
        let broken = HubLabelIndex::from_triples(
            vec![(0, 0, 0), (0, 1, 1), (1, 1, 0), (2, 2, 0)],
            ranking.clone(),
        );
        let violations = check_labeling(&g, &ranking, &broken);
        assert!(violations
            .iter()
            .any(|v| matches!(v, LabelingViolation::WrongDistance { .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, LabelingViolation::DoesNotRespectHierarchy { .. })));

        // An extra (redundant) label at vertex 2 with hub 0 violates minimality.
        let redundant = HubLabelIndex::from_triples(
            vec![
                (0, 0, 0),
                (0, 1, 1),
                (1, 1, 0),
                (2, 1, 1),
                (2, 2, 0),
                (2, 0, 2),
            ],
            ranking.clone(),
        );
        let violations = check_labeling(&g, &ranking, &redundant);
        assert!(violations
            .iter()
            .any(|v| matches!(v, LabelingViolation::RedundantLabel { vertex: 2, hub: 0 })));
        assert!(!is_canonical(&g, &ranking, &redundant));
        // But it still satisfies the cover property.
        assert!(satisfies_cover_property(&g, &redundant));
    }

    #[test]
    fn checker_detects_wrong_label_distance() {
        let g = path_graph(2);
        let ranking = Ranking::identity(2);
        let wrong =
            HubLabelIndex::from_triples(vec![(0, 0, 0), (1, 0, 5), (1, 1, 0)], ranking.clone());
        let violations = check_labeling(&g, &ranking, &wrong);
        assert!(violations.iter().any(|v| matches!(
            v,
            LabelingViolation::WrongLabelDistance {
                vertex: 1,
                hub: 0,
                stored: 5,
                expected: 1
            }
        )));
    }

    #[test]
    fn empty_graph_is_trivially_canonical() {
        let g = chl_graph::GraphBuilder::new_undirected().build().unwrap();
        let ranking = Ranking::identity(0);
        let chl = brute_force_chl(&g, &ranking);
        assert!(is_canonical(&g, &ranking, &chl));
        assert_eq!(chl.total_labels(), 0);
    }
}
