//! Plain (unpruned) Dijkstra, the ground-truth distance oracle.

use super::heap::DistanceQueue;
use crate::csr::CsrGraph;
use crate::types::{dist_add, Distance, VertexId, INFINITY};

/// One entry of a shortest path tree produced by [`dijkstra_with_parents`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SptNode {
    /// Shortest distance from the root, [`INFINITY`] if unreachable.
    pub distance: Distance,
    /// Parent in the shortest path tree; equal to the vertex itself for the
    /// root and for unreachable vertices.
    pub parent: VertexId,
}

/// Computes shortest distances from `source` to every vertex.
pub fn dijkstra(g: &CsrGraph, source: VertexId) -> Vec<Distance> {
    dijkstra_with_parents(g, source)
        .into_iter()
        .map(|n| n.distance)
        .collect()
}

/// Computes the full shortest path tree from `source` (distances + parents).
pub fn dijkstra_with_parents(g: &CsrGraph, source: VertexId) -> Vec<SptNode> {
    let n = g.num_vertices();
    let mut nodes: Vec<SptNode> = (0..n)
        .map(|v| SptNode {
            distance: INFINITY,
            parent: v as VertexId,
        })
        .collect();
    if n == 0 {
        return nodes;
    }
    assert!((source as usize) < n, "source vertex {source} out of range");

    let mut queue = DistanceQueue::new();
    nodes[source as usize].distance = 0;
    queue.push(0, source);

    while let Some((dist, v)) = queue.pop() {
        if dist > nodes[v as usize].distance {
            continue; // stale entry
        }
        for (u, w) in g.neighbors(v) {
            let cand = dist_add(dist, w);
            if cand < nodes[u as usize].distance {
                nodes[u as usize].distance = cand;
                nodes[u as usize].parent = v;
                queue.push(cand, u);
            }
        }
    }
    nodes
}

/// Computes shortest distances from `source` to each vertex in `targets`,
/// terminating as soon as every target has been settled. Returns distances in
/// the same order as `targets`.
pub fn dijkstra_targets(g: &CsrGraph, source: VertexId, targets: &[VertexId]) -> Vec<Distance> {
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut remaining: std::collections::HashSet<VertexId> = targets.iter().copied().collect();
    if n == 0 {
        return targets.iter().map(|_| INFINITY).collect();
    }
    let mut queue = DistanceQueue::new();
    dist[source as usize] = 0;
    queue.push(0, source);
    while let Some((d, v)) = queue.pop() {
        if d > dist[v as usize] {
            continue;
        }
        remaining.remove(&v);
        if remaining.is_empty() {
            break;
        }
        for (u, w) in g.neighbors(v) {
            let cand = dist_add(d, w);
            if cand < dist[u as usize] {
                dist[u as usize] = cand;
                queue.push(cand, u);
            }
        }
    }
    targets.iter().map(|&t| dist[t as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn paper_figure_graph() -> CsrGraph {
        // The 5-vertex example of Figure 1 in the paper (v1=0 ... v5=4).
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 3); // v1-v2
        b.add_edge(0, 3, 5); // v1-v4
        b.add_edge(3, 4, 4); // v4-v5
        b.add_edge(2, 4, 2); // v3-v5
        b.add_edge(1, 2, 10); // v2-v3
        b.add_edge(1, 4, 14); // v2-v5
        b.build().unwrap()
    }

    #[test]
    fn distances_on_small_weighted_graph() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 4);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 1, 2);
        b.add_edge(1, 3, 5);
        b.add_edge(2, 3, 8);
        let g = b.build().unwrap();
        let d = dijkstra(&g, 0);
        assert_eq!(d, vec![0, 3, 1, 8]);
    }

    #[test]
    fn parents_form_a_valid_tree() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 3, 10);
        let g = b.build().unwrap();
        let spt = dijkstra_with_parents(&g, 0);
        assert_eq!(spt[3].distance, 3);
        // Walk parents back to the root.
        let mut v = 3u32;
        let mut hops = 0;
        while v != 0 {
            v = spt[v as usize].parent;
            hops += 1;
            assert!(hops <= 4);
        }
        assert_eq!(hops, 3);
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.ensure_vertices(4);
        let g = b.build().unwrap();
        let d = dijkstra(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INFINITY);
        assert_eq!(d[3], INFINITY);
    }

    #[test]
    fn directed_distances_respect_direction() {
        let mut b = GraphBuilder::new_directed();
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 2);
        let g = b.build().unwrap();
        assert_eq!(dijkstra(&g, 0), vec![0, 2, 4]);
        assert_eq!(dijkstra(&g, 2), vec![INFINITY, INFINITY, 0]);
    }

    #[test]
    fn targeted_search_matches_full_search() {
        let mut b = GraphBuilder::new_undirected();
        for i in 0..20u32 {
            b.add_edge(i, i + 1, (i % 3) + 1);
        }
        let g = b.build().unwrap();
        let full = dijkstra(&g, 0);
        let targets = vec![20u32, 5, 13];
        let got = dijkstra_targets(&g, 0, &targets);
        assert_eq!(got, vec![full[20], full[5], full[13]]);
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = GraphBuilder::new_undirected().build().unwrap();
        assert!(dijkstra_with_parents(&g, 0).is_empty());
    }

    #[test]
    fn paper_figure_one_distances_from_v2() {
        // Figure 1b of the paper: distances from v2 after SPT construction.
        let g = paper_figure_graph();
        let d = dijkstra(&g, 1);
        assert_eq!(d[0], 3); // v1
        assert_eq!(d[1], 0); // v2
        assert_eq!(d[2], 10); // v3
        assert_eq!(d[3], 8); // v4
        assert_eq!(d[4], 12); // v5 via v1-v4, not the direct 14 edge
    }
}
