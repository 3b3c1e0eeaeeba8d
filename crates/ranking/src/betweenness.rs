//! Approximate betweenness-centrality ordering.
//!
//! The paper ranks road-network vertices by betweenness "approximated by
//! sampling a few shortest path trees" (§7.1.1, citing Geisberger et al.).
//! This module implements exactly that: Brandes' dependency accumulation run
//! from a sample of roots, generalized to weighted graphs by replacing BFS
//! with Dijkstra.

use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use chl_graph::sssp::heap::DistanceQueue;
use chl_graph::types::{dist_add, Distance, VertexId, INFINITY};
use chl_graph::CsrGraph;

use crate::ranking::{Ranking, RankingStrategy};

/// Options for [`approx_betweenness`].
#[derive(Debug, Clone)]
pub struct BetweennessOptions {
    /// Number of sampled roots. The estimate converges quickly; the paper
    /// notes the sampling is "inexpensive to compute", so the default stays
    /// small.
    pub samples: usize,
    /// Break centrality ties by degree (helps small/synthetic graphs where
    /// many vertices have zero sampled dependency).
    pub degree_tiebreak: bool,
}

impl Default for BetweennessOptions {
    fn default() -> Self {
        BetweennessOptions {
            samples: 32,
            degree_tiebreak: true,
        }
    }
}

/// Estimates betweenness centrality of every vertex by running Brandes'
/// accumulation from `opts.samples` random roots (all roots if the graph is
/// smaller than the sample count). Returns one score per vertex.
pub fn approx_betweenness(g: &CsrGraph, opts: &BetweennessOptions, seed: u64) -> Vec<f64> {
    let n = g.num_vertices();
    let mut centrality = vec![0.0f64; n];
    if n == 0 {
        return centrality;
    }

    let mut roots: Vec<VertexId> = (0..n as u32).collect();
    if opts.samples < n {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbe73_3e55);
        roots.shuffle(&mut rng);
        roots.truncate(opts.samples.max(1));
    }

    // Scratch buffers reused across roots.
    let mut dist: Vec<Distance> = vec![INFINITY; n];
    let mut sigma: Vec<f64> = vec![0.0; n]; // number of shortest paths
    let mut delta: Vec<f64> = vec![0.0; n]; // dependency
    let mut preds: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let mut settled_order: Vec<VertexId> = Vec::with_capacity(n);

    for &s in &roots {
        dist.iter_mut().for_each(|d| *d = INFINITY);
        sigma.iter_mut().for_each(|x| *x = 0.0);
        delta.iter_mut().for_each(|x| *x = 0.0);
        preds.iter_mut().for_each(Vec::clear);
        settled_order.clear();

        // Weighted Brandes: Dijkstra keeping shortest-path counts and
        // predecessor lists.
        let mut queue = DistanceQueue::new();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        queue.push(0, s);
        let mut settled = vec![false; n];
        while let Some((d, v)) = queue.pop() {
            if settled[v as usize] || d > dist[v as usize] {
                continue;
            }
            settled[v as usize] = true;
            settled_order.push(v);
            for (u, w) in g.neighbors(v) {
                let cand = dist_add(d, w);
                if cand < dist[u as usize] {
                    dist[u as usize] = cand;
                    sigma[u as usize] = sigma[v as usize];
                    preds[u as usize].clear();
                    preds[u as usize].push(v);
                    queue.push(cand, u);
                } else if cand == dist[u as usize] && cand != INFINITY {
                    sigma[u as usize] += sigma[v as usize];
                    preds[u as usize].push(v);
                }
            }
        }

        // Dependency accumulation in reverse settled order.
        for &v in settled_order.iter().rev() {
            for &p in &preds[v as usize] {
                if sigma[v as usize] > 0.0 {
                    delta[p as usize] +=
                        sigma[p as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
                }
            }
            if v != s {
                centrality[v as usize] += delta[v as usize];
            }
        }
    }
    centrality
}

/// Ranks vertices by approximate betweenness, most central first.
pub fn betweenness_ranking(g: &CsrGraph, opts: &BetweennessOptions, seed: u64) -> Ranking {
    let mut scores = approx_betweenness(g, opts, seed);
    if opts.degree_tiebreak {
        // Perturb scores by a degree term smaller than any meaningful
        // betweenness difference so that ties fall back to degree order.
        let n = g.num_vertices().max(1) as f64;
        for v in g.vertices() {
            scores[v as usize] += g.degree(v) as f64 / (n * n);
        }
    }
    Ranking::from_scores(&scores)
}

/// [`RankingStrategy`] wrapper around [`betweenness_ranking`].
#[derive(Debug, Clone, Default)]
pub struct BetweennessOrdering {
    /// Sampling options.
    pub options: BetweennessOptions,
    /// RNG seed for root sampling.
    pub seed: u64,
}

impl RankingStrategy for BetweennessOrdering {
    fn rank(&self, g: &CsrGraph) -> Ranking {
        betweenness_ranking(g, &self.options, self.seed)
    }
    fn name(&self) -> &'static str {
        "approx-betweenness"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::generators::{grid_network, path_graph, star_graph, GridOptions};
    use chl_graph::GraphBuilder;

    fn exact_options(n: usize) -> BetweennessOptions {
        BetweennessOptions {
            samples: n,
            degree_tiebreak: false,
        }
    }

    #[test]
    fn path_center_has_highest_betweenness() {
        let g = path_graph(7);
        let c = approx_betweenness(&g, &exact_options(7), 0);
        let best = (0..7)
            .max_by(|&a, &b| c[a].partial_cmp(&c[b]).unwrap())
            .unwrap();
        assert_eq!(
            best, 3,
            "centre of a path carries the most shortest paths: {c:?}"
        );
        // Endpoints carry none.
        assert_eq!(c[0], 0.0);
        assert_eq!(c[6], 0.0);
    }

    #[test]
    fn star_center_dominates() {
        let g = star_graph(9);
        let r = betweenness_ranking(&g, &exact_options(9), 0);
        assert_eq!(r.vertex_at(0), 0);
    }

    #[test]
    fn bridge_vertex_outranks_clique_members() {
        // Two triangles joined through vertex 6: 0-1-2 and 3-4-5, bridge 6.
        let mut b = GraphBuilder::new_undirected();
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_edge(u, v, 1);
        }
        b.add_edge(2, 6, 1);
        b.add_edge(6, 3, 1);
        let g = b.build().unwrap();
        let r = betweenness_ranking(&g, &exact_options(7), 0);
        assert_eq!(r.vertex_at(0), 6);
    }

    #[test]
    fn weighted_graph_uses_weighted_paths() {
        // 0-1-2 with cheap edges, plus an expensive direct 0-2 edge: vertex 1
        // must be the most central because all 0..2 traffic goes through it.
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(0, 2, 100);
        let g = b.build().unwrap();
        let c = approx_betweenness(&g, &exact_options(3), 0);
        assert!(c[1] > c[0]);
        assert!(c[1] > c[2]);
    }

    #[test]
    fn sampling_is_deterministic_and_bounded() {
        let g = grid_network(
            &GridOptions {
                rows: 10,
                cols: 10,
                ..GridOptions::default()
            },
            5,
        );
        let opts = BetweennessOptions {
            samples: 16,
            degree_tiebreak: true,
        };
        let a = betweenness_ranking(&g, &opts, 11);
        let b = betweenness_ranking(&g, &opts, 11);
        assert_eq!(a, b);
        let c = betweenness_ranking(&g, &opts, 12);
        assert_eq!(c.len(), g.num_vertices());
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new_undirected().build().unwrap();
        assert!(approx_betweenness(&g, &BetweennessOptions::default(), 0).is_empty());
    }

    #[test]
    fn multiple_shortest_paths_split_dependency() {
        // A 4-cycle: every pair of opposite vertices has two shortest paths,
        // so the two intermediate vertices share the dependency equally.
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 0, 1);
        let g = b.build().unwrap();
        let c = approx_betweenness(&g, &exact_options(4), 0);
        assert!((c[0] - c[1]).abs() < 1e-9);
        assert!((c[1] - c[2]).abs() < 1e-9);
        assert!((c[2] - c[3]).abs() < 1e-9);
    }
}
