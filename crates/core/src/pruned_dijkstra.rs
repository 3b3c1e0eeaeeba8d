//! Pruned Dijkstra with Rank Queries — Algorithm 1 of the paper.
//!
//! This is the per-root kernel shared by every *pruning-based* constructor
//! (sequential PLL, paraPLL, LCC, GLL, the DGLL nodes and Hybrid's tail).
//! Given the current labels, it grows a shortest-path tree from a root `h`
//! and, for every vertex `v` it settles:
//!
//! 1. **Rank query** (optional): if `v` is more important than `h`, prune the
//!    tree at `v` and do not label `v`. This is the addition that makes the
//!    parallel labeling *respect the hierarchy* (LCC/GLL); paraPLL omits it.
//! 2. **Distance query**: if some hub common to `h` and `v` already certifies
//!    a distance `<= δ_v`, prune at `v` without labeling it.
//! 3. Otherwise add `(h, δ_v)` to `v`'s labels and relax `v`'s edges.
//!
//! The distance query departs from Algorithm 1 on purpose. The paper hashes
//! the root's labels once per tree (`LR = hash(L_h)`) and probes the hash
//! with every label of `v`. Here the root's labels are loaded into a dense
//! [`HubDistances`] array indexed by hub rank position, as Pruned Landmark
//! Labeling does (Akiba, Iwata, Yoshida, SIGMOD 2013). `v`'s labels are
//! scanned where they are stored ([`crate::table::LabelRuns::any_run`]),
//! never copied, so each probe is one indexed load and the answers are the
//! same.

use chl_graph::sssp::heap::DistanceQueue;
use chl_graph::types::{dist_add, Distance, VertexId, INFINITY};
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::labels::{HubDistances, LabelEntry};
use crate::stats::SptRecord;
use crate::table::LabelAccess;

/// Reusable scratch buffers for repeated pruned-Dijkstra runs. Allocating the
/// distance array once per worker thread (instead of once per SPT) mirrors
/// the paper's note that initialization only touches entries modified by the
/// previous run.
pub struct DijkstraScratch {
    dist: Vec<Distance>,
    touched: Vec<VertexId>,
    queue: DistanceQueue,
    /// The current root's labels, by hub.
    root_labels: HubDistances,
}

impl DijkstraScratch {
    /// Creates scratch space for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DijkstraScratch {
            dist: vec![INFINITY; n],
            touched: Vec::new(),
            queue: DistanceQueue::new(),
            root_labels: HubDistances::new(n),
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
        }
        self.touched.clear();
        self.queue.clear();
        self.root_labels.clear();
    }
}

/// Options controlling one pruned-Dijkstra run.
#[derive(Debug, Clone, Copy)]
pub struct PruneOptions {
    /// Enable the rank query (prune at vertices more important than the root).
    pub rank_query: bool,
    /// Restrict distance queries to hubs with rank position strictly below
    /// this bound (`u32::MAX` = use every available hub). Figure 4 of the
    /// paper sweeps this bound.
    pub max_pruning_hub: u32,
}

impl Default for PruneOptions {
    fn default() -> Self {
        PruneOptions {
            rank_query: true,
            max_pruning_hub: u32::MAX,
        }
    }
}

/// Runs Algorithm 1 from `root`, appending generated labels through `labels`.
/// Returns the per-SPT instrumentation record (labels generated, vertices
/// explored) plus the number of distance queries issued via the second tuple
/// element.
pub fn pruned_dijkstra<L: LabelAccess>(
    g: &CsrGraph,
    ranking: &Ranking,
    root: VertexId,
    labels: &L,
    opts: PruneOptions,
    scratch: &mut DijkstraScratch,
) -> (SptRecord, usize) {
    debug_assert_eq!(g.num_vertices(), ranking.len());
    scratch.reset();
    let root_pos = ranking.position(root);

    // The root's current labels below the pruning bound, loaded once per
    // SPT (Algorithm 1's `LR = hash(L_h)`, as a dense array).
    labels.any_run(root, |run| {
        scratch.root_labels.load(run, opts.max_pruning_hub);
        false
    });

    let mut record = SptRecord {
        root_position: root_pos,
        labels_generated: 0,
        vertices_explored: 0,
    };
    let mut distance_queries = 0usize;

    scratch.dist[root as usize] = 0;
    scratch.touched.push(root);
    scratch.queue.push(0, root);

    while let Some((d, v)) = scratch.queue.pop() {
        if d > scratch.dist[v as usize] {
            continue; // stale queue entry
        }
        record.vertices_explored += 1;

        // Rank query: a more important vertex terminates this branch.
        if opts.rank_query && ranking.position(v) < root_pos {
            continue;
        }

        // Distance query against the labels v has accumulated so far,
        // scanned in place. Hubs at or past the pruning bound were never
        // loaded, so they cannot cover.
        if v != root {
            distance_queries += 1;
            if labels.any_run(v, |run| scratch.root_labels.covers(run, d)) {
                continue;
            }
        }

        labels.append(v, LabelEntry::new(root_pos, d));
        record.labels_generated += 1;

        for (u, w) in g.neighbors(v) {
            let cand = dist_add(d, w);
            if cand < scratch.dist[u as usize] {
                if scratch.dist[u as usize] == INFINITY {
                    scratch.touched.push(u);
                }
                scratch.dist[u as usize] = cand;
                scratch.queue.push(cand, u);
            }
        }
    }

    (record, distance_queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ConcurrentLabelTable;
    use chl_graph::generators::path_graph;
    use chl_graph::GraphBuilder;

    fn figure_one_graph() -> CsrGraph {
        // Figure 1 of the paper: v1=0 ... v5=4.
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 3);
        b.add_edge(0, 3, 5);
        b.add_edge(3, 4, 4);
        b.add_edge(2, 4, 2);
        b.add_edge(1, 2, 10);
        b.add_edge(1, 4, 14);
        b.build().unwrap()
    }

    #[test]
    fn reproduces_figure_1b_spt_v2() {
        // Ranking: v1 > v2 > v3 > v4 > v5, i.e. the identity order.
        let g = figure_one_graph();
        let ranking = Ranking::identity(5);
        let table = ConcurrentLabelTable::new(5);
        let mut scratch = DijkstraScratch::new(5);

        // First build SPT_v1 (root 0): labels every vertex with hub v1.
        let (rec0, _) = pruned_dijkstra(
            &g,
            &ranking,
            0,
            &table,
            PruneOptions::default(),
            &mut scratch,
        );
        assert_eq!(rec0.labels_generated, 5);

        // Then SPT_v2 (root 1): the paper's walkthrough generates labels for
        // v2 (itself, dist 0) and v3 (dist 10), pruning v1 and v5.
        let (rec1, queries) = pruned_dijkstra(
            &g,
            &ranking,
            1,
            &table,
            PruneOptions::default(),
            &mut scratch,
        );
        assert_eq!(rec1.labels_generated, 2);
        assert!(queries > 0);
        let sets = table.into_label_sets();
        assert_eq!(sets[1].distance_to_hub(1), Some(0));
        assert_eq!(sets[2].distance_to_hub(1), Some(10));
        assert_eq!(sets[4].distance_to_hub(1), None); // pruned via common hub v1
        assert_eq!(sets[0].distance_to_hub(1), None); // rank query pruned
    }

    #[test]
    fn rank_query_prunes_more_important_vertices() {
        // Path 0-1-2 where the middle vertex is the most important. An SPT
        // rooted at 0 (less important) must not label vertex 1 or anything
        // beyond it.
        let g = path_graph(3);
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        let table = ConcurrentLabelTable::new(3);
        let mut scratch = DijkstraScratch::new(3);
        let (rec, _) = pruned_dijkstra(
            &g,
            &ranking,
            0,
            &table,
            PruneOptions::default(),
            &mut scratch,
        );
        assert_eq!(rec.labels_generated, 1); // only the root labels itself
        let sets = table.into_label_sets();
        assert!(sets[1].is_empty());
        assert!(sets[2].is_empty());
    }

    #[test]
    fn without_rank_query_labels_leak_past_important_vertices() {
        // Same setup as above but with the rank query disabled (paraPLL
        // behaviour): when no earlier labels exist the root labels everything.
        let g = path_graph(3);
        let ranking = Ranking::from_order(vec![1, 0, 2], 3).unwrap();
        let table = ConcurrentLabelTable::new(3);
        let mut scratch = DijkstraScratch::new(3);
        let opts = PruneOptions {
            rank_query: false,
            ..Default::default()
        };
        let (rec, _) = pruned_dijkstra(&g, &ranking, 0, &table, opts, &mut scratch);
        assert_eq!(rec.labels_generated, 3);
    }

    #[test]
    fn distance_query_prunes_covered_vertices() {
        // Star with center 0 (most important). After SPT_0, an SPT from any
        // leaf only labels the leaf itself: the center and every other leaf
        // are covered through hub 0. The rank query is disabled so the prune
        // at the center is attributable to the distance query alone.
        let g = chl_graph::generators::star_graph(5);
        let ranking = Ranking::identity(5);
        let table = ConcurrentLabelTable::new(5);
        let mut scratch = DijkstraScratch::new(5);
        pruned_dijkstra(
            &g,
            &ranking,
            0,
            &table,
            PruneOptions::default(),
            &mut scratch,
        );
        let opts = PruneOptions {
            rank_query: false,
            ..Default::default()
        };
        let (rec, _) = pruned_dijkstra(&g, &ranking, 1, &table, opts, &mut scratch);
        assert_eq!(rec.labels_generated, 1);
        let sets = table.into_label_sets();
        for leaf in 2..5u32 {
            assert_eq!(sets[leaf as usize].distance_to_hub(1), None);
        }
    }

    #[test]
    fn restricted_pruning_hub_bound_generates_more_labels() {
        // On a cycle, SPT_1 prunes at the antipodal vertex through hub 0 when
        // distance queries are allowed; with rank queries only (bound = 0)
        // that vertex receives an extra, redundant label.
        let g = chl_graph::generators::cycle_graph(6);
        let ranking = Ranking::identity(6);

        let full = ConcurrentLabelTable::new(6);
        let mut scratch = DijkstraScratch::new(6);
        for v in 0..6u32 {
            pruned_dijkstra(
                &g,
                &ranking,
                v,
                &full,
                PruneOptions::default(),
                &mut scratch,
            );
        }

        let restricted = ConcurrentLabelTable::new(6);
        let opts = PruneOptions {
            rank_query: true,
            max_pruning_hub: 0,
        };
        for v in 0..6u32 {
            pruned_dijkstra(&g, &ranking, v, &restricted, opts, &mut scratch);
        }
        assert!(restricted.total_labels() > full.total_labels());

        // Allowing the single most important hub for pruning already recovers
        // part of the gap.
        let partial = ConcurrentLabelTable::new(6);
        let opts = PruneOptions {
            rank_query: true,
            max_pruning_hub: 1,
        };
        for v in 0..6u32 {
            pruned_dijkstra(&g, &ranking, v, &partial, opts, &mut scratch);
        }
        assert!(partial.total_labels() <= restricted.total_labels());
        assert!(partial.total_labels() >= full.total_labels());
    }

    #[test]
    fn scratch_is_reusable_across_roots() {
        // Re-running the same root with a scratch that has been used for many
        // other roots must give identical output (i.e. the per-run reset is
        // complete).
        let g = path_graph(6);
        let ranking = Ranking::identity(6);
        let fresh_table = ConcurrentLabelTable::new(6);
        let mut fresh_scratch = DijkstraScratch::new(6);
        let (fresh_rec, _) = pruned_dijkstra(
            &g,
            &ranking,
            0,
            &fresh_table,
            PruneOptions::default(),
            &mut fresh_scratch,
        );

        let reused_table = ConcurrentLabelTable::new(6);
        let mut reused_scratch = DijkstraScratch::new(6);
        for v in 1..6u32 {
            let scratch_only = ConcurrentLabelTable::new(6);
            pruned_dijkstra(
                &g,
                &ranking,
                v,
                &scratch_only,
                PruneOptions::default(),
                &mut reused_scratch,
            );
        }
        let (reused_rec, _) = pruned_dijkstra(
            &g,
            &ranking,
            0,
            &reused_table,
            PruneOptions::default(),
            &mut reused_scratch,
        );

        assert_eq!(fresh_rec, reused_rec);
        assert_eq!(fresh_table.snapshot(5), reused_table.snapshot(5));
    }
}
