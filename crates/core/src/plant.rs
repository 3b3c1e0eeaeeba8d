//! PLaNT — Prune Labels and (do) Not (prune) Trees (Algorithm 3, §5.2).
//!
//! PLaNT inverts PLL's trade-off: instead of pruning the shortest-path tree
//! with queries against previously generated labels (which requires those
//! labels to be *present*, the very thing a distributed memory system cannot
//! afford), it explores the tree without label-based pruning and decides
//! locally whether to emit a label. While growing `SPT_h` it propagates, for
//! every vertex `v`, the most important **ancestor** seen on the chosen
//! shortest path from `h` to `v` (ties between equal-length paths are broken
//! towards the path with the more important ancestor). A label `(h, δ_v)` is
//! emitted iff neither `v` nor its ancestor outranks `h` — i.e. iff `h` is
//! the most important vertex on the shortest paths between `h` and `v`,
//! which is exactly the canonical-hub condition. The output is therefore
//! non-redundant *by construction*, with zero dependence on other SPTs.
//!
//! Two optimizations from the paper are included:
//!
//! * **Early termination**: once no vertex in the priority queue can still
//!   produce a label (its ancestor already outranks the root), the rest of
//!   the traversal is useless and is abandoned.
//! * **Common-label pruning** (§5.3): when the complete label sets of the
//!   `η` most important hubs are available (the *Common Label Table*),
//!   distance queries against them can prune the traversal without risking
//!   redundant labels.
//!
//! [`plant_labeling`] PLaNTs every root in one pass of the root scheduler;
//! Hybrid runs the same pass (`plant_trees`) with its Ψ stop rule.

use std::time::Instant;

use chl_graph::sssp::heap::DistanceQueue;
use chl_graph::types::{dist_add, Distance, VertexId, INFINITY};
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::LabelingConfig;
use crate::index::LabelingResult;
use crate::labels::{HubDistances, LabelEntry, LabelSet};
use crate::schedule::{self, Pass};
use crate::stats::SptRecord;
use crate::table::ConcurrentLabelTable;

/// Labels of the `η` most important hubs, replicated everywhere (§5.3). Both
/// the PLaNT kernel and DGLL use it to prune traversal safely.
#[derive(Debug, Clone, Default)]
pub struct CommonLabelTable {
    /// `per_vertex[v]` holds `v`'s labels whose hub rank position is `< eta`.
    per_vertex: Vec<LabelSet>,
    /// The table covers hubs with rank position `0..eta`.
    eta: u32,
}

impl CommonLabelTable {
    /// Creates an empty table (prunes nothing).
    pub fn empty(num_vertices: usize) -> Self {
        CommonLabelTable {
            per_vertex: vec![LabelSet::new(); num_vertices],
            eta: 0,
        }
    }

    /// Builds the table from a full labeling by keeping, for every vertex,
    /// only the labels whose hub ranks within the top `eta` positions.
    pub fn from_labels(labels: &[LabelSet], eta: u32) -> Self {
        CommonLabelTable {
            per_vertex: labels.iter().map(|s| s.restrict_to_top_hubs(eta)).collect(),
            eta,
        }
    }

    /// Inserts a single label (used as labels of top hubs are broadcast).
    pub fn insert(&mut self, v: VertexId, entry: LabelEntry) {
        debug_assert!(entry.hub < self.eta.max(entry.hub + 1));
        self.per_vertex[v as usize].push(entry);
    }

    /// Creates an empty table that will accept hubs ranked `< eta`.
    pub fn with_eta(num_vertices: usize, eta: u32) -> Self {
        CommonLabelTable {
            per_vertex: vec![LabelSet::new(); num_vertices],
            eta,
        }
    }

    /// Number of hub positions covered.
    pub fn eta(&self) -> u32 {
        self.eta
    }

    /// Labels stored for `v`.
    pub fn labels_of(&self, v: VertexId) -> &LabelSet {
        &self.per_vertex[v as usize]
    }

    /// Total number of labels stored in the table.
    pub fn total_labels(&self) -> usize {
        self.per_vertex.iter().map(LabelSet::len).sum()
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.per_vertex.iter().map(LabelSet::memory_bytes).sum()
    }
}

/// Outcome of one PLaNTed SPT: the labels it generated (as
/// `(vertex, distance)` pairs — the hub is the root) plus instrumentation.
#[derive(Debug, Clone)]
pub struct PlantedTree {
    /// Rank position of the root.
    pub root_position: u32,
    /// `(labeled vertex, distance to the root)` pairs.
    pub labels: Vec<(VertexId, Distance)>,
    /// Number of vertices popped from the queue.
    pub vertices_explored: usize,
}

impl PlantedTree {
    /// Converts to the generic per-SPT record.
    pub fn record(&self) -> SptRecord {
        SptRecord {
            root_position: self.root_position,
            labels_generated: self.labels.len(),
            vertices_explored: self.vertices_explored,
        }
    }
}

/// Scratch buffers reused across PLaNT Dijkstra runs.
pub struct PlantScratch {
    dist: Vec<Distance>,
    ancestor: Vec<VertexId>,
    touched: Vec<VertexId>,
    queue: DistanceQueue,
    /// The root's common labels below the usable `η`, by hub.
    root_common: HubDistances,
}

impl PlantScratch {
    /// Creates scratch space for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        PlantScratch {
            dist: vec![INFINITY; n],
            ancestor: (0..n as VertexId).collect(),
            touched: Vec::new(),
            queue: DistanceQueue::new(),
            root_common: HubDistances::new(n),
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
            self.ancestor[v as usize] = v;
        }
        self.touched.clear();
        self.queue.clear();
        self.root_common.clear();
    }
}

/// Runs one PLaNTed SPT from `root` (Algorithm 3).
///
/// `common` supplies the Common Label Table for optional traversal pruning;
/// pass [`CommonLabelTable::empty`] (or a table with `eta = 0`) to disable
/// pruning entirely. Pruning only ever uses hubs strictly more important than
/// the root, so it cannot suppress canonical labels.
pub fn plant_dijkstra(
    g: &CsrGraph,
    ranking: &Ranking,
    root: VertexId,
    early_termination: bool,
    common: &CommonLabelTable,
    scratch: &mut PlantScratch,
) -> PlantedTree {
    debug_assert_eq!(g.num_vertices(), ranking.len());
    scratch.reset();
    let root_pos = ranking.position(root);

    // The root's common labels as a dense array, restricted to hubs more
    // important than the root (the only hubs for which pruning is provably
    // safe).
    let usable_eta = common.eta().min(root_pos);
    if usable_eta > 0 {
        scratch
            .root_common
            .load(common.labels_of(root).entries(), usable_eta);
    }

    let mut tree = PlantedTree {
        root_position: root_pos,
        labels: Vec::new(),
        vertices_explored: 0,
    };

    scratch.dist[root as usize] = 0;
    scratch.ancestor[root as usize] = root;
    scratch.touched.push(root);
    scratch.queue.push(0, root);
    // Number of not-yet-settled reachable vertices whose current ancestor is
    // still the root (i.e. that can still produce a label).
    let mut fertile = 1i64;

    while let Some((d, v)) = scratch.queue.pop() {
        if early_termination && fertile <= 0 {
            break;
        }
        if d > scratch.dist[v as usize] {
            continue; // stale entry
        }
        tree.vertices_explored += 1;

        let anc = scratch.ancestor[v as usize];
        if anc == root {
            fertile -= 1;
        }
        // nA: the most important of {v, a[v]} — the most important vertex on
        // the chosen shortest path from the root to v.
        let most_important = ranking.more_important_of(v, anc);

        // Optional distance-query pruning against the Common Label Table.
        if usable_eta > 0 && scratch.root_common.covers(common.labels_of(v).entries(), d) {
            continue;
        }

        let produces_label = !ranking.is_more_important(most_important, root);
        if produces_label {
            tree.labels.push((v, d));
        }

        for (u, w) in g.neighbors(v) {
            let cand = dist_add(d, w);
            let prev_anc = scratch.ancestor[u as usize];
            if cand < scratch.dist[u as usize] {
                if scratch.dist[u as usize] == INFINITY {
                    scratch.touched.push(u);
                }
                scratch.dist[u as usize] = cand;
                let new_anc = ranking.more_important_of(most_important, u);
                if new_anc == root && prev_anc != root {
                    fertile += 1;
                } else if new_anc != root && prev_anc == root {
                    fertile -= 1;
                }
                scratch.ancestor[u as usize] = new_anc;
                scratch.queue.push(cand, u);
            } else if cand == scratch.dist[u as usize] && cand != INFINITY {
                // Equal-length path: keep the more important ancestor so that
                // redundancy is judged against the union of shortest paths.
                let new_anc = ranking.more_important_of(most_important, prev_anc);
                if new_anc != prev_anc {
                    if new_anc == root && prev_anc != root {
                        fertile += 1;
                    } else if new_anc != root && prev_anc == root {
                        fertile -= 1;
                    }
                    scratch.ancestor[u as usize] = new_anc;
                }
            }
        }
    }
    tree
}

/// Embarrassingly parallel CHL construction: every root is PLaNTed
/// independently; no pruning queries, no cleaning, no cross-SPT state.
///
/// Thin wrapper over [`crate::api::PlantLabeler`]; panics on invalid inputs.
/// Prefer [`crate::api::ChlBuilder`] in new code.
pub fn plant_labeling(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::PlantLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("plant_labeling: {e}"))
}

pub(crate) fn plant_labeling_impl(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> LabelingResult {
    let start = Instant::now();
    let table = ConcurrentLabelTable::new(g.num_vertices());
    let pass = plant_trees(g, ranking, config, &table, |_| false);
    let threads = config.effective_threads();
    let mut result = pass.uncleaned("PLaNT", threads, table.into_label_sets(), ranking, start);
    result.stats.planted_trees = g.num_vertices();
    result
}

/// PLaNTs roots in rank order from position 0 on `config`'s thread count,
/// appending each tree's labels to `table`, until `stop` ends the pass (see
/// [`schedule::run`]): PLaNT runs every root, Hybrid stops at its Ψ switch.
pub(crate) fn plant_trees(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
    table: &ConcurrentLabelTable,
    stop: impl Fn(&SptRecord) -> bool + Sync,
) -> Pass {
    let n = g.num_vertices();
    let common = CommonLabelTable::empty(n);
    let mut scratch: Vec<_> = (0..config.effective_threads())
        .map(|_| PlantScratch::new(n))
        .collect();
    schedule::run(&mut scratch, 0..n as u32, stop, |scratch, pos| {
        let root = ranking.vertex_at(pos);
        let tree = plant_dijkstra(g, ranking, root, config.early_termination, &common, scratch);
        for &(v, d) in &tree.labels {
            table.append(v, LabelEntry::new(pos, d));
        }
        (tree.record(), 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::HubLabelIndex;
    use crate::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
    use chl_graph::GraphBuilder;
    use chl_ranking::degree_ranking;

    fn figure_one_graph() -> CsrGraph {
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
    fn reproduces_figure_1c_spt_v2() {
        // PLaNTing SPT_v2 after SPT_v1 generates exactly the same labels PLL
        // would: (v2, 0) at v2 and (v2, 10) at v3 — nothing at v1, v4, v5.
        let g = figure_one_graph();
        let ranking = Ranking::identity(5);
        let mut scratch = PlantScratch::new(5);
        let common = CommonLabelTable::empty(5);
        let tree = plant_dijkstra(&g, &ranking, 1, false, &common, &mut scratch);
        let mut labeled: Vec<(VertexId, Distance)> = tree.labels.clone();
        labeled.sort_unstable();
        assert_eq!(labeled, vec![(1, 0), (2, 10)]);
        // PLaNT explores more of the graph than PLL would have.
        assert!(tree.vertices_explored >= 4);
    }

    #[test]
    fn tie_breaking_prefers_higher_ranked_ancestor() {
        // Two equal-length paths 0-1-3 and 0-2-3 (weights 1+1); vertex 1 is
        // more important than the root but vertex 2 is not. The ancestor of 3
        // must become vertex 1, so no label (root, ·) is emitted at 3.
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 3, 1);
        let g = b.build().unwrap();
        // Importance: 1 > 0 > 2 > 3.
        let ranking = Ranking::from_order(vec![1, 0, 2, 3], 4).unwrap();
        let mut scratch = PlantScratch::new(4);
        let common = CommonLabelTable::empty(4);
        let tree = plant_dijkstra(&g, &ranking, 0, false, &common, &mut scratch);
        let labeled: Vec<VertexId> = tree.labels.iter().map(|&(v, _)| v).collect();
        assert!(labeled.contains(&0));
        assert!(labeled.contains(&2));
        assert!(!labeled.contains(&1), "vertex 1 outranks the root");
        assert!(
            !labeled.contains(&3),
            "vertex 3 is covered by the more important vertex 1"
        );
    }

    #[test]
    fn plant_labeling_equals_sequential_pll() {
        let g = erdos_renyi(70, 0.08, 16, 19);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let planted =
            plant_labeling(&g, &ranking, &LabelingConfig::default().with_threads(4)).index;
        assert_eq!(canonical, planted);
    }

    #[test]
    fn plant_labeling_equals_pll_on_road_like_graph() {
        let g = grid_network(
            &GridOptions {
                rows: 9,
                cols: 7,
                ..GridOptions::default()
            },
            29,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 16,
                degree_tiebreak: true,
            },
            5,
        );
        let canonical = sequential_pll(&g, &ranking).index;
        let planted =
            plant_labeling(&g, &ranking, &LabelingConfig::default().with_threads(8)).index;
        assert_eq!(canonical, planted);
    }

    #[test]
    fn early_termination_preserves_output() {
        let g = barabasi_albert(150, 3, 77);
        let ranking = degree_ranking(&g);
        let with_et = plant_labeling(
            &g,
            &ranking,
            &LabelingConfig {
                early_termination: true,
                ..LabelingConfig::default().with_threads(4)
            },
        );
        let without_et = plant_labeling(
            &g,
            &ranking,
            &LabelingConfig {
                early_termination: false,
                ..LabelingConfig::default().with_threads(4)
            },
        );
        assert_eq!(with_et.index, without_et.index);
        // Early termination can only reduce exploration.
        assert!(
            with_et.stats.total_vertices_explored() <= without_et.stats.total_vertices_explored()
        );
    }

    #[test]
    fn common_label_pruning_preserves_output_and_cuts_exploration() {
        let g = barabasi_albert(150, 3, 51);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let eta = 16u32;
        let common = CommonLabelTable::from_labels(&canonical.clone().into_label_sets(), eta);

        let n = g.num_vertices();
        let table = ConcurrentLabelTable::new(n);
        let mut scratch = PlantScratch::new(n);
        let mut explored_pruned = 0usize;
        for pos in 0..n as u32 {
            let root = ranking.vertex_at(pos);
            let tree = plant_dijkstra(&g, &ranking, root, true, &common, &mut scratch);
            explored_pruned += tree.vertices_explored;
            for &(v, d) in &tree.labels {
                table.append(v, LabelEntry::new(pos, d));
            }
        }
        let pruned_index = HubLabelIndex::new(table.into_label_sets(), ranking.clone()).unwrap();
        assert_eq!(pruned_index, canonical);

        // Re-run without the table to compare exploration volume.
        let empty = CommonLabelTable::empty(n);
        let mut explored_plain = 0usize;
        for pos in 0..n as u32 {
            let root = ranking.vertex_at(pos);
            let tree = plant_dijkstra(&g, &ranking, root, true, &empty, &mut scratch);
            explored_plain += tree.vertices_explored;
        }
        assert!(explored_pruned <= explored_plain);
    }

    #[test]
    fn psi_grows_for_low_ranked_roots_on_scale_free_graphs() {
        // Figure 3's qualitative claim: later (less important) SPTs explore
        // many vertices per label generated. Early termination is disabled so
        // the exploration counts reflect the raw tree sizes.
        let g = barabasi_albert(200, 3, 13);
        let ranking = degree_ranking(&g);
        let config = LabelingConfig {
            early_termination: false,
            ..LabelingConfig::default().with_threads(2)
        };
        let result = plant_labeling(&g, &ranking, &config);
        let psi = result.stats.psi_per_spt();
        let early: f64 = psi[..10]
            .iter()
            .map(|&(_, p)| p)
            .filter(|p| p.is_finite())
            .sum::<f64>()
            / 10.0;
        let late: Vec<f64> = psi[psi.len() - 20..]
            .iter()
            .map(|&(_, p)| p)
            .filter(|p| p.is_finite())
            .collect();
        let late_avg = late.iter().sum::<f64>() / late.len().max(1) as f64;
        assert!(
            late_avg > early,
            "expected later SPTs to explore more per label (early {early}, late {late_avg})"
        );
    }

    #[test]
    fn disconnected_graph_gets_per_component_labels() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 2);
        let g = b.build().unwrap();
        let ranking = Ranking::identity(4);
        let result = plant_labeling(&g, &ranking, &LabelingConfig::default().with_threads(2));
        assert_eq!(result.index.query(0, 1), 2);
        assert_eq!(result.index.query(1, 3), chl_graph::types::INFINITY);
    }

    #[test]
    fn common_table_bookkeeping() {
        let labels = vec![
            LabelSet::from_entries(vec![LabelEntry::new(0, 1), LabelEntry::new(20, 2)]),
            LabelSet::from_entries(vec![LabelEntry::new(3, 4)]),
        ];
        let t = CommonLabelTable::from_labels(&labels, 16);
        assert_eq!(t.eta(), 16);
        assert_eq!(t.total_labels(), 2);
        assert!(t.memory_bytes() > 0);
        assert!(t.labels_of(0).contains_hub(0));
        assert!(!t.labels_of(0).contains_hub(20));

        let mut t = CommonLabelTable::with_eta(2, 8);
        t.insert(1, LabelEntry::new(2, 9));
        assert_eq!(t.labels_of(1).distance_to_hub(2), Some(9));
    }
}
