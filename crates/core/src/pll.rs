//! Sequential Pruned Landmark Labeling (Akiba et al.), the paper's `seqPLL`
//! baseline and the reference constructor of the Canonical Hub Labeling.
//!
//! PLL is the pruned kernel on the root scheduler at one thread, where the
//! `rayon` shim runs it inline and in rank order. SparaPLL and LCC run the
//! same construction (`pruned_trees`) on more threads, and Hybrid's tail
//! runs it from its switch point (`pruned_pass`).

use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::index::LabelingResult;
use crate::labels::LabelSet;
use crate::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use crate::schedule::{self, Pass};
use crate::table::ConcurrentLabelTable;

/// Builds the CHL sequentially: one pruned SPT per vertex, in decreasing rank
/// order, each pruned by distance queries against all previously generated
/// labels.
///
/// Thin wrapper over [`crate::api::PllLabeler`]; panics on invalid inputs.
/// Prefer [`crate::api::ChlBuilder`] (or the [`crate::api::Labeler`] trait)
/// in new code, which reports problems as [`crate::error::LabelingError`].
pub fn sequential_pll(g: &CsrGraph, ranking: &Ranking) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::PllLabeler
        .build(g, ranking, &crate::config::LabelingConfig::default())
        .unwrap_or_else(|e| panic!("sequential_pll: {e}"))
}

pub(crate) fn sequential_pll_impl(g: &CsrGraph, ranking: &Ranking) -> LabelingResult {
    // The rank query is redundant for the sequential schedule (every more
    // important vertex already has its SPT and prunes via the distance
    // query), but harmless; we keep the distance-query-only configuration to
    // match the original PLL formulation.
    let opts = PruneOptions {
        rank_query: false,
        ..Default::default()
    };
    pruned_labeling(g, ranking, 1, opts, "seqPLL")
}

/// Variant of sequential PLL whose distance queries may only use hubs with
/// rank position strictly below `max_pruning_hub`. `0` disables distance
/// pruning altogether (rank queries only). This reproduces the sweep of
/// Figure 4 ("# labels generated if pruning queries use few highest ranked
/// hubs").
pub fn pll_with_restricted_pruning(
    g: &CsrGraph,
    ranking: &Ranking,
    max_pruning_hub: u32,
) -> LabelingResult {
    // With distance pruning weakened the rank query becomes essential,
    // otherwise label counts degenerate to |V|^2 even for x = 0.
    let opts = PruneOptions {
        rank_query: true,
        max_pruning_hub,
    };
    pruned_labeling(g, ranking, 1, opts, "seqPLL-restricted")
}

/// PLL and SparaPLL: [`pruned_trees`] with no clean.
pub(crate) fn pruned_labeling(
    g: &CsrGraph,
    ranking: &Ranking,
    threads: usize,
    opts: PruneOptions,
    algorithm: &str,
) -> LabelingResult {
    let start = Instant::now();
    let (labels, pass) = pruned_trees(g, ranking, threads, opts);
    pass.uncleaned(algorithm, threads, labels, ranking, start)
}

/// One pruned tree per root, every root, on `threads` workers sharing one
/// label table: the construction of PLL, SparaPLL and LCC. At one thread the
/// trees run in rank order on the caller.
pub(crate) fn pruned_trees(
    g: &CsrGraph,
    ranking: &Ranking,
    threads: usize,
    opts: PruneOptions,
) -> (Vec<LabelSet>, Pass) {
    let table = ConcurrentLabelTable::new(g.num_vertices());
    let pass = pruned_pass(g, ranking, &table, 0, threads, opts);
    (
        rayon::with_threads(threads, || table.into_label_sets()),
        pass,
    )
}

/// One pruned tree per root from rank position `first` on, on `threads`
/// workers reading and writing `table`: [`pruned_trees`], and Hybrid's tail
/// over the labels its PLaNT phase left in `table`.
pub(crate) fn pruned_pass(
    g: &CsrGraph,
    ranking: &Ranking,
    table: &ConcurrentLabelTable,
    first: u32,
    threads: usize,
    opts: PruneOptions,
) -> Pass {
    let n = g.num_vertices();
    let mut scratch: Vec<_> = (0..threads).map(|_| DijkstraScratch::new(n)).collect();
    schedule::run(
        &mut scratch,
        first..n as u32,
        |_| false,
        |scratch, pos| pruned_dijkstra(g, ranking, ranking.vertex_at(pos), table, opts, scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::generators::{erdos_renyi, grid_network, path_graph, star_graph, GridOptions};
    use chl_graph::sssp::dijkstra;
    use chl_graph::types::INFINITY;
    use chl_ranking::degree_ranking;

    #[test]
    fn star_graph_labels_are_minimal() {
        // Center ranked first: every leaf gets {center, itself}, center gets
        // {center}: total = 2(n-1) + 1.
        let g = star_graph(8);
        let ranking = Ranking::identity(8);
        let result = sequential_pll(&g, &ranking);
        assert_eq!(result.index.total_labels(), 15);
        assert_eq!(result.index.query(3, 5), 2);
        assert_eq!(result.index.query(0, 5), 1);
    }

    #[test]
    fn path_graph_queries_are_exact() {
        let g = path_graph(10);
        let ranking = degree_ranking(&g);
        let result = sequential_pll(&g, &ranking);
        let d0 = dijkstra(&g, 0);
        for v in 0..10u32 {
            assert_eq!(result.index.query(0, v), d0[v as usize]);
        }
    }

    #[test]
    fn random_graph_queries_match_dijkstra() {
        let g = erdos_renyi(60, 0.08, 20, 13);
        let ranking = degree_ranking(&g);
        let result = sequential_pll(&g, &ranking);
        for src in [0u32, 17, 42] {
            let d = dijkstra(&g, src);
            for v in 0..60u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn disconnected_pairs_answer_infinity() {
        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 2);
        let g = b.build().unwrap();
        let ranking = Ranking::identity(4);
        let result = sequential_pll(&g, &ranking);
        assert_eq!(result.index.query(0, 3), INFINITY);
        assert_eq!(result.index.query(0, 1), 2);
    }

    #[test]
    fn stats_record_every_spt() {
        let g = grid_network(
            &GridOptions {
                rows: 5,
                cols: 5,
                ..GridOptions::default()
            },
            3,
        );
        let ranking = degree_ranking(&g);
        let result = sequential_pll(&g, &ranking);
        assert_eq!(result.stats.spt_records.len(), 25);
        assert_eq!(
            result.stats.total_labels_generated(),
            result.index.total_labels()
        );
        assert!(result.stats.distance_queries > 0);
        assert_eq!(result.stats.algorithm, "seqPLL");
    }

    #[test]
    fn restricted_pruning_grows_label_count_monotonically() {
        let g = grid_network(
            &GridOptions {
                rows: 6,
                cols: 6,
                ..GridOptions::default()
            },
            5,
        );
        let ranking = degree_ranking(&g);
        let full = sequential_pll(&g, &ranking).index.total_labels();
        let some = pll_with_restricted_pruning(&g, &ranking, 4)
            .index
            .total_labels();
        let none = pll_with_restricted_pruning(&g, &ranking, 0)
            .index
            .total_labels();
        assert!(
            none >= some,
            "fewer pruning hubs can never shrink the labeling"
        );
        assert!(some >= full);
        // Queries still answer correctly even with redundant labels present.
        let restricted = pll_with_restricted_pruning(&g, &ranking, 0);
        let d = dijkstra(&g, 0);
        for v in 0..36u32 {
            assert_eq!(restricted.index.query(0, v), d[v as usize]);
        }
    }
}
