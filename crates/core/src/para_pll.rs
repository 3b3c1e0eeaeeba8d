//! Shared-memory paraPLL (Qiu et al.) — the paper's `SparaPLL` baseline.
//!
//! Worker threads claim roots in rank order from the root scheduler and run
//! pruned Dijkstra from each, *without* rank queries: PLL's composition on
//! more than one thread, with no clean.
//! Because several SPTs are in flight concurrently, a tree rooted at a less
//! important vertex may label vertices that a still-running more important
//! tree would have covered; the resulting labeling satisfies the cover
//! property (queries stay exact) but is **not** canonical: it typically
//! contains redundant labels and grows with the number of threads — the
//! behaviour the paper criticizes in §3 and Table 3 / Figure 9. It is not
//! a superset of the CHL, though: a less important root's finished tree can
//! also prune a more important root's tree, so the count can fall below the
//! CHL's.

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::api::LabelingResult;
use crate::config::LabelingConfig;
use crate::error::LabelingError;
use crate::pll::pruned_labeling;
use crate::pruned_dijkstra::PruneOptions;

/// Runs shared-memory paraPLL with `config.num_threads` workers.
///
/// Thin wrapper over [`crate::api::SParaPllLabeler`]; panics on invalid
/// inputs. Prefer [`crate::api::ChlBuilder`] in new code.
pub fn spara_pll(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::SParaPllLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("spara_pll: {e}"))
}

/// PLL's pruned trees on `config`'s thread count, still without rank
/// queries and without a clean.
pub(crate) fn spara_pll_impl(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> Result<LabelingResult, LabelingError> {
    let opts = PruneOptions {
        rank_query: false,
        ..Default::default()
    };
    pruned_labeling(g, ranking, config.effective_threads(), opts, "SparaPLL")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::pll::sequential_pll;
    use crate::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch};
    use crate::table::ConcurrentLabelTable;
    use chl_graph::generators::erdos_renyi;
    use chl_graph::sssp::dijkstra;
    use chl_graph::GraphBuilder;
    use chl_ranking::degree_ranking;

    #[test]
    fn queries_are_exact_despite_concurrency() {
        let g = erdos_renyi(80, 0.06, 16, 3);
        let ranking = degree_ranking(&g);
        let result = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(4));
        for src in [0u32, 11, 55] {
            let d = dijkstra(&g, src);
            for v in 0..80u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn label_count_can_fall_below_canonical_out_of_rank_order() {
        // A star whose center 0 ranks second, below leaf 1. The CHL puts
        // hub 1 in all four label sets and hub 0 in three. Without rank
        // queries nothing stops the center's tree from finishing before the
        // leaf's starts, as a worker may on more than one thread: its labels
        // then prune the leaf's tree at the center, and the labeling ends
        // smaller than the CHL while every distance stays exact.
        let mut b = GraphBuilder::new_undirected();
        for leaf in 1..4 {
            b.add_edge(0, leaf, 1);
        }
        let g = b.build().unwrap();
        let ranking = Ranking::from_order(vec![1, 0, 2, 3], 4).unwrap();
        let canonical = sequential_pll(&g, &ranking).index;
        assert_eq!(canonical.total_labels(), 9);

        let table = ConcurrentLabelTable::new(4);
        let mut scratch = DijkstraScratch::new(4);
        let opts = PruneOptions {
            rank_query: false,
            ..Default::default()
        };
        for root in [0, 1, 2, 3] {
            pruned_dijkstra(&g, &ranking, root, &table, opts, &mut scratch);
        }
        let index = FlatIndex::new(table.into_label_sets(), ranking).unwrap();
        assert_eq!(index.total_labels(), 7);
        assert!(index.total_labels() < canonical.total_labels());
        for u in 0..4 {
            let d = dijkstra(&g, u);
            for v in 0..4 {
                assert_eq!(index.query(u, v), d[v as usize], "d({u}, {v})");
            }
        }
    }

    #[test]
    fn single_thread_matches_sequential_pll_exactly() {
        let g = erdos_renyi(50, 0.1, 8, 21);
        let ranking = degree_ranking(&g);
        let seq = sequential_pll(&g, &ranking);
        let par = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(1));
        assert_eq!(seq.index, par.index);
    }

    #[test]
    fn stats_cover_all_spts() {
        let g = erdos_renyi(40, 0.1, 4, 2);
        let ranking = degree_ranking(&g);
        let result = spara_pll(&g, &ranking, &LabelingConfig::default().with_threads(3));
        assert_eq!(result.stats.spt_records.len(), 40);
        assert_eq!(result.stats.threads, 3);
        assert_eq!(result.stats.algorithm, "SparaPLL");
    }
}
