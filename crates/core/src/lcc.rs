//! LCC — Label Construction and Cleaning (Algorithm 2 of the paper).
//!
//! LCC treats the simultaneous construction of many SPTs as an *optimistic*
//! parallelization of PLL: worker threads claim roots in rank order from the
//! root scheduler and run pruned Dijkstra **with rank queries**
//! concurrently. Rank queries guarantee
//! two invariants the later cleaning pass depends on:
//!
//! * a vertex is only ever labeled by hubs at least as important as itself,
//! * the resulting labeling satisfies the cover property and *respects* the
//!   hierarchy (Claim 1).
//!
//! The optimistic phase may still insert labels that are not canonical; a
//! single cleaning pass (Lemma 2) removes exactly those, leaving the CHL.
//! The root scheduler records each tree's floor, the first root still
//! unfinished when the tree started, and every root below it was consulted
//! by the tree's pruning queries. So a label can only be redundant through
//! a hub between its tree's floor and its hub: `clean_window` checks only
//! those, a window of a few hubs at two threads, and none at one thread,
//! where LCC is PLL plus a clean that finds nothing to check.

use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::api::LabelingResult;
use crate::cleaning::clean_window;
use crate::config::LabelingConfig;
use crate::error::LabelingError;
use crate::pll::pruned_trees;
use crate::pruned_dijkstra::PruneOptions;
use crate::stats::ConstructionStats;

/// Runs the two-phase LCC algorithm and returns the Canonical Hub Labeling.
///
/// Thin wrapper over [`crate::api::LccLabeler`]; panics on invalid inputs.
/// Prefer [`crate::api::ChlBuilder`] in new code.
pub fn lcc(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::LccLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("lcc: {e}"))
}

pub(crate) fn lcc_impl(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> Result<LabelingResult, LabelingError> {
    let start = Instant::now();
    let threads = config.effective_threads();
    let mut stats = ConstructionStats::new("LCC");
    stats.threads = threads;

    // Phase LCC-I: optimistic parallel label construction with rank queries
    // (on by default).
    let (mut labels, pass) = pruned_trees(g, ranking, threads, PruneOptions::default());
    stats.spt_records = pass.records;
    stats.distance_queries = pass.queries;
    stats.construction_time = start.elapsed();

    // Phase LCC-II: delete every redundant label, checking each against the
    // hubs of its tree's window. The parallel check is pinned to the
    // configured thread count so `--threads` caps the whole build, not just
    // phase I.
    stats.labels_before_cleaning = labels.iter().map(|s| s.len()).sum();
    let clean_start = Instant::now();
    rayon::with_threads(threads, || {
        clean_window(&mut labels, 0, &pass.floors, ranking)
    });
    stats.cleaning_time = clean_start.elapsed();
    LabelingResult::finish(labels, ranking, stats, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    #[test]
    fn lcc_produces_the_canonical_labeling() {
        let g = erdos_renyi(70, 0.08, 16, 11);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let parallel = lcc(&g, &ranking, &LabelingConfig::default().with_threads(4)).index;
        assert_eq!(canonical, parallel);
    }

    #[test]
    fn lcc_on_road_like_graph_matches_pll() {
        let g = grid_network(
            &GridOptions {
                rows: 9,
                cols: 8,
                ..GridOptions::default()
            },
            17,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 24,
                degree_tiebreak: true,
            },
            3,
        );
        let canonical = sequential_pll(&g, &ranking).index;
        let parallel = lcc(&g, &ranking, &LabelingConfig::default().with_threads(8)).index;
        assert_eq!(canonical, parallel);
    }

    #[test]
    fn lcc_queries_match_dijkstra_on_scale_free_graph() {
        let g = barabasi_albert(160, 3, 21);
        let ranking = degree_ranking(&g);
        let result = lcc(&g, &ranking, &LabelingConfig::default().with_threads(6));
        for src in [0u32, 40, 120] {
            let d = dijkstra(&g, src);
            for v in 0..160u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn stats_report_both_phases() {
        let g = erdos_renyi(50, 0.1, 8, 5);
        let ranking = degree_ranking(&g);
        let result = lcc(&g, &ranking, &LabelingConfig::default().with_threads(4));
        assert!(result.stats.labels_before_cleaning >= result.stats.labels_after_cleaning);
        assert_eq!(
            result.stats.labels_after_cleaning,
            result.index.total_labels()
        );
        assert_eq!(result.stats.spt_records.len(), 50);
        assert_eq!(result.stats.algorithm, "LCC");
        assert!(result.stats.total_time >= result.stats.cleaning_time);
    }

    #[test]
    fn disconnected_graph_is_handled() {
        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1, 3);
        b.add_edge(2, 3, 4);
        b.ensure_vertices(5);
        let g = b.build().unwrap();
        let ranking = degree_ranking(&g);
        let result = lcc(&g, &ranking, &LabelingConfig::default().with_threads(2));
        assert_eq!(result.index.query(0, 1), 3);
        assert_eq!(result.index.query(0, 3), chl_graph::types::INFINITY);
        assert_eq!(result.index.query(4, 0), chl_graph::types::INFINITY);
        assert_eq!(result.index.query(4, 4), 0);
    }
}
