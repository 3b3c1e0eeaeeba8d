//! Shared-memory Hybrid constructor: PLaNT the label-heavy prefix, finish
//! with one pass of pruned trees (§5.2.1 adapted to a single node).
//!
//! The paper motivates the hybrid with two empirical observations (Figures 2
//! and 3): SPTs rooted at the most important vertices generate the bulk of
//! all labels and have a tiny Ψ (vertices explored per label), so PLaNTing
//! them is nearly free and avoids both pruning queries and (in the
//! distributed case) label traffic; SPTs rooted at unimportant vertices
//! generate almost no labels, so pruned construction is far cheaper for them.
//!
//! The switch point is relative, not the paper's absolute `Ψ_th`: Hybrid
//! stops PLaNTing once a moving average of Ψ exceeds
//! `psi_threshold × L̄`, where `L̄` is the labels PLaNTed so far divided by
//! `n`. A pruned tree pays about one label-set probe per vertex it visits,
//! and a probe costs on the order of `L̄`, so the break-even Ψ grows with the
//! labeling instead of being one constant for every graph family (Figure 6
//! shows no single `Ψ_th` suits both road and scale-free graphs). The default
//! factor is 0.03. Once the first `psi_window` trees are in, windowed Ψ/L̄
//! already reads 0.06–0.10 on the benchmark's road grids and about 0.3 on
//! its scale-free graphs, so both families switch as soon as the window is
//! full. PLaNTing a grid whole was the fastest construction only while the
//! pruned constructors' cleaning re-read every hub; now that it reads only
//! a few, pruned trees are the cheaper way to finish a grid too. A factor
//! near a graph's Ψ/L̄ makes the switch point depend on which thread
//! finishes first (at 0.1 the 80×80 grid switched after 69 trees in one
//! run and 353 in the next); labels are the same at any switch point.
//!
//! Both phases run on the root scheduler over one label table. The PLaNT
//! phase is one pass whose stop rule feeds every finished tree to the Ψ
//! window; trees already claimed when it fires still finish, so the pass's
//! end is the first root not PLaNTed. The tail is one pass of pruned trees
//! with rank queries from there on, LCC's construction, pruning against the
//! PLaNTed labels in the same table. PLaNTed labels are canonical, and the
//! tail's redundant ones are removed by `clean_window`: every tail tree
//! started after all PLaNTed trees had finished, so its window never
//! reaches below the switch point.
//!
//! The same structure pays off on a single node: the first pruned trees
//! normally generate far more labels than they keep because no labels
//! exist yet to prune with (§7.2) — PLaNTing that prefix removes the
//! problem, which is exactly the fix the paper suggests for shared memory.

use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;
use parking_lot::Mutex;

use crate::cleaning::clean_window;
use crate::config::LabelingConfig;
use crate::index::LabelingResult;
use crate::plant::plant_trees;
use crate::pll::pruned_pass;
use crate::pruned_dijkstra::PruneOptions;
use crate::stats::ConstructionStats;
use crate::table::ConcurrentLabelTable;

/// Runs the shared-memory Hybrid constructor.
///
/// Thin wrapper over [`crate::api::HybridLabeler`]; panics on invalid
/// inputs. Prefer [`crate::api::ChlBuilder`] in new code.
pub fn shared_hybrid(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::HybridLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("shared_hybrid: {e}"))
}

pub(crate) fn shared_hybrid_impl(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> LabelingResult {
    let start = Instant::now();
    let n = g.num_vertices();
    let threads = config.effective_threads();
    let mut stats = ConstructionStats::new("Hybrid(PLaNT+LCC)");
    stats.threads = threads;

    // ---- Phase 1: PLaNT roots in rank order until Ψ outgrows the labels ----
    let table = ConcurrentLabelTable::new(n);
    let window = Mutex::new(PsiWindow::new(config.psi_window));
    let planted = plant_trees(g, ranking, config, &table, |record| {
        let mut window = window.lock();
        window.observe(record.vertices_explored, record.labels_generated);
        window.average() > config.psi_threshold * window.average_label_size(n)
    });
    stats.planted_trees = planted.records.len();

    // ---- Phase 2: one pass of pruned trees over the remaining roots ----
    // Every root below the PLaNT pass's end was PLaNTed; the tail resumes
    // there, pruning with the PLaNTed labels. Each of the two passes ends
    // at a barrier, so each counts as one superstep.
    let tail = pruned_pass(
        g,
        ranking,
        &table,
        planted.end,
        threads,
        PruneOptions::default(),
    );
    stats.supersteps = 1 + usize::from(planted.end < n as u32);
    stats.distance_queries = tail.queries;
    stats.spt_records = planted.records;
    stats.spt_records.extend(tail.records);
    stats.labels_before_cleaning = stats.total_labels_generated();
    let mut labels = rayon::with_threads(threads, || table.into_label_sets());
    stats.construction_time = start.elapsed();

    // PLaNTed labels are canonical; the tail's are cleaned in their windows.
    let clean_start = Instant::now();
    rayon::with_threads(threads, || {
        clean_window(&mut labels, planted.end, &tail.floors, ranking)
    });
    stats.cleaning_time = clean_start.elapsed();
    LabelingResult::finish(labels, ranking, stats, start)
}

/// Moving average of Ψ over the most recent SPTs, beside the running total
/// of labels every observed SPT generated.
struct PsiWindow {
    capacity: usize,
    explored: Vec<usize>,
    labels: Vec<usize>,
    cursor: usize,
    filled: usize,
    total_labels: usize,
}

impl PsiWindow {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PsiWindow {
            capacity,
            explored: vec![0; capacity],
            labels: vec![0; capacity],
            cursor: 0,
            filled: 0,
            total_labels: 0,
        }
    }

    fn observe(&mut self, explored: usize, labels: usize) {
        self.explored[self.cursor] = explored;
        self.labels[self.cursor] = labels;
        self.cursor = (self.cursor + 1) % self.capacity;
        self.filled = (self.filled + 1).min(self.capacity);
        self.total_labels += labels;
    }

    /// `L̄`: labels generated so far per vertex of an `n`-vertex graph.
    fn average_label_size(&self, n: usize) -> f64 {
        self.total_labels as f64 / n as f64
    }

    /// Ψ averaged over the window: total explored / total labels.
    fn average(&self) -> f64 {
        if self.filled < self.capacity {
            // Not enough evidence yet to switch.
            return 0.0;
        }
        let explored: usize = self.explored.iter().sum();
        let labels: usize = self.labels.iter().sum();
        if labels == 0 {
            f64::INFINITY
        } else {
            explored as f64 / labels as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    #[test]
    fn hybrid_produces_the_canonical_labeling() {
        let g = erdos_renyi(80, 0.07, 12, 3);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let hybrid = shared_hybrid(&g, &ranking, &LabelingConfig::default().with_threads(4)).index;
        assert_eq!(canonical, hybrid);
    }

    #[test]
    fn hybrid_matches_on_scale_free_graph_with_small_window() {
        let g = barabasi_albert(200, 3, 15);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let mut config = LabelingConfig::default()
            .with_threads(4)
            .with_psi_threshold(0.25);
        config.psi_window = 8;
        let result = shared_hybrid(&g, &ranking, &config);
        assert_eq!(canonical, result.index);
        // A low factor with a small window must actually trigger the switch.
        assert!(result.stats.planted_trees < 200);
        assert!(result.stats.planted_trees > 0);
    }

    #[test]
    fn hybrid_with_huge_threshold_is_pure_plant() {
        let g = erdos_renyi(50, 0.1, 8, 9);
        let ranking = degree_ranking(&g);
        let config = LabelingConfig::default()
            .with_threads(2)
            .with_psi_threshold(f64::INFINITY);
        let result = shared_hybrid(&g, &ranking, &config);
        assert_eq!(result.stats.planted_trees, 50);
        assert_eq!(result.index, sequential_pll(&g, &ranking).index);
    }

    #[test]
    fn hybrid_queries_match_dijkstra_on_road_like_graph() {
        let g = grid_network(
            &GridOptions {
                rows: 10,
                cols: 10,
                ..GridOptions::default()
            },
            44,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 20,
                degree_tiebreak: true,
            },
            1,
        );
        // A factor far below the grid's Ψ/L̄ forces a switch, so both phases
        // run on a road-like graph.
        let mut config = LabelingConfig::default()
            .with_threads(4)
            .with_psi_threshold(0.05);
        config.psi_window = 10;
        let result = shared_hybrid(&g, &ranking, &config);
        assert!(result.stats.planted_trees < 100);
        for src in [0u32, 45, 99] {
            let d = dijkstra(&g, src);
            for v in 0..100u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn hybrid_switch_tracks_label_size() {
        // Scale-free: Ψ outgrows the average label size after a few percent
        // of the roots, so the default factor switches early.
        let g = barabasi_albert(2000, 4, 7);
        let ranking = degree_ranking(&g);
        let result = shared_hybrid(&g, &ranking, &LabelingConfig::default().with_threads(2));
        assert_eq!(result.index, sequential_pll(&g, &ranking).index);
        let planted = result.stats.planted_trees;
        assert!((64..=300).contains(&planted), "planted {planted} of 2000");

        // Road-like: Ψ/L̄ peaks near 0.1, above the default factor, so the
        // grid switches once the window is full and pruned trees finish it.
        let g = grid_network(
            &GridOptions {
                rows: 40,
                cols: 40,
                max_weight: 1000,
                removal_fraction: 0.08,
                shortcut_edges: 20,
            },
            7,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 48,
                degree_tiebreak: true,
            },
            7,
        );
        let config = LabelingConfig::default().with_threads(2);
        let result = shared_hybrid(&g, &ranking, &config);
        assert_eq!(result.index, sequential_pll(&g, &ranking).index);
        let planted = result.stats.planted_trees;
        let n = g.num_vertices();
        assert!(
            (config.psi_window..=n / 4).contains(&planted),
            "planted {planted} of {n}"
        );
        assert!(result.stats.supersteps >= 1);
    }

    #[test]
    fn psi_window_behaviour() {
        let mut w = PsiWindow::new(3);
        w.observe(10, 10);
        assert_eq!(w.average(), 0.0, "window not yet full");
        w.observe(10, 1);
        w.observe(10, 1);
        assert!((w.average() - 30.0 / 12.0).abs() < 1e-9);
        assert_eq!(w.average_label_size(4), 3.0);
        w.observe(100, 0);
        w.observe(100, 0);
        w.observe(100, 0);
        assert!(w.average().is_infinite());
        // The label total keeps every SPT ever observed, not just the window.
        assert_eq!(w.average_label_size(4), 3.0);
        w.observe(5, 6);
        assert_eq!(w.average_label_size(4), 4.5);
        assert!((w.average() - 205.0 / 6.0).abs() < 1e-9);
    }
}
