//! Shared-memory Hybrid constructor: PLaNT the label-heavy prefix, finish
//! with GLL-style pruned construction (§5.2.1 adapted to a single node).
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
//! full. PLaNTing a grid whole was the fastest construction only while
//! GLL's cleaning re-read every committed hub; now that it reads only the
//! superstep's own hubs, GLL's trees are the cheaper way to finish a grid
//! too. A factor near a graph's Ψ/L̄ makes the switch point depend on which
//! thread finishes first (at 0.1 the 80×80 grid switched after 69 trees in
//! one run and 353 in the next); labels are the same at any switch point.
//!
//! The same structure pays off on a single node: the first GLL superstep
//! normally generates far more than `α·n` labels because no global labels
//! exist yet to prune with (§7.2) — PLaNTing that prefix removes the problem,
//! which is exactly the fix the paper suggests for shared memory.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex as StdMutex;
use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::LabelingConfig;
use crate::gll::gll_from_state;
use crate::index::LabelingResult;
use crate::labels::{LabelEntry, LabelSet};
use crate::plant::{plant_dijkstra, CommonLabelTable, PlantScratch};
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
    let threads = config.effective_threads().max(1);

    // ---- Phase 1: PLaNT roots in rank order until Ψ outgrows the labels ----
    let table = ConcurrentLabelTable::new(n);
    let next_root = AtomicU32::new(0);
    let stop = AtomicBool::new(false);
    let records = StdMutex::new(Vec::new());
    let psi_state = StdMutex::new(PsiWindow::new(config.psi_window));
    let common = CommonLabelTable::empty(n);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = PlantScratch::new(n);
                let mut local_records = Vec::new();
                loop {
                    // ORDERING: advisory stop flag — a missed update only
                    // costs one extra tree before the worker re-checks;
                    // Relaxed suffices.
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // ORDERING: root claiming — the fetch_add's RMW
                    // atomicity alone makes positions unique; labels are
                    // published via the common table's locks and the scope
                    // join.
                    let pos = next_root.fetch_add(1, Ordering::Relaxed);
                    if pos as usize >= n {
                        break;
                    }
                    let root = ranking.vertex_at(pos);
                    let tree = plant_dijkstra(
                        g,
                        ranking,
                        root,
                        config.early_termination,
                        &common,
                        &mut scratch,
                    );
                    for &(v, d) in &tree.labels {
                        table.append(v, LabelEntry::new(pos, d));
                    }
                    let record = tree.record();
                    let switch = {
                        let mut window = psi_state.lock().expect("psi window lock");
                        window.observe(record.vertices_explored, record.labels_generated);
                        window.average() > config.psi_threshold * window.average_label_size(n)
                    };
                    local_records.push(record);
                    if switch {
                        // ORDERING: advisory stop flag, see the load above.
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                records.lock().expect("records lock").extend(local_records);
            });
        }
    });

    let planted_records = records.into_inner().expect("records lock poisoned");
    let planted_trees = planted_records.len();
    let plant_time = start.elapsed();

    // Labels PLaNTed so far are canonical and complete for their roots: they
    // seed GLL's global table directly, no cleaning required.
    let global: Vec<LabelSet> = table.into_label_sets();

    // ---- Phase 2: pruned GLL supersteps over the remaining roots ----
    // The claimed-but-unprocessed positions are bounded by `planted_trees`
    // having consumed positions 0..k where k = number of processed roots;
    // because the stop flag can fire while several claims are in flight we
    // recover the exact resume point as the number of processed SPTs (each
    // claimed position below it was processed — threads never skip a claim).
    let resume_from = {
        // Positions are claimed contiguously; a position is processed unless a
        // thread observed `stop` before running it. The safe resume point is
        // the smallest unprocessed position.
        let mut processed = vec![false; n];
        for r in &planted_records {
            processed[r.root_position as usize] = true;
        }
        processed.iter().position(|&p| !p).unwrap_or(n)
    } as u32;

    let planted_labels: usize = planted_records.iter().map(|r| r.labels_generated).sum();
    let mut result = gll_from_state(g, ranking, config, global, resume_from);

    let mut stats = ConstructionStats::new("Hybrid(PLaNT+GLL)");
    stats.threads = threads;
    stats.planted_trees = planted_trees;
    stats.supersteps = result.stats.supersteps;
    stats.spt_records = planted_records;
    stats
        .spt_records
        .extend(result.stats.spt_records.iter().copied());
    stats.distance_queries = result.stats.distance_queries;
    stats.construction_time = plant_time + result.stats.construction_time;
    stats.cleaning_time = result.stats.cleaning_time;
    stats.labels_before_cleaning = planted_labels + result.stats.labels_before_cleaning;
    stats.labels_after_cleaning = result.index.total_labels();
    stats.total_time = start.elapsed();
    result.stats = stats;
    result
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
        // grid switches once the window is full and GLL finishes it.
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
