//! GLL — Global Local Labeling (§4.2 of the paper).
//!
//! GLL keeps LCC's optimistic construction but splits the labeling into a
//! **global table** (labels committed at earlier synchronization points,
//! already cleaned, read without locks) and a **local table** (labels of the
//! current superstep, guarded by per-vertex mutexes). A superstep ends once
//! the local table holds more than `α·n` labels; the threads then synchronize,
//! clean *only the local labels* (everything in the global table was already
//! consulted during construction and cannot be redundant with respect to it),
//! commit the survivors to the global table and start the next superstep.
//!
//! Compared to LCC this bounds the label sets each cleaning query walks and
//! drastically reduces locking during pruning queries — the two effects the
//! paper credits for GLL's speedup over LCC (Figure 7).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use chl_graph::CsrGraph;
use chl_ranking::Ranking;
use parking_lot::Mutex;

use crate::config::LabelingConfig;
use crate::index::{HubLabelIndex, LabelingResult};
use crate::labels::{LabelEntry, LabelSet};
use crate::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use crate::stats::ConstructionStats;
use crate::table::{ConcurrentLabelTable, GllTables};

/// Runs GLL and returns the Canonical Hub Labeling.
///
/// Thin wrapper over [`crate::api::GllLabeler`]; panics on invalid inputs.
/// Prefer [`crate::api::ChlBuilder`] in new code.
pub fn gll(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    use crate::api::Labeler as _;
    crate::api::GllLabeler
        .build(g, ranking, config)
        .unwrap_or_else(|e| panic!("gll: {e}"))
}

pub(crate) fn gll_impl(g: &CsrGraph, ranking: &Ranking, config: &LabelingConfig) -> LabelingResult {
    let n = g.num_vertices();
    gll_from_state(g, ranking, config, vec![LabelSet::new(); n], 0)
}

/// Runs GLL starting from pre-existing committed labels (`initial_global`,
/// one set per vertex) and from rank position `start_position` onwards.
///
/// This is the continuation entry point used by the Hybrid constructors: the
/// PLaNT phase produces canonical labels for the most important roots, which
/// become GLL's initial global table, and pruned construction resumes at the
/// first un-PLaNTed root.
pub fn gll_from_state(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
    initial_global: Vec<LabelSet>,
    start_position: u32,
) -> LabelingResult {
    let start = Instant::now();
    let n = g.num_vertices();
    let threads = config.effective_threads().max(1);
    let mut stats = ConstructionStats::new("GLL");
    stats.threads = threads;
    stats.supersteps = 0;

    debug_assert_eq!(initial_global.len(), n);
    let mut global: Vec<LabelSet> = initial_global;
    let next_root = AtomicU32::new(start_position);
    let superstep_threshold = (config.alpha.max(1.0) * n as f64) as usize;

    let mut construction_time = Duration::ZERO;
    let mut cleaning_time = Duration::ZERO;
    let mut labels_generated_total = 0usize;

    // ORDERING: read between supersteps, after the worker scope has joined —
    // the join is the synchronization point, so Relaxed is enough here.
    while (next_root.load(Ordering::Relaxed) as usize) < n {
        stats.supersteps += 1;
        let local = ConcurrentLabelTable::new(n);
        let superstep_labels = AtomicUsize::new(0);
        let records = Mutex::new(Vec::new());
        let queries = Mutex::new(0usize);

        // --- Label construction until the local table exceeds α·n labels ---
        let phase_start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch = DijkstraScratch::new(n);
                    let tables = GllTables {
                        global: &global,
                        local: &local,
                    };
                    let opts = PruneOptions {
                        rank_query: true,
                        ..Default::default()
                    };
                    let mut local_records = Vec::new();
                    let mut local_queries = 0usize;
                    loop {
                        // ORDERING: advisory superstep cutoff — a slightly
                        // stale read only shifts where a worker stops, never
                        // correctness; Relaxed suffices.
                        if superstep_labels.load(Ordering::Relaxed) > superstep_threshold {
                            break;
                        }
                        // ORDERING: root claiming — the fetch_add's RMW
                        // atomicity alone makes positions unique; label data
                        // is published via the table's own locks and the
                        // scope join, not through this counter.
                        let pos = next_root.fetch_add(1, Ordering::Relaxed);
                        if pos as usize >= n {
                            break;
                        }
                        let root = ranking.vertex_at(pos);
                        let (record, q) =
                            pruned_dijkstra(g, ranking, root, &tables, opts, &mut scratch);
                        // ORDERING: advisory counter feeding the cutoff
                        // above; no other memory is published through it.
                        superstep_labels.fetch_add(record.labels_generated, Ordering::Relaxed);
                        local_records.push(record);
                        local_queries += q;
                    }
                    records.lock().extend(local_records);
                    *queries.lock() += local_queries;
                });
            }
        });
        construction_time += phase_start.elapsed();
        stats.spt_records.extend(records.into_inner());
        stats.distance_queries += queries.into_inner();

        // --- Interleaved cleaning of the local table only ---
        let clean_start = Instant::now();
        let local_entries = local.drain_all();
        labels_generated_total += local_entries.iter().map(Vec::len).sum::<usize>();

        // The cleaning/commit passes are parallel; pin them to the
        // configured thread count so `--threads 1` caps the whole build, not
        // just the construction scope.
        rayon::with_threads(threads, || {
            // Combined view of each vertex's labels (global ∪ local), needed
            // both as L_v and as L_h by the cleaning queries.
            let combined: Vec<LabelSet> = rayon::map(n, |v| {
                let mut set = global[v].clone();
                set.merge(&LabelSet::from_entries(local_entries[v].clone()));
                set
            });

            let survivors: Vec<Vec<LabelEntry>> = rayon::map(n, |v| {
                local_entries[v]
                    .iter()
                    .copied()
                    .filter(|e| {
                        let hub_vertex = ranking.vertex_at(e.hub);
                        if hub_vertex == v as u32 {
                            return true;
                        }
                        !combined[v].is_redundant_label(
                            e.hub,
                            e.dist,
                            &combined[hub_vertex as usize],
                        )
                    })
                    .collect()
            });

            // Commit survivors to the global table: each vertex's kept
            // entries are moved, not copied, into its global set.
            let mut commits: Vec<(&mut LabelSet, Vec<LabelEntry>)> =
                global.iter_mut().zip(survivors).collect();
            rayon::for_each_mut(&mut commits, |_, (global_set, kept)| {
                if !kept.is_empty() {
                    global_set.merge(&LabelSet::from_entries(std::mem::take(kept)));
                }
            });
        });
        cleaning_time += clean_start.elapsed();
    }

    let index = HubLabelIndex::new(global, ranking.clone())
        .expect("constructor produced one label set per vertex");
    stats.construction_time = construction_time;
    stats.cleaning_time = cleaning_time;
    stats.total_time = start.elapsed();
    stats.labels_before_cleaning = labels_generated_total;
    stats.labels_after_cleaning = index.total_labels();
    LabelingResult { index, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    #[test]
    fn gll_produces_the_canonical_labeling() {
        let g = erdos_renyi(80, 0.07, 16, 23);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let parallel = gll(&g, &ranking, &LabelingConfig::default().with_threads(4)).index;
        assert_eq!(canonical, parallel);
    }

    #[test]
    fn gll_matches_pll_on_grid_with_small_alpha() {
        // A small α forces many supersteps, exercising the commit path.
        let g = grid_network(
            &GridOptions {
                rows: 8,
                cols: 8,
                ..GridOptions::default()
            },
            2,
        );
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let config = LabelingConfig::default().with_threads(4).with_alpha(1.0);
        let result = gll(&g, &ranking, &config);
        assert_eq!(canonical, result.index);
        assert!(result.stats.supersteps > 1, "expected multiple supersteps");
    }

    #[test]
    fn gll_queries_match_dijkstra_on_scale_free_graph() {
        let g = barabasi_albert(180, 3, 31);
        let ranking = degree_ranking(&g);
        let result = gll(&g, &ranking, &LabelingConfig::default().with_threads(8));
        for src in [0u32, 90, 179] {
            let d = dijkstra(&g, src);
            for v in 0..180u32 {
                assert_eq!(result.index.query(src, v), d[v as usize], "src={src} v={v}");
            }
        }
    }

    #[test]
    fn gll_with_large_alpha_degenerates_to_single_superstep() {
        let g = erdos_renyi(40, 0.15, 8, 7);
        let ranking = degree_ranking(&g);
        let config = LabelingConfig::default()
            .with_threads(2)
            .with_alpha(1_000_000.0);
        let result = gll(&g, &ranking, &config);
        assert_eq!(result.stats.supersteps, 1);
        assert_eq!(result.index, sequential_pll(&g, &ranking).index);
    }

    #[test]
    fn stats_account_for_phases_and_labels() {
        let g = erdos_renyi(60, 0.08, 10, 41);
        let ranking = degree_ranking(&g);
        let result = gll(&g, &ranking, &LabelingConfig::default().with_threads(4));
        assert_eq!(result.stats.algorithm, "GLL");
        assert!(result.stats.labels_before_cleaning >= result.stats.labels_after_cleaning);
        assert_eq!(
            result.stats.labels_after_cleaning,
            result.index.total_labels()
        );
        assert_eq!(result.stats.spt_records.len(), 60);
        assert!(result.stats.supersteps >= 1);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let empty = chl_graph::GraphBuilder::new_undirected().build().unwrap();
        let r = gll(
            &empty,
            &Ranking::identity(0),
            &LabelingConfig::default().with_threads(2),
        );
        assert_eq!(r.index.total_labels(), 0);

        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.ensure_vertices(1);
        let single = b.build().unwrap();
        let r = gll(
            &single,
            &Ranking::identity(1),
            &LabelingConfig::default().with_threads(2),
        );
        assert_eq!(r.index.total_labels(), 1);
        assert_eq!(r.index.query(0, 0), 0);
    }
}
