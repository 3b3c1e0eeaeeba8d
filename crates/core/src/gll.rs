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
//!
//! A superstep is one pass of the root scheduler with the `α·n` cutoff as
//! its stop rule, so its roots are a contiguous range of rank positions
//! `[w, p)`. Cleaning is [`clean_superstep`] over the global and local
//! tables read as one, and committing appends the survivors to the global
//! sets in hub order: no combined copy of the labeling, no merge.
//!
//! The clean reads each global set only from hub `w` on ([`FromHub`]).
//! This is Pruned Landmark Labeling's invariant (Akiba, Iwata, Yoshida,
//! SIGMOD 2013): every hub below `w` was committed before the superstep
//! began, so every pruning query of the superstep already consulted it,
//! and no local label can be redundant through it. A witness can only be a
//! hub in `[w, p)`. The clean looks for it in both tables, as the kernel
//! reads them as one labeling; the global table holds no hub at or above
//! `w` today, since every tree's labels are committed at the end of its
//! own superstep.
//!
//! GLL is the paper's constructor and stays one. Hybrid and LCC finish
//! with one pass of pruned trees and a per-tree window clean instead
//! (`cleaning::clean_window`), which at two threads beats GLL's
//! supersteps.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::api::LabelingResult;
use crate::cleaning::{clean_superstep, commit};
use crate::config::LabelingConfig;
use crate::error::LabelingError;
use crate::labels::{LabelEntry, LabelSet};
use crate::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use crate::schedule;
use crate::stats::ConstructionStats;
use crate::table::{ConcurrentLabelTable, FromHub, GllTables};

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

pub(crate) fn gll_impl(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> Result<LabelingResult, LabelingError> {
    let start = Instant::now();
    let n = g.num_vertices();
    let threads = config.effective_threads();
    let mut stats = ConstructionStats::new("GLL");
    stats.threads = threads;
    stats.supersteps = 0;
    let superstep_threshold = (config.alpha.max(1.0) * n as f64) as usize;
    // Rank and distance queries, both on by default.
    let opts = PruneOptions::default();
    let mut global = vec![LabelSet::new(); n];
    // Both live across supersteps: `drain_all` empties the local table.
    let local = ConcurrentLabelTable::new(n);
    let mut scratch: Vec<_> = (0..threads).map(|_| DijkstraScratch::new(n)).collect();

    let mut first_root = 0;
    while (first_root as usize) < n {
        stats.supersteps += 1;

        // --- Label construction until the local table exceeds α·n labels ---
        let phase_start = Instant::now();
        let superstep_labels = AtomicUsize::new(0);
        let tables = GllTables {
            global: &global,
            local: &local,
        };
        let pass = schedule::run(
            &mut scratch,
            first_root..n as u32,
            |record| {
                let labels = record.labels_generated;
                // ORDERING: advisory counter feeding the superstep cutoff; a
                // stale sum only shifts where the workers stop, and no other
                // memory is published through it.
                superstep_labels.fetch_add(labels, Ordering::Relaxed) + labels > superstep_threshold
            },
            |scratch, pos| {
                pruned_dijkstra(g, ranking, ranking.vertex_at(pos), &tables, opts, scratch)
            },
        );
        stats.construction_time += phase_start.elapsed();
        stats.spt_records.extend(pass.records);
        stats.distance_queries += pass.queries;

        // --- Interleaved cleaning of the local table only ---
        let clean_start = Instant::now();
        let local_entries = local.drain_all();
        stats.labels_before_cleaning += local_entries.iter().map(Vec::len).sum::<usize>();
        // The cleaning pass is parallel; pin it to the configured thread
        // count so `--threads 1` caps the whole build, not just the
        // construction.
        let hubs = first_root..pass.end;
        rayon::with_threads(threads, || {
            clean_and_commit(&mut global, &local_entries, hubs, ranking);
        });
        stats.cleaning_time += clean_start.elapsed();
        first_root = pass.end;
    }
    LabelingResult::finish(global, ranking, stats, start)
}

/// The end of a superstep: cleans the local labels (hubs `hubs`) against
/// the global table from `hubs.start` on (see the module doc) and the whole
/// local table, read as one, then appends the survivors to the global sets.
fn clean_and_commit(
    global: &mut [LabelSet],
    local: &[Vec<LabelEntry>],
    hubs: Range<u32>,
    ranking: &Ranking,
) {
    let committed = FromHub {
        sets: global,
        floor: hubs.start,
    };
    let kept = clean_superstep(&(&committed, local), local, hubs, ranking);
    commit(global, kept);
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

    /// `(hub, dist)` pairs as a label run.
    fn run(entries: &[(u32, u64)]) -> Vec<LabelEntry> {
        entries
            .iter()
            .map(|&(h, d)| LabelEntry::new(h, d))
            .collect()
    }

    /// A global table of hub-sorted sets.
    fn sets(runs: &[&[(u32, u64)]]) -> Vec<LabelSet> {
        runs.iter()
            .map(|r| LabelSet::from_entries(run(r)))
            .collect()
    }

    #[test]
    fn superstep_clean_drops_redundant_local_labels() {
        // Identity ranking: hub h is vertex h. Hubs 0 and 1 are committed,
        // the superstep ran roots 2..5.
        let ranking = Ranking::identity(5);

        // Both witness entries local: (4, hub 3, 2) is covered through
        // hub 2, with 4 -> 2 and 3 -> 2 both found in this superstep. The
        // local runs are unsorted, as worker threads leave them.
        let mut global = sets(&[&[(0, 0)], &[(0, 5), (1, 0)], &[], &[], &[]]);
        let local = vec![
            vec![],
            vec![],
            run(&[(2, 0)]),
            run(&[(3, 0), (2, 1)]),
            run(&[(3, 2), (4, 0), (2, 1)]),
        ];
        clean_and_commit(&mut global, &local, 2..5, &ranking);
        assert_eq!(global[4], LabelSet::from_entries(run(&[(2, 1), (4, 0)])));
        // The canonical local labels survive, appended after the committed
        // ones: 3 -> 2 has no hub above 2 to cover it.
        assert_eq!(global[3], LabelSet::from_entries(run(&[(2, 1), (3, 0)])));
        assert_eq!(global[1], LabelSet::from_entries(run(&[(0, 5), (1, 0)])));

        // One witness entry global, the other local: vertex 4's entry for
        // hub 2 sits in the committed table, hub vertex 3's in the local
        // one. The kernel reads the two layers as one labeling, so
        // (4, hub 3, 2) is still dropped.
        let mut global = sets(&[&[], &[], &[], &[], &[(2, 1)]]);
        let local = vec![
            vec![],
            vec![],
            run(&[(2, 0)]),
            run(&[(2, 1), (3, 0)]),
            run(&[(3, 2), (4, 0)]),
        ];
        clean_and_commit(&mut global, &local, 2..5, &ranking);
        assert!(!global[4].contains_hub(3));
        assert!(global[4].contains_hub(4));

        // A witness one longer, (4 -> 2) + (3 -> 2) = 3 > 2, leaves the
        // label canonical: it survives.
        let mut global = sets(&[&[], &[], &[], &[], &[(2, 1)]]);
        let local = vec![
            vec![],
            vec![],
            run(&[(2, 0)]),
            run(&[(2, 2), (3, 0)]),
            run(&[(3, 2), (4, 0)]),
        ];
        clean_and_commit(&mut global, &local, 2..5, &ranking);
        assert_eq!(global[4].distance_to_hub(3), Some(2));
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
