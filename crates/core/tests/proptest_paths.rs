//! Differential property tests for path reconstruction, distance matrices
//! and top-k / within-radius queries, proven against Dijkstra ground truth
//! on every storage backend: owned [`FlatIndex`], borrowed flat view,
//! compressed view, mmap (flat and compressed) and sharded restrictions.
//!
//! The properties:
//!
//! - the parallel parent derivation (`attach_parents`) yields the same
//!   index at 1, 2 and 8 threads;
//! - every reconstructed path is a **contiguous edge walk** of the source
//!   graph whose weight sum is exactly `distance(u, v)` — exactly what
//!   Dijkstra reports — with `Ok(None)` on disconnected and out-of-range
//!   pairs and `Ok(Some([u]))` on the diagonal;
//! - `matrix` / `topk` / `within_radius` answer byte-identically to the
//!   brute-force per-pair map of the same backend, at 1, 2 and 8 rayon
//!   threads (the pivoted kernel must not reorder or approximate);
//! - the hub witness reported by `query_with_hub` is a real witness:
//!   `dist(u, h) + dist(h, v) == dist(u, v)` against Dijkstra truth, on
//!   both the flat and the compressed storage (the deduplicated join is
//!   shared, so parity here pins the regression fixed in the dedupe);
//! - sharded restrictions are shard-honest: foreign endpoints answer
//!   [`PathError::NotThisShard`]; pairs they do answer answer exactly like
//!   the unsharded index.

use std::collections::HashMap;

use proptest::prelude::*;

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{attach_parents, PathError, PathOracle};
use chl_core::persist::{self, AlignedBytes, SaveOptions, ShardSpec};
use chl_core::pll::sequential_pll;
use chl_graph::sssp::dijkstra;
use chl_graph::types::{Distance, VertexId, INFINITY};
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::degree_ranking;

/// Strategy: a small weighted undirected graph — sparse enough for
/// disconnected components to occur, dense enough for multi-hop paths.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        2usize..20,
        proptest::collection::vec((0u32..20, 0u32..20, 1u32..30), 1..60),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new_undirected();
            b.ensure_vertices(n);
            for (u, v, w) in edges {
                b.add_edge(u % n as u32, v % n as u32, w);
            }
            b.build().expect("positive weights")
        })
}

/// All-pairs Dijkstra ground truth: `truth[u][v]`.
fn ground_truth(g: &CsrGraph) -> Vec<Vec<Distance>> {
    (0..g.num_vertices() as VertexId)
        .map(|s| dijkstra(g, s))
        .collect()
}

/// Undirected edge-weight lookup for walk verification.
fn edge_weights(g: &CsrGraph) -> HashMap<(VertexId, VertexId), u64> {
    g.edges()
        .flat_map(|e| [((e.u, e.v), e.w as u64), ((e.v, e.u), e.w as u64)])
        .collect()
}

/// Asserts one backend's `path()` against Dijkstra truth for every pair,
/// including out-of-range ids: `None` exactly where Dijkstra says
/// `INFINITY`, otherwise a contiguous edge walk with the exact weight sum.
fn assert_paths_match_truth<O: PathOracle>(
    oracle: &O,
    truth: &[Vec<Distance>],
    weights: &HashMap<(VertexId, VertexId), u64>,
    n: u32,
    tag: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(oracle.has_path_data(), "{} should carry path data", tag);
    for u in 0..n + 2 {
        for v in 0..n + 2 {
            let walk = oracle.path(u, v);
            if u >= n || v >= n {
                prop_assert_eq!(walk, Ok(None), "{} oor ({}, {})", tag, u, v);
                continue;
            }
            let d = truth[u as usize][v as usize];
            if d == INFINITY {
                prop_assert_eq!(walk, Ok(None), "{} disconnected ({}, {})", tag, u, v);
                continue;
            }
            let walk = match walk {
                Ok(Some(walk)) => walk,
                other => {
                    return Err(TestCaseError::fail(format!(
                        "{tag}: reachable pair ({u}, {v}) answered {other:?}"
                    )))
                }
            };
            prop_assert_eq!(walk.first().copied(), Some(u), "{} starts at u", tag);
            prop_assert_eq!(walk.last().copied(), Some(v), "{} ends at v", tag);
            if u == v {
                prop_assert_eq!(&walk, &vec![u], "{} diagonal is [u]", tag);
            }
            let mut sum = 0u64;
            for hop in walk.windows(2) {
                match weights.get(&(hop[0], hop[1])) {
                    Some(&w) => sum += w,
                    None => {
                        return Err(TestCaseError::fail(format!(
                            "{tag}: ({}, {}) in path {walk:?} is not an edge",
                            hop[0], hop[1]
                        )))
                    }
                }
            }
            prop_assert_eq!(
                sum,
                d,
                "{} weight sum of {:?} for ({}, {})",
                tag,
                &walk,
                u,
                v
            );
        }
    }
    Ok(())
}

/// Asserts `matrix` / `topk` / `within_radius` against the brute-force
/// per-pair map of the same backend, at 1, 2 and 8 rayon threads.
fn assert_batch_ops_match_brute_force<O: DistanceOracle>(
    oracle: &O,
    sources: &[VertexId],
    targets: &[VertexId],
    tag: &str,
) -> Result<(), TestCaseError> {
    let brute: Vec<Distance> = sources
        .iter()
        .flat_map(|&s| targets.iter().map(move |&t| oracle.distance(s, t)))
        .collect();
    for threads in [1usize, 2, 8] {
        let block = rayon::with_threads(threads, || oracle.matrix(sources, targets));
        prop_assert_eq!(&block, &brute, "{} matrix at {} threads", tag, threads);
    }
    if let Some(&source) = sources.first() {
        // Brute-force top-k: the same (distance, id) ascending order the
        // provided method documents, truncated after the sort.
        let mut hits: Vec<(VertexId, Distance)> = targets
            .iter()
            .map(|&t| (t, oracle.distance(source, t)))
            .filter(|&(_, d)| d != INFINITY)
            .collect();
        hits.sort_unstable_by_key(|&(t, d)| (d, t));
        for k in [0usize, 1, 2, targets.len(), targets.len() + 3] {
            let mut expect = hits.clone();
            expect.truncate(k);
            prop_assert_eq!(
                oracle.topk(source, targets, k),
                expect,
                "{} topk k={}",
                tag,
                k
            );
        }
        let radii: Vec<Distance> = [0, 1]
            .into_iter()
            .chain(hits.iter().map(|&(_, d)| d))
            .collect();
        for radius in radii {
            let expect: Vec<(VertexId, Distance)> =
                hits.iter().copied().filter(|&(_, d)| d <= radius).collect();
            prop_assert_eq!(
                oracle.within_radius(source, targets, radius),
                expect,
                "{} within_radius r={}",
                tag,
                radius
            );
        }
    }
    Ok(())
}

/// `attach_parents` at 1, 2 and 8 threads: every count must derive the
/// same parents. Returns the single-thread result.
fn attach_parents_at_every_thread_count(
    g: &CsrGraph,
    index: &FlatIndex,
) -> Result<FlatIndex, TestCaseError> {
    let derive = |threads| {
        rayon::with_threads(threads, || {
            attach_parents(g, index.clone()).expect("graph matches")
        })
    };
    let flat = derive(1);
    for threads in [2usize, 8] {
        prop_assert_eq!(&derive(threads), &flat, "parents at {} threads", threads);
    }
    Ok(flat)
}

fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chl-proptest-paths-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole differential: paths, matrices and top-k on all five
    /// backends against Dijkstra ground truth.
    #[test]
    fn paths_and_batch_ops_match_dijkstra_on_every_backend(
        g in arb_graph(),
        picks in proptest::collection::vec(any::<u32>(), 2..10),
    ) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let flat = attach_parents_at_every_thread_count(&g, &index)?;
        let n = g.num_vertices() as u32;
        let truth = ground_truth(&g);
        let weights = edge_weights(&g);

        let flat_bytes = AlignedBytes::from_slice(&flat.to_bytes());
        let flat_view = persist::open_view(&flat_bytes).expect("flat bytes view");
        let comp_bytes =
            AlignedBytes::from_slice(&flat.to_bytes_with(&SaveOptions::compressed()));
        let comp_view = persist::open_view(&comp_bytes).expect("compressed bytes view");
        let flat_path = scratch_file("flat", &flat_bytes);
        let comp_path = scratch_file("comp", &comp_bytes);
        let mmap_flat = MmapIndex::open(&flat_path).expect("flat file maps");
        let mmap_comp = MmapIndex::open(&comp_path).expect("compressed file maps");

        assert_paths_match_truth(&flat, &truth, &weights, n, "flat")?;
        assert_paths_match_truth(&flat_view, &truth, &weights, n, "flat view")?;
        assert_paths_match_truth(&comp_view, &truth, &weights, n, "compressed view")?;
        assert_paths_match_truth(&mmap_flat, &truth, &weights, n, "mmap flat")?;
        assert_paths_match_truth(&mmap_comp, &truth, &weights, n, "mmap compressed")?;

        // Duplicate ids are legal in matrix/topk inputs and contribute one
        // row/column per occurrence; fold a few in deliberately.
        let sources: Vec<VertexId> = picks.iter().map(|&p| p % n).collect();
        let mut targets: Vec<VertexId> = picks.iter().rev().map(|&p| p.rotate_left(7) % n).collect();
        targets.push(sources[0]);
        assert_batch_ops_match_brute_force(&flat, &sources, &targets, "flat")?;
        assert_batch_ops_match_brute_force(&flat_view, &sources, &targets, "flat view")?;
        assert_batch_ops_match_brute_force(&comp_view, &sources, &targets, "compressed view")?;
        assert_batch_ops_match_brute_force(&mmap_flat, &sources, &targets, "mmap flat")?;
        assert_batch_ops_match_brute_force(&mmap_comp, &sources, &targets, "mmap compressed")?;

        // Empty sides: a 0×t and s×0 block are both the empty vector.
        prop_assert_eq!(flat.matrix(&[], &targets), Vec::<Distance>::new());
        prop_assert_eq!(flat.matrix(&sources, &[]), Vec::<Distance>::new());

        std::fs::remove_file(&flat_path).ok();
        std::fs::remove_file(&comp_path).ok();
    }

    /// The hub witness of `query_with_hub` is a real witness against
    /// Dijkstra truth, and flat/compressed storage agree on it exactly
    /// (both go through the deduplicated join; this is the parity property
    /// for the dedupe that replaced the three per-backend copies).
    #[test]
    fn hub_witness_parity_against_dijkstra(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;
        let n = g.num_vertices() as u32;
        let truth = ground_truth(&g);

        let comp_bytes =
            AlignedBytes::from_slice(&flat.to_bytes_with(&SaveOptions::compressed()));
        let comp_view = persist::open_view(&comp_bytes).expect("compressed bytes view");

        for u in 0..n {
            for v in 0..n {
                let d = truth[u as usize][v as usize];
                let witness = flat.query_with_hub(u, v);
                prop_assert_eq!(
                    comp_view.query_with_hub(u, v),
                    witness,
                    "storage parity ({}, {})", u, v
                );
                match witness {
                    None => prop_assert_eq!(d, INFINITY, "({}, {})", u, v),
                    Some((hub, dist)) => {
                        prop_assert_eq!(dist, d, "({}, {})", u, v);
                        // A witness hub lies ON a shortest path: the two
                        // legs through it sum to the distance exactly.
                        let through = truth[u as usize][hub as usize]
                            .saturating_add(truth[hub as usize][v as usize]);
                        prop_assert_eq!(through, d, "hub {} for ({}, {})", hub, u, v);
                    }
                }
            }
        }
    }

    /// Sharded restrictions are shard-honest on paths and exact on the
    /// batch ops they answer.
    #[test]
    fn sharded_backends_are_shard_honest(g in arb_graph(), stride in 2u32..4) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let flat = attach_parents_at_every_thread_count(&g, &index)?;
        let n = g.num_vertices() as u32;

        let spec = ShardSpec {
            shard_id: 0,
            shard_count: 3,
            zeta: 2,
            owned: (0..n).step_by(stride as usize).collect(),
        };
        let owned: Vec<VertexId> = spec.owned.clone();
        let shard = flat.restrict_to_shard(spec).expect("valid shard spec");
        prop_assert!(shard.has_path_data(), "parents survive restriction");
        let shard_path = scratch_file("shard", &shard.to_bytes());
        let mapped = MmapIndex::open(&shard_path).expect("shard file maps");

        for u in 0..n {
            for v in 0..n {
                let expect = flat.path(u, v);
                for (backend, tag) in [(shard.path(u, v), "owned"), (mapped.path(u, v), "mmap")] {
                    if !owned.contains(&u) || !owned.contains(&v) {
                        // A foreign endpoint is refused by name, never
                        // half-answered.
                        let foreign = if owned.contains(&u) { v } else { u };
                        prop_assert_eq!(
                            backend,
                            Err(PathError::NotThisShard { vertex: foreign }),
                            "{} foreign endpoint ({}, {})", tag, u, v
                        );
                        continue;
                    }
                    // Both endpoints owned: the shard either answers exactly
                    // like the full index or names the interior vertex whose
                    // chain left the shard — it never fabricates a path.
                    match backend {
                        Err(PathError::NotThisShard { vertex }) => prop_assert!(
                            !owned.contains(&vertex),
                            "{} blamed owned vertex {} for ({}, {})", tag, vertex, u, v
                        ),
                        other => prop_assert_eq!(
                            other,
                            expect.clone(),
                            "{} owned pair ({}, {})", tag, u, v
                        ),
                    }
                }
            }
        }

        // Batch ops stay self-consistent on the shard's own (partial)
        // labeling: the pivoted matrix equals the shard's per-pair answers.
        if !owned.is_empty() {
            assert_batch_ops_match_brute_force(&shard, &owned, &owned, "shard owned")?;
            assert_batch_ops_match_brute_force(&mapped, &owned, &owned, "shard mmap")?;
        }
        std::fs::remove_file(&shard_path).ok();
    }
}
