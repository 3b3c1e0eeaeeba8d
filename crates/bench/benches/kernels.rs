//! Criterion micro-benchmarks for the hot kernels of hub labeling:
//! PPSD distance queries (the tiered merge-join kernels against the
//! streaming seed join, across the pointer / flat / compressed backends),
//! the pruned-Dijkstra SPT kernel, the PLaNT Dijkstra kernel and the label
//! cleaning pass.
//!
//! Query pairs come from a splitmix64 stream: the previous LCG derived
//! `v` from `i >> 8`, which correlates the two endpoints (low-entropy
//! high bits) and made every pair hit the same few label runs. Pairs are
//! precomputed so the generator is outside the timed region.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use chl_core::cleaning::clean_labels;
use chl_core::kernel;
use chl_core::labels::{join_sorted_iters, FlatEntry, LabelSet};
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::persist::{save_with, SaveOptions};
use chl_core::plant::{plant_dijkstra, CommonLabelTable, PlantScratch};
use chl_core::pll::{pll_with_restricted_pruning, sequential_pll};
use chl_core::pruned_dijkstra::{pruned_dijkstra, DijkstraScratch, PruneOptions};
use chl_core::table::ConcurrentLabelTable;
use chl_datasets::{load, DatasetId, Scale};

/// Number of precomputed query pairs (power of two so `i & MASK` cycles).
const PAIRS: usize = 4096;

/// splitmix64: every output bit depends on every state bit, so `u` and `v`
/// drawn from the two halves of one output are decorrelated.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn query_pairs(n: u32, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed;
    (0..PAIRS)
        .map(|_| {
            let r = splitmix64(&mut state);
            (((r >> 32) as u32) % n, (r as u32) % n)
        })
        .collect()
}

fn query_kernels(c: &mut Criterion) {
    let ds = load(DatasetId::SKIT, Scale::Tiny, 42);
    let flat = sequential_pll(&ds.graph, &ds.ranking).index;
    let n = ds.graph.num_vertices() as u32;
    let runs: Vec<&[FlatEntry]> = (0..n).map(|v| flat.labels_of(v)).collect();
    let pairs = query_pairs(n, 42);

    // The compressed backend streams varint-decoded runs from a saved file.
    let compressed_path = std::env::temp_dir().join("chl_bench_kernels_compressed.chl");
    save_with(&flat, &compressed_path, &SaveOptions::compressed())
        .expect("saving the compressed bench index");
    let compressed = MmapIndex::open(&compressed_path).expect("mapping the compressed bench index");

    let mut group = c.benchmark_group("query");
    // Raw slice kernels: same runs, different join tier.
    group.bench_function("seed_scalar_iter_join", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pairs[i & (PAIRS - 1)];
            i += 1;
            black_box(join_sorted_iters(
                runs[u as usize].iter().copied(),
                runs[v as usize].iter().copied(),
            ))
        })
    });
    group.bench_function("branchless_join", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pairs[i & (PAIRS - 1)];
            i += 1;
            black_box(kernel::join_branchless(runs[u as usize], runs[v as usize]))
        })
    });
    group.bench_function("gallop_join", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pairs[i & (PAIRS - 1)];
            i += 1;
            black_box(kernel::join_gallop(runs[u as usize], runs[v as usize]))
        })
    });
    group.bench_function("adaptive_join", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pairs[i & (PAIRS - 1)];
            i += 1;
            black_box(kernel::join_adaptive(runs[u as usize], runs[v as usize]))
        })
    });
    // Full oracle paths: bounds checks, storage dispatch, tie-break result.
    group.bench_function("flat_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pairs[i & (PAIRS - 1)];
            i += 1;
            black_box(flat.query(u, v))
        })
    });
    group.bench_function("compressed_stream_query", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let (u, v) = pairs[i & (PAIRS - 1)];
            i += 1;
            black_box(compressed.distance(u, v))
        })
    });
    group.finish();
    drop(compressed);
    let _ = std::fs::remove_file(&compressed_path);

    // Length-skewed joins: a hub-heavy run against a tiny one — the shape
    // galloping exists for (O(small * log large) searches instead of a
    // scan of the large side). Tiny-scale dataset labels top out at ~14
    // entries, so the skewed runs are synthesized: 4096 even hubs on the
    // large side, 4 probes on the small side (two hits, two misses).
    let long: Vec<FlatEntry> = (0..4096u32)
        .map(|i| FlatEntry {
            hub: i * 2,
            dist: i + 1,
        })
        .collect();
    let short: Vec<FlatEntry> = [40u32, 1_001, 4_000, 8_190]
        .into_iter()
        .map(|hub| FlatEntry { hub, dist: 7 })
        .collect();

    let mut skew = c.benchmark_group(format!("query_skew_{}x{}", long.len(), short.len()));
    skew.bench_function("seed_scalar_iter_join", |b| {
        b.iter(|| {
            black_box(join_sorted_iters(
                long.iter().copied(),
                short.iter().copied(),
            ))
        })
    });
    skew.bench_function("branchless_join", |b| {
        b.iter(|| black_box(kernel::join_branchless(&long, &short)))
    });
    skew.bench_function("gallop_join", |b| {
        b.iter(|| black_box(kernel::join_gallop(&long, &short)))
    });
    skew.bench_function("adaptive_join", |b| {
        b.iter(|| black_box(kernel::join_adaptive(&long, &short)))
    });
    skew.finish();
}

fn spt_kernels(c: &mut Criterion) {
    let road = load(DatasetId::CAL, Scale::Tiny, 42);
    let n = road.graph.num_vertices();
    let mid_root = road.ranking.vertex_at((n / 2) as u32);

    let mut group = c.benchmark_group("spt_kernel");
    group.bench_function("pruned_dijkstra_mid_rank_root", |b| {
        // Labels of all higher-ranked roots are present, as they would be in
        // a real construction when this root's turn comes.
        let table = ConcurrentLabelTable::new(n);
        let mut scratch = DijkstraScratch::new(n);
        for pos in 0..(n / 2) as u32 {
            pruned_dijkstra(
                &road.graph,
                &road.ranking,
                road.ranking.vertex_at(pos),
                &table,
                PruneOptions::default(),
                &mut scratch,
            );
        }
        b.iter_batched(
            || DijkstraScratch::new(n),
            |mut fresh| {
                black_box(pruned_dijkstra(
                    &road.graph,
                    &road.ranking,
                    mid_root,
                    &table,
                    PruneOptions::default(),
                    &mut fresh,
                ))
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("plant_dijkstra_mid_rank_root", |b| {
        let common = CommonLabelTable::empty(n);
        b.iter_batched(
            || PlantScratch::new(n),
            |mut fresh| {
                black_box(plant_dijkstra(
                    &road.graph,
                    &road.ranking,
                    mid_root,
                    true,
                    &common,
                    &mut fresh,
                ))
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn cleaning_kernel(c: &mut Criterion) {
    let ds = load(DatasetId::AUT, Scale::Tiny, 42);
    // An inflated labeling (rank queries only) gives the cleaner real work.
    let inflated = pll_with_restricted_pruning(&ds.graph, &ds.ranking, 0).index;
    let sets: Vec<LabelSet> = (0..ds.graph.num_vertices() as u32)
        .map(|v| LabelSet::from_entries(inflated.labels_of(v).iter().map(|&e| e.into()).collect()))
        .collect();

    c.bench_function("clean_labels_inflated_labeling", |b| {
        b.iter(|| black_box(clean_labels(&sets, &ds.ranking)))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = query_kernels, spt_kernels, cleaning_kernel
}
criterion_main!(kernels);
