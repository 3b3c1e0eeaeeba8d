//! Thread-scaling of the batch query path: `DistanceOracle::distances` over
//! a fixed random workload on pools of 1 / 2 / 4 / 8 threads, over the
//! contiguous [`chl_core::FlatIndex`] every constructor returns.
//!
//! The batch answers are identical at every thread count (chunks are
//! contiguous and reassembled in order — property-tested in
//! `crates/query/tests/proptest_parallel_distances.rs`), so the only thing
//! varying here is wall time. On a ≥4-core machine the multi-threaded rows
//! should scale close to linearly until memory bandwidth saturates; on fewer
//! cores the extra threads only add scheduling noise.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chl_core::oracle::DistanceOracle;
use chl_core::pll::sequential_pll;
use chl_datasets::{load, DatasetId, Scale};
use chl_query::workload::random_pairs;

fn batch_query_scaling(c: &mut Criterion) {
    let ds = load(DatasetId::SKIT, Scale::Tiny, 42);
    let flat = sequential_pll(&ds.graph, &ds.ranking).index;
    let pairs = random_pairs(ds.graph.num_vertices(), 100_000, 7).pairs;

    let mut group = c.benchmark_group("batch_distances");
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("flat/{threads}_threads"), |b| {
            b.iter(|| rayon::with_threads(threads, || black_box(flat.distances(&pairs))))
        });
    }
    group.finish();
}

criterion_group!(benches, batch_query_scaling);
criterion_main!(benches);
