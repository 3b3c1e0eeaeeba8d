//! Micro-benchmarks for the persistence subsystem: the cost of a full
//! serialize → deserialize round trip of the `.chl` byte format, and the
//! cold-serve comparison the zero-copy refactor exists for — time from
//! "bytes/file in hand" to "first query answered" for the copying loader,
//! the borrowed view and the mmap open, plus steady-state query
//! parity between the owned and borrowed kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::persist::{self, AlignedBytes, SaveOptions};
use chl_core::pll::sequential_pll;
use chl_datasets::{load, DatasetId, Scale};

fn persistence_round_trip(c: &mut Criterion) {
    let ds = load(DatasetId::SKIT, Scale::Tiny, 42);
    let flat = sequential_pll(&ds.graph, &ds.ranking).index;
    let bytes = flat.to_bytes();

    let mut group = c.benchmark_group("persistence");
    group.bench_function("serialize_to_bytes", |b| {
        b.iter(|| black_box(flat.to_bytes()))
    });
    group.bench_function("deserialize_and_validate", |b| {
        b.iter(|| black_box(FlatIndex::from_bytes(&bytes).expect("clean bytes")))
    });
    group.bench_function("full_round_trip", |b| {
        b.iter(|| black_box(FlatIndex::from_bytes(&flat.to_bytes()).expect("clean bytes")))
    });
    group.finish();
}

/// Time-to-first-query per serving path: what a process restart costs. The
/// copying loader pays deserialization + validation + allocation; the
/// zero-copy view pays validation only; the mmap open additionally pays the
/// syscall but no read of the label payload.
fn cold_serve(c: &mut Criterion) {
    let ds = load(DatasetId::SKIT, Scale::Tiny, 42);
    let flat = sequential_pll(&ds.graph, &ds.ranking).index;
    let n = ds.graph.num_vertices() as u32;
    let (u, v) = (0u32, n - 1);

    let bytes = flat.to_bytes();
    let aligned = AlignedBytes::from_slice(&bytes);
    let path =
        std::env::temp_dir().join(format!("chl-bench-cold-serve-{}.chl", std::process::id()));
    std::fs::write(&path, &bytes).expect("bench scratch file");

    let mut group = c.benchmark_group("cold_serve");
    group.bench_function("copy_load_first_query", |b| {
        b.iter(|| {
            let idx = FlatIndex::from_bytes(&bytes).expect("clean bytes");
            black_box(idx.query(u, v))
        })
    });
    group.bench_function("zero_copy_view_first_query", |b| {
        b.iter(|| {
            let view = persist::open_view(&aligned).expect("clean bytes");
            black_box(view.query(u, v))
        })
    });
    group.bench_function("mmap_open_first_query", |b| {
        b.iter(|| {
            let idx = MmapIndex::open(&path).expect("clean file");
            black_box(idx.view().query(u, v))
        })
    });
    group.finish();
    std::fs::remove_file(&path).ok();
}

/// Steady-state query cost of the owned index against a borrowed view over
/// the serialized bytes — the two must be indistinguishable, since the owned
/// path forwards through the same kernel.
fn owned_vs_view_steady_state(c: &mut Criterion) {
    let ds = load(DatasetId::SKIT, Scale::Tiny, 42);
    let flat = sequential_pll(&ds.graph, &ds.ranking).index;
    let aligned = AlignedBytes::from_slice(&flat.to_bytes());
    let view = persist::open_view(&aligned).expect("clean bytes");
    let n = ds.graph.num_vertices() as u32;

    let mut group = c.benchmark_group("owned_vs_view");
    group.bench_function("owned_flat_index", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            black_box(flat.query(i % n, (i >> 8) % n))
        })
    });
    group.bench_function("borrowed_view", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            black_box(view.query(i % n, (i >> 8) % n))
        })
    });
    group.finish();
}

/// Flat vs delta+varint-compressed entries: encoded size (printed once, with
/// the entries-section ratio the format exists for), time-to-first-query on
/// both the copying loader and the zero-copy/streamed view path, and
/// steady-state query latency of the streaming decoder against the flat
/// kernel — the size-vs-latency trade-off `chl build --compress` buys into.
fn compression(c: &mut Criterion) {
    let ds = load(DatasetId::SKIT, Scale::Tiny, 42);
    let flat = sequential_pll(&ds.graph, &ds.ranking).index;
    let n = ds.graph.num_vertices() as u32;
    let (u, v) = (0u32, n - 1);

    let flat_bytes = flat.to_bytes();
    let compressed_bytes = persist::to_bytes_with(&flat, &SaveOptions::compressed());
    let flat_aligned = AlignedBytes::from_slice(&flat_bytes);
    let compressed_aligned = AlignedBytes::from_slice(&compressed_bytes);

    // Size is a property, not a timing: report it once alongside the group.
    let flat_header = persist::parse_header(&flat_bytes).expect("clean flat header");
    let comp_header = persist::parse_header(&compressed_bytes).expect("clean compressed header");
    let flat_entries = flat_header.entries_section_len();
    let comp_entries = comp_header.entries_section_len();
    eprintln!(
        "compression/size: file {} -> {} bytes, entries section {} -> {} bytes ({:.2}x)",
        flat_bytes.len(),
        compressed_bytes.len(),
        flat_entries,
        comp_entries,
        flat_entries as f64 / comp_entries.max(1) as f64
    );

    let mut group = c.benchmark_group("compression");
    group.bench_function("encode_flat", |b| b.iter(|| black_box(flat.to_bytes())));
    group.bench_function("encode_compressed", |b| {
        b.iter(|| black_box(persist::to_bytes_with(&flat, &SaveOptions::compressed())))
    });
    // Cold serve: the copying loader pays the full decode on compressed
    // files; the view path pays validation only either way (the streamed
    // decoder defers entry decoding to query time).
    group.bench_function("copy_load_flat_first_query", |b| {
        b.iter(|| {
            let idx = FlatIndex::from_bytes(&flat_bytes).expect("clean flat bytes");
            black_box(idx.query(u, v))
        })
    });
    group.bench_function("copy_load_compressed_first_query", |b| {
        b.iter(|| {
            let idx = FlatIndex::from_bytes(&compressed_bytes).expect("clean compressed bytes");
            black_box(idx.query(u, v))
        })
    });
    group.bench_function("view_flat_first_query", |b| {
        b.iter(|| {
            let view = persist::open_view(&flat_aligned).expect("clean flat bytes");
            black_box(view.query(u, v))
        })
    });
    group.bench_function("view_compressed_first_query", |b| {
        b.iter(|| {
            let view = persist::open_view(&compressed_aligned).expect("clean compressed bytes");
            black_box(view.query(u, v))
        })
    });
    // Steady state: what each query pays for the smaller file.
    let flat_view = persist::open_view(&flat_aligned).expect("clean flat bytes");
    let compressed_view = persist::open_view(&compressed_aligned).expect("clean compressed bytes");
    group.bench_function("steady_state_flat_view", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            black_box(flat_view.query(i % n, (i >> 8) % n))
        })
    });
    group.bench_function("steady_state_compressed_stream", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(2654435761);
            black_box(compressed_view.query(i % n, (i >> 8) % n))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    persistence_round_trip,
    cold_serve,
    owned_vs_view_steady_state,
    compression
);
criterion_main!(benches);
