//! The build → save → load → serve lifecycle as a library consumer sees it:
//! construct a labeling once, persist it as a `.chl` file, reload it into the
//! flat contiguous serving layout and answer queries — the same pipeline the
//! `chl` CLI drives from the shell (`chl build … && chl query …`).
//!
//! Run with: `cargo run --release --example persistence`

use planted_hub_labeling::graph::sssp::dijkstra;
use planted_hub_labeling::prelude::*;

fn main() {
    // 1. Build phase (expensive, run once): construct the canonical hub
    //    labeling of a road-like grid.
    let graph = grid_network(
        &GridOptions {
            rows: 25,
            cols: 25,
            ..GridOptions::default()
        },
        7,
    );
    let result = ChlBuilder::new(&graph)
        .ranking(RankingStrategy::Degree)
        .algorithm(Algorithm::Hybrid)
        .validate()
        .expect("configuration is valid")
        .build()
        .expect("construction succeeds");
    println!(
        "built: {} vertices, {} labels (avg {:.2} per vertex)",
        result.index.num_vertices(),
        result.index.total_labels(),
        result.index.average_label_size()
    );

    // 2. Persist: the index already holds its labels in two contiguous CSR
    //    arrays; write them as the versioned, checksummed `.chl` file.
    let path = std::env::temp_dir().join(format!("chl-example-{}.chl", std::process::id()));
    result.index.save(&path).expect("index saves");
    let file_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("saved: {} ({file_len} bytes)", path.display());

    // 3. Serve phase (cheap, run anywhere): a fresh process only needs the
    //    file. Loading validates magic, version, checksums and invariants —
    //    corruption surfaces as a typed `PersistError`, never a bad answer.
    let served = FlatIndex::load(&path).expect("index loads");
    let oracle: &dyn DistanceOracle = &served;
    let reference = dijkstra(&graph, 0);
    for v in [1u32, 300, 624] {
        let d = oracle.distance(0, v);
        assert_eq!(d, reference[v as usize], "served answers stay exact");
        println!("dist(0, {v}) = {d}");
    }

    // 4. Zero-copy serve: `.chl` sections are 8-byte aligned, so the
    //    file can also be mapped and queried in place — validated once at
    //    open, no label byte deserialized. Same `DistanceOracle` surface,
    //    same answers; `chl query --mmap` is this path from the shell.
    let mapped = MmapIndex::open(&path).expect("v3 index maps");
    let oracle: &dyn DistanceOracle = &mapped;
    for v in [1u32, 300, 624] {
        assert_eq!(oracle.distance(0, v), reference[v as usize]);
    }
    println!(
        "mmap-served {} labels from a {}-byte file image (mapped: {})",
        mapped.total_labels(),
        mapped.file_len(),
        mapped.is_mapped()
    );

    std::fs::remove_file(&path).ok();
}
