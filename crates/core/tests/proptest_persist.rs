//! Property-based tests for the persistence subsystem: for arbitrary graphs,
//! every serving path over the `.chl` format — the copying loader, the
//! zero-copy borrowed view and the mmap-backed index — answers every query
//! byte-identically to the in-memory index it came from, for both entries
//! encodings (flat records and delta+varint compressed); flat↔compressed
//! round trips are lossless and re-encoding is byte-stable; and random
//! single-byte corruption (anywhere in the file, skip table, path and shard
//! sections and padding included) never loads successfully and never
//! panics, in either encoding. A legacy v1 file, written by the reference
//! writer below, upgrades to exactly the current writer's bytes, and never
//! upgrades once a byte of it is flipped.

use proptest::prelude::*;

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::paths::attach_parents;
use chl_core::persist::{self, AlignedBytes, SaveOptions, ShardSpec};
use chl_core::pll::sequential_pll;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::degree_ranking;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        2usize..24,
        proptest::collection::vec((0u32..24, 0u32..24, 1u32..50), 1..80),
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

/// `g`'s index written under `options` in one of four shapes, so every
/// section gets corrupted: bit 0 adds the path section (`chl build
/// --paths`), bit 1 keeps one shard of two (the shard section).
fn shaped_bytes(g: &CsrGraph, shape: u8, options: &SaveOptions) -> Vec<u8> {
    let ranking = degree_ranking(g);
    let mut flat = sequential_pll(g, &ranking).index;
    if shape & 1 != 0 {
        flat = attach_parents(g, flat).expect("parents of an exact index");
    }
    if shape & 2 != 0 {
        let spec = ShardSpec {
            shard_id: 0,
            shard_count: 2,
            zeta: 2,
            owned: (0..g.num_vertices() as u32).step_by(2).collect(),
        };
        flat = flat.restrict_to_shard(spec).expect("a valid owned set");
    }
    flat.to_bytes_with(options)
}

/// The v1 writer, kept as the reference the upgrade is checked against:
/// `CHLI | 1 | n | m | crc`, then the ranking, the offsets and the packed
/// 12-byte `(hub, distance)` entries, the CRC covering all three.
fn v1_bytes(index: &FlatIndex) -> Vec<u8> {
    let mut payload = Vec::new();
    for &v in index.ranking().order() {
        payload.extend(v.to_le_bytes());
    }
    for &offset in index.offsets() {
        payload.extend(offset.to_le_bytes());
    }
    for e in index.entries() {
        payload.extend(e.hub.to_le_bytes());
        payload.extend(u64::from(e.dist).to_le_bytes());
    }
    let mut bytes = persist::MAGIC.to_vec();
    bytes.extend(1u32.to_le_bytes());
    bytes.extend((index.num_vertices() as u64).to_le_bytes());
    bytes.extend((index.total_labels() as u64).to_le_bytes());
    bytes.extend(persist::crc32(&payload).to_le_bytes());
    bytes.extend(payload);
    bytes
}

fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chl-proptest-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_round_trip_is_query_identical(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;

        let bytes = index.to_bytes();
        let reloaded = FlatIndex::from_bytes(&bytes).expect("clean bytes load");

        prop_assert_eq!(&reloaded, &index);

        let n = g.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(reloaded.query(u, v), index.query(u, v));
                prop_assert_eq!(reloaded.query_with_hub(u, v), index.query_with_hub(u, v));
            }
        }
    }

    #[test]
    fn v1_upgrade_equals_the_current_writer(g in arb_graph()) {
        // A legacy file upgrades to exactly the bytes the writer produces
        // for the same index.
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;
        let upgraded = persist::upgrade(&v1_bytes(&flat)).expect("v1 bytes upgrade");
        prop_assert_eq!(upgraded, flat.to_bytes());
    }

    #[test]
    fn owned_view_and_mmap_backends_answer_byte_identically(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let owned = FlatIndex::from_bytes(&index.to_bytes()).expect("clean bytes load");

        // Zero-copy view borrowed straight from the serialized bytes.
        let aligned = AlignedBytes::from_slice(&owned.to_bytes());
        let view = persist::open_view(&aligned).expect("clean bytes view");

        // Mmap-backed index over the same bytes written to a real file.
        let path = scratch_file("parity", &aligned);
        let mapped = MmapIndex::open(&path).expect("clean v2 file maps");

        let n = g.num_vertices() as u32;
        // Include out-of-range ids: every backend must answer INFINITY/None,
        // never panic, through identical code paths.
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let expect = index.query(u, v);
                prop_assert_eq!(owned.query(u, v), expect, "owned ({}, {})", u, v);
                prop_assert_eq!(view.query(u, v), expect, "view ({}, {})", u, v);
                prop_assert_eq!(mapped.view().query(u, v), expect, "mmap ({}, {})", u, v);
                let expect_hub = index.query_with_hub(u, v);
                prop_assert_eq!(view.query_with_hub(u, v), expect_hub);
                prop_assert_eq!(mapped.view().query_with_hub(u, v), expect_hub);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_byte_corruption_never_loads(g in arb_graph(), shape in 0u8..4, pos in 0usize..10_000, flip in 1u8..=255) {
        let mut bytes = shaped_bytes(&g, shape, &SaveOptions::default());
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;

        // Whatever byte was flipped — header, section data, path prelude,
        // shard section, alignment padding — every loader must reject the
        // file with a typed error: the copying path, the zero-copy views and
        // the mmap open alike.
        prop_assert!(FlatIndex::from_bytes(&bytes).is_err(), "copy-load, shape {}, flip at byte {}", shape, pos);
        let aligned = AlignedBytes::from_slice(&bytes);
        prop_assert!(persist::open_view(&aligned).is_err(), "open_view, shape {}, flip at byte {}", shape, pos);
        let path = scratch_file("corrupt", &bytes);
        prop_assert!(MmapIndex::open(&path).is_err(), "mmap, flip at byte {}", pos);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_and_compressed_round_trips_are_query_identical(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;

        let flat_bytes = index.to_bytes();
        let comp_bytes = index.to_bytes_with(&SaveOptions::compressed());
        // The compressed file decodes back to the identical index...
        let from_flat = FlatIndex::from_bytes(&flat_bytes).expect("flat bytes load");
        let from_comp = FlatIndex::from_bytes(&comp_bytes).expect("compressed bytes load");
        prop_assert_eq!(&from_comp, &index);
        prop_assert_eq!(&from_comp, &from_flat);

        // ...and every borrowed serving path over the compressed bytes
        // answers byte-identically to the in-memory index, including
        // out-of-range ids.
        let aligned = AlignedBytes::from_slice(&comp_bytes);
        let view = persist::open_view(&aligned).expect("clean compressed bytes view");
        prop_assert!(view.is_compressed());
        let path = scratch_file("comp-parity", &comp_bytes);
        let mapped = MmapIndex::open(&path).expect("clean compressed file opens");
        prop_assert!(mapped.is_compressed());
        let n = g.num_vertices() as u32;
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let expect = index.query(u, v);
                prop_assert_eq!(view.query(u, v), expect, "view ({}, {})", u, v);
                prop_assert_eq!(mapped.view().query(u, v), expect, "mmap ({}, {})", u, v);
                let expect_hub = index.query_with_hub(u, v);
                prop_assert_eq!(view.query_with_hub(u, v), expect_hub);
                prop_assert_eq!(mapped.view().query_with_hub(u, v), expect_hub);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compressed_re_encoding_is_byte_stable(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;
        let comp = flat.to_bytes_with(&SaveOptions::compressed());
        // decode → re-encode reproduces the exact bytes (canonical varints
        // make the encoding injective), through both load paths.
        let decoded = FlatIndex::from_bytes(&comp).expect("compressed bytes load");
        prop_assert_eq!(&decoded.to_bytes_with(&SaveOptions::compressed()), &comp);
        let aligned = AlignedBytes::from_slice(&comp);
        let reowned = persist::open_view(&aligned).expect("view").to_owned_index();
        prop_assert_eq!(&reowned.to_bytes_with(&SaveOptions::compressed()), &comp);
        // Crossing encodings is stable too: flat bytes of the decoded
        // index equal the directly written flat bytes.
        prop_assert_eq!(decoded.to_bytes(), flat.to_bytes());
    }

    #[test]
    fn single_byte_corruption_never_loads_compressed(g in arb_graph(), shape in 0u8..4, pos in 0usize..10_000, flip in 1u8..=255) {
        let mut bytes = shaped_bytes(&g, shape, &SaveOptions::compressed());
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;

        // Whatever byte was flipped — header, flags word, skip table,
        // encoded blob, path prelude, shard section, alignment padding —
        // every loader must reject the file with a typed error, never a
        // panic.
        prop_assert!(FlatIndex::from_bytes(&bytes).is_err(), "copy-load, shape {}, flip at byte {}", shape, pos);
        let aligned = AlignedBytes::from_slice(&bytes);
        prop_assert!(persist::open_view(&aligned).is_err(), "open_view, shape {}, flip at byte {}", shape, pos);
        let path = scratch_file("comp-corrupt", &bytes);
        prop_assert!(MmapIndex::open(&path).is_err(), "mmap, flip at byte {}", pos);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_byte_corruption_never_upgrades_v1(g in arb_graph(), pos in 0usize..10_000, flip in 1u8..=255) {
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let mut bytes = v1_bytes(&index);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(persist::upgrade(&bytes).is_err(), "flip at byte {}", pos);
    }
}
