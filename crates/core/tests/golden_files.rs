//! Golden-file corpus for the `.chl` format: one small deterministic graph,
//! checked in as v4-flat, v4-compressed, three v4 shard files and two v4
//! path-section files together with its full pinned distance and path
//! tables, plus the same index as legacy v1, v2 and v3 files. Every v4
//! fixture must keep loading through every applicable path and answering
//! the pinned tables byte-identically, and re-serializing a loaded fixture
//! must reproduce its bytes exactly — so any accidental format drift in a
//! future change fails here before it ships.
//!
//! Compat policy: v1, v2 and v3 are frozen inputs of `persist::upgrade`
//! (`chl upgrade`) and nothing else. Their checked-in bytes never change
//! (their lengths and CRC-32s are pinned below); every loader refuses them
//! with `UpgradeRequired`, and upgrading each yields exactly its v4
//! sibling's bytes.
//!
//! The shard fixtures pin the QDOL layout for 3 shards over 16 vertices
//! (ζ = 3, contiguous chunks of 6). The owned sets hard-coded here are
//! asserted equal to the real derivation in
//! `chl-query::qdol::shard_map_covers_every_query_and_pins_the_q3_layout`,
//! which keeps this crate free of a dev-dependency cycle while tying the
//! fixtures to the code that produces real shard files.
//!
//! Regenerating (only when the format changes *on purpose*) rewrites the v4
//! fixtures; the legacy inputs and the pinned tables are left untouched:
//!
//! ```text
//! CHL_REGEN_FIXTURES=1 cargo test -p chl-core --test golden_files
//! ```

use std::path::{Path, PathBuf};

use chl_core::flat::{FlatIndex, NotThisShard};
use chl_core::mapped::MmapIndex;
use chl_core::paths::{attach_parents, PathError, PathOracle};
use chl_core::persist::{self, AlignedBytes, PersistError, SaveOptions, ShardSpec};
use chl_core::pll::sequential_pll;
use chl_graph::generators::{grid_network, GridOptions};
use chl_graph::types::{VertexId, INFINITY};
use chl_graph::CsrGraph;
use chl_ranking::degree_ranking;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The corpus graph: a 4x4 weighted grid, fully deterministic (seeded
/// generator, vendored RNG, sequential constructor).
fn golden_graph() -> CsrGraph {
    grid_network(
        &GridOptions {
            rows: 4,
            cols: 4,
            ..GridOptions::default()
        },
        9,
    )
}

fn build_golden() -> FlatIndex {
    let g = golden_graph();
    let ranking = degree_ranking(&g);
    sequential_pll(&g, &ranking).index
}

/// The corpus with per-entry parent records, derived at 1, 2 and 8
/// threads: the parallel derivation must not depend on the thread count.
fn golden_with_paths() -> FlatIndex {
    let derive = |threads| {
        rayon::with_threads(threads, || {
            attach_parents(&golden_graph(), build_golden()).expect("corpus graph matches its index")
        })
    };
    let with_paths = derive(1);
    for threads in [2, 8] {
        assert_eq!(derive(threads), with_paths, "parents at {threads} threads");
    }
    with_paths
}

/// The pinned QDOL shard layout for 3 shards over the 16-vertex corpus:
/// shard pairs (0,1), (0,2), (1,2) over partitions {0..6}, {6..12},
/// {12..16}. Must match `QdolShardMap::new(3, 16)` — see the module docs.
fn shard_specs() -> Vec<ShardSpec> {
    let owned = |ranges: &[std::ops::Range<VertexId>]| -> Vec<VertexId> {
        ranges.iter().flat_map(|r| r.clone()).collect()
    };
    vec![
        ShardSpec {
            shard_id: 0,
            shard_count: 3,
            zeta: 3,
            owned: owned(&[0..6, 6..12]),
        },
        ShardSpec {
            shard_id: 1,
            shard_count: 3,
            zeta: 3,
            owned: owned(&[0..6, 12..16]),
        },
        ShardSpec {
            shard_id: 2,
            shard_count: 3,
            zeta: 3,
            owned: owned(&[6..12, 12..16]),
        },
    ]
}

fn shard_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("golden.v4-shard-{i}-of-3.chl"))
}

fn distance_table(index: &FlatIndex) -> String {
    let n = index.num_vertices() as u32;
    let mut out = String::new();
    for u in 0..n {
        let row: Vec<String> = (0..n)
            .map(|v| {
                let d = index.query(u, v);
                if d == INFINITY {
                    "inf".to_string()
                } else {
                    d.to_string()
                }
            })
            .collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

/// The pinned path table: one line per pair, `u v: a b c ... z` for the
/// reconstructed walk or `u v: unreachable`. Path answers are exact, not
/// just weight-equal, because the parent derivation is deterministic
/// (first CSR-order witness), so the whole walk is pinnable.
fn path_table(index: &FlatIndex) -> String {
    let n = index.num_vertices() as u32;
    let mut out = String::new();
    for u in 0..n {
        for v in 0..n {
            let line = match index.path(u, v).expect("paths fixture answers") {
                Some(walk) => walk
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
                None => "unreachable".to_string(),
            };
            out.push_str(&format!("{u} {v}: {line}\n"));
        }
    }
    out
}

fn regen(dir: &Path) {
    let golden = build_golden();
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("golden.v4-flat.chl"), golden.to_bytes()).unwrap();
    std::fs::write(
        dir.join("golden.v4-compressed.chl"),
        golden.to_bytes_with(&SaveOptions::compressed()),
    )
    .unwrap();
    for (i, spec) in shard_specs().into_iter().enumerate() {
        let shard = golden
            .restrict_to_shard(spec)
            .expect("pinned specs are consistent with the corpus");
        std::fs::write(shard_path(dir, i), shard.to_bytes()).unwrap();
    }
    // The tables the fixtures answer are pinned, not regenerated: the
    // rebuilt index must still produce them.
    assert_eq!(
        distance_table(&golden),
        std::fs::read_to_string(dir.join("golden.distances.txt")).unwrap()
    );
    // The path-section fixtures: the same corpus with per-entry parent
    // records, in both entry encodings.
    let with_paths = golden_with_paths();
    assert_eq!(
        path_table(&with_paths),
        std::fs::read_to_string(dir.join("golden.paths.txt")).unwrap()
    );
    std::fs::write(dir.join("golden.v4-paths.chl"), with_paths.to_bytes()).unwrap();
    std::fs::write(
        dir.join("golden.v4-paths-compressed.chl"),
        with_paths.to_bytes_with(&SaveOptions::compressed()),
    )
    .unwrap();
}

/// The legacy fixtures, frozen inputs of `upgrade`: each file, its format
/// version, the v4 fixture its upgrade must equal, and its pinned length and
/// CRC-32, so that no regeneration or edit touches one unnoticed.
const LEGACY: [(&str, u32, &str, usize, u32); 10] = [
    ("golden.v1.chl", 1, "golden.v4-flat.chl", 1032, 0xdb82_3f69),
    (
        "golden.v2-flat.chl",
        2,
        "golden.v4-flat.chl",
        1312,
        0xc88c_1fba,
    ),
    (
        "golden.v2-compressed.chl",
        2,
        "golden.v4-compressed.chl",
        512,
        0xab7f_654a,
    ),
    (
        "golden.v3-flat.chl",
        3,
        "golden.v4-flat.chl",
        1320,
        0xc6cd_cc37,
    ),
    (
        "golden.v3-compressed.chl",
        3,
        "golden.v4-compressed.chl",
        520,
        0x37d2_9126,
    ),
    (
        "golden.v3-paths.chl",
        3,
        "golden.v4-paths.chl",
        1600,
        0xcf33_78ce,
    ),
    (
        "golden.v3-paths-compressed.chl",
        3,
        "golden.v4-paths-compressed.chl",
        800,
        0xf64c_6e63,
    ),
    (
        "golden.v3-shard-0-of-3.chl",
        3,
        "golden.v4-shard-0-of-3.chl",
        1016,
        0xa593_9c89,
    ),
    (
        "golden.v3-shard-1-of-3.chl",
        3,
        "golden.v4-shard-1-of-3.chl",
        1008,
        0x08b7_78f2,
    ),
    (
        "golden.v3-shard-2-of-3.chl",
        3,
        "golden.v4-shard-2-of-3.chl",
        1040,
        0x4795_e31e,
    ),
];

#[test]
fn legacy_fixture_bytes_are_pinned() {
    let dir = fixtures_dir();
    for (legacy, _, _, len, crc) in LEGACY {
        let bytes = std::fs::read(dir.join(legacy)).unwrap();
        assert_eq!(bytes.len(), len, "{legacy} length");
        assert_eq!(persist::crc32(&bytes), crc, "{legacy} CRC-32");
    }
}

fn pinned_table(dir: &Path) -> Vec<Vec<u64>> {
    let text = std::fs::read_to_string(dir.join("golden.distances.txt"))
        .expect("fixture corpus present (CHL_REGEN_FIXTURES=1 to create)");
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| {
                    if tok == "inf" {
                        INFINITY
                    } else {
                        tok.parse().expect("pinned distance")
                    }
                })
                .collect()
        })
        .collect()
}

type PinnedWalk = ((u32, u32), Option<Vec<u32>>);

fn pinned_paths(dir: &Path) -> Vec<PinnedWalk> {
    let text = std::fs::read_to_string(dir.join("golden.paths.txt"))
        .expect("paths fixture present (CHL_REGEN_FIXTURES=1 to create)");
    text.lines()
        .map(|line| {
            let (pair, walk) = line.split_once(':').expect("pinned 'u v: walk' line");
            let ids: Vec<u32> = pair
                .split_whitespace()
                .map(|t| t.parse().expect("pinned pair"))
                .collect();
            let walk = match walk.trim() {
                "unreachable" => None,
                walk => Some(
                    walk.split_whitespace()
                        .map(|t| t.parse().expect("pinned walk vertex"))
                        .collect(),
                ),
            };
            ((ids[0], ids[1]), walk)
        })
        .collect()
}

/// Asserts `query` answers exactly the pinned table, including out-of-range
/// ids beyond it.
fn assert_answers(table: &[Vec<u64>], tag: &str, query: impl Fn(u32, u32) -> u64) {
    let n = table.len() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                query(u, v),
                table[u as usize][v as usize],
                "{tag}: ({u}, {v})"
            );
        }
    }
    assert_eq!(query(n, 0), INFINITY, "{tag}: out of range");
    assert_eq!(query(n, n), INFINITY, "{tag}: out of range self");
}

#[test]
fn fixtures_load_everywhere_and_answer_the_pinned_distance_table() {
    let dir = fixtures_dir();
    if std::env::var_os("CHL_REGEN_FIXTURES").is_some() {
        regen(&dir);
    }
    let table = pinned_table(&dir);
    assert_eq!(table.len(), 16, "4x4 grid corpus");

    // The legacy fixtures: every loader refuses them, naming the upgrade,
    // and the upgrade is their v4 sibling byte for byte.
    for (legacy, version, sibling, _, _) in LEGACY {
        let path = dir.join(legacy);
        let bytes = std::fs::read(&path).unwrap();
        let aligned = AlignedBytes::from_slice(&bytes);
        let refusals = [
            ("from_bytes", FlatIndex::from_bytes(&bytes).err()),
            ("load", persist::load(&path).err()),
            ("open_view", persist::open_view(&aligned).err()),
            ("mmap", MmapIndex::open(&path).err()),
            ("load_header", persist::load_header(&path).err()),
            ("load_shard_spec", persist::load_shard_spec(&path).err()),
        ];
        for (loader, refused) in refusals {
            assert!(
                matches!(refused, Some(PersistError::UpgradeRequired { version: v }) if v == version),
                "{legacy} through {loader}: {refused:?}"
            );
        }
        assert_eq!(
            persist::upgrade(&bytes).expect("legacy fixture upgrades"),
            std::fs::read(dir.join(sibling)).unwrap(),
            "upgrading {legacy} must yield {sibling}"
        );
    }

    // v4 flat: the default writer's output, with the header CRC.
    let v4_path = dir.join("golden.v4-flat.chl");
    let v4_bytes = std::fs::read(&v4_path).unwrap();
    let v4_header = persist::parse_header(&v4_bytes).unwrap();
    assert_eq!(v4_header.version, persist::VERSION);
    assert!(!v4_header.is_sharded());
    let v4 = FlatIndex::from_bytes(&v4_bytes).expect("v4-flat fixture loads");
    assert_answers(&table, "v4-flat copy-load", |u, v| v4.query(u, v));
    let aligned = AlignedBytes::from_slice(&v4_bytes);
    let view = persist::open_view(&aligned).expect("v4-flat fixture views");
    assert_answers(&table, "v4-flat view", |u, v| view.query(u, v));
    let mapped = MmapIndex::open(&v4_path).expect("v4-flat fixture maps");
    assert!(!mapped.is_sharded());
    assert_answers(&table, "v4-flat mmap", |u, v| mapped.view().query(u, v));
    assert_eq!(
        v4.to_bytes(),
        v4_bytes,
        "re-serializing the loaded v4-flat fixture must be byte-identical"
    );

    // v4 compressed.
    let v4c_path = dir.join("golden.v4-compressed.chl");
    let v4c_bytes = std::fs::read(&v4c_path).unwrap();
    let v4c = FlatIndex::from_bytes(&v4c_bytes).expect("v4-compressed fixture loads");
    assert_answers(&table, "v4-compressed copy-load", |u, v| v4c.query(u, v));
    let aligned = AlignedBytes::from_slice(&v4c_bytes);
    let view = persist::open_view(&aligned).expect("v4-compressed fixture views");
    assert!(view.is_compressed());
    assert_answers(&table, "v4-compressed view", |u, v| view.query(u, v));
    let mapped = MmapIndex::open(&v4c_path).expect("v4-compressed fixture maps");
    assert!(mapped.is_compressed());
    assert_answers(&table, "v4-compressed mmap", |u, v| {
        mapped.view().query(u, v)
    });
    assert_eq!(
        v4c.to_bytes_with(&SaveOptions::compressed()),
        v4c_bytes,
        "re-serializing the loaded v4-compressed fixture must be byte-identical"
    );

    // The whole-index fixtures are one index in two coats.
    assert_eq!(v4, v4c);

    // Sanity on the corpus itself: the headers disagree only where the
    // format does.
    let v4c_header = persist::parse_header(&v4c_bytes).unwrap();
    assert!(!v4_header.is_compressed());
    assert!(v4c_header.is_compressed());
    assert_eq!(v4_header.num_entries, v4c_header.num_entries);
    assert!(
        v4c_bytes.len() < v4_bytes.len(),
        "compressed fixture must be smaller ({} vs {} bytes)",
        v4c_bytes.len(),
        v4_bytes.len()
    );
}

#[test]
fn path_fixtures_answer_the_pinned_walk_table() {
    let dir = fixtures_dir();
    if std::env::var_os("CHL_REGEN_FIXTURES").is_some() {
        regen(&dir);
    }
    let table = pinned_table(&dir);
    let walks = pinned_paths(&dir);
    assert_eq!(walks.len(), 16 * 16, "one pinned walk per pair");

    // Byte stability first: loading and re-serializing each paths fixture
    // must reproduce its bytes, in both entry encodings.
    let flat_path = dir.join("golden.v4-paths.chl");
    let flat_bytes = std::fs::read(&flat_path).unwrap();
    let header = persist::parse_header(&flat_bytes).unwrap();
    assert_eq!(header.version, persist::VERSION);
    assert!(header.is_paths(), "paths fixture carries the flag");
    let flat = FlatIndex::from_bytes(&flat_bytes).expect("paths fixture loads");
    assert!(flat.has_path_data());
    assert_eq!(
        flat.to_bytes(),
        flat_bytes,
        "re-serializing the paths fixture must be byte-identical"
    );
    let comp_path = dir.join("golden.v4-paths-compressed.chl");
    let comp_bytes = std::fs::read(&comp_path).unwrap();
    let comp = FlatIndex::from_bytes(&comp_bytes).expect("compressed paths fixture loads");
    assert!(comp.has_path_data());
    assert_eq!(
        comp.to_bytes_with(&SaveOptions::compressed()),
        comp_bytes,
        "re-serializing the compressed paths fixture must be byte-identical"
    );
    assert_eq!(flat, comp, "one index in two coats");
    assert_eq!(
        golden_with_paths().to_bytes(),
        flat_bytes,
        "deriving the parents again reproduces the paths fixture"
    );

    // Every loader answers the pinned walks exactly: copy-load, borrowed
    // views over both encodings, and both mmap shapes. The distance table
    // stays pinned too — the path section must not perturb queries — and
    // the pivoted matrix over all vertices ties the batch kernel to the
    // same pin.
    let flat_aligned = AlignedBytes::from_slice(&flat_bytes);
    let flat_view = persist::open_view(&flat_aligned).expect("paths fixture views");
    let comp_aligned = AlignedBytes::from_slice(&comp_bytes);
    let comp_view = persist::open_view(&comp_aligned).expect("compressed paths fixture views");
    let mapped_flat = MmapIndex::open(&flat_path).expect("paths fixture maps");
    let mapped_comp = MmapIndex::open(&comp_path).expect("compressed paths fixture maps");

    assert_answers(&table, "paths fixture queries", |u, v| flat.query(u, v));
    let n = flat.num_vertices() as u32;
    let all: Vec<u32> = (0..n).collect();
    let pinned_block: Vec<u64> = table.iter().flatten().copied().collect();
    use chl_core::oracle::DistanceOracle;
    for threads in [1, 2, 8] {
        rayon::with_threads(threads, || {
            assert_eq!(flat.matrix(&all, &all), pinned_block, "pivoted matrix pin");
            assert_eq!(
                mapped_comp.matrix(&all, &all),
                pinned_block,
                "mmap pivoted matrix pin"
            );
        });
    }

    for &((u, v), ref expect) in &walks {
        assert_eq!(&flat.path(u, v).unwrap(), expect, "copy-load ({u}, {v})");
        assert_eq!(&flat_view.path(u, v).unwrap(), expect, "view ({u}, {v})");
        assert_eq!(
            &comp_view.path(u, v).unwrap(),
            expect,
            "compressed view ({u}, {v})"
        );
        assert_eq!(&mapped_flat.path(u, v).unwrap(), expect, "mmap ({u}, {v})");
        assert_eq!(
            &mapped_comp.path(u, v).unwrap(),
            expect,
            "compressed mmap ({u}, {v})"
        );
    }

    // The path-less corpus answers the typed error, not a guess.
    let plain =
        FlatIndex::from_bytes(&std::fs::read(dir.join("golden.v4-flat.chl")).unwrap()).unwrap();
    assert!(!plain.has_path_data());
    assert_eq!(plain.path(0, 5), Err(PathError::NoPathData));
}

#[test]
fn shard_fixtures_union_to_the_unsharded_index() {
    let dir = fixtures_dir();
    if std::env::var_os("CHL_REGEN_FIXTURES").is_some() {
        regen(&dir);
    }
    let table = pinned_table(&dir);
    let full = FlatIndex::from_bytes(&std::fs::read(dir.join("golden.v4-flat.chl")).unwrap())
        .expect("v4-flat fixture loads");
    let specs = shard_specs();

    let mut shards = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let path = shard_path(&dir, i);
        let bytes = std::fs::read(&path).unwrap();
        let header = persist::parse_header(&bytes).unwrap();
        assert_eq!(header.version, persist::VERSION);
        assert!(header.is_sharded(), "shard fixture {i} carries the flag");

        // Copy-load: the shard identity round-trips and matches the pin.
        let shard = FlatIndex::from_bytes(&bytes).expect("shard fixture loads");
        assert_eq!(shard.shard(), Some(spec), "shard {i} spec");
        assert_eq!(shard.num_vertices(), full.num_vertices(), "global n");
        assert_eq!(
            shard.to_bytes(),
            bytes,
            "re-serializing shard fixture {i} must be byte-identical"
        );

        // Owned labels are verbatim slices of the full index; foreign
        // vertices hold nothing. This is the union-of-shards invariant.
        for v in 0..full.num_vertices() as u32 {
            if spec.owns(v) {
                assert_eq!(
                    shard.labels_of(v),
                    full.labels_of(v),
                    "shard {i} vertex {v}"
                );
            } else {
                assert!(shard.labels_of(v).is_empty(), "shard {i} vertex {v}");
            }
        }

        // Zero-copy paths: mmap and the borrowed view serve the shard with
        // typed foreign answers.
        let mapped = MmapIndex::open(&path).expect("shard fixture maps");
        assert!(mapped.is_sharded());
        assert_eq!(mapped.shard(), Some(spec));
        let aligned = AlignedBytes::from_slice(&bytes);
        let view = persist::open_view(&aligned).expect("shard fixture views");
        for u in 0..full.num_vertices() as u32 {
            for v in 0..full.num_vertices() as u32 {
                let expect = if spec.owns(u) && spec.owns(v) {
                    Ok(table[u as usize][v as usize])
                } else {
                    Err(NotThisShard {
                        vertex: if spec.owns(u) { v } else { u },
                    })
                };
                assert_eq!(view.try_query(u, v), expect, "shard {i} view ({u}, {v})");
                assert_eq!(
                    mapped.view().try_query(u, v),
                    expect,
                    "shard {i} mmap ({u}, {v})"
                );
            }
        }
        // Out-of-range endpoints are data on a shard too, exactly as on the
        // whole index.
        let n = full.num_vertices() as u32;
        assert_eq!(view.try_query(n, n), Ok(INFINITY));

        shards.push(shard);
    }

    // Placement proof over the pinned layout: every pair (u, v) — in range
    // or not — has a shard owning both endpoints, and that shard answers
    // the pinned table exactly. The union of the shards IS the index.
    let n = full.num_vertices() as u32;
    for u in 0..n {
        assert!(
            specs.iter().any(|s| s.owns(u)),
            "vertex {u} owned by no shard"
        );
        for v in 0..n {
            let (i, _) = specs
                .iter()
                .enumerate()
                .find(|(_, s)| s.owns(u) && s.owns(v))
                .expect("every partition pair is covered by some shard");
            assert_eq!(
                shards[i].as_index_view().try_query(u, v),
                Ok(table[u as usize][v as usize]),
                "shard {i} ({u}, {v})"
            );
        }
    }
}
