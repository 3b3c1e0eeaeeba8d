//! Differential property tests for the tiered merge-join kernels: every
//! tier (branchless, gallop, adaptive) must return exactly what the
//! streaming reference join returns on adversarial run shapes — empty and
//! singleton runs, disjoint hub sets, `u32::MAX + u32::MAX` sums, tie
//! distances, 1:1000 length skew — and every storage backend (flat,
//! borrowed view, compressed view, mmap flat/compressed, sharded) must
//! answer exactly like the owned index.

use proptest::prelude::*;

use chl_core::kernel;
use chl_core::labels::{join_sorted_iters, FlatEntry};
use chl_core::mapped::MmapIndex;
use chl_core::persist::{self, AlignedBytes, SaveOptions, ShardSpec};
use chl_core::pll::sequential_pll;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::degree_ranking;

/// One generated item of a run pair: a hub gap (strict ascent), the two
/// sides' distances for that hub, and which side(s) get the entry.
type RunItem = (u32, u32, u32, u8);

/// Maps a distance selector to an adversarial stored distance: small values
/// for ties and realistic sums, `u32::MAX` and near it so the widest sums
/// (up to `2 * u32::MAX`, exact in `u64`) are exercised.
fn pick_dist(selector: u32, small: u32) -> u32 {
    match selector % 8 {
        0 => u32::MAX,
        1 => u32::MAX - 1,
        2 => u32::MAX / 2 + small % 1024,
        // Duplicated small values make equal sums common, so the
        // first-hub-wins tie-break is actually load-bearing.
        _ => small % 4,
    }
}

/// Builds the two hub-sorted runs from generated items. Side selector:
/// 0 => left only, 1 => right only, 2.. => both (shared hub, distinct
/// distances) — so common and disjoint hub ranges both occur, including
/// fully disjoint and fully shared runs.
fn build_runs(items: &[RunItem]) -> (Vec<FlatEntry>, Vec<FlatEntry>) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut hub = 0u32;
    for &(gap, da, db, side) in items {
        hub += gap.max(1);
        if side % 4 != 1 {
            a.push(FlatEntry {
                hub,
                dist: pick_dist(da, da),
            });
        }
        if side % 4 != 0 {
            b.push(FlatEntry {
                hub,
                dist: pick_dist(db, db),
            });
        }
    }
    (a, b)
}

/// Asserts every kernel tier against the streaming reference on one pair.
fn assert_tiers_match(a: &[FlatEntry], b: &[FlatEntry]) -> Result<(), TestCaseError> {
    let expect = join_sorted_iters(a.iter().copied(), b.iter().copied());
    prop_assert_eq!(kernel::join_branchless(a, b), expect, "branchless");
    prop_assert_eq!(kernel::join_gallop(a, b), expect, "gallop");
    prop_assert_eq!(kernel::join_adaptive(a, b), expect, "adaptive");
    // Symmetry: every tier must give the same hub and distance with the
    // sides swapped (gallop swaps internally; the rest merge symmetrically).
    prop_assert_eq!(kernel::join_gallop(b, a), expect, "gallop swapped");
    prop_assert_eq!(kernel::join_adaptive(b, a), expect, "adaptive swapped");
    Ok(())
}

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

fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chl-proptest-kernels-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_tiers_match_reference_on_adversarial_runs(
        items in proptest::collection::vec((1u32..50, any::<u32>(), any::<u32>(), 0u8..4), 0..64),
    ) {
        let (a, b) = build_runs(&items);
        assert_tiers_match(&a, &b)?;
        // Boundary shapes the generator reaches rarely: one side empty,
        // both empty, singletons against the full run.
        assert_tiers_match(&a, &[])?;
        assert_tiers_match(&[], &b)?;
        assert_tiers_match(&[], &[])?;
        assert_tiers_match(&a, a.first().map(std::slice::from_ref).unwrap_or(&[]))?;
    }

    #[test]
    fn kernel_tiers_match_reference_on_skewed_runs(
        // ~1:1000 length skew: a long run against a handful of probes —
        // the shape that routes join_adaptive to the galloping tier.
        long_items in proptest::collection::vec((1u32..4, any::<u32>(), any::<u32>(), 0u8..1), 500..1000),
        probes in proptest::collection::vec((0u32..4000, any::<u32>()), 0..3),
    ) {
        let (long, _) = build_runs(&long_items);
        let mut short: Vec<FlatEntry> = Vec::new();
        for (hub, d) in probes {
            // Keep the short run strictly ascending by construction.
            let hub = short.last().map_or(hub % 97, |e| e.hub + 1 + hub % 97);
            short.push(FlatEntry { hub, dist: pick_dist(d, d) });
        }
        assert_tiers_match(&long, &short)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_backends_answer_identically(g in arb_graph()) {
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;

        let flat_bytes = AlignedBytes::from_slice(&flat.to_bytes());
        let flat_view = persist::open_view(&flat_bytes).expect("flat bytes view");
        let comp_bytes = AlignedBytes::from_slice(&flat.to_bytes_with(&SaveOptions::compressed()));
        let comp_view = persist::open_view(&comp_bytes).expect("compressed bytes view");
        let flat_path = scratch_file("flat", &flat_bytes);
        let comp_path = scratch_file("comp", &comp_bytes);
        let mmap_flat = MmapIndex::open(&flat_path).expect("flat file maps");
        let mmap_comp = MmapIndex::open(&comp_path).expect("compressed file maps");

        let n = g.num_vertices() as u32;
        // Out-of-range ids included: every backend answers INFINITY there.
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let expect = flat.query(u, v);
                prop_assert_eq!(flat_view.query(u, v), expect, "view ({}, {})", u, v);
                prop_assert_eq!(comp_view.query(u, v), expect, "comp view ({}, {})", u, v);
                prop_assert_eq!(mmap_flat.view().query(u, v), expect, "mmap flat ({}, {})", u, v);
                prop_assert_eq!(mmap_comp.view().query(u, v), expect, "mmap comp ({}, {})", u, v);
            }
        }
        std::fs::remove_file(&flat_path).ok();
        std::fs::remove_file(&comp_path).ok();
    }

    #[test]
    fn sharded_backends_answer_identically(g in arb_graph(), stride in 2u32..4) {
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;
        let n = g.num_vertices() as u32;

        // A shard owning every `stride`-th vertex: the owned and mmap
        // backends must agree on the shard's own (partial) labeling —
        // foreign vertices answer through their empty runs — and pairs the
        // shard owns must answer like the full index.
        let spec = ShardSpec {
            shard_id: 0,
            shard_count: 3,
            zeta: 2,
            owned: (0..n).step_by(stride as usize).collect(),
        };
        let shard = flat.restrict_to_shard(spec).expect("valid shard spec");
        let shard_path = scratch_file("shard", &shard.to_bytes());
        let mapped = MmapIndex::open(&shard_path).expect("shard file maps");
        prop_assert!(mapped.view().is_sharded());

        let owned = |id: u32| id < n && id.is_multiple_of(stride);
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                let expect = shard.query(u, v);
                prop_assert_eq!(mapped.view().query(u, v), expect, "sharded mmap ({}, {})", u, v);
                if owned(u) && owned(v) {
                    prop_assert_eq!(expect, flat.query(u, v), "owned pair ({}, {})", u, v);
                }
            }
        }
        std::fs::remove_file(&shard_path).ok();
    }
}
