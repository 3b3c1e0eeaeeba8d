//! Property-based correctness tests: every constructor must produce the
//! Canonical Hub Labeling on arbitrary weighted graphs and arbitrary
//! rankings, and every labeling must answer queries exactly.

use proptest::prelude::*;

use chl_core::canonical::{brute_force_chl, is_canonical, satisfies_cover_property};
use chl_core::gll::gll;
use chl_core::hybrid::shared_hybrid;
use chl_core::lcc::lcc;
use chl_core::para_pll::spara_pll;
use chl_core::plant::plant_labeling;
use chl_core::pll::{pll_with_restricted_pruning, sequential_pll};
use chl_core::LabelingConfig;
use chl_graph::sssp::dijkstra;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::Ranking;

/// Strategy: a small weighted undirected graph plus a random total order.
fn arb_graph_and_ranking() -> impl Strategy<Value = (CsrGraph, Ranking)> {
    (
        3usize..28,
        proptest::collection::vec((0u32..28, 0u32..28, 1u32..20), 2..120),
        any::<u64>(),
    )
        .prop_map(|(n, edges, seed)| {
            let mut b = GraphBuilder::new_undirected();
            b.ensure_vertices(n);
            for (u, v, w) in edges {
                b.add_edge(u % n as u32, v % n as u32, w);
            }
            let g = b.build().expect("positive weights");
            // Random permutation derived from the seed.
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            let ranking = Ranking::from_order(order, n).expect("permutation");
            (g, ranking)
        })
}

fn config(threads: usize) -> LabelingConfig {
    LabelingConfig::default().with_threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sequential PLL equals the brute-force canonical labeling.
    #[test]
    fn pll_is_canonical((g, ranking) in arb_graph_and_ranking()) {
        let reference = brute_force_chl(&g, &ranking);
        let built = sequential_pll(&g, &ranking).index;
        prop_assert_eq!(&built, &reference);
        prop_assert!(is_canonical(&g, &ranking, &built));
    }

    /// LCC (parallel construction + cleaning) equals the CHL.
    #[test]
    fn lcc_is_canonical((g, ranking) in arb_graph_and_ranking()) {
        let reference = brute_force_chl(&g, &ranking);
        let built = lcc(&g, &ranking, &config(4)).index;
        prop_assert_eq!(built, reference);
    }

    /// GLL with a small synchronization threshold equals the CHL.
    #[test]
    fn gll_is_canonical((g, ranking) in arb_graph_and_ranking()) {
        let reference = brute_force_chl(&g, &ranking);
        let built = gll(&g, &ranking, &config(3).with_alpha(1.0)).index;
        prop_assert_eq!(built, reference);
    }

    /// PLaNT (no pruning queries at all) equals the CHL.
    #[test]
    fn plant_is_canonical((g, ranking) in arb_graph_and_ranking()) {
        let reference = brute_force_chl(&g, &ranking);
        let built = plant_labeling(&g, &ranking, &config(4)).index;
        prop_assert_eq!(built, reference);
    }

    /// The shared-memory Hybrid equals the CHL for an aggressive switch point.
    #[test]
    fn hybrid_is_canonical((g, ranking) in arb_graph_and_ranking()) {
        let reference = brute_force_chl(&g, &ranking);
        let mut cfg = config(3).with_psi_threshold(0.05);
        cfg.psi_window = 4;
        let built = shared_hybrid(&g, &ranking, &cfg).index;
        prop_assert_eq!(built, reference);
    }

    /// paraPLL is not canonical in general but must still answer every query
    /// exactly (cover property). No per-run label-count bound is asserted
    /// here: a less important root's finished tree can prune a more
    /// important root's tree, so the count can land *below* the CHL size
    /// (`para_pll`'s `label_count_can_fall_below_canonical_out_of_rank_order`
    /// pins how).
    #[test]
    fn para_pll_covers((g, ranking) in arb_graph_and_ranking()) {
        let built = spara_pll(&g, &ranking, &config(4)).index;
        prop_assert!(satisfies_cover_property(&g, &built));
        // Interleaving-independent size bounds: every vertex keeps its self
        // label, and nothing can exceed the all-pairs worst case.
        let n = g.num_vertices();
        prop_assert!(built.total_labels() >= n);
        prop_assert!(built.total_labels() <= n * n);
    }

    /// Restricting pruning to the top-x hubs (Figure 4's sweep) never breaks
    /// query exactness and label counts decrease monotonically in x.
    #[test]
    fn restricted_pruning_is_monotone_and_exact((g, ranking) in arb_graph_and_ranking()) {
        let n = g.num_vertices() as u32;
        let counts: Vec<usize> = [0u32, 1, 4, n]
            .iter()
            .map(|&x| {
                let r = pll_with_restricted_pruning(&g, &ranking, x);
                prop_assert!(satisfies_cover_property(&g, &r.index));
                Ok(r.index.total_labels())
            })
            .collect::<Result<_, TestCaseError>>()?;
        for w in counts.windows(2) {
            prop_assert!(w[0] >= w[1], "label count must not increase with more pruning hubs: {counts:?}");
        }
    }

    /// Hub-label queries equal Dijkstra for every pair (spot-checked from a
    /// few sources to keep runtime bounded).
    #[test]
    fn queries_equal_dijkstra((g, ranking) in arb_graph_and_ranking()) {
        let index = gll(&g, &ranking, &config(2)).index;
        let n = g.num_vertices() as u32;
        for src in [0, n / 2, n - 1] {
            let d = dijkstra(&g, src);
            for v in 0..n {
                prop_assert_eq!(index.query(src, v), d[v as usize]);
            }
        }
    }
}
