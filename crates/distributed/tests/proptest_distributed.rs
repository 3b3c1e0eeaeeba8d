//! Property-based tests: the distributed constructors must produce the
//! Canonical Hub Labeling for arbitrary graphs, rankings and cluster sizes,
//! and the label partitions must respect rank-circular ownership.

use proptest::prelude::*;

use chl_cluster::{ClusterSpec, SimulatedCluster, TaskPartition};
use chl_core::canonical::{brute_force_chl, satisfies_cover_property};
use chl_distributed::{
    distributed_gll, distributed_hybrid, distributed_parapll, distributed_plant, DistributedConfig,
};
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::Ranking;

fn arb_graph_and_ranking() -> impl Strategy<Value = (CsrGraph, Ranking)> {
    (
        4usize..24,
        proptest::collection::vec((0u32..24, 0u32..24, 1u32..16), 3..90),
        any::<u64>(),
    )
        .prop_map(|(n, edges, seed)| {
            let mut b = GraphBuilder::new_undirected();
            b.ensure_vertices(n);
            for (u, v, w) in edges {
                b.add_edge(u % n as u32, v % n as u32, w);
            }
            let g = b.build().expect("positive weights");
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut state = seed | 1;
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            (g, Ranking::from_order(order, n).expect("permutation"))
        })
}

fn cluster(q: usize) -> SimulatedCluster {
    SimulatedCluster::new(ClusterSpec::with_nodes(q))
}

fn config() -> DistributedConfig {
    DistributedConfig {
        initial_superstep: 4,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DGLL equals the brute-force CHL for any cluster size.
    #[test]
    fn dgll_is_canonical((g, ranking) in arb_graph_and_ranking(), q in 1usize..6) {
        let reference = brute_force_chl(&g, &ranking).unwrap();
        let d = distributed_gll(&g, &ranking, &cluster(q), &config());
        prop_assert_eq!(d.assemble().unwrap(), reference);
    }

    /// Distributed PLaNT equals the CHL and never communicates.
    #[test]
    fn plant_is_canonical_and_silent((g, ranking) in arb_graph_and_ranking(), q in 1usize..6) {
        let reference = brute_force_chl(&g, &ranking).unwrap();
        let d = distributed_plant(&g, &ranking, &cluster(q), &config());
        prop_assert_eq!(d.assemble().unwrap(), reference);
        prop_assert_eq!(d.metrics.total_comm().total_bytes(), 0);
    }

    /// The distributed Hybrid equals the CHL for aggressive and lazy switch
    /// thresholds alike.
    #[test]
    fn hybrid_is_canonical((g, ranking) in arb_graph_and_ranking(), q in 1usize..6, psi in 1.0f64..200.0) {
        let reference = brute_force_chl(&g, &ranking).unwrap();
        let d = distributed_hybrid(&g, &ranking, &cluster(q), &config().with_psi_threshold(psi));
        prop_assert_eq!(d.assemble().unwrap(), reference);
    }

    /// DparaPLL satisfies the cover property (exact queries) and produces at
    /// least as many labels as the CHL.
    #[test]
    fn dparapll_covers((g, ranking) in arb_graph_and_ranking(), q in 1usize..6) {
        let reference = brute_force_chl(&g, &ranking).unwrap();
        let d = distributed_parapll(&g, &ranking, &cluster(q), &config());
        let assembled = d.assemble().unwrap();
        prop_assert!(satisfies_cover_property(&g, &assembled));
        prop_assert!(assembled.total_labels() >= reference.total_labels());
    }

    /// Partitioned algorithms place every label on the node owning its hub,
    /// and the partitions reassemble without losing or duplicating labels.
    #[test]
    fn partitions_respect_ownership((g, ranking) in arb_graph_and_ranking(), q in 2usize..6) {
        let d = distributed_gll(&g, &ranking, &cluster(q), &config());
        let partition = TaskPartition::new(q, g.num_vertices());
        for node in 0..q {
            for v in 0..g.num_vertices() as u32 {
                for e in d.labels_on_node(node, v).entries() {
                    prop_assert_eq!(partition.owner_of(e.hub), node);
                }
            }
        }
        prop_assert_eq!(d.labels_per_node().iter().sum::<usize>(), d.assemble().unwrap().total_labels());
    }

    /// The QFDL-style distributed query over partitions equals the assembled
    /// index's answer for every pair.
    #[test]
    fn distributed_query_matches_assembled((g, ranking) in arb_graph_and_ranking(), q in 1usize..6) {
        let d = distributed_hybrid(&g, &ranking, &cluster(q), &config());
        let assembled = d.assemble().unwrap();
        let n = g.num_vertices() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(d.query_distributed(u, v), assembled.query(u, v));
            }
        }
    }
}
