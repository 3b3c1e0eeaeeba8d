//! Property-based tests: the three query modes always agree with each other,
//! with the assembled index and with Dijkstra, for arbitrary graphs and
//! cluster sizes, and their memory profiles keep the §6 ordering.

use proptest::prelude::*;

use chl_cluster::{ClusterSpec, SimulatedCluster};
use chl_distributed::{distributed_plant, DistributedConfig};
use chl_graph::sssp::dijkstra;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_query::{QdolEngine, QfdlEngine, QlsnEngine, QueryEngine};
use chl_ranking::degree_ranking;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        4usize..30,
        proptest::collection::vec((0u32..30, 0u32..30, 1u32..20), 3..120),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_modes_agree_with_dijkstra(g in arb_graph(), q in 1usize..10) {
        let ranking = degree_ranking(&g);
        let spec = ClusterSpec::with_nodes(q);
        let labeling =
            distributed_plant(&g, &ranking, &SimulatedCluster::new(spec), &DistributedConfig::default());

        let qlsn = QlsnEngine::new(&labeling, spec).unwrap();
        let qfdl = QfdlEngine::new(&labeling, spec);
        let qdol = QdolEngine::new(&labeling, spec).unwrap();

        let n = g.num_vertices() as u32;
        for u in (0..n).step_by(3) {
            let reference = dijkstra(&g, u);
            for v in 0..n {
                let expected = reference[v as usize];
                prop_assert_eq!(qlsn.query(u, v), expected);
                prop_assert_eq!(qfdl.query(u, v), expected);
                prop_assert_eq!(qdol.query(u, v), expected);
            }
        }
    }

    #[test]
    fn memory_ordering_follows_section_6(g in arb_graph(), q in 2usize..12) {
        let ranking = degree_ranking(&g);
        let spec = ClusterSpec::with_nodes(q);
        let labeling =
            distributed_plant(&g, &ranking, &SimulatedCluster::new(spec), &DistributedConfig::default());

        let qlsn = QlsnEngine::new(&labeling, spec).unwrap();
        let qfdl = QfdlEngine::new(&labeling, spec);
        let qdol = QdolEngine::new(&labeling, spec).unwrap();

        let total_qlsn: usize = qlsn.memory_per_node().iter().sum();
        let total_qfdl: usize = qfdl.memory_per_node().iter().sum();
        let total_qdol: usize = qdol.memory_per_node().iter().sum();
        // QLSN replicates everything, QFDL partitions everything, QDOL sits
        // in between (each label stored on a few nodes).
        prop_assert!(total_qfdl <= total_qdol);
        prop_assert!(total_qdol <= total_qlsn);
    }
}
