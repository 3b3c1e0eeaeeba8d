//! Property-based tests for the parallel batch-query path: for **every**
//! [`DistanceOracle`] implementation in the workspace, `distances` run on a
//! pool of 1, 2 or 8 threads must be element-identical to mapping `distance`
//! sequentially over the same pairs — including self-queries (`u == v`) and
//! out-of-range vertex ids, which must answer `INFINITY`, never panic.

use proptest::prelude::*;

use chl_cluster::{ClusterSpec, SimulatedCluster};
use chl_core::oracle::DistanceOracle;
use chl_core::pll::sequential_pll;
use chl_distributed::{distributed_plant, DistributedConfig};
use chl_graph::types::INFINITY;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_query::{QdolEngine, QfdlEngine, QlsnEngine};
use chl_ranking::degree_ranking;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        4usize..24,
        proptest::collection::vec((0u32..24, 0u32..24, 1u32..20), 3..80),
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_distances_match_sequential_map_for_every_oracle(
        g in arb_graph(),
        // Ids drawn beyond the maximum vertex count (24), so batches mix
        // valid pairs, self-queries and out-of-range ids.
        raw in proptest::collection::vec((0u32..40, 0u32..40), 1..150),
        q in 1usize..6,
    ) {
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;
        let spec = ClusterSpec::with_nodes(q);
        let labeling = distributed_plant(
            &g,
            &ranking,
            &SimulatedCluster::new(spec),
            &DistributedConfig::default(),
        );
        let qlsn = QlsnEngine::new(&labeling, spec).unwrap();
        let qfdl = QfdlEngine::new(&labeling, spec);
        let qdol = QdolEngine::new(&labeling, spec).unwrap();

        let n = g.num_vertices() as u32;
        let mut pairs = raw;
        pairs.push((0, n)); // deliberately out of range
        pairs.push((n, n)); // out-of-range self-query: INFINITY, not 0
        pairs.push((0, 0)); // in-range self-query: 0

        let oracles: [(&str, &dyn DistanceOracle); 5] = [
            ("FlatIndex", &flat),
            ("DistributedLabeling", &labeling),
            ("QLSN", &qlsn),
            ("QFDL", &qfdl),
            ("QDOL", &qdol),
        ];
        for (name, oracle) in oracles {
            let sequential: Vec<_> =
                pairs.iter().map(|&(u, v)| oracle.distance(u, v)).collect();
            // Out-of-range ids are unreachable through every implementation.
            prop_assert_eq!(oracle.distance(n, n), INFINITY, "{}: query({}, {})", name, n, n);
            prop_assert_eq!(oracle.distance(0, n), INFINITY, "{}: query(0, {})", name, n);
            for threads in [1usize, 2, 8] {
                let parallel = rayon::with_threads(threads, || oracle.distances(&pairs));
                prop_assert_eq!(
                    &parallel,
                    &sequential,
                    "{} with {} threads diverged from the sequential map",
                    name,
                    threads
                );
            }
        }
    }
}
