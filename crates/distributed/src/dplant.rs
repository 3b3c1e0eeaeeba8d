//! Distributed PLaNT (§5.2): the embarrassingly parallel constructor.
//!
//! Every node PLaNTs the SPTs of its rank-circular share of roots. No label
//! is ever sent to another node during construction — the defining property
//! that gives PLaNT its near-linear strong scaling — and the emitted labels
//! are canonical by construction, so no cleaning pass exists either. Labels
//! remain partitioned across the cluster.

use std::time::Instant;

use chl_cluster::{RunMetrics, SimulatedCluster, SuperstepMetrics, TaskPartition};
use chl_core::labels::LabelSet;
use chl_core::plant::CommonLabelTable;
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::DistributedConfig;
use crate::dgll::finalize_metrics;
use crate::node::{plant_positions, run_nodes};
use crate::result::DistributedLabeling;

/// Runs distributed PLaNT on the simulated cluster.
pub fn distributed_plant(
    g: &CsrGraph,
    ranking: &Ranking,
    cluster: &SimulatedCluster,
    config: &DistributedConfig,
) -> DistributedLabeling {
    let start = Instant::now();
    let n = g.num_vertices();
    let q = cluster.nodes();
    let partition = TaskPartition::new(q, n);
    // PLaNT prunes with no common labels.
    let common = CommonLabelTable::empty(n);

    let positions: Vec<Vec<u32>> = (0..q)
        .map(|node| partition.positions_of(node).collect())
        .collect();

    let outputs = run_nodes(cluster, config.execution, |node| {
        plant_positions(
            g,
            ranking,
            &positions[node.node_id],
            config.early_termination,
            &common,
        )
    });

    let mut metrics = RunMetrics::new("PLaNT", q);
    let mut superstep = SuperstepMetrics::default();
    let mut own_partitions: Vec<Vec<LabelSet>> = Vec::with_capacity(q);
    for ((labels, _explored, generated), busy) in outputs {
        superstep.per_node_compute.push(busy);
        superstep.labels_generated += generated;
        own_partitions.push(labels.into_iter().map(LabelSet::from_entries).collect());
    }
    // No communication at all: take() documents that nothing was recorded.
    superstep.comm = cluster.comm().take();
    metrics.supersteps.push(superstep);

    finalize_metrics(&mut metrics, cluster, &own_partitions, &common, start);
    DistributedLabeling::new(own_partitions, ranking.clone(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_cluster::ClusterSpec;
    use chl_core::canonical::is_canonical;
    use chl_core::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi, grid_network, GridOptions};
    use chl_ranking::degree_ranking;

    fn cluster(q: usize) -> SimulatedCluster {
        SimulatedCluster::new(ClusterSpec::with_nodes(q))
    }

    #[test]
    fn plant_produces_the_canonical_labeling() {
        let g = erdos_renyi(70, 0.08, 10, 41);
        let ranking = degree_ranking(&g);
        let d = distributed_plant(&g, &ranking, &cluster(4), &DistributedConfig::default());
        assert_eq!(d.assemble().unwrap(), sequential_pll(&g, &ranking).index);
    }

    #[test]
    fn plant_is_canonical_on_road_like_graph() {
        let g = grid_network(
            &GridOptions {
                rows: 9,
                cols: 9,
                ..GridOptions::default()
            },
            8,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 16,
                degree_tiebreak: true,
            },
            2,
        );
        let d = distributed_plant(&g, &ranking, &cluster(8), &DistributedConfig::default());
        assert!(is_canonical(&g, &ranking, &d.assemble().unwrap()));
    }

    #[test]
    fn no_communication_happens() {
        let g = barabasi_albert(120, 3, 3);
        let ranking = degree_ranking(&g);
        let d = distributed_plant(&g, &ranking, &cluster(8), &DistributedConfig::default());
        let comm = d.metrics.total_comm();
        assert_eq!(comm.total_bytes(), 0);
        assert_eq!(comm.total_operations(), 0);
    }

    #[test]
    fn labels_are_partitioned_by_owner() {
        let g = erdos_renyi(60, 0.1, 8, 11);
        let ranking = degree_ranking(&g);
        let q = 5;
        let d = distributed_plant(&g, &ranking, &cluster(q), &DistributedConfig::default());
        let partition = TaskPartition::new(q, g.num_vertices());
        for node in 0..q {
            for v in 0..g.num_vertices() as u32 {
                for e in d.labels_on_node(node, v).entries() {
                    assert_eq!(partition.owner_of(e.hub), node);
                }
            }
        }
        assert_eq!(
            d.labels_per_node().iter().sum::<usize>(),
            d.assemble().unwrap().total_labels()
        );
    }

    #[test]
    fn compute_work_splits_across_nodes() {
        // The labeling is identical for every q, but the per-node share of
        // labels shrinks as q grows.
        let g = barabasi_albert(150, 3, 17);
        let ranking = degree_ranking(&g);
        let d1 = distributed_plant(&g, &ranking, &cluster(1), &DistributedConfig::default());
        let d8 = distributed_plant(&g, &ranking, &cluster(8), &DistributedConfig::default());
        assert_eq!(d1.assemble().unwrap(), d8.assemble().unwrap());
        let max_share_8 = *d8.labels_per_node().iter().max().unwrap();
        let total = d1.assemble().unwrap().total_labels();
        assert!(max_share_8 < total, "labels must spread across the 8 nodes");
    }
}
