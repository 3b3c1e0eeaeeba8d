//! DparaPLL — the distributed paraPLL baseline (Qiu et al., described in §3
//! and §7.1 of the paper).
//!
//! Characteristics faithfully reproduced here:
//!
//! * roots are split across nodes rank-circularly and processed with pruned
//!   Dijkstra **without rank queries**;
//! * execution is split into a fixed number of equally sized supersteps
//!   (the paper's implementation synchronizes `log_8 n` times); at each
//!   synchronization every node broadcasts all labels it generated so the
//!   other nodes can prune with them;
//! * **every node stores the complete labeling** — the effective cluster
//!   memory is that of a single node, which is why DparaPLL runs out of
//!   memory at scale;
//! * no rank queries and no cleaning, so the label size grows with the node
//!   count (Figure 9) and the labeling is not canonical.

use std::time::Instant;

use chl_cluster::{RunMetrics, SimulatedCluster, SuperstepMetrics, TaskPartition};
use chl_core::labels::{LabelEntry, LabelSet};
use chl_core::plant::CommonLabelTable;
use chl_core::pruned_dijkstra::DijkstraScratch;
use chl_core::table::ConcurrentLabelTable;
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::DistributedConfig;
use crate::dgll::finalize_metrics;
use crate::node::{commit_entries, construct_positions, run_nodes, wire_bytes, NodeView};
use crate::result::DistributedLabeling;

/// Runs DparaPLL on the simulated cluster.
pub fn distributed_parapll(
    g: &CsrGraph,
    ranking: &Ranking,
    cluster: &SimulatedCluster,
    config: &DistributedConfig,
) -> DistributedLabeling {
    let start = Instant::now();
    let n = g.num_vertices();
    let q = cluster.nodes();
    let partition = TaskPartition::new(q, n);
    let supersteps = config.dparapll_superstep_count(n);

    // Per-node replicated full table (every node keeps everything) and the
    // node's own contribution (used as its partition in the result).
    let mut full_tables: Vec<Vec<LabelSet>> = vec![vec![LabelSet::new(); n]; q];
    let mut own_partitions: Vec<Vec<LabelSet>> = vec![vec![LabelSet::new(); n]; q];

    let mut metrics = RunMetrics::new("DparaPLL", q);

    // Equal-size superstep ranges over rank positions.
    let step = n.div_ceil(supersteps.max(1)).max(1);
    let mut from = 0usize;
    while from < n {
        let to = (from + step).min(n);
        let positions: Vec<Vec<u32>> = (0..q)
            .map(|node| partition.positions_of_in_range(node, from as u32, to as u32))
            .collect();

        let outputs = run_nodes(cluster, config.execution, |node| {
            let positions = &positions[node.node_id];
            let local = ConcurrentLabelTable::new(n);
            let view = NodeView {
                own: &full_tables[node.node_id],
                replicated: &[],
                common: None,
                local: &local,
            };
            let mut scratch = DijkstraScratch::new(n);
            // paraPLL: no rank queries.
            let records = construct_positions(g, ranking, positions, &view, false, &mut scratch);
            (records, local.drain_all())
        });

        // Synchronization: every node broadcasts the labels it generated.
        let mut superstep = SuperstepMetrics::default();
        let mut per_node_new: Vec<Vec<Vec<LabelEntry>>> = Vec::with_capacity(q);
        for ((records, entries), busy) in outputs {
            let generated: usize = records.iter().map(|r| r.labels_generated).sum();
            superstep.labels_generated += generated;
            superstep.per_node_compute.push(busy);
            cluster.comm().record_broadcast(wire_bytes(generated));
            per_node_new.push(entries);
        }
        superstep.comm = cluster.comm().take();

        // Apply the exchange: every node's new labels land in every full
        // table; the generating node also keeps them as its own partition.
        for (node, entries) in per_node_new.into_iter().enumerate() {
            commit_entries(&mut own_partitions[node], entries.clone());
            for table in full_tables.iter_mut() {
                commit_entries(table, entries.clone());
            }
        }

        metrics.supersteps.push(superstep);
        from = to;
    }

    // DparaPLL replicates storage: the result's partitions are the full
    // tables so per-node memory accounting reflects the replication. No
    // common table exists.
    let no_common = CommonLabelTable::default();
    finalize_metrics(&mut metrics, cluster, &full_tables, &no_common, start);
    DistributedLabeling::new(full_tables, ranking.clone(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_cluster::ClusterSpec;
    use chl_core::canonical::satisfies_cover_property;
    use chl_core::pll::sequential_pll;
    use chl_graph::generators::{barabasi_albert, erdos_renyi};
    use chl_ranking::degree_ranking;

    fn cluster(q: usize) -> SimulatedCluster {
        SimulatedCluster::new(ClusterSpec::with_nodes(q))
    }

    #[test]
    fn queries_are_exact() {
        let g = erdos_renyi(60, 0.08, 12, 5);
        let ranking = degree_ranking(&g);
        let d = distributed_parapll(&g, &ranking, &cluster(4), &DistributedConfig::default());
        assert!(satisfies_cover_property(&g, &d.assemble().unwrap()));
    }

    #[test]
    fn label_size_grows_with_node_count() {
        let g = barabasi_albert(150, 3, 7);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index.average_label_size();
        let als1 = distributed_parapll(&g, &ranking, &cluster(1), &DistributedConfig::default())
            .average_label_size();
        let als8 = distributed_parapll(&g, &ranking, &cluster(8), &DistributedConfig::default())
            .average_label_size();
        assert!(als1 >= canonical - 1e-9);
        assert!(
            als8 >= als1,
            "ALS must not shrink with more nodes (als1={als1}, als8={als8})"
        );
    }

    #[test]
    fn every_node_stores_the_full_labeling() {
        let g = erdos_renyi(50, 0.1, 8, 3);
        let ranking = degree_ranking(&g);
        let d = distributed_parapll(&g, &ranking, &cluster(4), &DistributedConfig::default());
        let per_node = d.labels_per_node();
        let assembled = d.assemble().unwrap().total_labels();
        for &count in &per_node {
            assert_eq!(
                count, assembled,
                "replicated storage: every node holds everything"
            );
        }
    }

    #[test]
    fn broadcasts_happen_every_superstep() {
        let g = erdos_renyi(60, 0.08, 8, 9);
        let ranking = degree_ranking(&g);
        let d = distributed_parapll(&g, &ranking, &cluster(4), &DistributedConfig::default());
        let comm = d.metrics.total_comm();
        assert!(comm.broadcast_bytes > 0);
        assert!(comm.broadcasts >= d.metrics.supersteps.len() as u64);
        assert!(d.metrics.labels_generated() > 0);
    }

    #[test]
    fn single_node_matches_sequential_pll() {
        let g = erdos_renyi(40, 0.12, 6, 13);
        let ranking = degree_ranking(&g);
        let d = distributed_parapll(&g, &ranking, &cluster(1), &DistributedConfig::default());
        assert_eq!(d.assemble().unwrap(), sequential_pll(&g, &ranking).index);
    }
}
