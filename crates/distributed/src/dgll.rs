//! DGLL — Distributed Global Local Labeling (§5.1 of the paper).
//!
//! Each node runs GLL-style pruned construction (rank + distance queries)
//! over its rank-circular share of the roots. Because a node can only prune
//! with the labels it generated itself (plus the small Common Label Table of
//! §5.3), it produces more redundant labels than shared-memory GLL; those are
//! removed by the interleaved cleaning that follows every superstep:
//!
//! 1. every node broadcasts the labels it generated in the superstep,
//! 2. every node evaluates cleaning queries and contributes its verdicts to a
//!    bit-vector all-reduce,
//! 3. surviving labels are committed to the *generating* node's partition —
//!    labels stay distributed at all times, which is how the cluster's
//!    collective memory is harnessed.
//!
//! The cleaning queries run through `chl_core`'s one cleaning kernel,
//! [`clean_superstep`], over every partition plus the superstep's broadcast
//! labels read as one labeling. The superstep's hubs rank below every
//! committed hub, so a survivor is appended to its owner's set.
//!
//! Superstep sizes grow geometrically by `β`, matching the paper's
//! observation that label volume per SPT drops exponentially with rank.

use std::time::Instant;

use chl_cluster::{
    RunMetrics, SimulatedCluster, SuperstepMetrics, SuperstepSchedule, TaskPartition,
};
use chl_core::cleaning::clean_superstep;
use chl_core::labels::{LabelEntry, LabelSet};
use chl_core::plant::CommonLabelTable;
use chl_core::pruned_dijkstra::DijkstraScratch;
use chl_core::table::{ConcurrentLabelTable, LabelRuns};
use chl_graph::types::VertexId;
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::DistributedConfig;
use crate::node::{construct_positions, run_nodes, wire_bytes, NodeView};
use crate::result::DistributedLabeling;

/// Runs DGLL on the simulated cluster.
pub fn distributed_gll(
    g: &CsrGraph,
    ranking: &Ranking,
    cluster: &SimulatedCluster,
    config: &DistributedConfig,
) -> DistributedLabeling {
    let start = Instant::now();
    let n = g.num_vertices();
    let q = cluster.nodes();
    let partition = TaskPartition::new(q, n);
    let schedule = SuperstepSchedule::geometric(n, config.initial_superstep, config.beta);

    let mut own_partitions: Vec<Vec<LabelSet>> = vec![vec![LabelSet::new(); n]; q];
    let mut common = CommonLabelTable::with_eta(n, config.common_hubs);
    let mut metrics = RunMetrics::new("DGLL", q);

    for (from, to) in schedule.ranges() {
        let superstep = dgll_superstep(
            g,
            ranking,
            cluster,
            config,
            &partition,
            (from, to),
            &mut own_partitions,
            &mut common,
        );
        metrics.supersteps.push(superstep);
    }

    finalize_metrics(&mut metrics, cluster, &own_partitions, &common, start);
    DistributedLabeling::new(own_partitions, ranking.clone(), metrics)
}

/// One DGLL superstep over rank positions `[range.0, range.1)`: pruned
/// construction on every node, label broadcast, bit-vector cleaning and
/// commit. Shared with the Hybrid algorithm's post-switch phase.
#[expect(
    clippy::too_many_arguments,
    reason = "one superstep threads the whole run state (graph, ranking, cluster, config, \
              partition, range, label partitions, common table); a struct would only rename it"
)]
pub(crate) fn dgll_superstep(
    g: &CsrGraph,
    ranking: &Ranking,
    cluster: &SimulatedCluster,
    config: &DistributedConfig,
    partition: &TaskPartition,
    range: (u32, u32),
    own_partitions: &mut [Vec<LabelSet>],
    common: &mut CommonLabelTable,
) -> SuperstepMetrics {
    let n = g.num_vertices();
    let q = own_partitions.len();
    let positions: Vec<Vec<u32>> = (0..q)
        .map(|node| partition.positions_of_in_range(node, range.0, range.1))
        .collect();

    // --- Construction phase (per node, rank + distance queries) ---
    let own_ref: &[Vec<LabelSet>] = own_partitions;
    let common_ref: &CommonLabelTable = common;
    let outputs = run_nodes(cluster, config.execution, |node| {
        let local = ConcurrentLabelTable::new(n);
        let view = NodeView {
            own: &own_ref[node.node_id],
            replicated: &[],
            common: Some(common_ref),
            local: &local,
        };
        let mut scratch = DijkstraScratch::new(n);
        let records = construct_positions(
            g,
            ranking,
            &positions[node.node_id],
            &view,
            true,
            &mut scratch,
        );
        (records, local.drain_all())
    });

    let mut superstep = SuperstepMetrics::default();
    // Broadcast labels, per vertex across nodes: each hub is one node's
    // root, so no hub repeats.
    let mut in_flight: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
    for ((records, entries), busy) in outputs {
        let generated: usize = records.iter().map(|r| r.labels_generated).sum();
        superstep.labels_generated += generated;
        superstep.per_node_compute.push(busy);
        // Broadcast of this node's freshly generated labels (redundant +
        // non-redundant — that is exactly the traffic the paper complains
        // about).
        cluster.comm().record_broadcast(wire_bytes(generated));
        for (v, mut raw) in entries.into_iter().enumerate() {
            in_flight[v].append(&mut raw);
        }
    }

    // --- Cleaning phase ---
    // Every node evaluates the cleaning queries over the union of committed
    // labels and the broadcast superstep labels; verdict bit-vectors are
    // combined with an all-reduce.
    cluster
        .comm()
        .record_allreduce(superstep.labels_generated.div_ceil(8).max(1));
    let in_flight_total: usize = in_flight.iter().map(Vec::len).sum();
    // Every partition is read in full, not from `range.0` on as GLL reads
    // its global table: a node pruned only with its own partition and the
    // common table, so a witness hub below `range.0` that another node owns
    // was never consulted, and the labels it covers are still here.
    let kept = clean_superstep(
        &(&AllPartitions(own_partitions), &in_flight[..]),
        &in_flight[..],
        range.0..range.1,
        ranking,
    );
    superstep.labels_deleted += in_flight_total - kept.len();
    for (v, e) in kept {
        if e.hub < common.eta() {
            common.insert(v, e);
        }
        own_partitions[partition.owner_of(e.hub)][v as usize].push(e);
    }

    superstep.comm = cluster.comm().take();
    superstep
}

/// Every node's committed labels of a vertex, one run per node.
struct AllPartitions<'a>(&'a [Vec<LabelSet>]);

impl LabelRuns for AllPartitions<'_> {
    fn any_run(&self, v: VertexId, mut f: impl FnMut(&[LabelEntry]) -> bool) -> bool {
        self.0.iter().any(|own| f(own[v as usize].entries()))
    }
}

/// Fills in the final run-level metrics of every distributed constructor.
pub(crate) fn finalize_metrics(
    metrics: &mut RunMetrics,
    cluster: &SimulatedCluster,
    own_partitions: &[Vec<LabelSet>],
    common: &CommonLabelTable,
    start: Instant,
) {
    metrics.wall_time = start.elapsed();
    metrics.labels_per_node = own_partitions
        .iter()
        .map(|p| p.iter().map(LabelSet::len).sum())
        .collect();
    metrics.peak_node_label_bytes = own_partitions
        .iter()
        .map(|p| p.iter().map(LabelSet::memory_bytes).sum::<usize>() + common.memory_bytes())
        .max()
        .unwrap_or(0);
    metrics.out_of_memory = metrics.peak_node_label_bytes > cluster.spec().memory_per_node_bytes;
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

    fn config() -> DistributedConfig {
        DistributedConfig {
            initial_superstep: 8,
            ..Default::default()
        }
    }

    #[test]
    fn dgll_produces_the_canonical_labeling() {
        let g = erdos_renyi(70, 0.08, 12, 27);
        let ranking = degree_ranking(&g);
        let canonical = sequential_pll(&g, &ranking).index;
        let d = distributed_gll(&g, &ranking, &cluster(4), &config());
        assert_eq!(d.assemble().unwrap(), canonical);
    }

    #[test]
    fn dgll_is_canonical_on_road_like_graph() {
        let g = grid_network(
            &GridOptions {
                rows: 8,
                cols: 8,
                ..GridOptions::default()
            },
            3,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 16,
                degree_tiebreak: true,
            },
            9,
        );
        let d = distributed_gll(&g, &ranking, &cluster(6), &config());
        assert!(is_canonical(&g, &ranking, &d.assemble().unwrap()));
    }

    #[test]
    fn labels_are_partitioned_not_replicated() {
        let g = barabasi_albert(120, 3, 5);
        let ranking = degree_ranking(&g);
        let d = distributed_gll(&g, &ranking, &cluster(4), &config());
        let per_node = d.labels_per_node();
        let assembled = d.assemble().unwrap().total_labels();
        assert_eq!(per_node.iter().sum::<usize>(), assembled);
        // Several nodes must hold a non-trivial share.
        assert!(per_node.iter().filter(|&&c| c > 0).count() >= 2);
    }

    #[test]
    fn labels_stay_on_the_owning_node() {
        let g = erdos_renyi(50, 0.1, 8, 33);
        let ranking = degree_ranking(&g);
        let q = 3;
        let d = distributed_gll(&g, &ranking, &cluster(q), &config());
        let partition = TaskPartition::new(q, g.num_vertices());
        for node in 0..q {
            for v in 0..g.num_vertices() as u32 {
                for e in d.labels_on_node(node, v).entries() {
                    assert_eq!(
                        partition.owner_of(e.hub),
                        node,
                        "hub {} stored off its owner",
                        e.hub
                    );
                }
            }
        }
    }

    #[test]
    fn cleaning_and_broadcast_traffic_are_recorded() {
        let g = barabasi_albert(100, 3, 9);
        let ranking = degree_ranking(&g);
        let d = distributed_gll(&g, &ranking, &cluster(4), &config());
        let comm = d.metrics.total_comm();
        assert!(comm.broadcast_bytes > 0);
        assert!(comm.allreduces as usize >= d.metrics.supersteps.len());
        // DGLL produces redundant labels that cleaning removes.
        assert!(d.metrics.labels_generated() >= d.assemble().unwrap().total_labels());
    }

    #[test]
    fn clean_removes_labels_covered_by_another_nodes_earlier_hub() {
        // Triangle 0-1-2 under the identity ranking, with the edge 1-2 as
        // long as the path through hub 0. Superstep 0..1 commits hub 0 on
        // node 0. In superstep 1..3 node 1 grows hub 1's tree: it cannot
        // see hub 0's labels, so it reaches vertex 2 over the edge and
        // labels it (2, hub 1, 2), which hub 0 covers: 1 + 1 <= 2. Only a
        // clean that reads committed hubs below the superstep removes it.
        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 1);
        b.add_edge(1, 2, 2);
        let g = b.build().unwrap();
        let ranking = Ranking::identity(3);
        let cluster = cluster(2);
        let config = DistributedConfig {
            common_hubs: 0,
            ..config()
        };
        let partition = TaskPartition::new(2, 3);
        let mut own = vec![vec![LabelSet::new(); 3]; 2];
        let mut common = CommonLabelTable::with_eta(3, 0);
        for range in [(0, 1), (1, 3)] {
            let step = dgll_superstep(
                &g,
                &ranking,
                &cluster,
                &config,
                &partition,
                range,
                &mut own,
                &mut common,
            );
            if range.0 == 1 {
                assert_eq!(step.labels_deleted, 1);
            }
        }
        assert!(!own[1][2].contains_hub(1));
        let d = DistributedLabeling::new(own, ranking.clone(), RunMetrics::new("DGLL", 2));
        assert_eq!(d.assemble().unwrap(), sequential_pll(&g, &ranking).index);
    }

    #[test]
    fn single_node_dgll_matches_canonical() {
        let g = erdos_renyi(40, 0.1, 6, 2);
        let ranking = degree_ranking(&g);
        let d = distributed_gll(&g, &ranking, &cluster(1), &config());
        assert_eq!(d.assemble().unwrap(), sequential_pll(&g, &ranking).index);
    }
}
