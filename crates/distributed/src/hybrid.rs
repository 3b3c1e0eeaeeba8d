//! The Hybrid distributed constructor (§5.2.1 + §5.3): PLaNT while it is
//! cheap, DGLL once it is not.
//!
//! Supersteps follow the same geometric schedule as DGLL. As long as the
//! running ratio Ψ (vertices explored per label generated, measured per
//! superstep and agreed on through a tiny all-reduce) stays below `Ψ_th`,
//! roots are PLaNTed: no pruning-label traffic, embarrassing parallelism, and
//! the bulk of the labeling — which the most important roots generate — never
//! crosses the network. Labels whose hub ranks inside the top `η` are
//! broadcast into the Common Label Table so that both later PLaNTed trees and
//! the post-switch DGLL phase can prune with them (§5.3). Once Ψ exceeds the
//! threshold the remaining roots are processed with DGLL supersteps, which
//! prune aggressively exactly where PLaNT would waste exploration.

use std::time::Instant;

use chl_cluster::{
    RunMetrics, SimulatedCluster, SuperstepMetrics, SuperstepSchedule, TaskPartition,
};
use chl_core::labels::LabelSet;
use chl_core::plant::CommonLabelTable;
use chl_graph::CsrGraph;
use chl_ranking::Ranking;

use crate::config::DistributedConfig;
use crate::dgll::{dgll_superstep, finalize_metrics};
use crate::node::{commit_entries, plant_positions, run_nodes, wire_bytes};
use crate::result::DistributedLabeling;

/// Runs the Hybrid PLaNT + DGLL constructor on the simulated cluster.
pub fn distributed_hybrid(
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
    let mut metrics = RunMetrics::new("Hybrid", q);
    let mut planted_supersteps = 0usize;
    let mut switched = false;

    for (from, to) in schedule.ranges() {
        if switched {
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
            continue;
        }

        // ---- PLaNT superstep ----
        planted_supersteps += 1;
        let positions: Vec<Vec<u32>> = (0..q)
            .map(|node| partition.positions_of_in_range(node, from, to))
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

        let mut superstep = SuperstepMetrics::default();
        let mut explored_total = 0usize;
        for (node, ((labels, explored, generated), busy)) in outputs.into_iter().enumerate() {
            superstep.per_node_compute.push(busy);
            explored_total += explored;
            superstep.labels_generated += generated;

            // Labels of top-η hubs are broadcast into the Common Label Table;
            // everything else stays put (no communication).
            let mut common_count = 0usize;
            for (v, raw) in labels.iter().enumerate() {
                for e in raw {
                    if e.hub < common.eta() {
                        common.insert(v as u32, *e);
                        common_count += 1;
                    }
                }
            }
            if common_count > 0 {
                cluster.comm().record_broadcast(wire_bytes(common_count));
            }
            commit_entries(&mut own_partitions[node], labels);
        }

        // Tiny all-reduce to agree on the superstep's Ψ.
        cluster.comm().record_allreduce(16);
        superstep.comm = cluster.comm().take();
        let psi = if superstep.labels_generated == 0 {
            f64::INFINITY
        } else {
            explored_total as f64 / superstep.labels_generated as f64
        };
        metrics.supersteps.push(superstep);

        if psi > config.psi_threshold {
            switched = true;
        }
    }

    finalize_metrics(&mut metrics, cluster, &own_partitions, &common, start);
    metrics.algorithm = format!("Hybrid(planted_supersteps={planted_supersteps})");
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

    fn config() -> DistributedConfig {
        DistributedConfig {
            initial_superstep: 8,
            ..Default::default()
        }
    }

    #[test]
    fn hybrid_produces_the_canonical_labeling() {
        let g = erdos_renyi(70, 0.08, 12, 53);
        let ranking = degree_ranking(&g);
        let d = distributed_hybrid(&g, &ranking, &cluster(4), &config());
        assert_eq!(d.assemble(), sequential_pll(&g, &ranking).index);
    }

    #[test]
    fn hybrid_with_aggressive_switch_is_still_canonical() {
        let g = barabasi_albert(140, 3, 19);
        let ranking = degree_ranking(&g);
        let cfg = config().with_psi_threshold(1.5);
        let d = distributed_hybrid(&g, &ranking, &cluster(4), &cfg);
        assert!(is_canonical(&g, &ranking, &d.assemble()));
        // The aggressive threshold must actually force a switch: later
        // supersteps show cleaning activity (a DGLL-only phenomenon).
        assert!(d.metrics.supersteps.len() > 1);
    }

    #[test]
    fn hybrid_with_huge_threshold_behaves_like_plant() {
        let g = erdos_renyi(60, 0.1, 8, 7);
        let ranking = degree_ranking(&g);
        let cfg = config().with_psi_threshold(f64::MAX);
        let d = distributed_hybrid(&g, &ranking, &cluster(4), &cfg);
        assert_eq!(d.assemble(), sequential_pll(&g, &ranking).index);
        // Only common-table broadcasts and Ψ all-reduces, no label cleaning.
        assert_eq!(d.metrics.labels_deleted(), 0);
    }

    #[test]
    fn hybrid_is_canonical_on_road_like_graph() {
        let g = grid_network(
            &GridOptions {
                rows: 9,
                cols: 8,
                ..GridOptions::default()
            },
            31,
        );
        let ranking = chl_ranking::betweenness_ranking(
            &g,
            &chl_ranking::BetweennessOptions {
                samples: 16,
                degree_tiebreak: true,
            },
            4,
        );
        let cfg = config().with_psi_threshold(3.0);
        let d = distributed_hybrid(&g, &ranking, &cluster(6), &cfg);
        assert!(is_canonical(&g, &ranking, &d.assemble()));
    }

    #[test]
    fn hybrid_broadcasts_less_than_dgll() {
        let g = barabasi_albert(150, 3, 29);
        let ranking = degree_ranking(&g);
        let dgll = crate::dgll::distributed_gll(&g, &ranking, &cluster(4), &config());
        let hybrid = distributed_hybrid(&g, &ranking, &cluster(4), &config());
        assert_eq!(dgll.assemble(), hybrid.assemble());
        assert!(
            hybrid.metrics.total_comm().broadcast_bytes
                <= dgll.metrics.total_comm().broadcast_bytes,
            "hybrid must not broadcast more label data than DGLL"
        );
    }

    #[test]
    fn labels_remain_partitioned() {
        let g = erdos_renyi(60, 0.1, 8, 61);
        let ranking = degree_ranking(&g);
        let q = 4;
        let d = distributed_hybrid(&g, &ranking, &cluster(q), &config());
        let partition = TaskPartition::new(q, g.num_vertices());
        for node in 0..q {
            for v in 0..g.num_vertices() as u32 {
                for e in d.labels_on_node(node, v).entries() {
                    assert_eq!(partition.owner_of(e.hub), node);
                }
            }
        }
    }
}
