//! Distributed scenario: construct the CHL of a graph on a simulated
//! 16-node cluster with all four distributed algorithms, compare their
//! communication volumes and per-node memory, and verify they agree.
//!
//! Run with: `cargo run --release --example distributed_cluster`

use planted_hub_labeling::prelude::*;

fn main() {
    let ds = load_dataset(DatasetId::SKIT, Scale::Small, 42);
    let (graph, ranking) = (&ds.graph, &ds.ranking);
    println!(
        "SKIT stand-in: {} vertices, {} edges, 16 simulated nodes",
        graph.num_vertices(),
        graph.num_edges()
    );

    let spec = ClusterSpec::with_nodes(16);
    let config = DistributedConfig::default();
    let reference = ChlBuilder::new(graph)
        .ranking(RankingStrategy::Explicit(ranking.clone()))
        .algorithm(Algorithm::Pll)
        .build()
        .expect("construction succeeds")
        .index;

    type Runner =
        fn(&CsrGraph, &Ranking, &SimulatedCluster, &DistributedConfig) -> DistributedLabeling;
    let algorithms: [(&str, Runner); 4] = [
        ("DparaPLL", distributed_parapll as Runner),
        ("DGLL", distributed_gll as Runner),
        ("PLaNT", distributed_plant as Runner),
        ("Hybrid", distributed_hybrid as Runner),
    ];

    println!(
        "\n{:>9} | {:>10} | {:>12} | {:>14} | {:>14} | {:>9}",
        "algorithm", "ALS", "bcast KiB", "modeled time", "max node KiB", "canonical"
    );
    for (name, runner) in algorithms {
        let cluster = SimulatedCluster::new(spec);
        let labeling = runner(graph, ranking, &cluster, &config);
        let comm = labeling.metrics.total_comm();
        let assembled = labeling.assemble().expect("distances fit a stored label");
        let canonical = assembled == reference;
        println!(
            "{:>9} | {:>10.1} | {:>12.1} | {:>14.3?} | {:>14.1} | {:>9}",
            name,
            assembled.average_label_size(),
            comm.broadcast_bytes as f64 / 1024.0,
            labeling.metrics.modeled_time(&spec),
            labeling.metrics.peak_node_label_bytes as f64 / 1024.0,
            canonical,
        );
        // Everything except DparaPLL must reproduce the canonical labeling.
        if name != "DparaPLL" {
            assert!(canonical, "{name} failed to produce the CHL");
        }
    }

    // Distributed queries over the partitioned labels (QFDL-style reduce):
    // the partitions and the assembled reference answer through the same
    // DistanceOracle surface.
    let cluster = SimulatedCluster::new(spec);
    let hybrid = distributed_hybrid(graph, ranking, &cluster, &config);
    let oracle: &dyn DistanceOracle = &hybrid;
    println!("\nQFDL-style distributed queries over the partitioned labels:");
    for (u, v) in [(0u32, 57u32), (3, 99), (12, 150)] {
        println!("  dist({u}, {v}) = {}", oracle.distance(u, v));
        assert_eq!(oracle.distance(u, v), reference.distance(u, v));
    }
    println!("\nlabels per node: {:?}", hybrid.labels_per_node());
}
