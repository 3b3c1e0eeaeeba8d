//! Query-serving scenario: evaluate the three distributed query modes
//! (QLSN, QFDL, QDOL) of §6 on one dataset and print a Table-4-style
//! comparison of throughput, latency and memory. All exactness checks go
//! through the `DistanceOracle` trait, which the serving engines share with
//! the plain assembled index and the raw distributed partitions.
//!
//! Run with: `cargo run --release --example query_server`

use planted_hub_labeling::prelude::*;
use planted_hub_labeling::query::random_pairs;

fn main() {
    let ds = load_dataset(DatasetId::AUT, Scale::Small, 42);
    let (graph, ranking) = (&ds.graph, &ds.ranking);
    let nodes = 16usize;
    println!(
        "AUT stand-in: {} vertices, {} edges; {} simulated nodes",
        graph.num_vertices(),
        graph.num_edges(),
        nodes
    );

    // Build the labeling once with the distributed Hybrid, then serve it.
    let spec = ClusterSpec::with_nodes(nodes);
    let cluster = SimulatedCluster::new(spec);
    let labeling = distributed_hybrid(graph, ranking, &cluster, &DistributedConfig::default());
    println!(
        "labeling: ALS {:.1}, {} labels across {} nodes",
        labeling.average_label_size(),
        labeling.total_labels(),
        labeling.nodes()
    );

    let workload = random_pairs(graph.num_vertices(), 500_000, 9);
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(QlsnEngine::new(&labeling, spec).expect("distances fit a stored label")),
        Box::new(QfdlEngine::new(&labeling, spec)),
        Box::new(QdolEngine::new(&labeling, spec).expect("distances fit a stored label")),
    ];

    println!(
        "\n{:>6} | {:>18} | {:>14} | {:>18} | {:>18}",
        "mode", "throughput (Mq/s)", "latency (µs)", "total label MiB", "max node MiB"
    );
    let sample: Vec<(u32, u32)> = workload.pairs.iter().take(2000).copied().collect();
    let mut answers: Option<Vec<u64>> = None;
    for engine in &engines {
        let report = engine.evaluate(&workload);
        println!(
            "{:>6} | {:>18.2} | {:>14.1} | {:>18.2} | {:>18.2}",
            report.mode,
            report.throughput_mqps(),
            report.latency_us(),
            report.total_memory_bytes() as f64 / (1024.0 * 1024.0),
            report.max_memory_per_node_bytes() as f64 / (1024.0 * 1024.0),
        );

        // All three modes must return identical answers. The engines are
        // queried through the oracle surface they share with plain indexes.
        let these = engine.distances(&sample);
        if let Some(previous) = &answers {
            assert_eq!(
                previous,
                &these,
                "{} disagrees with the previous mode",
                engine.name()
            );
        }
        answers = Some(these);
    }

    // The raw distributed partitions are a DistanceOracle too — no engine,
    // no assembly — and must agree with the serving modes.
    let partitions: &dyn DistanceOracle = &labeling;
    assert_eq!(partitions.distances(&sample), answers.expect("engines ran"));
    println!("\nall modes returned identical answers for the sampled queries");
}
