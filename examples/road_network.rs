//! Road-network scenario: the workload the paper's introduction motivates
//! with route navigation. Builds the CAL stand-in road network, constructs
//! the CHL with every constructor through the unified `Labeler` interface,
//! compares their construction profiles and shows the query-time advantage
//! over running Dijkstra per query.
//!
//! Run with: `cargo run --release --example road_network`

use std::time::Instant;

use planted_hub_labeling::graph::sssp::dijkstra;
use planted_hub_labeling::prelude::*;
use planted_hub_labeling::query::random_pairs;

fn main() {
    // The California road-network stand-in at benchmark scale.
    let ds = load_dataset(DatasetId::CAL, Scale::Small, 42);
    let (graph, ranking) = (&ds.graph, &ds.ranking);
    println!(
        "CAL stand-in: {} vertices, {} edges (paper original: 1.89M / 4.66M)",
        graph.num_vertices(),
        graph.num_edges()
    );

    // One loop covers every constructor: the builder dispatches through the
    // `Labeler` trait, so comparing algorithms is data, not code.
    let algorithms = [
        Algorithm::Pll,
        Algorithm::Gll,
        Algorithm::Plant,
        Algorithm::SParaPll,
    ];
    println!("\nconstruction comparison (road network):");
    let mut canonical_index: Option<FlatIndex> = None;
    let mut gll_index: Option<FlatIndex> = None;
    for algo in algorithms {
        let res = ChlBuilder::new(graph)
            .ranking(RankingStrategy::Explicit(ranking.clone()))
            .algorithm(algo)
            .build()
            .expect("construction succeeds");
        println!(
            "  {:>9}: {:>9} labels  ALS {:>6.1}  time {:?}",
            algo.name(),
            res.index.total_labels(),
            res.index.average_label_size(),
            res.stats.total_time
        );
        // Every canonical constructor must reproduce the same labeling.
        if algo.is_canonical() {
            match &canonical_index {
                None => canonical_index = Some(res.index.clone()),
                Some(reference) => assert_eq!(
                    &res.index, reference,
                    "{algo} must produce the canonical labeling"
                ),
            }
        }
        if algo == Algorithm::Gll {
            gll_index = Some(res.index);
        }
    }
    let gll_index = gll_index.expect("GLL ran");

    // Query-time comparison: hub labels vs running Dijkstra per query.
    let workload = random_pairs(graph.num_vertices(), 10_000, 3);
    let start = Instant::now();
    let mut acc = 0u64;
    for &(u, v) in &workload.pairs {
        acc = acc.wrapping_add(gll_index.query(u, v));
    }
    let label_time = start.elapsed();

    let start = Instant::now();
    let mut acc2 = 0u64;
    for &(u, v) in workload.pairs.iter().take(20) {
        acc2 = acc2.wrapping_add(dijkstra(graph, u)[v as usize]);
    }
    let dijkstra_time_per_query = start.elapsed() / 20;
    std::hint::black_box((acc, acc2));

    println!("\nquery performance:");
    println!(
        "  hub labels : {:?} for {} queries ({:.2} µs/query)",
        label_time,
        workload.len(),
        label_time.as_secs_f64() * 1e6 / workload.len() as f64
    );
    println!("  dijkstra   : {dijkstra_time_per_query:?} per query");
    println!(
        "  speedup    : {:.0}x per query",
        dijkstra_time_per_query.as_secs_f64() / (label_time.as_secs_f64() / workload.len() as f64)
    );
}
