//! Table 4 — query processing throughput, latency and memory for the three
//! query modes (QLSN, QFDL, QDOL) on a 16-node cluster.

use chl_bench::{
    banner, datasets_from_env, fmt_mib, scale_from_env, seed_from_env, write_csv, TablePrinter,
};
use chl_cluster::{ClusterSpec, SimulatedCluster};
use chl_datasets::{load, DatasetId};
use chl_distributed::{distributed_hybrid, DistributedConfig};
use chl_query::{random_pairs, QdolEngine, QfdlEngine, QlsnEngine, QueryEngine};

fn main() {
    let scale = scale_from_env();
    let seed = seed_from_env();
    let nodes: usize = std::env::var("CHL_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let batch: usize = std::env::var("CHL_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let datasets = datasets_from_env(&DatasetId::all());
    banner(
        "Table 4: query modes on a simulated cluster",
        &format!("scale {scale:?}, q = {nodes} nodes, batch = {batch} queries"),
    );

    let printer = TablePrinter::new(&[
        "Dataset",
        "Mode",
        "Throughput (Mq/s)",
        "Latency (us)",
        "Total label memory (MiB)",
        "Max per-node (MiB)",
    ]);
    let mut csv = Vec::new();

    for id in datasets {
        let ds = load(id, scale, seed);
        let spec = ClusterSpec::with_nodes(nodes);
        let cluster = SimulatedCluster::new(spec);
        let labeling = distributed_hybrid(
            &ds.graph,
            &ds.ranking,
            &cluster,
            &DistributedConfig::default(),
        );
        let workload = random_pairs(ds.graph.num_vertices(), batch, seed);

        let engines: Vec<Box<dyn QueryEngine>> = vec![
            Box::new(QlsnEngine::new(&labeling, spec).expect("distances fit a stored label")),
            Box::new(QfdlEngine::new(&labeling, spec)),
            Box::new(QdolEngine::new(&labeling, spec).expect("distances fit a stored label")),
        ];
        for engine in engines {
            let report = engine.evaluate(&workload);
            let cells = vec![
                ds.name().to_string(),
                report.mode.clone(),
                format!("{:.2}", report.throughput_mqps()),
                format!("{:.1}", report.latency_us()),
                fmt_mib(report.total_memory_bytes()),
                fmt_mib(report.max_memory_per_node_bytes()),
            ];
            printer.print_row(&cells);
            csv.push(cells);
        }
    }

    write_csv(
        "table4_query_modes",
        &[
            "dataset",
            "mode",
            "throughput_mqps",
            "latency_us",
            "total_memory_mib",
            "max_node_memory_mib",
        ],
        &csv,
    );
}
