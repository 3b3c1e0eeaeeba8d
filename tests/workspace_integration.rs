//! Workspace-level integration tests exercising the facade crate end-to-end:
//! dataset generation → ranking → construction through the unified
//! `ChlBuilder` (shared-memory and distributed) → query serving behind the
//! `DistanceOracle` trait — one-shot and through the long-running TCP
//! serving tier — all cross-checked against ground truth.

use planted_hub_labeling::graph::sssp::dijkstra;
use planted_hub_labeling::prelude::*;
use planted_hub_labeling::query::random_pairs;

#[test]
fn end_to_end_road_network_pipeline() {
    let ds = load_dataset(DatasetId::CAL, Scale::Tiny, 1);
    let result = ChlBuilder::new(&ds.graph)
        .ranking(RankingStrategy::Explicit(ds.ranking.clone()))
        .algorithm(Algorithm::Gll)
        .threads(4)
        .validate()
        .expect("configuration is valid")
        .build()
        .expect("construction succeeds");
    // Exact queries against Dijkstra from several sources.
    for src in [0u32, 10, 60] {
        let reference = dijkstra(&ds.graph, src);
        for v in 0..ds.graph.num_vertices() as u32 {
            assert_eq!(result.index.query(src, v), reference[v as usize]);
        }
    }
    assert!(is_canonical(&ds.graph, &ds.ranking, &result.index));
}

#[test]
fn end_to_end_scale_free_pipeline_all_constructors_agree() {
    let ds = load_dataset(DatasetId::SKIT, Scale::Tiny, 2);
    let builder = ChlBuilder::new(&ds.graph)
        .ranking(RankingStrategy::Explicit(ds.ranking.clone()))
        .threads(4);
    let reference = builder
        .clone()
        .algorithm(Algorithm::Pll)
        .build()
        .expect("construction succeeds")
        .index;
    for algo in Algorithm::CANONICAL {
        let built = builder
            .clone()
            .algorithm(algo)
            .build()
            .expect("construction succeeds");
        assert_eq!(
            built.index, reference,
            "{algo} must reproduce the canonical labeling"
        );
    }
    assert_eq!(brute_force_chl(&ds.graph, &ds.ranking).unwrap(), reference);
}

#[test]
fn end_to_end_distributed_pipeline_with_queries() {
    let ds = load_dataset(DatasetId::AUT, Scale::Tiny, 3);
    let spec = ClusterSpec::with_nodes(6);
    let cluster = SimulatedCluster::new(spec);
    let labeling = distributed_hybrid(
        &ds.graph,
        &ds.ranking,
        &cluster,
        &DistributedConfig::default(),
    );
    let reference = sequential_pll(&ds.graph, &ds.ranking).index;
    assert_eq!(labeling.assemble().unwrap(), reference);

    // All three query modes agree with the reference on a random workload —
    // checked uniformly through the DistanceOracle surface they share.
    let workload = random_pairs(ds.graph.num_vertices(), 3_000, 5);
    let oracles: Vec<Box<dyn DistanceOracle>> = vec![
        Box::new(QlsnEngine::new(&labeling, spec).unwrap()),
        Box::new(QfdlEngine::new(&labeling, spec)),
        Box::new(QdolEngine::new(&labeling, spec).unwrap()),
    ];
    let expected = reference.distances(&workload.pairs);
    for oracle in &oracles {
        assert_eq!(oracle.num_vertices(), ds.graph.num_vertices());
        assert_eq!(oracle.distances(&workload.pairs), expected);
    }
    // The raw partitions answer identically as well.
    let as_oracle: &dyn DistanceOracle = &labeling;
    assert_eq!(as_oracle.distances(&workload.pairs), expected);

    // Memory ordering of the three modes matches §6: QFDL < QDOL < QLSN,
    // per node and in oracle-level totals.
    let qlsn = QlsnEngine::new(&labeling, spec).unwrap();
    let qfdl = QfdlEngine::new(&labeling, spec);
    let qdol = QdolEngine::new(&labeling, spec).unwrap();
    let qlsn_max = *qlsn.memory_per_node().iter().max().unwrap();
    let qfdl_max = *qfdl.memory_per_node().iter().max().unwrap();
    let qdol_max = *qdol.memory_per_node().iter().max().unwrap();
    assert!(qfdl_max <= qdol_max);
    assert!(qdol_max <= qlsn_max);
    assert!(qfdl.memory_bytes() <= qdol.memory_bytes());
    assert!(qdol.memory_bytes() <= qlsn.memory_bytes());
}

#[test]
fn distributed_algorithms_report_expected_communication_profile() {
    let ds = load_dataset(DatasetId::SKIT, Scale::Tiny, 4);
    let config = DistributedConfig::default();
    let q = 8;

    let plant = distributed_plant(
        &ds.graph,
        &ds.ranking,
        &SimulatedCluster::new(ClusterSpec::with_nodes(q)),
        &config,
    );
    let dgll = distributed_gll(
        &ds.graph,
        &ds.ranking,
        &SimulatedCluster::new(ClusterSpec::with_nodes(q)),
        &config,
    );
    let dparapll = distributed_parapll(
        &ds.graph,
        &ds.ranking,
        &SimulatedCluster::new(ClusterSpec::with_nodes(q)),
        &config,
    );

    // PLaNT: zero label traffic. DGLL: some. DparaPLL: full replication.
    assert_eq!(plant.metrics.total_comm().total_bytes(), 0);
    assert!(dgll.metrics.total_comm().broadcast_bytes > 0);
    assert!(dparapll.metrics.total_comm().broadcast_bytes > 0);
    let plant_peak = plant.metrics.peak_node_label_bytes;
    let dparapll_peak = dparapll.metrics.peak_node_label_bytes;
    assert!(
        dparapll_peak > plant_peak,
        "replicated storage must dominate partitioned storage ({dparapll_peak} vs {plant_peak})"
    );
}

#[test]
fn para_pll_is_exact_on_scale_free_graphs() {
    // No size claim: without rank queries SParaPll's label count can fall
    // below the CHL's on more than one thread (see `para_pll`'s tests).
    let ds = load_dataset(DatasetId::YTB, Scale::Tiny, 6);
    let para = ChlBuilder::new(&ds.graph)
        .ranking(RankingStrategy::Explicit(ds.ranking.clone()))
        .threads(8)
        .algorithm(Algorithm::SParaPll)
        .build()
        .unwrap()
        .index;
    for src in [0u32, 10, 60] {
        let reference = dijkstra(&ds.graph, src);
        for v in 0..ds.graph.num_vertices() as u32 {
            assert_eq!(para.query(src, v), reference[v as usize]);
        }
    }
}

#[test]
fn end_to_end_serving_tier_gen_build_serve_bench_shutdown() {
    use std::sync::Arc;
    use std::time::Duration;

    // gen → build: a road-like grid through the same builder path as the CLI.
    let graph = grid_network(
        &GridOptions {
            rows: 10,
            cols: 10,
            ..GridOptions::default()
        },
        21,
    );
    let flat = ChlBuilder::new(&graph)
        .ranking(RankingStrategy::Auto { seed: 21 })
        .algorithm(Algorithm::Hybrid)
        .build()
        .expect("construction succeeds")
        .index;

    // save → serve: persist, load through the shared handle, bind ephemeral.
    let path = std::env::temp_dir().join(format!("chl-workspace-serve-{}.chl", std::process::id()));
    flat.save(&path).expect("save index");
    let shared = Arc::new(SharedIndex::open(&path, false).expect("open served index"));
    let server = Server::bind("127.0.0.1:0", shared, ServeOptions::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    let addr = server.handle().addr();

    // A served answer is the in-memory answer.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.query(0, 99).expect("query"), flat.query(0, 99));
    drop(client);

    // bench-serve: 4 concurrent closed-loop connections, then assert on the
    // parsed summary the CLI would print.
    let summary = run_bench(
        addr,
        &BenchOptions {
            connections: 4,
            duration: Duration::from_millis(300),
            ..BenchOptions::default()
        },
    )
    .expect("bench run");
    assert_eq!(summary.connections, 4);
    assert_eq!(summary.errors, 0);
    assert!(summary.requests > 0, "no frames answered: {summary:?}");
    assert!(summary.throughput_qps() > 0.0);
    assert!(summary.latency_percentile(0.50) <= summary.latency_percentile(0.999));
    let rendered = summary.render();
    for key in ["throughput:", "latency p50:", "latency p999:"] {
        assert!(rendered.contains(key), "missing {key} in:\n{rendered}");
    }

    // shutdown: the protocol frame stops the server; stats reflect the run.
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown_server().expect("shutdown ack");
    let stats = server.join().expect("server exits cleanly");
    assert!(stats.queries >= summary.queries);
    assert_eq!(stats.error_frames, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn builder_surfaces_configuration_errors_instead_of_panicking() {
    let ds = load_dataset(DatasetId::CAL, Scale::Tiny, 9);
    // Bad alpha.
    let err = ChlBuilder::new(&ds.graph)
        .alpha(0.0)
        .validate()
        .unwrap_err();
    assert!(matches!(err, LabelingError::InvalidConfig(_)));
    // Ranking for a different graph.
    let err = ChlBuilder::new(&ds.graph)
        .ranking(RankingStrategy::Explicit(Ranking::identity(3)))
        .build()
        .unwrap_err();
    assert!(matches!(err, LabelingError::RankingMismatch { .. }));
}
