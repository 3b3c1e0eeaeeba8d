//! # planted-hub-labeling
//!
//! A from-scratch Rust reproduction of *"Planting Trees for scalable and
//! efficient Canonical Hub Labeling"* (Lakhotia, Dong, Kannan, Prasanna —
//! VLDB 2019): parallel shared-memory and distributed constructors for the
//! Canonical Hub Labeling (CHL) of weighted graphs, the PLaNT
//! communication-avoiding algorithm, the Hybrid PLaNT+DGLL constructor, the
//! paraPLL baselines, three distributed query-serving modes and a benchmark
//! harness that regenerates every table and figure of the paper's evaluation.
//!
//! This crate is a thin facade: it re-exports the workspace's sub-crates
//! under one roof so applications can depend on a single package.
//!
//! | Module | Sub-crate | Contents |
//! |---|---|---|
//! | [`graph`] | `chl-graph` | CSR graphs, builders, IO, generators, reference SSSP |
//! | [`ranking`] | `chl-ranking` | degree and approximate-betweenness hierarchies |
//! | [`labeling`] | `chl-core` | the [`ChlBuilder`](labeling::ChlBuilder) API over PLL, paraPLL, LCC, GLL, PLaNT, Hybrid |
//! | [`cluster`] | `chl-cluster` | simulated multi-node cluster substrate |
//! | [`distributed`] | `chl-distributed` | DGLL, DparaPLL, distributed PLaNT and Hybrid |
//! | [`query`] | `chl-query` | QLSN / QFDL / QDOL query modes behind [`DistanceOracle`](labeling::DistanceOracle) |
//! | [`serve`] | `chl-serve` | long-running TCP serving tier: batching server, hot reload, load generator |
//! | [`datasets`] | `chl-datasets` | synthetic stand-ins for the paper's 12 datasets |
//!
//! # Quick start
//!
//! Construction goes through one fluent entry point, `ChlBuilder`, which
//! works identically for every [`Algorithm`](labeling::Algorithm); querying
//! goes through the `DistanceOracle` trait, implemented by the shared-memory
//! index, the distributed partitions and all three serving engines.
//!
//! ```
//! use planted_hub_labeling::prelude::*;
//!
//! // A small weighted road-like network.
//! let graph = grid_network(&GridOptions { rows: 12, cols: 12, ..GridOptions::default() }, 7);
//!
//! // Build the canonical hub labeling: pick a hierarchy strategy and a
//! // constructor, validate, build. Swapping `Algorithm::Hybrid` for any
//! // other canonical constructor changes nothing downstream.
//! let result = ChlBuilder::new(&graph)
//!     .ranking(RankingStrategy::Auto { seed: 7 })
//!     .algorithm(Algorithm::Hybrid)
//!     .validate()
//!     .expect("valid configuration")
//!     .build()
//!     .expect("construction succeeds");
//!
//! // Answer exact point-to-point shortest-distance queries.
//! let index = result.index;
//! let reference = planted_hub_labeling::graph::sssp::dijkstra(&graph, 0);
//! assert_eq!(index.query(0, 143), reference[143]);
//!
//! // Or hold any backend behind the uniform oracle surface.
//! let oracle: &dyn DistanceOracle = &index;
//! assert_eq!(oracle.distance(0, 143), reference[143]);
//!
//! // The index already is the contiguous serving layout: `index.save(path)`
//! // / `FlatIndex::load(path)` persist it as a versioned `.chl` file (see
//! // `chl_core::persist`), which is also what the `chl` CLI builds and
//! // serves from. A clone shares its label arrays.
//! let shared = index.clone();
//! assert_eq!(shared.query(0, 143), reference[143]);
//! ```

#![forbid(unsafe_code)]

pub use chl_cluster as cluster;
pub use chl_core as labeling;
pub use chl_datasets as datasets;
pub use chl_distributed as distributed;
pub use chl_graph as graph;
pub use chl_query as query;
pub use chl_ranking as ranking;
pub use chl_serve as serve;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use chl_cluster::{ClusterSpec, SimulatedCluster};
    pub use chl_core::api::{
        Algorithm, ChlBuilder, GllLabeler, HybridLabeler, Labeler, LccLabeler, PlantLabeler,
        PllLabeler, RankingStrategy, SParaPllLabeler,
    };
    pub use chl_core::canonical::{brute_force_chl, is_canonical};
    pub use chl_core::gll::gll;
    pub use chl_core::hybrid::shared_hybrid;
    pub use chl_core::lcc::lcc;
    pub use chl_core::oracle::DistanceOracle;
    pub use chl_core::plant::plant_labeling;
    pub use chl_core::pll::sequential_pll;
    pub use chl_core::{
        FlatIndex, LabelingConfig, LabelingError, LabelingResult, MmapIndex, PersistError,
    };
    pub use chl_datasets::{load as load_dataset, DatasetId, Scale};
    pub use chl_distributed::{
        distributed_gll, distributed_hybrid, distributed_parapll, distributed_plant,
        DistributedConfig, DistributedLabeling,
    };
    pub use chl_graph::generators::{barabasi_albert, grid_network, GridOptions};
    pub use chl_graph::{CsrGraph, GraphBuilder};
    pub use chl_query::{QdolEngine, QfdlEngine, QlsnEngine, QueryEngine};
    pub use chl_ranking::{default_ranking, degree_ranking, Ranking};
    pub use chl_serve::{run_bench, BenchOptions, Client, ServeOptions, Server, SharedIndex};
}
