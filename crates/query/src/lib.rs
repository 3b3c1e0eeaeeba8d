//! # chl-query
//!
//! Distributed PPSD query serving over hub labels — the three query modes of
//! §6 of the paper:
//!
//! * **QLSN** (Querying with Labels on a Single Node): every node stores the
//!   complete labeling and answers its own queries locally. Lowest latency,
//!   highest memory, no multi-node parallelism within a query.
//! * **QFDL** (Querying with Fully Distributed Labels): each node stores only
//!   its label partition; a query is broadcast to all nodes and the partial
//!   answers are reduced with a minimum. Lowest memory, highest per-query
//!   communication.
//! * **QDOL** (Querying with Distributed Overlapping Labels): the vertex set
//!   is split into ζ partitions with `C(ζ,2) = q`; each node stores the full
//!   labels of one partition pair and answers exactly the queries that fall
//!   inside its pair via cheap point-to-point messages.
//!
//! All three modes answer queries through the workspace-wide
//! [`DistanceOracle`] trait (shared with the plain [`chl_core::FlatIndex`]
//! and the distributed partitions), so exactness checks, batch evaluation and
//! memory accounting are written once against `&dyn DistanceOracle`. The
//! [`QueryEngine`] subtrait adds what only a serving engine has: a mode name,
//! a modeled per-query latency and per-node memory driven by
//! [`chl_cluster::NetworkModel`], and workload evaluation producing the
//! [`QueryModeReport`] the Table 4 benchmark consumes.
//!
//! The [`workload`] module generates query batches and reads/writes them as
//! text files (one `u v` pair per line), the format `chl query --workload`
//! consumes:
//!
//! ```
//! use chl_query::workload::{random_pairs, read_workload, write_workload};
//!
//! let workload = random_pairs(1_000, 64, 7);
//! let mut file = Vec::new(); // any io::Write
//! write_workload(&workload, &mut file).unwrap();
//! assert_eq!(read_workload(file.as_slice()).unwrap(), workload);
//! ```

#![forbid(unsafe_code)]

pub mod qdol;
pub mod qfdl;
pub mod qlsn;
pub mod report;
pub mod workload;

pub use chl_core::oracle::DistanceOracle;
pub use qdol::{QdolEngine, QdolShardMap};
pub use qfdl::QfdlEngine;
pub use qlsn::QlsnEngine;
pub use report::QueryModeReport;
pub use workload::{
    load_workload, load_workload_checked, random_pairs, read_workload, read_workload_checked,
    skewed_pairs, write_workload, QueryWorkload, WorkloadError,
};

use chl_graph::types::{Distance, VertexId};

/// Common serving interface of the three query modes.
///
/// Every engine is first a [`DistanceOracle`]; this subtrait layers the
/// cluster-model concerns on top. `query` is kept as a provided alias of
/// [`DistanceOracle::distance`] so existing call sites stay source-compatible.
pub trait QueryEngine: DistanceOracle {
    /// Short mode name ("QLSN", "QFDL", "QDOL").
    fn name(&self) -> &'static str;
    /// Answers one PPSD query exactly (alias of [`DistanceOracle::distance`]).
    fn query(&self, u: VertexId, v: VertexId) -> Distance {
        self.distance(u, v)
    }
    /// Modeled single-query latency, including any cross-node communication.
    fn modeled_latency(&self) -> std::time::Duration;
    /// Label memory consumed on each node, in bytes.
    fn memory_per_node(&self) -> Vec<usize>;
    /// Evaluates a batch workload, returning the full report.
    fn evaluate(&self, workload: &QueryWorkload) -> QueryModeReport;
}
