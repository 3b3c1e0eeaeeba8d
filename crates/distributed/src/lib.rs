//! # chl-distributed
//!
//! Distributed-memory Canonical Hub Labeling over the simulated cluster of
//! [`chl_cluster`]: the paper's DGLL (§5.1), PLaNT (§5.2), Hybrid (§5.2.1,
//! §5.3) and the DparaPLL baseline it compares against.
//!
//! All four algorithms share the same skeleton:
//!
//! * the SPT roots are assigned to nodes **rank-circularly**
//!   (`position mod q`, [`chl_cluster::TaskPartition`]);
//! * every node holds the full graph and the full ranking, but only *its own*
//!   label partition (except DparaPLL, which replicates everything — the very
//!   property that makes it run out of memory at scale);
//! * execution proceeds in supersteps; any label data that crosses node
//!   boundaries is pushed through the cluster's [`chl_cluster::CommTracker`]
//!   so the traffic the paper reasons about is measured, not assumed.
//!
//! The output of every constructor is a [`DistributedLabeling`]: the per-node
//! label partitions plus run metrics. `assemble()` unions the partitions into
//! a plain [`chl_core::FlatIndex`] for verification; the query crate
//! (`chl-query`) instead consumes the partitions directly, the way the
//! paper's QFDL/QDOL modes do.

#![forbid(unsafe_code)]

pub mod config;
pub mod dgll;
pub mod dparapll;
pub mod dplant;
pub mod hybrid;
pub mod node;
pub mod result;

pub use config::{DistributedConfig, ExecutionMode};
pub use dgll::distributed_gll;
pub use dparapll::distributed_parapll;
pub use dplant::distributed_plant;
pub use hybrid::distributed_hybrid;
pub use result::DistributedLabeling;
