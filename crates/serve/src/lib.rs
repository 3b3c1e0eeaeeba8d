//! `chl-serve`: the long-running serving tier for `.chl` indexes.
//!
//! The rest of the workspace builds and persists hub labelings; this crate
//! keeps one loaded and answers queries over TCP until told to stop —
//! turning the one-shot `chl query` process launch into a measurable
//! service. The pieces:
//!
//! * [`protocol`] — the length-prefixed binary wire format (typed error
//!   frames, pipelining-friendly in-order responses) plus the preamble that
//!   routes non-protocol connections to a minimal HTTP `GET` adapter
//!   ([`http`], curl-ability only).
//! * [`index`] — [`SharedIndex`]: the loaded [`FlatIndex`] / [`MmapIndex`]
//!   behind `RwLock<Arc<..>>`, with validate-then-swap reloads that never
//!   drop in-flight requests and never replace a serving index with a
//!   corrupt file.
//! * [`engine`] — the one connection engine under both tiers: blocking
//!   acceptor → queue → worker pool (each worker answers inline on its own
//!   thread: the pool is the parallelism), preamble sniff, frame drain,
//!   coalescing of pipelined QUERY frames into one run, in-order responses,
//!   shutdown latch and the shared counters, driven through the
//!   [`engine::Service`] trait.
//! * [`server`] — the local-oracle service (`chl serve`): each coalesced run
//!   becomes one batched [`DistanceOracle::distances`] call over the current
//!   snapshot.
//! * [`router`] — the scatter-gather service (`chl route`) in front of a
//!   cluster of shard servers (one `.chl` shard file each): same client
//!   protocol on both sides, per-query QDOL placement, typed per-frame
//!   degradation when a backend dies.
//! * [`client`] / [`loadgen`] — a blocking protocol client and the
//!   `chl bench-serve` engine reporting throughput and p50/p99/p999.
//!
//! ```no_run
//! use std::sync::Arc;
//! use chl_serve::{SharedIndex, ServeOptions, Server};
//!
//! let shared = Arc::new(SharedIndex::open("graph.chl", /* mmap */ true)?);
//! let server = Server::bind("127.0.0.1:0", shared, ServeOptions::default())?;
//! println!("listening on {}", server.local_addr());
//! server.run()?; // blocks until a SHUTDOWN frame (or handle signal)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`FlatIndex`]: chl_core::flat::FlatIndex
//! [`MmapIndex`]: chl_core::mapped::MmapIndex
//! [`DistanceOracle::distances`]: chl_core::oracle::DistanceOracle::distances

#![forbid(unsafe_code)]
// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod client;
pub mod engine;
pub mod http;
pub mod index;
pub mod loadgen;
pub mod protocol;
pub mod router;
pub mod server;

pub use client::{Client, ClientError};
pub use index::{LoadedIndex, SharedIndex};
pub use loadgen::{run_bench, BenchOptions, BenchSummary};
pub use protocol::{ErrorCode, Request, Response, ServerInfo};
pub use router::{
    ClusterView, Router, RouterError, RouterHandle, RouterOptions, RouterStatsSnapshot,
    SpawnedRouter,
};
pub use server::{ServeOptions, Server, ServerHandle, SpawnedServer, StatsSnapshot};
