//! `chl route`: scatter-gather front door for a cluster of shard servers.
//!
//! Each backend is a `chl serve --shard` process holding one `.chl` v3
//! QDOL shard. The router speaks the same binary protocol as a single
//! server, so clients (and `chl bench-serve`) cannot tell a routed
//! cluster from one whole-index process: per-query QDOL placement picks
//! the owning shard, frames that span shards fan out and merge in
//! request order, and a dead backend degrades to a typed
//! SHARD_UNAVAILABLE error frame instead of a hang.
//!
//! Like `chl serve`, the line `listening on ADDR` is printed and flushed
//! before the first accept so scripts can scrape an ephemeral port.

// Serving hot path: no panics outside tests. Exemptions are reasoned
// `#[expect]`s (docs/ARCHITECTURE.md, "Safety & concurrency invariants").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::io::Write;
use std::time::Duration;

use chl_serve::{ClusterView, Router, RouterOptions};

use crate::opts::Opts;
use crate::CliError;

pub const USAGE: &str = "\
usage: chl route <backend-addr>... [--addr HOST:PORT] [--threads N]

Fronts a cluster of 'chl serve --shard' processes with one endpoint
speaking the same binary protocol (and HTTP status page) as a single
server. At startup every backend is interrogated over INFO: the
backends must form exactly one coherent QDOL cluster (one of each
shard id, same shard count and vertex count). Queries are placed on
the owning shard; batches that span shards fan out and merge in
request order; a dead backend yields typed SHARD_UNAVAILABLE error
frames, never a hang.

options:
  --addr HOST:PORT        listen address (port 0 picks one) [127.0.0.1:7558]
  --threads N             worker threads; each answers its connections'
                          frames inline, so N bounds all compute threads
                          and one connection uses one core             [4]
  --max-frame BYTES       largest accepted request frame           [1 MiB]
  --backend-timeout-ms N  per-backend read/write timeout            [5000]";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(
        args,
        &["addr", "threads", "max-frame", "backend-timeout-ms"],
        &[],
    )?;
    let backends: Vec<String> = opts.positionals().iter().map(|s| s.to_string()).collect();
    if backends.is_empty() {
        return Err(
            "missing backend addresses (one 'chl serve --shard' HOST:PORT per shard)".into(),
        );
    }
    let addr = opts.value("addr").unwrap_or("127.0.0.1:7558").to_string();
    let defaults = RouterOptions::default();
    let options = RouterOptions {
        threads: opts.parsed_or("threads", defaults.threads)?,
        max_frame: opts.parsed_or("max-frame", defaults.max_frame)?,
        backend_timeout: Duration::from_millis(opts.parsed_or(
            "backend-timeout-ms",
            defaults.backend_timeout.as_millis() as u64,
        )?),
    };
    if opts.value("threads").is_some() && options.threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let cluster = ClusterView::discover(&backends, options.backend_timeout)
        .map_err(|e| format!("cluster discovery failed: {e}"))?;
    println!(
        "routing {} shards over {} vertices (zeta {})",
        cluster.shard_count(),
        cluster.num_vertices(),
        cluster.map().zeta()
    );
    for shard in 0..cluster.shard_count() {
        if let Some(backend) = cluster.addr_of_shard(shard) {
            println!("  shard {shard}: {backend}");
        }
    }

    let router = Router::bind(addr.as_str(), cluster, options)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    println!("listening on {}", router.local_addr());
    // Parent processes scrape the ephemeral port from a pipe; a block-
    // buffered stdout would hold the line until exit.
    std::io::stdout().flush()?;

    let handle = router.handle();
    router.run()?;
    let stats = handle.stats();
    println!(
        "routed {} connections ({} http), {} frames, {} queries \
         ({} forwarded whole, {} fanned out), {} shard errors, \
         {} error frames, {} reloads",
        stats.connections,
        stats.http_requests,
        stats.frames,
        stats.queries,
        stats.forwarded_frames,
        stats.fanout_frames,
        stats.shard_errors,
        stats.error_frames,
        stats.reloads
    );
    Ok(())
}
