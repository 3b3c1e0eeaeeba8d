//! `chl serve`: keep a `.chl` index loaded and answer queries over TCP.
//!
//! The long-running counterpart of `chl query`: one process loads (or maps)
//! the index once and serves any number of client connections over the
//! binary protocol, with a minimal HTTP `GET` adapter on the same port for
//! curl-ability. The process runs until a client sends a SHUTDOWN frame,
//! then prints its serving statistics.
//!
//! The line `listening on ADDR` is printed (and flushed) before the first
//! accept, so scripts that spawn `chl serve --addr 127.0.0.1:0` can scrape
//! the ephemeral port from stdout.

use std::io::Write;
use std::sync::Arc;

use chl_serve::{ServeOptions, Server, SharedIndex};

use crate::opts::Opts;
use crate::CliError;

pub const USAGE: &str = "\
usage: chl serve <index.chl> [--addr HOST:PORT] [--threads N] [--mmap]
                 [--shard]

Serves point-to-point shortest-distance queries from a saved index over
TCP until a client sends a SHUTDOWN frame. Connections speaking the
binary protocol (preamble 'CHL1') get length-prefixed frames with
pipelining and batch coalescing; anything else is answered as HTTP/1.1
(GET /distance?s=U&t=V, /info, /healthz). A RELOAD frame revalidates
the index file and hot-swaps it without dropping in-flight requests.

options:
  --addr HOST:PORT    listen address (port 0 picks one) [127.0.0.1:7557]
  --threads N         worker threads; each answers its connections'
                      frames inline, so N bounds all compute threads
                      and one connection uses one core               [4]
  --max-frame BYTES   largest accepted request frame            [1 MiB]
  --mmap              serve zero-copy from the OS page cache
  --shard             required to serve a .chl v3 shard file; the server
                      answers NOT_THIS_SHARD for unowned vertices and is
                      meant to sit behind 'chl route'";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["addr", "threads", "max-frame"], &["mmap", "shard"])?;
    let index_path = opts.positional(0, "index file argument")?.to_string();
    opts.reject_extra_positionals(1)?;
    let addr = opts.value("addr").unwrap_or("127.0.0.1:7557").to_string();
    let defaults = ServeOptions::default();
    let options = ServeOptions {
        threads: opts.parsed_or("threads", defaults.threads)?,
        max_frame: opts.parsed_or("max-frame", defaults.max_frame)?,
    };
    if opts.value("threads").is_some() && options.threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let shared = Arc::new(
        SharedIndex::open(&index_path, opts.switch("mmap"))
            .map_err(|e| format!("cannot load index {index_path}: {e}"))?,
    );
    let snapshot = shared.snapshot();
    // Serving a shard is an explicit decision: a shard answers foreign
    // vertices with NOT_THIS_SHARD, which only makes sense behind
    // 'chl route'. Refuse the mismatched combinations up front instead of
    // surprising clients at query time.
    match (opts.switch("shard"), snapshot.shard()) {
        (true, None) => {
            return Err(format!(
                "--shard given but {index_path} is not a shard file (no shard section)"
            )
            .into())
        }
        (false, Some(spec)) => {
            return Err(format!(
                "{index_path} is shard {} of {}; pass --shard to serve it behind 'chl route'",
                spec.shard_id, spec.shard_count
            )
            .into())
        }
        (true, Some(spec)) => println!(
            "shard {} of {}: owns {} of {} vertex positions",
            spec.shard_id,
            spec.shard_count,
            spec.owned_count(),
            snapshot.num_vertices()
        ),
        (false, None) => {}
    }
    println!(
        "serving {index_path}: {} vertices, {} labels, backend {}",
        snapshot.num_vertices(),
        snapshot.total_labels(),
        snapshot.backend_name()
    );
    drop(snapshot);

    let server = Server::bind(addr.as_str(), shared, options)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    println!("listening on {}", server.local_addr());
    // Parent processes scrape the ephemeral port from a pipe; a block-
    // buffered stdout would hold the line until exit.
    std::io::stdout().flush()?;

    let handle = server.handle();
    server.run()?;
    let stats = handle.stats();
    println!(
        "served {} connections ({} http), {} frames, {} queries in {} batches \
         (max {} frames coalesced), {} error frames, {} reloads",
        stats.connections,
        stats.http_requests,
        stats.frames,
        stats.queries,
        stats.batch_calls,
        stats.max_coalesced,
        stats.error_frames,
        stats.reloads
    );
    Ok(())
}
