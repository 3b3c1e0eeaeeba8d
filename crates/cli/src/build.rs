//! `chl build`: graph file → `ChlBuilder` → `.chl` index file.

use std::path::Path;
use std::time::Instant;

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::persist::{self, SaveOptions};
use chl_query::QdolShardMap;

use crate::graph_files::{load_graph, GraphFormat};
use crate::opts::Opts;
use crate::CliError;

pub const USAGE: &str = "\
usage: chl build <graph-file> --out <index.chl> [options]

Builds the canonical hub labeling of a graph and writes it as a .chl index.

options:
  --out FILE          output index path (required)
  --algorithm NAME    pll | sparapll | lcc | gll | plant | hybrid  [hybrid]
  --ranking NAME      degree | betweenness | auto                  [auto]
  --seed N            seed for ranking sampling                    [42]
  --threads N         worker threads, 0 = all cores                [0]
  --format NAME       dimacs | binary | edgelist    [inferred from extension]
  --directed          read the graph as directed
  --one-based         edge-list vertex ids start at 1 (KONECT)
  --compress          delta+varint encode the entries section (smaller file,
                      queries stream-decode under --mmap)
  --paths             also record per-entry parent pointers so 'chl paths'
                      and the PATH protocol op can reconstruct shortest
                      paths (adds 4 bytes per label)
  --shards Q          additionally write Q QDOL shard files
                      (<out-stem>.shard-I-of-Q.chl) whose union is exactly
                      the unsharded index; serve each with
                      'chl serve --shard' behind 'chl route'";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(
        args,
        &[
            "out",
            "algorithm",
            "ranking",
            "seed",
            "threads",
            "format",
            "shards",
        ],
        &["directed", "one-based", "compress", "paths"],
    )?;
    let graph_path = opts.positional(0, "graph file argument")?.to_string();
    opts.reject_extra_positionals(1)?;
    let out = opts
        .value("out")
        .ok_or("missing --out <index.chl>")?
        .to_string();

    let algorithm: Algorithm = opts
        .value("algorithm")
        .unwrap_or("hybrid")
        .parse()
        .map_err(|e| format!("{e}"))?;
    let seed: u64 = opts.parsed_or("seed", 42)?;
    let threads: usize = opts.parsed_or("threads", 0)?;
    let ranking = match opts.value("ranking").unwrap_or("auto") {
        "degree" => RankingStrategy::Degree,
        "betweenness" => RankingStrategy::Betweenness { seed },
        "auto" => RankingStrategy::Auto { seed },
        other => {
            return Err(
                format!("unknown ranking '{other}' (expected degree, betweenness or auto)").into(),
            )
        }
    };
    let format = opts.value("format").map(GraphFormat::parse).transpose()?;

    let load_start = Instant::now();
    let graph = load_graph(
        Path::new(&graph_path),
        format,
        opts.switch("directed"),
        opts.switch("one-based"),
    )?;
    println!(
        "loaded {}: {} vertices, {} edges in {:.2?}",
        graph_path,
        graph.num_vertices(),
        graph.num_edges(),
        load_start.elapsed()
    );

    let build_start = Instant::now();
    let flat = ChlBuilder::new(&graph)
        .ranking(ranking)
        .algorithm(algorithm)
        .threads(threads)
        .validate()?
        .build()?
        .index;
    let build_time = build_start.elapsed();
    // --paths re-walks the label set against the graph to record, for every
    // entry, the first hop of the hub-to-vertex shortest path; shard files
    // derived below inherit the parents through restrict_to_shard().
    let flat = if opts.switch("paths") {
        let t = Instant::now();
        let flat = chl_core::paths::attach_parents(&graph, flat)
            .map_err(|e| format!("cannot attach path data: {e}"))?;
        println!("attached path parents in {:.2?}", t.elapsed());
        flat
    } else {
        flat
    };
    println!(
        "built {} labeling in {:.2?}: {} labels, avg {:.2} per vertex, max {}",
        algorithm,
        build_time,
        flat.total_labels(),
        flat.average_label_size(),
        flat.max_label_size()
    );

    // save_with() writes the current format: 8-byte-aligned sections
    // served zero-copy (`chl query --mmap`), a header CRC, and the entries
    // section delta+varint encoded under --compress.
    let options = SaveOptions {
        compress: opts.switch("compress"),
    };
    flat.save_with(&out, &options)
        .map_err(|e| format!("cannot write index {out}: {e}"))?;
    let file_len = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    // The ratio report reads the header back from disk; the index itself is
    // already safely written, so a hiccup here only degrades the message.
    match (options.compress, persist::load_header(&out)) {
        (true, Ok(header)) => {
            let encoded = header.entries_section_len();
            let decoded = header.decoded_entries_len();
            let ratio = decoded as f64 / (encoded.max(1)) as f64;
            println!(
                "wrote {out}: {file_len} bytes (.chl v{}, compressed entries: \
                 {encoded} bytes encoded vs {decoded} decoded, {ratio:.2}x)",
                persist::VERSION
            );
        }
        _ => println!("wrote {out}: {file_len} bytes (.chl v{})", persist::VERSION),
    }

    let shards: usize = opts.parsed_or("shards", 0)?;
    if shards > 0 {
        write_shards(&flat, &out, shards, &options)?;
    }
    Ok(())
}

/// Writes the `--shards Q` QDOL shard files next to the unsharded index.
/// The layout is derived from `(Q, n)` alone — the same derivation
/// `chl route` repeats at startup — so builder and router always agree on
/// which shard owns a query.
fn write_shards(
    flat: &chl_core::flat::FlatIndex,
    out: &str,
    shards: usize,
    options: &SaveOptions,
) -> Result<(), CliError> {
    let map = QdolShardMap::new(shards, flat.num_vertices());
    println!(
        "sharding: {} shards over {} vertices (zeta {})",
        map.shard_count(),
        map.num_vertices(),
        map.zeta()
    );
    for shard_id in 0..map.shard_count() {
        let spec = map.spec(shard_id);
        let owned = spec.owned_count();
        let path = shard_path(out, shard_id, map.shard_count());
        let shard = flat
            .restrict_to_shard(spec)
            .map_err(|e| format!("cannot derive shard {shard_id}: {e}"))?;
        shard
            .save_with(&path, options)
            .map_err(|e| format!("cannot write shard {path}: {e}"))?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "wrote {path}: {bytes} bytes (shard {shard_id} of {}, owns {owned} vertices, \
             {} labels)",
            map.shard_count(),
            shard.total_labels()
        );
    }
    Ok(())
}

/// `g.chl` + shard 1 of 3 → `g.shard-1-of-3.chl` (the `.chl` suffix moves
/// to the end; a stem without one just gains the shard suffix).
fn shard_path(out: &str, shard_id: usize, shard_count: usize) -> String {
    let stem = out.strip_suffix(".chl").unwrap_or(out);
    format!("{stem}.shard-{shard_id}-of-{shard_count}.chl")
}
