//! `chl query`: load a `.chl` index and answer PPSD queries.
//!
//! Three query sources, checked in this order: explicit `u v` pairs on the
//! command line, a workload file (`--workload`), or a generated random batch
//! (`--random`). Batch runs print latency statistics; explicit pairs print
//! one distance per line.
//!
//! Batch throughput goes through [`DistanceOracle::distances`], which fans
//! the workload out across `--threads` worker threads (defaulting to
//! `RAYON_NUM_THREADS`, else all cores). The output is byte-identical at
//! every thread count: chunks are contiguous and reassembled in order.
//!
//! Every query pair is validated against the index's vertex count before the
//! batch runs. Workload files are validated while line numbers are still
//! known, so a stale file fails with an error naming the offending line —
//! never a panic from the query kernel.
//!
//! `--mmap` swaps the copy-loading [`FlatIndex`] for a zero-copy
//! [`MmapIndex`]: the file is validated once and served straight from the
//! OS page cache through a borrowed view — reinterpreted in place for flat
//! files, stream-decoded per label run for compressed ones (`chl build
//! --compress`). Both backends answer through the same [`DistanceOracle`]
//! surface, so every mode below works identically on either.

use std::time::{Duration, Instant};

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_graph::types::{VertexId, INFINITY};
use chl_query::workload::{load_workload_checked, random_pairs, QueryWorkload};

use crate::opts::Opts;
use crate::CliError;

pub const USAGE: &str = "\
usage: chl query <index.chl> [u v [u v ...]]
       chl query <index.chl> --workload <pairs.txt>
       chl query <index.chl> --random <count> [--seed N]
       chl query <index.chl> --mmap ...

Answers point-to-point shortest-distance queries from a saved index.
Explicit pairs print one distance per line; batch modes (--workload /
--random) print latency statistics.

options:
  --workload FILE     text file with one 'u v' pair per line (# comments)
  --random N          generate N uniform random pairs
  --seed N            seed for --random                           [42]
  --threads N         worker threads for batch queries       [all cores]
  --mmap              serve zero-copy from the OS page cache (v2 files)";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["workload", "random", "seed", "threads"], &["mmap"])?;
    let index_path = opts.positional(0, "index file argument")?.to_string();
    let backend: Backend = if opts.switch("mmap") {
        Backend::Mapped(
            MmapIndex::open(&index_path)
                .map_err(|e| format!("cannot map index {index_path}: {e}"))?,
        )
    } else {
        Backend::Owned(
            FlatIndex::load(&index_path)
                .map_err(|e| format!("cannot load index {index_path}: {e}"))?,
        )
    };
    let index: &dyn DistanceOracle = backend.oracle();
    let n = index.num_vertices();

    if opts.value("seed").is_some() && opts.value("random").is_none() {
        return Err("--seed only applies together with --random".into());
    }
    let threads: usize = opts.parsed_or("threads", 0)?;
    if opts.value("threads").is_some() && threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let explicit_pairs = parse_explicit_pairs(&opts.positionals()[1..])?;
    if !explicit_pairs.is_empty() {
        if opts.value("workload").is_some() || opts.value("random").is_some() {
            return Err("give either explicit pairs or a batch flag, not both".into());
        }
        if opts.value("threads").is_some() {
            // One query occupies one thread; silently ignoring the flag
            // would let `--threads 8` masquerade as a benchmark setting.
            return Err("--threads only applies to batch modes (--workload / --random)".into());
        }
        for &(u, v) in &explicit_pairs {
            check_vertex(u, n)?;
            check_vertex(v, n)?;
            let d = index.distance(u, v);
            if d == INFINITY {
                println!("dist({u}, {v}) = unreachable");
            } else {
                println!("dist({u}, {v}) = {d}");
            }
        }
        return Ok(());
    }

    let workload = match (opts.value("workload"), opts.value("random")) {
        (Some(_), Some(_)) => return Err("--workload and --random are mutually exclusive".into()),
        (Some(path), None) => {
            // The checked loader validates ids while line numbers are still
            // known: a stale workload names its offending line.
            load_workload_checked(path, n)
                .map_err(|e| format!("cannot load workload {path}: {e}"))?
        }
        (None, Some(_)) => {
            if n == 0 {
                // random_pairs would otherwise emit (0, 0) pairs that name a
                // vertex this index does not have.
                return Err("the index has no vertices to query".into());
            }
            let count: usize = opts.parsed_or("random", 0)?;
            let seed: u64 = opts.parsed_or("seed", 42)?;
            random_pairs(n, count, seed)
        }
        (None, None) => {
            return Err("nothing to query: give 'u v' pairs, --workload or --random".into())
        }
    };
    if workload.is_empty() {
        return Err("the workload contains no query pairs".into());
    }

    rayon::with_threads(threads, || run_batch(index, backend.name(), &workload));
    Ok(())
}

/// The two serving backends behind one oracle surface. Holding the concrete
/// enum (rather than a `Box<dyn ...>`) keeps the backend's name printable in
/// the batch statistics.
enum Backend {
    Owned(FlatIndex),
    Mapped(MmapIndex),
}

impl Backend {
    fn oracle(&self) -> &dyn DistanceOracle {
        match self {
            Backend::Owned(index) => index,
            Backend::Mapped(index) => index,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Backend::Owned(_) => "owned (copy-load)",
            Backend::Mapped(m) => mapped_name(m),
        }
    }
}

fn mapped_name(m: &MmapIndex) -> &'static str {
    match (m.is_mapped(), m.is_compressed()) {
        (true, false) => "mmap (zero-copy view)",
        (true, true) => "mmap (streamed varint decode)",
        (false, false) => "mmap fallback (aligned buffered read)",
        (false, true) => "mmap fallback (buffered streamed decode)",
    }
}

pub(crate) fn parse_explicit_pairs(
    tokens: &[String],
) -> Result<Vec<(VertexId, VertexId)>, CliError> {
    if !tokens.len().is_multiple_of(2) {
        return Err("explicit queries need an even number of vertex ids (u v pairs)".into());
    }
    tokens
        .chunks(2)
        .map(|c| {
            let u = c[0]
                .parse::<VertexId>()
                .map_err(|_| format!("invalid vertex id '{}'", c[0]))?;
            let v = c[1]
                .parse::<VertexId>()
                .map_err(|_| format!("invalid vertex id '{}'", c[1]))?;
            Ok((u, v))
        })
        .collect()
}

pub(crate) fn check_vertex(v: VertexId, n: usize) -> Result<(), CliError> {
    if (v as usize) < n {
        Ok(())
    } else {
        Err(format!("vertex id {v} out of range for an index with {n} vertices").into())
    }
}

/// Cap on individually timed queries: per-query `Instant` reads cost tens of
/// nanoseconds and 16 bytes each, so percentiles are taken from an evenly
/// strided sample while throughput comes from whole-batch timing.
const MAX_LATENCY_SAMPLES: usize = 1_000_000;

/// Runs under the `--threads` count set by the caller's `with_threads`.
fn run_batch(index: &dyn DistanceOracle, backend: &str, workload: &QueryWorkload) {
    // Warm-up pass: fault the index in and collect answer statistics, so the
    // timed passes below measure steady-state serving. This is the same
    // parallel batch path the timed pass uses.
    let answers = index.distances(&workload.pairs);
    let mut reachable = 0usize;
    let mut distance_sum = 0u64;
    for &d in &answers {
        if d != INFINITY {
            reachable += 1;
            distance_sum = distance_sum.wrapping_add(d);
        }
    }

    // Throughput pass: one clock read around the whole parallel batch, so
    // timer overhead does not dilute the queries/s figure.
    let batch_start = Instant::now();
    let timed = index.distances(&workload.pairs);
    let batch_time = batch_start.elapsed();
    debug_assert_eq!(timed, answers, "batch answers must be deterministic");
    std::hint::black_box(&timed);

    // Latency pass: per-query timing over an evenly strided sample. A single
    // query is answered by one thread, so this is deliberately sequential.
    let total = workload.len();
    let stride = total.div_ceil(MAX_LATENCY_SAMPLES).max(1);
    let mut latencies: Vec<Duration> = Vec::with_capacity(total.div_ceil(stride));
    for &(u, v) in workload.pairs.iter().step_by(stride) {
        let start = Instant::now();
        std::hint::black_box(index.distance(u, v));
        latencies.push(start.elapsed());
    }
    latencies.sort_unstable();

    println!("queries:        {total}");
    println!("backend:        {backend}");
    println!("threads:        {}", rayon::current_num_threads());
    println!(
        "reachable:      {reachable} ({:.1}%)",
        100.0 * reachable as f64 / total as f64
    );
    println!("distance sum:   {distance_sum}");
    println!("batch time:     {batch_time:.2?}");
    println!(
        "throughput:     {:.0} queries/s",
        total as f64 / batch_time.as_secs_f64().max(1e-12)
    );
    if stride > 1 {
        println!(
            "latency sample: every {stride}th query ({} samples)",
            latencies.len()
        );
    }
    println!("latency mean:   {:.3} us", mean_us(&latencies));
    for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        println!(
            "latency {name}:    {:.3} us",
            percentile(&latencies, q).as_secs_f64() * 1e6
        );
    }
    println!(
        "latency max:    {:.3} us",
        latencies
            .last()
            .copied()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64()
            * 1e6
    );
}

fn mean_us(latencies: &[Duration]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let total: Duration = latencies.iter().sum();
    total.as_secs_f64() * 1e6 / latencies.len() as f64
}

/// Nearest-rank percentile of a sorted latency list.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(mean_us(&[]), 0.0);
        assert!(
            (mean_us(&[Duration::from_micros(4), Duration::from_micros(6)]) - 5.0).abs() < 1e-9
        );
    }

    #[test]
    fn explicit_pair_parsing() {
        let toks: Vec<String> = ["1", "2", "3", "4"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_explicit_pairs(&toks).unwrap(), vec![(1, 2), (3, 4)]);
        assert!(parse_explicit_pairs(&toks[..1]).is_err());
        let bad: Vec<String> = ["a", "2"].iter().map(|s| s.to_string()).collect();
        assert!(parse_explicit_pairs(&bad).is_err());
        assert!(check_vertex(3, 4).is_ok());
        assert!(check_vertex(4, 4).is_err());
    }
}
