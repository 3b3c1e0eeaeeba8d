//! Property-based tests for the serving tier: for arbitrary graphs and
//! arbitrary query workloads, a live socket conversation with the server
//! answers exactly what the sequential in-memory index answers — over every
//! persisted backend (flat file copy-loaded, compressed file copy-loaded,
//! flat file mmapped, compressed file mmapped) — including self-queries,
//! and with out-of-range ids answering a typed error frame that names the
//! first offending id (where the in-memory oracle answers `INFINITY`).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use chl_core::persist::SaveOptions;
use chl_core::pll::sequential_pll;
use chl_graph::types::INFINITY;
use chl_graph::{CsrGraph, GraphBuilder};
use chl_ranking::degree_ranking;
use chl_serve::protocol::ErrorCode;
use chl_serve::{BenchSummary, Client, ServeOptions, Server, SharedIndex};

/// Vertex-count ceiling for generated graphs; workload ids draw from a
/// slightly larger range so every case can exercise out-of-range frames.
const MAX_N: u32 = 20;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (
        2usize..MAX_N as usize,
        proptest::collection::vec((0u32..MAX_N, 0u32..MAX_N, 1u32..50), 1..60),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new_undirected();
            b.ensure_vertices(n);
            for (u, v, w) in edges {
                b.add_edge(u % n as u32, v % n as u32, w);
            }
            b.build().expect("positive weights")
        })
}

/// Random query pairs, deliberately over-ranged: ids in `0..MAX_N + 3` while
/// graphs have at most `MAX_N - 1` vertices, so workloads mix valid pairs,
/// self-queries and stale ids in one stream.
fn arb_workload() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..MAX_N + 3, 0u32..MAX_N + 3), 1..40)
}

fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "chl-serve-proptest-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).expect("write scratch index");
    path
}

/// Every persisted serving backend: (compressed entries?, mmap loader?).
const BACKENDS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn served_answers_equal_the_sequential_map_on_every_backend(
        g in arb_graph(),
        pairs in arb_workload(),
    ) {
        let ranking = degree_ranking(&g);
        let flat = sequential_pll(&g, &ranking).index;
        let n = flat.num_vertices() as u32;

        // Force the interesting degenerate shapes into every workload:
        // in-range self-queries (distance 0) and an out-of-range self-query
        // (INFINITY in memory, a typed error over the wire).
        let mut pairs = pairs;
        pairs.push((0, 0));
        pairs.push((n - 1, n - 1));
        pairs.push((n + 1, n + 1));

        for (compressed, mmap) in BACKENDS {
            let options = if compressed {
                SaveOptions::compressed()
            } else {
                SaveOptions::default()
            };
            let tag = format!("backend-c{}-m{}", compressed as u8, mmap as u8);
            let path = scratch_file(&tag, &flat.to_bytes_with(&options));

            let shared = Arc::new(
                SharedIndex::open(&path, mmap).expect("open served index"),
            );
            let server = Server::bind("127.0.0.1:0", shared, ServeOptions::default())
                .expect("bind ephemeral port")
                .spawn()
                .expect("spawn server");

            let mut client = Client::connect(server.handle().addr()).expect("connect");
            client.set_timeout(Some(Duration::from_secs(10))).expect("timeout");

            // One frame per pair, all pipelined in a single write: each
            // frame independently answers its distance or its typed error.
            let frames: Vec<Vec<(u32, u32)>> =
                pairs.iter().map(|&p| vec![p]).collect();
            let responses = client.pipeline(&frames).expect("pipeline");
            prop_assert_eq!(responses.len(), pairs.len());
            for (&(u, v), response) in pairs.iter().zip(&responses) {
                if u < n && v < n {
                    let expect = flat.query(u, v);
                    match response {
                        Ok(ds) => prop_assert_eq!(
                            ds.as_slice(),
                            &[expect][..],
                            "({}, {}) over compressed={} mmap={}",
                            u, v, compressed, mmap
                        ),
                        Err(e) => prop_assert!(
                            false,
                            "in-range ({u}, {v}) answered error {e:?} over \
                             compressed={compressed} mmap={mmap}"
                        ),
                    }
                } else {
                    // The sequential map answers INFINITY; the protocol is
                    // stricter and names the first offending id.
                    prop_assert_eq!(flat.query(u, v), INFINITY);
                    let offending = if u < n { v } else { u };
                    match response {
                        Err((code, detail)) => {
                            prop_assert_eq!(*code, ErrorCode::VertexOutOfRange);
                            prop_assert_eq!(*detail, offending as u64);
                        }
                        Ok(ds) => prop_assert!(
                            false,
                            "out-of-range ({u}, {v}) answered data {ds:?} over \
                             compressed={compressed} mmap={mmap}"
                        ),
                    }
                }
            }

            // The in-range subset again as ONE multi-pair frame: the batched
            // path answers the same bytes as the frame-per-pair path.
            let valid: Vec<(u32, u32)> = pairs
                .iter()
                .copied()
                .filter(|&(u, v)| u < n && v < n)
                .collect();
            if !valid.is_empty() {
                let served = client.query_batch(&valid).expect("batch");
                let expected: Vec<u64> =
                    valid.iter().map(|&(u, v)| flat.query(u, v)).collect();
                prop_assert_eq!(served, expected);
            }

            drop(client);
            let stats = server.shutdown().expect("shutdown");
            prop_assert_eq!(stats.connections, 1);
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Nearest-rank selection computed by a histogram walk instead of indexing
/// into a sorted vector: the smallest sample value whose cumulative count
/// reaches `ceil(q * len)`. An independent oracle for
/// [`BenchSummary::latency_percentile`].
fn nearest_rank_by_histogram(samples: &[u64], q: f64) -> u64 {
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let mut histogram = std::collections::BTreeMap::<u64, usize>::new();
    for &s in samples {
        *histogram.entry(s).or_insert(0) += 1;
    }
    let mut seen = 0usize;
    for (value, count) in histogram {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    0 // unreachable for non-empty samples: the loop covers every rank
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_bench` merges each connection's latency samples into one sorted
    /// vector and reports nearest-rank percentiles over the merge. Merging
    /// must lose nothing: for every quantile, the merged report equals the
    /// nearest-rank percentile over the plain concatenation of all
    /// per-connection samples (computed here by an independent histogram
    /// walk), regardless of how the samples were split across connections.
    #[test]
    fn merged_percentiles_equal_nearest_rank_over_concatenated_samples(
        per_connection in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 1..40),
            1..6,
        ),
        extra_q_millis in 1u64..=1000,
    ) {
        let extra_q = extra_q_millis as f64 / 1000.0;
        // The same merge `run_bench` performs: extend, then one sort.
        let mut merged: Vec<u64> = Vec::new();
        for conn in &per_connection {
            merged.extend_from_slice(conn);
        }
        let concatenated = merged.clone();
        merged.sort_unstable();
        let summary = BenchSummary {
            connections: per_connection.len(),
            pipeline: 1,
            batch: 1,
            elapsed: Duration::from_secs(1),
            requests: merged.len() as u64,
            queries: merged.len() as u64,
            errors: 0,
            latencies_sorted_ns: merged,
        };

        for q in [0.50, 0.99, 0.999, extra_q] {
            let reported = summary.latency_percentile(q).as_nanos() as u64;
            let expected = nearest_rank_by_histogram(&concatenated, q);
            prop_assert_eq!(
                reported, expected,
                "q={} over {} samples in {} connections",
                q, concatenated.len(), per_connection.len()
            );
        }
        // The max is the p100 and the p50 can never exceed the p999.
        prop_assert_eq!(
            summary.latency_max(),
            summary.latency_percentile(1.0)
        );
        prop_assert!(summary.latency_percentile(0.5) <= summary.latency_percentile(0.999));
    }
}
