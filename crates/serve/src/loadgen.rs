//! The load generator behind `chl bench-serve`: N concurrent closed-loop
//! client connections, fixed duration, throughput + tail latencies.
//!
//! Each connection keeps a window of [`BenchOptions::pipeline`] QUERY frames
//! in flight ([`BenchOptions::batch`] pairs per frame, drawn round-robin
//! from a per-connection seeded pool): it reads one response, records that
//! frame's send→receive latency, and immediately sends a replacement frame
//! until the deadline passes, then drains the window. Percentiles are
//! nearest-rank over the merged per-frame latencies of every connection, so
//! the p999 of a 4-connection run reflects the single slowest requests
//! anywhere — the serving-latency scoreboard every later hot-path PR is
//! measured against.
//!
//! The generator only ever sends in-range ids (it sizes its workload from
//! the server's INFO frame), so any error frame counts as a bench `error` —
//! a healthy run reports zero.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use chl_query::workload::random_pairs;

use crate::client::{Client, ClientError};

/// Tunables for one bench run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Concurrent client connections (each on its own thread).
    pub connections: usize,
    /// How long to keep the window full before draining.
    pub duration: Duration,
    /// QUERY frames kept in flight per connection.
    pub pipeline: usize,
    /// Pairs per QUERY frame.
    pub batch: usize,
    /// Base seed; connection `i` draws its workload from `seed + i`.
    pub seed: u64,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            connections: 4,
            duration: Duration::from_secs(2),
            pipeline: 8,
            batch: 1,
            seed: 42,
        }
    }
}

/// Size of each connection's pre-generated pair pool (cycled round-robin,
/// so the bench never stalls on workload generation mid-measurement).
const POOL_PAIRS: usize = 1 << 14;

/// What one bench run measured.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// Connections that ran.
    pub connections: usize,
    /// Frames in flight per connection.
    pub pipeline: usize,
    /// Pairs per frame.
    pub batch: usize,
    /// Wall-clock time of the whole run (connect to last drain).
    pub elapsed: Duration,
    /// QUERY frames answered.
    pub requests: u64,
    /// Individual distances received.
    pub queries: u64,
    /// Error frames received (0 in a healthy run).
    pub errors: u64,
    /// Per-frame send→receive latencies, sorted ascending, in nanoseconds.
    pub latencies_sorted_ns: Vec<u64>,
}

impl BenchSummary {
    /// Distances per second over the whole run.
    pub fn throughput_qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Nearest-rank latency percentile, `q` in `(0, 1]`.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        let sorted = &self.latencies_sorted_ns;
        if sorted.is_empty() {
            return Duration::ZERO;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Duration::from_nanos(sorted.get(rank - 1).copied().unwrap_or(0))
    }

    /// Mean per-frame latency.
    pub fn latency_mean(&self) -> Duration {
        if self.latencies_sorted_ns.is_empty() {
            return Duration::ZERO;
        }
        let total: u128 = self.latencies_sorted_ns.iter().map(|&n| n as u128).sum();
        Duration::from_nanos((total / self.latencies_sorted_ns.len() as u128) as u64)
    }

    /// Slowest observed frame.
    pub fn latency_max(&self) -> Duration {
        Duration::from_nanos(self.latencies_sorted_ns.last().copied().unwrap_or(0))
    }

    /// Renders the stable `key:   value` report `chl bench-serve` prints
    /// (and the lifecycle tests parse).
    pub fn render(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        format!(
            "connections:    {}\n\
             pipeline:       {} in-flight x {} pairs/frame\n\
             duration:       {:.2?}\n\
             requests:       {}\n\
             queries:        {}\n\
             errors:         {}\n\
             throughput:     {:.0} queries/s\n\
             latency mean:   {:.3} us\n\
             latency p50:    {:.3} us\n\
             latency p99:    {:.3} us\n\
             latency p999:   {:.3} us\n\
             latency max:    {:.3} us",
            self.connections,
            self.pipeline,
            self.batch,
            self.elapsed,
            self.requests,
            self.queries,
            self.errors,
            self.throughput_qps(),
            us(self.latency_mean()),
            us(self.latency_percentile(0.50)),
            us(self.latency_percentile(0.99)),
            us(self.latency_percentile(0.999)),
            us(self.latency_max()),
        )
    }

    /// Renders the same figures as [`render`](Self::render) as a single
    /// JSON object on one line, for `chl bench-serve --json`. Latencies
    /// are in microseconds, matching the text report.
    pub fn render_json(&self) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        format!(
            "{{\"connections\":{},\"pipeline\":{},\"batch\":{},\
             \"elapsed_ms\":{:.3},\"requests\":{},\"queries\":{},\
             \"errors\":{},\"throughput_qps\":{:.0},\
             \"latency_us\":{{\"mean\":{:.3},\"p50\":{:.3},\"p99\":{:.3},\
             \"p999\":{:.3},\"max\":{:.3}}}}}",
            self.connections,
            self.pipeline,
            self.batch,
            self.elapsed.as_secs_f64() * 1e3,
            self.requests,
            self.queries,
            self.errors,
            self.throughput_qps(),
            us(self.latency_mean()),
            us(self.latency_percentile(0.50)),
            us(self.latency_percentile(0.99)),
            us(self.latency_percentile(0.999)),
            us(self.latency_max()),
        )
    }
}

/// What one connection thread measured.
struct ConnResult {
    latencies_ns: Vec<u64>,
    requests: u64,
    queries: u64,
    errors: u64,
}

/// Runs the full bench against a serving address.
pub fn run_bench(addr: SocketAddr, opts: &BenchOptions) -> Result<BenchSummary, ClientError> {
    let connections = opts.connections.max(1);
    let pipeline = opts.pipeline.max(1);
    let batch = opts.batch.max(1);

    let start = Instant::now();
    let deadline = start + opts.duration;
    let results: Vec<Result<ConnResult, ClientError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for i in 0..connections {
            let seed = opts.seed.wrapping_add(i as u64);
            handles
                .push(scope.spawn(move || connection_loop(addr, pipeline, batch, seed, deadline)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(ClientError::Io(std::io::Error::other(
                    "bench connection thread panicked",
                ))),
            })
            .collect()
    });
    let elapsed = start.elapsed();

    let mut latencies = Vec::new();
    let mut requests = 0u64;
    let mut queries = 0u64;
    let mut errors = 0u64;
    for result in results {
        let conn = result?;
        latencies.extend(conn.latencies_ns);
        requests += conn.requests;
        queries += conn.queries;
        errors += conn.errors;
    }
    latencies.sort_unstable();

    Ok(BenchSummary {
        connections,
        pipeline,
        batch,
        elapsed,
        requests,
        queries,
        errors,
        latencies_sorted_ns: latencies,
    })
}

fn connection_loop(
    addr: SocketAddr,
    pipeline: usize,
    batch: usize,
    seed: u64,
    deadline: Instant,
) -> Result<ConnResult, ClientError> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(10)))?;
    let info = client.info()?;
    let n = info.num_vertices as usize;
    if n == 0 {
        return Err(ClientError::Io(std::io::Error::other(
            "served index has no vertices to query",
        )));
    }

    let pool = random_pairs(n, POOL_PAIRS.max(batch), seed).pairs;
    let mut cursor = 0usize;
    let mut next_frame = || {
        let mut pairs = Vec::with_capacity(batch);
        for _ in 0..batch {
            // Round-robin over the pool; the pool is sized >= batch.
            pairs.push(pool.get(cursor).copied().unwrap_or((0, 0)));
            cursor = (cursor + 1) % pool.len().max(1);
        }
        pairs
    };

    let mut result = ConnResult {
        latencies_ns: Vec::new(),
        requests: 0,
        queries: 0,
        errors: 0,
    };
    let mut inflight: VecDeque<Instant> = VecDeque::with_capacity(pipeline);

    // Prime the window.
    for _ in 0..pipeline {
        let pairs = next_frame();
        client.send_query(&pairs)?;
        inflight.push_back(Instant::now());
    }

    // Steady state: one response in, one replacement out.
    while let Some(sent_at) = inflight.pop_front() {
        match client.read_distances() {
            Ok(ds) => {
                result
                    .latencies_ns
                    .push(sent_at.elapsed().as_nanos() as u64);
                result.requests += 1;
                result.queries += ds.len() as u64;
            }
            Err(ClientError::Server { .. }) => {
                result.errors += 1;
            }
            Err(other) => return Err(other),
        }
        if Instant::now() < deadline {
            let pairs = next_frame();
            client.send_query(&pairs)?;
            inflight.push_back(Instant::now());
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(latencies_ns: Vec<u64>) -> BenchSummary {
        let mut latencies_sorted_ns = latencies_ns;
        latencies_sorted_ns.sort_unstable();
        BenchSummary {
            connections: 2,
            pipeline: 4,
            batch: 1,
            elapsed: Duration::from_secs(1),
            requests: latencies_sorted_ns.len() as u64,
            queries: latencies_sorted_ns.len() as u64,
            errors: 0,
            latencies_sorted_ns,
        }
    }

    #[test]
    fn percentiles_use_nearest_rank_and_stay_ordered() {
        let s = summary((1..=1000).collect());
        assert_eq!(s.latency_percentile(0.50), Duration::from_nanos(500));
        assert_eq!(s.latency_percentile(0.99), Duration::from_nanos(990));
        assert_eq!(s.latency_percentile(0.999), Duration::from_nanos(999));
        assert_eq!(s.latency_max(), Duration::from_nanos(1000));
        assert!(s.latency_percentile(0.50) <= s.latency_percentile(0.999));
        assert_eq!(s.throughput_qps().round() as u64, 1000);
    }

    #[test]
    fn empty_run_reports_zeroes_not_panics() {
        let s = summary(Vec::new());
        assert_eq!(s.latency_percentile(0.5), Duration::ZERO);
        assert_eq!(s.latency_mean(), Duration::ZERO);
        assert_eq!(s.latency_max(), Duration::ZERO);
    }

    #[test]
    fn render_contains_the_parseable_keys() {
        let text = summary(vec![10, 20, 30]).render();
        for key in [
            "connections:",
            "throughput:",
            "latency p50:",
            "latency p99:",
            "latency p999:",
            "errors:",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
    }
}
