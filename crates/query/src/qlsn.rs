//! QLSN — Querying with Labels on a Single Node.
//!
//! The mode every prior hub-labeling framework supports: the complete
//! labeling is replicated on every node and a query is answered entirely by
//! the node where it originates. No communication, lowest latency, but the
//! labeling must fit on one machine and a single query exploits no
//! multi-node parallelism.

use std::time::{Duration, Instant};

use chl_cluster::ClusterSpec;
use chl_core::oracle::DistanceOracle;
use chl_core::{FlatIndex, LabelingError};
use chl_distributed::DistributedLabeling;
use chl_graph::types::{Distance, VertexId};

use crate::report::QueryModeReport;
use crate::workload::QueryWorkload;
use crate::QueryEngine;

/// The QLSN engine: one fully assembled index, replicated per node.
pub struct QlsnEngine {
    index: FlatIndex,
    spec: ClusterSpec,
}

impl QlsnEngine {
    /// Builds the engine from a distributed labeling by assembling (and
    /// conceptually replicating) the full index; fails as
    /// [`DistributedLabeling::assemble`] does.
    pub fn new(labeling: &DistributedLabeling, spec: ClusterSpec) -> Result<Self, LabelingError> {
        Ok(QlsnEngine {
            index: labeling.assemble()?,
            spec,
        })
    }

    /// Builds the engine directly from an assembled index.
    pub fn from_index(index: FlatIndex, spec: ClusterSpec) -> Self {
        QlsnEngine { index, spec }
    }

    /// Access to the underlying index (used by tests).
    pub fn index(&self) -> &FlatIndex {
        &self.index
    }

    /// Measures the average local query time over the workload.
    fn measure_local(&self, workload: &QueryWorkload) -> (Duration, Vec<Distance>) {
        let start = Instant::now();
        let answers: Vec<Distance> = workload
            .pairs
            .iter()
            .map(|&(u, v)| self.index.query(u, v))
            .collect();
        (start.elapsed(), answers)
    }
}

impl DistanceOracle for QlsnEngine {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        self.index.query(u, v)
    }

    fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }

    /// Full labeling replicated on every node.
    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() * self.spec.nodes.max(1)
    }
}

impl QueryEngine for QlsnEngine {
    fn name(&self) -> &'static str {
        "QLSN"
    }

    fn modeled_latency(&self) -> Duration {
        // Purely local: estimate by timing a small sample of random-ish pairs.
        let n = self.index.num_vertices().max(1) as u32;
        let samples = 256.min(n as usize * n as usize).max(1);
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..samples {
            let u = (i as u32).wrapping_mul(2654435761) % n;
            let v = (i as u32).wrapping_mul(40503) % n;
            acc = acc.wrapping_add(self.index.query(u, v));
        }
        std::hint::black_box(acc);
        start.elapsed() / samples as u32
    }

    fn memory_per_node(&self) -> Vec<usize> {
        // Full labeling on every node.
        vec![self.index.memory_bytes(); self.spec.nodes]
    }

    fn evaluate(&self, workload: &QueryWorkload) -> QueryModeReport {
        let (compute, answers) = self.measure_local(workload);
        std::hint::black_box(&answers);
        // A batch is answered by the node it originates on; with queries
        // arriving uniformly across nodes, the cluster processes `nodes`
        // batches concurrently, so the modeled throughput multiplies the
        // single-node rate by the node count.
        let single_node_qps = if compute.as_secs_f64() > 0.0 {
            workload.len() as f64 / compute.as_secs_f64()
        } else {
            f64::INFINITY
        };
        QueryModeReport {
            mode: self.name().to_string(),
            queries: workload.len(),
            throughput_qps: single_node_qps,
            latency: self.modeled_latency(),
            measured_batch_compute: compute,
            memory_per_node_bytes: self.memory_per_node(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_pairs;
    use chl_core::pll::sequential_pll;
    use chl_graph::generators::erdos_renyi;
    use chl_graph::sssp::dijkstra;
    use chl_ranking::degree_ranking;

    fn engine() -> (chl_graph::CsrGraph, QlsnEngine) {
        let g = erdos_renyi(60, 0.08, 10, 3);
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        (g, QlsnEngine::from_index(index, ClusterSpec::with_nodes(4)))
    }

    #[test]
    fn queries_match_dijkstra() {
        let (g, engine) = engine();
        let d = dijkstra(&g, 5);
        for v in 0..60u32 {
            assert_eq!(engine.query(5, v), d[v as usize]);
        }
        assert_eq!(engine.name(), "QLSN");
    }

    #[test]
    fn memory_is_replicated_on_every_node() {
        let (_, engine) = engine();
        let mem = engine.memory_per_node();
        assert_eq!(mem.len(), 4);
        assert!(mem[0] > 0);
        assert!(mem.iter().all(|&m| m == mem[0]));
    }

    #[test]
    fn evaluate_reports_consistent_numbers() {
        let (_, engine) = engine();
        let w = random_pairs(60, 5000, 1);
        let report = engine.evaluate(&w);
        assert_eq!(report.queries, 5000);
        assert!(report.throughput_qps > 0.0);
        assert!(report.latency > Duration::ZERO);
        assert_eq!(report.memory_per_node_bytes.len(), 4);
    }
}
