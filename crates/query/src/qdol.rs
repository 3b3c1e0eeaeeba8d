//! QDOL — Querying with Distributed Overlapping Labels.
//!
//! The vertex set is split into ζ partitions with `C(ζ,2) ≈ q`; every node is
//! assigned one unordered partition pair `{i, j}` and stores the **complete**
//! label sets of all vertices in those two partitions. A query `(u, v)` is
//! routed (point-to-point) to a node whose pair contains both endpoint
//! partitions and is answered there alone. Compared to QFDL this trades
//! memory (each node stores `2/ζ ≈ 2/√(2q)` of the labeling instead of `1/q`)
//! for cheaper communication and better locality, which is why the paper
//! measures it as the fastest batch mode.

use std::time::{Duration, Instant};

use chl_cluster::ClusterSpec;
use chl_core::labels::LabelSet;
use chl_core::oracle::DistanceOracle;
use chl_core::persist::ShardSpec;
use chl_core::HubLabelIndex;
use chl_distributed::DistributedLabeling;
use chl_graph::types::{Distance, VertexId};

use crate::report::QueryModeReport;
use crate::workload::QueryWorkload;
use crate::QueryEngine;

const QUERY_WIRE_BYTES: usize = 8;
const RESPONSE_WIRE_BYTES: usize = 8;

/// The QDOL engine.
pub struct QdolEngine {
    /// Full (assembled) label sets, indexed by vertex. Shared storage for the
    /// simulation; the per-node accounting below reflects what each node
    /// would actually hold.
    full: Vec<LabelSet>,
    /// Partition geometry and the node ↔ partition-pair assignment.
    map: QdolShardMap,
    spec: ClusterSpec,
}

/// Computes ζ from the cluster size: the largest ζ with `C(ζ,2) <= q`,
/// at least 2 (the paper's formula `ζ = (1 + √(1+8q)) / 2` rounded down).
pub fn zeta_for_nodes(q: usize) -> usize {
    let z = ((1.0 + (1.0 + 8.0 * q as f64).sqrt()) / 2.0).floor() as usize;
    z.max(2)
}

/// The static QDOL layout for `shard_count` shards over `num_vertices`
/// vertices: ζ contiguous vertex partitions, one unordered partition pair
/// per shard, and the query → shard placement rule.
///
/// This is the process-cluster counterpart of [`QdolEngine`]'s in-process
/// simulation, and the single source of truth both sides of a real sharded
/// deployment derive from: `chl build --shards q` calls [`Self::spec`] to
/// decide which label runs each `.chl` shard file keeps, and `chl route`
/// rebuilds the same map (it is fully determined by `(shard_count,
/// num_vertices)`) to send each query to a shard that owns both endpoints.
/// [`QdolEngine`] routes through the same map, so the simulation, the
/// builder, and the router can never disagree on placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QdolShardMap {
    num_vertices: usize,
    zeta: usize,
    /// `pair_of_shard[shard] = (i, j)` partition pair owned by `shard`.
    pair_of_shard: Vec<(usize, usize)>,
}

impl QdolShardMap {
    /// Derives the layout for a cluster of `shard_count` shards (clamped to
    /// at least 1) over `num_vertices` vertices.
    pub fn new(shard_count: usize, num_vertices: usize) -> Self {
        let q = shard_count.max(1);
        let zeta = zeta_for_nodes(q);
        // Enumerate unordered pairs (i, j), i < j, assigning them to shards
        // round-robin; with C(ζ,2) <= q every pair gets a dedicated shard.
        let mut pairs = Vec::new();
        for i in 0..zeta {
            for j in (i + 1)..zeta {
                pairs.push((i, j));
            }
        }
        let pair_of_shard: Vec<(usize, usize)> =
            (0..q).map(|shard| pairs[shard % pairs.len()]).collect();
        QdolShardMap {
            num_vertices,
            zeta,
            pair_of_shard,
        }
    }

    /// Number of shards in the layout.
    pub fn shard_count(&self) -> usize {
        self.pair_of_shard.len()
    }

    /// Number of vertices the layout covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of vertex partitions ζ.
    pub fn zeta(&self) -> usize {
        self.zeta
    }

    /// The partition pair shard `shard` owns.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= shard_count()`.
    pub fn pair_of_shard(&self, shard: usize) -> (usize, usize) {
        self.pair_of_shard[shard]
    }

    /// Partition of a vertex: contiguous chunks of the id space.
    /// Out-of-range ids clamp into the last partition, so placement is
    /// total — the chosen shard answers them unreachable like any server.
    pub fn partition_of(&self, v: VertexId) -> usize {
        if self.num_vertices == 0 {
            return 0;
        }
        let chunk = self.num_vertices.div_ceil(self.zeta);
        (v as usize / chunk).min(self.zeta - 1)
    }

    /// The shard a query is routed to: some shard whose pair covers both
    /// endpoint partitions (for a same-partition query, any shard containing
    /// that partition).
    pub fn shard_for_query(&self, u: VertexId, v: VertexId) -> usize {
        let pu = self.partition_of(u);
        let pv = self.partition_of(v);
        let (a, b) = if pu <= pv { (pu, pv) } else { (pv, pu) };
        self.pair_of_shard
            .iter()
            .position(|&(i, j)| (i == a && j == b) || (a == b && (i == a || j == a)))
            .unwrap_or(0)
    }

    /// The persistent [`ShardSpec`] for shard `shard_id`: its pair, ζ, and
    /// the sorted set of vertex positions whose labels it keeps (every
    /// vertex in either of its two partitions).
    ///
    /// # Panics
    ///
    /// Panics when `shard_id >= shard_count()`.
    pub fn spec(&self, shard_id: usize) -> ShardSpec {
        let (i, j) = self.pair_of_shard[shard_id];
        let owned: Vec<VertexId> = (0..self.num_vertices as VertexId)
            .filter(|&v| {
                let p = self.partition_of(v);
                p == i || p == j
            })
            .collect();
        ShardSpec {
            shard_id: shard_id as u32,
            shard_count: self.shard_count() as u32,
            zeta: self.zeta as u32,
            owned,
        }
    }
}

impl QdolEngine {
    /// Builds the engine from a distributed labeling.
    pub fn new(labeling: &DistributedLabeling, spec: ClusterSpec) -> Self {
        Self::from_index(labeling.assemble(), spec)
    }

    /// Builds the engine from an assembled index.
    pub fn from_index(index: HubLabelIndex, spec: ClusterSpec) -> Self {
        let num_vertices = index.num_vertices();
        let map = QdolShardMap::new(spec.nodes.max(1), num_vertices);
        QdolEngine {
            full: index.into_label_sets(),
            map,
            spec,
        }
    }

    /// Partition of a vertex: contiguous chunks of the id space.
    fn partition_of(&self, v: VertexId) -> usize {
        self.map.partition_of(v)
    }

    /// The node a query is routed to: some node whose pair covers both
    /// endpoint partitions (for a same-partition query, any node containing
    /// that partition).
    pub fn node_for_query(&self, u: VertexId, v: VertexId) -> usize {
        self.map.shard_for_query(u, v)
    }

    /// Number of vertex partitions ζ.
    pub fn zeta(&self) -> usize {
        self.map.zeta()
    }

    fn local_answer(&self, u: VertexId, v: VertexId) -> Distance {
        let (Some(lu), Some(lv)) = (self.full.get(u as usize), self.full.get(v as usize)) else {
            // Out-of-range ids name no vertex: unreachable, even for u == v
            // (see the `DistanceOracle` contract).
            return chl_graph::types::INFINITY;
        };
        if u == v {
            return 0;
        }
        lu.query_distance(lv)
    }
}

impl DistanceOracle for QdolEngine {
    fn distance(&self, u: VertexId, v: VertexId) -> Distance {
        // Routing does not change the answer (the target node holds the full
        // labels of both endpoints); evaluate it for the side effect of
        // exercising the routing table in debug builds.
        debug_assert!(self.node_for_query(u, v) < self.spec.nodes.max(1));
        self.local_answer(u, v)
    }

    fn num_vertices(&self) -> usize {
        self.map.num_vertices()
    }

    /// Each partition pair's labels are held once per owning node.
    fn memory_bytes(&self) -> usize {
        self.memory_per_node().iter().sum()
    }
}

impl QueryEngine for QdolEngine {
    fn name(&self) -> &'static str {
        "QDOL"
    }

    fn modeled_latency(&self) -> Duration {
        // One request message, a local full-label intersection, one response.
        let net = &self.spec.network;
        let local = Duration::from_micros(1);
        net.p2p_cost(QUERY_WIRE_BYTES) + local + net.p2p_cost(RESPONSE_WIRE_BYTES)
    }

    fn memory_per_node(&self) -> Vec<usize> {
        // Node {i,j} stores the full label sets of partitions i and j.
        let mut per_partition = vec![0usize; self.map.zeta()];
        for v in 0..self.map.num_vertices() {
            per_partition[self.partition_of(v as VertexId)] += self.full[v].memory_bytes();
        }
        (0..self.map.shard_count())
            .map(|node| {
                let (i, j) = self.map.pair_of_shard(node);
                per_partition[i] + per_partition[j]
            })
            .collect()
    }

    fn evaluate(&self, workload: &QueryWorkload) -> QueryModeReport {
        // Sort queries by target node (the paper does exactly this), then let
        // every node answer its own bucket; modeled batch time is the slowest
        // node plus the point-to-point exchange of queries and responses.
        // Buckets run concurrently on this host, so with more buckets than
        // cores the per-node times include scheduling contention a
        // dedicated-node cluster would not see (upper bound, not an isolated
        // measurement).
        let q = self.spec.nodes.max(1);
        let mut buckets: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); q];
        for &(u, v) in &workload.pairs {
            buckets[self.node_for_query(u, v)].push((u, v));
        }

        let start = Instant::now();
        let per_node_times: Vec<Duration> = rayon::map(buckets.len(), |node| {
            let node_start = Instant::now();
            let mut acc = 0u64;
            for &(u, v) in &buckets[node] {
                acc = acc.wrapping_add(self.local_answer(u, v));
            }
            std::hint::black_box(acc);
            node_start.elapsed()
        });
        let measured = start.elapsed();

        let slowest = per_node_times
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO);
        let net = &self.spec.network;
        let largest_bucket = buckets.iter().map(Vec::len).max().unwrap_or(0);
        // Queries are scattered to nodes and responses gathered back; the
        // critical path carries the largest bucket in each direction.
        let comm = net.p2p_cost(QUERY_WIRE_BYTES * largest_bucket)
            + net.p2p_cost(RESPONSE_WIRE_BYTES * largest_bucket);
        let batch_time = slowest + comm;
        let throughput = if batch_time.as_secs_f64() > 0.0 {
            workload.len() as f64 / batch_time.as_secs_f64()
        } else {
            f64::INFINITY
        };

        QueryModeReport {
            mode: self.name().to_string(),
            queries: workload.len(),
            throughput_qps: throughput,
            latency: self.modeled_latency(),
            measured_batch_compute: measured,
            memory_per_node_bytes: self.memory_per_node(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_pairs;
    use chl_cluster::SimulatedCluster;
    use chl_core::pll::sequential_pll;
    use chl_distributed::{distributed_plant, DistributedConfig};
    use chl_graph::generators::erdos_renyi;
    use chl_graph::types::INFINITY;
    use chl_ranking::degree_ranking;

    fn engine(q: usize) -> (chl_graph::CsrGraph, QdolEngine) {
        let g = erdos_renyi(80, 0.07, 10, 31);
        let ranking = degree_ranking(&g);
        let cluster = SimulatedCluster::new(ClusterSpec::with_nodes(q));
        let labeling = distributed_plant(&g, &ranking, &cluster, &DistributedConfig::default());
        (g, QdolEngine::new(&labeling, ClusterSpec::with_nodes(q)))
    }

    #[test]
    fn zeta_formula_matches_paper() {
        assert_eq!(zeta_for_nodes(1), 2);
        assert_eq!(zeta_for_nodes(3), 3);
        assert_eq!(zeta_for_nodes(6), 4);
        assert_eq!(zeta_for_nodes(10), 5);
        assert_eq!(zeta_for_nodes(16), 6);
        assert_eq!(zeta_for_nodes(64), 11);
    }

    #[test]
    fn queries_are_exact_and_routed_to_valid_nodes() {
        let (g, engine) = engine(16);
        let ranking = degree_ranking(&g);
        let reference = sequential_pll(&g, &ranking).index;
        for u in (0..80u32).step_by(9) {
            for v in 0..80u32 {
                assert_eq!(engine.query(u, v), reference.query(u, v));
                let node = engine.node_for_query(u, v);
                assert!(node < 16);
                // The chosen node's pair must cover both endpoint partitions.
                let (i, j) = engine.map.pair_of_shard(node);
                let pu = engine.partition_of(u);
                let pv = engine.partition_of(v);
                assert!([i, j].contains(&pu));
                assert!([i, j].contains(&pv));
            }
        }
    }

    #[test]
    fn memory_sits_between_qfdl_and_qlsn() {
        let (g, qdol) = engine(16);
        let ranking = degree_ranking(&g);
        let full_bytes = sequential_pll(&g, &ranking).index.memory_bytes();
        let per_node = qdol.memory_per_node();
        let max_node = *per_node.iter().max().unwrap();
        assert!(
            max_node < full_bytes,
            "QDOL must store less than the full labeling per node"
        );
        assert!(max_node * 16 > full_bytes, "but far more than a 1/q share");
    }

    #[test]
    fn latency_model_is_cheaper_than_qfdl_broadcast() {
        let (_, qdol) = engine(16);
        let spec = ClusterSpec::with_nodes(16);
        // Two point-to-point hops must cost less than a 16-node broadcast
        // plus reduction.
        let qfdl_like = spec.network.broadcast_cost(8, 16) + spec.network.allreduce_cost(8, 16);
        assert!(qdol.modeled_latency() < qfdl_like + Duration::from_micros(2));
    }

    #[test]
    fn evaluate_reports_consistent_numbers() {
        let (_, engine) = engine(6);
        let w = random_pairs(80, 3000, 9);
        let r = engine.evaluate(&w);
        assert_eq!(r.queries, 3000);
        assert!(r.throughput_qps > 0.0);
        assert_eq!(r.memory_per_node_bytes.len(), 6);
        assert_eq!(r.mode, "QDOL");
    }

    #[test]
    fn shard_map_covers_every_query_and_pins_the_q3_layout() {
        // The exact layout the golden v3 shard fixtures in chl-core pin:
        // 3 shards over 16 vertices → ζ = 3, chunk = 6.
        let map = QdolShardMap::new(3, 16);
        assert_eq!(map.zeta(), 3);
        assert_eq!(map.shard_count(), 3);
        let specs: Vec<ShardSpec> = (0..3).map(|s| map.spec(s)).collect();
        assert_eq!(specs[0].owned, (0..12).collect::<Vec<_>>());
        assert_eq!(
            specs[1].owned,
            (0..6).chain(12..16).collect::<Vec<VertexId>>()
        );
        assert_eq!(specs[2].owned, (6..16).collect::<Vec<_>>());
        for (s, spec) in specs.iter().enumerate() {
            assert_eq!(spec.shard_id, s as u32);
            assert_eq!(spec.shard_count, 3);
            assert_eq!(spec.zeta, 3);
        }

        // Placement totality: the chosen shard owns both endpoints of every
        // in-range query, and every vertex is owned somewhere.
        for u in 0..16u32 {
            assert!(specs.iter().any(|spec| spec.owns(u)));
            for v in 0..16u32 {
                let shard = map.shard_for_query(u, v);
                assert!(
                    specs[shard].owns(u) && specs[shard].owns(v),
                    "({u}, {v}) routed to shard {shard} which does not own both"
                );
            }
        }

        // Out-of-range ids clamp to a valid shard instead of panicking.
        assert!(map.shard_for_query(999, 0) < 3);
        assert!(map.shard_for_query(999, 999) < 3);

        // The map is what the engine routes through, so the simulation and a
        // real cluster built from the same (q, n) agree on placement.
        let g = erdos_renyi(16, 0.3, 5, 77);
        let ranking = degree_ranking(&g);
        let engine = QdolEngine::from_index(
            sequential_pll(&g, &ranking).index,
            ClusterSpec::with_nodes(3),
        );
        for u in 0..16u32 {
            for v in 0..16u32 {
                assert_eq!(engine.node_for_query(u, v), map.shard_for_query(u, v));
            }
        }
    }

    #[test]
    fn shard_specs_validate_and_degenerate_sizes_hold() {
        for (q, n) in [(1usize, 5usize), (2, 5), (3, 1), (6, 100), (10, 7)] {
            let map = QdolShardMap::new(q, n);
            for s in 0..map.shard_count() {
                let spec = map.spec(s);
                spec.validate(n as u64).expect("derived specs are valid");
                // With at least ζ vertices no partition is empty, so every
                // shard owns something (tiny n can leave trailing partitions
                // — and shards of only those — empty, which is still valid).
                if n >= map.zeta() {
                    assert!(!spec.owned.is_empty(), "q={q} n={n} shard {s} owns nothing");
                }
            }
        }
        // Zero vertices: still a valid (empty) layout.
        let map = QdolShardMap::new(2, 0);
        assert!(map.spec(0).owned.is_empty());
        assert_eq!(map.shard_for_query(0, 0), 0);
    }

    #[test]
    fn infinity_for_disconnected_pairs() {
        let mut b = chl_graph::GraphBuilder::new_undirected();
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build().unwrap();
        let ranking = degree_ranking(&g);
        let index = sequential_pll(&g, &ranking).index;
        let engine = QdolEngine::from_index(index, ClusterSpec::with_nodes(4));
        assert_eq!(engine.query(0, 3), INFINITY);
        assert_eq!(engine.query(0, 1), 1);
    }
}
