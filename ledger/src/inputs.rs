//! Everything a workload feeds the program under test: the graph, its
//! ranking, the id pools and the Dijkstra ground truth. The same seed gives
//! the same inputs; the program sees nothing else.
//!
//! `--seed` draws the id pools and the ground-truth sample. The graph and
//! the ranking's sampled roots come from [`TOPOLOGY_SEED`]: a workload *is*
//! one graph. Measured over ten seeds, graphs of one family differ by 6.6 %
//! in labels per vertex (quartile spread, 128x128 grid), and build time,
//! query time and index size follow — more than any bound here, so a change
//! of that size in the program would hide behind the draw of the graph.

use std::time::Instant;

use chl_graph::generators::{barabasi_albert, grid_network, GridOptions};
use chl_graph::sssp::dijkstra;
use chl_graph::types::{Distance, VertexId};
use chl_graph::CsrGraph;
use chl_ranking::{betweenness_ranking, degree_ranking, BetweennessOptions, Ranking};

use crate::spec::{Family, Order, Scale, Workload};

/// SplitMix64: a few lines, good enough to pick ids, and no dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform id in `0..n` (`n > 0`); the modulo bias is below 2^-32 · n.
    pub fn vertex(&mut self, n: usize) -> VertexId {
        (self.next_u64() % n as u64) as VertexId
    }

    fn vertices(&mut self, n: usize, count: usize) -> Vec<VertexId> {
        (0..count).map(|_| self.vertex(n)).collect()
    }

    fn pairs(&mut self, n: usize, count: usize) -> Vec<(VertexId, VertexId)> {
        (0..count)
            .map(|_| (self.vertex(n), self.vertex(n)))
            .collect()
    }
}

/// One unit of `Traffic::Blocks`: a 16x16 matrix, 16 paths and 16 point
/// queries — 288 answers.
#[derive(Debug, Clone)]
pub struct Unit {
    pub sources: Vec<VertexId>,
    pub targets: Vec<VertexId>,
    pub paths: Vec<(VertexId, VertexId)>,
    pub points: Vec<(VertexId, VertexId)>,
}

impl Unit {
    pub const SIDE: usize = 16;
    pub const ANSWERS: u32 = (Unit::SIDE * Unit::SIDE + 2 * Unit::SIDE) as u32;
}

/// Pool and sample sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Point pairs in the pool; also the size of one batch call.
    pub pool: usize,
    /// Answers per timed query block.
    pub block: usize,
    pub units: usize,
    /// Side of the batch matrix of `Traffic::Blocks`.
    pub wide: usize,
    pub truth_sources: usize,
    pub truth_targets: usize,
}

impl Sizes {
    pub fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                pool: 65_536,
                block: 4096,
                units: 56,
                wide: 256,
                truth_sources: 64,
                truth_targets: 32,
            },
            Scale::Smoke => Sizes {
                pool: 2048,
                block: 256,
                units: 8,
                wide: 32,
                truth_sources: 12,
                truth_targets: 8,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub rank_s: f64,
    /// Mean time of one ground-truth Dijkstra.
    pub dijkstra_us: f64,
}

#[derive(Debug)]
pub struct Inputs {
    pub graph: CsrGraph,
    pub ranking: Ranking,
    pub sizes: Sizes,
    pub pairs: Vec<(VertexId, VertexId)>,
    pub units: Vec<Unit>,
    pub wide_sources: Vec<VertexId>,
    pub wide_targets: Vec<VertexId>,
    /// `(u, v, dist(u, v))` from Dijkstra on the graph itself.
    pub truth: Vec<(VertexId, VertexId, Distance)>,
    pub times: SetupTimes,
}

pub const TOPOLOGY_SEED: u64 = 7;

fn generate(w: &Workload) -> CsrGraph {
    let seed = TOPOLOGY_SEED;
    match w.family {
        Family::Grid { side, shortcuts } => grid_network(
            &GridOptions {
                rows: side,
                cols: side,
                max_weight: 1000,
                removal_fraction: 0.08,
                shortcut_edges: shortcuts,
            },
            seed,
        ),
        Family::Ba { n, m } => barabasi_albert(n, m, seed),
    }
}

/// Graph generation + ranking + id pools + ground truth: what `setup_s`
/// times.
pub fn setup(w: &Workload, scale: Scale, seed: u64) -> Inputs {
    let start = Instant::now();
    let graph = generate(w);
    let gen_s = start.elapsed().as_secs_f64();

    let rank_start = Instant::now();
    let ranking = match w.order {
        Order::Degree => degree_ranking(&graph),
        Order::Betweenness { samples } => betweenness_ranking(
            &graph,
            &BetweennessOptions {
                samples,
                degree_tiebreak: true,
            },
            TOPOLOGY_SEED,
        ),
    };
    let rank_s = rank_start.elapsed().as_secs_f64();

    let sizes = Sizes::of(scale);
    let n = graph.num_vertices();
    // One stream per pool, so changing one pool's size leaves the others.
    let pairs = Rng::new(seed ^ 0x706f_6f6c).pairs(n, sizes.pool);
    let mut rng = Rng::new(seed ^ 0x756e_6974);
    let units = (0..sizes.units)
        .map(|_| Unit {
            sources: rng.vertices(n, Unit::SIDE),
            targets: rng.vertices(n, Unit::SIDE),
            paths: rng.pairs(n, Unit::SIDE),
            points: rng.pairs(n, Unit::SIDE),
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x7769_6465);
    let wide_sources = rng.vertices(n, sizes.wide);
    let wide_targets = rng.vertices(n, sizes.wide);

    let mut rng = Rng::new(seed ^ 0x7472_7574);
    let truth_start = Instant::now();
    let mut truth = Vec::with_capacity(sizes.truth_sources * sizes.truth_targets);
    for _ in 0..sizes.truth_sources {
        let source = rng.vertex(n);
        let dist = dijkstra(&graph, source);
        for _ in 0..sizes.truth_targets {
            let target = rng.vertex(n);
            truth.push((source, target, dist[target as usize]));
        }
    }
    let dijkstra_us = truth_start.elapsed().as_secs_f64() * 1e6 / sizes.truth_sources as f64;

    Inputs {
        graph,
        ranking,
        sizes,
        pairs,
        units,
        wide_sources,
        wide_targets,
        truth,
        times: SetupTimes {
            gen_s,
            rank_s,
            dijkstra_us,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workloads;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = workloads(Scale::Smoke)[3];
        let (a, b, c) = (
            setup(&w, Scale::Smoke, 5),
            setup(&w, Scale::Smoke, 5),
            setup(&w, Scale::Smoke, 6),
        );
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.ranking.order(), b.ranking.order());
        assert_ne!(a.pairs, c.pairs);
        assert_ne!(a.truth, c.truth);
        // Another seed asks other questions of the same graph.
        assert_eq!(a.ranking.order(), c.ranking.order());
        assert_eq!(a.truth.len(), a.sizes.truth_sources * a.sizes.truth_targets);
        assert_eq!(a.units.len(), a.sizes.units);
    }
}
