//! Tuning harness for the query kernel tiers: measures each join tier and
//! the `join_adaptive` selector against the seed iterator join on the perf
//! ledger's four graphs and rankings (same generators, topology seed 7) —
//! the sweep the selector's thresholds were read off.
//!
//! The `three_tier` row is the selector as it stood before the branchy
//! slice tier was removed: gallop on 16x skew, the branchless scan below a
//! 16-entry longer run, the seed iterator join otherwise. Its ratio to
//! `adaptive` is the evidence for the removal.
//!
//! `ba_20000` is measured flat here; the ledger serves it compressed, where
//! the streaming iterator join answers instead.
//!
//! Run with: `cargo run --release -p chl-bench --example join_tier_sweep`

use std::hint::black_box;
use std::time::{Duration, Instant};

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::flat::FlatIndex;
use chl_core::kernel;
use chl_core::labels::{join_sorted_iters, LabelEntry};
use chl_graph::csr::CsrGraph;
use chl_graph::generators::{barabasi_albert, grid_network, GridOptions};
use chl_graph::types::{Distance, INFINITY};
use chl_ranking::{betweenness_ranking, degree_ranking, BetweennessOptions, Ranking};

const SEED: u64 = 7;
const PAIRS: usize = 200_000;
/// Timed passes per tier; the fastest is reported.
const REPS: usize = 5;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seed_iters(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    join_sorted_iters(a.iter().copied(), b.iter().copied())
}

fn three_tier(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(u32, Distance)> {
    let (s, l) = (a.len().min(b.len()), a.len().max(b.len()));
    if s == 0 {
        None
    } else if l >= s.saturating_mul(kernel::GALLOP_FACTOR) {
        kernel::join_gallop(a, b)
    } else if l < 16 {
        kernel::join_branchless(a, b)
    } else {
        seed_iters(a, b)
    }
}

fn measure(name: &str, g: &CsrGraph, ranking: &Ranking) {
    let n = g.num_vertices();
    let result = ChlBuilder::new(g)
        .ranking(RankingStrategy::Explicit(ranking.clone()))
        .algorithm(Algorithm::Hybrid)
        .threads(2)
        .validate()
        .expect("valid config")
        .build()
        .expect("construction succeeds");
    let flat = FlatIndex::from_index(&result.index);
    println!(
        "== {name}: {n} vertices, {} labels (avg {:.1}) ==",
        flat.total_labels(),
        flat.total_labels() as f64 / n as f64
    );

    let mut state = 42u64;
    let pairs: Vec<(u32, u32)> = (0..PAIRS)
        .map(|_| {
            let r = splitmix64(&mut state);
            (((r >> 32) as u32) % n as u32, (r as u32) % n as u32)
        })
        .collect();

    type JoinFn = fn(&[LabelEntry], &[LabelEntry]) -> Option<(u32, Distance)>;
    let view = flat.as_view();
    let time_join = |join: JoinFn| {
        let mut best = Duration::MAX;
        for _ in 0..REPS {
            let t = Instant::now();
            let mut s = 0u64;
            for &(u, v) in &pairs {
                let d = join(view.labels_of(u), view.labels_of(v)).map_or(INFINITY, |(_, d)| d);
                s = s.wrapping_add(black_box(d));
            }
            best = best.min(t.elapsed());
        }
        best.as_nanos() as f64 / pairs.len() as f64
    };
    let tiers: [(&str, JoinFn); 5] = [
        ("seed_iters", seed_iters),
        ("branchless", kernel::join_branchless),
        ("gallop", kernel::join_gallop),
        ("three_tier", three_tier),
        ("adaptive", kernel::join_adaptive),
    ];
    let times: Vec<f64> = tiers.iter().map(|&(_, join)| time_join(join)).collect();
    for ((tier, _), ns) in tiers.iter().zip(&times) {
        println!("  join {tier:<12} {ns:>7.1} ns/query");
    }
    println!("  adaptive / three_tier: {:.2}x", times[4] / times[3]);
}

fn grid(side: usize) -> CsrGraph {
    grid_network(
        &GridOptions {
            rows: side,
            cols: side,
            max_weight: 1000,
            removal_fraction: 0.08,
            shortcut_edges: 200,
        },
        SEED,
    )
}

fn betweenness(g: &CsrGraph) -> Ranking {
    betweenness_ranking(
        g,
        &BetweennessOptions {
            samples: 48,
            degree_tiebreak: true,
        },
        SEED,
    )
}

fn main() {
    println!("{PAIRS} random pairs per graph, best of {REPS} passes per tier");
    let g = barabasi_albert(2_000, 4, SEED);
    measure("ba_2000 (social-flat)", &g, &degree_ranking(&g));
    let g = grid(80);
    measure("grid_80x80 (road-flat)", &g, &betweenness(&g));
    let g = barabasi_albert(20_000, 4, SEED);
    measure(
        "ba_20000 (social-zmmap, flat here)",
        &g,
        &degree_ranking(&g),
    );
    let g = grid(100);
    measure("grid_100x100 (road-blocks)", &g, &betweenness(&g));
}
