//! Tuning harness for the shared-memory Hybrid's switch factor: times LCC,
//! GLL and Hybrid at several factors on the perf ledger's four graph families
//! (same generators, topology seed 7, two threads) and asserts every labeling
//! is identical — the sweep the default factor was read off.
//!
//! Every build prints its cleaning time and supersteps. For each Hybrid run
//! it also prints the trees PLaNTed before the switch and the peak windowed
//! Ψ/L̄ over them: Ψ averaged over the last `psi_window` trees in rank
//! order, over the labels PLaNTed so far per vertex. A factor below a
//! graph's peak switches; one above it PLaNTs every tree.
//!
//! Run with: `cargo run --release -p chl-bench --example hybrid_switch_sweep`

use std::time::{Duration, Instant};

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::config::LabelingConfig;
use chl_core::index::LabelingResult;
use chl_core::stats::SptRecord;
use chl_graph::csr::CsrGraph;
use chl_graph::generators::{barabasi_albert, grid_network, GridOptions};
use chl_ranking::{betweenness_ranking, degree_ranking, BetweennessOptions, Ranking};

const SEED: u64 = 7;
const THREADS: usize = 2;
const REPS: usize = 3;
const FACTORS: [f64; 4] = [0.03, 0.1, 0.25, 1.0];

/// Best of `REPS` builds: the build time when the box leaves it alone.
fn build(
    g: &CsrGraph,
    ranking: &Ranking,
    algorithm: Algorithm,
    config: &LabelingConfig,
) -> (LabelingResult, Duration) {
    let mut best = None::<(LabelingResult, Duration)>;
    for _ in 0..REPS {
        let start = Instant::now();
        let result = ChlBuilder::new(g)
            .ranking(RankingStrategy::Explicit(ranking.clone()))
            .algorithm(algorithm)
            .config(config.clone())
            .build()
            .expect("construction succeeds");
        let elapsed = start.elapsed();
        if best.as_ref().is_none_or(|(_, t)| elapsed < *t) {
            best = Some((result, elapsed));
        }
    }
    best.expect("REPS > 0")
}

/// A build's time, the cleaning time within it and its supersteps.
fn phases(result: &LabelingResult, t: Duration) -> String {
    format!(
        "{:>7.3} s   clean {:>6.3} s   supersteps {:>3}",
        t.as_secs_f64(),
        result.stats.cleaning_time.as_secs_f64(),
        result.stats.supersteps
    )
}

/// Peak of windowed Ψ over `L̄` across the PLaNTed trees, replayed in rank
/// order (`records` ascend by root position).
fn peak_psi_over_label_size(records: &[SptRecord], window: usize, n: usize) -> f64 {
    let mut total_labels = 0usize;
    let mut peak = 0.0f64;
    for (i, r) in records.iter().enumerate() {
        total_labels += r.labels_generated;
        if i + 1 < window {
            continue;
        }
        let recent = &records[i + 1 - window..=i];
        let explored: usize = recent.iter().map(|r| r.vertices_explored).sum();
        let labels: usize = recent.iter().map(|r| r.labels_generated).sum();
        let psi = explored as f64 / labels as f64;
        peak = peak.max(psi / (total_labels as f64 / n as f64));
    }
    peak
}

fn measure(name: &str, g: &CsrGraph, ranking: &Ranking) {
    let n = g.num_vertices();
    let config = LabelingConfig::default().with_threads(THREADS);
    let (reference, lcc_t) = build(g, ranking, Algorithm::Lcc, &config);
    let (gll, gll_t) = build(g, ranking, Algorithm::Gll, &config);
    assert_eq!(gll.index, reference.index, "{name}: GLL differs from LCC");
    println!(
        "== {name}: {n} vertices, {:.1} labels per vertex ==",
        reference.index.total_labels() as f64 / n as f64
    );
    println!("  LCC          {}", phases(&reference, lcc_t));
    println!("  GLL          {}", phases(&gll, gll_t));
    for factor in FACTORS {
        let config = config.clone().with_psi_threshold(factor);
        let (hybrid, t) = build(g, ranking, Algorithm::Hybrid, &config);
        assert_eq!(
            hybrid.index, reference.index,
            "{name}: Hybrid at factor {factor} differs from LCC"
        );
        let planted = hybrid.stats.planted_trees;
        // Hybrid's records ascend by root position, so the PLaNTed trees
        // come first, already in rank order.
        let peak =
            peak_psi_over_label_size(&hybrid.stats.spt_records[..planted], config.psi_window, n);
        println!(
            "  Hybrid x{factor:<4} {}   planted {planted:>6} / {n}   peak windowed psi/L {peak:.2}",
            phases(&hybrid, t)
        );
    }
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
    println!(
        "{THREADS} threads, best of {REPS} builds, available parallelism {}",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    let g = barabasi_albert(2_000, 4, SEED);
    measure("ba_2000 (social-flat)", &g, &degree_ranking(&g));
    let g = grid(80);
    measure("grid_80x80 (road-flat)", &g, &betweenness(&g));
    let g = barabasi_albert(20_000, 4, SEED);
    measure("ba_20000 (social-zmmap)", &g, &degree_ranking(&g));
    let g = grid(100);
    measure("grid_100x100 (road-blocks)", &g, &betweenness(&g));
}
