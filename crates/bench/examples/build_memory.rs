//! Where a build's memory goes: the perf ledger's build step, stage by
//! stage, on its four graph settings (same generators, rankings, topology
//! seed 7 and two threads as `ledger/src/inputs.rs`). Each stage prints the
//! process's resident set (`VmRSS`) and its high-water mark (`VmHWM`) from
//! `/proc/self/status`, `n/a` where that file does not exist (off Linux):
//!
//! 1. `inputs`: graph and ranking, before construction;
//! 2. `build`: `ChlBuilder::build` (Hybrid) returns the labeling;
//! 3. `from_index`: the ledger's `FlatIndex::from_index` of that labeling;
//! 4. `attach_parents`: the parent records (`road-blocks` only);
//! 5. `encode`: `to_bytes_with` encodes the `.chl` file image (compressed
//!    for `social-zmmap`).
//!
//! A high-water mark only rises, so each workload runs in its own process:
//! with no argument the example re-runs itself once per workload.
//!
//! Run with: `cargo run --release -p chl-bench --example build_memory
//! [-- <workload>] [--smoke]`; `--smoke` uses the ledger's smoke-size
//! graphs. The last output is checked in as `build_memory.txt` beside it.

use std::process::Command;

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::flat::FlatIndex;
use chl_core::paths::attach_parents;
use chl_core::persist::SaveOptions;
use chl_graph::csr::CsrGraph;
use chl_graph::generators::{barabasi_albert, grid_network, GridOptions};
use chl_ranking::{betweenness_ranking, degree_ranking, BetweennessOptions, Ranking};

const SEED: u64 = 7;
const THREADS: usize = 2;
const WORKLOADS: [&str; 4] = ["social-flat", "road-flat", "social-zmmap", "road-blocks"];

/// `field` of `/proc/self/status` in MB, when the file exists.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn stage(name: &str) {
    let mb = |field| status_mb(field).map_or("n/a".to_string(), |mb| format!("{mb:.1}"));
    println!(
        "  {name:<15} VmRSS {:>7} MB   VmHWM {:>7} MB",
        mb("VmRSS:"),
        mb("VmHWM:")
    );
}

fn grid(side: usize, shortcuts: usize) -> CsrGraph {
    let options = GridOptions {
        rows: side,
        cols: side,
        max_weight: 1000,
        removal_fraction: 0.08,
        shortcut_edges: shortcuts,
    };
    grid_network(&options, SEED)
}

fn betweenness(g: &CsrGraph) -> Ranking {
    let options = BetweennessOptions {
        samples: 48,
        degree_tiebreak: true,
    };
    betweenness_ranking(g, &options, SEED)
}

/// The ledger's graph and ranking for `workload`, full size or smoke size.
fn inputs(workload: &str, smoke: bool) -> (CsrGraph, Ranking) {
    let size = |full, small| if smoke { small } else { full };
    let shortcuts = size(200, 4);
    let g = match workload {
        "social-flat" => barabasi_albert(size(2_000, 300), 4, SEED),
        "road-flat" => grid(size(80, 14), shortcuts),
        "social-zmmap" => barabasi_albert(size(20_000, 400), 4, SEED),
        "road-blocks" => grid(size(100, 12), shortcuts),
        other => panic!("unknown workload {other}; expected one of {WORKLOADS:?}"),
    };
    let ranking = match workload {
        "road-flat" | "road-blocks" => betweenness(&g),
        _ => degree_ranking(&g),
    };
    (g, ranking)
}

fn measure(workload: &str, smoke: bool) {
    let (g, ranking) = inputs(workload, smoke);
    println!("== {workload}: {} vertices ==", g.num_vertices());
    stage("inputs");
    let result = ChlBuilder::new(&g)
        .ranking(RankingStrategy::Explicit(ranking))
        .algorithm(Algorithm::Hybrid)
        .threads(THREADS)
        .build()
        .expect("construction succeeds");
    stage("build");
    let flat = FlatIndex::from_index(&result.index);
    stage("from_index");
    let flat = if workload == "road-blocks" {
        let flat = attach_parents(&g, flat).expect("the graph matches its index");
        stage("attach_parents");
        flat
    } else {
        flat
    };
    let options = if workload == "social-zmmap" {
        SaveOptions::compressed()
    } else {
        SaveOptions::default()
    };
    let bytes = flat.to_bytes_with(&options);
    stage("encode");
    let mb = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    println!(
        "  {} labels: entries {:.1} MB, parents {:.1} MB, file {:.1} MB",
        flat.total_labels(),
        mb(std::mem::size_of_val(flat.entries())),
        mb(flat.parents().map_or(0, std::mem::size_of_val)),
        mb(bytes.len())
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(workload) = args.iter().find(|a| !a.starts_with("--")) {
        measure(workload, smoke);
        return;
    }
    println!(
        "{THREADS} threads, one process per workload{}",
        if smoke { ", smoke size" } else { "" }
    );
    let me = std::env::current_exe().expect("own executable path");
    for workload in WORKLOADS {
        let mut child = Command::new(&me);
        child.arg(workload).args(smoke.then_some("--smoke"));
        let status = child.status().expect("re-run for one workload");
        assert!(status.success(), "{workload}: {status}");
    }
}
