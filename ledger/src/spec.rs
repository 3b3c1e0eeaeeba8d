//! What the ledger measures: the four workloads and every metric by name,
//! unit, direction and bound. `BENCHMARK.json` is rendered from these tables
//! (`ledger manifest`), so the file the driver reads and the program that
//! answers it cannot drift apart.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before `compare` calls it a regression.
    pub bound: f64,
    /// Counted, not timed: two runs of one seed must agree exactly.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

/// `failed_share` is always 0 on a healthy tree, and the driver's contract
/// wants metrics that are never 0: it travels in the contract line's
/// `attempted`/`failed` keys instead and is left out of `BENCHMARK.json`.
pub const FAILED_SHARE: &str = "failed_share";

/// Metrics reported as the lower quartile of their samples instead of the
/// median. A build keeps both cores busy for a second or more, and whatever
/// else the shared host runs meanwhile only ever adds to it: with a second
/// process writing to the disk in bursts the median of a run's builds spread
/// 0.22 over ten runs, their lower quartile 0.11. It is the build time when
/// the box leaves the build alone, which is what repeats.
pub const LOWER_QUARTILE: [&str; 1] = ["build_s"];

/// Timing bounds are all 0.25, the most the driver allows: on the shared
/// 2-core box the baseline was taken on, ten runs of one commit spread (first
/// to third quartile over the median) by 0.03 to 0.14 per cell, and two sets
/// of ten taken minutes apart moved by up to 0.24 — host noise no run length
/// here averages out.
/// See README, "Noise and bounds".
pub const END_TO_END: [EndToEnd; 11] = [
    timed("setup_s", "s", Better::Lower, 0.25),
    timed("build_s", "s", Better::Lower, 0.25),
    EndToEnd {
        name: "labels_per_vertex",
        unit: "count",
        better: Better::Lower,
        // Exact for one graph; the bound is for a later change of graph.
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "index_bytes_per_vertex",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    timed("cold_start_ms", "ms", Better::Lower, 0.25),
    timed("query_ns", "ns", Better::Lower, 0.25),
    timed("batch_qps", "1/s", Better::Higher, 0.25),
    timed("serve_qps", "1/s", Better::Higher, 0.25),
    timed("serve_p50_us", "us", Better::Lower, 0.25),
    timed("peak_rss_mb", "MB", Better::Lower, 0.25),
    EndToEnd {
        name: FAILED_SHARE,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    },
];

/// A metric of one layer, from the traced pass. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

/// Reported by every workload but `social-zmmap`, where PLaNT's unpruned
/// trees take ~25 s: the driver wants every listed metric from every
/// workload, so this one stays out of `BENCHMARK.json`.
pub const PLANT_BUILD: &str = "core.plant.build_s";

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 73] = [
    layer("graph.gen_s", "s", Lower, "setup_s"),
    layer("ranking.resolve_s", "s", Lower, "setup_s"),
    layer("graph.dijkstra_us", "us", Lower, "setup_s"),
    layer("core.pll.build_s", "s", Lower, "build_s"),
    layer("core.lcc.build_s", "s", Lower, "build_s"),
    layer("core.gll.build_s", "s", Lower, "build_s"),
    layer(PLANT_BUILD, "s", Lower, "build_s"),
    layer("core.hybrid.construct_s", "s", Lower, "build_s"),
    layer("core.hybrid.clean_s", "s", Lower, "build_s"),
    layer("core.hybrid.planted_trees", "count", Higher, "build_s"),
    layer("core.hybrid.supersteps", "count", Lower, "build_s"),
    layer("core.hybrid.vertices_explored", "count", Lower, "build_s"),
    layer("core.hybrid.rank_queries", "count", Lower, "build_s"),
    layer("core.hybrid.redundancy_ratio", "ratio", Lower, "build_s"),
    layer("core.flat.flatten_ms", "ms", Lower, "build_s"),
    layer("core.paths.parents_s", "s", Lower, "build_s"),
    layer("core.persist.encode_ms", "ms", Lower, "build_s"),
    layer("core.persist.write_ms", "ms", Lower, "build_s"),
    layer("core.persist.crc_ms", "ms", Lower, "cold_start_ms"),
    layer("core.persist.load_ms", "ms", Lower, "cold_start_ms"),
    layer("core.persist.view_ms", "ms", Lower, "cold_start_ms"),
    layer("core.mapped.open_ms", "ms", Lower, "cold_start_ms"),
    layer(
        "core.persist.bytes_per_label",
        "B",
        Lower,
        "index_bytes_per_vertex",
    ),
    layer("core.kernel.join_ns", "ns", Lower, "query_ns"),
    layer("core.kernel.entries_per_join", "count", Lower, "query_ns"),
    layer("core.flat.wrapper_ns", "ns", Lower, "query_ns"),
    layer("core.flat.query_p99_ns", "ns", Lower, "query_ns"),
    layer("core.backend.pointer_query_ns", "ns", Lower, "query_ns"),
    layer("core.backend.flat_query_ns", "ns", Lower, "query_ns"),
    layer("core.backend.view_query_ns", "ns", Lower, "query_ns"),
    layer("core.backend.compressed_query_ns", "ns", Lower, "query_ns"),
    layer("core.kernel.matrix_cell_ns", "ns", Lower, "query_ns"),
    layer("core.kernel.matrix256_cell_ns", "ns", Lower, "batch_qps"),
    layer("core.paths.path_us", "us", Lower, "query_ns"),
    layer("core.paths.hop_ns", "ns", Lower, "query_ns"),
    layer("core.oracle.topk_us", "us", Lower, "query_ns"),
    layer("core.oracle.distances_b64_us", "us", Lower, "serve_qps"),
    layer("core.oracle.par_efficiency", "ratio", Higher, "batch_qps"),
    layer("serve.protocol.codec_ns", "ns", Lower, "serve_qps"),
    layer("serve.protocol.framebuffer_ns", "ns", Lower, "serve_qps"),
    layer("serve.inproc.frame_us", "us", Lower, "serve_qps"),
    layer("serve.server.wall_ns", "ns", Lower, "serve_qps"),
    layer(
        "serve.server.frames_per_batch",
        "count",
        Higher,
        "serve_qps",
    ),
    layer("serve.server.max_coalesced", "count", Higher, "serve_qps"),
    layer("serve.server.frame_p50_us", "us", Lower, "serve_p50_us"),
    layer("serve.server.frame_p99_us", "us", Lower, "serve_p50_us"),
    layer("serve.server.frame_p999_us", "us", Lower, "serve_p50_us"),
    layer("serve.server.rtt_b1_us", "us", Lower, "serve_p50_us"),
    layer("serve.http.rtt_us", "us", Lower, "serve_p50_us"),
    layer("serve.server.error_frames", "count", Lower, FAILED_SHARE),
    layer("serve.index.open_ms", "ms", Lower, "cold_start_ms"),
    layer("serve.index.reload_ms", "ms", Lower, "cold_start_ms"),
    layer("serve.index.reload_dip_pct", "%", Lower, "serve_qps"),
    layer("serve.router.shard_build_ms", "ms", Lower, "build_s"),
    layer("query.qdol.place_ns", "ns", Lower, "serve_qps"),
    layer("serve.router.qps", "1/s", Higher, "serve_qps"),
    layer("serve.router.frame_p50_us", "us", Lower, "serve_p50_us"),
    layer("serve.router.overhead_x", "ratio", Lower, "serve_qps"),
    layer("proc.rss_after_build_mb", "MB", Lower, "peak_rss_mb"),
    layer("proc.rss_serving_mb", "MB", Lower, "peak_rss_mb"),
    layer("trace.overhead_pct", "%", Lower, "query_ns"),
    layer("trace.phase_coverage_pct", "%", Higher, "setup_s"),
    // The ROADMAP stack, ns per answer, one row per layer of `print_stack`.
    layer("stack.join_ns", "ns", Lower, "query_ns"),
    layer("stack.query_ns", "ns", Lower, "query_ns"),
    layer("stack.distances_b64_ns", "ns", Lower, "serve_qps"),
    layer("stack.inproc_ns", "ns", Lower, "serve_qps"),
    layer("stack.inproc_coalesced_ns", "ns", Lower, "serve_qps"),
    layer("stack.coalesced_frames", "count", Higher, "serve_qps"),
    layer("stack.client_decode_ns", "ns", Lower, "serve_qps"),
    layer("stack.server_worker_ns", "ns", Lower, "serve_qps"),
    layer("stack.router_worker_ns", "ns", Lower, "serve_qps"),
    layer("stack.unattributed_ns", "ns", Lower, "serve_qps"),
    layer("stack.unattributed_pct", "%", Lower, "serve_qps"),
];

/// Names of metrics and workloads: `[A-Za-z0-9_.-]+`, starting with a letter
/// or digit, at most 64 characters — the driver's rule.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Road-like grid: `GridOptions{max_weight:1000, removal_fraction:0.08,
    /// shortcut_edges}`.
    Grid { side: usize, shortcuts: usize },
    /// Barabási–Albert, `m` edges per new vertex.
    Ba { n: usize, m: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    Degree,
    Betweenness { samples: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Uniform random point pairs, 64-pair QUERY frames.
    Points,
    /// Per unit: one 16x16 MATRIX frame, 16 PATH frames, one 16-pair QUERY
    /// frame (288 answers).
    Blocks,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub family: Family,
    pub order: Order,
    /// Save with `SaveOptions::compressed()` and serve in place through
    /// `MmapIndex`; otherwise plain v3 and the owned `persist::load` backend.
    pub compressed_mmap: bool,
    pub traffic: Traffic,
    /// PLaNT alone is run in the traced pass.
    pub plant: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Hundreds of vertices: every phase and check in seconds.
    Smoke,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

const BETWEENNESS: Order = Order::Betweenness { samples: 48 };

/// `social-flat` goes first: the first runs after a compile were the slowest
/// on the box the baseline was taken on, and its 37 builds of 80 ms shrug
/// that off where the seconds-long builds of the bigger graphs do not.
pub fn workloads(scale: Scale) -> [Workload; 4] {
    let smoke = scale == Scale::Smoke;
    let grid = |full: usize, small: usize| Family::Grid {
        side: if smoke { small } else { full },
        shortcuts: if smoke { 4 } else { 200 },
    };
    let ba = |full: usize, small: usize| Family::Ba {
        n: if smoke { small } else { full },
        m: 4,
    };
    [
        Workload {
            name: "social-flat",
            why: "BA n=2000, 0.8 MB L2-resident index: the join is cheap, so wrapper, distances \
                  dispatch, frame codec and sockets dominate; build is per-tree overhead",
            family: ba(2000, 300),
            order: Order::Degree,
            compressed_mmap: false,
            traffic: Traffic::Points,
            plant: true,
        },
        Workload {
            name: "road-flat",
            why: "80x80 road grid, 14 MB flat index far past L2: merge join, memory traffic and \
                  long pruned trees dominate; framing and batching add little",
            family: grid(80, 14),
            order: BETWEENNESS,
            compressed_mmap: false,
            traffic: Traffic::Points,
            plant: true,
        },
        Workload {
            name: "social-zmmap",
            why: "BA n=20000 saved compressed and served in place by mmap: validate-only cold \
                  start and stream decode trade size for latency; Hybrid switch point matters",
            family: ba(20000, 400),
            order: Order::Degree,
            compressed_mmap: true,
            traffic: Traffic::Points,
            plant: smoke,
        },
        Workload {
            name: "road-blocks",
            why: "100x100 road grid with path data; 16x16 MATRIX + 16 PATH + 16-pair QUERY \
                  frames drive matrix_pivot and the parent climb, which a point-join gain can cost",
            family: grid(100, 12),
            order: BETWEENNESS,
            compressed_mmap: false,
            traffic: Traffic::Blocks,
            plant: true,
        },
    ]
}

/// The fixed load policy, recorded in every result file.
pub const THREADS: usize = 2;
pub const CONNECTIONS: usize = 2;
pub const IN_FLIGHT: usize = 8;
pub const ROUNDS: usize = 12;
pub const DEFAULT_SECONDS: f64 = 25.0;
pub const DEFAULT_SEED: u64 = 7;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Json {
    let workloads = workloads(Scale::Full)
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.name != FAILED_SHARE)
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .filter(|m| m.name != PLANT_BUILD)
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("ledger")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for ok in [
            "a",
            "9",
            "query_ns",
            "core.kernel.join_ns",
            "road-flat",
            "A.b_c-9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "-a", "_a", "a b", "a/b", "a%", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_declared_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads(Scale::Full).iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for m in &PER_LAYER {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown metric {}",
                m.name,
                m.moves
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(workloads(Scale::Full).iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text),
            Ok(manifest()),
            "run `ledger manifest > BENCHMARK.json`"
        );
    }
}
