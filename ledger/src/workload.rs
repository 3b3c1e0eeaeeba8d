//! One workload's lifecycle in one process: generate → build → save →
//! cold-open → query in process → serve over loopback, with every answer
//! checked. Each layer is measured from outside, by timing calls into its
//! public functions; the timed phases run in interleaved rounds and every
//! timing metric is the median over all rounds' samples, because neighbour
//! noise on a shared box drifts over seconds.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::flat::FlatIndex;
use chl_core::index::HubLabelIndex;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{attach_parents, PathOracle};
use chl_core::persist::{self, PersistError, SaveOptions};
use chl_core::stats::ConstructionStats;
use chl_graph::types::{Distance, VertexId};
use chl_serve::protocol::{Request, Response};
use chl_serve::{ServeOptions, Server, SharedIndex, SpawnedServer, StatsSnapshot};

use crate::gate::{walk_weight, Gate};
use crate::inputs::{setup, Inputs, Unit};
use crate::layers;
use crate::load::{drive, Driven, Frame};
use crate::spec::{self, Scale, Traffic, Workload, CONNECTIONS, IN_FLIGHT, ROUNDS, THREADS};
use crate::stats::{summarize, windows, Summary, Window};
use crate::sysinfo;
use crate::trace::Tracer;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    /// Measuring budget of the timed phases, split by the shares below.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where index files, result files and traces go.
    pub out_dir: PathBuf,
}

/// Shares of `seconds` per phase, over all rounds. Construction gets half:
/// on the two big graphs one build is seconds long, and the median of four
/// or five of them moved by a third between runs of the same code on the
/// driver's box; its share has to buy eight or nine.
const BUILD_SHARE: f64 = 0.52;
const QUERY_SHARE: f64 = 0.13;
const BATCH_SHARE: f64 = 0.07;
const COLD_SHARE: f64 = 0.07;
const SERVE_SHARE: f64 = 0.21;
/// The traced pass reports no end-to-end metric, so its lifecycle is
/// shorter and the time goes to the per-layer measurements.
const TRACED_LIFECYCLE: f64 = 0.4;
/// Set-up is repeated on top of `seconds`: a few times before anything
/// else, then at most once a round while this share is in credit.
const SETUP_SHARE: f64 = 0.10;
const FIRST_SETUP_REPS: usize = 3;
const MAX_COLD_REPS_PER_ROUND: usize = 40;
const MAX_BUILD_REPS_PER_ROUND: usize = 3;
const FRAME_PAIRS: usize = 64;
const SERVE_WINDOW: Duration = Duration::from_millis(250);

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    /// What the metric reports: the median of its samples, or their lower
    /// quartile where the tables say so.
    pub fn value(&self) -> f64 {
        if spec::LOWER_QUARTILE.contains(&self.name) {
            self.summary.q1
        } else {
            self.summary.median
        }
    }
}

/// What a finished workload hands to the report.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub checksum: u64,
    pub wall_s: f64,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Tracer, gate and metric sink threaded through every phase.
#[derive(Debug)]
pub struct Ctx {
    pub tracer: Tracer,
    pub gate: Gate,
    /// Samples per metric, in order of first report. A phase that runs in
    /// rounds reports the same name each round; the samples accumulate.
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Ctx {
    fn new(trace: bool) -> Self {
        Ctx {
            tracer: Tracer::new(trace),
            gate: Gate::default(),
            samples: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let open = self.tracer.enter(name);
        let out = f(self);
        self.tracer.exit(open);
        out
    }

    /// Times one call into a layer and records it as a leaf span. Returns
    /// the call's value and its duration in seconds.
    pub fn call<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.tracer.leaf(name, start, end, id);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Calls `f` until `budget` is spent (at least once, at most `max`
    /// times), one leaf span per call; returns each call's seconds.
    pub fn sample(
        &mut self,
        name: &'static str,
        budget: Duration,
        max: usize,
        mut f: impl FnMut(usize),
    ) -> Vec<f64> {
        let begun = Instant::now();
        let mut seconds = Vec::new();
        while seconds.is_empty() || (begun.elapsed() < budget && seconds.len() < max) {
            let rep = seconds.len();
            seconds.push(self.call(name, rep as u64 + 1, || f(rep)).1);
        }
        seconds
    }

    /// Adds samples of a metric; it is reported as their median with
    /// quartiles.
    pub fn put(&mut self, name: &'static str, samples: &[f64]) {
        match self.samples.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => all.extend_from_slice(samples),
            None => self.samples.push((name, samples.to_vec())),
        }
    }

    pub fn put_exact(&mut self, name: &'static str, value: f64) {
        self.put(name, &[value]);
    }

    /// Median of what has been reported under `name` so far.
    pub fn value_of(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, all)| summarize(all))
            .map_or(f64::NAN, |s| s.median)
    }

    /// Every reported metric summarized. One without samples, or that is
    /// not a number, is a bug in the ledger and fails the run.
    fn finish(self) -> (Tracer, Gate, Vec<Metric>) {
        let Ctx {
            tracer,
            mut gate,
            samples,
        } = self;
        let unit_of = |name: &str| {
            spec::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
                .find(|&(n, _)| n == name)
                .map(|(_, unit)| unit)
        };
        let mut metrics = Vec::new();
        for (name, all) in samples {
            let summary = summarize(&all).filter(|s| s.median.is_finite());
            match (summary, unit_of(name)) {
                (Some(summary), Some(unit)) => metrics.push(Metric {
                    name,
                    unit,
                    summary,
                }),
                _ => gate.check(false, || {
                    format!("{name} has no finite samples or is not declared")
                }),
            }
        }
        (tracer, gate, metrics)
    }
}

/// A storage backend the lifecycle can cold-open from a `.chl` path.
pub trait Backend: DistanceOracle + PathOracle + Sized {
    const OPEN_SPAN: &'static str;
    fn open(path: &Path) -> Result<Self, PersistError>;
}

impl Backend for FlatIndex {
    const OPEN_SPAN: &'static str = "core.persist.load";
    fn open(path: &Path) -> Result<Self, PersistError> {
        persist::load(path)
    }
}

impl Backend for MmapIndex {
    const OPEN_SPAN: &'static str = "core.mapped.open";
    fn open(path: &Path) -> Result<Self, PersistError> {
        MmapIndex::open(path)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub flatten_s: f64,
    pub parents_s: f64,
    pub encode_s: f64,
    pub write_s: f64,
    /// Builder to encoded bytes, what `build_s` reports. The write that
    /// follows is `std::fs::write`, no code of the program's, and took 10 to
    /// 680 ms for one 35 MB file depending on the journal and on who else
    /// wrote to the disk; it is `core.persist.write_ms`.
    pub total_s: f64,
}

/// One graph+ranking → `.chl` on disk.
#[derive(Debug)]
pub struct Built {
    /// The pointer and flat indexes, kept only for the traced pass: the
    /// untraced pass drops them so `peak_rss_mb` is the program's memory,
    /// not the harness's copies.
    pub indexes: Option<(HubLabelIndex, FlatIndex)>,
    pub total_labels: usize,
    pub stats: ConstructionStats,
    pub file_len: u64,
    pub times: BuildTimes,
}

fn save_options(w: &Workload) -> SaveOptions {
    if w.compressed_mmap {
        SaveOptions::compressed()
    } else {
        SaveOptions::default()
    }
}

fn build_once(
    ctx: &mut Ctx,
    w: &Workload,
    inputs: &Inputs,
    path: &Path,
    rep: u64,
    keep: bool,
) -> Res<Built> {
    let open = ctx.tracer.enter("build.rep");
    let start = Instant::now();
    let (result, _) = ctx.call("core.builder.build", rep, || {
        ChlBuilder::new(&inputs.graph)
            .ranking(RankingStrategy::Explicit(inputs.ranking.clone()))
            .algorithm(Algorithm::Hybrid)
            .threads(THREADS)
            .build()
    });
    let result = result?;
    let (flat, flatten_s) = ctx.call("core.flat.from_index", rep, || {
        FlatIndex::from_index(&result.index)
    });
    let (flat, parents_s) = if w.traffic == Traffic::Blocks {
        let (with, s) = ctx.call("core.paths.attach_parents", rep, || {
            attach_parents(&inputs.graph, flat)
        });
        (with?, s)
    } else {
        (flat, 0.0)
    };
    let options = save_options(w);
    let (bytes, encode_s) = ctx.call("core.persist.encode", rep, || {
        persist::to_bytes_with(&flat, &options)
    });
    let total_s = start.elapsed().as_secs_f64();
    let (wrote, write_s) = ctx.call("core.persist.write", rep, || std::fs::write(path, &bytes));
    wrote?;
    ctx.tracer.exit(open);
    Ok(Built {
        total_labels: flat.total_labels(),
        indexes: keep.then_some((result.index, flat)),
        stats: result.stats,
        file_len: bytes.len() as u64,
        times: BuildTimes {
            flatten_s,
            parents_s,
            encode_s,
            write_s,
            total_s,
        },
    })
}

/// In-process answers to one traffic unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitAnswers {
    pub matrix: Vec<Distance>,
    pub paths: Vec<Vec<VertexId>>,
    pub points: Vec<Distance>,
}

impl UnitAnswers {
    /// Order-sensitive only within a path; cheap enough to sit inside the
    /// timed block.
    fn fold(&self) -> u64 {
        let cells = self.matrix.iter().chain(&self.points);
        let mut sum = cells.fold(0u64, |s, &d| s.wrapping_add(d));
        for path in &self.paths {
            sum = sum.wrapping_mul(31).wrapping_add(path.len() as u64);
            sum = path.iter().fold(sum, |s, &v| s.wrapping_add(u64::from(v)));
        }
        sum
    }
}

/// Evaluates one unit through the batch and path entry points. A path the
/// backend refuses becomes an answer no expectation matches.
pub fn answer_unit<O: DistanceOracle + PathOracle>(oracle: &O, unit: &Unit) -> UnitAnswers {
    UnitAnswers {
        matrix: oracle.matrix(&unit.sources, &unit.targets),
        paths: unit
            .paths
            .iter()
            .map(|&(u, v)| match oracle.path(u, v) {
                Ok(path) => path.unwrap_or_default(),
                Err(_) => vec![VertexId::MAX],
            })
            .collect(),
        points: unit
            .points
            .iter()
            .map(|&(u, v)| oracle.distance(u, v))
            .collect(),
    }
}

/// Answers computed in process once, after the truth check: what every
/// later phase (timed blocks, batches, served frames) is compared with.
#[derive(Debug, Default)]
pub struct Expected {
    pub pool: Vec<Distance>,
    pub units: Vec<UnitAnswers>,
    pub wide: Vec<Distance>,
    /// Fold of each timed query block.
    pub blocks: Vec<u64>,
}

/// Number of timed query blocks and answers in each.
fn block_shape(inputs: &Inputs, traffic: Traffic) -> (usize, usize) {
    match traffic {
        Traffic::Points => (inputs.pairs.len() / inputs.sizes.block, inputs.sizes.block),
        Traffic::Blocks => {
            let per = units_per_block(inputs);
            (inputs.units.len() / per, per * Unit::ANSWERS as usize)
        }
    }
}

fn units_per_block(inputs: &Inputs) -> usize {
    (inputs.sizes.block / Unit::ANSWERS as usize).max(1)
}

/// The timed unit of `query_ns`: one block of the workload's op mix on one
/// thread. Returns the fold of its answers.
fn run_block<O: DistanceOracle + PathOracle>(
    oracle: &O,
    inputs: &Inputs,
    traffic: Traffic,
    block: usize,
) -> u64 {
    match traffic {
        Traffic::Points => {
            let size = inputs.sizes.block;
            inputs.pairs[block * size..(block + 1) * size]
                .iter()
                .fold(0u64, |s, &(u, v)| s.wrapping_add(oracle.distance(u, v)))
        }
        Traffic::Blocks => {
            let per = units_per_block(inputs);
            inputs.units[block * per..(block + 1) * per]
                .iter()
                .fold(0u64, |s, unit| {
                    s.wrapping_add(answer_unit(oracle, unit).fold())
                })
        }
    }
}

fn expect<O: DistanceOracle + PathOracle>(
    ctx: &mut Ctx,
    oracle: &O,
    inputs: &Inputs,
    traffic: Traffic,
) -> Expected {
    let distance = |&(u, v): &(VertexId, VertexId)| oracle.distance(u, v);
    let mut expected = Expected {
        pool: inputs.pairs.iter().map(distance).collect(),
        ..Expected::default()
    };
    if traffic == Traffic::Blocks {
        for unit in &inputs.units {
            let answers = answer_unit(oracle, unit);
            // The pivoted matrix against the plain join, cell by cell.
            let cells: Vec<Distance> = unit
                .sources
                .iter()
                .flat_map(|&s| unit.targets.iter().map(move |&t| (s, t)))
                .map(|pair| distance(&pair))
                .collect();
            ctx.gate.check_cells(
                &answers.matrix,
                &cells,
                "matrix cell differs from the point join",
            );
            let bad_walks = unit
                .paths
                .iter()
                .zip(&answers.paths)
                .filter(|(pair, path)| {
                    let (u, v) = **pair;
                    let path = (!path.is_empty()).then_some(path.as_slice());
                    walk_weight(&inputs.graph, u, v, path) != Some(oracle.distance(u, v))
                })
                .count();
            ctx.gate
                .count(unit.paths.len() as u64, bad_walks as u64, || {
                    "path is not an edge walk of the distance's weight".to_string()
                });
            expected.units.push(answers);
        }
        expected.wide = inputs
            .wide_sources
            .iter()
            .flat_map(|&s| inputs.wide_targets.iter().map(move |&t| (s, t)))
            .map(|pair| distance(&pair))
            .collect();
    }
    let (blocks, _) = block_shape(inputs, traffic);
    expected.blocks = match traffic {
        Traffic::Points => expected
            .pool
            .chunks_exact(inputs.sizes.block)
            .map(|c| c.iter().fold(0u64, |s, &d| s.wrapping_add(d)))
            .collect(),
        Traffic::Blocks => expected
            .units
            .chunks_exact(units_per_block(inputs))
            .map(|c| c.iter().fold(0u64, |s, u| s.wrapping_add(u.fold())))
            .collect(),
    };
    debug_assert_eq!(expected.blocks.len(), blocks);
    for &d in expected.pool.iter().chain(&expected.wide) {
        ctx.gate.fold(d);
    }
    for unit in &expected.units {
        ctx.gate.fold(unit.fold());
    }
    expected
}

/// The frames one connection cycles through, each with the response the
/// in-process oracle gives for the same ids.
pub fn frames(
    inputs: &Inputs,
    expected: &Expected,
    traffic: Traffic,
    with_paths: bool,
) -> Vec<Frame> {
    match traffic {
        Traffic::Points => inputs
            .pairs
            .chunks(FRAME_PAIRS)
            .zip(expected.pool.chunks(FRAME_PAIRS))
            .map(|(pairs, ds)| {
                Frame::new(
                    &Request::Query(pairs.to_vec()),
                    Response::Distances(ds.to_vec()),
                    pairs.len(),
                )
            })
            .collect(),
        Traffic::Blocks => {
            let mut out = Vec::new();
            for (unit, answers) in inputs.units.iter().zip(&expected.units) {
                out.push(Frame::new(
                    &Request::Matrix {
                        sources: unit.sources.clone(),
                        targets: unit.targets.clone(),
                    },
                    Response::Matrix(answers.matrix.clone()),
                    answers.matrix.len(),
                ));
                if with_paths {
                    for (&(u, v), path) in unit.paths.iter().zip(&answers.paths) {
                        out.push(Frame::new(
                            &Request::Path(u, v),
                            Response::Path(path.clone()),
                            1,
                        ));
                    }
                }
                out.push(Frame::new(
                    &Request::Query(unit.points.clone()),
                    Response::Distances(answers.points.clone()),
                    unit.points.len(),
                ));
            }
            out
        }
    }
}

pub fn spawn_server(path: &Path, mmap: bool) -> Res<SpawnedServer> {
    let shared = Arc::new(SharedIndex::open(path, mmap)?);
    let options = ServeOptions {
        threads: THREADS,
        ..ServeOptions::default()
    };
    Ok(Server::bind("127.0.0.1:0", shared, options)?.spawn()?)
}

/// The opened index and everything derived from it, alive from the first
/// build to the end of the workload.
pub struct Live<B> {
    pub path: PathBuf,
    pub oracle: B,
    pub built: Built,
    pub expected: Expected,
    pub frames: Vec<Frame>,
    pub server: SpawnedServer,
}

/// Samples gathered across rounds.
#[derive(Debug, Default)]
struct Samples {
    build_s: Vec<f64>,
    cold_ms: Vec<f64>,
    query_ns: Vec<f64>,
    /// The same phases with the tracer paused, traced pass only.
    query_ns_untraced: Vec<f64>,
    batch_qps: Vec<f64>,
    windows: Vec<Window>,
    windows_untraced: Vec<Window>,
    latencies_us: Vec<f64>,
    rss_serving_mb: f64,
}

fn query_slice<B: Backend>(
    ctx: &mut Ctx,
    live: &Live<B>,
    inputs: &Inputs,
    traffic: Traffic,
    budget: Duration,
    round: usize,
) -> Vec<f64> {
    let (blocks, answers) = block_shape(inputs, traffic);
    let mut bad = 0u64;
    let seconds = ctx.sample("core.backend.query_block", budget, usize::MAX, |rep| {
        // Rounds start at different blocks so a short slice still covers
        // the pool.
        let block = (rep + round * blocks / ROUNDS) % blocks;
        let fold = run_block(black_box(&live.oracle), inputs, traffic, block);
        bad += u64::from(black_box(fold) != live.expected.blocks[block]);
    });
    let done = seconds.len() as u64;
    ctx.gate
        .count(done * answers as u64, bad * answers as u64, || {
            "timed query block differs from the expected answers".to_string()
        });
    seconds.iter().map(|s| s * 1e9 / answers as f64).collect()
}

fn batch_slice<B: Backend>(
    ctx: &mut Ctx,
    live: &Live<B>,
    inputs: &Inputs,
    traffic: Traffic,
    budget: Duration,
) -> Vec<f64> {
    let (name, want) = match traffic {
        Traffic::Points => ("core.oracle.distances", &live.expected.pool),
        Traffic::Blocks => ("core.oracle.matrix", &live.expected.wide),
    };
    let begun = Instant::now();
    let mut qps = Vec::new();
    while qps.is_empty() || begun.elapsed() < budget {
        let (got, seconds) = ctx.call(name, qps.len() as u64 + 1, || match traffic {
            Traffic::Points => live.oracle.distances(black_box(&inputs.pairs)),
            Traffic::Blocks => live
                .oracle
                .matrix(black_box(&inputs.wide_sources), &inputs.wide_targets),
        });
        ctx.gate
            .check_cells(&got, want, "batch answer differs from the point join");
        qps.push(want.len() as f64 / seconds);
    }
    qps
}

/// Path → validated index → first correct answer, page cache warm.
fn cold_slice<B: Backend>(
    ctx: &mut Ctx,
    live: &Live<B>,
    inputs: &Inputs,
    budget: Duration,
    round: usize,
) -> Res<Vec<f64>> {
    let begun = Instant::now();
    let mut ms = Vec::new();
    while ms.is_empty() || (begun.elapsed() < budget && ms.len() < MAX_COLD_REPS_PER_ROUND) {
        let probe = (round * MAX_COLD_REPS_PER_ROUND + ms.len()) % inputs.pairs.len();
        let (u, v) = inputs.pairs[probe];
        let open = ctx.tracer.enter("cold-open.rep");
        let start = Instant::now();
        let (index, _) = ctx.call(B::OPEN_SPAN, probe as u64, || B::open(&live.path));
        let index = index?;
        let (answer, _) = ctx.call("core.backend.first_query", probe as u64, || {
            index.distance(u, v)
        });
        ms.push(start.elapsed().as_secs_f64() * 1e3);
        ctx.tracer.exit(open);
        ctx.gate.check(answer == live.expected.pool[probe], || {
            "first answer after cold open is wrong".to_string()
        });
    }
    Ok(ms)
}

fn serve_slice<B>(ctx: &mut Ctx, live: &Live<B>, budget: Duration) -> (Vec<Window>, Driven) {
    let addr = live.server.handle().addr();
    let (start, driven) = drive(addr, &live.frames, CONNECTIONS, IN_FLIGHT, budget);
    ctx.gate.count(driven.attempted, driven.failed, || {
        let error = driven.error.as_deref().unwrap_or("none");
        format!("served response differs from the in-process oracle (connection error: {error})")
    });
    if ctx.tracer.enabled() {
        for (frame, c) in driven.done.iter().enumerate() {
            let at = |ns: u64| start + Duration::from_nanos(ns);
            ctx.tracer.leaf(
                "serve.server.frame",
                at(c.sent_ns),
                at(c.recv_ns),
                frame as u64 + 1,
            );
        }
    }
    let window = SERVE_WINDOW.min(budget / 4).as_nanos() as u64;
    let found = windows(&driven.done, window, budget.as_nanos() as u64);
    (found, driven)
}

/// Opens the freshly written index on the workload's backend, checks it
/// against the ground truth, computes every expected answer and starts the
/// server the serve phases talk to.
fn open_and_check<B: Backend>(
    ctx: &mut Ctx,
    w: &Workload,
    inputs: &Inputs,
    path: &Path,
    built: Built,
) -> Res<Live<B>> {
    let (oracle, _) = ctx.call(B::OPEN_SPAN, 0, || B::open(path));
    let oracle = oracle?;
    ctx.gate.check_truth(&oracle, &inputs.truth);
    if w.traffic == Traffic::Blocks {
        ctx.gate
            .check_truth_paths(&oracle, &inputs.graph, &inputs.truth);
    }
    let expected = expect(ctx, &oracle, inputs, w.traffic);
    let frames = frames(inputs, &expected, w.traffic, true);
    let server = spawn_server(path, w.compressed_mmap)?;
    Ok(Live {
        path: path.to_path_buf(),
        oracle,
        built,
        expected,
        frames,
        server,
    })
}

fn lifecycle<B: Backend>(
    ctx: &mut Ctx,
    w: &Workload,
    opts: &RunOptions,
    inputs: &Inputs,
) -> Res<StatsSnapshot> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!("{}.chl", w.name));
    // Repeated builds write beside the served file: it may be mapped.
    let rep_path = opts.out_dir.join(format!("{}.rep.chl", w.name));
    let seconds = opts.seconds * if opts.trace { TRACED_LIFECYCLE } else { 1.0 };
    let slice = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    let mut samples = Samples::default();

    let built = ctx.span("build", |ctx| {
        build_once(ctx, w, inputs, &path, 1, opts.trace)
    })?;
    samples.build_s.push(built.times.total_s);
    // The watermark now, with the first index on disk and nothing loaded:
    // what `chl build` would need. Later the process also holds the opened
    // index, the server's copy and whatever heap earlier builds left behind,
    // and its watermark at exit moved by a third between two runs.
    ctx.put_exact("peak_rss_mb", sysinfo::peak_rss_mb().unwrap_or(f64::NAN));
    let rss_after_build = sysinfo::rss_mb().unwrap_or(f64::NAN);
    let live = ctx.span("gate", |ctx| {
        open_and_check::<B>(ctx, w, inputs, &path, built)
    })?;
    if opts.trace {
        ctx.put_exact("proc.rss_after_build_mb", rss_after_build);
    }

    // Every round earns construction one slice of time; a build is repeated
    // whenever the account is in credit. Seconds-long builds thus land in
    // every second round or so, millisecond ones a few times a round, and
    // the total stays at construction's share.
    let mut build_credit = -live.built.times.total_s;
    let mut setup_credit = 0.0;
    for round in 0..ROUNDS {
        setup_credit += slice(SETUP_SHARE).as_secs_f64();
        if setup_credit > 0.0 {
            let (_, s) = ctx.span("setup", |ctx| {
                ctx.call("setup.rep", round as u64 + 1, || {
                    setup(w, opts.scale, opts.seed)
                })
            });
            ctx.put("setup_s", &[s]);
            setup_credit -= s;
        }
        build_credit += slice(BUILD_SHARE).as_secs_f64();
        // The traced pass reports no build_s: its one build gave the spans.
        if !opts.trace && build_credit > 0.0 {
            ctx.span("build", |ctx| -> Res<()> {
                for _ in 0..MAX_BUILD_REPS_PER_ROUND {
                    let rep = samples.build_s.len() as u64 + 1;
                    let again = build_once(ctx, w, inputs, &rep_path, rep, false)?;
                    // Gone before writeback allocates its blocks: the next
                    // rep then creates a fresh file instead of truncating a
                    // flushed one, which on a `discard` mount took 20 to
                    // 480 ms for the same 45 MB.
                    std::fs::remove_file(&rep_path)?;
                    ctx.gate.check(
                        again.file_len == live.built.file_len
                            && again.total_labels == live.built.total_labels,
                        || "a repeated build gave a different index".to_string(),
                    );
                    samples.build_s.push(again.times.total_s);
                    build_credit -= again.times.total_s;
                    if build_credit <= 0.0 {
                        break;
                    }
                }
                Ok(())
            })?;
        }

        // In the traced pass query and serve also run with the tracer
        // paused; which goes first alternates by round.
        let passes: &[bool] = match (opts.trace, round % 2) {
            (false, _) => &[true],
            (true, 0) => &[true, false],
            (true, _) => &[false, true],
        };
        ctx.span("query", |ctx| {
            for &traced in passes {
                ctx.tracer.pause(!traced);
                let ns = query_slice(ctx, &live, inputs, w.traffic, slice(QUERY_SHARE), round);
                ctx.tracer.pause(false);
                let into = if traced {
                    &mut samples.query_ns
                } else {
                    &mut samples.query_ns_untraced
                };
                into.extend(ns);
            }
        });
        ctx.span("batch", |ctx| {
            let qps = batch_slice(ctx, &live, inputs, w.traffic, slice(BATCH_SHARE));
            samples.batch_qps.extend(qps);
        });
        ctx.span("cold-open", |ctx| -> Res<()> {
            samples
                .cold_ms
                .extend(cold_slice(ctx, &live, inputs, slice(COLD_SHARE), round)?);
            Ok(())
        })?;
        ctx.span("serve", |ctx| {
            for &traced in passes {
                ctx.tracer.pause(!traced);
                let (found, driven) = serve_slice(ctx, &live, slice(SERVE_SHARE));
                ctx.tracer.pause(false);
                if traced {
                    samples.windows.extend(found);
                    samples.latencies_us.extend(driven.latencies_us());
                } else {
                    samples.windows_untraced.extend(found);
                }
            }
            samples.rss_serving_mb = sysinfo::rss_mb().unwrap_or(f64::NAN);
        });
    }

    let n = inputs.graph.num_vertices() as f64;
    ctx.put("build_s", &samples.build_s);
    ctx.put_exact("labels_per_vertex", live.built.total_labels as f64 / n);
    ctx.put_exact("index_bytes_per_vertex", live.built.file_len as f64 / n);
    ctx.put("cold_start_ms", &samples.cold_ms);
    ctx.put("query_ns", &samples.query_ns);
    ctx.put("batch_qps", &samples.batch_qps);
    let qps: Vec<f64> = samples.windows.iter().map(|w| w.answers_per_s).collect();
    let p50: Vec<f64> = samples.windows.iter().map(|w| w.p50_us).collect();
    ctx.put("serve_qps", &qps);
    ctx.put("serve_p50_us", &p50);
    if opts.trace {
        let traced = layers::Lifecycle {
            query_ns: &samples.query_ns,
            query_ns_untraced: &samples.query_ns_untraced,
            batch_qps: &samples.batch_qps,
            windows: &samples.windows,
            windows_untraced: &samples.windows_untraced,
            latencies_us: &samples.latencies_us,
            rss_serving_mb: samples.rss_serving_mb,
        };
        ctx.span("layers", |ctx| {
            layers::run(ctx, w, opts, inputs, &live, &traced)
        })?;
    }
    let final_stats = live.server.shutdown()?;
    std::fs::remove_file(&path)?;
    Ok(final_stats)
}

/// Runs one workload start to finish in this process.
pub fn run(w: &Workload, opts: &RunOptions) -> Res<Outcome> {
    let started = Instant::now();
    let mut ctx = Ctx::new(opts.trace);
    let root = ctx.tracer.enter("workload");

    // Set up several times and report the median: one sample of a
    // sub-second phase is mostly noise. More repetitions follow, spread over
    // the rounds.
    let mut inputs = None;
    ctx.span("setup", |ctx| {
        for rep in 0..FIRST_SETUP_REPS {
            let (made, s) = ctx.call("setup.rep", rep as u64 + 1, || {
                setup(w, opts.scale, opts.seed)
            });
            ctx.put("setup_s", &[s]);
            inputs = Some(made);
        }
    });
    let Some(inputs) = inputs else {
        return Err("setup did not run".into());
    };
    if opts.trace {
        ctx.put_exact("graph.gen_s", inputs.times.gen_s);
        ctx.put_exact("ranking.resolve_s", inputs.times.rank_s);
        ctx.put_exact("graph.dijkstra_us", inputs.times.dijkstra_us);
    }

    let server_stats = if w.compressed_mmap {
        lifecycle::<MmapIndex>(&mut ctx, w, opts, &inputs)?
    } else {
        lifecycle::<FlatIndex>(&mut ctx, w, opts, &inputs)?
    };
    ctx.tracer.exit(root);
    if opts.trace {
        // Every error frame was also seen, and counted failed, by the
        // connection that received it.
        ctx.put_exact(
            "serve.server.error_frames",
            server_stats.error_frames as f64,
        );
    }

    if opts.trace {
        let coverage = crate::trace::root_coverage_pct(ctx.tracer.spans());
        ctx.put_exact("trace.phase_coverage_pct", coverage);
    }
    let (tracer, gate, mut metrics) = ctx.finish();
    // Last, so that it counts a metric that failed to summarize.
    metrics.push(Metric {
        name: spec::FAILED_SHARE,
        unit: "ratio",
        summary: Summary {
            median: gate.failed_share(),
            q1: gate.failed_share(),
            q3: gate.failed_share(),
            samples: 1,
        },
    });
    Ok(Outcome {
        workload: w.name,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        scale: opts.scale,
        attempted: gate.attempted,
        failed: gate.failed,
        checksum: gate.checksum(),
        notes: gate.notes,
        wall_s: started.elapsed().as_secs_f64(),
        metrics,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_time_reports_its_lower_quartile_and_the_rest_their_median() {
        let summary = summarize(&[4.0, 1.0, 3.0, 2.0, 9.0]).expect("samples");
        let metric = |name| Metric {
            name,
            unit: "s",
            summary,
        };
        assert_eq!(metric("build_s").value(), 2.0);
        assert_eq!(metric("setup_s").value(), 3.0);
        for name in spec::LOWER_QUARTILE {
            assert!(spec::END_TO_END.iter().any(|m| m.name == name), "{name}");
        }
    }
}
