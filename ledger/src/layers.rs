//! The traced pass's per-layer measurements: each layer's public functions
//! timed on their own, on the same index, id pool and frames the lifecycle
//! used, so a layer's number can be set against the end-to-end metric it
//! should move. Every answer produced here is checked like any other.
//!
//! The measurements that are compared with each other — the rows of the
//! stack, the four backends, the three load paths — run in interleaved
//! rounds like the lifecycle's phases: on a shared box the speed of
//! everything drifts by a tenth or two over seconds, and two numbers taken
//! seconds apart differ by that much whatever the code does.

use std::borrow::Cow;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::flat::{FlatIndex, IndexView};
use chl_core::index::HubLabelIndex;
use chl_core::kernel::join_adaptive;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{attach_parents, PathOracle};
use chl_core::persist::{self, AlignedBytes, SaveOptions};
use chl_graph::types::{Distance, VertexId, INFINITY};
use chl_query::QdolShardMap;
use chl_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, FrameBuffer, Request,
    Response, DEFAULT_MAX_FRAME,
};
use chl_serve::{Client, ClusterView, LoadedIndex, Router, RouterOptions, SharedIndex};

use crate::gate::walk_weight;
use crate::inputs::{Inputs, Unit};
use crate::load::{drive, Frame};
use crate::spec::{Traffic, Workload, CONNECTIONS, IN_FLIGHT, PLANT_BUILD, THREADS};
use crate::stats::{percentile, summarize, windows, Window};
use crate::workload::{frames, spawn_server, Backend, Ctx, Live, Res, RunOptions};

/// What the lifecycle of this traced run measured, for the layer metrics
/// that are derived from it.
pub struct Lifecycle<'a> {
    pub query_ns: &'a [f64],
    pub query_ns_untraced: &'a [f64],
    pub batch_qps: &'a [f64],
    pub windows: &'a [Window],
    pub windows_untraced: &'a [Window],
    pub latencies_us: &'a [f64],
    pub rss_serving_mb: f64,
}

/// Share of `--seconds` one layer measurement may take, over all rounds.
const LAYER_SHARE: f64 = 0.02;
const ROUNDS: u32 = 3;
const SHARDS: usize = 3;
const TOPK: usize = 10;
const CODEC_FRAMES_PER_SAMPLE: usize = 64;

fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

fn scaled(seconds: &[f64], factor: f64) -> Vec<f64> {
    seconds.iter().map(|s| s * factor).collect()
}

/// Everything the rounds share, made once.
struct Prepared<'a> {
    pointer: &'a HubLabelIndex,
    flat: &'a FlatIndex,
    /// `flat` with parent records, whatever the workload saves.
    pathful: Cow<'a, FlatIndex>,
    /// The same labeling served zero-copy from flat and compressed bytes.
    flat_view: IndexView<'a>,
    compressed_view: IndexView<'a>,
    /// Sum of the expected answers of each block of the point pool.
    sums: Vec<u64>,
    /// The workload's file behind the server's own index type.
    loaded: LoadedIndex,
    /// QUERY frames per `distances` call the live server reached.
    coalesced: usize,
}

/// Times blocks of the point pool through `answer`, one leaf span per
/// block, and checks each block's sum. Returns ns per answer.
fn point_blocks(
    ctx: &mut Ctx,
    name: &'static str,
    inputs: &Inputs,
    sums: &[u64],
    budget: Duration,
    mut answer: impl FnMut(VertexId, VertexId) -> Distance,
) -> Vec<f64> {
    let size = inputs.sizes.block;
    let mut bad = 0u64;
    let seconds = ctx.sample(name, budget, usize::MAX, |rep| {
        let block = rep % sums.len();
        let sum = black_box(&inputs.pairs[block * size..(block + 1) * size])
            .iter()
            .fold(0u64, |s, &(u, v)| s.wrapping_add(answer(u, v)));
        bad += u64::from(black_box(sum) != sums[block]);
    });
    let blocks = seconds.len() as u64;
    ctx.gate.count(blocks * size as u64, bad * size as u64, || {
        format!("{name}: block differs from the expected answers")
    });
    scaled(&seconds, 1e9 / size as f64)
}

fn constructors<B>(
    ctx: &mut Ctx,
    w: &Workload,
    inputs: &Inputs,
    live: &Live<B>,
    pointer: &HubLabelIndex,
) -> Res<()> {
    let others = [
        (Algorithm::Pll, "core.pll.build_s", 1),
        (Algorithm::Lcc, "core.lcc.build_s", THREADS),
        (Algorithm::Gll, "core.gll.build_s", THREADS),
        (Algorithm::Plant, PLANT_BUILD, THREADS),
    ];
    for (algorithm, name, threads) in others {
        if algorithm == Algorithm::Plant && !w.plant {
            continue;
        }
        let (result, seconds) = ctx.call(name, 0, || {
            ChlBuilder::new(&inputs.graph)
                .ranking(RankingStrategy::Explicit(inputs.ranking.clone()))
                .algorithm(algorithm)
                .threads(threads)
                .build()
        });
        // All five canonical constructors must give the same labeling.
        ctx.gate.check(&result?.index == pointer, || {
            format!("{algorithm} built a different labeling than Hybrid")
        });
        ctx.put_exact(name, seconds);
    }
    let stats = &live.built.stats;
    let construct_s = stats.construction_time.as_secs_f64();
    ctx.put_exact("core.hybrid.construct_s", construct_s);
    ctx.put_exact("core.hybrid.clean_s", stats.cleaning_time.as_secs_f64());
    ctx.put_exact("core.hybrid.planted_trees", stats.planted_trees as f64);
    ctx.put_exact("core.hybrid.supersteps", stats.supersteps as f64);
    let explored = stats.total_vertices_explored() as f64;
    ctx.put_exact("core.hybrid.vertices_explored", explored);
    // The pruning queries of the pruned-Dijkstra tail; PLaNTed trees issue
    // none.
    ctx.put_exact("core.hybrid.rank_queries", stats.distance_queries as f64);
    ctx.put_exact("core.hybrid.redundancy_ratio", stats.redundancy_ratio());
    let times = &live.built.times;
    ctx.put_exact("core.flat.flatten_ms", times.flatten_s * 1e3);
    ctx.put_exact("core.persist.encode_ms", times.encode_s * 1e3);
    ctx.put_exact("core.persist.write_ms", times.write_s * 1e3);
    let per_label = live.built.file_len as f64 / live.built.total_labels as f64;
    ctx.put_exact("core.persist.bytes_per_label", per_label);
    Ok(())
}

/// All three load paths on the workload's file, and the checksum they share.
fn persist_paths<B>(ctx: &mut Ctx, live: &Live<B>, bytes: &[u8], budget: Duration) {
    let crc = ctx.sample("core.persist.crc32", budget, 32, |_| {
        black_box(persist::crc32(black_box(bytes)));
    });
    let mut failures = 0u64;
    let load = ctx.sample("core.persist.load", budget, 32, |_| {
        failures += u64::from(persist::load(&live.path).is_err());
    });
    let view = ctx.sample("core.persist.view", budget, 32, |_| {
        let opened = persist::read_aligned(&live.path)
            .and_then(|buffer| persist::open_view(&buffer).map(|view| view.num_vertices()));
        failures += u64::from(opened.is_err());
    });
    let mapped = ctx.sample("core.mapped.open", budget, 32, |_| {
        failures += u64::from(MmapIndex::open(&live.path).is_err());
    });
    let opens = (load.len() + view.len() + mapped.len()) as u64;
    ctx.gate.count(opens, failures, || {
        "a load path rejected the workload's file".to_string()
    });
    ctx.put("core.persist.crc_ms", &scaled(&crc, 1e3));
    ctx.put("core.persist.load_ms", &scaled(&load, 1e3));
    ctx.put("core.persist.view_ms", &scaled(&view, 1e3));
    ctx.put("core.mapped.open_ms", &scaled(&mapped, 1e3));
}

/// One labeling and one id pool through the raw join, the four storage
/// backends, the workload's own backend and its 64-pair batch call.
fn query_stack<B: Backend>(
    ctx: &mut Ctx,
    inputs: &Inputs,
    live: &Live<B>,
    p: &Prepared<'_>,
    budget: Duration,
) {
    let (flat, sums) = (p.flat, p.sums.as_slice());
    let ns = point_blocks(
        ctx,
        "core.kernel.join_adaptive",
        inputs,
        sums,
        budget,
        |u, v| join_adaptive(flat.labels_of(u), flat.labels_of(v)).map_or(INFINITY, |(_, d)| d),
    );
    ctx.put("core.kernel.join_ns", &ns);
    let ns = point_blocks(ctx, "core.backend.own", inputs, sums, budget, |u, v| {
        live.oracle.distance(u, v)
    });
    ctx.put("stack.query_ns", &ns);
    let ns = point_blocks(ctx, "core.backend.pointer", inputs, sums, budget, |u, v| {
        p.pointer.distance(u, v)
    });
    ctx.put("core.backend.pointer_query_ns", &ns);
    let ns = point_blocks(ctx, "core.backend.flat", inputs, sums, budget, |u, v| {
        flat.distance(u, v)
    });
    ctx.put("core.backend.flat_query_ns", &ns);
    let ns = point_blocks(ctx, "core.backend.view", inputs, sums, budget, |u, v| {
        p.flat_view.distance(u, v)
    });
    ctx.put("core.backend.view_query_ns", &ns);
    let ns = point_blocks(
        ctx,
        "core.backend.compressed",
        inputs,
        sums,
        budget,
        |u, v| p.compressed_view.distance(u, v),
    );
    ctx.put("core.backend.compressed_query_ns", &ns);

    // One 64-pair call, as the server makes it for one QUERY frame.
    let mut wrong = 0u64;
    let chunks = inputs.pairs.len() / 64;
    let b64 = ctx.sample("core.oracle.distances", budget, usize::MAX, |rep| {
        let at = (rep % chunks) * 64;
        let got = live.oracle.distances(black_box(&inputs.pairs[at..at + 64]));
        wrong += u64::from(got != live.expected.pool[at..at + 64]);
    });
    ctx.gate.count(b64.len() as u64 * 64, wrong * 64, || {
        "a 64-pair distances call differs from the point join".to_string()
    });
    ctx.put("core.oracle.distances_b64_us", &scaled(&b64, 1e6));
}

/// Matrix, path and top-k entry points on the flat index (with parents).
fn blocks_ops(ctx: &mut Ctx, inputs: &Inputs, p: &Prepared<'_>, budget: Duration) {
    let flat = p.flat;
    let cells_of = |sources: &[VertexId], targets: &[VertexId]| -> Vec<Distance> {
        sources
            .iter()
            .flat_map(|&s| targets.iter().map(move |&t| flat.distance(s, t)))
            .collect()
    };

    let units = inputs.units.len();
    let mut results: Vec<(usize, Vec<Distance>)> = Vec::new();
    let small = ctx.sample("core.kernel.matrix16", budget, 2 * units, |rep| {
        let unit = &inputs.units[rep % units];
        let cells = flat.matrix(black_box(&unit.sources), &unit.targets);
        results.push((rep % units, cells));
    });
    for (unit, got) in results.iter().take(units) {
        let unit = &inputs.units[*unit];
        let want = cells_of(&unit.sources, &unit.targets);
        ctx.gate.check_cells(got, &want, "16x16 matrix cell");
    }
    let cells = (Unit::SIDE * Unit::SIDE) as f64;
    ctx.put("core.kernel.matrix_cell_ns", &scaled(&small, 1e9 / cells));

    let mut wide = Vec::new();
    let big = ctx.sample("core.kernel.matrix256", budget, 8, |_| {
        wide = flat.matrix(black_box(&inputs.wide_sources), &inputs.wide_targets);
    });
    let want = cells_of(&inputs.wide_sources, &inputs.wide_targets);
    ctx.gate.check_cells(&wide, &want, "wide matrix cell");
    let cells = wide.len() as f64;
    ctx.put("core.kernel.matrix256_cell_ns", &scaled(&big, 1e9 / cells));

    let routes: Vec<(VertexId, VertexId)> =
        inputs.units.iter().flat_map(|u| u.paths.clone()).collect();
    let mut walked = Vec::new();
    let path_s = ctx.sample("core.paths.path", budget, 2 * routes.len(), |rep| {
        let (u, v) = routes[rep % routes.len()];
        walked.push((u, v, p.pathful.path(black_box(u), v)));
    });
    let mut hops = 0usize;
    let mut bad = 0u64;
    for (u, v, path) in &walked {
        let path = path.as_ref().ok().and_then(|p| p.as_deref());
        hops += path.map_or(0, |p| p.len().saturating_sub(1));
        bad += u64::from(walk_weight(&inputs.graph, *u, *v, path) != Some(flat.distance(*u, *v)));
    }
    ctx.gate.count(walked.len() as u64, bad, || {
        "path is not an edge walk of the distance's weight".to_string()
    });
    ctx.put("core.paths.path_us", &scaled(&path_s, 1e6));
    let per_hop = path_s.iter().sum::<f64>() * 1e9 / hops.max(1) as f64;
    ctx.put_exact("core.paths.hop_ns", per_hop);

    let mut nearest = Vec::new();
    let topk = ctx.sample("core.oracle.topk", budget, 2 * units, |rep| {
        let source = inputs.units[rep % units].sources[0];
        let found = flat.topk(black_box(source), &inputs.wide_targets, TOPK);
        nearest.push((source, found));
    });
    let mut bad = 0u64;
    for (source, got) in nearest.iter().take(units) {
        let mut want: Vec<(VertexId, Distance)> = inputs
            .wide_targets
            .iter()
            .map(|&t| (t, flat.distance(*source, t)))
            .filter(|&(_, d)| d != INFINITY)
            .collect();
        want.sort_unstable_by_key(|&(t, d)| (d, t));
        want.truncate(TOPK);
        bad += u64::from(*got != want);
    }
    ctx.gate.count(nearest.len().min(units) as u64, bad, || {
        "top-k differs from the sorted point joins".to_string()
    });
    ctx.put("core.oracle.topk_us", &scaled(&topk, 1e6));
}

/// The server's work on a run of frames without the sockets: decode each,
/// answer them (a run of QUERY frames with one `distances` call, as
/// `chl-serve` coalesces them; MATRIX and PATH frames one by one), encode
/// each response. Each part is its own span.
fn serve_in_process(ctx: &mut Ctx, loaded: &LoadedIndex, run: &[&Frame], id: u64) -> Vec<u8> {
    let open = ctx.tracer.enter("serve.inproc.run");
    let (requests, _) = ctx.call("serve.protocol.decode_request", id, || {
        run.iter()
            .map(|frame| decode_request(frame.wire.get(4..).unwrap_or_default()))
            .collect::<Vec<_>>()
    });
    let (responses, _) = ctx.call("serve.index.answer", id, || {
        let mut batch: Vec<(VertexId, VertexId)> = Vec::new();
        for request in &requests {
            if let Ok(Request::Query(pairs)) = request {
                batch.extend_from_slice(pairs);
            }
        }
        let answers = if batch.is_empty() {
            Vec::new()
        } else {
            loaded.oracle().distances(&batch)
        };
        let mut answers = answers.into_iter();
        requests
            .iter()
            .map(|request| match request {
                Ok(Request::Query(pairs)) => Some(Response::Distances(
                    answers.by_ref().take(pairs.len()).collect(),
                )),
                Ok(Request::Matrix { sources, targets }) => {
                    Some(Response::Matrix(loaded.oracle().matrix(sources, targets)))
                }
                Ok(Request::Path(u, v)) => loaded
                    .path(*u, *v)
                    .ok()
                    .map(|path| Response::Path(path.unwrap_or_default())),
                _ => None,
            })
            .collect::<Vec<_>>()
    });
    let mut out = Vec::new();
    ctx.call("serve.protocol.encode_response", id, || {
        for response in responses.iter().flatten() {
            encode_response(response, &mut out);
        }
    });
    ctx.tracer.exit(open);
    out
}

/// Drives `serve_in_process` over the workload's frames, `run` at a time,
/// for `budget`. Returns seconds and answers per run.
fn in_process_runs<B>(
    ctx: &mut Ctx,
    live: &Live<B>,
    loaded: &LoadedIndex,
    run: usize,
    budget: Duration,
) -> Vec<(f64, u64)> {
    let begun = Instant::now();
    let (mut done, mut attempted, mut bad) = (Vec::new(), 0u64, 0u64);
    while done.is_empty() || begun.elapsed() < budget {
        let at = done.len() * run;
        let frames: Vec<&Frame> = (0..run)
            .map(|i| &live.frames[(at + i) % live.frames.len()])
            .collect();
        let start = Instant::now();
        let out = serve_in_process(ctx, loaded, &frames, done.len() as u64 + 1);
        let seconds = start.elapsed().as_secs_f64();
        let mut buffer = FrameBuffer::new(DEFAULT_MAX_FRAME);
        buffer.extend(&out);
        let mut answers = 0u64;
        for frame in &frames {
            let payload = buffer.next_payload().ok().flatten();
            let decoded = payload.and_then(|p| decode_response(&p).ok());
            answers += u64::from(frame.answers);
            if decoded.as_ref() != Some(&frame.expect) {
                bad += u64::from(frame.answers);
            }
        }
        attempted += answers;
        done.push((seconds, answers));
    }
    ctx.gate.count(attempted, bad, || {
        "in-process service differs from the oracle".to_string()
    });
    done
}

/// Frame codec, frame buffer and the in-process service, one frame per
/// oracle call and coalesced as the live server did.
fn protocol_and_service<B>(
    ctx: &mut Ctx,
    inputs: &Inputs,
    live: &Live<B>,
    p: &Prepared<'_>,
    budget: Duration,
) {
    // A 64-pair QUERY frame and its response, whatever the workload's mix.
    let request = Request::Query(inputs.pairs[..64].to_vec());
    let response = Response::Distances(live.expected.pool[..64].to_vec());
    let (mut request_wire, mut response_wire) = (Vec::new(), Vec::new());
    encode_request(&request, &mut request_wire);
    encode_response(&response, &mut response_wire);
    let per_sample = (CODEC_FRAMES_PER_SAMPLE * 64) as f64;
    let mut scratch = Vec::new();
    let mut bad = 0u64;
    let mut client_s = Vec::new();
    let codec = ctx.sample("serve.protocol.codec", budget, usize::MAX, |_| {
        for _ in 0..CODEC_FRAMES_PER_SAMPLE {
            scratch.clear();
            encode_request(black_box(&request), &mut scratch);
            let decoded = decode_request(black_box(&request_wire[4..]));
            bad += u64::from(decoded.ok().as_ref() != Some(&request));
            scratch.clear();
            encode_response(black_box(&response), &mut scratch);
        }
        // The client's share, timed on its own: requests are pre-encoded,
        // so all a connection does per frame is decode the response.
        let start = Instant::now();
        for _ in 0..CODEC_FRAMES_PER_SAMPLE {
            let decoded = decode_response(black_box(&response_wire[4..]));
            bad += u64::from(decoded.ok().as_ref() != Some(&response));
        }
        client_s.push(start.elapsed().as_secs_f64());
    });
    let frames = 2 * (codec.len() * CODEC_FRAMES_PER_SAMPLE) as u64;
    ctx.gate
        .count(frames, bad, || "frame codec round trip".to_string());
    ctx.put("serve.protocol.codec_ns", &scaled(&codec, 1e9 / per_sample));
    ctx.put(
        "stack.client_decode_ns",
        &scaled(&client_s, 1e9 / per_sample),
    );

    let mut window = Vec::new();
    for _ in 0..IN_FLIGHT {
        window.extend_from_slice(&request_wire);
    }
    let mut buffer = FrameBuffer::new(DEFAULT_MAX_FRAME);
    let mut bad = 0u64;
    let framed = ctx.sample("serve.protocol.framebuffer", budget, usize::MAX, |_| {
        for _ in 0..CODEC_FRAMES_PER_SAMPLE / IN_FLIGHT {
            buffer.extend(black_box(&window));
            for _ in 0..IN_FLIGHT {
                let whole = matches!(buffer.next_payload(), Ok(Some(p)) if p.len() + 4 == request_wire.len());
                bad += u64::from(!whole);
            }
        }
    });
    let frames = (framed.len() * CODEC_FRAMES_PER_SAMPLE) as u64;
    ctx.gate
        .count(frames, bad, || "frame buffer lost a frame".to_string());
    ctx.put(
        "serve.protocol.framebuffer_ns",
        &scaled(&framed, 1e9 / per_sample),
    );

    let single = in_process_runs(ctx, live, &p.loaded, 1, budget);
    let frame_us: Vec<f64> = single.iter().map(|&(s, _)| s * 1e6).collect();
    ctx.put("serve.inproc.frame_us", &frame_us);
    // Frames of a mix carry 1 to 256 answers: per answer is total time over
    // total answers of the round, not a median over frames.
    let per_answer = |runs: &[(f64, u64)]| {
        let (seconds, answers) = runs
            .iter()
            .fold((0.0, 0u64), |(s, n), &(ds, dn)| (s + ds, n + dn));
        seconds * 1e9 / answers.max(1) as f64
    };
    ctx.put_exact("stack.inproc_ns", per_answer(&single));
    let coalesced = in_process_runs(ctx, live, &p.loaded, p.coalesced, budget);
    ctx.put_exact("stack.inproc_coalesced_ns", per_answer(&coalesced));
}

fn http_distance(addr: SocketAddr, u: VertexId, v: VertexId) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let request = format!("GET /distance?s={u}&t={v} HTTP/1.1\r\nHost: ledger\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    Ok(reply)
}

/// The live server beyond the lifecycle's traffic: its counters, tails,
/// unpipelined and HTTP round trips, open and reload.
fn server_extras<B>(
    ctx: &mut Ctx,
    w: &Workload,
    inputs: &Inputs,
    live: &Live<B>,
    lifecycle: &Lifecycle<'_>,
    budget: Duration,
) -> Res<()> {
    let qps: Vec<f64> = lifecycle.windows.iter().map(|w| w.answers_per_s).collect();
    ctx.put_exact("serve.server.wall_ns", 1e9 / median(&qps));
    let stats = live.server.handle().stats();
    let per_batch = stats.frames as f64 / stats.batch_calls.max(1) as f64;
    ctx.put_exact("serve.server.frames_per_batch", per_batch);
    ctx.put_exact("serve.server.max_coalesced", stats.max_coalesced as f64);
    for (name, p) in [
        ("serve.server.frame_p50_us", 50.0),
        ("serve.server.frame_p99_us", 99.0),
        ("serve.server.frame_p999_us", 99.9),
    ] {
        let at = percentile(lifecycle.latencies_us, p).unwrap_or(f64::NAN);
        ctx.put_exact(name, at);
    }
    ctx.put_exact("proc.rss_serving_mb", lifecycle.rss_serving_mb);

    let addr = live.server.handle().addr();
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(10)))?;
    let mut bad = 0u64;
    let rtt = ctx.sample("serve.server.rtt_b1", budget, usize::MAX, |rep| {
        let at = rep % inputs.pairs.len();
        let (u, v) = inputs.pairs[at];
        bad += u64::from(client.query(u, v).ok() != Some(live.expected.pool[at]));
    });
    ctx.gate.count(rtt.len() as u64, bad, || {
        "unpipelined query answer".to_string()
    });
    ctx.put("serve.server.rtt_b1_us", &scaled(&rtt, 1e6));

    let mut bad = 0u64;
    let http = ctx.sample("serve.http.get", budget, 2000, |rep| {
        let at = rep % inputs.pairs.len();
        let (u, v) = inputs.pairs[at];
        let want = match live.expected.pool[at] {
            INFINITY => "unreachable".to_string(),
            d => d.to_string(),
        };
        let reply = http_distance(addr, u, v).unwrap_or_default();
        let ok = reply.starts_with("HTTP/1.1 200") && reply.lines().last() == Some(&want);
        bad += u64::from(!ok);
    });
    ctx.gate.count(http.len() as u64, bad, || {
        "HTTP /distance answer".to_string()
    });
    ctx.put("serve.http.rtt_us", &scaled(&http, 1e6));

    let mut failures = 0u64;
    let open = ctx.sample("serve.index.open", budget, 32, |_| {
        failures += u64::from(SharedIndex::open(&live.path, w.compressed_mmap).is_err());
    });
    let reload = ctx.sample("serve.index.reload", budget, 32, |_| {
        failures += u64::from(client.reload().is_err());
    });
    ctx.gate
        .count((open.len() + reload.len()) as u64, failures, || {
            "index open or RELOAD refused".to_string()
        });
    ctx.put("serve.index.open_ms", &scaled(&open, 1e3));
    ctx.put("serve.index.reload_ms", &scaled(&reload, 1e3));

    // RELOAD fired mid-run: a write beside the reads. The dip is how far the
    // slowest window touching the reload falls below the run's median.
    let run = (budget * 4).max(Duration::from_millis(80));
    let window_ns = (run / 8).as_nanos() as u64;
    let traffic = &live.frames;
    let (driven, reload_at) = std::thread::scope(|scope| {
        let load = scope.spawn(move || drive(addr, traffic, CONNECTIONS, IN_FLIGHT, run));
        std::thread::sleep(run * 3 / 8);
        let fired = Instant::now();
        let ok = client.reload().is_ok();
        let ended = Instant::now();
        (load.join(), ok.then_some((fired, ended)))
    });
    let Ok((start, driven)) = driven else {
        return Err("load thread panicked during reload".into());
    };
    let failed = driven.failed + u64::from(reload_at.is_none());
    ctx.gate.count(driven.attempted + 1, failed, || {
        "answers while RELOAD swapped the index".to_string()
    });
    let around = windows(&driven.done, window_ns, run.as_nanos() as u64);
    let all: Vec<f64> = around.iter().map(|w| w.answers_per_s).collect();
    let dip = reload_at.and_then(|(fired, ended)| {
        let index = |at: Instant| {
            (at.saturating_duration_since(start).as_nanos() as u64 / window_ns) as usize
        };
        let last = index(ended).min(all.len().saturating_sub(1));
        let touched = all.get(index(fired)..=last)?;
        let slowest = touched.iter().copied().fold(f64::INFINITY, f64::min);
        Some(100.0 * (1.0 - slowest / median(&all)))
    });
    ctx.put_exact("serve.index.reload_dip_pct", dip.unwrap_or(f64::NAN));
    Ok(())
}

/// Three shard files, three shard servers and the router in front, driven
/// with the workload's traffic (PATH left out: a shard-honest refusal is an
/// answer, not speed).
fn router<B>(
    ctx: &mut Ctx,
    w: &Workload,
    opts: &RunOptions,
    inputs: &Inputs,
    live: &Live<B>,
    flat: &FlatIndex,
    budget: Duration,
) -> Res<()> {
    let map = QdolShardMap::new(SHARDS, flat.num_vertices());
    let paths: Vec<_> = (0..SHARDS)
        .map(|shard| opts.out_dir.join(format!("{}.shard{shard}.chl", w.name)))
        .collect();
    let (saved, seconds) = ctx.call("serve.router.shard_build", 0, || -> Res<()> {
        for (shard, path) in paths.iter().enumerate() {
            flat.restrict_to_shard(map.spec(shard))?
                .save_with(path, &SaveOptions::default())?;
        }
        Ok(())
    });
    saved?;
    ctx.put_exact("serve.router.shard_build_ms", seconds * 1e3);

    let size = inputs.sizes.block;
    let place = ctx.sample("query.qdol.place", budget / 4, usize::MAX, |rep| {
        let block = rep % (inputs.pairs.len() / size);
        let sum = inputs.pairs[block * size..(block + 1) * size]
            .iter()
            .fold(0usize, |s, &(u, v)| {
                s + map.shard_for_query(black_box(u), v)
            });
        black_box(sum);
    });
    ctx.put("query.qdol.place_ns", &scaled(&place, 1e9 / size as f64));

    // Shard servers get as many workers as the router: with fewer, the
    // router's second backend connection starves and it answers
    // ShardUnavailable (see README, findings).
    let mut shards = Vec::new();
    for path in &paths {
        shards.push(spawn_server(path, false)?);
    }
    let addrs: Vec<String> = shards
        .iter()
        .map(|s| s.handle().addr().to_string())
        .collect();
    let cluster = ClusterView::discover(&addrs, Duration::from_secs(10))?;
    let options = RouterOptions {
        threads: THREADS,
        ..RouterOptions::default()
    };
    let routed = Router::bind("127.0.0.1:0", cluster, options)?.spawn()?;

    let traffic = frames(inputs, &live.expected, w.traffic, false);
    let run = budget * 4;
    let (start, driven) = drive(
        routed.handle().addr(),
        &traffic,
        CONNECTIONS,
        IN_FLIGHT,
        run,
    );
    if ctx.tracer.enabled() {
        for (frame, c) in driven.done.iter().enumerate() {
            let at = |ns: u64| start + Duration::from_nanos(ns);
            let id = frame as u64 + 1;
            ctx.tracer
                .leaf("serve.router.frame", at(c.sent_ns), at(c.recv_ns), id);
        }
    }
    ctx.gate.count(driven.attempted, driven.failed, || {
        let error = driven.error.as_deref().unwrap_or("none");
        format!("routed response differs from the in-process oracle (connection error: {error})")
    });
    routed.shutdown()?;
    for shard in shards {
        shard.shutdown()?;
    }
    for path in &paths {
        std::fs::remove_file(path)?;
    }
    ctx.put_exact("serve.router.qps", driven.answers_per_s());
    let p50 = percentile(&driven.latencies_us(), 50.0).unwrap_or(f64::NAN);
    ctx.put_exact("serve.router.frame_p50_us", p50);
    Ok(())
}

/// The metrics that are arithmetic on other metrics: the stack, the
/// wrapper, parallel efficiency and the tracing overhead.
fn derive(ctx: &mut Ctx, lifecycle: &Lifecycle<'_>, coalesced: usize) {
    let join = ctx.value_of("core.kernel.join_ns");
    ctx.put_exact("stack.join_ns", join);
    // Against the workload's own backend measured in the same rounds, not
    // against the lifecycle's query_ns taken a minute earlier.
    ctx.put_exact(
        "core.flat.wrapper_ns",
        ctx.value_of("stack.query_ns") - join,
    );
    let p99 = percentile(lifecycle.query_ns, 99.0).unwrap_or(f64::NAN);
    ctx.put_exact("core.flat.query_p99_ns", p99);
    let one_thread_qps = 1e9 / median(lifecycle.query_ns);
    let efficiency = median(lifecycle.batch_qps) / (THREADS as f64 * one_thread_qps);
    ctx.put_exact("core.oracle.par_efficiency", efficiency);

    // Base: the direct server's throughput on the same traffic (the
    // lifecycle's includes PATH frames on road-blocks; the router's cannot).
    let serve_qps = 1e9 / ctx.value_of("serve.server.wall_ns");
    let router_qps = ctx.value_of("serve.router.qps");
    ctx.put_exact("serve.router.overhead_x", serve_qps / router_qps);

    let qps =
        |windows: &[Window]| median(&windows.iter().map(|w| w.answers_per_s).collect::<Vec<_>>());
    let query = median(lifecycle.query_ns) / median(lifecycle.query_ns_untraced) - 1.0;
    let serve = qps(lifecycle.windows_untraced) / qps(lifecycle.windows) - 1.0;
    // Mean of the two phases measured both ways in this run.
    ctx.put_exact("trace.overhead_pct", 100.0 * (query + serve) / 2.0);

    // The stack: ns per answer, layer over layer. The in-process rows are
    // the wall time of the calling thread; a server or router answers on
    // two workers at once, so a worker's time per answer is the wall time
    // per answer times the workers (ROADMAP's "1 us per query per worker").
    let workers = THREADS as f64;
    let server_worker = ctx.value_of("serve.server.wall_ns") * workers;
    let b64 = ctx.value_of("core.oracle.distances_b64_us") * 1e3 / 64.0;
    ctx.put_exact("stack.distances_b64_ns", b64);
    ctx.put_exact("stack.coalesced_frames", coalesced as f64);
    ctx.put_exact("stack.server_worker_ns", server_worker);
    ctx.put_exact("stack.router_worker_ns", workers * 1e9 / router_qps);
    // What no layer measurement accounts for: on top of the coalesced
    // service, both ends buffer each frame once and the client decodes each
    // response; the rest is sockets, wake-ups and waiting.
    let unattributed = server_worker
        - ctx.value_of("stack.inproc_coalesced_ns")
        - ctx.value_of("stack.client_decode_ns")
        - 2.0 * ctx.value_of("serve.protocol.framebuffer_ns");
    ctx.put_exact("stack.unattributed_ns", unattributed);
    ctx.put_exact(
        "stack.unattributed_pct",
        100.0 * unattributed / server_worker,
    );
}

pub fn run<B: Backend>(
    ctx: &mut Ctx,
    w: &Workload,
    opts: &RunOptions,
    inputs: &Inputs,
    live: &Live<B>,
    lifecycle: &Lifecycle<'_>,
) -> Res<()> {
    let Some((pointer, flat)) = &live.built.indexes else {
        return Err("the traced pass keeps its indexes".into());
    };
    ctx.span("layers.constructors", |ctx| {
        constructors(ctx, w, inputs, live, pointer)
    })?;

    let file = std::fs::read(&live.path)?;
    let encode = |options| AlignedBytes::from_slice(&persist::to_bytes_with(flat, &options));
    let flat_bytes = encode(SaveOptions::default());
    let compressed_bytes = encode(SaveOptions::compressed());
    let pathful = if w.traffic == Traffic::Blocks {
        ctx.put_exact("core.paths.parents_s", live.built.times.parents_s);
        Cow::Borrowed(flat)
    } else {
        let (with, seconds) = ctx.call("core.paths.attach_parents", 0, || {
            attach_parents(&inputs.graph, flat.clone())
        });
        ctx.put_exact("core.paths.parents_s", seconds);
        Cow::Owned(with?)
    };
    let stats = live.server.handle().stats();
    let per_batch = stats.frames as f64 / stats.batch_calls.max(1) as f64;
    let prepared = Prepared {
        pointer,
        flat,
        pathful,
        flat_view: persist::open_view(&flat_bytes)?,
        compressed_view: persist::open_view(&compressed_bytes)?,
        sums: live
            .expected
            .pool
            .chunks_exact(inputs.sizes.block)
            .map(|c| c.iter().fold(0u64, |s, &d| s.wrapping_add(d)))
            .collect(),
        loaded: LoadedIndex::open(&live.path, w.compressed_mmap)?,
        // MATRIX and PATH frames are never coalesced.
        coalesced: match w.traffic {
            Traffic::Points => per_batch.round().max(1.0) as usize,
            Traffic::Blocks => 1,
        },
    };
    let entries: usize = inputs
        .pairs
        .iter()
        .map(|&(u, v)| flat.labels_of(u).len() + flat.labels_of(v).len())
        .sum();
    let per_join = entries as f64 / inputs.pairs.len() as f64;
    ctx.put_exact("core.kernel.entries_per_join", per_join);

    let total = Duration::from_secs_f64(opts.seconds * LAYER_SHARE);
    let budget = total / ROUNDS;
    for _ in 0..ROUNDS {
        ctx.span("layers.persist", |ctx| {
            persist_paths(ctx, live, &file, budget)
        });
        ctx.span("layers.query", |ctx| {
            query_stack(ctx, inputs, live, &prepared, budget)
        });
        ctx.span("layers.blocks", |ctx| {
            blocks_ops(ctx, inputs, &prepared, budget)
        });
        ctx.span("layers.protocol", |ctx| {
            protocol_and_service(ctx, inputs, live, &prepared, budget)
        });
    }
    ctx.span("layers.server", |ctx| {
        server_extras(ctx, w, inputs, live, lifecycle, total)
    })?;
    ctx.span("layers.router", |ctx| {
        router(ctx, w, opts, inputs, live, flat, total)
    })?;
    derive(ctx, lifecycle, prepared.coalesced);
    Ok(())
}
