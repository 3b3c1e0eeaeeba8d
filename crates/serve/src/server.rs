//! The serving loop: one acceptor thread, a fixed worker pool, per-connection
//! request batching.
//!
//! ```text
//!            ┌───────────┐   mpsc    ┌──────────────┐
//!  accept()──►  acceptor  ├──────────►  worker 0..N  │ one connection per
//!            │ (nonblock) │           │ (blocking IO) │ worker at a time
//!            └───────────┘           └──────┬───────┘
//!                                           │ coalesces every QUERY frame
//!                                           ▼ available in one read
//!                              DistanceOracle::distances(batch)
//!                                 over SharedIndex::snapshot()
//! ```
//!
//! Each worker drains whatever complete frames one `read` produced, answers
//! every contiguous run of QUERY frames with a **single** batched
//! [`DistanceOracle::distances`] call (which fans out on the rayon pool),
//! and writes the responses back in request order with one `write`. A
//! pipelining client therefore gets batching for free; a one-at-a-time
//! client gets single-query latency. Control frames (INFO / RELOAD /
//! SHUTDOWN) are answered in order between batches.
//!
//! Shutdown is protocol-driven (no signals): a SHUTDOWN frame — or
//! [`ServerHandle::signal_shutdown`] from the owning process — stops the
//! acceptor, after which workers finish the frames already read on their
//! current connections and exit. Reload never stops anything: handlers
//! answer each batch from the [`SharedIndex`] snapshot they took for it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chl_core::oracle::DistanceOracle;
use chl_core::paths::PathError;
use chl_graph::types::{Distance, VertexId};

use crate::http;
use crate::index::SharedIndex;
use crate::protocol::{
    decode_request, encode_response, ErrorCode, FrameBuffer, Request, Response, WireError,
    DEFAULT_MAX_FRAME, MAGIC,
};

/// How often the nonblocking acceptor polls for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(5);
/// Read timeout on connections; each expiry re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);
/// Upper bound on one blocked response write before the connection is
/// declared dead (a client that stopped reading must not pin a worker).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-read chunk size: large enough to swallow a deep pipeline in one read.
const READ_CHUNK: usize = 64 * 1024;
/// Cap on pairs per [`DistanceOracle::distances`] call; larger coalesced
/// batches are answered in chunks of this size.
const MAX_BATCH: usize = 1 << 16;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections (the batched query fan-out
    /// additionally uses the process-wide rayon pool). At least 1.
    pub threads: usize,
    /// Cap on one frame's payload length in bytes.
    pub max_frame: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 4,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Monotonic serving counters, updated lock-free by every worker.
///
/// All loads/stores are `Relaxed`: these are statistics — each counter is
/// independently monotonic and nothing synchronizes through them.
#[derive(Debug, Default)]
pub struct ServeStats {
    connections: AtomicU64,
    http_requests: AtomicU64,
    frames: AtomicU64,
    queries: AtomicU64,
    batch_calls: AtomicU64,
    max_coalesced: AtomicU64,
    error_frames: AtomicU64,
    reloads: AtomicU64,
}

/// One coherent-enough copy of the counters (see [`ServeStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted (binary and HTTP alike).
    pub connections: u64,
    /// HTTP requests served by the adapter.
    pub http_requests: u64,
    /// Binary request frames decoded.
    pub frames: u64,
    /// Individual distance queries answered.
    pub queries: u64,
    /// `DistanceOracle::distances` invocations (batches).
    pub batch_calls: u64,
    /// Largest number of pipelined QUERY frames coalesced into one batch.
    pub max_coalesced: u64,
    /// Typed error frames sent.
    pub error_frames: u64,
    /// Successful index reloads.
    pub reloads: u64,
}

impl ServeStats {
    fn add(counter: &AtomicU64, n: u64) {
        // ORDERING: independent monotonic statistics counter; no other
        // memory is published through it (see the type-level comment).
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn raise_max(counter: &AtomicU64, candidate: u64) {
        // ORDERING: running-maximum statistics counter; no other memory is
        // published through it (see the type-level comment).
        counter.fetch_max(candidate, Ordering::Relaxed);
    }

    /// Copies every counter. Individually exact; mutually unordered.
    pub fn snapshot(&self) -> StatsSnapshot {
        // ORDERING: statistics reads; each counter is individually exact
        // and nothing synchronizes through them (see the type-level
        // comment).
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: get(&self.connections),
            http_requests: get(&self.http_requests),
            frames: get(&self.frames),
            queries: get(&self.queries),
            batch_calls: get(&self.batch_calls),
            max_coalesced: get(&self.max_coalesced),
            error_frames: get(&self.error_frames),
            reloads: get(&self.reloads),
        }
    }
}

/// State shared by the acceptor, the workers and external handles.
#[derive(Debug)]
pub struct ServerState {
    shutdown: AtomicBool,
    stats: ServeStats,
}

impl ServerState {
    /// `true` once shutdown was requested (protocol frame or handle).
    pub fn is_shutdown(&self) -> bool {
        // ORDERING: a latch flag polled by acceptor and workers; the only
        // consequence of a stale read is one extra poll interval.
        self.shutdown.load(Ordering::Relaxed)
    }

    fn request_shutdown(&self) {
        // ORDERING: see is_shutdown — monotonic latch, no data published.
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// A cloneable remote control for a bound server: shutdown + stats.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server actually listens on (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: the acceptor closes, workers finish the
    /// frames already read on their current connections and exit.
    pub fn signal_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// `true` once shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    /// Current serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.state.stats.snapshot()
    }
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<SharedIndex>,
    opts: ServeOptions,
    state: Arc<ServerState>,
    addr: SocketAddr,
}

/// A server running on its own thread, as spawned by [`Server::spawn`].
#[derive(Debug)]
pub struct SpawnedServer {
    handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl SpawnedServer {
    /// The remote control (addr, shutdown, stats).
    pub fn handle(&self) -> &ServerHandle {
        &self.handle
    }

    /// Signals shutdown and waits for the serving thread to exit, returning
    /// the final counters.
    pub fn shutdown(self) -> std::io::Result<StatsSnapshot> {
        self.handle.signal_shutdown();
        self.join()
    }

    /// Waits for the server to exit on its own (e.g. a protocol SHUTDOWN
    /// frame), returning the final counters.
    pub fn join(self) -> std::io::Result<StatsSnapshot> {
        match self.join.join() {
            Ok(result) => result.map(|()| self.handle.stats()),
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over a shared index.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        shared: Arc<SharedIndex>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared,
            opts: ServeOptions {
                threads: opts.threads.max(1),
                max_frame: opts.max_frame,
            },
            state: Arc::new(ServerState {
                shutdown: AtomicBool::new(false),
                stats: ServeStats::default(),
            }),
            addr,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control usable from other threads while [`Server::run`]
    /// blocks this one.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            state: Arc::clone(&self.state),
        }
    }

    /// Runs acceptor + workers on the calling thread until shutdown is
    /// requested, then drains and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            shared,
            opts,
            state,
            addr: _,
        } = self;
        listener.set_nonblocking(true)?;

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(opts.threads);
        for i in 0..opts.threads {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let state = Arc::clone(&state);
            let opts = opts.clone();
            let worker = std::thread::Builder::new()
                .name(format!("chl-serve-{i}"))
                .spawn(move || worker_loop(&rx, &shared, &opts, &state))?;
            workers.push(worker);
        }

        while !state.is_shutdown() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    ServeStats::add(&state.stats.connections, 1);
                    if tx.send(stream).is_err() {
                        break; // all workers gone (cannot happen before shutdown)
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. fd pressure): back off
                    // instead of spinning or dying.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }

        // Closing the channel wakes idle workers; busy ones notice the flag
        // at their next read-timeout tick.
        drop(tx);
        for worker in workers {
            // A worker panic is a bug, but the acceptor still reports an
            // orderly error instead of propagating the panic.
            if worker.join().is_err() {
                return Err(std::io::Error::other("serve worker panicked"));
            }
        }
        Ok(())
    }

    /// Moves the server onto a background thread; the returned handle
    /// controls and observes it.
    pub fn spawn(self) -> std::io::Result<SpawnedServer> {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name("chl-serve-accept".to_string())
            .spawn(move || self.run())?;
        Ok(SpawnedServer { handle, join })
    }
}

fn worker_loop(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    shared: &SharedIndex,
    opts: &ServeOptions,
    state: &ServerState,
) {
    loop {
        // Holding the lock only for the recv keeps the other workers free to
        // pick up connections while this one serves.
        let next = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                // A worker panicked while holding the lock; the receiver
                // itself is still sound.
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv_timeout(READ_POLL)
        };
        match next {
            Ok(stream) => {
                // Connection-level IO errors (abrupt client disconnects,
                // resets) end that connection only, never the worker.
                let _ = serve_connection(stream, shared, opts, state);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if state.is_shutdown() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Outcome of processing one flush of frames. (Framing-loss closes return
/// directly from the read loop; they never reach frame processing.)
enum Disposition {
    /// Keep reading from this connection.
    Continue,
    /// Close and stop the whole server (SHUTDOWN frame acknowledged).
    ShutdownServer,
}

fn serve_connection(
    mut stream: TcpStream,
    shared: &SharedIndex,
    opts: &ServeOptions,
    state: &ServerState,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;

    // Preamble: 4 bytes decide binary protocol vs the HTTP adapter.
    let mut head = Vec::with_capacity(4);
    let mut chunk = vec![0u8; READ_CHUNK];
    while head.len() < 4 {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // silent connect-and-close
            Ok(n) => head.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if would_block(&e) => {
                if state.is_shutdown() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if head.get(..4) != Some(MAGIC.as_slice()) {
        ServeStats::add(&state.stats.http_requests, 1);
        return http::serve_http(stream, &head, shared, state);
    }

    let mut fb = FrameBuffer::new(opts.max_frame);
    fb.extend(head.get(4..).unwrap_or_default());
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    loop {
        // Drain every complete frame the buffer holds right now.
        loop {
            match fb.next_payload() {
                Ok(Some(payload)) => payloads.push(payload),
                Ok(None) => break,
                Err(wire) => {
                    // Oversized declared length: answer typed, then close —
                    // the stream cannot be re-synchronized.
                    let mut out = Vec::new();
                    if !payloads.is_empty() {
                        process_frames(&payloads, shared, opts, state, &mut out);
                        payloads.clear();
                    }
                    encode_response(&wire_error_response(&wire), &mut out);
                    ServeStats::add(&state.stats.error_frames, 1);
                    let _ = stream.write_all(&out);
                    return Ok(());
                }
            }
        }
        if !payloads.is_empty() {
            let mut out = Vec::new();
            let disposition = process_frames(&payloads, shared, opts, state, &mut out);
            payloads.clear();
            stream.write_all(&out)?;
            match disposition {
                Disposition::Continue => {}
                Disposition::ShutdownServer => {
                    state.request_shutdown();
                    return Ok(());
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => fb.extend(chunk.get(..n).unwrap_or_default()),
            Err(e) if would_block(&e) => {
                if state.is_shutdown() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn wire_error_response(wire: &WireError) -> Response {
    let code = match wire {
        WireError::Oversized { .. } => ErrorCode::Oversized,
        WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
        WireError::Truncated | WireError::TrailingBytes => ErrorCode::Malformed,
    };
    Response::Error {
        code,
        detail: 0,
        message: wire.to_string(),
    }
}

/// Answers every frame of one flush in order, coalescing contiguous QUERY
/// runs into batched oracle calls. Responses are appended to `out`.
fn process_frames(
    payloads: &[Vec<u8>],
    shared: &SharedIndex,
    opts: &ServeOptions,
    state: &ServerState,
    out: &mut Vec<u8>,
) -> Disposition {
    ServeStats::add(&state.stats.frames, payloads.len() as u64);
    let mut iter = payloads.iter().peekable();
    while let Some(payload) = iter.next() {
        let request = decode_request(payload);
        match request {
            Ok(Request::Query(first)) => {
                // Collect the contiguous run of QUERY frames starting here.
                let mut run: Vec<Vec<(VertexId, VertexId)>> = vec![first];
                while let Some(next) = iter.peek() {
                    match decode_request(next) {
                        Ok(Request::Query(pairs)) => {
                            run.push(pairs);
                            iter.next();
                        }
                        _ => break,
                    }
                }
                answer_query_run(&run, shared, state, out);
            }
            Ok(Request::Path(u, v)) => {
                answer_path(u, v, shared, opts, state, out);
            }
            Ok(Request::Matrix { sources, targets }) => {
                answer_matrix(&sources, &targets, shared, opts, state, out);
            }
            Ok(Request::Info) => {
                encode_response(&Response::Info(shared.info()), out);
            }
            Ok(Request::Reload) => match shared.reload() {
                Ok(generation) => {
                    ServeStats::add(&state.stats.reloads, 1);
                    encode_response(&Response::Ok { generation }, out);
                }
                Err(e) => {
                    ServeStats::add(&state.stats.error_frames, 1);
                    encode_response(
                        &Response::Error {
                            code: ErrorCode::ReloadFailed,
                            detail: 0,
                            message: e.to_string(),
                        },
                        out,
                    );
                }
            },
            Ok(Request::Shutdown) => {
                encode_response(
                    &Response::Ok {
                        generation: shared.generation(),
                    },
                    out,
                );
                return Disposition::ShutdownServer;
            }
            Err(wire) => {
                ServeStats::add(&state.stats.error_frames, 1);
                encode_response(&wire_error_response(&wire), out);
            }
        }
    }
    Disposition::Continue
}

/// Why one frame of a run fails instead of contributing to the batch.
enum FrameError {
    /// An endpoint is outside `0..n`.
    OutOfRange(VertexId),
    /// An in-range endpoint is owned by another shard (shard files only).
    Foreign(VertexId),
}

/// Answers one coalesced run of QUERY frames: every answerable frame's pairs
/// go into one batched `distances` call (chunked at [`MAX_BATCH`]); frames
/// naming an out-of-range id — or, on a shard file, an id owned by another
/// shard — answer a typed error frame instead, without failing their
/// neighbors. Range is checked before ownership, so out-of-range frames get
/// byte-identical answers from a shard and from a whole-index server.
fn answer_query_run(
    run: &[Vec<(VertexId, VertexId)>],
    shared: &SharedIndex,
    state: &ServerState,
    out: &mut Vec<u8>,
) {
    // One snapshot for the whole run: a concurrent reload never changes
    // answers mid-batch, and in-flight batches keep the old generation
    // alive until they finish.
    let snapshot = shared.snapshot();
    let oracle = snapshot.oracle();
    let n = oracle.num_vertices();

    // Frame dispositions: Ok(range into the batch) or the typed failure.
    let mut batch: Vec<(VertexId, VertexId)> = Vec::new();
    let mut frames: Vec<Result<std::ops::Range<usize>, FrameError>> = Vec::with_capacity(run.len());
    for pairs in run {
        let bad = pairs
            .iter()
            .find(|&&(u, v)| u as usize >= n || v as usize >= n)
            .map(|&(u, v)| if (u as usize) < n { v } else { u });
        if let Some(id) = bad {
            frames.push(Err(FrameError::OutOfRange(id)));
            continue;
        }
        let foreign = pairs
            .iter()
            .find_map(|&(u, v)| snapshot.foreign_endpoint(u, v));
        if let Some(id) = foreign {
            frames.push(Err(FrameError::Foreign(id)));
            continue;
        }
        let start = batch.len();
        batch.extend_from_slice(pairs);
        frames.push(Ok(start..batch.len()));
    }

    let answers = batched_distances(oracle, &batch, state);
    ServeStats::raise_max(&state.stats.max_coalesced, run.len() as u64);
    ServeStats::add(&state.stats.queries, batch.len() as u64);

    for frame in frames {
        match frame {
            Ok(range) => {
                let ds = answers.get(range).unwrap_or_default();
                encode_response(&Response::Distances(ds.to_vec()), out);
            }
            Err(FrameError::OutOfRange(id)) => out_of_range_frame(id, n, state, out),
            Err(FrameError::Foreign(id)) => {
                not_this_shard_frame(id, snapshot.shard(), state, out);
            }
        }
    }
}

/// Emits one typed error frame, counted in the stats.
fn error_frame(
    code: ErrorCode,
    detail: u64,
    message: String,
    state: &ServerState,
    out: &mut Vec<u8>,
) {
    ServeStats::add(&state.stats.error_frames, 1);
    encode_response(
        &Response::Error {
            code,
            detail,
            message,
        },
        out,
    );
}

fn out_of_range_frame(id: VertexId, n: usize, state: &ServerState, out: &mut Vec<u8>) {
    error_frame(
        ErrorCode::VertexOutOfRange,
        id as u64,
        format!("vertex id {id} out of range for {n} vertices"),
        state,
        out,
    );
}

/// The NOT_THIS_SHARD refusal text, shared by the binary error frame and
/// the HTTP adapter's 421 body.
pub(crate) fn not_this_shard_message(
    id: VertexId,
    shard: Option<&chl_core::persist::ShardSpec>,
) -> String {
    let (sid, cnt) = shard.map(|s| (s.shard_id, s.shard_count)).unwrap_or((0, 0));
    format!("vertex id {id} is owned by another shard (this is shard {sid} of {cnt})")
}

fn not_this_shard_frame(
    id: VertexId,
    shard: Option<&chl_core::persist::ShardSpec>,
    state: &ServerState,
    out: &mut Vec<u8>,
) {
    error_frame(
        ErrorCode::NotThisShard,
        id as u64,
        not_this_shard_message(id, shard),
        state,
        out,
    );
}

/// Answers one PATH frame. Range is checked before shard ownership — the
/// QUERY discipline — then the generation's parent records reconstruct the
/// walk. A path too long for the frame cap answers a typed Oversized error
/// and the connection keeps serving: unlike an oversized *request*, framing
/// is never lost on the response side.
fn answer_path(
    u: VertexId,
    v: VertexId,
    shared: &SharedIndex,
    opts: &ServeOptions,
    state: &ServerState,
    out: &mut Vec<u8>,
) {
    let snapshot = shared.snapshot();
    let n = snapshot.num_vertices();
    if let Some(id) = [u, v].into_iter().find(|&id| id as usize >= n) {
        return out_of_range_frame(id, n, state, out);
    }
    if let Some(id) = snapshot.foreign_endpoint(u, v) {
        return not_this_shard_frame(id, snapshot.shard(), state, out);
    }
    match snapshot.path(u, v) {
        Ok(hops) => {
            let vertices = hops.unwrap_or_default();
            let payload = 1 + 4 + 4 * vertices.len();
            if payload > opts.max_frame as usize {
                return error_frame(
                    ErrorCode::Oversized,
                    vertices.len() as u64,
                    format!(
                        "path of {} vertices exceeds the {}-byte frame cap",
                        vertices.len(),
                        opts.max_frame
                    ),
                    state,
                    out,
                );
            }
            ServeStats::add(&state.stats.queries, 1);
            encode_response(&Response::Path(vertices), out);
        }
        // An interior chain vertex owned elsewhere (possible on shard files
        // even when both endpoints are owned here).
        Err(PathError::NotThisShard { vertex }) => {
            not_this_shard_frame(vertex, snapshot.shard(), state, out);
        }
        // No path section, or parent records that cannot witness the pair:
        // distances still serve, reconstruction does not.
        Err(e) => error_frame(ErrorCode::NoPathData, 0, e.to_string(), state, out),
    }
}

/// Answers one MATRIX frame through the hub-pivoted block kernel. Range is
/// checked over sources then targets (first offender wins), then shard
/// ownership; a block too large for the frame cap answers a typed Oversized
/// error without closing the connection.
fn answer_matrix(
    sources: &[VertexId],
    targets: &[VertexId],
    shared: &SharedIndex,
    opts: &ServeOptions,
    state: &ServerState,
    out: &mut Vec<u8>,
) {
    let snapshot = shared.snapshot();
    let oracle = snapshot.oracle();
    let n = oracle.num_vertices();
    if let Some(&id) = sources.iter().chain(targets).find(|&&id| id as usize >= n) {
        return out_of_range_frame(id, n, state, out);
    }
    let mut ids = sources.iter().chain(targets);
    if let Some(id) = ids.find_map(|&id| snapshot.foreign_endpoint(id, id)) {
        return not_this_shard_frame(id, snapshot.shard(), state, out);
    }
    let cells = sources.len() * targets.len();
    let payload = 1 + 4 + 8 * cells;
    if payload > opts.max_frame as usize {
        return error_frame(
            ErrorCode::Oversized,
            cells as u64,
            format!(
                "matrix of {cells} cells exceeds the {}-byte frame cap",
                opts.max_frame
            ),
            state,
            out,
        );
    }
    ServeStats::add(&state.stats.queries, cells as u64);
    ServeStats::add(&state.stats.batch_calls, 1);
    encode_response(&Response::Matrix(oracle.matrix(sources, targets)), out);
}

/// One `distances` call per [`MAX_BATCH`] pairs, counted in the stats.
fn batched_distances(
    oracle: &dyn DistanceOracle,
    pairs: &[(VertexId, VertexId)],
    state: &ServerState,
) -> Vec<Distance> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let mut answers = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(MAX_BATCH) {
        ServeStats::add(&state.stats.batch_calls, 1);
        answers.extend(oracle.distances(chunk));
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_and_clamp() {
        let opts = ServeOptions::default();
        assert!(opts.threads >= 1);
        assert_eq!(opts.max_frame, DEFAULT_MAX_FRAME);
    }

    #[test]
    fn stats_snapshot_reports_counters() {
        let stats = ServeStats::default();
        ServeStats::add(&stats.queries, 3);
        ServeStats::raise_max(&stats.max_coalesced, 5);
        ServeStats::raise_max(&stats.max_coalesced, 2);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.max_coalesced, 5);
        assert_eq!(snap.connections, 0);
    }
}
