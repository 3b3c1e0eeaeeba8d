//! The scatter-gather routing tier: one `chl route` process in front of a
//! cluster of `chl serve --shard` processes, speaking the same client
//! protocol on both sides.
//!
//! ```text
//!                       ┌──────────────┐  CHL1   ┌─────────────────────┐
//!  clients ── CHL1 ────►│  chl route    ├────────►│ chl serve --shard 0 │
//!  (unchanged protocol) │  QdolShardMap ├────────►│ chl serve --shard 1 │
//!                       │  placement    ├────────►│ chl serve --shard 2 │
//!                       └──────────────┘         └─────────────────────┘
//! ```
//!
//! Startup ([`ClusterView::discover`]) sends INFO to every backend, checks
//! the answers describe one coherent sharded index — same global vertex
//! count, same shard count, every shard id present exactly once — and
//! rebuilds the QDOL placement from nothing but `(shard_count,
//! num_vertices)`: [`QdolShardMap`] is fully determined by those two
//! numbers, so the router and `chl build --shards` can never disagree about
//! who owns a query.
//!
//! Per QUERY frame the router places every pair on an owning shard. A frame
//! whose pairs all land on one shard is forwarded verbatim; only a frame
//! that genuinely spans shards fans out, and the partial answers are merged
//! back into request order. Within one flush, all sub-frames bound for the
//! same backend are pipelined in a single write, so the backend's own
//! coalescing still batches them. Out-of-range ids are rejected by the
//! router itself with the exact error frame a whole-index server sends, and
//! a dead backend degrades **per frame** into a typed
//! [`ErrorCode::ShardUnavailable`] error (detail = shard id) after one
//! reconnect attempt — never a hang, never a dropped client connection.
//!
//! Control frames: INFO aggregates the cluster into an unsharded-looking
//! answer (global vertex count, summed label bytes — labels on partition
//! overlaps are counted once per owning shard — and the minimum backend
//! generation); RELOAD fans out to every shard in shard order and reports
//! the first failure (reloads are not atomic across shards); SHUTDOWN stops
//! the router only, never the backends.
//!
//! Sockets, framing and shutdown live in the [`engine`](crate::engine);
//! [`Router`], [`RouterHandle`] and [`SpawnedRouter`] are its generic types
//! over [`RouteService`].

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use chl_graph::types::{Distance, VertexId};
use chl_query::QdolShardMap;

use crate::client::{Client, ClientError};
use crate::engine::{
    endpoints, first_out_of_range, Counter, Counters, Engine, Handle, Reply, Service, Spawned,
    State,
};
use crate::protocol::{ErrorCode, Response, ServerInfo, DEFAULT_MAX_FRAME};

/// Tunables for one router instance.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Worker threads handling client connections; each worker keeps its own
    /// pool of backend connections. At least 1.
    pub threads: usize,
    /// Cap on one client frame's payload length in bytes.
    pub max_frame: u32,
    /// Read timeout on backend conversations: a backend that stops answering
    /// within this window counts as unavailable for the frames placed on it.
    pub backend_timeout: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            threads: 4,
            max_frame: DEFAULT_MAX_FRAME,
            backend_timeout: Duration::from_secs(5),
        }
    }
}

/// Why the router could not stand up in front of the given backends.
#[derive(Debug)]
pub enum RouterError {
    /// A backend could not be reached or did not answer INFO.
    Backend {
        /// The backend address as given.
        addr: String,
        /// The client-side failure.
        error: ClientError,
    },
    /// A backend serves a whole index, not a shard.
    NotSharded {
        /// The backend address as given.
        addr: String,
    },
    /// The backends do not describe one coherent sharded index.
    Inconsistent(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Backend { addr, error } => {
                write!(f, "backend {addr}: {error}")
            }
            RouterError::NotSharded { addr } => {
                write!(
                    f,
                    "backend {addr} serves a whole index, not a shard \
                     (chl route expects every backend to be `chl serve` over \
                     one `.chl` v3 shard file)"
                )
            }
            RouterError::Inconsistent(msg) => write!(f, "inconsistent cluster: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// The validated cluster the router fronts: one backend address per shard id
/// plus the placement map rebuilt from `(shard_count, num_vertices)`.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// `addr_of_shard[shard_id]` — the backend serving that shard.
    addr_of_shard: Vec<String>,
    map: QdolShardMap,
}

impl ClusterView {
    /// Connects to every backend, asks INFO, and validates the answers into
    /// a coherent cluster view. The discovery connections are dropped —
    /// serving uses per-worker pools with their own reconnect handling.
    pub fn discover(
        addrs: &[String],
        backend_timeout: Duration,
    ) -> Result<ClusterView, RouterError> {
        let mut infos = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let info = (|| {
                let mut client = Client::connect(addr)?;
                client.set_timeout(Some(backend_timeout))?;
                client.info()
            })()
            .map_err(|error| RouterError::Backend {
                addr: addr.clone(),
                error,
            })?;
            infos.push(info);
        }
        ClusterView::from_infos(addrs, &infos)
    }

    /// Pure validation half of [`ClusterView::discover`]: checks the INFO
    /// answers describe one sharded index and builds the placement map.
    pub fn from_infos(addrs: &[String], infos: &[ServerInfo]) -> Result<ClusterView, RouterError> {
        if addrs.is_empty() {
            return Err(RouterError::Inconsistent(
                "no backend addresses given".to_string(),
            ));
        }
        if addrs.len() != infos.len() {
            return Err(RouterError::Inconsistent(format!(
                "{} addresses but {} INFO answers",
                addrs.len(),
                infos.len()
            )));
        }
        let expected_count = addrs.len() as u32;
        let mut slots: Vec<Option<String>> = vec![None; addrs.len()];
        let mut num_vertices: Option<u64> = None;
        for (addr, info) in addrs.iter().zip(infos) {
            let (shard_id, shard_count) = info
                .shard
                .ok_or_else(|| RouterError::NotSharded { addr: addr.clone() })?;
            if shard_count != expected_count {
                return Err(RouterError::Inconsistent(format!(
                    "backend {addr} announces shard {shard_id} of {shard_count}, \
                     but {expected_count} backends were given"
                )));
            }
            if shard_id >= expected_count {
                return Err(RouterError::Inconsistent(format!(
                    "backend {addr} announces shard id {shard_id} >= shard count {expected_count}"
                )));
            }
            match num_vertices {
                None => num_vertices = Some(info.num_vertices),
                Some(n) if n != info.num_vertices => {
                    return Err(RouterError::Inconsistent(format!(
                        "backend {addr} covers {} vertices but an earlier backend covers {n} \
                         (shard files record the global vertex count, so these are different indexes)",
                        info.num_vertices
                    )));
                }
                Some(_) => {}
            }
            // `shard_id < expected_count == slots.len()` was checked above.
            let Some(slot) = slots.get_mut(shard_id as usize) else {
                continue;
            };
            if let Some(other) = slot {
                return Err(RouterError::Inconsistent(format!(
                    "shard {shard_id} is served by both {other} and {addr}"
                )));
            }
            *slot = Some(addr.clone());
        }
        // Pigeonhole: len(addrs) distinct ids < len(addrs) fill every slot.
        let addr_of_shard: Vec<String> = slots.into_iter().flatten().collect();
        if addr_of_shard.len() != addrs.len() {
            return Err(RouterError::Inconsistent(
                "not every shard id is served".to_string(),
            ));
        }
        let n = num_vertices.unwrap_or(0) as usize;
        Ok(ClusterView {
            map: QdolShardMap::new(addr_of_shard.len(), n),
            addr_of_shard,
        })
    }

    /// Number of shards (= backends) fronted.
    pub fn shard_count(&self) -> usize {
        self.addr_of_shard.len()
    }

    /// Global vertex count of the sharded index.
    pub fn num_vertices(&self) -> usize {
        self.map.num_vertices()
    }

    /// The backend address serving `shard`, or `None` out of range.
    pub fn addr_of_shard(&self, shard: usize) -> Option<&str> {
        self.addr_of_shard.get(shard).map(String::as_str)
    }

    /// The placement map (identical to what `chl build --shards` used).
    pub fn map(&self) -> &QdolShardMap {
        &self.map
    }
}

/// One coherent-enough copy of the router counters: individually exact,
/// mutually unordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// Client connections accepted.
    pub connections: u64,
    /// Non-protocol (HTTP) connections answered with the status page.
    pub http_requests: u64,
    /// Client request frames decoded.
    pub frames: u64,
    /// Individual distance queries placed on backends.
    pub queries: u64,
    /// QUERY frames forwarded (whether or not they fanned out).
    pub forwarded_frames: u64,
    /// QUERY frames that spanned shards and genuinely fanned out.
    pub fanout_frames: u64,
    /// Frames that failed because a backend was unavailable or answered a
    /// typed error.
    pub shard_errors: u64,
    /// Typed error frames sent to clients (all causes).
    pub error_frames: u64,
    /// Successful cluster-wide reload fan-outs.
    pub reloads: u64,
}

/// The [`Service`] behind `chl route`: every answer is placed on, fetched
/// from and merged across the cluster's shard servers.
#[derive(Debug)]
pub struct RouteService {
    cluster: Arc<ClusterView>,
    max_frame: u32,
    backend_timeout: Duration,
    forwarded_frames: Counter,
    fanout_frames: Counter,
    shard_errors: Counter,
}

/// A bound-but-not-yet-running router.
pub type Router = Engine<RouteService>;
/// A cloneable remote control for a bound router: shutdown + stats.
pub type RouterHandle = Handle<RouteService>;
/// A router running on its own thread, as spawned by [`Router::spawn`].
pub type SpawnedRouter = Spawned<RouteService>;

impl Router {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of a
    /// validated cluster.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        cluster: ClusterView,
        opts: RouterOptions,
    ) -> std::io::Result<Router> {
        let service = RouteService {
            cluster: Arc::new(cluster),
            max_frame: opts.max_frame,
            backend_timeout: opts.backend_timeout,
            forwarded_frames: Counter::default(),
            fanout_frames: Counter::default(),
            shard_errors: Counter::default(),
        };
        Engine::new(addr, service, opts.threads, opts.max_frame)
    }
}

/// One worker's lazily connected backend clients, indexed by shard id. Each
/// worker owns its own: no cross-worker locking on the hot path, and a
/// backend failure on one worker never poisons the others' connections.
#[derive(Debug)]
pub struct BackendPool {
    cluster: Arc<ClusterView>,
    conns: Vec<Option<Client>>,
    timeout: Duration,
}

/// How one backend conversation failed, from the router's point of view.
enum BackendFailure {
    /// Could not connect, or the conversation broke mid-way (twice).
    Unavailable,
    /// The backend answered a typed error frame.
    Server {
        code: ErrorCode,
        detail: u64,
        message: String,
    },
}

impl BackendPool {
    fn take_or_connect(&mut self, shard: usize) -> Option<Client> {
        if let Some(Some(conn)) = self.conns.get_mut(shard).map(Option::take) {
            return Some(conn);
        }
        let addr = self.cluster.addr_of_shard(shard)?;
        let mut conn = Client::connect(addr).ok()?;
        conn.set_timeout(Some(self.timeout)).ok()?;
        Some(conn)
    }

    /// Runs one conversation against `shard`, reconnecting and retrying once
    /// on connection-level failure (requests here are idempotent). A typed
    /// server error ends the attempt — the backend is alive and said no.
    fn call<T>(
        &mut self,
        shard: usize,
        f: impl Fn(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, BackendFailure> {
        for _attempt in 0..2 {
            let Some(mut conn) = self.take_or_connect(shard) else {
                continue;
            };
            let result = match f(&mut conn) {
                Ok(value) => Ok(value),
                Err(ClientError::Server {
                    code,
                    detail,
                    message,
                }) => Err(BackendFailure::Server {
                    code,
                    detail,
                    message,
                }),
                // Io / Wire / UnexpectedResponse: the connection can no
                // longer be trusted — drop it and retry on a fresh one.
                Err(_) => continue,
            };
            if let Some(slot) = self.conns.get_mut(shard) {
                *slot = Some(conn);
            }
            return result;
        }
        Err(BackendFailure::Unavailable)
    }
}

fn shard_unavailable_response(shard: usize) -> Response {
    Response::Error {
        code: ErrorCode::ShardUnavailable,
        detail: shard as u64,
        message: format!("shard {shard} is unreachable"),
    }
}

fn backend_failure_response(shard: usize, failure: &BackendFailure) -> Response {
    match failure {
        BackendFailure::Unavailable => shard_unavailable_response(shard),
        BackendFailure::Server {
            code,
            detail,
            message,
        } => Response::Error {
            code: *code,
            detail: *detail,
            message: format!("shard {shard}: {message}"),
        },
    }
}

/// What one [`ShardGroup`] came back as: distances, or an error frame to
/// surface for the whole client frame.
type GroupOutcome = Result<Vec<Distance>, Response>;

/// One frame's pairs bound for one shard, with their original positions.
struct ShardGroup {
    shard: usize,
    positions: Vec<usize>,
    pairs: Vec<(VertexId, VertexId)>,
    /// Filled by the scatter phase; still `None` after it means the backend
    /// conversation desynced.
    outcome: Option<GroupOutcome>,
}

/// Disposition of one QUERY frame in a run.
enum FrameDisp {
    /// Refused by the router itself: an id outside `0..n`.
    OutOfRange(VertexId),
    /// Placed on backends; groups are ordered by first pair appearance (an
    /// empty frame has none and answers empty).
    Placed {
        groups: Vec<ShardGroup>,
        num_pairs: usize,
    },
}

impl Service for RouteService {
    const NAME: &'static str = "route";
    type Worker = BackendPool;
    type Stats = RouterStatsSnapshot;

    fn worker(&self) -> BackendPool {
        BackendPool {
            conns: (0..self.cluster.shard_count()).map(|_| None).collect(),
            cluster: Arc::clone(&self.cluster),
            timeout: self.backend_timeout,
        }
    }

    /// Places a run of QUERY frames on owning shards, pipelines each shard's
    /// sub-frames in one conversation, and merges every frame's answers back
    /// into request order. Error semantics per frame:
    ///
    /// * out-of-range id → the exact `VertexOutOfRange` frame a whole-index
    ///   server sends (router-local, never forwarded);
    /// * owning backend unreachable after a reconnect attempt →
    ///   [`ErrorCode::ShardUnavailable`] with the shard id in `detail`; only
    ///   the frames placed on that shard fail;
    /// * backend answered a typed error → forwarded with the shard prefixed
    ///   to the message.
    fn query_run(
        &self,
        pool: &mut BackendPool,
        run: &[Vec<(VertexId, VertexId)>],
        reply: &mut Reply<'_>,
    ) {
        let map = self.cluster.map();
        let n = map.num_vertices();

        let mut disps: Vec<FrameDisp> = Vec::with_capacity(run.len());
        // Per-shard worklist of (frame index, group index), in pipeline order.
        let mut per_shard: Vec<Vec<(usize, usize)>> = vec![Vec::new(); map.shard_count()];
        for (fi, pairs) in run.iter().enumerate() {
            if let Some(id) = first_out_of_range(endpoints(pairs), n) {
                disps.push(FrameDisp::OutOfRange(id));
                continue;
            }
            let mut groups: Vec<ShardGroup> = Vec::new();
            for (pi, &(u, v)) in pairs.iter().enumerate() {
                let shard = map.shard_for_query(u, v);
                match groups.iter_mut().find(|g| g.shard == shard) {
                    Some(group) => {
                        group.positions.push(pi);
                        group.pairs.push((u, v));
                    }
                    None => groups.push(ShardGroup {
                        shard,
                        positions: vec![pi],
                        pairs: vec![(u, v)],
                        outcome: None,
                    }),
                }
            }
            // An empty frame places nothing: it answers empty, uncounted.
            if !groups.is_empty() {
                self.forwarded_frames.add(1);
                reply.stats.queries.add(pairs.len() as u64);
            }
            if groups.len() > 1 {
                self.fanout_frames.add(1);
            }
            for (gi, group) in groups.iter().enumerate() {
                if let Some(work) = per_shard.get_mut(group.shard) {
                    work.push((fi, gi));
                }
            }
            disps.push(FrameDisp::Placed {
                groups,
                num_pairs: pairs.len(),
            });
        }

        // Scatter: one pipelined conversation per shard with work.
        for (shard, work) in per_shard.iter().enumerate() {
            if work.is_empty() {
                continue;
            }
            let frames: Vec<Vec<(VertexId, VertexId)>> = work
                .iter()
                .filter_map(|&(fi, gi)| match disps.get(fi) {
                    Some(FrameDisp::Placed { groups, .. }) => {
                        groups.get(gi).map(|g| g.pairs.clone())
                    }
                    _ => None,
                })
                .collect();
            let outcomes: Vec<GroupOutcome> = match pool.call(shard, |c| c.pipeline(&frames)) {
                Ok(answers) if answers.len() == frames.len() => answers
                    .into_iter()
                    .map(|answer| {
                        answer.map_err(|(code, detail)| Response::Error {
                            code,
                            detail,
                            message: format!("shard {shard}: {code}"),
                        })
                    })
                    .collect(),
                // A response-count mismatch means the conversation desynced;
                // treat it like a dead backend for these frames.
                Ok(_) => vec![Err(shard_unavailable_response(shard)); work.len()],
                Err(failure) => vec![Err(backend_failure_response(shard, &failure)); work.len()],
            };
            let failed = outcomes.iter().filter(|o| o.is_err()).count();
            self.shard_errors.add(failed as u64);
            for (&(fi, gi), outcome) in work.iter().zip(outcomes) {
                if let Some(FrameDisp::Placed { groups, .. }) = disps.get_mut(fi) {
                    if let Some(group) = groups.get_mut(gi) {
                        group.outcome = Some(outcome);
                    }
                }
            }
        }

        // Gather: emit one response per frame, in request order.
        for disp in disps {
            let (groups, num_pairs) = match disp {
                FrameDisp::OutOfRange(id) => {
                    reply.out_of_range(id, n);
                    continue;
                }
                FrameDisp::Placed { groups, num_pairs } => (groups, num_pairs),
            };
            let mut distances = vec![0u64; num_pairs];
            let mut failure: Option<Response> = None;
            for group in groups {
                match group.outcome {
                    Some(Ok(ds)) if ds.len() == group.positions.len() => {
                        for (&pos, &d) in group.positions.iter().zip(&ds) {
                            if let Some(slot) = distances.get_mut(pos) {
                                *slot = d;
                            }
                        }
                    }
                    Some(Err(resp)) => {
                        failure.get_or_insert(resp);
                    }
                    // Wrong count or an unfilled slot: desynced backend.
                    _ => {
                        failure.get_or_insert(shard_unavailable_response(group.shard));
                    }
                }
            }
            reply.send(&failure.unwrap_or(Response::Distances(distances)));
        }
    }

    /// Routes one PATH frame to the shard owning the pair (QDOL guarantees
    /// one exists) and relays the answer; a dead owning shard is a typed
    /// [`ErrorCode::ShardUnavailable`].
    fn path(&self, pool: &mut BackendPool, u: VertexId, v: VertexId, reply: &mut Reply<'_>) {
        let map = self.cluster.map();
        let n = map.num_vertices();
        if let Some(id) = first_out_of_range([u, v], n) {
            return reply.out_of_range(id, n);
        }
        self.forwarded_frames.add(1);
        reply.stats.queries.add(1);
        let shard = map.shard_for_query(u, v);
        match pool.call(shard, |client| client.path(u, v)) {
            Ok(vertices) => reply.send(&Response::Path(vertices)),
            Err(failure) => self.shard_failure(&backend_failure_response(shard, &failure), reply),
        }
    }

    /// Routes one MATRIX frame: every cell is placed on the shard owning its
    /// pair, each shard with work answers one sub-matrix over the (sorted,
    /// deduplicated) sources and targets of its cells, and the cells are
    /// merged back into the client's row-major block. All ids a shard
    /// receives are owned by it — each appears in some cell placed there, and
    /// QDOL ownership is per-vertex — so the extra cells a sub-matrix
    /// computes are answerable waste, never `NotThisShard`. Any needed shard
    /// being dead fails the whole frame (a partial matrix has no wire
    /// representation).
    fn matrix(
        &self,
        pool: &mut BackendPool,
        sources: &[VertexId],
        targets: &[VertexId],
        reply: &mut Reply<'_>,
    ) {
        let map = self.cluster.map();
        let n = map.num_vertices();
        if let Some(id) = first_out_of_range(sources.iter().chain(targets).copied(), n) {
            return reply.out_of_range(id, n);
        }
        let cells = sources.len() * targets.len();
        if reply.matrix_exceeds_cap(cells, self.max_frame) {
            return;
        }
        self.forwarded_frames.add(1);
        reply.stats.queries.add(cells as u64);
        if cells == 0 {
            return reply.send(&Response::Matrix(Vec::new()));
        }

        // Place every cell, collecting each shard's id sets.
        let mut shard_of_cell: Vec<usize> = Vec::with_capacity(cells);
        let mut sub_sources: Vec<Vec<VertexId>> = vec![Vec::new(); map.shard_count()];
        let mut sub_targets: Vec<Vec<VertexId>> = vec![Vec::new(); map.shard_count()];
        for &s in sources {
            for &t in targets {
                let shard = map.shard_for_query(s, t);
                shard_of_cell.push(shard);
                if let (Some(ss), Some(ts)) =
                    (sub_sources.get_mut(shard), sub_targets.get_mut(shard))
                {
                    ss.push(s);
                    ts.push(t);
                }
            }
        }
        for ids in sub_sources.iter_mut().chain(sub_targets.iter_mut()) {
            ids.sort_unstable();
            ids.dedup();
        }
        let needed: Vec<usize> = (0..map.shard_count())
            .filter(|&s| !sub_sources.get(s).is_none_or(Vec::is_empty))
            .collect();
        if needed.len() > 1 {
            self.fanout_frames.add(1);
        }

        // Scatter: one sub-matrix conversation per shard with work.
        let mut blocks: Vec<Option<Vec<Distance>>> = vec![None; map.shard_count()];
        for &shard in &needed {
            let (Some(ss), Some(ts)) = (sub_sources.get(shard), sub_targets.get(shard)) else {
                continue;
            };
            match pool.call(shard, |client| client.matrix(ss, ts)) {
                Ok(block) if block.len() == ss.len() * ts.len() => {
                    if let Some(slot) = blocks.get_mut(shard) {
                        *slot = Some(block);
                    }
                }
                // Wrong cell count: desynced backend, same as dead.
                Ok(_) => return self.shard_failure(&shard_unavailable_response(shard), reply),
                Err(failure) => {
                    return self.shard_failure(&backend_failure_response(shard, &failure), reply);
                }
            }
        }

        // Gather: pull each client cell out of its shard's sub-block.
        let mut merged: Vec<Distance> = Vec::with_capacity(cells);
        for (ci, &shard) in shard_of_cell.iter().enumerate() {
            let (s, t) = (
                sources.get(ci / targets.len()).copied().unwrap_or_default(),
                targets.get(ci % targets.len()).copied().unwrap_or_default(),
            );
            let cell = blocks
                .get(shard)
                .and_then(|b| b.as_ref())
                .and_then(|block| {
                    let ss = sub_sources.get(shard)?;
                    let ts = sub_targets.get(shard)?;
                    let row = ss.binary_search(&s).ok()?;
                    let col = ts.binary_search(&t).ok()?;
                    block.get(row * ts.len() + col).copied()
                });
            match cell {
                Some(d) => merged.push(d),
                // Unreachable by construction; treat as a desynced backend
                // rather than risking a wrong-length response.
                None => return self.shard_failure(&shard_unavailable_response(shard), reply),
            }
        }
        reply.send(&Response::Matrix(merged));
    }

    fn info(&self, pool: &mut BackendPool) -> Response {
        aggregate_info(pool, &self.cluster)
    }

    fn reload(&self, pool: &mut BackendPool) -> Response {
        fan_out_reload(pool, &self.cluster)
    }

    /// Stops the router only — stopping backends is their operator's call —
    /// and the router has no reload generation of its own; 0 here.
    fn shutdown(&self) -> Response {
        Response::Ok { generation: 0 }
    }

    /// Minimal plain-text status for non-protocol (curl) connections; the
    /// real HTTP query adapter lives on the shard servers.
    fn http(&self, mut stream: TcpStream, _head: &[u8], _state: &State) -> std::io::Result<()> {
        let body = format!(
            "chl route: {} shards over {} vertices (zeta {})\n",
            self.cluster.shard_count(),
            self.cluster.num_vertices(),
            self.cluster.map().zeta()
        );
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(response.as_bytes())
    }

    fn stats(&self, shared: &Counters) -> RouterStatsSnapshot {
        RouterStatsSnapshot {
            connections: shared.connections.get(),
            http_requests: shared.http_requests.get(),
            frames: shared.frames.get(),
            queries: shared.queries.get(),
            forwarded_frames: self.forwarded_frames.get(),
            fanout_frames: self.fanout_frames.get(),
            shard_errors: self.shard_errors.get(),
            error_frames: shared.error_frames.get(),
            reloads: shared.reloads.get(),
        }
    }
}

impl RouteService {
    /// Surfaces a backend failure as the whole frame's answer.
    fn shard_failure(&self, answer: &Response, reply: &mut Reply<'_>) {
        self.shard_errors.add(1);
        reply.send(answer);
    }
}

/// Aggregates the cluster into one unsharded-looking INFO answer: global
/// vertex count, label bytes summed across shards (partition overlaps are
/// counted once per owning shard — this is real cluster memory, not the
/// deduplicated index size), and the minimum backend generation (the most
/// conservative view of how reloaded the cluster is). Flags report what
/// holds on **every** shard.
fn aggregate_info(pool: &mut BackendPool, cluster: &ClusterView) -> Response {
    let mut total_labels = 0u64;
    let mut generation = u64::MAX;
    let mut compressed = true;
    let mut mapped = true;
    for shard in 0..cluster.shard_count() {
        match pool.call(shard, |client| client.info()) {
            Ok(info) => {
                total_labels = total_labels.saturating_add(info.total_labels);
                generation = generation.min(info.generation);
                compressed &= info.compressed;
                mapped &= info.mapped;
            }
            Err(failure) => return backend_failure_response(shard, &failure),
        }
    }
    Response::Info(ServerInfo {
        num_vertices: cluster.num_vertices() as u64,
        total_labels,
        generation: if generation == u64::MAX {
            0
        } else {
            generation
        },
        compressed,
        mapped,
        shard: None,
    })
}

/// Fans RELOAD out to every shard in shard order and reports the minimum
/// resulting generation. Not atomic: a mid-sequence failure leaves earlier
/// shards reloaded, and the error frame names the first shard that failed.
fn fan_out_reload(pool: &mut BackendPool, cluster: &ClusterView) -> Response {
    let mut generation = u64::MAX;
    for shard in 0..cluster.shard_count() {
        match pool.call(shard, |client| client.reload()) {
            Ok(g) => generation = generation.min(g),
            Err(failure) => return backend_failure_response(shard, &failure),
        }
    }
    Response::Ok {
        generation: if generation == u64::MAX {
            0
        } else {
            generation
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(shard: Option<(u32, u32)>, n: u64) -> ServerInfo {
        ServerInfo {
            num_vertices: n,
            total_labels: 10,
            generation: 0,
            compressed: false,
            mapped: false,
            shard,
        }
    }

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn from_infos_accepts_a_coherent_cluster_in_any_order() {
        // Backends listed out of shard order still map correctly.
        let a = addrs(3);
        let infos = [
            info(Some((2, 3)), 16),
            info(Some((0, 3)), 16),
            info(Some((1, 3)), 16),
        ];
        let cluster = ClusterView::from_infos(&a, &infos).expect("coherent cluster");
        assert_eq!(cluster.shard_count(), 3);
        assert_eq!(cluster.num_vertices(), 16);
        assert_eq!(cluster.addr_of_shard(0), Some(a[1].as_str()));
        assert_eq!(cluster.addr_of_shard(1), Some(a[2].as_str()));
        assert_eq!(cluster.addr_of_shard(2), Some(a[0].as_str()));
        assert_eq!(cluster.addr_of_shard(3), None);
        assert_eq!(cluster.map().shard_count(), 3);
        assert_eq!(cluster.map().num_vertices(), 16);
    }

    #[test]
    fn from_infos_rejects_incoherent_clusters() {
        let a = addrs(2);
        // A whole-index backend.
        let err = ClusterView::from_infos(&a, &[info(None, 16), info(Some((1, 2)), 16)])
            .expect_err("whole index rejected");
        assert!(matches!(err, RouterError::NotSharded { .. }));
        // Duplicate shard id.
        let err = ClusterView::from_infos(&a, &[info(Some((0, 2)), 16), info(Some((0, 2)), 16)])
            .expect_err("duplicate shard rejected");
        assert!(err.to_string().contains("served by both"));
        // Mismatched global vertex count (different indexes).
        let err = ClusterView::from_infos(&a, &[info(Some((0, 2)), 16), info(Some((1, 2)), 17)])
            .expect_err("mixed indexes rejected");
        assert!(err.to_string().contains("vertices"));
        // Shard count disagreeing with the address list.
        let err = ClusterView::from_infos(&a, &[info(Some((0, 3)), 16), info(Some((1, 3)), 16)])
            .expect_err("wrong count rejected");
        assert!(err.to_string().contains("backends were given"));
        // Shard id out of range.
        let err = ClusterView::from_infos(&a, &[info(Some((0, 2)), 16), info(Some((9, 2)), 16)])
            .expect_err("id out of range rejected");
        assert!(err.to_string().contains(">="));
        // No backends at all.
        let err = ClusterView::from_infos(&[], &[]).expect_err("empty rejected");
        assert!(matches!(err, RouterError::Inconsistent(_)));
    }

    #[test]
    fn router_options_default_and_error_display() {
        let opts = RouterOptions::default();
        assert!(opts.threads >= 1);
        assert_eq!(opts.max_frame, DEFAULT_MAX_FRAME);
        let err = RouterError::NotSharded {
            addr: "10.0.0.1:4040".into(),
        };
        assert!(err.to_string().contains("10.0.0.1:4040"));
        let unavailable = shard_unavailable_response(2);
        match unavailable {
            Response::Error { code, detail, .. } => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                assert_eq!(detail, 2);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
}
