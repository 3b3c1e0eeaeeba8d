//! `chl serve`: the [`engine`](crate::engine) driving the local-oracle
//! service.
//!
//! [`OracleService`] answers every request from a [`SharedIndex`] snapshot:
//! each coalesced run of QUERY frames becomes a **single** batched
//! [`DistanceOracle::distances`](chl_core::oracle::DistanceOracle::distances)
//! call, PATH and MATRIX frames go through the generation's parent records
//! and the hub-pivoted block kernel — all inline on the engine worker that
//! read the frames (the worker pool is the parallelism). Range is always
//! checked before shard ownership, so out-of-range ids get byte-identical
//! answers from a shard and from a whole-index server. Reload never stops
//! anything: handlers answer each batch from the snapshot they took for it.
//!
//! Sockets, framing, batching boundaries and shutdown live in the engine;
//! [`Server`], [`ServerHandle`] and [`SpawnedServer`] are its generic types
//! over this service.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use chl_core::paths::PathError;
use chl_core::persist::ShardSpec;
use chl_graph::types::VertexId;

use crate::engine::{
    endpoints, first_out_of_range, Counter, Counters, Engine, Handle, Reply, Service, Spawned,
    State,
};
use crate::http;
use crate::index::{LoadedIndex, SharedIndex};
use crate::protocol::{ErrorCode, Response, DEFAULT_MAX_FRAME};

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads handling connections, at least 1. Each worker answers
    /// its frames inline, so these are all the compute threads serving
    /// takes; one connection's frames use one core.
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

/// One coherent-enough copy of the serving counters: individually exact,
/// mutually unordered.
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

impl StatsSnapshot {
    fn read(shared: &Counters, batch_calls: &Counter, max_coalesced: &Counter) -> Self {
        StatsSnapshot {
            connections: shared.connections.get(),
            http_requests: shared.http_requests.get(),
            frames: shared.frames.get(),
            queries: shared.queries.get(),
            batch_calls: batch_calls.get(),
            max_coalesced: max_coalesced.get(),
            error_frames: shared.error_frames.get(),
            reloads: shared.reloads.get(),
        }
    }
}

/// The [`Service`] behind `chl serve`: every answer comes from the local
/// [`SharedIndex`].
#[derive(Debug)]
pub struct OracleService {
    shared: Arc<SharedIndex>,
    max_frame: u32,
    batch_calls: Counter,
    max_coalesced: Counter,
}

/// A bound-but-not-yet-running server.
pub type Server = Engine<OracleService>;
/// A cloneable remote control for a bound server: shutdown + stats.
pub type ServerHandle = Handle<OracleService>;
/// A server running on its own thread, as spawned by [`Server::spawn`].
pub type SpawnedServer = Spawned<OracleService>;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over a shared index.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        shared: Arc<SharedIndex>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let service = OracleService {
            shared,
            max_frame: opts.max_frame,
            batch_calls: Counter::default(),
            max_coalesced: Counter::default(),
        };
        Engine::new(addr, service, opts.threads, opts.max_frame)
    }
}

/// Why this server refuses a frame (or an HTTP query) instead of answering.
pub(crate) enum Refusal {
    /// An id is outside `0..n`.
    OutOfRange(VertexId),
    /// An in-range id is owned by another shard (shard files only).
    Foreign(VertexId),
}

/// The admission rule of every query surface, range before ownership: the
/// first id (in wire order) that is out of range, else the first owned by
/// another shard.
pub(crate) fn admit(
    snapshot: &LoadedIndex,
    mut ids: impl Iterator<Item = VertexId> + Clone,
) -> Result<(), Refusal> {
    if let Some(id) = first_out_of_range(ids.clone(), snapshot.num_vertices()) {
        return Err(Refusal::OutOfRange(id));
    }
    match ids.find_map(|id| snapshot.foreign_endpoint(id, id)) {
        Some(id) => Err(Refusal::Foreign(id)),
        None => Ok(()),
    }
}

impl Refusal {
    fn send(self, snapshot: &LoadedIndex, reply: &mut Reply<'_>) {
        match self {
            Refusal::OutOfRange(id) => reply.out_of_range(id, snapshot.num_vertices()),
            Refusal::Foreign(id) => not_this_shard_frame(id, snapshot.shard(), reply),
        }
    }
}

impl Service for OracleService {
    const NAME: &'static str = "serve";
    type Worker = ();
    type Stats = StatsSnapshot;

    fn worker(&self) {}

    /// Every answerable frame's pairs go into one batched `distances` call;
    /// frames naming an out-of-range id — or, on a shard file, an id owned
    /// by another shard — answer a typed error frame instead, without
    /// failing their neighbors.
    fn query_run(&self, _: &mut (), run: &[Vec<(VertexId, VertexId)>], reply: &mut Reply<'_>) {
        // One snapshot for the whole run: a concurrent reload never changes
        // answers mid-batch, and in-flight batches keep the old generation
        // alive until they finish.
        let snapshot = self.shared.snapshot();

        // Frame dispositions: Ok(range into the batch) or the refusal.
        let mut batch: Vec<(VertexId, VertexId)> = Vec::new();
        let mut frames: Vec<Result<std::ops::Range<usize>, Refusal>> =
            Vec::with_capacity(run.len());
        for pairs in run {
            frames.push(admit(&snapshot, endpoints(pairs)).map(|()| {
                let start = batch.len();
                batch.extend_from_slice(pairs);
                start..batch.len()
            }));
        }

        // A run whose frames were all refused makes no call.
        let answers = if batch.is_empty() {
            Vec::new()
        } else {
            self.batch_calls.add(1);
            snapshot.oracle().distances(&batch)
        };
        self.max_coalesced.raise_max(run.len() as u64);
        reply.stats.queries.add(batch.len() as u64);

        for frame in frames {
            match frame {
                Ok(range) => {
                    let ds = answers.get(range).unwrap_or_default();
                    reply.send(&Response::Distances(ds.to_vec()));
                }
                Err(refusal) => refusal.send(&snapshot, reply),
            }
        }
    }

    /// The generation's parent records reconstruct the walk. A path too
    /// long for the frame cap answers a typed Oversized error and the
    /// connection keeps serving: unlike an oversized *request*, framing is
    /// never lost on the response side.
    fn path(&self, _: &mut (), u: VertexId, v: VertexId, reply: &mut Reply<'_>) {
        let snapshot = self.shared.snapshot();
        if let Err(refusal) = admit(&snapshot, [u, v].into_iter()) {
            return refusal.send(&snapshot, reply);
        }
        match snapshot.path(u, v) {
            Ok(hops) => {
                let vertices = hops.unwrap_or_default();
                let payload = 1 + 4 + 4 * vertices.len();
                if payload > self.max_frame as usize {
                    let message = format!(
                        "path of {} vertices exceeds the {}-byte frame cap",
                        vertices.len(),
                        self.max_frame
                    );
                    return reply.error(ErrorCode::Oversized, vertices.len() as u64, message);
                }
                reply.stats.queries.add(1);
                reply.send(&Response::Path(vertices));
            }
            // An interior chain vertex owned elsewhere (possible on shard
            // files even when both endpoints are owned here).
            Err(PathError::NotThisShard { vertex }) => {
                not_this_shard_frame(vertex, snapshot.shard(), reply);
            }
            // No path section, or parent records that cannot witness the
            // pair: distances still serve, reconstruction does not.
            Err(e) => reply.error(ErrorCode::NoPathData, 0, e.to_string()),
        }
    }

    /// The hub-pivoted block kernel; range is checked over sources then
    /// targets (first offender wins), then shard ownership.
    fn matrix(
        &self,
        _: &mut (),
        sources: &[VertexId],
        targets: &[VertexId],
        reply: &mut Reply<'_>,
    ) {
        let snapshot = self.shared.snapshot();
        if let Err(refusal) = admit(&snapshot, sources.iter().chain(targets).copied()) {
            return refusal.send(&snapshot, reply);
        }
        let cells = sources.len() * targets.len();
        if reply.matrix_exceeds_cap(cells, self.max_frame) {
            return;
        }
        reply.stats.queries.add(cells as u64);
        self.batch_calls.add(1);
        reply.send(&Response::Matrix(
            snapshot.oracle().matrix(sources, targets),
        ));
    }

    fn info(&self, _: &mut ()) -> Response {
        Response::Info(self.shared.info())
    }

    fn reload(&self, _: &mut ()) -> Response {
        match self.shared.reload() {
            Ok(generation) => Response::Ok { generation },
            Err(e) => Response::Error {
                code: ErrorCode::ReloadFailed,
                detail: 0,
                message: e.to_string(),
            },
        }
    }

    fn shutdown(&self) -> Response {
        Response::Ok {
            generation: self.shared.generation(),
        }
    }

    fn http(&self, stream: TcpStream, head: &[u8], state: &State) -> std::io::Result<()> {
        http::serve_http(stream, head, &self.shared, state)
    }

    fn stats(&self, shared: &Counters) -> StatsSnapshot {
        StatsSnapshot::read(shared, &self.batch_calls, &self.max_coalesced)
    }
}

/// The NOT_THIS_SHARD refusal text, shared by the binary error frame and
/// the HTTP adapter's 421 body.
pub(crate) fn not_this_shard_message(id: VertexId, shard: Option<&ShardSpec>) -> String {
    let (sid, cnt) = shard.map(|s| (s.shard_id, s.shard_count)).unwrap_or((0, 0));
    format!("vertex id {id} is owned by another shard (this is shard {sid} of {cnt})")
}

fn not_this_shard_frame(id: VertexId, shard: Option<&ShardSpec>, reply: &mut Reply<'_>) {
    let message = not_this_shard_message(id, shard);
    reply.error(ErrorCode::NotThisShard, id as u64, message);
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
        let (shared, batch_calls, max_coalesced) =
            (Counters::default(), Counter::default(), Counter::default());
        shared.queries.add(3);
        max_coalesced.raise_max(5);
        max_coalesced.raise_max(2);
        let snap = StatsSnapshot::read(&shared, &batch_calls, &max_coalesced);
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.max_coalesced, 5);
        assert_eq!(snap.connections, 0);
    }
}
