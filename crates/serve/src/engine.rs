//! The connection engine: the only listener / worker / connection machinery
//! in the crate. `chl serve` and `chl route` are this engine driving two
//! [`Service`]s.
//!
//! ```text
//!                         Mutex<VecDeque> + Condvar
//!             ┌──────────┐     ┌───────┐     ┌──────────────┐
//!  accept() ──► acceptor ├────►│ queue ├────►│ worker 0..N  ├──► Service
//!  (blocking) └──────────┘     └───▲───┘     └──────┬───────┘   query_run / path /
//!                                  └────────────────┘           matrix / info / reload /
//!                         idle hand-back (only if one waits)    shutdown / http
//! ```
//!
//! A worker pops a connection, sniffs its 4-byte preamble (`CHL1` selects
//! the binary protocol, anything else goes to [`Service::http`]), then loops:
//! drain every complete frame one `read` produced, decode, hand each
//! contiguous run of QUERY frames to [`Service::query_run`] as **one** call
//! (a pipelining client gets batching for free; a one-at-a-time client gets
//! single-query latency), answer everything else frame by frame, and write
//! the responses back in request order with one `write_all`. An oversized
//! declared length is answered typed and then closes the connection: the
//! stream cannot be re-synchronized.
//!
//! The worker pool is the parallelism. Each worker runs its whole loop under
//! `rayon::with_threads(1, …)`, so a run's `distances`, a MATRIX frame's rows
//! and an HTTP query are answered inline on the worker that holds the
//! connection: `threads` workers are every compute thread the engine starts,
//! and no call pays a thread spawn. The price is that one connection's frames
//! use one core; a client that wants every core opens at least `threads`
//! connections.
//!
//! Two rules keep the edges honest:
//!
//! * **Shutdown wake.** `accept` blocks (a polling acceptor made every fresh
//!   connection wait out a sleep), so whoever latches shutdown — a SHUTDOWN
//!   frame or a [`Handle`] — connects once to the listener's own address. The
//!   acceptor re-checks the latch after *every* `accept`, before counting or
//!   queueing the stream, so the wake connection is neither counted nor
//!   served. Workers then finish the frames already read and exit at their
//!   next idle tick.
//! * **Idle hand-back.** A connection's whole state (`Conn`) is movable. A
//!   worker whose connection stayed silent for one `READ_POLL` tick parks
//!   it at the back of the queue when — and only when — another connection
//!   is waiting, and serves that one instead. Without it an idle client pins
//!   a worker, and `threads` idle clients starve every later one (a router
//!   with more workers than a shard server saw `ShardUnavailable`). A busy
//!   pipeline never reaches an idle tick, so it never migrates.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use chl_graph::types::VertexId;

use crate::protocol::{
    decode_request, encode_response, ErrorCode, FrameBuffer, Request, Response, WireError, MAGIC,
};

/// Read timeout on connections; each expiry is one idle tick, on which the
/// worker re-checks the shutdown latch and the queue.
const READ_POLL: Duration = Duration::from_millis(50);
/// Upper bound on one blocked response write before the connection is
/// declared dead (a client that stopped reading must not pin a worker).
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-read chunk size: large enough to swallow a deep pipeline in one read.
const READ_CHUNK: usize = 64 * 1024;
/// Pause after a failed `accept` (e.g. fd pressure) instead of spinning.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

// ORDERING: statistics only — every counter is independently monotonic and
// individually exact, and no other memory is published through one, so
// atomicity is all it needs.
const STATISTIC: Ordering = Ordering::Relaxed;

/// One monotonic statistics counter, updated lock-free by every worker.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, STATISTIC);
    }

    pub(crate) fn raise_max(&self, candidate: u64) {
        self.0.fetch_max(candidate, STATISTIC);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(STATISTIC)
    }
}

/// The counters every tier keeps; a [`Service`] adds its own beside them.
#[derive(Debug, Default)]
pub struct Counters {
    /// Connections accepted (binary and HTTP alike).
    pub(crate) connections: Counter,
    /// Connections handed to [`Service::http`].
    pub(crate) http_requests: Counter,
    /// Binary request frames decoded.
    pub(crate) frames: Counter,
    /// Individual distance queries answered (or placed on a backend).
    pub(crate) queries: Counter,
    /// Typed error frames sent.
    pub(crate) error_frames: Counter,
    /// RELOAD frames answered `Ok`.
    pub(crate) reloads: Counter,
}

/// What a tier does with decoded requests. Sockets, framing, response order
/// and shutdown are the engine's; a service only sends frames to a [`Reply`].
pub trait Service: Send + Sync + 'static {
    /// Tag for thread names and error texts (`serve`, `route`).
    const NAME: &'static str;
    /// Per-worker mutable state, built on the worker's own thread.
    type Worker;
    /// The counters snapshot this tier reports.
    type Stats;

    /// Builds one worker's state.
    fn worker(&self) -> Self::Worker;
    /// Answers one coalesced run of QUERY frames: one response per frame,
    /// in order.
    fn query_run(
        &self,
        worker: &mut Self::Worker,
        run: &[Vec<(VertexId, VertexId)>],
        reply: &mut Reply<'_>,
    );
    /// Answers one PATH frame.
    fn path(&self, worker: &mut Self::Worker, u: VertexId, v: VertexId, reply: &mut Reply<'_>);
    /// Answers one MATRIX frame.
    fn matrix(
        &self,
        worker: &mut Self::Worker,
        sources: &[VertexId],
        targets: &[VertexId],
        reply: &mut Reply<'_>,
    );
    /// The answer to an INFO frame.
    fn info(&self, worker: &mut Self::Worker) -> Response;
    /// Performs a RELOAD and reports it (`Ok` counts as a reload).
    fn reload(&self, worker: &mut Self::Worker) -> Response;
    /// The acknowledgement of a SHUTDOWN frame; the engine latches after
    /// writing it.
    fn shutdown(&self) -> Response;
    /// Answers a connection whose first bytes (`head`) were not the binary
    /// preamble, then closes it.
    fn http(&self, stream: TcpStream, head: &[u8], state: &State) -> std::io::Result<()>;
    /// Combines the engine's counters with the service's own.
    fn stats(&self, shared: &Counters) -> Self::Stats;
}

/// The first id of a frame (in wire order) outside `0..n` — the offender
/// both tiers name in the refusal.
pub(crate) fn first_out_of_range(
    ids: impl IntoIterator<Item = VertexId>,
    n: usize,
) -> Option<VertexId> {
    ids.into_iter().find(|&id| id as usize >= n)
}

/// The endpoints of a QUERY frame in wire order.
pub(crate) fn endpoints(
    pairs: &[(VertexId, VertexId)],
) -> impl Iterator<Item = VertexId> + Clone + '_ {
    pairs.iter().flat_map(|&(u, v)| [u, v])
}

/// The out-of-range refusal text, shared by the error frame and the HTTP
/// adapter's 400 body.
pub(crate) fn out_of_range_message(id: VertexId, n: usize) -> String {
    format!("vertex id {id} out of range for {n} vertices")
}

/// The response side of one flush: frames are appended in request order and
/// written back with one `write_all`.
#[derive(Debug)]
pub struct Reply<'a> {
    pub(crate) stats: &'a Counters,
    out: Vec<u8>,
}

impl Reply<'_> {
    /// Appends one response frame; every typed error frame, whatever its
    /// cause, is counted here and nowhere else.
    pub(crate) fn send(&mut self, response: &Response) {
        if let Response::Error { .. } = response {
            self.stats.error_frames.add(1);
        }
        encode_response(response, &mut self.out);
    }

    pub(crate) fn error(&mut self, code: ErrorCode, detail: u64, message: String) {
        self.send(&Response::Error {
            code,
            detail,
            message,
        });
    }

    /// The `VertexOutOfRange` frame both tiers answer byte-identically, so a
    /// client cannot tell the router from a single process on bad input.
    pub(crate) fn out_of_range(&mut self, id: VertexId, n: usize) {
        self.error(
            ErrorCode::VertexOutOfRange,
            id as u64,
            out_of_range_message(id, n),
        );
    }

    /// `true` — after answering a typed `Oversized` error — when a MATRIX
    /// response of `cells` cells would exceed the frame cap. The connection
    /// keeps serving: unlike an oversized *request*, framing is never lost
    /// on the response side.
    pub(crate) fn matrix_exceeds_cap(&mut self, cells: usize, max_frame: u32) -> bool {
        let exceeds = 1 + 4 + 8 * cells > max_frame as usize;
        if exceeds {
            let message = format!("matrix of {cells} cells exceeds the {max_frame}-byte frame cap");
            self.error(ErrorCode::Oversized, cells as u64, message);
        }
        exceeds
    }
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

pub(crate) fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One client connection's whole state, movable between workers.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    phase: Phase,
}

#[derive(Debug)]
enum Phase {
    /// The bytes read so far, fewer than the 4 that pick the protocol.
    Preamble(Vec<u8>),
    /// `CHL1` seen: length-prefixed frames from here on.
    Frames(FrameBuffer),
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_POLL))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        Ok(Conn {
            stream,
            phase: Phase::Preamble(Vec::with_capacity(4)),
        })
    }
}

#[derive(Debug, Default)]
struct Queue {
    conns: VecDeque<Conn>,
    /// Set by the acceptor once it stopped accepting; idle workers exit.
    closed: bool,
}

/// State shared by the acceptor, the workers and every [`Handle`].
#[derive(Debug)]
pub struct State {
    /// The shutdown latch. `SeqCst`, not a statistic: the acceptor must see
    /// the store made before the wake connection it has just accepted.
    shutdown: AtomicBool,
    /// Where a latcher connects to wake the blocking acceptor.
    wake: SocketAddr,
    counters: Counters,
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl State {
    /// `true` once shutdown was requested (protocol frame or handle).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Latches shutdown, then wakes the acceptor with one connection to its
    /// own listener. The error is the failed wake: the acceptor then sleeps
    /// on until the next connection attempt.
    fn request_shutdown(&self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match TcpStream::connect(self.wake) {
            // Nobody left to wake: the acceptor closes the queue before it
            // drops the listener.
            Err(_) if self.queue().closed => Ok(()),
            result => result.map(drop),
        }
    }

    fn queue(&self) -> MutexGuard<'_, Queue> {
        // Poisoned means a worker panicked mid-push/pop; every such update
        // leaves the queue valid.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, conn: Conn) {
        self.queue().conns.push_back(conn);
        self.ready.notify_one();
    }

    /// Blocks for the next connection; `None` once the queue is closed and
    /// drained.
    fn next_conn(&self) -> Option<Conn> {
        let mut queue = self.queue();
        loop {
            if let Some(conn) = queue.conns.pop_front() {
                return Some(conn);
            }
            if queue.closed {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The idle hand-back: when another connection is waiting, parks `conn`
    /// behind it and returns the waiting one; otherwise returns `conn`.
    fn trade_if_waiting(&self, conn: Conn) -> Conn {
        let mut queue = self.queue();
        match queue.conns.pop_front() {
            Some(next) => {
                queue.conns.push_back(conn);
                next
            }
            None => conn,
        }
    }

    fn close(&self) {
        self.queue().closed = true;
        self.ready.notify_all();
    }
}

/// A cloneable remote control for a bound engine: shutdown + stats.
#[derive(Debug)]
pub struct Handle<S: Service> {
    addr: SocketAddr,
    state: Arc<State>,
    service: Arc<S>,
}

impl<S: Service> Clone for Handle<S> {
    fn clone(&self) -> Self {
        Handle {
            addr: self.addr,
            state: Arc::clone(&self.state),
            service: Arc::clone(&self.service),
        }
    }
}

impl<S: Service> Handle<S> {
    /// The address actually listened on (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: the acceptor closes, workers finish the
    /// frames already read on their connections and exit. A wake that cannot
    /// be delivered is dropped here ([`Spawned::shutdown`] reports it).
    pub fn signal_shutdown(&self) {
        let _ = self.state.request_shutdown();
    }

    /// `true` once shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.is_shutdown()
    }

    /// Current counters.
    pub fn stats(&self) -> S::Stats {
        self.service.stats(&self.state.counters)
    }
}

/// A bound-but-not-yet-running listener in front of one [`Service`].
#[derive(Debug)]
pub struct Engine<S: Service> {
    listener: TcpListener,
    handle: Handle<S>,
    threads: usize,
    max_frame: u32,
}

/// An engine running on its own thread, as spawned by [`Engine::spawn`].
#[derive(Debug)]
pub struct Spawned<S: Service> {
    handle: Handle<S>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl<S: Service> Spawned<S> {
    /// The remote control (addr, shutdown, stats).
    pub fn handle(&self) -> &Handle<S> {
        &self.handle
    }

    /// Signals shutdown and waits for the engine thread to exit, returning
    /// the final counters — or the error of a wake connection that could not
    /// be made, rather than waiting on an acceptor nobody woke.
    pub fn shutdown(self) -> std::io::Result<S::Stats> {
        self.handle.state.request_shutdown()?;
        self.join()
    }

    /// Waits for the engine to exit on its own (e.g. a protocol SHUTDOWN
    /// frame), returning the final counters.
    pub fn join(self) -> std::io::Result<S::Stats> {
        match self.join.join() {
            Ok(result) => result.map(|()| self.handle.stats()),
            Err(_) => Err(std::io::Error::other(format!(
                "{} thread panicked",
                S::NAME
            ))),
        }
    }
}

impl<S: Service> Engine<S> {
    /// Binds `addr` in front of `service`; `threads` is clamped to at least 1.
    pub(crate) fn new<A: ToSocketAddrs>(
        addr: A,
        service: S,
        threads: usize,
        max_frame: u32,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // An unspecified bind (0.0.0.0 / [::]) is not connectable
        // everywhere; its loopback of the same family always is.
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let state = State {
            shutdown: AtomicBool::new(false),
            wake,
            counters: Counters::default(),
            queue: Mutex::default(),
            ready: Condvar::new(),
        };
        Ok(Engine {
            listener,
            handle: Handle {
                addr,
                state: Arc::new(state),
                service: Arc::new(service),
            },
            threads: threads.max(1),
            max_frame,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A remote control usable from other threads while [`Engine::run`]
    /// blocks this one.
    pub fn handle(&self) -> Handle<S> {
        self.handle.clone()
    }

    /// Runs acceptor + workers on the calling thread until shutdown is
    /// requested, then drains and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        let state = &self.handle.state;
        let mut workers = Vec::with_capacity(self.threads);
        for i in 0..self.threads {
            let (handle, max_frame) = (self.handle.clone(), self.max_frame);
            let spawned = std::thread::Builder::new()
                .name(format!("chl-{}-{i}", S::NAME))
                .spawn(move || worker_loop(&*handle.service, max_frame, &handle.state));
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    state.close(); // releases the workers already started
                    return Err(e);
                }
            }
        }

        loop {
            match self.listener.accept() {
                // Latched: this is the wake connection (or a client racing
                // it) — neither counted nor served.
                Ok(_) if state.is_shutdown() => break,
                Ok((stream, _peer)) => {
                    state.counters.connections.add(1);
                    if let Ok(conn) = Conn::new(stream) {
                        state.push(conn);
                    }
                }
                Err(_) if state.is_shutdown() => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }

        // Closing the queue releases idle workers; busy ones notice the
        // latch at their next idle tick. The listener outlives both (it
        // drops with `self`), so a late wake connection is never refused
        // before the queue reads closed.
        state.close();
        for worker in workers {
            // A worker panic is a bug, but the acceptor still reports an
            // orderly error instead of propagating the panic.
            if worker.join().is_err() {
                let message = format!("{} worker panicked", S::NAME);
                return Err(std::io::Error::other(message));
            }
        }
        Ok(())
    }

    /// Moves the engine onto a background thread; the returned handle
    /// controls and observes it.
    pub fn spawn(self) -> std::io::Result<Spawned<S>> {
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name(format!("chl-{}-accept", S::NAME))
            .spawn(move || self.run())?;
        Ok(Spawned { handle, join })
    }
}

/// One worker's whole life, pinned to one parallel thread (the worker pool is
/// the parallelism, see the module doc).
fn worker_loop<S: Service>(service: &S, max_frame: u32, state: &State) {
    rayon::with_threads(1, || {
        let mut worker = service.worker();
        let mut chunk = vec![0u8; READ_CHUNK];
        while let Some(conn) = state.next_conn() {
            // Connection-level IO errors (abrupt client disconnects, resets)
            // end that connection only, never the worker.
            let _ = serve(conn, service, &mut worker, max_frame, state, &mut chunk);
        }
    });
}

/// Outcome of processing one flush of frames.
enum Disposition {
    /// Keep reading from this connection.
    Continue,
    /// Close and stop the whole engine (SHUTDOWN frame acknowledged).
    Shutdown,
}

/// Serves `conn` — and, through the idle hand-back, whichever connections it
/// is traded for — until one of them closes.
fn serve<S: Service>(
    mut conn: Conn,
    service: &S,
    worker: &mut S::Worker,
    max_frame: u32,
    state: &State,
    chunk: &mut [u8],
) -> std::io::Result<()> {
    let stats = &state.counters;
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    loop {
        if let Phase::Preamble(head) = &conn.phase {
            if let Some((magic, rest)) = head.split_first_chunk::<4>() {
                if *magic != MAGIC {
                    stats.http_requests.add(1);
                    return service.http(conn.stream, head, state);
                }
                let mut frames = FrameBuffer::new(max_frame);
                frames.extend(rest);
                conn.phase = Phase::Frames(frames);
            }
        }
        if let Phase::Frames(frames) = &mut conn.phase {
            // Drain every complete frame the buffer holds right now.
            let oversized = loop {
                match frames.next_payload() {
                    Ok(Some(payload)) => payloads.push(payload),
                    Ok(None) => break None,
                    Err(wire) => break Some(wire),
                }
            };
            if !payloads.is_empty() || oversized.is_some() {
                let mut reply = Reply {
                    stats,
                    out: Vec::new(),
                };
                let disposition = process_frames(&payloads, service, worker, &mut reply);
                payloads.clear();
                if let Some(wire) = &oversized {
                    reply.send(&wire_error_response(wire));
                }
                conn.stream.write_all(&reply.out)?;
                // The frames before an oversized header count like any
                // other: a SHUTDOWN acknowledged among them still stops
                // the engine.
                if let Disposition::Shutdown = disposition {
                    // An undeliverable wake has nobody to report to here;
                    // the next connection attempt stops the acceptor.
                    let _ = state.request_shutdown();
                    return Ok(());
                }
                if oversized.is_some() {
                    return Ok(()); // framing is lost: close
                }
            }
        }
        match conn.stream.read(chunk) {
            Ok(0) => return Ok(()),
            Ok(n) => {
                let bytes = chunk.get(..n).unwrap_or_default();
                match &mut conn.phase {
                    Phase::Preamble(head) => head.extend_from_slice(bytes),
                    Phase::Frames(frames) => frames.extend(bytes),
                }
            }
            Err(e) if would_block(&e) => {
                if state.is_shutdown() {
                    return Ok(());
                }
                conn = state.trade_if_waiting(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Answers every frame of one flush in order, coalescing each contiguous
/// run of QUERY frames into one [`Service::query_run`] call.
fn process_frames<S: Service>(
    payloads: &[Vec<u8>],
    service: &S,
    worker: &mut S::Worker,
    reply: &mut Reply<'_>,
) -> Disposition {
    reply.stats.frames.add(payloads.len() as u64);
    let mut iter = payloads.iter().peekable();
    while let Some(payload) = iter.next() {
        match decode_request(payload) {
            Ok(Request::Query(first)) => {
                let mut run = vec![first];
                while let Some(Ok(Request::Query(pairs))) = iter.peek().map(|p| decode_request(p)) {
                    run.push(pairs);
                    iter.next();
                }
                service.query_run(worker, &run, reply);
            }
            Ok(Request::Path(u, v)) => service.path(worker, u, v, reply),
            Ok(Request::Matrix { sources, targets }) => {
                service.matrix(worker, &sources, &targets, reply);
            }
            Ok(Request::Info) => reply.send(&service.info(worker)),
            Ok(Request::Reload) => {
                let answer = service.reload(worker);
                if let Response::Ok { .. } = answer {
                    reply.stats.reloads.add(1);
                }
                reply.send(&answer);
            }
            Ok(Request::Shutdown) => {
                reply.send(&service.shutdown());
                return Disposition::Shutdown;
            }
            Err(wire) => reply.send(&wire_error_response(&wire)),
        }
    }
    Disposition::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::DEFAULT_MAX_FRAME;
    use std::thread::{self, ThreadId};

    /// What one parallel call made from inside a service method saw.
    #[derive(Debug)]
    struct Seen {
        worker: ThreadId,
        threads: usize,
        map_ran_on: Vec<ThreadId>,
    }

    /// Answers zeros and records, for every QUERY run and MATRIX frame,
    /// where a 64-item `rayon::map` made from inside the method ran.
    #[derive(Debug, Default)]
    struct Probe {
        seen: Mutex<Vec<Seen>>,
    }

    impl Probe {
        fn record(&self) {
            let seen = Seen {
                worker: thread::current().id(),
                threads: rayon::current_num_threads(),
                map_ran_on: rayon::map(64, |_| thread::current().id()),
            };
            self.seen.lock().expect("no probe panics").push(seen);
        }
    }

    impl Service for Probe {
        const NAME: &'static str = "probe";
        type Worker = ();
        type Stats = ();

        fn worker(&self) {}

        fn query_run(&self, _: &mut (), run: &[Vec<(VertexId, VertexId)>], reply: &mut Reply<'_>) {
            self.record();
            for pairs in run {
                reply.send(&Response::Distances(vec![0; pairs.len()]));
            }
        }

        fn path(&self, _: &mut (), _: VertexId, _: VertexId, reply: &mut Reply<'_>) {
            reply.send(&Response::Path(Vec::new()));
        }

        fn matrix(
            &self,
            _: &mut (),
            sources: &[VertexId],
            targets: &[VertexId],
            reply: &mut Reply<'_>,
        ) {
            self.record();
            reply.send(&Response::Matrix(vec![0; sources.len() * targets.len()]));
        }

        fn info(&self, _: &mut ()) -> Response {
            self.shutdown()
        }

        fn reload(&self, _: &mut ()) -> Response {
            self.shutdown()
        }

        fn shutdown(&self) -> Response {
            Response::Ok { generation: 0 }
        }

        fn http(&self, _: TcpStream, _: &[u8], _: &State) -> std::io::Result<()> {
            Ok(())
        }

        fn stats(&self, _: &Counters) {}
    }

    #[test]
    fn parallel_calls_inside_a_worker_run_inline_on_it() {
        let engine = Engine::new("127.0.0.1:0", Probe::default(), 2, DEFAULT_MAX_FRAME)
            .expect("bind an ephemeral port");
        let spawned = engine.spawn().expect("spawn the engine");
        let handle = spawned.handle().clone();
        let mut client = Client::connect(handle.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("set the client timeout");

        let frames = vec![vec![(0, 1); 8]; 4];
        let answers = client.pipeline(&frames).expect("pipelined QUERY frames");
        assert!(answers.iter().all(|a| a.as_ref() == Ok(&vec![0; 8])));
        let block = client.matrix(&[0, 1, 2], &[3, 4]).expect("MATRIX frame");
        assert_eq!(block, vec![0; 6]);
        drop(client);
        spawned.shutdown().expect("shutdown");

        let seen = handle.service.seen.lock().expect("no probe panics");
        assert!(
            seen.len() >= 2,
            "one QUERY run and one MATRIX frame: {seen:?}"
        );
        for call in seen.iter() {
            assert_eq!(call.threads, 1, "a worker's calls must see one thread");
            assert!(
                call.map_ran_on.iter().all(|&id| id == call.worker),
                "a parallel call left its worker thread: {call:?}"
            );
        }
    }
}
