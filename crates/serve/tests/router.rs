//! End-to-end scatter-gather test harness: a real TCP cluster — three
//! in-process shard servers (each loading one `.chl` shard file) behind
//! a [`Router`] — asserted byte-identical to one unsharded oracle server
//! over the same wire protocol. Covers exact distances over every vertex
//! pair, pipelined frames spanning shards, typed out-of-range and
//! NOT_THIS_SHARD errors, reload fan-out, malformed and oversized frames,
//! and the degradation contract when a backend dies mid-serve: typed
//! SHARD_UNAVAILABLE frames, never a hang or a panic.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use chl_core::flat::FlatIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::attach_parents;
use chl_core::persist::SaveOptions;
use chl_core::pll::sequential_pll;
use chl_graph::generators::{grid_network, GridOptions};
use chl_query::QdolShardMap;
use chl_ranking::degree_ranking;
use chl_serve::protocol::{encode_request, Request, OP_QUERY};
use chl_serve::{
    Client, ClientError, ClusterView, ErrorCode, Router, RouterOptions, ServeOptions, Server,
    SharedIndex, SpawnedRouter, SpawnedServer,
};

/// Builds a small real labeling (6x6 road-like grid, 36 vertices) with
/// path data attached, so the cluster serves PATH frames too; shard files
/// inherit the parents through `restrict_to_shard`.
fn build_index(seed: u64) -> FlatIndex {
    let opts = GridOptions {
        rows: 6,
        cols: 6,
        ..GridOptions::default()
    };
    let graph = grid_network(&opts, seed);
    let ranking = degree_ranking(&graph);
    let flat = sequential_pll(&graph, &ranking).index;
    attach_parents(&graph, flat).expect("corpus graph matches its index")
}

fn temp_path(tag: &str, part: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "chl-serve-router-{}-{:?}-{tag}-{part}.chl",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Three shard servers + the unsharded oracle + a router over all of it.
struct Cluster {
    router: SpawnedRouter,
    backends: Vec<SpawnedServer>,
    oracle: SpawnedServer,
    flat: FlatIndex,
    map: QdolShardMap,
    paths: Vec<PathBuf>,
}

const SHARDS: usize = 3;

fn start_cluster(tag: &str, router_opts: RouterOptions) -> Cluster {
    start_cluster_with(tag, ServeOptions::default(), router_opts)
}

fn start_cluster_with(tag: &str, shard_opts: ServeOptions, router_opts: RouterOptions) -> Cluster {
    let flat = build_index(7);
    let map = QdolShardMap::new(SHARDS, flat.num_vertices());
    let mut paths = Vec::new();
    let mut backends = Vec::new();
    for shard_id in 0..SHARDS {
        let path = temp_path(tag, &format!("shard-{shard_id}"));
        let shard = flat
            .restrict_to_shard(map.spec(shard_id))
            .expect("derive shard");
        shard
            .save_with(&path, &SaveOptions::default())
            .expect("save shard");
        let shared = Arc::new(SharedIndex::open(&path, false).expect("open shard"));
        let server = Server::bind("127.0.0.1:0", shared, shard_opts.clone()).expect("bind shard");
        backends.push(server.spawn().expect("spawn shard server"));
        paths.push(path);
    }

    let oracle_path = temp_path(tag, "oracle");
    flat.save(&oracle_path).expect("save oracle index");
    let shared = Arc::new(SharedIndex::open(&oracle_path, false).expect("open oracle"));
    let oracle = Server::bind("127.0.0.1:0", shared, ServeOptions::default())
        .expect("bind oracle")
        .spawn()
        .expect("spawn oracle");
    paths.push(oracle_path);

    // Hand the addresses over in REVERSE order: discovery must identify each
    // backend's shard over INFO, not trust the argument order.
    let addrs: Vec<String> = backends
        .iter()
        .rev()
        .map(|b| b.handle().addr().to_string())
        .collect();
    let cluster =
        ClusterView::discover(&addrs, Duration::from_secs(10)).expect("cluster discovery");
    let router = Router::bind("127.0.0.1:0", cluster, router_opts)
        .expect("bind router")
        .spawn()
        .expect("spawn router");

    Cluster {
        router,
        backends,
        oracle,
        flat,
        map,
        paths,
    }
}

impl Cluster {
    fn teardown(self) {
        self.router.shutdown().expect("router shutdown");
        for backend in self.backends {
            backend.shutdown().expect("backend shutdown");
        }
        self.oracle.shutdown().expect("oracle shutdown");
        for path in &self.paths {
            std::fs::remove_file(path).ok();
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

#[test]
fn routed_cluster_answers_every_pair_byte_identically_to_the_oracle() {
    let cluster = start_cluster("differential", RouterOptions::default());
    let mut routed = connect(cluster.router.handle().addr());
    let mut oracle = connect(cluster.oracle.handle().addr());
    let n = cluster.flat.num_vertices() as u32;

    // Every ordered pair — including self queries — in one batch per source
    // vertex, so batches routinely span shards and exercise the fan-out +
    // in-order merge path as well as the single-shard forward path.
    for u in 0..n {
        let pairs: Vec<(u32, u32)> = (0..n).map(|v| (u, v)).collect();
        let via_router = routed.query_batch(&pairs).expect("routed batch");
        let via_oracle = oracle.query_batch(&pairs).expect("oracle batch");
        assert_eq!(via_router, via_oracle, "batch for source {u} diverged");
        let in_memory: Vec<u64> = pairs
            .iter()
            .map(|&(a, b)| cluster.flat.query(a, b))
            .collect();
        assert_eq!(via_router, in_memory, "batch for source {u} vs in-memory");
    }

    // Pipelined frames of varying shapes, sent in one write: responses come
    // back in request order from both tiers.
    let frames: Vec<Vec<(u32, u32)>> = (0..8u32)
        .map(|f| {
            (0..=f)
                .map(|i| ((f * 7 + i) % n, (i * 11 + 3) % n))
                .collect()
        })
        .collect();
    let routed_frames = routed.pipeline(&frames).expect("routed pipeline");
    let oracle_frames = oracle.pipeline(&frames).expect("oracle pipeline");
    assert_eq!(routed_frames, oracle_frames);

    // An empty QUERY frame answers an empty DISTANCES frame on both tiers.
    let empty = routed.pipeline(&[vec![]]).expect("empty frame");
    assert_eq!(empty, oracle.pipeline(&[vec![]]).expect("empty frame"));

    // Out-of-range ids: the router answers locally, but byte-identically to
    // the oracle — same code, same offending-id detail, same message text.
    for &(u, v) in &[(n + 7, 0), (0, n + 7), (n + 1, n + 1), (n, n)] {
        let from_router = routed.query(u, v).expect_err("routed out-of-range");
        let from_oracle = oracle.query(u, v).expect_err("oracle out-of-range");
        match (&from_router, &from_oracle) {
            (
                ClientError::Server {
                    code: rc,
                    detail: rd,
                    message: rm,
                },
                ClientError::Server {
                    code: oc,
                    detail: od,
                    message: om,
                },
            ) => {
                assert_eq!(rc, oc);
                assert_eq!(*rc, ErrorCode::VertexOutOfRange);
                assert_eq!(rd, od);
                assert_eq!(rm, om, "error text diverged for ({u}, {v})");
            }
            other => panic!("expected server errors, got {other:?}"),
        }
    }

    // Aggregated INFO looks like one unsharded server: global vertex count,
    // no shard identity, generation 0.
    let info = routed.info().expect("routed info");
    assert_eq!(info.num_vertices, cluster.flat.num_vertices() as u64);
    assert_eq!(info.shard, None);
    assert_eq!(info.generation, 0);
    // Shard files duplicate labels across the QDOL overlap, so the summed
    // cluster footprint is at least the oracle's label count.
    assert!(info.total_labels >= cluster.flat.total_labels() as u64);

    drop(routed);
    drop(oracle);
    let stats = cluster.router.handle().stats();
    assert!(
        stats.forwarded_frames > 0,
        "no whole-frame forwards: {stats:?}"
    );
    assert!(stats.fanout_frames > 0, "no fan-out merges: {stats:?}");
    assert_eq!(stats.shard_errors, 0);
    cluster.teardown();
}

#[test]
fn routed_path_and_matrix_frames_differential_against_the_oracle() {
    let cluster = start_cluster("paths", RouterOptions::default());
    let mut routed = connect(cluster.router.handle().addr());
    let mut oracle = connect(cluster.oracle.handle().addr());
    let n = cluster.flat.num_vertices() as u32;

    // MATRIX fan-out: blocks that span shards are split per owning shard
    // and merged back byte-identical to the unsharded server — the whole
    // graph as one block, asymmetric shapes, duplicate ids, single cells.
    let shapes: Vec<(Vec<u32>, Vec<u32>)> = vec![
        ((0..n).collect(), (0..n).collect()),
        (vec![0, n - 1, 17], vec![3, 3, 9, 22]),
        (vec![5], (0..n).step_by(3).collect()),
        (vec![n - 1], vec![0]),
    ];
    for (sources, targets) in &shapes {
        let via_router = routed.matrix(sources, targets).expect("routed matrix");
        let via_oracle = oracle.matrix(sources, targets).expect("oracle matrix");
        assert_eq!(via_router, via_oracle, "{sources:?} x {targets:?}");
        assert_eq!(via_router, cluster.flat.matrix(sources, targets));
    }
    // Empty sides flow as data on both tiers.
    assert_eq!(routed.matrix(&[], &[3]).expect("empty"), Vec::<u64>::new());
    assert_eq!(oracle.matrix(&[], &[3]).expect("empty"), Vec::<u64>::new());

    // PATH over every ordered pair. A PATH frame forwards whole to the
    // shard owning the endpoint pair; QDOL guarantees the endpoints but
    // not every interior chain vertex, so the contract is byte-identical
    // walks whenever the shard can answer, and the typed NOT_THIS_SHARD
    // error (naming a genuinely foreign vertex, with the shard prefix)
    // when the chain escapes — never a wrong or partial walk.
    let mut answered = 0usize;
    let mut refused = 0usize;
    for u in 0..n {
        for v in 0..n {
            let expect = oracle.path(u, v).expect("oracle path");
            match routed.path(u, v) {
                Ok(walk) => {
                    assert_eq!(walk, expect, "({u}, {v})");
                    answered += 1;
                }
                Err(ClientError::Server {
                    code,
                    detail,
                    message,
                }) => {
                    assert_eq!(code, ErrorCode::NotThisShard, "({u}, {v}): {message}");
                    let shard = cluster.map.shard_for_query(u, v);
                    assert!(
                        !cluster.map.spec(shard).owns(detail as u32),
                        "({u}, {v}): shard {shard} refused over vertex {detail} it owns"
                    );
                    assert!(
                        message.starts_with(&format!("shard {shard}:")),
                        "({u}, {v}): relayed error must name the shard: {message}"
                    );
                    refused += 1;
                }
                other => panic!("({u}, {v}): expected walk or typed refusal, got {other:?}"),
            }
        }
    }
    // The diagonal always answers ([u] needs no chain), so most pairs do.
    assert!(
        answered >= n as usize,
        "only {answered} pairs answered, {refused} refused"
    );

    // Out-of-range ids answer byte-identical typed errors on both tiers,
    // for PATH and MATRIX alike.
    let routed_err = routed.path(n + 2, 0).expect_err("routed oor path");
    let oracle_err = oracle.path(n + 2, 0).expect_err("oracle oor path");
    match (&routed_err, &oracle_err) {
        (
            ClientError::Server {
                code: rc,
                detail: rd,
                message: rm,
            },
            ClientError::Server {
                code: oc,
                detail: od,
                message: om,
            },
        ) => {
            assert_eq!((rc, rd, rm), (oc, od, om));
            assert_eq!(*rc, ErrorCode::VertexOutOfRange);
        }
        other => panic!("expected server errors, got {other:?}"),
    }
    let routed_err = routed
        .matrix(&[0], &[n + 4])
        .expect_err("routed oor matrix");
    let oracle_err = oracle
        .matrix(&[0], &[n + 4])
        .expect_err("oracle oor matrix");
    match (&routed_err, &oracle_err) {
        (
            ClientError::Server {
                code: rc,
                detail: rd,
                message: rm,
            },
            ClientError::Server {
                code: oc,
                detail: od,
                message: om,
            },
        ) => {
            assert_eq!((rc, rd, rm), (oc, od, om));
            assert_eq!(*rc, ErrorCode::VertexOutOfRange);
        }
        other => panic!("expected server errors, got {other:?}"),
    }

    drop(routed);
    drop(oracle);
    let stats = cluster.router.handle().stats();
    assert!(stats.fanout_frames > 0, "no matrix fan-out: {stats:?}");
    // Relayed typed refusals count in shard_errors (same bookkeeping as
    // QUERY); nothing else may have failed.
    assert_eq!(stats.shard_errors, refused as u64, "only refusals relayed");
    cluster.teardown();
}

#[test]
fn a_shard_served_directly_answers_not_this_shard_for_foreign_vertices() {
    let cluster = start_cluster("foreign", RouterOptions::default());
    let spec0 = cluster.map.spec(0);
    let n = cluster.flat.num_vertices() as u32;
    let owned = *spec0.owned.first().expect("shard 0 owns vertices");
    let foreign = (0..n)
        .find(|&v| !spec0.owns(v))
        .expect("shard 0 does not own everything");

    let mut direct = connect(cluster.backends[0].handle().addr());
    // Both endpoints owned: the shard answers the exact global distance.
    let both_owned = spec0.owned.get(1).copied().unwrap_or(owned);
    assert_eq!(
        direct.query(owned, both_owned).expect("owned query"),
        cluster.flat.query(owned, both_owned)
    );
    // A foreign endpoint gets the typed NOT_THIS_SHARD error naming it —
    // never a silently wrong INFINITY.
    match direct.query(owned, foreign) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::NotThisShard);
            assert_eq!(detail, foreign as u64);
        }
        other => panic!("expected NOT_THIS_SHARD, got {other:?}"),
    }
    // The HTTP adapter on the same port refuses the same pair typed (421,
    // body = the NOT_THIS_SHARD frame's message) instead of reading the
    // foreign vertex's empty label run as "200 unreachable".
    let http_get = |target: &str| -> String {
        let mut stream = std::net::TcpStream::connect(cluster.backends[0].handle().addr()).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        reply
    };
    let reply = http_get(&format!("/distance?s={owned}&t={foreign}"));
    assert!(
        reply.starts_with("HTTP/1.1 421 Misdirected Request"),
        "{reply}"
    );
    assert!(
        reply.ends_with(&format!(
            "vertex id {foreign} is owned by another shard (this is shard 0 of {SHARDS})\n"
        )),
        "{reply}"
    );
    let reply = http_get(&format!("/distance?s={owned}&t={both_owned}"));
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(
        reply.ends_with(&format!("\n{}\n", cluster.flat.query(owned, both_owned))),
        "{reply}"
    );
    // Range still outranks ownership: an out-of-range id on a shard answers
    // the same error a whole-index server would.
    match direct.query(owned, n + 5) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::VertexOutOfRange);
            assert_eq!(detail, (n + 5) as u64);
        }
        other => panic!("expected out-of-range, got {other:?}"),
    }
    // The shard's own INFO carries its cluster identity.
    let info = direct.info().expect("shard info");
    assert_eq!(info.shard, Some((0, SHARDS as u32)));
    assert_eq!(info.num_vertices, cluster.flat.num_vertices() as u64);

    // The router never surfaces NOT_THIS_SHARD: the same foreign pair routed
    // through the front door answers the exact distance.
    let mut routed = connect(cluster.router.handle().addr());
    assert_eq!(
        routed.query(owned, foreign).expect("routed query"),
        cluster.flat.query(owned, foreign)
    );

    drop(direct);
    drop(routed);
    cluster.teardown();
}

#[test]
fn reload_through_the_router_fans_out_to_every_backend() {
    let cluster = start_cluster("reload", RouterOptions::default());
    let mut routed = connect(cluster.router.handle().addr());

    let generation = routed.reload().expect("routed reload");
    assert_eq!(generation, 1, "every backend should be at generation 1");
    let info = routed.info().expect("info after reload");
    assert_eq!(info.generation, 1);

    // Distances are unchanged after the hot swap.
    let n = cluster.flat.num_vertices() as u32;
    for (u, v) in [(0, n - 1), (3, 17), (5, 5)] {
        assert_eq!(
            routed.query(u, v).expect("query after reload"),
            cluster.flat.query(u, v)
        );
    }

    drop(routed);
    let stats = cluster.router.handle().stats();
    assert_eq!(stats.reloads, 1);
    cluster.teardown();
}

#[test]
fn malformed_and_oversized_frames_get_typed_answers_from_the_router() {
    let opts = RouterOptions {
        max_frame: 64,
        ..RouterOptions::default()
    };
    let cluster = start_cluster("malformed", opts);
    let mut client = connect(cluster.router.handle().addr());

    // Unknown opcode.
    client.send_raw(&[1, 0, 0, 0, 0x7f]).expect("send");
    match client.read_response().expect("response") {
        chl_serve::Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("expected error frame, got {other:?}"),
    }

    // QUERY whose count disagrees with its payload length.
    let mut bad = Vec::new();
    bad.extend_from_slice(&13u32.to_le_bytes());
    bad.push(OP_QUERY);
    bad.extend_from_slice(&2u32.to_le_bytes());
    bad.extend_from_slice(&[0u8; 8]);
    client.send_raw(&bad).expect("send");
    match client.read_response().expect("response") {
        chl_serve::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // The same connection still routes exact answers afterwards.
    assert_eq!(client.query(0, 5).expect("query"), cluster.flat.query(0, 5));

    // Oversized: typed error, then the router closes the stream.
    client.send_raw(&1_000_000u32.to_le_bytes()).expect("send");
    match client.read_response().expect("error before close") {
        chl_serve::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected error frame, got {other:?}"),
    }
    match client.read_response() {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected EOF after oversized frame, got {other:?}"),
    }

    // A fresh connection is unaffected.
    let mut fresh = connect(cluster.router.handle().addr());
    assert!(fresh.query(0, 1).is_ok());
    drop(fresh);
    drop(client);
    cluster.teardown();
}

#[test]
fn a_dead_backend_degrades_to_typed_shard_unavailable_not_a_hang() {
    let cluster = start_cluster("shard-loss", RouterOptions::default());
    let n = cluster.flat.num_vertices() as u32;

    // Pick one pair per shard so we can assert both the dead and the
    // surviving placements.
    let pair_on = |shard: usize| -> (u32, u32) {
        for u in 0..n {
            for v in 0..n {
                if cluster.map.shard_for_query(u, v) == shard {
                    return (u, v);
                }
            }
        }
        panic!("no pair placed on shard {shard}");
    };
    let dead_shard = 2;
    let (du, dv) = pair_on(dead_shard);
    let survivors: Vec<(usize, (u32, u32))> = (0..SHARDS)
        .filter(|&s| s != dead_shard)
        .map(|s| (s, pair_on(s)))
        .collect();

    // Warm the router's backend connections, then kill shard 2's process.
    let mut routed = connect(cluster.router.handle().addr());
    assert_eq!(
        routed.query(du, dv).expect("query before loss"),
        cluster.flat.query(du, dv)
    );
    let mut backends = cluster.backends;
    let victim = backends.remove(dead_shard);
    victim.shutdown().expect("kill shard server");

    // The dead placement answers a typed SHARD_UNAVAILABLE frame naming the
    // shard — on the warm connection (whose pooled backend conn just died)
    // and on a fresh one alike.
    let mut fresh = connect(cluster.router.handle().addr());
    for client in [&mut routed, &mut fresh] {
        match client.query(du, dv) {
            Err(ClientError::Server { code, detail, .. }) => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                assert_eq!(detail, dead_shard as u64);
            }
            other => panic!("expected SHARD_UNAVAILABLE, got {other:?}"),
        }
        // Surviving shards keep answering exact distances on the very same
        // connection: the failure is per-frame, not per-connection.
        for &(_, (su, sv)) in &survivors {
            assert_eq!(
                client.query(su, sv).expect("survivor query"),
                cluster.flat.query(su, sv)
            );
        }
        // A MATRIX block with any cell on the dead shard fails whole — a
        // partial matrix has no wire representation — while a block
        // confined to a survivor still answers exactly.
        match client.matrix(&[du], &[dv]) {
            Err(ClientError::Server { code, detail, .. }) => {
                assert_eq!(code, ErrorCode::ShardUnavailable);
                assert_eq!(detail, dead_shard as u64);
            }
            other => panic!("expected SHARD_UNAVAILABLE matrix, got {other:?}"),
        }
        let (su, sv) = survivors.first().expect("a survivor").1;
        assert_eq!(
            client.matrix(&[su], &[sv]).expect("survivor matrix"),
            cluster.flat.matrix(&[su], &[sv])
        );
    }

    drop(routed);
    drop(fresh);
    let stats = cluster.router.handle().stats();
    assert!(stats.shard_errors > 0, "no shard errors counted: {stats:?}");

    // Teardown without the victim (already shut down).
    cluster.router.shutdown().expect("router shutdown");
    for backend in backends {
        backend.shutdown().expect("backend shutdown");
    }
    cluster.oracle.shutdown().expect("oracle shutdown");
    for path in &cluster.paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn shutdown_beside_an_oversized_frame_stops_the_router_and_no_backend() {
    let opts = RouterOptions {
        max_frame: 64,
        ..RouterOptions::default()
    };
    let cluster = start_cluster("shutdown-oversized", opts);
    let mut client = connect(cluster.router.handle().addr());

    // One flush: a SHUTDOWN frame, then a header declaring far over the cap.
    let mut wire = Vec::new();
    encode_request(&Request::Shutdown, &mut wire);
    wire.extend_from_slice(&1_000_000u32.to_le_bytes());
    client.send_raw(&wire).expect("send");
    match client.read_response().expect("shutdown ack") {
        chl_serve::Response::Ok { generation } => assert_eq!(generation, 0),
        other => panic!("expected OK, got {other:?}"),
    }
    match client.read_response().expect("error frame before close") {
        chl_serve::Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The acknowledged SHUTDOWN is honoured: the router exits on its own...
    cluster.router.join().expect("router exits");
    // ...and every backend keeps serving.
    for (shard_id, backend) in cluster.backends.iter().enumerate() {
        assert!(!backend.handle().is_shutdown());
        let info = connect(backend.handle().addr()).info().expect("info");
        assert_eq!(info.shard, Some((shard_id as u32, SHARDS as u32)));
    }

    for backend in cluster.backends {
        backend.shutdown().expect("backend shutdown");
    }
    cluster.oracle.shutdown().expect("oracle shutdown");
    for path in &cluster.paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn single_worker_shards_answer_every_router_worker() {
    // Two router workers each keep their own connection to every shard, but
    // each shard server has ONE worker: the second router worker's batch is
    // answered only if the first one's idle connection is handed back.
    let shard_opts = ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    };
    let router_opts = RouterOptions {
        threads: 2,
        backend_timeout: Duration::from_secs(1),
        ..RouterOptions::default()
    };
    let cluster = start_cluster_with("narrow-shards", shard_opts, router_opts);
    let mut oracle = connect(cluster.oracle.handle().addr());
    let n = cluster.flat.num_vertices() as u32;
    let frames: Vec<Vec<(u32, u32)>> = (0..n).map(|u| (0..n).map(|v| (u, v)).collect()).collect();
    let expected = oracle.pipeline(&frames).expect("oracle pipeline");

    // Both clients stay connected, so each pins one router worker — and
    // through it one connection per shard.
    let mut first = connect(cluster.router.handle().addr());
    assert_eq!(first.pipeline(&frames).expect("first client"), expected);
    let mut second = connect(cluster.router.handle().addr());
    assert_eq!(second.pipeline(&frames).expect("second client"), expected);
    assert_eq!(first.pipeline(&frames).expect("first client"), expected);

    drop((first, second, oracle));
    assert_eq!(cluster.router.handle().stats().shard_errors, 0);
    cluster.teardown();
}
