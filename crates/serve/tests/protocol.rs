//! Deterministic protocol test harness: an in-process server on an
//! ephemeral `127.0.0.1:0` port, driven by the minimal [`Client`], asserting
//! that everything served over the socket is byte-identical to what the
//! in-memory [`FlatIndex`] answers — and that every way a client can
//! misbehave (malformed frames, oversized frames, stale vertex ids, abrupt
//! disconnects) gets a typed answer or a clean connection close, never a
//! wedged or crashed server.

use std::sync::Arc;
use std::time::Duration;

use chl_core::flat::FlatIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::{attach_parents, PathOracle};
use chl_core::pll::sequential_pll;
use chl_graph::generators::{grid_network, GridOptions};
use chl_graph::types::INFINITY;
use chl_ranking::degree_ranking;
use chl_serve::protocol::{
    encode_request, ErrorCode, Request, Response, OP_MATRIX, OP_PATH, OP_QUERY,
};
use chl_serve::{Client, ClientError, ServeOptions, Server, SharedIndex, SpawnedServer};

/// Builds a small real labeling (6x6 road-like grid, 36 vertices).
fn build_index(seed: u64) -> FlatIndex {
    let opts = GridOptions {
        rows: 6,
        cols: 6,
        ..GridOptions::default()
    };
    let graph = grid_network(&opts, seed);
    let ranking = degree_ranking(&graph);
    sequential_pll(&graph, &ranking).index
}

/// Same corpus with per-entry parent records, so PATH frames can answer.
fn build_paths_index(seed: u64) -> FlatIndex {
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

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "chl-serve-protocol-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Starts an in-process server over a fresh index file; returns the spawned
/// server, the in-memory reference index and the file path.
fn start_server(tag: &str, opts: ServeOptions) -> (SpawnedServer, FlatIndex, std::path::PathBuf) {
    let flat = build_index(7);
    let path = temp_path(tag);
    flat.save(&path).expect("save index");
    let shared = Arc::new(SharedIndex::open(&path, false).expect("open index"));
    let server = Server::bind("127.0.0.1:0", shared, opts).expect("bind ephemeral port");
    let spawned = server.spawn().expect("spawn server");
    (spawned, flat, path)
}

/// Like [`start_server`] but the saved file carries the path section.
fn start_paths_server(
    tag: &str,
    opts: ServeOptions,
) -> (SpawnedServer, FlatIndex, std::path::PathBuf) {
    let flat = build_paths_index(7);
    let path = temp_path(tag);
    flat.save(&path).expect("save index");
    let shared = Arc::new(SharedIndex::open(&path, false).expect("open index"));
    let server = Server::bind("127.0.0.1:0", shared, opts).expect("bind ephemeral port");
    let spawned = server.spawn().expect("spawn server");
    (spawned, flat, path)
}

fn connect(server: &SpawnedServer) -> Client {
    let mut client = Client::connect(server.handle().addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

#[test]
fn single_query_matches_the_in_memory_index() {
    let (server, flat, path) = start_server("single", ServeOptions::default());
    let mut client = connect(&server);
    let n = flat.num_vertices() as u32;
    for (u, v) in [(0, n - 1), (3, 17), (5, 5), (n - 1, 0)] {
        assert_eq!(client.query(u, v).expect("query"), flat.query(u, v));
    }
    // Self-query and a disconnected-style pair still flow as data.
    assert_eq!(client.query(0, 0).expect("query"), 0);
    drop(client);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.error_frames, 0);
    std::fs::remove_file(path).ok();
}

#[test]
fn pipelined_frames_are_coalesced_into_one_batch_and_stay_byte_identical() {
    let (server, flat, path) = start_server("pipeline", ServeOptions::default());
    let mut client = connect(&server);
    let n = flat.num_vertices() as u32;

    // Six frames of varying size, sent in ONE write.
    let frames: Vec<Vec<(u32, u32)>> = (0..6u32)
        .map(|f| {
            (0..=f)
                .map(|i| ((f * 5 + i) % n, (i * 11 + 3) % n))
                .collect()
        })
        .collect();
    let responses = client.pipeline(&frames).expect("pipeline");
    assert_eq!(responses.len(), frames.len());
    for (frame, response) in frames.iter().zip(&responses) {
        let expected: Vec<u64> = frame.iter().map(|&(u, v)| flat.query(u, v)).collect();
        assert_eq!(response.as_ref().expect("distances"), &expected);
    }

    drop(client);
    let stats = server.shutdown().expect("shutdown");
    // The headline property of the serving tier: pipelined QUERY frames
    // were answered by fewer oracle batches than frames (coalescing), and
    // at least one batch covered several frames.
    assert_eq!(
        stats.queries,
        frames.iter().map(Vec::len).sum::<usize>() as u64
    );
    assert!(
        stats.max_coalesced >= 2,
        "no coalescing observed: {stats:?}"
    );
    assert!(
        stats.batch_calls < frames.len() as u64 + 1,
        "one oracle call per frame means batching never engaged: {stats:?}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_frames_answer_typed_errors_and_the_connection_survives() {
    let (server, flat, path) = start_server("malformed", ServeOptions::default());
    let mut client = connect(&server);

    // Unknown opcode.
    client.send_raw(&[1, 0, 0, 0, 0x7f]).expect("send");
    match client.read_response().expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("expected error frame, got {other:?}"),
    }

    // QUERY whose count disagrees with its payload length.
    let mut bad = Vec::new();
    bad.extend_from_slice(&13u32.to_le_bytes()); // 1 opcode + 4 count + 8 = one pair
    bad.push(OP_QUERY);
    bad.extend_from_slice(&2u32.to_le_bytes()); // ...but claims two pairs
    bad.extend_from_slice(&[0u8; 8]);
    client.send_raw(&bad).expect("send");
    match client.read_response().expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Empty payload (no opcode byte).
    client.send_raw(&0u32.to_le_bytes()).expect("send");
    match client.read_response().expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // The same connection still serves correct answers afterwards.
    assert_eq!(client.query(0, 5).expect("query"), flat.query(0, 5));

    drop(client);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.error_frames, 3);
    std::fs::remove_file(path).ok();
}

#[test]
fn oversized_frames_answer_a_typed_error_then_close() {
    let opts = ServeOptions {
        max_frame: 64,
        ..ServeOptions::default()
    };
    let (server, _flat, path) = start_server("oversized", opts);
    let mut client = connect(&server);

    // Declare a payload far over the cap; the body need not even arrive.
    client.send_raw(&1_000_000u32.to_le_bytes()).expect("send");
    match client.read_response().expect("error frame before close") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The server closed the stream: the next read reports EOF.
    match client.read_response() {
        Err(ClientError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
        }
        other => panic!("expected EOF after oversized frame, got {other:?}"),
    }

    // A fresh connection is unaffected.
    let mut fresh = connect(&server);
    assert!(fresh.query(0, 1).is_ok());

    drop(fresh);
    server.shutdown().expect("shutdown");
    std::fs::remove_file(path).ok();
}

#[test]
fn out_of_range_ids_fail_their_frame_only_and_never_drop_the_connection() {
    let (server, flat, path) = start_server("range", ServeOptions::default());
    let mut client = connect(&server);
    let n = flat.num_vertices() as u32;

    // Three pipelined frames: valid, out-of-range, valid. The middle one
    // answers a typed error naming the offending id; its neighbors answer
    // exact distances.
    let frames = vec![vec![(0, 1), (2, 3)], vec![(1, 2), (n + 7, 0)], vec![(4, 5)]];
    let responses = client.pipeline(&frames).expect("pipeline");
    assert_eq!(
        responses
            .first()
            .expect("frame 0")
            .as_ref()
            .expect("distances"),
        &vec![flat.query(0, 1), flat.query(2, 3)]
    );
    match responses.get(1).expect("frame 1") {
        Err((code, detail)) => {
            assert_eq!(*code, ErrorCode::VertexOutOfRange);
            assert_eq!(*detail, (n + 7) as u64);
        }
        other => panic!("expected out-of-range error, got {other:?}"),
    }
    assert_eq!(
        responses
            .get(2)
            .expect("frame 2")
            .as_ref()
            .expect("distances"),
        &vec![flat.query(4, 5)]
    );

    // Self-query on an out-of-range id is equally an error frame (the
    // oracle would answer INFINITY; the protocol is stricter and names it).
    match client.query(n + 1, n + 1) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::VertexOutOfRange);
            assert_eq!(detail, (n + 1) as u64);
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // In-memory reference for the same stale id: INFINITY, not a panic.
    assert_eq!(flat.query(n + 1, n + 1), INFINITY);

    // Connection still alive.
    assert_eq!(client.query(0, 2).expect("query"), flat.query(0, 2));

    drop(client);
    server.shutdown().expect("shutdown");
    std::fs::remove_file(path).ok();
}

#[test]
fn abrupt_client_disconnects_leave_the_server_serving() {
    let (server, flat, path) = start_server("abrupt", ServeOptions::default());

    // Client 1: connects, sends half a frame, vanishes.
    let mut half = connect(&server);
    let mut wire = Vec::new();
    encode_request(&Request::Query(vec![(0, 1), (2, 3)]), &mut wire);
    half.send_raw(&wire[..wire.len() / 2]).expect("send half");
    drop(half); // TCP close with a dangling partial frame

    // Client 2: connects, sends magic + nothing, half-closes.
    let mut silent = connect(&server);
    silent.shutdown_write().expect("half-close");
    drop(silent);

    // Client 3 still gets exact answers from the same server.
    let mut fresh = connect(&server);
    for (u, v) in [(0, 9), (17, 2), (35, 0)] {
        assert_eq!(fresh.query(u, v).expect("query"), flat.query(u, v));
    }

    drop(fresh);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.connections, 3);
    std::fs::remove_file(path).ok();
}

#[test]
fn info_reports_the_served_index_and_http_answers_curl() {
    let (server, flat, path) = start_server("http", ServeOptions::default());

    let mut client = connect(&server);
    let info = client.info().expect("info");
    assert_eq!(info.num_vertices, flat.num_vertices() as u64);
    assert_eq!(info.total_labels, flat.total_labels() as u64);
    assert_eq!(info.generation, 0);
    drop(client);

    // Plain HTTP/1.1 on the same port (what curl would send).
    use std::io::{Read, Write};
    let addr = server.handle().addr();
    let http_get = |target: &str| -> (String, String) {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("request");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("response");
        let (head, body) = text.split_once("\r\n\r\n").expect("header block");
        (head.to_string(), body.to_string())
    };

    let (head, body) = http_get("/distance?s=0&t=9");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(
        body.trim().parse::<u64>().expect("distance"),
        flat.query(0, 9)
    );

    let (head, body) = http_get("/info");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        body.contains(&format!("vertices {}", flat.num_vertices())),
        "{body}"
    );

    let (head, body) = http_get("/distance?s=0&t=99999");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("out of range"), "{body}");

    let (head, _) = http_get("/distance?s=0");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    let (head, _) = http_get("/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    let (head, body) = http_get("/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");

    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.http_requests, 6);
    std::fs::remove_file(path).ok();
}

#[test]
fn path_and_matrix_frames_match_the_in_memory_index() {
    let (server, flat, path) = start_paths_server("paths", ServeOptions::default());
    let mut client = connect(&server);
    let n = flat.num_vertices() as u32;

    // PATH: every served walk is byte-identical to the in-memory oracle's,
    // including the one-vertex diagonal walk.
    for (u, v) in [(0, n - 1), (3, 17), (5, 5), (n - 1, 0), (12, 12)] {
        let expect = flat.path(u, v).expect("answers").unwrap_or_default();
        assert_eq!(client.path(u, v).expect("path"), expect, "({u}, {v})");
    }

    // MATRIX: served blocks — including duplicate ids and asymmetric
    // shapes — match the pivoted in-memory kernel exactly.
    for (sources, targets) in [
        (vec![0u32, 1, 2], vec![n - 1, n - 2]),
        (vec![5, 5, 5], vec![5, 6]),
        (vec![0], (0..n).collect::<Vec<u32>>()),
    ] {
        assert_eq!(
            client.matrix(&sources, &targets).expect("matrix"),
            flat.matrix(&sources, &targets)
        );
    }

    drop(client);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.error_frames, 0);
    // MATRIX cells count as queries; 5 PATH frames count one each.
    assert_eq!(stats.queries, 5 + 6 + 6 + n as u64);
    std::fs::remove_file(path).ok();
}

#[test]
fn path_without_path_section_answers_the_typed_error_and_survives() {
    // The plain server's file has no path section: PATH frames must answer
    // ErrorCode::NoPathData — not close, not guess — and MATRIX (which
    // needs no parents) keeps working on the same connection.
    let (server, flat, path) = start_server("nopaths", ServeOptions::default());
    let mut client = connect(&server);
    match client.path(0, 5) {
        Err(ClientError::Server { code, message, .. }) => {
            assert_eq!(code, ErrorCode::NoPathData);
            assert!(message.contains("no path data"), "{message}");
        }
        other => panic!("expected NoPathData, got {other:?}"),
    }
    assert_eq!(
        client.matrix(&[0, 1], &[2, 3]).expect("matrix"),
        flat.matrix(&[0, 1], &[2, 3])
    );
    assert_eq!(client.query(0, 5).expect("query"), flat.query(0, 5));
    drop(client);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.error_frames, 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_and_out_of_range_path_matrix_frames_fail_typed() {
    let (server, flat, path) = start_paths_server("pm-malformed", ServeOptions::default());
    let mut client = connect(&server);
    let n = flat.num_vertices() as u32;

    // PATH frame with a truncated second endpoint.
    let mut bad = Vec::new();
    bad.extend_from_slice(&7u32.to_le_bytes());
    bad.push(OP_PATH);
    bad.extend_from_slice(&0u32.to_le_bytes());
    bad.extend_from_slice(&[9, 0]); // two bytes of v
    client.send_raw(&bad).expect("send");
    match client.read_response().expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // MATRIX frame whose counts disagree with the payload length.
    let mut bad = Vec::new();
    bad.extend_from_slice(&17u32.to_le_bytes()); // 1 + 8 + 8 = one id per side
    bad.push(OP_MATRIX);
    bad.extend_from_slice(&2u32.to_le_bytes()); // ...but claims two sources
    bad.extend_from_slice(&1u32.to_le_bytes());
    bad.extend_from_slice(&[0u8; 8]);
    client.send_raw(&bad).expect("send");
    match client.read_response().expect("response") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }

    // Out-of-range ids answer VertexOutOfRange naming the id, for both ops.
    match client.path(n + 3, 0) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::VertexOutOfRange);
            assert_eq!(detail, (n + 3) as u64);
        }
        other => panic!("expected out-of-range, got {other:?}"),
    }
    match client.matrix(&[0, 1], &[2, n + 9]) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::VertexOutOfRange);
            assert_eq!(detail, (n + 9) as u64);
        }
        other => panic!("expected out-of-range, got {other:?}"),
    }

    // Same connection, still exact.
    assert_eq!(
        client.path(0, n - 1).expect("path"),
        flat.path(0, n - 1).expect("answers").unwrap_or_default()
    );
    drop(client);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.error_frames, 4);
    std::fs::remove_file(path).ok();
}

#[test]
fn oversized_path_and_matrix_responses_fail_typed_without_closing() {
    // Response-side framing is never lost: a PATH/MATRIX *answer* that
    // would exceed max_frame fails as a typed Oversized error and the
    // connection keeps serving (unlike an oversized *request*, which
    // closes after the error because request framing is gone).
    let opts = ServeOptions {
        max_frame: 32,
        ..ServeOptions::default()
    };
    let (server, flat, path) = start_paths_server("pm-oversized", opts);
    let mut client = connect(&server);
    let n = flat.num_vertices() as u32;

    // The corner-to-corner grid walk needs 1 + 4 + 4*11 = 49 > 32 bytes.
    let long_walk = flat.path(0, n - 1).expect("answers").expect("connected");
    assert!(
        1 + 4 + 4 * long_walk.len() > 32,
        "corpus walk is long enough"
    );
    match client.path(0, n - 1) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::Oversized);
            assert_eq!(detail, long_walk.len() as u64);
        }
        other => panic!("expected oversized, got {other:?}"),
    }

    // A 2x4 block answers 1 + 4 + 8*8 = 69 > 32 bytes; its request (33
    // bytes > 32) would be refused first, so probe with 1x4 = 25-byte
    // request whose 37-byte answer is the oversized side.
    match client.matrix(&[0], &[1, 2, 3, 4]) {
        Err(ClientError::Server { code, detail, .. }) => {
            assert_eq!(code, ErrorCode::Oversized);
            assert_eq!(detail, 4);
        }
        other => panic!("expected oversized, got {other:?}"),
    }

    // Both failures left the connection serving: short answers still flow.
    assert_eq!(client.path(0, 0).expect("path"), vec![0]);
    assert_eq!(
        client.matrix(&[0], &[1]).expect("matrix"),
        flat.matrix(&[0], &[1])
    );
    drop(client);
    server.shutdown().expect("shutdown");
    std::fs::remove_file(path).ok();
}

#[test]
fn protocol_shutdown_frame_stops_the_server_gracefully() {
    let (server, flat, path) = start_server("shutdown", ServeOptions::default());
    let mut client = connect(&server);
    assert_eq!(client.query(1, 2).expect("query"), flat.query(1, 2));
    client.shutdown_server().expect("shutdown ack");
    // run() exits on its own — no handle signal involved.
    let stats = server.join().expect("server exits");
    assert!(stats.queries >= 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn shutdown_acknowledged_beside_an_oversized_frame_still_stops_the_server() {
    let opts = ServeOptions {
        max_frame: 64,
        ..ServeOptions::default()
    };
    let (server, _flat, path) = start_server("shutdown-oversized", opts);
    let mut client = connect(&server);

    // One flush: a SHUTDOWN frame, then a header declaring far over the cap.
    let mut wire = Vec::new();
    encode_request(&Request::Shutdown, &mut wire);
    wire.extend_from_slice(&1_000_000u32.to_le_bytes());
    client.send_raw(&wire).expect("send");
    match client.read_response().expect("shutdown ack") {
        Response::Ok { .. } => {}
        other => panic!("expected OK, got {other:?}"),
    }
    match client.read_response().expect("error frame before close") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The acknowledged SHUTDOWN is honoured: run() exits on its own.
    let stats = server.join().expect("server exits");
    assert_eq!(stats.error_frames, 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn a_fresh_connection_is_answered_without_waiting_out_an_accept_poll() {
    let (server, flat, path) = start_server("fresh-rtt", ServeOptions::default());
    let addr = server.handle().addr();
    let mut rtts: Vec<Duration> = (0..41)
        .map(|_| {
            let started = std::time::Instant::now();
            let mut client = Client::connect(addr).expect("connect");
            assert_eq!(client.query(0, 9).expect("query"), flat.query(0, 9));
            started.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "connect + one query has median {median:?} (all: {rtts:?})"
    );
    let stats = server.shutdown().expect("shutdown");
    // The shutdown wake connection is not a served connection.
    assert_eq!(stats.connections, 41);
    std::fs::remove_file(path).ok();
}

#[test]
fn an_idle_server_bound_to_the_unspecified_address_shuts_down_promptly() {
    let flat = build_index(7);
    let path = temp_path("wildcard");
    flat.save(&path).expect("save index");
    let shared = Arc::new(SharedIndex::open(&path, false).expect("open index"));
    let server = Server::bind("0.0.0.0:0", shared, ServeOptions::default())
        .expect("bind wildcard")
        .spawn()
        .expect("spawn server");
    assert!(server.handle().addr().ip().is_unspecified());

    // No client ever connects: only the self-connect can end the accept.
    let started = std::time::Instant::now();
    let stats = server.shutdown().expect("shutdown");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "idle shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.connections, 0);
    std::fs::remove_file(path).ok();
}

#[test]
fn an_idle_connection_does_not_pin_the_only_worker() {
    let opts = ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    };
    let (server, flat, path) = start_server("idle-handback", opts);

    // The first client holds the single worker (answered, then silent).
    let mut idle = connect(&server);
    assert_eq!(idle.query(0, 1).expect("query"), flat.query(0, 1));

    // A second client is still answered, within a second.
    let started = std::time::Instant::now();
    let mut second = connect(&server);
    assert_eq!(second.query(3, 17).expect("query"), flat.query(3, 17));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "second client waited {:?}",
        started.elapsed()
    );
    // The parked connection was handed back, not dropped: it still serves.
    assert_eq!(idle.query(5, 5).expect("query"), flat.query(5, 5));

    drop(idle);
    drop(second);
    let stats = server.shutdown().expect("shutdown");
    assert_eq!(stats.connections, 2);
    std::fs::remove_file(path).ok();
}
