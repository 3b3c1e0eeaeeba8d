//! Graceful-reload tests: a live server hot-swaps its index file while
//! concurrent clients hammer it. The contract under test, for both the
//! owned and mmapped backends:
//!
//! * zero connection errors during the swap — no client ever sees a reset,
//!   a wedged read, or a malformed frame;
//! * every answer is valid under the old index or the new one (each batch
//!   runs against one consistent generation snapshot);
//! * once the reload is acknowledged and in-flight work drains, fresh
//!   queries answer the new index;
//! * a corrupt replacement file is rejected with a typed `ReloadFailed`
//!   error and the old index keeps serving, untouched.
//!
//! Replacement files are written sibling-then-rename — the atomicity
//! contract `MmapIndex` documents — so the mapped generation keeps its old
//! inode while the path points at the new bytes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use chl_core::flat::FlatIndex;
use chl_core::pll::sequential_pll;
use chl_graph::generators::{grid_network, GridOptions};
use chl_ranking::degree_ranking;
use chl_serve::protocol::ErrorCode;
use chl_serve::{Client, ClientError, ServeOptions, Server, SharedIndex, SpawnedServer};

/// Builds a 6x6 grid labeling; different seeds give different edge weights
/// (and therefore different distances) over the same vertex set.
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

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "chl-serve-reload-{}-{:?}-{tag}.chl",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Atomically replaces `path` with `bytes`: sibling temp file + rename, the
/// replacement discipline the mmap backend's docs require.
fn replace_file(path: &std::path::Path, bytes: &[u8]) {
    let tmp = path.with_extension("chl.tmp");
    std::fs::write(&tmp, bytes).expect("write replacement");
    std::fs::rename(&tmp, path).expect("rename replacement into place");
}

fn start_server(tag: &str, flat: &FlatIndex, mmap: bool) -> (SpawnedServer, std::path::PathBuf) {
    let path = temp_path(tag);
    flat.save(&path).expect("save index");
    let shared = Arc::new(SharedIndex::open(&path, mmap).expect("open index"));
    let server = Server::bind("127.0.0.1:0", shared, ServeOptions::default())
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server");
    (server, path)
}

fn connect(server: &SpawnedServer) -> Client {
    let mut client = Client::connect(server.handle().addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    client
}

#[test]
fn hot_swap_under_concurrent_load_never_drops_a_connection() {
    for mmap in [false, true] {
        let old = build_index(11);
        let new = build_index(9203);
        let n = old.num_vertices() as u32;
        assert_eq!(new.num_vertices() as u32, n);
        // The swap must be observable: at least one pair answers differently.
        let probe: Vec<(u32, u32)> = (0..n).map(|u| (u, (u * 7 + 3) % n)).collect();
        assert!(
            probe
                .iter()
                .any(|&(u, v)| old.query(u, v) != new.query(u, v)),
            "seeds produced identical distance maps; the test would be vacuous"
        );

        let (server, path) = start_server(&format!("swap-m{}", mmap as u8), &old, mmap);
        let stop = Arc::new(AtomicBool::new(false));

        let worker_errors: Vec<String> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..3usize {
                let stop = Arc::clone(&stop);
                let server = &server;
                let (old, new, probe) = (&old, &new, &probe);
                handles.push(scope.spawn(move || -> Result<u64, String> {
                    let mut client = connect(server);
                    let mut answered = 0u64;
                    // Stagger the rotation per worker.
                    let mut at = worker;
                    // ORDERING: plain stop flag; no data is published through it.
                    while !stop.load(Ordering::Relaxed) {
                        let window: Vec<(u32, u32)> =
                            probe.iter().copied().cycle().skip(at).take(5).collect();
                        let served = client
                            .query_batch(&window)
                            .map_err(|e| format!("worker {worker}: {e}"))?;
                        for (&(u, v), &d) in window.iter().zip(&served) {
                            let (a, b) = (old.query(u, v), new.query(u, v));
                            if d != a && d != b {
                                return Err(format!(
                                    "worker {worker}: ({u}, {v}) answered {d}, \
                                     valid under neither old ({a}) nor new ({b})"
                                ));
                            }
                        }
                        answered += served.len() as u64;
                        at = (at + 1) % probe.len();
                    }
                    Ok(answered)
                }));
            }

            // Let the workers get going, then swap the file and reload —
            // twice, so the second swap also exercises a non-zero starting
            // generation.
            let mut control = connect(&server);
            let mut errors = Vec::new();
            for round in 1..=2u64 {
                std::thread::sleep(Duration::from_millis(30));
                replace_file(&path, &new.to_bytes());
                match control.reload() {
                    Ok(generation) => {
                        if generation != round {
                            errors.push(format!(
                                "reload round {round} answered generation {generation}"
                            ));
                        }
                    }
                    Err(e) => errors.push(format!("reload round {round} failed: {e}")),
                }
            }
            std::thread::sleep(Duration::from_millis(30));
            stop.store(true, Ordering::Relaxed);

            for handle in handles {
                match handle.join() {
                    Ok(Ok(answered)) => {
                        if answered == 0 {
                            errors.push("a worker never got a query through".into());
                        }
                    }
                    Ok(Err(e)) => errors.push(e),
                    Err(_) => errors.push("a worker thread panicked".into()),
                }
            }
            errors
        });
        assert!(worker_errors.is_empty(), "mmap={mmap}: {worker_errors:?}");

        // The drained server now answers the new index exactly.
        let mut client = connect(&server);
        for &(u, v) in &probe {
            assert_eq!(client.query(u, v).expect("query"), new.query(u, v));
        }
        let info = client.info().expect("info");
        assert_eq!(info.generation, 2);
        drop(client);

        let stats = server.shutdown().expect("shutdown");
        assert_eq!(stats.reloads, 2, "mmap={mmap}: {stats:?}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn corrupt_replacement_is_rejected_and_the_old_index_keeps_serving() {
    for mmap in [false, true] {
        let old = build_index(11);
        let n = old.num_vertices() as u32;
        let (server, path) = start_server(&format!("corrupt-m{}", mmap as u8), &old, mmap);
        let mut client = connect(&server);

        let baseline: Vec<u64> = (0..n)
            .map(|u| client.query(u, n - 1 - u).expect("query"))
            .collect();

        // Truncated garbage lands at the index path (atomically, so even the
        // attempt respects the rename contract).
        replace_file(&path, b"CHL file? not even close");
        match client.reload() {
            Err(ClientError::Server { code, message, .. }) => {
                assert_eq!(code, ErrorCode::ReloadFailed);
                assert!(!message.is_empty(), "reload error lost its loader message");
            }
            other => panic!("mmap={mmap}: expected ReloadFailed, got {other:?}"),
        }

        // Same generation, same answers: the swap never happened.
        assert_eq!(client.info().expect("info").generation, 0);
        for (u, expect) in baseline.iter().enumerate() {
            let u = u as u32;
            assert_eq!(client.query(u, n - 1 - u).expect("query"), *expect);
        }

        // A single-byte flip deep in an otherwise well-formed file is
        // equally rejected (validation is full, not header-only).
        let mut bytes = old.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        replace_file(&path, &bytes);
        assert!(matches!(
            client.reload(),
            Err(ClientError::Server {
                code: ErrorCode::ReloadFailed,
                ..
            })
        ));
        assert_eq!(client.info().expect("info").generation, 0);

        // Restoring a clean file makes the next reload succeed.
        replace_file(&path, &old.to_bytes());
        assert_eq!(client.reload().expect("clean reload"), 1);
        assert_eq!(client.query(0, n - 1).expect("query"), old.query(0, n - 1));

        drop(client);
        let stats = server.shutdown().expect("shutdown");
        assert_eq!(stats.reloads, 1, "only the clean swap counts: {stats:?}");
        std::fs::remove_file(&path).ok();
    }
}
