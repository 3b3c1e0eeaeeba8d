//! End-to-end test of the build → save → load → serve lifecycle through the
//! `chl` binary itself: the distances served from a `.chl` file written by
//! `chl build` must be byte-identical to what the in-memory
//! [`HubLabelIndex`] built from the same graph answers, and corrupted files
//! must fail with an error message, not a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
use chl_core::flat::FlatIndex;
use chl_graph::io::read_binary;

fn chl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_chl"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chl-cli-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn chl");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn chl");
    assert!(
        !out.status.success(),
        "command unexpectedly succeeded\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stderr).unwrap()
}

fn gen_and_build(dir: &Path) -> (PathBuf, PathBuf) {
    let graph_path = dir.join("g.bin");
    let index_path = dir.join("g.chl");
    run_ok(chl().args([
        "gen",
        "grid",
        "--rows",
        "8",
        "--cols",
        "8",
        "--seed",
        "7",
        "--out",
        graph_path.to_str().unwrap(),
    ]));
    run_ok(chl().args([
        "build",
        graph_path.to_str().unwrap(),
        "--out",
        index_path.to_str().unwrap(),
        "--algorithm",
        "hybrid",
        "--ranking",
        "degree",
        "--threads",
        "2",
    ]));
    (graph_path, index_path)
}

#[test]
fn saved_index_serves_identically_to_in_memory_build() {
    let dir = temp_dir("roundtrip");
    let (graph_path, index_path) = gen_and_build(&dir);

    // Rebuild in-process from the same graph file with the same settings.
    let graph = read_binary(std::fs::File::open(&graph_path).unwrap()).unwrap();
    let in_memory = ChlBuilder::new(&graph)
        .ranking(RankingStrategy::Degree)
        .algorithm(Algorithm::Hybrid)
        .threads(2)
        .build()
        .unwrap()
        .index;

    // The CLI-written file must answer every pair exactly like the
    // in-memory index.
    let served = FlatIndex::load(&index_path).unwrap();
    let n = graph.num_vertices() as u32;
    assert_eq!(served.num_vertices(), graph.num_vertices());
    for u in 0..n {
        for v in 0..n {
            assert_eq!(served.query(u, v), in_memory.query(u, v), "({u}, {v})");
        }
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_query_output_matches_library_answers() {
    let dir = temp_dir("query");
    let (graph_path, index_path) = gen_and_build(&dir);

    let graph = read_binary(std::fs::File::open(&graph_path).unwrap()).unwrap();
    let index = ChlBuilder::new(&graph)
        .ranking(RankingStrategy::Degree)
        .algorithm(Algorithm::Hybrid)
        .threads(2)
        .build()
        .unwrap()
        .index;

    let stdout = run_ok(chl().args(["query", index_path.to_str().unwrap(), "0", "63", "5", "5"]));
    assert!(
        stdout.contains(&format!("dist(0, 63) = {}", index.query(0, 63))),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("dist(5, 5) = 0"), "stdout: {stdout}");

    // Batch mode over a workload file prints latency statistics, including
    // the thread count serving the batch.
    let workload_path = dir.join("pairs.txt");
    std::fs::write(&workload_path, "# two pairs\n0 63\n10 20\n").unwrap();
    let stdout = run_ok(chl().args([
        "query",
        index_path.to_str().unwrap(),
        "--workload",
        workload_path.to_str().unwrap(),
        "--threads",
        "2",
    ]));
    for needle in [
        "queries:",
        "threads:        2",
        "throughput:",
        "latency p99:",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_workload_fails_typed_with_the_offending_line() {
    let dir = temp_dir("stale-workload");
    let (_graph, index_path) = gen_and_build(&dir); // 8x8 grid: 64 vertices

    // A workload written for a larger graph: vertex 64 does not exist in
    // this index. The CLI must exit non-zero with an error naming the line,
    // not panic in the query kernel.
    let workload_path = dir.join("stale.txt");
    std::fs::write(&workload_path, "# written for a bigger graph\n0 63\n64 2\n").unwrap();
    let stderr = run_err(chl().args([
        "query",
        index_path.to_str().unwrap(),
        "--workload",
        workload_path.to_str().unwrap(),
    ]));
    assert!(stderr.contains("line 3"), "stderr: {stderr}");
    assert!(stderr.contains("vertex id 64"), "stderr: {stderr}");
    assert!(stderr.contains("out of range"), "stderr: {stderr}");
    assert!(stderr.contains("64 vertices"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // Explicit out-of-range pairs fail the same way (no line numbers).
    let stderr = run_err(chl().args(["query", index_path.to_str().unwrap(), "64", "0"]));
    assert!(stderr.contains("out of range"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // --threads is a batch-mode flag; explicit pairs reject it instead of
    // silently ignoring it.
    let stderr = run_err(chl().args([
        "query",
        index_path.to_str().unwrap(),
        "0",
        "1",
        "--threads",
        "2",
    ]));
    assert!(stderr.contains("batch modes"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_answers_are_identical_across_thread_counts() {
    let dir = temp_dir("thread-determinism");
    let (_graph, index_path) = gen_and_build(&dir);

    let workload_path = dir.join("pairs.txt");
    let mut lines = String::from("# determinism workload\n");
    for i in 0u32..200 {
        lines.push_str(&format!("{} {}\n", (i * 7) % 64, (i * 13) % 64));
    }
    std::fs::write(&workload_path, lines).unwrap();

    // `reachable` and `distance sum` aggregate every per-query answer, so
    // matching them across thread counts means the batch produced the same
    // distances in the same order.
    let fingerprint = |threads: &str| -> (String, String) {
        let stdout = run_ok(chl().args([
            "query",
            index_path.to_str().unwrap(),
            "--workload",
            workload_path.to_str().unwrap(),
            "--threads",
            threads,
        ]));
        let grab = |prefix: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} in: {stdout}"))
                .to_string()
        };
        (grab("reachable:"), grab("distance sum:"))
    };
    let single = fingerprint("1");
    for threads in ["2", "4", "8"] {
        assert_eq!(fingerprint(threads), single, "threads={threads}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn inspect_reports_header_and_histogram() {
    let dir = temp_dir("inspect");
    let (_graph, index_path) = gen_and_build(&dir);

    // Default inspect is header-only: instant on multi-GB files, so it must
    // neither claim full integrity nor walk the payload for a histogram.
    let stdout = run_ok(chl().args(["inspect", index_path.to_str().unwrap()]));
    for needle in [
        "format version:   3",
        "vertices:         64",
        "section checksums:",
        "serving footprint:",
        "integrity:        header only",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
    assert!(
        !stdout.contains("label-size histogram"),
        "default inspect must not build the histogram: {stdout}"
    );

    // --histogram opts into the full load: integrity check + histogram.
    let stdout = run_ok(chl().args(["inspect", index_path.to_str().unwrap(), "--histogram"]));
    for needle in [
        "format version:   3",
        "integrity:        ok",
        "max label size:",
        "label-size histogram",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mmap_serving_matches_copy_load_end_to_end() {
    let dir = temp_dir("mmap");
    let (_graph, index_path) = gen_and_build(&dir);

    // Explicit pairs through the zero-copy backend print the same distances
    // the copy-loading backend prints.
    let copy = run_ok(chl().args(["query", index_path.to_str().unwrap(), "0", "63", "5", "5"]));
    let mapped = run_ok(chl().args([
        "query",
        index_path.to_str().unwrap(),
        "--mmap",
        "0",
        "63",
        "5",
        "5",
    ]));
    assert_eq!(copy, mapped, "backends must print identical distances");

    // Batch mode: the aggregate answer fingerprint must match between
    // backends, and the statistics must name the backend in play.
    let workload_path = dir.join("pairs.txt");
    let mut lines = String::from("# mmap parity workload\n");
    for i in 0u32..300 {
        lines.push_str(&format!("{} {}\n", (i * 11) % 64, (i * 17) % 64));
    }
    std::fs::write(&workload_path, lines).unwrap();
    let fingerprint = |extra: &[&str]| {
        let mut args = vec!["query", index_path.to_str().unwrap()];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--workload", workload_path.to_str().unwrap()]);
        let stdout = run_ok(chl().args(&args));
        let grab = |prefix: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} in: {stdout}"))
                .to_string()
        };
        (grab("reachable:"), grab("distance sum:"), grab("backend:"))
    };
    let (reach_owned, sum_owned, backend_owned) = fingerprint(&[]);
    let (reach_mmap, sum_mmap, backend_mmap) = fingerprint(&["--mmap"]);
    assert_eq!(reach_owned, reach_mmap);
    assert_eq!(sum_owned, sum_mmap);
    assert!(backend_owned.contains("owned"), "{backend_owned}");
    assert!(backend_mmap.contains("mmap"), "{backend_mmap}");

    // A corrupted file must fail --mmap with the typed checksum error on
    // stderr, never a panic.
    let mut bytes = std::fs::read(&index_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&index_path, &bytes).unwrap();
    let stderr = run_err(chl().args(["query", index_path.to_str().unwrap(), "--mmap", "0", "1"]));
    assert!(stderr.contains("checksum"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_files_still_serve_through_the_copying_path() {
    use chl_core::persist;
    use chl_graph::generators::{grid_network, GridOptions};

    let dir = temp_dir("v1-compat");
    let graph = grid_network(
        &GridOptions {
            rows: 6,
            cols: 6,
            ..GridOptions::default()
        },
        7,
    );
    let index = ChlBuilder::new(&graph)
        .ranking(RankingStrategy::Degree)
        .algorithm(Algorithm::Hybrid)
        .build()
        .unwrap()
        .index;
    let flat = FlatIndex::from_index(&index);

    // A file written by the legacy v1 writer...
    let v1_path = dir.join("legacy.chl");
    std::fs::write(&v1_path, persist::to_bytes_v1(&flat)).unwrap();

    // ...is inspectable and serves correct distances via the copying path.
    let stdout = run_ok(chl().args(["inspect", v1_path.to_str().unwrap()]));
    assert!(stdout.contains("format version:   1"), "stdout: {stdout}");
    assert!(stdout.contains("payload checksum:"), "stdout: {stdout}");
    let stdout = run_ok(chl().args(["query", v1_path.to_str().unwrap(), "0", "35"]));
    assert!(
        stdout.contains(&format!("dist(0, 35) = {}", index.query(0, 35))),
        "stdout: {stdout}"
    );

    // ...but cannot be served zero-copy: typed refusal, not a panic.
    let stderr = run_err(chl().args(["query", v1_path.to_str().unwrap(), "--mmap", "0", "35"]));
    assert!(stderr.contains("v1"), "stderr: {stderr}");
    assert!(stderr.contains("zero-copy"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compressed_build_inspects_and_serves_identically_to_flat() {
    let dir = temp_dir("compressed");
    let (graph_path, flat_path) = gen_and_build(&dir);

    // Build the same graph again with --compress: the CLI must report the
    // encoded vs decoded entry bytes and the compression ratio.
    let compressed_path = dir.join("g-compressed.chl");
    let stdout = run_ok(chl().args([
        "build",
        graph_path.to_str().unwrap(),
        "--out",
        compressed_path.to_str().unwrap(),
        "--algorithm",
        "hybrid",
        "--ranking",
        "degree",
        "--threads",
        "2",
        "--compress",
    ]));
    assert!(stdout.contains("compressed entries:"), "stdout: {stdout}");
    assert!(stdout.contains("bytes encoded vs"), "stdout: {stdout}");

    // The encoded size is the entries section alone: parent records after
    // it (--paths) must not count toward it.
    let encoded = |stdout: &str| {
        let (_, tail) = stdout.split_once("compressed entries: ").unwrap();
        tail.split_once(" bytes encoded").unwrap().0.to_string()
    };
    let paths_path = dir.join("g-compressed-paths.chl");
    let paths_stdout = run_ok(chl().args([
        "build",
        graph_path.to_str().unwrap(),
        "--out",
        paths_path.to_str().unwrap(),
        "--algorithm",
        "hybrid",
        "--ranking",
        "degree",
        "--threads",
        "2",
        "--compress",
        "--paths",
    ]));
    assert_eq!(encoded(&paths_stdout), encoded(&stdout), "{paths_stdout}");

    // Delta+varint entries must actually be smaller than the flat records.
    let flat_len = std::fs::metadata(&flat_path).unwrap().len();
    let compressed_len = std::fs::metadata(&compressed_path).unwrap().len();
    assert!(
        compressed_len < flat_len,
        "compressed file ({compressed_len} bytes) not smaller than flat ({flat_len} bytes)"
    );

    // inspect names the encoding and reports the ratio from the header
    // alone; --histogram distinguishes resident from on-disk bytes.
    let stdout = run_ok(chl().args(["inspect", compressed_path.to_str().unwrap()]));
    for needle in [
        "entries encoding: delta+varint compressed",
        "bytes decoded",
        "x)",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
    let stdout = run_ok(chl().args(["inspect", compressed_path.to_str().unwrap(), "--histogram"]));
    for needle in [
        "integrity:        ok",
        "memory footprint:",
        "on-disk storage:",
        "delta+varint compressed; --mmap serves this",
        "label-size histogram",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }

    // Explicit pairs: all four serving paths (flat/compressed × copy/mmap)
    // must print byte-identical distances.
    let pairs = ["0", "63", "5", "5", "17", "42"];
    let mut outputs = Vec::new();
    for path in [&flat_path, &compressed_path.clone()] {
        for mmap in [false, true] {
            let mut args = vec!["query", path.to_str().unwrap()];
            if mmap {
                args.push("--mmap");
            }
            args.extend_from_slice(&pairs);
            outputs.push(run_ok(chl().args(&args)));
        }
    }
    for output in &outputs[1..] {
        assert_eq!(output, &outputs[0], "serving paths disagree");
    }

    // Batch mode: the aggregate fingerprint must match the flat build on
    // both backends, and the backend line must say the decode is streamed
    // under --mmap.
    let workload_path = dir.join("pairs.txt");
    let mut lines = String::from("# compressed parity workload\n");
    for i in 0u32..300 {
        lines.push_str(&format!("{} {}\n", (i * 11) % 64, (i * 17) % 64));
    }
    std::fs::write(&workload_path, lines).unwrap();
    let fingerprint = |path: &Path, extra: &[&str]| {
        let mut args = vec!["query", path.to_str().unwrap()];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--workload", workload_path.to_str().unwrap()]);
        let stdout = run_ok(chl().args(&args));
        let grab = |prefix: &str| {
            stdout
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("missing {prefix} in: {stdout}"))
                .to_string()
        };
        (grab("reachable:"), grab("distance sum:"), grab("backend:"))
    };
    let (reach_flat, sum_flat, _) = fingerprint(&flat_path, &[]);
    let (reach_owned, sum_owned, _) = fingerprint(&compressed_path, &[]);
    let (reach_mmap, sum_mmap, backend_mmap) = fingerprint(&compressed_path, &["--mmap"]);
    assert_eq!(reach_owned, reach_flat);
    assert_eq!(sum_owned, sum_flat);
    assert_eq!(reach_mmap, reach_flat);
    assert_eq!(sum_mmap, sum_flat);
    assert!(backend_mmap.contains("streamed"), "{backend_mmap}");

    // A flipped byte in the compressed entries section must fail the load
    // with the typed checksum error on both backends — never a panic.
    let mut bytes = std::fs::read(&compressed_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&compressed_path, &bytes).unwrap();
    for extra in [&[][..], &["--mmap"][..]] {
        let mut args = vec!["query", compressed_path.to_str().unwrap()];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["0", "1"]);
        let stderr = run_err(chl().args(&args));
        assert!(stderr.contains("checksum"), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_and_bench_serve_run_the_full_lifecycle_through_the_binary() {
    use std::io::BufRead;

    let dir = temp_dir("serve");
    let (_graph, index_path) = gen_and_build(&dir);

    // Spawn `chl serve` on an ephemeral port with piped stdout and scrape
    // the address from the flushed "listening on ADDR" line.
    let mut serve = chl()
        .args([
            "serve",
            index_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn chl serve");
    let mut serve_stdout = std::io::BufReader::new(serve.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            serve_stdout
                .read_line(&mut line)
                .expect("read serve stdout"),
            0,
            "chl serve exited before printing its address"
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            break addr.to_string();
        }
    };

    // Bench it: 4 concurrent connections, then shut the server down from
    // the same invocation.
    let stdout = run_ok(chl().args([
        "bench-serve",
        &addr,
        "--connections",
        "4",
        "--duration-ms",
        "300",
        "--shutdown",
    ]));

    // The summary parses: nonzero throughput, zero errors, p50 <= p999.
    let field = |prefix: &str| -> String {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("missing {prefix} in: {stdout}"))
            .trim()
            .to_string()
    };
    assert_eq!(field("connections:"), "4");
    assert_eq!(field("errors:"), "0");
    let throughput: f64 = field("throughput:")
        .split_whitespace()
        .next()
        .expect("throughput value")
        .parse()
        .expect("numeric throughput");
    assert!(throughput > 0.0, "stdout: {stdout}");
    let micros = |prefix: &str| -> f64 {
        field(prefix)
            .split_whitespace()
            .next()
            .expect("latency value")
            .parse()
            .expect("numeric latency")
    };
    assert!(
        micros("latency p50:") <= micros("latency p999:"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("server shut down"), "stdout: {stdout}");

    // The SHUTDOWN frame lands: the serve child exits cleanly on its own
    // and reports what it served.
    let status = serve.wait().expect("wait for chl serve");
    assert!(status.success(), "chl serve exited with {status}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut serve_stdout, &mut rest).expect("drain serve stdout");
    assert!(rest.contains("served "), "serve stdout: {rest}");
    assert!(rest.contains("queries"), "serve stdout: {rest}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Spawns a `chl` subcommand with piped stdout and scrapes the flushed
/// `listening on ADDR` line, returning the child + its reader + the address.
fn spawn_listener(
    args: &[&str],
) -> (
    std::process::Child,
    std::io::BufReader<std::process::ChildStdout>,
    String,
) {
    use std::io::BufRead;
    let mut child = chl()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn chl listener");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            stdout.read_line(&mut line).expect("read listener stdout"),
            0,
            "chl {args:?} exited before printing its address"
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            break addr.to_string();
        }
    };
    (child, stdout, addr)
}

#[test]
fn sharded_build_serves_through_real_processes_behind_the_router() {
    use chl_serve::{Client, ClientError, ErrorCode};
    use std::time::Duration;

    let dir = temp_dir("sharded");
    let (graph_path, index_path) = gen_and_build(&dir); // 8x8 grid: 64 vertices

    // Rebuild with --shards 3: the unsharded index plus three QDOL shard
    // files appear, and the report names the layout.
    let stdout = run_ok(chl().args([
        "build",
        graph_path.to_str().unwrap(),
        "--out",
        index_path.to_str().unwrap(),
        "--algorithm",
        "hybrid",
        "--ranking",
        "degree",
        "--threads",
        "2",
        "--shards",
        "3",
    ]));
    assert!(stdout.contains("sharding: 3 shards"), "stdout: {stdout}");
    let shard_paths: Vec<PathBuf> = (0..3)
        .map(|i| dir.join(format!("g.shard-{i}-of-3.chl")))
        .collect();
    for path in &shard_paths {
        assert!(path.exists(), "missing shard file {}", path.display());
    }

    // inspect knows what a shard file is, without loading the payload.
    let stdout = run_ok(chl().args(["inspect", shard_paths[0].to_str().unwrap()]));
    for needle in [
        "format version:   3",
        "shard:            0 of 3",
        "owned positions:",
        "vertices:         64",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in: {stdout}");
    }
    // --histogram on a shard counts owned vertices only.
    let stdout = run_ok(chl().args(["inspect", shard_paths[0].to_str().unwrap(), "--histogram"]));
    assert!(
        stdout.contains("label-size histogram (owned vertices per bucket)"),
        "stdout: {stdout}"
    );

    // Serving a shard file without --shard (or vice versa) is a typed
    // refusal: a shard behind no router answers NOT_THIS_SHARD errors, so
    // the operator must opt in explicitly.
    let stderr = run_err(chl().args([
        "serve",
        shard_paths[0].to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]));
    assert!(stderr.contains("pass --shard"), "stderr: {stderr}");
    let stderr = run_err(chl().args([
        "serve",
        index_path.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--shard",
    ]));
    assert!(stderr.contains("not a shard"), "stderr: {stderr}");

    // Three real shard processes...
    let mut backends = Vec::new();
    for path in &shard_paths {
        backends.push(spawn_listener(&[
            "serve",
            path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--shard",
        ]));
    }
    // ...behind one real router process...
    let backend_addrs: Vec<String> = backends.iter().map(|(_, _, addr)| addr.clone()).collect();
    let mut route_args = vec!["route"];
    route_args.extend(backend_addrs.iter().map(String::as_str));
    route_args.extend_from_slice(&["--addr", "127.0.0.1:0", "--threads", "2"]);
    let (mut route_child, mut route_stdout, route_addr) = spawn_listener(&route_args);
    // ...and the unsharded index served as the oracle.
    let (mut oracle_child, mut oracle_stdout, oracle_addr) = spawn_listener(&[
        "serve",
        index_path.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "2",
    ]);

    let connect = |addr: &str| -> Client {
        let mut client =
            Client::connect(addr.parse::<std::net::SocketAddr>().expect("addr")).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        client
    };
    let mut routed = connect(&route_addr);
    let mut oracle = connect(&oracle_addr);

    // Every ordered pair, batched per source: the routed cluster answers
    // byte-identically to the unsharded oracle.
    for u in 0..64u32 {
        let pairs: Vec<(u32, u32)> = (0..64u32).map(|v| (u, v)).collect();
        assert_eq!(
            routed.query_batch(&pairs).expect("routed batch"),
            oracle.query_batch(&pairs).expect("oracle batch"),
            "batch for source {u} diverged"
        );
    }
    // Out-of-range and self queries degrade identically, message included.
    for &(u, v) in &[(64u32, 0u32), (0, 99), (64, 64), (5, 5)] {
        match (routed.query(u, v), oracle.query(u, v)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "({u}, {v})"),
            (
                Err(ClientError::Server {
                    code: rc,
                    detail: rd,
                    message: rm,
                }),
                Err(ClientError::Server {
                    code: oc,
                    detail: od,
                    message: om,
                }),
            ) => {
                assert_eq!(rc, oc, "({u}, {v})");
                assert_eq!(rc, ErrorCode::VertexOutOfRange);
                assert_eq!(rd, od, "({u}, {v})");
                assert_eq!(rm, om, "({u}, {v})");
            }
            other => panic!("router and oracle disagree for ({u}, {v}): {other:?}"),
        }
    }
    drop(routed);
    drop(oracle);

    // bench-serve cannot tell the router from a single server: a clean run
    // with zero error frames, then its --shutdown stops the router process.
    let stdout = run_ok(chl().args([
        "bench-serve",
        &route_addr,
        "--connections",
        "2",
        "--duration-ms",
        "200",
        "--shutdown",
    ]));
    let errors_line = stdout
        .lines()
        .find(|l| l.starts_with("errors:"))
        .unwrap_or_else(|| panic!("missing errors line in: {stdout}"));
    assert_eq!(errors_line.split_whitespace().nth(1), Some("0"));

    let status = route_child.wait().expect("wait for chl route");
    assert!(status.success(), "chl route exited with {status}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut route_stdout, &mut rest).expect("drain route stdout");
    assert!(rest.contains("routed "), "route stdout: {rest}");

    // The backends outlive their router; stop each over its own socket.
    for (mut child, _stdout, addr) in backends {
        connect(&addr).shutdown_server().expect("backend shutdown");
        let status = child.wait().expect("wait for shard server");
        assert!(status.success(), "shard server exited with {status}");
    }
    connect(&oracle_addr)
        .shutdown_server()
        .expect("oracle shutdown");
    assert!(oracle_child.wait().expect("wait oracle").success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut oracle_stdout, &mut rest).expect("drain oracle stdout");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_and_missing_inputs_fail_cleanly() {
    let dir = temp_dir("corrupt");
    let (_graph, index_path) = gen_and_build(&dir);

    // Flip one payload byte: query must fail with the checksum error on
    // stderr and a nonzero exit code — not a panic.
    let mut bytes = std::fs::read(&index_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&index_path, &bytes).unwrap();
    let stderr = run_err(chl().args(["query", index_path.to_str().unwrap(), "0", "1"]));
    assert!(stderr.contains("checksum"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    let stderr =
        run_err(chl().args(["query", dir.join("missing.chl").to_str().unwrap(), "0", "1"]));
    assert!(stderr.contains("error"), "stderr: {stderr}");

    let stderr = run_err(chl().args(["frobnicate"]));
    assert!(stderr.contains("unknown command"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}
