//! `chl paths` / `chl matrix` / `chl topk`: the post-PPSD query verbs.
//!
//! All three serve from a saved `.chl` file through the same two backends
//! as `chl query` (copy-loading [`FlatIndex`], zero-copy [`MmapIndex`]
//! under `--mmap`) and print deterministic, line-oriented output:
//!
//! - `paths` reconstructs exact shortest paths from the index's parent
//!   records (written by `chl build --paths`). An index without the path
//!   section fails with a typed message instead of guessing.
//! - `matrix` evaluates a `sources × targets` distance block through the
//!   hub-side pivoted kernel — byte-identical to per-pair queries, but
//!   gathering each side's labels once.
//! - `topk` ranks targets by distance from one source (`--radius` switches
//!   to the POI-within-radius variant).

use std::time::Instant;

use chl_core::flat::FlatIndex;
use chl_core::mapped::MmapIndex;
use chl_core::oracle::DistanceOracle;
use chl_core::paths::PathOracle;
use chl_graph::types::{Distance, VertexId, INFINITY};
use chl_query::workload::load_workload_checked;

use crate::opts::Opts;
use crate::query::{check_vertex, parse_explicit_pairs};
use crate::CliError;

pub const USAGE: &str = "\
usage: chl paths <index.chl> [u v [u v ...]]
       chl paths <index.chl> --workload <pairs.txt>
       chl paths <index.chl> --mmap ...

Reconstructs exact shortest paths (vertex walks, endpoints included) from
an index built with 'chl build --paths'. Prints one path per pair.

options:
  --workload FILE     text file with one 'u v' pair per line (# comments)
  --mmap              serve zero-copy from the OS page cache";

pub const MATRIX_USAGE: &str = "\
usage: chl matrix <index.chl> --sources 0,1,2 --targets 3,4,5
       chl matrix <index.chl> --sources-file s.txt --targets-file t.txt

Evaluates the sources x targets distance block (row-major, one row per
line, 'inf' for unreachable) through the hub-side pivoted kernel.

options:
  --sources LIST      comma-separated source vertex ids
  --targets LIST      comma-separated target vertex ids
  --sources-file F    one source id per line (# comments)
  --targets-file F    one target id per line (# comments)
  --threads N         worker threads                          [all cores]
  --time              print block timing on stderr
  --mmap              serve zero-copy from the OS page cache";

pub const TOPK_USAGE: &str = "\
usage: chl topk <index.chl> <source> --targets 1,2,3 [--k N]
       chl topk <index.chl> <source> --targets-file t.txt --radius R

Ranks targets by distance from one source, ascending by (distance, id);
unreachable targets never appear. --radius R switches from the k nearest
to every target within distance R (inclusive).

options:
  --targets LIST      comma-separated candidate target ids
  --targets-file F    one target id per line (# comments)
  --k N               how many nearest targets to keep             [10]
  --radius R          within-radius mode (mutually exclusive with --k)
  --mmap              serve zero-copy from the OS page cache";

pub fn run(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["workload"], &["mmap"])?;
    let index_path = opts.positional(0, "index file argument")?.to_string();
    let backend = Backend::open(&index_path, opts.switch("mmap"))?;
    let n = backend.oracle().num_vertices();
    if !backend.paths().has_path_data() {
        return Err(format!(
            "index {index_path} carries no path data (rebuild with 'chl build --paths')"
        )
        .into());
    }

    let explicit = parse_explicit_pairs(&opts.positionals()[1..])?;
    let pairs: Vec<(VertexId, VertexId)> = match (opts.value("workload"), explicit.is_empty()) {
        (Some(_), false) => return Err("give either explicit pairs or --workload, not both".into()),
        (Some(path), true) => {
            load_workload_checked(path, n)
                .map_err(|e| format!("cannot load workload {path}: {e}"))?
                .pairs
        }
        (None, false) => explicit,
        (None, true) => return Err("nothing to reconstruct: give 'u v' pairs or --workload".into()),
    };

    for &(u, v) in &pairs {
        check_vertex(u, n)?;
        check_vertex(v, n)?;
        match backend.paths().path(u, v) {
            Ok(Some(walk)) => {
                let d = backend.oracle().distance(u, v);
                let rendered: Vec<String> = walk.iter().map(|x| x.to_string()).collect();
                println!(
                    "path({u}, {v}) = {} ({} hops, dist {d})",
                    rendered.join(" -> "),
                    walk.len().saturating_sub(1)
                );
            }
            Ok(None) => println!("path({u}, {v}) = unreachable"),
            Err(e) => return Err(format!("cannot reconstruct path({u}, {v}): {e}").into()),
        }
    }
    Ok(())
}

pub fn run_matrix(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(
        args,
        &[
            "sources",
            "targets",
            "sources-file",
            "targets-file",
            "threads",
        ],
        &["mmap", "time"],
    )?;
    let index_path = opts.positional(0, "index file argument")?.to_string();
    opts.reject_extra_positionals(1)?;
    let backend = Backend::open(&index_path, opts.switch("mmap"))?;
    let oracle = backend.oracle();
    let n = oracle.num_vertices();

    let sources = id_list(&opts, "sources", n)?;
    let targets = id_list(&opts, "targets", n)?;
    let threads: usize = opts.parsed_or("threads", 0)?;
    if opts.value("threads").is_some() && threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let start = Instant::now();
    let block = rayon::with_threads(threads, || oracle.matrix(&sources, &targets));
    let elapsed = start.elapsed();
    for row in block.chunks(targets.len()) {
        let cells: Vec<String> = row.iter().map(|&d| render_distance(d)).collect();
        println!("{}", cells.join(" "));
    }
    if opts.switch("time") {
        eprintln!(
            "matrix: {}x{} = {} cells in {elapsed:.2?}",
            sources.len(),
            targets.len(),
            block.len()
        );
    }
    Ok(())
}

pub fn run_topk(args: &[String]) -> Result<(), CliError> {
    let opts = Opts::parse(args, &["targets", "targets-file", "k", "radius"], &["mmap"])?;
    let index_path = opts.positional(0, "index file argument")?.to_string();
    let source: VertexId = opts
        .positional(1, "source vertex argument")?
        .parse()
        .map_err(|_| "invalid source vertex id".to_string())?;
    opts.reject_extra_positionals(2)?;
    let backend = Backend::open(&index_path, opts.switch("mmap"))?;
    let oracle = backend.oracle();
    let n = oracle.num_vertices();
    check_vertex(source, n)?;
    let targets = id_list(&opts, "targets", n)?;

    let hits = match opts.value("radius") {
        Some(_) if opts.value("k").is_some() => {
            return Err("--k and --radius are mutually exclusive".into())
        }
        Some(_) => {
            let radius: Distance = opts.parsed_or("radius", 0)?;
            oracle.within_radius(source, &targets, radius)
        }
        None => {
            let k: usize = opts.parsed_or("k", 10)?;
            if k == 0 {
                return Err("--k must be at least 1".into());
            }
            oracle.topk(source, &targets, k)
        }
    };
    for (t, d) in &hits {
        println!("{t} {d}");
    }
    if hits.is_empty() {
        eprintln!("no reachable targets matched");
    }
    Ok(())
}

/// The two serving backends, same pair as `chl query`.
enum Backend {
    Owned(FlatIndex),
    Mapped(MmapIndex),
}

impl Backend {
    fn open(index_path: &str, mmap: bool) -> Result<Backend, CliError> {
        Ok(if mmap {
            Backend::Mapped(
                MmapIndex::open(index_path)
                    .map_err(|e| format!("cannot map index {index_path}: {e}"))?,
            )
        } else {
            Backend::Owned(
                FlatIndex::load(index_path)
                    .map_err(|e| format!("cannot load index {index_path}: {e}"))?,
            )
        })
    }

    fn oracle(&self) -> &dyn DistanceOracle {
        match self {
            Backend::Owned(index) => index,
            Backend::Mapped(index) => index,
        }
    }

    fn paths(&self) -> &dyn PathOracle {
        match self {
            Backend::Owned(index) => index,
            Backend::Mapped(index) => index,
        }
    }
}

fn render_distance(d: Distance) -> String {
    if d == INFINITY {
        "inf".to_string()
    } else {
        d.to_string()
    }
}

/// Resolves `--NAME 0,1,2` or `--NAME-file F` (one id per line, `#`
/// comments) into a validated id list. Exactly one of the two must be
/// given; every id is range-checked before any query runs.
fn id_list(opts: &Opts, name: &str, n: usize) -> Result<Vec<VertexId>, CliError> {
    let file_key = format!("{name}-file");
    let ids = match (opts.value(name), opts.value(&file_key)) {
        (Some(_), Some(_)) => {
            return Err(format!("--{name} and --{file_key} are mutually exclusive").into())
        }
        (Some(list), None) => parse_id_list(list)?,
        (None, Some(path)) => load_id_file(path)?,
        (None, None) => return Err(format!("missing --{name} LIST or --{file_key} FILE").into()),
    };
    if ids.is_empty() {
        return Err(format!("--{name} names no vertex ids").into());
    }
    for &id in &ids {
        check_vertex(id, n)?;
    }
    Ok(ids)
}

fn parse_id_list(list: &str) -> Result<Vec<VertexId>, CliError> {
    list.split(',')
        .map(|tok| {
            let tok = tok.trim();
            tok.parse::<VertexId>()
                .map_err(|_| format!("invalid vertex id '{tok}'").into())
        })
        .collect()
}

fn load_id_file(path: &str) -> Result<Vec<VertexId>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read id file {path}: {e}"))?;
    let mut ids = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        for tok in line.split_whitespace() {
            ids.push(
                tok.parse::<VertexId>()
                    .map_err(|_| format!("{path}:{}: invalid vertex id '{tok}'", lineno + 1))?,
            );
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_lists_parse_and_reject() {
        assert_eq!(parse_id_list("0, 1,2").unwrap(), vec![0, 1, 2]);
        assert!(parse_id_list("0,x").is_err());
        assert!(parse_id_list("").is_err());
        assert_eq!(render_distance(7), "7");
        assert_eq!(render_distance(INFINITY), "inf");
    }

    #[test]
    fn id_files_skip_comments_and_name_bad_lines() {
        let dir = std::env::temp_dir().join(format!("chl-idfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.txt");
        std::fs::write(&good, "# poi set\n0 1\n2 # inline\n\n3\n").unwrap();
        assert_eq!(
            load_id_file(good.to_str().unwrap()).unwrap(),
            vec![0, 1, 2, 3]
        );
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "0\nnope\n").unwrap();
        let err = load_id_file(bad.to_str().unwrap()).unwrap_err().to_string();
        assert!(err.contains(":2:"), "error names the line: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
