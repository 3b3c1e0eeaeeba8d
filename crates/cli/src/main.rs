//! The `chl` command line: the build → save → load → serve lifecycle of a
//! hub-label index as subcommands.
//!
//! ```text
//! chl gen grid --rows 40 --cols 40 --out g.bin     # synthetic graph file
//! chl build g.bin --out g.chl --algorithm hybrid   # construct + persist
//! chl build g.bin --out g.chl --shards 3           # + QDOL shard files
//! chl query g.chl 0 1599                           # serve from the file
//! chl query g.chl --random 100000                  # latency statistics
//! chl query g.chl --mmap --random 100000           # zero-copy serving
//! chl paths g.chl 0 1599                           # exact shortest path
//! chl matrix g.chl --sources 0,1 --targets 2,3     # distance block
//! chl topk g.chl 0 --targets 7,8,9 --k 2           # nearest targets
//! chl inspect g.chl                                # header, O(1) in file size
//! chl inspect g.chl --histogram                    # + full integrity check
//! chl upgrade old.chl new.chl                      # legacy v1/v2/v3 file -> v4
//! chl serve g.chl --addr 127.0.0.1:0               # long-running TCP server
//! chl serve g.shard-0-of-3.chl --shard ...         # one shard of a cluster
//! chl route ADDR0 ADDR1 ADDR2 --addr 127.0.0.1:0   # scatter-gather front door
//! chl bench-serve 127.0.0.1:7557 --connections 8   # load-test that server
//! ```
//!
//! Construction is the expensive phase and querying the latency-critical one
//! (paper §6); the `.chl` file (see `chl_core::persist`) is the seam between
//! them, so a labeling built once can be served by any number of later
//! processes. All failures — bad flags, missing files, corrupt indexes — are
//! reported on stderr with exit code 1; panics are bugs.

#![forbid(unsafe_code)]

mod bench_serve;
mod build;
mod gen;
mod graph_files;
mod inspect;
mod opts;
mod paths;
mod query;
mod route;
mod serve;
mod upgrade;

/// Boxed error: every subcommand reports failures as displayable values
/// (library errors stay typed; the CLI only prints them).
pub type CliError = Box<dyn std::error::Error>;

/// The entry point of one subcommand.
type Runner = fn(&[String]) -> Result<(), CliError>;

const USAGE: &str = "\
usage: chl <command> [args]

commands:
  gen      generate a synthetic graph file (grid / scale-free)
  build    build a hub labeling from a graph file and save it as .chl
  query    answer PPSD queries from a saved .chl index (--mmap: zero-copy)
  paths    reconstruct exact shortest paths (needs 'chl build --paths')
  matrix   evaluate a sources x targets distance block (pivoted kernel)
  topk     rank targets by distance from one source (--radius variant)
  inspect  show a .chl file's header and footprint (--histogram: full check)
  upgrade  rewrite a v1/v2/v3 .chl file, which no other command reads, as v4
  serve    keep an index loaded and answer queries over TCP (hot reload)
  route    front a cluster of shard servers with one scatter-gather endpoint
  bench-serve  load-test a running serve endpoint (throughput, p50/p99/p999)

Run 'chl <command> --help' for per-command options.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(Exit::Usage(usage)) => {
            println!("{usage}");
        }
        Err(Exit::Error(e)) => {
            eprintln!("chl: error: {e}");
            std::process::exit(1);
        }
    }
}

enum Exit {
    /// Help was requested: print usage, exit 0.
    Usage(&'static str),
    /// A real failure: print to stderr, exit 1.
    Error(CliError),
}

fn run(args: &[String]) -> Result<(), Exit> {
    // A missing command is misuse, not a help request: usage goes to stderr
    // with a failing exit code so `chl "$CMD" …` with an empty variable
    // cannot masquerade as success in a shell pipeline.
    let Some(command) = args.first() else {
        return Err(Exit::Error(format!("missing command\n{USAGE}").into()));
    };
    let rest = &args[1..];
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    let (usage, runner): (&'static str, Runner) = match command.as_str() {
        "gen" => (gen::USAGE, gen::run),
        "build" => (build::USAGE, build::run),
        "query" => (query::USAGE, query::run),
        "paths" => (paths::USAGE, paths::run),
        "matrix" => (paths::MATRIX_USAGE, paths::run_matrix),
        "topk" => (paths::TOPK_USAGE, paths::run_topk),
        "inspect" => (inspect::USAGE, inspect::run),
        "upgrade" => (upgrade::USAGE, upgrade::run),
        "serve" => (serve::USAGE, serve::run),
        "route" => (route::USAGE, route::run),
        "bench-serve" => (bench_serve::USAGE, bench_serve::run),
        "--help" | "-h" | "help" => return Err(Exit::Usage(USAGE)),
        other => {
            return Err(Exit::Error(
                format!("unknown command '{other}'\n{USAGE}").into(),
            ))
        }
    };
    if wants_help {
        return Err(Exit::Usage(usage));
    }
    runner(rest).map_err(Exit::Error)
}
