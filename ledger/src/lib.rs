//! The perf ledger: one command runs four lifecycle workloads of the CHL
//! stack, checks every answer and prints every metric by name. See
//! `README.md` beside this package for what each number means.
//!
//! The library exists so the package's integration test can read the metric
//! tables and parse result files; everything else is reached through
//! [`run_cli`].

mod gate;
mod inputs;
pub mod json;
mod layers;
mod load;
mod report;
pub mod spec;
mod stats;
mod sysinfo;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use json::Json;
use spec::Scale;
use workload::{Res, RunOptions};

const USAGE: &str = "\
usage: ledger run (--all | --workload <name>) [--seed <n>] [--seconds <s>] [--trace [0|1]]
                  [--smoke] [--out <result.json>] [--out-dir <dir>]
       ledger compare <a.json> <b.json>
       ledger check-repeat [run options] [--a <a.json>] [--b <b.json>]
       ledger manifest

run --all            every workload, each in its own child process; prints every metric
run --all --trace    the traced pass: per-layer metrics, self times, <out-dir>/<workload>.trace.json
run --workload <w>   one workload in this process; the last line is the driver's JSON
compare              one row per (end-to-end metric, workload); exits 1 on a regression
check-repeat         runs the suite twice, alternating per workload; exits 1 if any cell disagrees beyond its bound
manifest             prints BENCHMARK.json from the ledger's own tables";

#[derive(Debug)]
struct RunArgs {
    all: bool,
    workload: Option<String>,
    options: RunOptions,
    out: Option<PathBuf>,
    a: Option<PathBuf>,
    b: Option<PathBuf>,
}

/// `ledger/out` beside the manifest when run through cargo, else under the
/// current directory: always inside the checkout.
fn default_out_dir() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("out"),
        None if Path::new("ledger").is_dir() => PathBuf::from("ledger/out"),
        None => PathBuf::from("out"),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        all: false,
        workload: None,
        options: RunOptions {
            seed: spec::DEFAULT_SEED,
            seconds: spec::DEFAULT_SECONDS,
            trace: false,
            scale: Scale::Full,
            out_dir: default_out_dir(),
        },
        out: None,
        a: None,
        b: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--all" => parsed.all = true,
            "--smoke" => parsed.options.scale = Scale::Smoke,
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.options.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                parsed.options.seconds = seconds;
                seconds_given = true;
            }
            "--trace" => {
                parsed.options.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--out-dir" => parsed.options.out_dir = PathBuf::from(value("--out-dir")?),
            "--a" => parsed.a = Some(PathBuf::from(value("--a")?)),
            "--b" => parsed.b = Some(PathBuf::from(value("--b")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.options.scale == Scale::Smoke && !seconds_given {
        parsed.options.seconds = 1.0;
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --all and --workload <name>".to_string());
    }
    Ok(parsed)
}

fn result_path(options: &RunOptions, workload: &str) -> PathBuf {
    let kind = if options.trace { ".trace" } else { "" };
    options
        .out_dir
        .join(format!("{workload}{kind}.result.json"))
}

/// One workload in this process. Returns whether every answer was right.
fn run_one(name: &str, options: &RunOptions) -> Res<bool> {
    let workloads = spec::workloads(options.scale);
    let Some(w) = workloads.iter().find(|w| w.name == name) else {
        let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {name}; one of {}", names.join(", ")).into());
    };
    let outcome = workload::run(w, options)?;
    report::print_outcome(&outcome);
    std::fs::write(
        result_path(options, name),
        report::outcome_json(&outcome).render_pretty(),
    )?;
    if options.trace {
        let trace = trace::to_json(name, options.seed, outcome.tracer.spans());
        std::fs::write(
            options.out_dir.join(format!("{name}.trace.json")),
            trace.render(),
        )?;
    }
    println!("{}", report::contract_line(&outcome));
    Ok(outcome.correct())
}

/// One workload in a child process of its own. Returns its result and
/// whether every answer was right.
fn run_child(name: &str, options: &RunOptions) -> Res<(Json, bool)> {
    let mut child = Command::new(std::env::current_exe()?);
    child
        .args(["run", "--workload", name])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&options.out_dir);
    if options.scale == Scale::Smoke {
        child.arg("--smoke");
    }
    let status = child.status()?;
    // Exit 1 is a finished run with wrong answers: its result file says
    // which. Anything else never produced a result.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("workload {name} did not finish: {status}").into());
    }
    let text = std::fs::read_to_string(result_path(options, name))?;
    Ok((Json::parse(&text)?, status.success()))
}

/// Workload results with the machine, the policy and the run's settings:
/// one result set, written to `path`.
fn write_set(results: Vec<Json>, options: &RunOptions, wall_s: f64, path: &Path) -> Res<Json> {
    let set = Json::obj([
        ("env", sysinfo::environment()),
        (
            "policy",
            Json::obj([
                ("construction_threads", Json::Num(spec::THREADS as f64)),
                ("rayon_num_threads", Json::Num(spec::THREADS as f64)),
                ("server_threads", Json::Num(spec::THREADS as f64)),
                ("connections", Json::Num(spec::CONNECTIONS as f64)),
                ("frames_in_flight", Json::Num(spec::IN_FLIGHT as f64)),
                ("loop", Json::str("closed")),
                ("rounds", Json::Num(spec::ROUNDS as f64)),
            ]),
        ),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        ("scale", Json::str(options.scale.as_str())),
        ("wall_s", Json::Num(wall_s)),
        ("workloads", Json::Arr(results)),
    ]);
    std::fs::write(path, set.render_pretty())?;
    println!("result set written to {}", path.display());
    Ok(set)
}

/// Runs every workload `sets` times, the sets alternating workload by
/// workload so that the host's drift over minutes lands on all of them
/// alike, and writes one result set per path.
fn run_sets(options: &RunOptions, paths: &[PathBuf]) -> Res<(Vec<Json>, bool)> {
    let started = Instant::now();
    std::fs::create_dir_all(&options.out_dir)?;
    let mut results = vec![Vec::new(); paths.len()];
    let mut correct = true;
    for w in &spec::workloads(options.scale) {
        for set in &mut results {
            let (result, ok) = run_child(w.name, options)?;
            set.push(result);
            correct &= ok;
        }
    }
    let wall_s = started.elapsed().as_secs_f64() / paths.len() as f64;
    println!(
        "suite wall time {wall_s:.1} s ({}; load from one process, {} connections x {} in flight)",
        if options.trace { "traced" } else { "untraced" },
        spec::CONNECTIONS,
        spec::IN_FLIGHT
    );
    let mut sets = Vec::new();
    for (set, path) in results.into_iter().zip(paths) {
        sets.push(write_set(set, options, wall_s, path)?);
    }
    Ok((sets, correct))
}

fn read_set(path: &Path) -> Res<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

fn dispatch(args: &[String]) -> Res<bool> {
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => {
            let run = parse_run(rest)?;
            match &run.workload {
                Some(name) => {
                    std::fs::create_dir_all(&run.options.out_dir)?;
                    run_one(name, &run.options)
                }
                None => {
                    let kind = if run.options.trace {
                        "suite.trace.json"
                    } else {
                        "suite.json"
                    };
                    let path = run.out.unwrap_or_else(|| run.options.out_dir.join(kind));
                    Ok(run_sets(&run.options, &[path])?.1)
                }
            }
        }
        Some(("compare", [a, b])) => {
            let found = report::compare(&read_set(Path::new(a))?, &read_set(Path::new(b))?)?;
            println!("{} cells, {} regressed", found.cells, found.regressed);
            Ok(found.regressed == 0)
        }
        Some(("check-repeat", rest)) => {
            let mut with_all = vec!["--all".to_string()];
            with_all.extend_from_slice(rest);
            let run = parse_run(&with_all)?;
            let dir = &run.options.out_dir;
            let a = run.a.clone().unwrap_or_else(|| dir.join("repeat-a.json"));
            let b = run.b.clone().unwrap_or_else(|| dir.join("repeat-b.json"));
            let (sets, correct) = run_sets(&run.options, &[a, b])?;
            let found = match sets.as_slice() {
                [first, second] => report::compare(first, second)?,
                _ => return Err("check-repeat runs two sets".into()),
            };
            println!(
                "{} cells, {} disagree beyond their bound",
                found.cells, found.disagree
            );
            Ok(correct && found.disagree == 0)
        }
        Some(("manifest", [])) => {
            print!("{}", spec::manifest().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

/// Runs the command line `args` (without the program name) and returns the
/// process exit code: 0 done and correct, 1 wrong answers or a regression,
/// 2 the run itself failed.
pub fn run_cli(args: &[String]) -> u8 {
    // The fixed thread policy: construction, batches and servers all see two
    // threads, whatever the machine has.
    std::env::set_var("RAYON_NUM_THREADS", spec::THREADS.to_string());
    if sysinfo::nproc() < spec::THREADS {
        eprintln!(
            "WARNING: {} core(s) available, the ledger's policy assumes {}: threads and the \
             load generator will share cores and every timing below is pessimistic",
            sysinfo::nproc(),
            spec::THREADS
        );
    }
    match dispatch(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("ledger: {e}");
            2
        }
    }
}
