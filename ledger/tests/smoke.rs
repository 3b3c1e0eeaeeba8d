//! The whole suite at `--smoke` scale (hundreds of vertices, seconds in
//! total): all four workloads through every phase and the correctness gate,
//! untraced and traced, with every declared metric reported exactly once per
//! workload.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use chl_ledger::json::Json;
use chl_ledger::spec::{workloads, Scale, END_TO_END, FAILED_SHARE, PER_LAYER, PLANT_BUILD};

fn ledger(args: &[&str], out_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("the ledger binary runs")
}

fn out_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"))
}

/// Number of printed rows whose first two columns are `workload metric`.
fn rows(stdout: &str, workload: &str, metric: &str) -> usize {
    stdout
        .lines()
        .filter(|line| {
            let mut columns = line.split_whitespace();
            columns.next() == Some(workload) && columns.next() == Some(metric)
        })
        .count()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn untraced_suite_prints_every_end_to_end_cell_once_and_passes_the_gate() {
    let dir = out_dir("untraced");
    let run = ledger(&["run", "--all", "--smoke", "--seed", "3"], &dir);
    let stdout = text(&run.stdout);
    assert!(run.status.success(), "{stdout}\n{}", text(&run.stderr));
    for w in &workloads(Scale::Smoke) {
        for m in &END_TO_END {
            assert_eq!(
                rows(&stdout, w.name, m.name),
                1,
                "{} {}\n{stdout}",
                w.name,
                m.name
            );
        }
    }
    assert!(stdout.contains("suite wall time"));

    let set = std::fs::read_to_string(dir.join("suite.json")).expect("result set written");
    let set = Json::parse(&set).expect("result set parses");
    let results = set
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(results.len(), 4);
    for result in results {
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64) > Some(1000.0));
        let share = result.get("metrics").and_then(|m| m.get(FAILED_SHARE));
        assert_eq!(
            share.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(0.0)
        );
    }
    for key in ["nproc", "cpu", "caches", "rustc", "git_commit"] {
        assert!(
            set.get("env").and_then(|e| e.get(key)).is_some(),
            "env.{key}"
        );
    }
    assert_eq!(
        set.get("policy")
            .and_then(|p| p.get("frames_in_flight"))
            .and_then(Json::as_f64),
        Some(8.0)
    );

    // The same seed again: same answers, and `compare` finds no regression
    // in the exact cells (timings at this scale are noise, so only the exit
    // code of a self-comparison is asserted).
    let again = ledger(
        &["run", "--all", "--smoke", "--seed", "3"],
        &out_dir("again"),
    );
    assert!(again.status.success());
    let checksums = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("== "))
            .filter_map(|l| l.rsplit(' ').next().map(str::to_string))
            .collect()
    };
    assert_eq!(checksums(&stdout), checksums(&text(&again.stdout)));
    assert_eq!(checksums(&stdout).len(), 4);
    let file = dir.join("suite.json");
    let same = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .arg("compare")
        .args([&file, &file])
        .output()
        .expect("compare runs");
    assert!(same.status.success(), "{}", text(&same.stdout));
    assert!(text(&same.stdout).contains("answers_checksum"));
}

#[test]
fn traced_suite_prints_every_layer_cell_once_and_writes_the_traces() {
    let dir = out_dir("traced");
    let run = ledger(&["run", "--all", "--smoke", "--seed", "3", "--trace"], &dir);
    let stdout = text(&run.stdout);
    assert!(run.status.success(), "{stdout}\n{}", text(&run.stderr));
    for w in &workloads(Scale::Smoke) {
        for m in &PER_LAYER {
            assert_eq!(
                rows(&stdout, w.name, m.name),
                1,
                "{} {}\n{stdout}",
                w.name,
                m.name
            );
        }
        let trace = std::fs::read_to_string(dir.join(format!("{}.trace.json", w.name)))
            .expect("trace written");
        let trace = Json::parse(&trace).expect("trace parses");
        let coverage = trace.get("phase_coverage_pct").and_then(Json::as_f64);
        assert!(
            coverage >= Some(95.0),
            "{} phase spans cover {coverage:?}%",
            w.name
        );
        assert!(trace.get("spans").and_then(Json::as_arr).map(<[Json]>::len) > Some(100));
        assert!(stdout.contains(&format!("-- {} self times", w.name)));
        assert!(stdout.contains(&format!("-- {} stack", w.name)));
    }
}

#[test]
fn a_single_workload_ends_with_the_contract_line() {
    for (trace, dir) in [("0", out_dir("line0")), ("1", out_dir("line1"))] {
        let run = ledger(
            &[
                "run",
                "--workload",
                "social-zmmap",
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
            &dir,
        );
        let stdout = text(&run.stdout);
        assert!(run.status.success(), "{stdout}\n{}", text(&run.stderr));
        let line = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let Json::Obj(fields) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut want: Vec<&str> = if trace == "1" {
            PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|&n| n != PLANT_BUILD)
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| m.name)
                .filter(|&n| n != FAILED_SHARE)
                .collect()
        };
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} is {value:?}");
        }
    }
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let run = ledger(
        &["run", "--workload", "no-such-workload"],
        &out_dir("usage"),
    );
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
