//! The machine a result was measured on, and the process's own memory.

use std::process::Command;

use crate::json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `VmHWM` / `VmRSS` of this process in MB, from `/proc/self/status`.
fn status_mb(field: &str) -> Option<f64> {
    let status = read("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn caches() -> Json {
    let mut rows = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let field = |name: &str| read(&format!("{dir}/{name}")).map(|s| s.trim().to_string());
        let (Some(level), Some(kind), Some(size)) = (field("level"), field("type"), field("size"))
        else {
            break;
        };
        let shared = field("shared_cpu_list").unwrap_or_default();
        rows.push(Json::str(format!("L{level} {kind} {size} (cpus {shared})")));
    }
    Json::Arr(rows)
}

/// nproc, CPU model, cache sizes, rustc and git commit.
pub fn environment() -> Json {
    let cpu = read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::str(cpu)),
        ("caches", caches()),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
