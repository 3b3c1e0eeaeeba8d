//! Every `Ordering::Relaxed` in non-test code carries its argument: an
//! `ORDERING:` comment on the same line or in the `//` block directly above
//! it. Clippy has no lint for this rule, so this test is its guard (see
//! docs/ARCHITECTURE.md, "Safety & concurrency invariants").

use std::fs;
use std::path::Path;

/// Walks `dir` and returns how many `Relaxed` sites it checked, pushing
/// `file:line` for each one without an `ORDERING:` comment.
fn check_dir(dir: &Path, unjustified: &mut Vec<String>) -> usize {
    let mut sites = 0;
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if !matches!(name.as_ref(), "target" | "tests" | "benches") {
                sites += check_dir(&path, unjustified);
            }
            continue;
        }
        if !name.ends_with(".rs") {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap();
        let live: Vec<&str> = src.split("#[cfg(test)]").next().unwrap().lines().collect();
        for (i, line) in live.iter().enumerate() {
            if !line.contains("Ordering::Relaxed") || line.trim_start().starts_with("//") {
                continue;
            }
            sites += 1;
            let mut block = live[..i]
                .iter()
                .rev()
                .take_while(|l| l.trim_start().starts_with("//"));
            if !line.contains("ORDERING:") && !block.any(|l| l.contains("ORDERING:")) {
                unjustified.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
    sites
}

#[test]
fn every_relaxed_ordering_carries_an_ordering_comment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unjustified = Vec::new();
    let sites: usize = ["crates", "shims", "src"]
        .iter()
        .map(|dir| check_dir(&root.join(dir), &mut unjustified))
        .sum();
    assert!(
        sites > 0,
        "the walk found no `Ordering::Relaxed` site at all"
    );
    assert!(
        unjustified.is_empty(),
        "`Ordering::Relaxed` without an `// ORDERING:` comment at {unjustified:#?}"
    );
}
