//! Workspace driver for the determinism analyzer.
//!
//! Usage: `cargo run -p mind-analysis --bin analyze -- [root]`
//!
//! Walks every `.rs` file under `root` (default `.`), skipping build
//! output, vendored stand-ins, the fuzz harness, the benchmark package,
//! and the analyzer's own deliberately-bad fixture corpus, then runs the
//! rule engine and prints one diagnostic per finding. Exit status 1 when
//! anything is found.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directory names never descended into. `benchmark` is a package of its
/// own, frozen by the benchmark harness: its waivers cannot track the rules.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "fuzz", "benchmark"];

fn main() -> ExitCode {
    let root_arg = std::env::args().nth(1).unwrap_or_else(|| ".".to_owned());
    let root = PathBuf::from(&root_arg);
    if !root.is_dir() {
        eprintln!("analyze: {} is not a directory", root.display());
        return ExitCode::FAILURE;
    }

    let mut files: Vec<(String, String)> = Vec::new();
    if let Err(e) = collect(&root, &root, &mut files) {
        eprintln!("analyze: {}", e);
        return ExitCode::FAILURE;
    }
    files.sort();

    let diags = mind_analysis::analyze_sources(&files);
    for d in &diags {
        println!("{}", d);
    }
    if diags.is_empty() {
        println!("analyze: OK — {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "analyze: {} finding(s) in {} files scanned",
            diags.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Recursively gathers workspace `.rs` files as `(rel_path, source)`,
/// in sorted order for deterministic output.
fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {}", dir.display(), e))?
        .filter_map(|r| r.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            // The fixture corpus is deliberately full of violations.
            if rel.contains("/tests/fixtures/") {
                continue;
            }
            let src =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {}", path.display(), e))?;
            out.push((rel, src));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_the_benchmark_package_and_fixtures() {
        let root = std::env::temp_dir().join(format!("mind-analyze-walk-{}", std::process::id()));
        for dir in ["crates/x/src", "crates/x/tests/fixtures", "benchmark/src"] {
            fs::create_dir_all(root.join(dir)).unwrap();
            fs::write(root.join(dir).join("a.rs"), "fn f() {}\n").unwrap();
        }
        let mut files = Vec::new();
        let walked = collect(&root, &root, &mut files);
        let _ = fs::remove_dir_all(&root);
        walked.unwrap();
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["crates/x/src/a.rs"]);
    }
}
