//! Output formatting for the figures, and the checker of committed
//! output.
//!
//! Each figure writes: the experiment header, the paper's reported
//! shape, and the measured series — aligned so a reader can compare
//! shapes at a glance (matching `EXPERIMENTS.md`). [`check_file`] diffs
//! what a run prints against its committed file, line by line:
//! `mind-figures --check` for `results/`, `bench_sim --check` for
//! `BENCH_sim.txt`; [`check_bytes`] diffs bytes already read, as the
//! replay-pin test does with the chaos worlds' blocks.

use std::fmt::Display;
use std::io::{self, Write};
use std::path::Path;

use mind_types::node::SimTime;

/// Writes the standard experiment banner.
pub fn header(out: &mut dyn Write, figure: &str, title: &str, paper_claim: &str) -> io::Result<()> {
    let rule = "================================================================";
    writeln!(
        out,
        "{rule}\n{figure}: {title}\npaper: {paper_claim}\n{rule}"
    )
}

/// Writes one aligned key/value line.
pub fn kv(out: &mut dyn Write, key: &str, value: impl std::fmt::Display) -> io::Result<()> {
    writeln!(out, "  {key:<44} {value}")
}

/// Formats microseconds as seconds with millisecond precision.
pub fn fmt_us(us: SimTime) -> String {
    format!("{:.3}s", us as f64 / 1e6)
}

/// CDF sample points of a latency (or any) distribution: `(value,
/// cumulative fraction)` at the given percentiles.
pub fn cdf_points(samples: &[SimTime], percentiles: &[f64]) -> Vec<(f64, SimTime)> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentiles
        .iter()
        .map(|&p| (p, mind_core::percentile(&sorted, p)))
        .collect()
}

/// Fraction of samples at or below `threshold`.
pub fn fraction_leq(samples: &[u64], threshold: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&s| s <= threshold).count() as f64 / samples.len() as f64
}

// ---- checking committed output ----

/// The most differing lines [`check_bytes`] lists for one block: a pin
/// file's world, from its `world <title>` line to the next, or a whole
/// file without titles. A change that moves several worlds is named in
/// each of them.
pub const DIFF_CAP: usize = 40;

/// Diffs freshly printed bytes against their committed file, reporting
/// to `out` as [`check_bytes`] does, or `MISSING` for a file that cannot
/// be read. `true` when identical.
pub fn check_file(path: &Path, current: &[u8], out: &mut dyn Write) -> io::Result<bool> {
    match std::fs::read(path) {
        Ok(committed) => check_bytes(&path.display(), &committed, current, out),
        Err(e) => writeln!(out, "MISSING {}: {e}", path.display()).map(|()| false),
    }
}

/// Diffs freshly printed bytes against committed ones, pairing lines by
/// number, and reports to `out` each line that differs as `DIFF
/// <name>:<line>`, up to [`DIFF_CAP`] a block (a block counts the `world `
/// titles of `current` up to its line). `true` when identical.
pub fn check_bytes(
    name: &dyn Display,
    committed: &[u8],
    current: &[u8],
    out: &mut dyn Write,
) -> io::Result<bool> {
    let show = |line: Option<&[u8]>| match line {
        Some(l) => String::from_utf8_lossy(l).into_owned(),
        None => "<end of file>".to_string(),
    };
    let mut a = committed.split_inclusive(|&c| c == b'\n');
    let mut b = current.split_inclusive(|&c| c == b'\n');
    let mut diffs = Vec::new();
    let mut block = 0;
    for line in 1.. {
        let (x, y) = (a.next(), b.next());
        block += usize::from(y.is_some_and(|l| l.starts_with(b"world ")));
        match (x, y) {
            (None, None) => break,
            (x, y) if x != y => diffs.push((block, line, show(x), show(y))),
            _ => {}
        }
    }
    for block in diffs.chunk_by(|x, y| x.0 == y.0) {
        for (_, line, was, is) in block.iter().take(DIFF_CAP) {
            writeln!(out, "DIFF {name}:{line}")?;
            writeln!(out, "  committed: {}", was.trim_end_matches('\n'))?;
            writeln!(out, "  current:   {}", is.trim_end_matches('\n'))?;
        }
        if block.len() > DIFF_CAP {
            writeln!(out, "… {} more", block.len() - DIFF_CAP)?;
        }
    }
    Ok(diffs.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_points_monotone() {
        let samples: Vec<u64> = (1..=1000).collect();
        let pts = cdf_points(&samples, &[10.0, 50.0, 90.0, 99.0]);
        assert_eq!(pts.len(), 4);
        for w in pts.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts[1].1, 500);
    }

    #[test]
    fn fraction_leq_counts() {
        let s = vec![1, 2, 3, 4, 5];
        assert_eq!(fraction_leq(&s, 3), 0.6);
        assert_eq!(fraction_leq(&s, 0), 0.0);
        assert_eq!(fraction_leq(&[], 10), 0.0);
    }

    #[test]
    fn fmt_us_seconds() {
        assert_eq!(fmt_us(1_500_000), "1.500s");
    }
}
