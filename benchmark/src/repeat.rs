//! `--repeat K`: the noise table.
//!
//! Runs every workload `K` times as child processes (seeds `base`,
//! `base + 1`, …), in alternating order so that drift over the session
//! lands on every workload alike, and prints for each end-to-end metric
//! its median, quartiles, `(q3 - q1) / median` (what the driver holds it
//! to) and `(max - min) / median`, the bound the issue's rule 6 derives
//! from that, and the bound `BENCHMARK.json` commits. Exits non-zero when
//! a quartile spread exceeds half its committed bound, or a run failed.

use crate::report::{self, END_TO_END, WORKLOADS};
use crate::{stats, Args};
use std::collections::BTreeMap;
use std::process::Command;

/// `max(5 %, 2 × (max − min) / median)`.
fn rule6_bound(range_share: f64) -> f64 {
    (2.0 * range_share).max(0.05)
}

/// Runs the table; `Ok(true)` when every spread is within half its bound.
pub fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let json = crate::benchmark_json()?;
    let workloads: Vec<&str> = match args.workload.as_str() {
        "" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for k in 0..args.repeat {
        let mut order = workloads.clone();
        if k % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed + k as u64;
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("spawn {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(report::parse_json_line);
            let Some((correct, attempted, failed, metrics)) = parsed else {
                return Err(format!(
                    "{w} seed {seed}: no result line (exit {:?})\n{}",
                    out.status.code(),
                    String::from_utf8_lossy(&out.stderr)
                ));
            };
            eprintln!(
                "run {}/{} {w} seed={seed} correct={correct} attempted={attempted} failed={failed} {}",
                k + 1,
                args.repeat,
                END_TO_END
                    .iter()
                    .map(|(name, _, _)| format!("{name}={:.5}", metrics.get(*name).copied().unwrap_or(0.0)))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            ok &= correct && out.status.success();
            for (name, v) in metrics {
                values.entry((w.to_string(), name)).or_default().push(v);
            }
        }
    }

    println!(
        "| workload | metric | unit | n | median | q1 | q3 | (q3-q1)/median | (max-min)/median | \
         rule-6 bound | committed bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut worst: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for w in &workloads {
        for (name, unit, _) in END_TO_END {
            let Some(v) = values.get(&(w.to_string(), name.to_string())) else {
                continue;
            };
            let (q1, q2, q3) = stats::quartiles(v);
            let (iqr, range) = (stats::iqr_share(v), stats::range_share(v));
            let committed = report::bound_in_benchmark_json(&json, name).unwrap_or(0.0);
            let flag = if name != "setup_s" && iqr > committed / 2.0 {
                ok = false;
                " **over half**"
            } else {
                ""
            };
            println!(
                "| {w} | {name} | {unit} | {} | {q2:.4} | {q1:.4} | {q3:.4} | {:.2} %{flag} | {:.2} % | \
                 {:.1} % | {:.1} % |",
                v.len(),
                iqr * 100.0,
                range * 100.0,
                rule6_bound(range) * 100.0,
                committed * 100.0
            );
            let e = worst.entry(name).or_insert((0.0, 0.0));
            *e = (e.0.max(iqr), e.1.max(range));
        }
    }
    println!();
    println!("| metric | worst (q3-q1)/median | worst (max-min)/median | rule-6 bound | committed bound |");
    println!("|---|---|---|---|---|");
    for (name, _, _) in END_TO_END {
        if let Some((iqr, range)) = worst.get(name) {
            println!(
                "| {name} | {:.2} % | {:.2} % | {:.1} % | {:.1} % |",
                iqr * 100.0,
                range * 100.0,
                rule6_bound(*range) * 100.0,
                report::bound_in_benchmark_json(&json, name).unwrap_or(0.0) * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule6_has_a_floor_and_doubles_the_range() {
        assert_eq!(rule6_bound(0.0), 0.05);
        assert_eq!(rule6_bound(0.01), 0.05);
        assert!((rule6_bound(0.04) - 0.08).abs() < 1e-12);
    }
}
