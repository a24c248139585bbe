//! Simulation-scale regression gate: churn worlds at N=1k/10k.
//!
//! ```text
//! bench_sim                          print both worlds' blocks
//! bench_sim --write <file>           write them to <file>
//! bench_sim --check <file>           gate both worlds against <file>
//! bench_sim --probe <n> <span_s>     print one ad-hoc world's block
//! ```
//!
//! `BENCHMARK.json` measures the data plane and its per-layer kernel
//! costs; this binary pins what it cannot express, the *world* — the
//! discrete-event simulator plus the full MIND protocol stack driven at
//! population scales two orders of magnitude past the paper's 102-node
//! deployment. Each world (`mind_bench::worlds::run_world`) runs under
//! continuous churn (a seeded `FaultPlan` crash/revive schedule), a
//! constant ~100 inserts/second aggregate feed (spread across the
//! population), and periodic range queries.
//!
//! A world's block is its `Fingerprint`, rendered as in
//! `results/replay_pins.txt` — every `SimStats` counter, `retries_sent`,
//! `rows_stored` and the census by kind — plus one
//! `approx_peak_memory_bytes` line (the event plane's footprint). All of
//! it is deterministic, so `--check` compares the blocks with the
//! committed `BENCH_sim.txt` exactly and lists each moved line by name.
//! The one wall-clock figure is each gated world's run time against its
//! [`ScalePoint::budget_s`]; a re-pin cannot move it. stderr gets each
//! world's wall, event total and census, the largest kind first.
//!
//! `--probe 100 3600` is the 100-node overload world (highest per-node
//! load; it storms on most seeds, so it is not gated — ROADMAP item 4).
//! Exit status 0: pass; 1: a wall over budget, a moved line, a missing
//! pin file or a failed write; 2: the command line was refused.

use mind_bench::report::check_file;
use mind_bench::worlds::{churn_title, run_world, Fingerprint, CHURN_SEED};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One gated world: population, simulated span, and the wall-clock
/// seconds its run may take. Each node inserts once every `n / 100`
/// seconds, so the aggregate feed stays ~100 records/s and cross-N
/// numbers isolate the cost of *population*, not raw record volume.
struct ScalePoint {
    n: usize,
    span_secs: u64,
    /// The world's pinned event total over half the events/s rate the
    /// gate measured when the budgets were set, so the budget fails
    /// exactly where a halved rate used to.
    budget_s: f64,
}

const SCALE_POINTS: [ScalePoint; 2] = [
    // 80,207,070 events at 791,535 events/s (half of 1,583,070).
    ScalePoint {
        n: 1000,
        span_secs: 3600,
        budget_s: 101.33,
    },
    // 10k completes a shorter window end-to-end: 84,419,542 events at
    // 450,420 events/s (half of 900,840).
    ScalePoint {
        n: 10_000,
        span_secs: 300,
        budget_s: 187.42,
    },
];

/// What the worlds' blocks are for.
#[derive(Debug, PartialEq)]
enum Mode {
    Print,
    Write(PathBuf),
    Check(PathBuf),
    Probe(usize, u64),
}

const USAGE: &str = "usage: bench_sim [--write <file> | --check <file> | --probe <n> <span_s>]";

/// The whole command line.
fn parse(args: &[String]) -> Result<Mode, String> {
    fn value<T: std::str::FromStr>(what: &str, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("malformed --probe {what} {raw:?}"))
    }
    match args {
        [] => Ok(Mode::Print),
        [flag, path] if flag == "--write" => Ok(Mode::Write(path.into())),
        [flag, path] if flag == "--check" => Ok(Mode::Check(path.into())),
        [flag, n, span] if flag == "--probe" => {
            Ok(Mode::Probe(value("count", n)?, value("span", span)?))
        }
        _ => Err(format!("unknown command line {:?}", args.join(" "))),
    }
}

/// Runs one world, appends its block to `pins` and its wall, events and
/// census to `log`; returns its wall-clock seconds.
fn measure(n: usize, span_secs: u64, pins: &mut Vec<u8>, log: &mut dyn Write) -> io::Result<f64> {
    #[expect(
        clippy::disallowed_methods,
        reason = "measuring real time is this binary's purpose"
    )]
    let t = Instant::now();
    let (world, approx_mem_bytes) = run_world(n, span_secs, CHURN_SEED);
    let wall = t.elapsed().as_secs_f64();
    world.render(pins, &churn_title(n, span_secs))?;
    writeln!(pins, "approx_peak_memory_bytes {approx_mem_bytes}")?;
    let events = events_total(&world);
    writeln!(
        log,
        "bench_sim: n={n} span={span_secs}s wall={wall:.1}s events={events} ({:.0}/s)",
        events as f64 / wall
    )?;
    // Where the deliveries and timers went, the largest kind first.
    let mut census: Vec<(String, u64)> = world.census.counts().filter(|&(_, k)| k > 0).collect();
    census.sort_by_key(|&(_, k)| std::cmp::Reverse(k));
    for kinds in census.chunks(5) {
        let kinds: Vec<String> = kinds
            .iter()
            .map(|(kind, k)| format!("{kind}={k}"))
            .collect();
        writeln!(log, "bench_sim:   census {}", kinds.join(" "))?;
    }
    Ok(wall)
}

/// Simulator events: deliveries, drops, fired timers and events parked
/// behind a busy host (a cancelled timer is none).
fn events_total(o: &Fingerprint) -> u64 {
    [
        "delivered",
        "dropped_dead",
        "dropped_unknown",
        "dropped_fault",
        "duplicated",
        "partitioned",
        "timers_fired",
        "requeued_busy",
    ]
    .iter()
    .map(|name| o.stat(name))
    .sum()
}

/// One line for each world whose wall reading (`walls`, in `points`
/// order) is past its budget.
fn over_budget(points: &[ScalePoint], walls: &[f64]) -> Vec<String> {
    points
        .iter()
        .zip(walls)
        .filter(|&(p, &wall)| wall > p.budget_s)
        .map(|(p, wall)| {
            let title = churn_title(p.n, p.span_secs);
            format!("OVER BUDGET {title}: wall {wall:.1}s > {:.2}s", p.budget_s)
        })
        .collect()
}

/// Runs `mode`'s worlds (`points`, or the probe's one) and prints, writes
/// or checks their blocks. `true`: every wall in budget and every block
/// as committed.
fn run(
    mode: &Mode,
    points: &[ScalePoint],
    out: &mut dyn Write,
    log: &mut dyn Write,
) -> io::Result<bool> {
    let worlds: Vec<(usize, u64)> = match *mode {
        Mode::Probe(n, span) => vec![(n, span)],
        _ => points.iter().map(|p| (p.n, p.span_secs)).collect(),
    };
    let mut pins = Vec::new();
    let mut walls = Vec::new();
    for (n, span) in worlds {
        walls.push(measure(n, span, &mut pins, log)?);
    }
    match mode {
        Mode::Print | Mode::Probe(..) => out.write_all(&pins).map(|()| true),
        Mode::Write(path) => std::fs::write(path, &pins).map(|()| true),
        Mode::Check(path) => {
            let over = over_budget(points, &walls);
            for line in &over {
                writeln!(out, "{line}")?;
            }
            Ok(check_file(path, &pins, out)? && over.is_empty())
        }
    }
}

/// `main` over an injectable world table and sinks. Exit status 0:
/// pass; 1: a wall, a block or the disk failed; 2: the command line was
/// refused.
fn main_with(
    args: &[String],
    points: &[ScalePoint],
    out: &mut dyn Write,
    log: &mut dyn Write,
) -> u8 {
    let mode = match parse(args) {
        Ok(mode) => mode,
        Err(why) => {
            let _ = writeln!(log, "bench_sim: {why}\n{USAGE}");
            return 2;
        }
    };
    match run(&mode, points, out, log) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            let _ = writeln!(log, "bench_sim: {e}");
            1
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, log) = (std::io::stdout(), std::io::stderr());
    ExitCode::from(main_with(
        &args,
        &SCALE_POINTS,
        &mut out.lock(),
        &mut log.lock(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_bench::report::DIFF_CAP;
    use std::path::Path;

    fn committed_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.txt")
    }

    /// Runs `bench_sim <line>` over `points`; `(status, stdout, stderr)`.
    fn drive(line: &str, points: &[ScalePoint]) -> (u8, String, String) {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let (mut out, mut log) = (Vec::new(), Vec::new());
        let status = main_with(&args, points, &mut out, &mut log);
        let text = |b| String::from_utf8(b).unwrap();
        (status, text(out), text(log))
    }

    #[test]
    fn a_report_passes_against_itself() {
        // The committed file holds one block per gated world, titled as
        // `--write` titles them, in order, and checks clean against its
        // own bytes.
        let path = committed_path();
        let committed = std::fs::read_to_string(&path).unwrap();
        let titles: Vec<&str> = committed
            .lines()
            .filter_map(|l| l.strip_prefix("world "))
            .collect();
        let gated: Vec<String> = SCALE_POINTS
            .iter()
            .map(|p| churn_title(p.n, p.span_secs))
            .collect();
        assert_eq!(titles, gated);
        let mut out = Vec::new();
        assert!(check_file(&path, committed.as_bytes(), &mut out).unwrap());
        assert!(out.is_empty());
    }

    #[test]
    fn each_planted_regression_is_exactly_one_violation() {
        let at_budget: Vec<f64> = SCALE_POINTS.iter().map(|p| p.budget_s).collect();
        assert_eq!(over_budget(&SCALE_POINTS, &at_budget), Vec::<String>::new());
        for (k, p) in SCALE_POINTS.iter().enumerate() {
            let mut walls = at_budget.clone();
            walls[k] += 0.01;
            let violations = over_budget(&SCALE_POINTS, &walls);
            assert_eq!(violations.len(), 1, "{violations:?}");
            let title = churn_title(p.n, p.span_secs);
            assert!(violations[0].contains(&title), "{violations:?}");
        }
    }

    #[test]
    fn a_key_absent_from_the_baseline_is_a_named_violation() {
        // A run whose 10k world never finished printed no block for it:
        // that fails, and the diff names the missing block's title.
        let path = committed_path();
        let committed = std::fs::read_to_string(&path).unwrap();
        let title = churn_title(10_000, 300);
        let at = committed.find(&format!("world {title}")).unwrap();
        let line = committed[..at].lines().count() + 1;
        let mut out = Vec::new();
        let same = check_file(&path, &committed.as_bytes()[..at], &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(!same);
        assert!(
            out.starts_with(&format!(
                "DIFF {}:{line}\n  committed: world {title}\n  current:   <end of file>\n",
                path.display()
            )),
            "{out}"
        );
    }

    #[test]
    fn a_change_that_moves_both_worlds_is_named_in_each() {
        // Every count one higher: each block differs on every line but
        // its title, past the cap, and each lists its own first counter.
        let path = committed_path();
        let committed = std::fs::read_to_string(&path).unwrap();
        let moved: String = committed
            .lines()
            .map(|l| match l.rsplit_once(' ') {
                Some((name, v)) if !l.starts_with("world ") => {
                    format!("{name} {}\n", v.parse::<u64>().unwrap() + 1)
                }
                _ => format!("{l}\n"),
            })
            .collect();
        let mut out = Vec::new();
        assert!(!check_file(&path, moved.as_bytes(), &mut out).unwrap());
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.matches("DIFF ").count(), 2 * DIFF_CAP, "{out}");
        assert_eq!(out.matches("\n… ").count(), 2, "{out}");
        for (k, _) in committed
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("world "))
        {
            let first = format!("DIFF {}:{}\n", path.display(), k + 2);
            assert!(out.contains(&first), "{first:?} in {out}");
        }
    }

    #[test]
    fn a_missing_pin_file_is_reported_and_fails() {
        let path = std::env::temp_dir().join(format!("bench-sim-none-{}", std::process::id()));
        let (status, out, _) = drive(&format!("--check {}", path.display()), &[]);
        assert_eq!(status, 1);
        assert!(
            out.starts_with(&format!("MISSING {}", path.display())),
            "{out}"
        );
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for line in [
            "--smoke",
            "--check",
            "--write a b",
            "--probe 100",
            "--probe many 3600",
            "--probe 100 -5",
            "--probe 100 1h",
            "--verbose",
        ] {
            let (status, out, log) = drive(line, &[]);
            assert_eq!((status, out.as_str()), (2, ""), "{line:?}");
            assert!(log.ends_with(&format!("{USAGE}\n")), "{line:?}: {log}");
        }
        let args = ["--probe", "100", "3600"].map(String::from);
        assert_eq!(parse(&args), Ok(Mode::Probe(100, 3600)));
    }
}
