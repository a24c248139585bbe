//! `mind-benchmark`: one binary, four workloads, every metric by name.
//!
//! ```text
//! mind-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mind-benchmark --smoke [--workload <name>]
//! mind-benchmark --repeat <K> [--seed <base>] [--seconds <s>]
//! ```
//!
//! A run prints a header (seed, input hash, `nproc`, the pinned
//! configuration), every metric it measured with its unit, and as its
//! last line the JSON object the driver reads. See `README.md`.

mod gen;
mod probe;
mod procfs;
mod repeat;
mod report;
mod sim;
mod stats;
mod tcp;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The wall clock. The repository's analyzer bans wall-clock reads
/// outside the socket transport, rightly: simulated code must take time
/// from the event clock. A benchmark measures real time, so this is its
/// one read and everything else calls it.
pub fn wall() -> Instant {
    Instant::now() // lint:allow(wallclock) measuring real time is this binary's purpose
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (empty: all, for `--smoke` and `--repeat`).
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Length of the measured phase the fixed work is sized for.
    pub seconds: f64,
    /// Also run the traced passes and print the per-layer metrics.
    pub trace: bool,
    /// Tiny sizes; check the output against `BENCHMARK.json`.
    pub smoke: bool,
    /// Run every workload this many times and print the noise table.
    pub repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        smoke: false,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? != "0",
            "--repeat" => a.repeat = val()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

/// Where the span tables go: `benchmark/out/`, inside the checkout this
/// binary was built from (git-ignored).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// `BENCHMARK.json`: in the working directory (the driver runs from the
/// checkout's root), else beside the package.
pub fn benchmark_json() -> Result<String, String> {
    let beside = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&beside))
        .map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// Runs one workload and prints its result; `Ok(correct)`.
fn run_one(args: &Args) -> Result<bool, String> {
    let r = workloads::run(args)?;
    print!("{}", r.table());
    println!("{}", r.json_line(args.trace));
    Ok(r.correct())
}

/// `--smoke`: tiny sizes, both output groups, names checked against
/// `BENCHMARK.json`, every end-to-end metric present and non-zero.
fn smoke(args: &Args) -> Result<bool, String> {
    let drift = report::schema_drift(&benchmark_json()?);
    for d in &drift {
        eprintln!("smoke: {d}");
    }
    let mut ok = drift.is_empty();
    let names: Vec<&str> = match args.workload.as_str() {
        "" => report::WORKLOADS.to_vec(),
        w => vec![w],
    };
    for w in names {
        let a = Args {
            workload: w.to_string(),
            seconds: 1.0,
            trace: true,
            smoke: true,
            ..args.clone()
        };
        let r = workloads::run(&a)?;
        print!("{}", r.table());
        for group in [false, true] {
            let line = r.json_line(group);
            let parsed = report::parse_json_line(&line).ok_or("unparseable result line")?;
            let want = if group {
                report::PER_LAYER.len()
            } else {
                report::END_TO_END.len()
            };
            if parsed.3.len() != want {
                eprintln!(
                    "smoke: {w}: {} metrics in the line, {want} in the table",
                    parsed.3.len()
                );
                ok = false;
            }
            println!("{line}");
        }
        for (name, _, _) in report::END_TO_END {
            if r.get(name) <= 0.0 {
                eprintln!("smoke: {w}: end-to-end metric {name} is not positive");
                ok = false;
            }
        }
        if !r.correct() {
            eprintln!(
                "smoke: {w}: {} of {} operations failed",
                r.failed, r.attempted
            );
            ok = false;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mind-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.repeat > 0 {
        repeat::run(&args)
    } else if args.smoke {
        smoke(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mind-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
