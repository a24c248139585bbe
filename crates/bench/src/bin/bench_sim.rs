//! Simulation-scale regression gate: churn worlds at N=1k/10k.
//!
//! `BENCHMARK.json` measures the data plane and its per-layer kernel
//! costs; this binary pins what it cannot express, the *world* — the
//! discrete-event simulator plus the full MIND protocol stack driven at
//! population scales two orders of magnitude past the paper's 102-node
//! deployment. Each world runs under continuous churn
//! (a seeded `FaultPlan` crash/revive schedule), a constant ~100
//! inserts/second aggregate feed (spread across the population), and
//! periodic range queries, and reports:
//!
//! * `events_per_sec` — simulator events processed per wall-clock second,
//! * `wall_per_simhour_s` — wall-clock seconds to simulate one hour,
//! * `pending_events_peak` — scheduler + backlog high-water mark,
//! * `event_arena_peak` / `approx_mem_mb` — the event plane's resident
//!   footprint, from the `SimStats` high-water counters,
//! * `events_total` / `rows_stored` — the deterministic work actually done.
//!
//! The world itself is `mind_bench::worlds::run_world`; stderr adds its
//! simulator counters and its census (deliveries and fired timers by
//! kind, the largest first), for no gated row.
//!
//! Modes: no args prints the report; `--write <path>` (over)writes the
//! committed baseline `BENCH_sim.json`; `--check <path>` re-measures and
//! gates (ratio bands for wall-clock metrics, regression ceilings for the
//! deterministic ones, plus two hard floors: the 1k-node world must
//! finish its sim-hour inside [`SIM_HOUR_BUDGET_1K_S`] and the 10k-node
//! world must complete at all); `--smoke` runs the 1k-node churn world
//! twice at a short horizon and asserts byte-identical replay (the CI
//! `sim` job's determinism assertion); `--probe <n> <span_s>` runs one
//! ad-hoc world for profiling — `--probe 100 3600` is the 100-node
//! overload world (highest per-node load; it storms on most seeds, so it
//! is not gated — ROADMAP item 4).

use mind_bench::report::{json_numbers, metric, parse_json_numbers};
use mind_bench::worlds::{run_world, Fingerprint, CHURN_SEED, SMOKE_WORLD};
use std::process::ExitCode;
use std::time::Instant;

/// How a gated row is judged against its baseline value.
enum Bound {
    /// Fails below `baseline * factor`.
    Floor(f64),
    /// Fails above `baseline * factor`.
    Ceiling(f64),
}

/// Wall-clock band for rate metrics: shared CI runners jitter badly, so
/// the gate only fails on a halving of throughput.
const RATE_FLOOR: Bound = Bound::Floor(0.5);
/// Regression ceiling for deterministic load/memory metrics (sim-time
/// quantities, identical across machines for one code version; peaks may
/// legitimately move with protocol changes, 1.5x is a real regression).
const PEAK_CEILING: Bound = Bound::Ceiling(1.5);
/// The worlds must still do their work: stored volume holds up.
const ROWS_FLOOR: Bound = Bound::Floor(0.9);
/// Hard floor: the 1k-node churn world must complete one simulated hour
/// within this many wall-clock seconds (measured ~55 s on the dev
/// container after the PR-10 scaling fixes — the budget leaves ~3x
/// headroom for slower CI hardware; pre-PR-10 the same world took
/// several minutes and failed this floor).
const SIM_HOUR_BUDGET_1K_S: f64 = 180.0;
/// One world's scale point: population, simulated span, and how many
/// seconds pass between two inserts from the same node (period scales
/// with N so the aggregate feed stays ~100 records/s and cross-N numbers
/// isolate the cost of *population*, not raw record volume).
struct ScalePoint {
    n: usize,
    span_secs: u64,
}

const SCALE_POINTS: [ScalePoint; 2] = [
    ScalePoint {
        n: 1000,
        span_secs: 3600,
    },
    // 10k completes a shorter window end-to-end; wall_per_simhour_s is
    // extrapolated from it.
    ScalePoint {
        n: 10_000,
        span_secs: 300,
    },
];

/// Runs one scale point and appends its metric rows; its counters and
/// census go to stderr.
fn measure_point(out: &mut Vec<(String, f64)>, n: usize, span_secs: u64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "measuring real time is this binary's purpose"
    )]
    let t = Instant::now();
    let (o, approx_mem_bytes) = run_world(n, span_secs, CHURN_SEED);
    let wall = t.elapsed().as_secs_f64();
    let events = events_total(&o);
    let c = |name| o.stat(name);
    let prefix = format!("n{n}");
    out.push((format!("{prefix}.events_total"), events as f64));
    out.push((format!("{prefix}.events_per_sec"), events as f64 / wall));
    out.push((
        format!("{prefix}.wall_per_simhour_s"),
        wall * 3600.0 / span_secs as f64,
    ));
    out.push((
        format!("{prefix}.pending_events_peak"),
        c("pending_events_peak") as f64,
    ));
    out.push((
        format!("{prefix}.event_arena_peak"),
        c("event_arena_peak") as f64,
    ));
    out.push((
        format!("{prefix}.approx_mem_mb"),
        approx_mem_bytes as f64 / 1e6,
    ));
    out.push((format!("{prefix}.rows_stored"), o.rows_stored as f64));
    eprintln!(
        "bench_sim: n={n} span={span_secs}s wall={wall:.1}s events={events} \
         pending_peak={} arena_peak={} mem~{:.1}MB rows={}",
        c("pending_events_peak"),
        c("event_arena_peak"),
        approx_mem_bytes as f64 / 1e6,
        o.rows_stored
    );
    eprintln!(
        "bench_sim:   delivered={} dropped(dead/unknown/fault)={}/{}/{} dup={} part={} \
         timers(fired/cancelled)={}/{} requeued_busy={}",
        c("delivered"),
        c("dropped_dead"),
        c("dropped_unknown"),
        c("dropped_fault"),
        c("duplicated"),
        c("partitioned"),
        c("timers_fired"),
        c("timers_cancelled"),
        c("requeued_busy"),
    );
    // Where the deliveries and timers went, the largest kind first.
    let mut census: Vec<(String, u64)> = o.census.counts().filter(|&(_, k)| k > 0).collect();
    census.sort_by_key(|&(_, k)| std::cmp::Reverse(k));
    for kinds in census.chunks(5) {
        let kinds: Vec<String> = kinds
            .iter()
            .map(|(kind, k)| format!("{kind}={k}"))
            .collect();
        eprintln!("bench_sim:   census {}", kinds.join(" "));
    }
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

fn measure() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for p in &SCALE_POINTS {
        measure_point(&mut out, p.n, p.span_secs);
    }
    // Completion marker: the 10k-node world finished end-to-end (if it
    // hangs or panics, this row never exists and the gate fails loudly).
    out.push(("n10000.completed".into(), 1.0));
    out
}

/// The baseline-relative rows of the gate.
const GATED: [(&str, Bound); 8] = [
    ("n1000.events_per_sec", RATE_FLOOR),
    ("n10000.events_per_sec", RATE_FLOOR),
    ("n1000.pending_events_peak", PEAK_CEILING),
    ("n1000.approx_mem_mb", PEAK_CEILING),
    ("n10000.pending_events_peak", PEAK_CEILING),
    ("n10000.approx_mem_mb", PEAK_CEILING),
    ("n1000.rows_stored", ROWS_FLOOR),
    ("n10000.rows_stored", ROWS_FLOOR),
];

/// One gated row: `Ok` and `Err` both carry the line to print. A key
/// missing from either report is a violation, never a pass.
fn judge(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    key: &str,
    bound: &Bound,
) -> Result<String, String> {
    let cur = metric(current, key).ok_or("missing from the measurement")?;
    let base = metric(baseline, key).ok_or("missing from the baseline")?;
    let (word, cmp, limit, bad) = match *bound {
        Bound::Floor(f) => ("floor", '<', base * f, cur < base * f),
        Bound::Ceiling(f) => ("ceiling", '>', base * f, cur > base * f),
    };
    if bad {
        Err(format!(
            "{cur:.1} {cmp} {word} {limit:.1} (baseline {base:.1})"
        ))
    } else {
        Ok(format!("{cur:.1} ({word} {limit:.1}, baseline {base:.1})"))
    }
}

/// Gate check against the committed baseline: prints one line per row
/// and returns the violations, each naming its key.
fn check(current: &[(String, f64)], baseline: &[(String, f64)]) -> Vec<String> {
    // Hard floor 1: the 10k world completed.
    let completed = if metric(current, "n10000.completed") == Some(1.0) {
        Ok("10k-node world ran end-to-end".to_string())
    } else {
        Err("10k-node world did not complete".to_string())
    };
    // Hard floor 2: the 1k world's sim-hour fits the wall-clock budget.
    let budget = match metric(current, "n1000.wall_per_simhour_s") {
        None => Err("missing from the measurement".to_string()),
        Some(cur) if cur > SIM_HOUR_BUDGET_1K_S => {
            Err(format!("{cur:.1}s > budget {SIM_HOUR_BUDGET_1K_S:.0}s"))
        }
        Some(cur) => Ok(format!("{cur:.1}s (budget {SIM_HOUR_BUDGET_1K_S:.0}s)")),
    };
    let mut violations = Vec::new();
    let mut row = |key: &str, verdict: Result<String, String>| match verdict {
        Ok(line) => println!("ok   {key}: {line}"),
        Err(line) => {
            println!("FAIL {key}: {line}");
            violations.push(format!("{key}: {line}"));
        }
    };
    row("n10000.completed", completed);
    row("n1000.wall_per_simhour_s", budget);
    for (key, bound) in &GATED {
        row(key, judge(current, baseline, key, bound));
    }
    violations
}

/// CI smoke: the 1k-node churn world at a short horizon, twice, with
/// a byte-identical replay assertion over every deterministic output.
/// What the world did is pinned in `results/replay_pins.txt`, which
/// `mind-figures --check` compares.
fn smoke() -> ExitCode {
    let (n, span) = SMOKE_WORLD;
    let first = run_world(n, span, CHURN_SEED);
    let second = run_world(n, span, CHURN_SEED);
    eprintln!(
        "bench_sim --smoke: n={n} span={span}s events={} pending_peak={} rows={}",
        events_total(&first.0),
        first.0.stat("pending_events_peak"),
        first.0.rows_stored
    );
    if first == second {
        println!(
            "sim-smoke replay ok: n={n} span={span}s — counters, census, arena peaks \
             and stored rows identical across runs"
        );
        ExitCode::SUCCESS
    } else {
        println!("sim-smoke replay FAILED:\n  first:  {first:?}\n  second: {second:?}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            print!("{}", json_numbers(&measure()));
            ExitCode::SUCCESS
        }
        [flag] if flag == "--smoke" => smoke(),
        [flag, path] if flag == "--write" => {
            let report = json_numbers(&measure());
            std::fs::write(path, &report).unwrap();
            print!("{report}");
            eprintln!("bench_sim: wrote {path}");
            ExitCode::SUCCESS
        }
        [flag, path] if flag == "--check" => {
            let raw = std::fs::read_to_string(path).unwrap();
            let baseline =
                parse_json_numbers(&raw).unwrap_or_else(|| panic!("malformed baseline {path}"));
            let current = measure();
            let violations = check(&current, &baseline).len();
            if violations == 0 {
                println!("bench_sim: gate passed against {path}");
                ExitCode::SUCCESS
            } else {
                println!("bench_sim: {violations} gate violation(s) against {path}");
                ExitCode::FAILURE
            }
        }
        [flag, n, span] if flag == "--probe" => {
            let n: usize = n.parse().unwrap();
            let span: u64 = span.parse().unwrap();
            let mut out = Vec::new();
            measure_point(&mut out, n, span);
            print!("{}", json_numbers(&out));
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: bench_sim [--write <path> | --check <path> | --smoke | --probe <n> <span_s>]");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline, so the tests also prove that
    /// `BENCH_sim.json` carries every gated key.
    fn committed() -> Vec<(String, f64)> {
        parse_json_numbers(include_str!("../../../../BENCH_sim.json")).unwrap()
    }

    /// `report` with `key` set to `value`, or dropped on `None`.
    fn plant(report: &[(String, f64)], key: &str, value: Option<f64>) -> Vec<(String, f64)> {
        report
            .iter()
            .filter_map(|(k, v)| {
                let v = if k == key { value? } else { *v };
                Some((k.clone(), v))
            })
            .collect()
    }

    #[test]
    fn a_report_passes_against_itself() {
        let base = committed();
        assert_eq!(check(&base, &base), Vec::<String>::new());
        assert!(base.iter().all(|(k, _)| !k.starts_with("n100.")));
    }

    #[test]
    fn each_planted_regression_is_exactly_one_violation() {
        let base = committed();
        let at = |key, factor| Some(metric(&base, key).unwrap() * factor);
        let planted = [
            ("n1000.rows_stored", at("n1000.rows_stored", 0.85)),
            ("n1000.wall_per_simhour_s", Some(181.0)),
            (
                "n1000.pending_events_peak",
                at("n1000.pending_events_peak", 1.6),
            ),
            ("n10000.events_per_sec", at("n10000.events_per_sec", 0.45)),
            ("n10000.completed", None),
        ];
        for (key, value) in planted {
            let violations = check(&plant(&base, key, value), &base);
            assert_eq!(violations.len(), 1, "{key}: {violations:?}");
            assert!(violations[0].starts_with(key), "{violations:?}");
        }
    }

    #[test]
    fn a_key_absent_from_the_baseline_is_a_named_violation() {
        let current = committed();
        let violations = check(&current, &plant(&current, "n1000.approx_mem_mb", None));
        assert_eq!(
            violations,
            ["n1000.approx_mem_mb: missing from the baseline"]
        );
    }
}
