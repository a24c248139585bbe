//! `bench_store`: the machine-readable store perf gate.
//!
//! Measures the columnar [`KdTree`] against the pre-columnar
//! [`NaiveKdTree`] on the shared 100k-point workload (see
//! `harness::store_sample_points`) and emits the flat-JSON report that
//! starts the perf trajectory in `BENCH_store.json`.
//!
//! Modes:
//!
//! * no args — measure and print the JSON report to stdout;
//! * `--write <path>` — measure and (over)write the baseline file;
//! * `--check <path>` — measure, compare against the committed baseline,
//!   and exit non-zero if the columnar speedups fall below the hard floor
//!   (2x on range and count) or regress more than 20 % against the
//!   baseline, or if the columnar build drifts past ~1.2x the naive build.
//!
//! The gate compares *ratios* (naive time / columnar time), not absolute
//! nanoseconds: absolute timings vary across machines and CI runners, but
//! the relative advantage of the columnar layout on identical input is
//! stable. Run under `--release`; a debug-build gate measures the
//! optimizer, not the data structure.

use mind_bench::harness::store_sample_points;
use mind_bench::report::{json_numbers, metric, parse_json_numbers};
use mind_store::{KdTree, NaiveKdTree};
use mind_types::{HyperRect, RecordId};
use std::process::ExitCode;
use std::time::Instant;

/// Workload size: matches the microbench group and the acceptance
/// criterion ("at 100k points").
const POINTS: usize = 100_000;
/// Seed shared with `benches/microbench.rs` so both measure one workload.
const SEED: u64 = 2;
/// Repetitions for the build benches (each rebuilds from scratch).
const BUILD_REPS: usize = 7;
/// Repetitions for the query benches (cheap, so take more samples).
const QUERY_REPS: usize = 31;

/// Hard floor on the columnar range/count speedup (acceptance criterion).
const SPEEDUP_FLOOR: f64 = 2.0;
/// Fractional regression tolerated against the committed baseline.
const TOLERANCE: f64 = 0.20;
/// The columnar build may cost at most this multiple of the naive build.
const BUILD_RATIO_CEILING: f64 = 1.2;

/// Median wall time of `run(setup())` over `reps` repetitions, in
/// nanoseconds. `setup` runs outside the timed region so build benches can
/// clone their input without the copy polluting the measurement; `run`
/// returns a value that is black-boxed so the work cannot be elided.
fn median_ns<T>(reps: usize, mut setup: impl FnMut() -> T, mut run: impl FnMut(T) -> u64) -> f64 {
    // One warmup pass to fault in code and data.
    std::hint::black_box(run(setup()));
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = setup();
            let t = Instant::now(); // lint:allow(wallclock) measuring real time is this binary's purpose
            let sink = run(input);
            let ns = t.elapsed().as_nanos() as f64;
            std::hint::black_box(sink);
            ns
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs the full before/after measurement and derives the gate ratios.
fn measure() -> Vec<(String, f64)> {
    let pts = store_sample_points(POINTS, SEED);
    let entries: Vec<(Vec<u64>, RecordId)> = pts
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), RecordId(i as u64)))
        .collect();
    // The paper's standing monitoring-query shape, shared with the
    // microbenches: every non-time attribute wildcarded, a 5-minute time
    // window. Wildcarded axes are where the two trees diverge most — the
    // naive tree must descend both branches at every node on those axes,
    // while the columnar tree's bounding boxes collapse the containment
    // test to the time dimension and emit whole subtrees.
    let query = HyperRect::new(vec![0, 40_000, 0], vec![u32::MAX as u64, 40_300, 2 << 20]);

    let columnar = KdTree::build(3, entries.clone());
    let naive = NaiveKdTree::build(3, entries.clone());
    let hits = columnar.count_range(&query);
    assert_eq!(
        hits,
        naive.count_range(&query),
        "trees disagree on workload"
    );

    eprintln!("bench_store: {POINTS} points, query hits {hits}");

    let columnar_build = median_ns(
        BUILD_REPS,
        || entries.clone(),
        |e| KdTree::build(3, e).len() as u64,
    );
    let naive_build = median_ns(
        BUILD_REPS,
        || entries.clone(),
        |e| NaiveKdTree::build(3, e).len() as u64,
    );
    let columnar_range = median_ns(
        QUERY_REPS,
        || (),
        |()| columnar.range_vec(&query).len() as u64,
    );
    let naive_range = median_ns(QUERY_REPS, || (), |()| naive.range_vec(&query).len() as u64);
    let columnar_count = median_ns(QUERY_REPS, || (), |()| columnar.count_range(&query) as u64);
    let naive_count = median_ns(QUERY_REPS, || (), |()| naive.count_range(&query) as u64);

    vec![
        ("points".into(), POINTS as f64),
        ("range_hits".into(), hits as f64),
        ("naive.build_ns".into(), naive_build),
        ("columnar.build_ns".into(), columnar_build),
        ("naive.range_ns".into(), naive_range),
        ("columnar.range_ns".into(), columnar_range),
        ("naive.count_ns".into(), naive_count),
        ("columnar.count_ns".into(), columnar_count),
        ("range_speedup".into(), naive_range / columnar_range),
        ("count_speedup".into(), naive_count / columnar_count),
        ("build_ratio".into(), columnar_build / naive_build),
    ]
}

/// Gate check: current speedups must clear both the absolute floor and
/// 80 % of the committed baseline; the build ratio must stay under the
/// ceiling (slackened by the same tolerance if the baseline itself sits
/// above 1.0). Returns the number of violations.
fn check(current: &[(String, f64)], baseline: &[(String, f64)]) -> usize {
    let mut violations = 0;
    for key in ["range_speedup", "count_speedup"] {
        let base = metric(baseline, key).unwrap_or_else(|| panic!("baseline missing {key}"));
        let cur = metric(current, key).unwrap_or_else(|| panic!("measurement missing {key}"));
        let floor = SPEEDUP_FLOOR.max(base * (1.0 - TOLERANCE));
        if cur < floor {
            println!("FAIL {key}: {cur:.2}x < floor {floor:.2}x (baseline {base:.2}x)");
            violations += 1;
        } else {
            println!("ok   {key}: {cur:.2}x (floor {floor:.2}x, baseline {base:.2}x)");
        }
    }
    let base =
        metric(baseline, "build_ratio").unwrap_or_else(|| panic!("baseline missing build_ratio"));
    let cur =
        metric(current, "build_ratio").unwrap_or_else(|| panic!("measurement missing build_ratio"));
    let ceiling = BUILD_RATIO_CEILING.max(base * (1.0 + TOLERANCE));
    if cur > ceiling {
        println!("FAIL build_ratio: {cur:.2} > ceiling {ceiling:.2} (baseline {base:.2})");
        violations += 1;
    } else {
        println!("ok   build_ratio: {cur:.2} (ceiling {ceiling:.2}, baseline {base:.2})");
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            print!("{}", json_numbers(&measure()));
            ExitCode::SUCCESS
        }
        [flag, path] if flag == "--write" => {
            let report = json_numbers(&measure());
            std::fs::write(path, &report).unwrap();
            print!("{report}");
            eprintln!("bench_store: wrote {path}");
            ExitCode::SUCCESS
        }
        [flag, path] if flag == "--check" => {
            let raw = std::fs::read_to_string(path).unwrap();
            let baseline =
                parse_json_numbers(&raw).unwrap_or_else(|| panic!("malformed baseline {path}"));
            let current = measure();
            let violations = check(&current, &baseline);
            if violations == 0 {
                println!("bench_store: gate passed against {path}");
                ExitCode::SUCCESS
            } else {
                println!("bench_store: {violations} gate violation(s) against {path}");
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: bench_store [--write <path> | --check <path>]");
            ExitCode::FAILURE
        }
    }
}
