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

use mind_bench::harness::{paper_mind_config, random_query, synth_point, IndexKind};
use mind_bench::report::{json_numbers, metric, parse_json_numbers};
use mind_core::{ClusterConfig, MindCluster, Replication};
use mind_histogram::CutTree;
use mind_netsim::FaultPlan;
use mind_types::node::SECONDS;
use mind_types::{NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// World seed (index sample, churn schedule, and sim RNG all derive from
/// it, so every published number replays).
const SEED: u64 = 22;
/// The smoke world's `(events, pending_peak, rows)`: sim-time counts, the
/// same on every machine for one protocol. A change that must leave the
/// simulated bytes alone reproduces them exactly; only a stated protocol
/// change re-pins them.
const SMOKE_PIN: (u64, u64, u64) = (2_983_823, 14_236, 11_973);

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

/// Seeded churn schedule: every 20 simulated seconds one node (never the
/// query/index origin, node 0) crashes for 40–80 s and revives, capped so
/// schedules never overlap per node. Applied via the `FaultPlan` so the
/// world itself executes the churn deterministically.
fn churn_plan(n: u32, span_secs: u64, seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut plan = FaultPlan::default();
    let mut busy_until = vec![0u64; n as usize];
    let mut sec = 30u64; // let the index flood settle first
    while sec + 90 < span_secs + 30 {
        let victim = rng.random_range(1..n);
        if busy_until[victim as usize] <= sec {
            let down: u64 = 40 + rng.random_range(0..40u64);
            plan = plan.with_crash(NodeId(victim), sec * SECONDS, Some((sec + down) * SECONDS));
            busy_until[victim as usize] = sec + down + 5;
        }
        sec += 20;
    }
    plan
}

/// Deterministic outcome of one world run (everything but wall clock).
#[derive(Debug, PartialEq, Eq)]
struct WorldOutcome {
    counters: (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64),
    event_arena_peak: u64,
    msg_bytes_peak: u64,
    approx_mem_bytes: u64,
    rows_stored: u64,
}

/// Builds and drives one churn world to completion.
fn run_world(n: usize, span_secs: u64, seed: u64) -> WorldOutcome {
    let kind = IndexKind::Fanout;
    let schema = kind.schema(86_400);

    let mut cfg = ClusterConfig::planetlab(n, seed);
    cfg.mind = paper_mind_config();
    // Same rationale as fig14: the retransmission timeout must sit above
    // the ack RTT under load or spurious resends snowball into a retry
    // storm that sustains the congestion that caused them.
    cfg.mind.retry_timeout = 30 * SECONDS;
    // 1 ms/message keeps even the slowest PlanetLab tier (load factor
    // 4–8x => 125–250 msg/s capacity) above the per-node arrival rate
    // at every scale point — the n=100 world carries the highest
    // per-node load, because the aggregate feed is constant across N.
    // At the figures' paper-calibrated 18 ms the slow 30% of hosts sit
    // *below* the steady-state arrival rate: their backlogs grow for
    // the whole span, acks outlive the retry timeout, and the resend
    // storm feeds the backlog — the world then measures queue growth,
    // not population scaling (DESIGN.md §16). The real TCP node plane
    // sustains ~600k inserts/s, so 1 ms is still conservative.
    cfg.sim.node_service = 1_000;
    cfg.sim.link_bytes_per_sec = 1_000_000;
    // Per-link counters are per-message BTreeMap upserts into an
    // O(N * degree) map — a measured wall at 1k+ hosts (DESIGN.md §16).
    // The scalar counters this benchmark reports are unaffected.
    cfg.sim.link_stats = n < 1000;
    // Per-insert latency/hop samples grow without bound; at bench scale
    // keep a fixed-size prefix per node (the counters still move).
    cfg.mind.metrics_samples_max = 10_000;
    cfg.sim.fault = churn_plan(n as u32, span_secs, seed);

    let mut cluster = MindCluster::new(cfg);

    let mut rng = StdRng::seed_from_u64(seed);
    let sample: Vec<Vec<u64>> = (0..4000)
        .map(|_| {
            let sec = rng.random_range(0..span_secs);
            synth_point(&mut rng, sec)
        })
        .collect();
    let refs: Vec<&[u64]> = sample.iter().map(|p| p.as_slice()).collect();
    let cuts = CutTree::balanced_from_points(schema.bounds(), 10, &refs);
    cluster
        .create_index(NodeId(0), schema, cuts, Replication::Level(1))
        .unwrap();
    cluster.run_for(20 * SECONDS);

    // ~100 inserts/s aggregate: each second one cohort of ~n/period nodes
    // inserts, staggered across the second like unsynchronized feeds.
    let period = (n as u64 / 100).max(1);
    let base = cluster.now();
    for sec in 0..span_secs {
        let t = base + sec * SECONDS;
        let cohort: Vec<u32> = (0..n as u32)
            .filter(|&k| k as u64 % period == sec % period)
            .collect();
        let stagger = SECONDS / cohort.len().max(1) as u64;
        for (i, &k) in cohort.iter().enumerate() {
            cluster.run_until(t + i as u64 * stagger);
            if cluster.is_alive(NodeId(k)) {
                let p = synth_point(&mut rng, sec);
                let rec = Record::new(vec![
                    p[0],
                    p[1],
                    p[2],
                    rng.random_range(0..1u64 << 32),
                    k as u64,
                ]);
                let _ = cluster.insert(NodeId(k), kind.tag(), rec);
            }
        }
        // Periodic monitoring queries from rotating live origins.
        if sec % 10 == 3 {
            let at = NodeId((sec * 31 % n as u64) as u32);
            if cluster.is_alive(at) {
                let rect = random_query(kind, &mut rng, sec);
                let _ = cluster.query(at, kind.tag(), rect, vec![]);
            }
        }
    }
    cluster.run_until(base + span_secs * SECONDS);
    cluster.run_for(60 * SECONDS);

    let world = cluster.world();
    WorldOutcome {
        counters: world.stats.counters(),
        event_arena_peak: world.stats.event_arena_peak,
        msg_bytes_peak: world.stats.msg_bytes_inflight_peak,
        approx_mem_bytes: world.approx_peak_memory_bytes(),
        rows_stored: cluster.total_primary_rows(kind.tag()),
    }
}

/// Runs one scale point and appends its metric rows.
fn measure_point(out: &mut Vec<(String, f64)>, n: usize, span_secs: u64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "measuring real time is this binary's purpose"
    )]
    let t = Instant::now();
    let o = run_world(n, span_secs, SEED);
    let wall = t.elapsed().as_secs_f64();
    let events = events_total_from(&o);
    let prefix = format!("n{n}");
    out.push((format!("{prefix}.events_total"), events as f64));
    out.push((format!("{prefix}.events_per_sec"), events as f64 / wall));
    out.push((
        format!("{prefix}.wall_per_simhour_s"),
        wall * 3600.0 / span_secs as f64,
    ));
    out.push((format!("{prefix}.pending_events_peak"), o.counters.9 as f64));
    out.push((
        format!("{prefix}.event_arena_peak"),
        o.event_arena_peak as f64,
    ));
    out.push((
        format!("{prefix}.approx_mem_mb"),
        o.approx_mem_bytes as f64 / 1e6,
    ));
    out.push((format!("{prefix}.rows_stored"), o.rows_stored as f64));
    eprintln!(
        "bench_sim: n={n} span={span_secs}s wall={wall:.1}s events={events} \
         pending_peak={} arena_peak={} mem~{:.1}MB rows={}",
        o.counters.9,
        o.event_arena_peak,
        o.approx_mem_bytes as f64 / 1e6,
        o.rows_stored
    );
    let c = o.counters;
    eprintln!(
        "bench_sim:   delivered={} dropped(dead/unknown/fault)={}/{}/{} dup={} part={} \
         timers(fired/cancelled)={}/{} requeued_busy={}",
        c.0, c.1, c.2, c.3, c.4, c.5, c.6, c.7, c.8
    );
}

fn events_total_from(o: &WorldOutcome) -> u64 {
    let c = o.counters;
    c.0 + c.1 + c.2 + c.3 + c.4 + c.5 + c.6 + c.8
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
/// a byte-identical replay assertion over every deterministic output and
/// a check of its counts against [`SMOKE_PIN`].
fn smoke() -> ExitCode {
    let span = 120;
    let n = 1000;
    let first = run_world(n, span, SEED);
    let second = run_world(n, span, SEED);
    let counts = (
        events_total_from(&first),
        first.counters.9,
        first.rows_stored,
    );
    eprintln!(
        "bench_sim --smoke: n={n} span={span}s events={} pending_peak={} rows={}",
        counts.0, counts.1, counts.2
    );
    if counts != SMOKE_PIN {
        println!(
            "sim-smoke pin FAILED: (events, pending_peak, rows) = {counts:?}, pinned \
             {SMOKE_PIN:?}; re-pin only with a stated protocol change"
        );
        return ExitCode::FAILURE;
    }
    if first == second {
        println!(
            "sim-smoke replay ok: n={n} span={span}s — counters, arena peaks and \
             stored rows identical across runs"
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
