//! `bench_ingest`: the machine-readable ingest fast-path perf gate.
//!
//! One measurement, pinned in `BENCH_ingest.json` and checked by
//! `scripts/bench_gate.sh`: the **wire ingest rate**. A fault-free 6-node
//! cluster absorbs a burst of hot-region inserts twice — once with
//! batching off (`insert_batch_max = 1`, every record its own `Insert`
//! frame routed to its leaf code) and once with the ingest fast path on
//! (`insert_batch_max = 32`: the origin addresses frames to the rows'
//! owner — their leaf code cut to its own overlay depth — and rows
//! arriving behind an unacked frame to that owner leave together as one
//! `InsertBatch`, on the ack, at 32 rows, or at the age cap). The timed
//! region covers the full pipeline a record really crosses: origin-side
//! batching, wire encode/decode, routing, the DAC apply, replica pushes,
//! and acks — stopping the clock as soon as every record is resident at
//! its *owner* (a row parked on a node that merely received its frame does
//! not count). The gate requires the batched records/s rate to be at least
//! [`INGEST_SPEEDUP_FLOOR`]× the single-record rate: amortizing per-frame
//! work (framing, op tracking, ack round trips, event scheduling) over 32
//! records is the whole point of the fast path.
//!
//! Modes (same contract as `bench_store`): no args prints the JSON
//! report; `--write <path>` (over)writes the baseline; `--check <path>`
//! gates against it. Run under `--release`.

use mind_bench::report::{json_numbers, metric, parse_json_numbers};
use mind_core::{ClusterConfig, MindCluster, NodeMetrics, Replication};
use mind_histogram::CutTree;
use mind_types::node::SECONDS;
use mind_types::{AttrDef, AttrKind, IndexSchema, NodeId, Record};
use std::process::ExitCode;
use std::time::Instant;

/// Records per timed ingest burst.
const INGEST_RECORDS: usize = 2_000;
/// `insert_batch_max` for the batched side of the race.
const INGEST_BATCH: usize = 32;
/// Cluster size for the ingest race.
const INGEST_NODES: usize = 6;
/// Even cut-tree depth of the race's index.
const CUT_DEPTH: u8 = 6;
/// Paired repetitions of the ingest race (each rep builds fresh
/// clusters, so reps are expensive).
const INGEST_REPS: usize = 5;

/// Hard floor on the batched-vs-single ingest rate (acceptance
/// criterion: batching must amortize per-frame overhead ≥3×).
const INGEST_SPEEDUP_FLOOR: f64 = 3.0;
/// Fractional regression tolerated against the committed baseline.
const TOLERANCE: f64 = 0.20;

fn schema() -> IndexSchema {
    IndexSchema::new(
        "ingest",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1 << 20),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400 * 7),
            AttrDef::new("y", AttrKind::Generic, 0, 1 << 20),
        ],
        3,
    )
}

/// All records target one region leaf, so the origin's batcher can form
/// full frames — the workload batching exists for (a hot shard during a
/// scan storm or DDoS event, per the paper's motivating traces).
fn hot_record() -> Record {
    Record::new(vec![7, 1_234, 9])
}

fn metric_sum(cluster: &MindCluster, f: impl Fn(&NodeMetrics) -> u64) -> u64 {
    (0..cluster.len() as u32)
        .map(|k| f(&cluster.world().node(NodeId(k)).metrics))
        .sum()
}

/// A fault-free cluster with the index created and settled, batching
/// configured to `batch_max` (1 = off).
fn build_cluster(batch_max: usize) -> MindCluster {
    let mut cfg = ClusterConfig::planetlab(INGEST_NODES, 7);
    cfg.mind.insert_batch_max = batch_max;
    let mut cluster = MindCluster::new(cfg);
    let s = schema();
    let cuts = CutTree::even(s.bounds(), CUT_DEPTH);
    cluster
        .create_index(NodeId(0), s, cuts, Replication::Level(1))
        .unwrap();
    cluster.run_for(10 * SECONDS);
    cluster
}

/// The timed ingest burst: inserts [`INGEST_RECORDS`] hot records at one
/// origin, periodically draining the simulator, then runs until every
/// record is resident at the hot leaf's owner — and not a simulated
/// microsecond longer, so idle heartbeat ticks don't dilute the measured
/// rate. Returns the primary rows cluster-wide (more than the owner's
/// would mean a row also rests somewhere it should not).
fn drive_ingest(cluster: &mut MindCluster) -> u64 {
    let leaf = CutTree::even(schema().bounds(), CUT_DEPTH).code_for_point(hot_record().point(3));
    let owner = cluster.topology().owner(&leaf).expect("complete overlay").0 as usize;
    for i in 0..INGEST_RECORDS {
        cluster.insert(NodeId(1), "ingest", hot_record()).unwrap();
        if i % 256 == 255 {
            cluster.run_for(SECONDS / 4);
        }
    }
    let mut rounds = 0;
    loop {
        let rows = cluster.storage_distribution("ingest");
        if rows[owner] >= INGEST_RECORDS as u64 {
            return rows.iter().sum();
        }
        cluster.run_for(SECONDS);
        rounds += 1;
        assert!(rounds < 600, "ingest burst failed to settle");
    }
}

/// Paired medians: per rep, time the single-record cluster then the
/// batched cluster (cluster construction stays outside the clock), and
/// derive the speedup as the median of per-rep ratios — same-rep pairing
/// cancels slow-machine moments that hit both sides.
struct IngestRace {
    single_ns: f64,
    batched_ns: f64,
    speedup: f64,
}

fn ingest_race() -> IngestRace {
    // Warmup doubles as the correctness check: both modes must land every
    // record exactly once (fault-free, so any drift is a batching bug),
    // and the batched side must actually ship multi-record frames — a
    // rate measured on degenerate single-record frames gates nothing.
    let mut single = build_cluster(1);
    assert_eq!(drive_ingest(&mut single), INGEST_RECORDS as u64);
    let mut batched = build_cluster(INGEST_BATCH);
    assert_eq!(drive_ingest(&mut batched), INGEST_RECORDS as u64);
    assert_eq!(metric_sum(&single, |m| m.insert_batches_sent), 0);
    assert!(
        metric_sum(&batched, |m| m.insert_batches_sent) >= (INGEST_RECORDS / INGEST_BATCH) as u64,
        "batched run shipped too few multi-record frames"
    );

    let mut singles = Vec::with_capacity(INGEST_REPS);
    let mut batcheds = Vec::with_capacity(INGEST_REPS);
    let mut ratios = Vec::with_capacity(INGEST_REPS);
    for _ in 0..INGEST_REPS {
        let mut cluster = build_cluster(1);
        let t = Instant::now(); // lint:allow(wallclock) measuring real time is this binary's purpose
        std::hint::black_box(drive_ingest(&mut cluster));
        let s = t.elapsed().as_nanos() as f64;

        let mut cluster = build_cluster(INGEST_BATCH);
        let t = Instant::now(); // lint:allow(wallclock) measuring real time is this binary's purpose
        std::hint::black_box(drive_ingest(&mut cluster));
        let b = t.elapsed().as_nanos() as f64;

        singles.push(s);
        batcheds.push(b);
        ratios.push(s / b);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    IngestRace {
        single_ns: med(&mut singles),
        batched_ns: med(&mut batcheds),
        speedup: med(&mut ratios),
    }
}

/// Runs the ingest race and assembles the report rows.
fn measure() -> Vec<(String, f64)> {
    let ingest = ingest_race();
    let ns_to_rate = |ns: f64| INGEST_RECORDS as f64 / ns * 1e9;
    vec![
        ("ingest.records".into(), INGEST_RECORDS as f64),
        ("ingest.batch_max".into(), INGEST_BATCH as f64),
        ("ingest.single_ns".into(), ingest.single_ns),
        ("ingest.batched_ns".into(), ingest.batched_ns),
        ("ingest.single_rate".into(), ns_to_rate(ingest.single_ns)),
        ("ingest.batched_rate".into(), ns_to_rate(ingest.batched_ns)),
        ("ingest_speedup".into(), ingest.speedup),
    ]
}

/// Gate check against the committed baseline: a hard absolute floor plus
/// the baseline band. Returns the number of violations.
fn check(current: &[(String, f64)], baseline: &[(String, f64)]) -> usize {
    let get = |report: &[(String, f64)], who: &str| {
        metric(report, "ingest_speedup").unwrap_or_else(|| panic!("{who} missing ingest_speedup"))
    };
    let base = get(baseline, "baseline");
    let cur = get(current, "measurement");
    let floor = INGEST_SPEEDUP_FLOOR.max(base * (1.0 - TOLERANCE));
    if cur < floor {
        println!("FAIL ingest_speedup: {cur:.2}x < floor {floor:.2}x (baseline {base:.2}x)");
        1
    } else {
        println!("ok   ingest_speedup: {cur:.2}x (floor {floor:.2}x, baseline {base:.2}x)");
        0
    }
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
            eprintln!("bench_ingest: wrote {path}");
            ExitCode::SUCCESS
        }
        [flag, path] if flag == "--check" => {
            let raw = std::fs::read_to_string(path).unwrap();
            let baseline =
                parse_json_numbers(&raw).unwrap_or_else(|| panic!("malformed baseline {path}"));
            let current = measure();
            let violations = check(&current, &baseline);
            if violations == 0 {
                println!("bench_ingest: gate passed against {path}");
                ExitCode::SUCCESS
            } else {
                println!("bench_ingest: {violations} gate violation(s) against {path}");
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: bench_ingest [--write <path> | --check <path>]");
            ExitCode::FAILURE
        }
    }
}
