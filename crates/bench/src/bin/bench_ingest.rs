//! `bench_ingest`: the machine-readable ingest fast-path perf gate.
//!
//! Two measurement groups, both pinned in `BENCH_ingest.json` and checked
//! by `scripts/bench_gate.sh`:
//!
//! 1. **Wire ingest rate.** A fault-free 6-node cluster absorbs a burst
//!    of hot-region inserts twice — once with batching off
//!    (`insert_batch_max = 1`, every record its own `Insert` frame
//!    routed to its leaf code) and once with the ingest fast path on
//!    (`insert_batch_max = 32`: the origin addresses frames to the
//!    rows' owner — their leaf code cut to its own overlay depth — and
//!    rows arriving behind an unacked frame to that owner leave together
//!    as one `InsertBatch`, on the ack, at 32 rows, or at the age cap).
//!    The timed region covers the full pipeline a record really
//!    crosses: origin-side batching, wire encode/decode, routing, the
//!    DAC apply, replica pushes, and acks — stopping the clock as soon
//!    as every record is resident at its *owner* (a row parked on a
//!    node that merely received its frame does not count). The gate
//!    requires the
//!    batched records/s rate to be at least [`INGEST_SPEEDUP_FLOOR`]×
//!    the single-record rate: amortizing per-frame work (framing, op
//!    tracking, ack round trips, event scheduling) over 32 records is
//!    the whole point of the fast path.
//!
//! 2. **Sharded scan throughput.** The shared 100k-point workload
//!    (`harness::store_sample_points`, same seed as `bench_store`) is
//!    loaded into a 1-shard and a 4-shard [`ShardedStore`] and scanned
//!    with a wide half-day gather and a counting traversal. The speedup
//!    ratios are pinned against the committed baseline; on a machine
//!    with real parallelism (>1 core) the gather speedup must also be
//!    strictly above 1.0 — scatter/gather over per-core subtrees must
//!    pay for its scoped-thread fan-out. On a single-core runner the
//!    absolute floor is waived (threads cannot beat the sequential scan
//!    without a second core) and only the baseline band applies, which
//!    still pins the fan-out overhead. The report records `cores` so a
//!    baseline written on one machine shape is legible on another.
//!
//! Bulk-insert time and resident bytes for both shard counts ride along
//! with ceilings on their ratios: sharding splits one tree into n — the
//! scatter pass must not tax ingest, and the subtrees must not inflate
//! the footprint.
//!
//! Modes (same contract as `bench_store`): no args prints the JSON
//! report; `--write <path>` (over)writes the baseline; `--check <path>`
//! gates against it. Run under `--release`.

use mind_bench::harness::store_sample_points;
use mind_bench::report::{json_numbers, metric, parse_json_numbers};
use mind_core::{ClusterConfig, MindCluster, NodeMetrics, Replication};
use mind_histogram::CutTree;
use mind_store::{ShardedStore, StoreKind};
use mind_types::node::SECONDS;
use mind_types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};
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
/// Workload size for the scan group: matches `bench_store`.
const POINTS: usize = 100_000;
/// Seed shared with `bench_store` so both gates measure one workload.
const SEED: u64 = 2;
/// Paired repetitions of each scan shape.
const SCAN_REPS: usize = 15;
/// Paired repetitions of the bulk-insert shape (each rep rebuilds both
/// stores from scratch).
const BUILD_REPS: usize = 5;
/// The 4-shard bulk insert may cost at most this multiple of the
/// 1-shard bulk insert (absolute ceiling; the baseline band may widen
/// it): the scatter pass must stay a hash + push, not a second copy.
const SHARD_BUILD_CEILING: f64 = 1.25;
/// Scans per timed region (each wide scan is already ~ms-scale; a small
/// batch smooths scheduler noise without bloating the run).
const SCAN_BATCH: usize = 4;

/// Hard floor on the batched-vs-single ingest rate (acceptance
/// criterion: batching must amortize per-frame overhead ≥3×).
const INGEST_SPEEDUP_FLOOR: f64 = 3.0;
/// Fractional regression tolerated against the committed baseline.
const TOLERANCE: f64 = 0.20;
/// Regression tolerance for the sharded-scan ratio keys. Wider than
/// [`TOLERANCE`] (the `bench_store` backend-key precedent): each divides
/// two sub-millisecond medians and the four-shard side carries
/// scoped-thread spawn jitter, so the gate targets structural
/// regressions, not scheduler noise.
const SCAN_TOLERANCE: f64 = 0.30;
/// The 4-shard store may hold at most this multiple of the 1-shard
/// store's bytes (absolute ceiling; the baseline band may widen it).
const SHARD_BYTES_CEILING: f64 = 1.10;

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
    // Pin the backend: this group measures the wire path, not the store.
    cfg.mind.store_kind = StoreKind::KdTree;
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

/// Builds a shard-count-`n` store over the shared workload (bulk insert
/// then an explicit rebuild, the steady-state scan shape).
fn build_sharded(shards: usize, pts: &[Vec<u64>]) -> ShardedStore {
    let mut store = ShardedStore::new(3, shards);
    store.insert_batch(pts.iter().map(|p| Record::new(p.clone())).collect());
    store.rebuild();
    store
}

/// Interleaved paired medians for the scan shapes: rep k times shape A
/// then shape B back to back, and the speedup is the median of per-rep
/// A/B ratios (the `bench_store::paired_shape` discipline).
struct PairedScan {
    one_ns: f64,
    four_ns: f64,
    speedup: f64,
}

fn paired_scan(
    reps: usize,
    mut one: impl FnMut() -> u64,
    mut four: impl FnMut() -> u64,
) -> PairedScan {
    std::hint::black_box(one());
    std::hint::black_box(four());
    let mut ones = Vec::with_capacity(reps);
    let mut fours = Vec::with_capacity(reps);
    let mut ratios = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now(); // lint:allow(wallclock) measuring real time is this binary's purpose
        std::hint::black_box(one());
        let a = t.elapsed().as_nanos() as f64;
        let t = Instant::now(); // lint:allow(wallclock) measuring real time is this binary's purpose
        std::hint::black_box(four());
        let b = t.elapsed().as_nanos() as f64;
        ones.push(a);
        fours.push(b);
        ratios.push(a / b);
    }
    let med = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    PairedScan {
        one_ns: med(&mut ones),
        four_ns: med(&mut fours),
        speedup: med(&mut ratios),
    }
}

/// Runs both measurement groups and assembles the report rows.
fn measure() -> Vec<(String, f64)> {
    let ingest = ingest_race();
    let ns_to_rate = |ns: f64| INGEST_RECORDS as f64 / ns * 1e9;

    let pts = store_sample_points(POINTS, SEED);
    let one = build_sharded(1, &pts);
    let four = build_sharded(4, &pts);
    // The wide half-day gather: heavy enough (~half the store) that the
    // per-scan work dwarfs the scoped-thread fan-out cost.
    let wide = HyperRect::new(vec![0, 0, 0], vec![u32::MAX as u64, 43_200, 2 << 20]);

    // Differential check before timing: a perf row for a store that
    // answers wrongly is worse than meaningless.
    let mut ids_one = one.range_ids(&wide);
    let mut ids_four = four.range_ids(&wide);
    ids_one.sort_unstable();
    ids_four.sort_unstable();
    assert_eq!(ids_one, ids_four, "shard counts disagree on the gather");
    assert_eq!(one.count_range(&wide), four.count_range(&wide));
    let hits = ids_one.len();

    let scan_batch = |store: &ShardedStore| {
        (0..SCAN_BATCH)
            .map(|_| store.range_ids(&wide).len() as u64)
            .sum::<u64>()
    };
    let count_batch = |store: &ShardedStore| {
        (0..SCAN_BATCH)
            .map(|_| store.count_range(&wide) as u64)
            .sum::<u64>()
    };
    let scan = paired_scan(SCAN_REPS, || scan_batch(&one), || scan_batch(&four));
    let count = paired_scan(SCAN_REPS, || count_batch(&one), || count_batch(&four));
    // Bulk insert rate vs shard count: one scatter pass plus per-shard
    // sub-batches must not make ingest-side sharding a tax.
    let build = paired_scan(
        BUILD_REPS,
        || build_sharded(1, &pts).len() as u64,
        || build_sharded(4, &pts).len() as u64,
    );
    let (bytes_one, bytes_four) = (one.approx_bytes() as f64, four.approx_bytes() as f64);
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;

    vec![
        ("ingest.records".into(), INGEST_RECORDS as f64),
        ("ingest.batch_max".into(), INGEST_BATCH as f64),
        ("ingest.single_ns".into(), ingest.single_ns),
        ("ingest.batched_ns".into(), ingest.batched_ns),
        ("ingest.single_rate".into(), ns_to_rate(ingest.single_ns)),
        ("ingest.batched_rate".into(), ns_to_rate(ingest.batched_ns)),
        ("ingest_speedup".into(), ingest.speedup),
        ("scan.points".into(), POINTS as f64),
        ("scan.hits".into(), hits as f64),
        ("scan.one_shard_ns".into(), scan.one_ns),
        ("scan.four_shard_ns".into(), scan.four_ns),
        ("sharded_scan_speedup".into(), scan.speedup),
        ("count.one_shard_ns".into(), count.one_ns),
        ("count.four_shard_ns".into(), count.four_ns),
        ("sharded_count_speedup".into(), count.speedup),
        ("sharded.one_shard_build_ns".into(), build.one_ns),
        ("sharded.four_shard_build_ns".into(), build.four_ns),
        // A cost ratio (four/one, gated with a ceiling), so invert the
        // paired one/four quotient.
        ("shard_build_ratio".into(), 1.0 / build.speedup),
        ("sharded.one_shard_bytes".into(), bytes_one),
        ("sharded.four_shard_bytes".into(), bytes_four),
        ("shard_bytes_ratio".into(), bytes_four / bytes_one),
        ("cores".into(), cores),
    ]
}

/// Gate check against the committed baseline. Returns the number of
/// violations.
fn check(current: &[(String, f64)], baseline: &[(String, f64)]) -> usize {
    let mut violations = 0;
    let get = |report: &[(String, f64)], key: &str, who: &str| {
        metric(report, key).unwrap_or_else(|| panic!("{who} missing {key}"))
    };

    // Batched ingest: hard absolute floor plus the baseline band.
    {
        let base = get(baseline, "ingest_speedup", "baseline");
        let cur = get(current, "ingest_speedup", "measurement");
        let floor = INGEST_SPEEDUP_FLOOR.max(base * (1.0 - TOLERANCE));
        if cur < floor {
            println!("FAIL ingest_speedup: {cur:.2}x < floor {floor:.2}x (baseline {base:.2}x)");
            violations += 1;
        } else {
            println!("ok   ingest_speedup: {cur:.2}x (floor {floor:.2}x, baseline {base:.2}x)");
        }
    }

    // Sharded scans: the baseline band always applies; the absolute
    // strict-improvement floor on the gather only applies where the
    // hardware can express it (>1 core — see the module docs).
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for key in ["sharded_scan_speedup", "sharded_count_speedup"] {
        let base = get(baseline, key, "baseline");
        let cur = get(current, key, "measurement");
        let mut floor = base * (1.0 - SCAN_TOLERANCE);
        if cores > 1 && key == "sharded_scan_speedup" {
            floor = floor.max(1.0);
        }
        if cur < floor {
            println!(
                "FAIL {key}: {cur:.2} < floor {floor:.2} (baseline {base:.2}, {cores} core(s))"
            );
            violations += 1;
        } else {
            println!(
                "ok   {key}: {cur:.2} (floor {floor:.2}, baseline {base:.2}, {cores} core(s))"
            );
        }
    }

    // Sharding must not inflate the resident footprint or tax bulk
    // insert: both are cost ratios gated with a ceiling.
    for (key, abs_ceiling) in [
        ("shard_bytes_ratio", SHARD_BYTES_CEILING),
        ("shard_build_ratio", SHARD_BUILD_CEILING),
    ] {
        let base = get(baseline, key, "baseline");
        let cur = get(current, key, "measurement");
        let ceiling = abs_ceiling.max(base * (1.0 + TOLERANCE));
        if cur > ceiling {
            println!("FAIL {key}: {cur:.3} > ceiling {ceiling:.3} (baseline {base:.3})");
            violations += 1;
        } else {
            println!("ok   {key}: {cur:.3} (ceiling {ceiling:.3}, baseline {base:.3})");
        }
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
