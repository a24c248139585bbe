//! The seeded worlds whose fingerprint `results/replay_pins.txt` holds:
//! three 8-node chaos worlds (loss, duplication, a partition, level-1
//! replication; `tests/chaos.rs` replays them) and `bench_sim`'s churn
//! world (crash/revive churn under a steady insert feed, at any
//! population). Each returns a [`Fingerprint`]: what the world did, by
//! name, down to every message and timer kind. The `replay_pins` figure
//! prints it; a re-pin is `mind-figures all --write results`.

use crate::harness::{paper_mind_config, random_query, synth_point, IndexKind};
use mind_core::{Census, ClusterConfig, MindCluster, NodeMetrics, Replication};
use mind_histogram::CutTree;
use mind_netsim::FaultPlan;
use mind_types::node::{SimTime, SECONDS};
use mind_types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Write};

/// What one seeded world did: every output a same-seed replay must
/// reproduce, each under its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// The simulator's scalar counters (`SimStats::named`).
    pub stats: [(&'static str, u64); 13],
    /// Write ops re-sent, over every node.
    pub retries_sent: u64,
    /// Bytes carried over every simulated link; `None` where the world
    /// keeps no per-link counters.
    pub link_bytes: Option<u64>,
    /// Primary rows stored.
    pub rows_stored: u64,
    /// Deliveries and fired timers by kind, over every node, alive or
    /// dead.
    pub census: Census,
    /// The closing whole-space query's answer, sorted; empty where the
    /// world asks none.
    pub answer: Vec<Vec<u64>>,
}

impl Fingerprint {
    /// Reads a finished world whose rows live in index `index`.
    fn read(cluster: &MindCluster, index: &str, answer: Vec<Vec<u64>>) -> Self {
        let world = cluster.world();
        let metrics = || (0..cluster.len() as u32).map(|k| &world.node(NodeId(k)).metrics);
        let mut census = Census::default();
        metrics().for_each(|m| census.add(&m.census));
        Fingerprint {
            stats: world.stats.named(),
            retries_sent: metrics().map(|m| m.retries_sent).sum(),
            link_bytes: world
                .stats
                .per_link
                .values()
                .map(|l| l.bytes)
                .reduce(|a, b| a + b),
            rows_stored: cluster.total_primary_rows(index),
            census,
            answer,
        }
    }

    /// One simulator counter by its `SimStats` field name.
    pub fn stat(&self, name: &str) -> u64 {
        self.stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("SimStats has no field {name}"))
    }

    /// Writes this world's block of the pin file: a `world <title>` line,
    /// then one `<name> <value>` line per counter and census kind, zeros
    /// included.
    pub fn render(&self, out: &mut dyn Write, title: &str) -> io::Result<()> {
        writeln!(out, "world {title}")?;
        for (name, value) in self.stats {
            writeln!(out, "{name} {value}")?;
        }
        writeln!(out, "retries_sent {}", self.retries_sent)?;
        if let Some(bytes) = self.link_bytes {
            writeln!(out, "link_bytes {bytes}")?;
        }
        writeln!(out, "rows_stored {}", self.rows_stored)?;
        for (kind, count) in self.census.counts() {
            writeln!(out, "{kind} {count}")?;
        }
        Ok(())
    }
}

// ---- the chaos worlds ----

/// The seed the chaos worlds are pinned at.
pub const PIN_SEED: u64 = 17;

/// The three chaos worlds at [`PIN_SEED`], titled, in the pin file's
/// order: single-row frames without replication, frames of up to 8
/// through a partition, and both frame sizes under level-1 replication
/// (all four insert payloads).
pub fn chaos_worlds() -> [(String, Fingerprint); 3] {
    let seed = PIN_SEED;
    [
        (format!("replay_run seed={seed}"), replay_run(seed)),
        (
            format!("batched_replay_run seed={seed}"),
            batched_replay_run(seed).0,
        ),
        (
            format!("replicated_replay_run seed={seed}"),
            replicated_replay_run(seed).0,
        ),
    ]
}

/// The chaos worlds' three-dimensional index `chaos`.
pub fn schema() -> IndexSchema {
    IndexSchema::new(
        "chaos",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1 << 20),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400 * 7),
            AttrDef::new("y", AttrKind::Generic, 0, 1 << 20),
        ],
        3,
    )
}

/// A cluster with the given fault plan active from t = 0. The heartbeat
/// miss threshold is raised so a partition shorter than the failure
/// horizon is ridden out instead of being misdiagnosed as node death.
pub fn build(n: usize, seed: u64, fault: FaultPlan, replication: Replication) -> MindCluster {
    build_batching(n, seed, fault, replication, 1)
}

/// [`build`] with the ingest fast path enabled: origin nodes coalesce
/// same-destination inserts into `InsertBatch` frames of up to
/// `batch_max` records (`1` = batching off, the default wire behavior).
fn build_batching(
    n: usize,
    seed: u64,
    fault: FaultPlan,
    replication: Replication,
    batch_max: usize,
) -> MindCluster {
    let mut cfg = ClusterConfig::planetlab(n, seed);
    cfg.mind.insert_batch_max = batch_max;
    cfg.sim.fault = fault;
    cfg.overlay.hb_miss_threshold = 25; // horizon: 25 × 2s = 50s
    let mut cluster = MindCluster::new(cfg);
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 9);
    cluster
        .create_index(NodeId(0), s, cuts, replication)
        .unwrap();
    // Settle: the CreateIndex flood is itself subject to the fault plan;
    // flood redundancy plus one anti-entropy round heal any gap.
    cluster.run_for(50 * SECONDS);
    cluster
}

/// A uniform record of the `chaos` index on `day`.
pub fn random_record(rng: &mut StdRng, day: u64) -> Record {
    Record::new(vec![
        rng.random_range(0..1u64 << 20),
        day * 86_400 + rng.random_range(0..86_400u64),
        rng.random_range(0..1u64 << 20),
    ])
}

/// Inserts `count` random records round-robin from the `n` nodes, one
/// simulated second every 20, and records them in `oracle`.
pub fn spray(
    cluster: &mut MindCluster,
    rng: &mut StdRng,
    n: usize,
    count: usize,
    day: u64,
    oracle: &mut Vec<Record>,
) {
    for i in 0..count {
        let r = random_record(rng, day);
        oracle.push(r.clone());
        cluster.insert(NodeId((i % n) as u32), "chaos", r).unwrap();
        if i % 20 == 0 {
            cluster.run_for(SECONDS);
        }
    }
}

/// The records' values, sorted: an answer compared as a multiset.
pub fn sorted_values(records: &[Record]) -> Vec<Vec<u64>> {
    let mut v: Vec<Vec<u64>> = records.iter().map(|r| r.values().to_vec()).collect();
    v.sort();
    v
}

/// Full-space query whose answer must equal the oracle exactly — no
/// record lost to a fault, none double-stored by a retry or a network
/// duplicate.
pub fn assert_matches_oracle(cluster: &mut MindCluster, at: NodeId, oracle: &[Record], ctx: &str) {
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 20, 86_400 * 7, 1 << 20]);
    let outcome = cluster.query_and_wait(at, "chaos", q, vec![]).unwrap();
    assert!(outcome.complete, "{ctx}: query incomplete");
    assert_eq!(
        sorted_values(&outcome.records),
        sorted_values(oracle),
        "{ctx}: answers diverge from the fault-free oracle"
    );
}

/// Sums a retry-layer metric across live nodes.
pub fn metric_sum(cluster: &MindCluster, f: impl Fn(&NodeMetrics) -> u64) -> u64 {
    (0..cluster.len() as u32)
        .filter(|&k| cluster.world().is_alive(NodeId(k)))
        .map(|k| f(&cluster.world().node(NodeId(k)).metrics))
        .sum()
}

/// Asks `at` for the whole space (the answer must be complete) and
/// reads the run's fingerprint.
pub fn observe(cluster: &mut MindCluster, at: NodeId) -> Fingerprint {
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 20, 86_400 * 7, 1 << 20]);
    let outcome = cluster.query_and_wait(at, "chaos", q, vec![]).unwrap();
    assert!(outcome.complete);
    Fingerprint::read(cluster, "chaos", sorted_values(&outcome.records))
}

/// One seeded lossy/duplicating run, audited clean before returning its
/// fingerprint.
pub fn replay_run(seed: u64) -> Fingerprint {
    let n = 8;
    let fault = FaultPlan::lossy(0.05).with_duplication(0.02);
    let mut cluster = build(n, seed, fault, Replication::None);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut oracle = Vec::new();
    spray(&mut cluster, &mut rng, n, 100, 0, &mut oracle);
    cluster.run_for(120 * SECONDS);
    let observed = observe(&mut cluster, NodeId(2));
    cluster
        .audit_settled()
        .assert_clean(&format!("seed {seed} replay"));
    observed
}

/// One seeded run with the ingest fast path on (batches of up to 8
/// records) under loss, duplication, *and* a 15-second two-node
/// partition. A hot-spot burst of
/// same-coordinate records guarantees multi-record frames actually form
/// (random records spread across region codes mostly age out as
/// singletons). Oracle-checked and audited clean before returning the
/// fingerprint plus the cluster-wide `InsertBatch` frame count.
pub fn batched_replay_run(seed: u64) -> (Fingerprint, u64) {
    let n = 8;
    let cut_at: SimTime = 60 * SECONDS;
    let heal_at: SimTime = 75 * SECONDS;
    let fault = FaultPlan::lossy(0.05)
        .with_duplication(0.02)
        .with_partition(vec![NodeId(0), NodeId(1)], cut_at, heal_at);
    let mut cluster = build_batching(n, seed, fault, Replication::None, 8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
    let mut oracle = Vec::new();
    spray(&mut cluster, &mut rng, n, 80, 0, &mut oracle);
    // Hot-spot burst: identical coordinates share one region code, so
    // node 2's batcher must coalesce them into full frames.
    for _ in 0..30 {
        let r = Record::new(vec![7, 1_234, 9]);
        oracle.push(r.clone());
        cluster.insert(NodeId(2), "chaos", r).unwrap();
    }
    // Keep inserting across the partition window, from both sides of the
    // cut: batches stranded on the island must survive via whole-frame
    // retries once the partition heals.
    cluster.run_until(cut_at + SECONDS);
    for i in 0..20u32 {
        let origin = if i % 2 == 0 { 0 } else { 2 + (i % 6) };
        let r = random_record(&mut rng, 0);
        oracle.push(r.clone());
        cluster.insert(NodeId(origin), "chaos", r).unwrap();
        if i % 10 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_until(heal_at + 150 * SECONDS);

    assert_matches_oracle(
        &mut cluster,
        NodeId(3),
        &oracle,
        &format!("seed {seed} batched"),
    );
    let exhausted = metric_sum(&cluster, |m| m.retries_exhausted);
    assert_eq!(exhausted, 0, "seed {seed}: a batch op ran out of budget");
    let batches = metric_sum(&cluster, |m| m.insert_batches_sent);
    assert!(batches > 0, "seed {seed}: batching never engaged");
    // Balanced overlay: a prefix of the sender's own depth is one node.
    let forwarded = metric_sum(&cluster, |m| m.insert_rows_forwarded);
    assert_eq!(forwarded, 0, "seed {seed}: a frame was re-split");
    let s = cluster.world().stats.clone();
    assert!(
        s.partitioned > 0,
        "seed {seed}: partition never severed a send"
    );

    let observed = observe(&mut cluster, NodeId(2));
    cluster
        .audit_settled()
        .assert_clean(&format!("seed {seed} batched replay"));
    (observed, batches)
}

/// One seeded run on 8 nodes under `Replication::Level(1)` with frames
/// of up to 8 rows: sprayed rows mostly leave alone (`Insert`, pushed on
/// as `Replica`), a hot-spot burst leaves in full frames (`InsertBatch`,
/// pushed on as `ReplicaBatch`), and both kinds must occur.
/// Oracle-checked and audited clean before returning the fingerprint
/// plus `(insert frames, of them InsertBatch)`.
pub fn replicated_replay_run(seed: u64) -> (Fingerprint, (u64, u64)) {
    let n = 8;
    let fault = FaultPlan::lossy(0.05).with_duplication(0.02);
    let mut cluster = build_batching(n, seed, fault, Replication::Level(1), 8);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2E91);
    let mut oracle = Vec::new();
    spray(&mut cluster, &mut rng, n, 80, 0, &mut oracle);
    for _ in 0..30 {
        let r = Record::new(vec![7, 1_234, 9]);
        oracle.push(r.clone());
        cluster.insert(NodeId(2), "chaos", r).unwrap();
    }
    cluster.run_for(120 * SECONDS);
    assert_matches_oracle(
        &mut cluster,
        NodeId(3),
        &oracle,
        &format!("seed {seed} replicated"),
    );
    let frames = metric_sum(&cluster, |m| {
        let f = m.insert_frames;
        f.idle + f.ack + f.size + f.age
    });
    let batches = metric_sum(&cluster, |m| m.insert_batches_sent);
    assert!(
        0 < batches && batches < frames,
        "seed {seed}: level 1 saw {batches} InsertBatch of {frames} insert frames"
    );
    let observed = observe(&mut cluster, NodeId(2));
    cluster
        .audit_settled()
        .assert_clean(&format!("seed {seed} replicated replay"));
    (observed, (frames, batches))
}

// ---- the churn world ----

/// World seed of the churn worlds (index sample, churn schedule, and sim
/// RNG all derive from it, so every published number replays).
pub const CHURN_SEED: u64 = 22;
/// The smoke world: the churn world's population and simulated span
/// (seconds) for the replay check and the pin file.
pub const SMOKE_WORLD: (usize, u64) = (1000, 120);

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

/// Builds and drives one churn world of `n` nodes for `span_secs`
/// simulated seconds: a constant ~100 inserts/s aggregate feed and a
/// query every 10 s under [`churn_plan`]. Returns its fingerprint and
/// the event plane's approximate peak memory in bytes.
pub fn run_world(n: usize, span_secs: u64, seed: u64) -> (Fingerprint, u64) {
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

    let memory = cluster.world().approx_peak_memory_bytes();
    (Fingerprint::read(&cluster, kind.tag(), Vec::new()), memory)
}
