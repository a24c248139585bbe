//! `sim_churn`: `bench_sim`'s 1,000-node churn world, driven for a fixed
//! simulated span.
//!
//! The world — sites, host load, the crash/revive schedule, the
//! simulator's own jitter — is pinned by [`WORLD_SEED`]; `--seed` drives
//! only the rows and queries fed into it. Everything counted or timed on
//! the simulated clock therefore repeats exactly for one seed; only the
//! wall clock varies.

use crate::gen::{Query, Row, INDEX};
use crate::probe::Probe;
use mind_core::{ClusterConfig, MindCluster, MindConfig, Replication};
use mind_histogram::CutTree;
use mind_netsim::{FaultPlan, SimConfig};
use mind_overlay::OverlayConfig;
use mind_store::{DacCostModel, StoreKind};
use mind_types::node::{SimTime, SECONDS};
use mind_types::{HyperRect, NodeId};

/// Hosts in the world.
pub const SIM_NODES: usize = 1000;
/// Seed of the world itself (as `bench_sim`).
pub const WORLD_SEED: u64 = 22;
/// Simulated seconds the index flood is given to settle (part of set-up).
const SETTLE_SECS: u64 = 20;
/// Simulated seconds run after the feed stops, so in-flight work lands:
/// one 30 s retry and its storage queue, or a query's 60 s deadline.
const DRAIN_SECS: u64 = 100;
/// A node this close to its scheduled crash originates nothing: an insert
/// dies with its origin (nothing retries it), and the workload must have
/// no operation that fails by design. Rows in flight to a crashing
/// *owner* are the protocol's to recover, and are held to it.
const QUIET_BEFORE_CRASH: SimTime = 15 * SECONDS;
/// Aggregate feed, rows per simulated second.
pub const FEED_ROWS_PER_S: u64 = 100;
/// Simulated seconds per rate slice.
pub const SLICE_SECS: u64 = 30;

/// One line naming the pinned world, for the header.
pub fn config_line() -> String {
    format!(
        "nodes={SIM_NODES} world_seed={WORLD_SEED} store=kdtree replication=level1 \
         node_service_us={NODE_SERVICE_US} link_bytes_per_s=1000000 retry_s=30 churn_every_s=20 \
         feed_rows_per_sim_s={FEED_ROWS_PER_S} queries_per_sim_s=1 slice_sim_s={SLICE_SECS}"
    )
}

/// `bench_sim`'s churn schedule: every 20 simulated seconds one node
/// (never node 0) crashes for 40–80 s and revives, never overlapping per
/// node. Drawn from the benchmark's own generator under the world seed.
fn churn_plan(span_secs: u64) -> FaultPlan {
    let n = SIM_NODES as u32;
    let mut rng = crate::gen::Rng::new(WORLD_SEED, 0xC0FF_EE00);
    let mut plan = FaultPlan::default();
    let mut busy_until = vec![0u64; n as usize];
    let mut sec = 30u64;
    while sec + 90 < span_secs + 30 {
        let victim = 1 + rng.below(n as u64 - 1) as u32;
        if busy_until[victim as usize] <= sec {
            let down = 40 + rng.below(40);
            plan = plan.with_crash(NodeId(victim), sec * SECONDS, Some((sec + down) * SECONDS));
            busy_until[victim as usize] = sec + down + 5;
        }
        sec += 20;
    }
    plan
}

/// Per-message handling time on a healthy host, µs (`SimConfig`'s own
/// default; a loaded PlanetLab host takes up to 8× that). `bench_sim`
/// models 1 ms, and at 1 ms this world sits next to a tipping point: a
/// node that takes over a crashed neighbour's region hears ~200 heartbeats
/// and takeover announcements a second, a host of the 3–4× load tier
/// serves 230–340, and in one seed in twenty the backlog outgrew the
/// heartbeat timeout, the neighbours declared the node dead, and the
/// overlay spent the rest of the run in a takeover storm (retries ×100,
/// queries incomplete). Which seed tips is chaotic, not a property of
/// the code, so the workload stays clear of it.
pub const NODE_SERVICE_US: SimTime = 300;

/// `bench_sim`'s world configuration, spelled out (no `MIND_*` variable
/// is read): the paper-calibrated DAC costs, a 30 s retry timeout,
/// [`NODE_SERVICE_US`] per message, 1 MB/s links, per-link counters off.
fn world_config(span_secs: u64) -> ClusterConfig {
    ClusterConfig {
        sim: SimConfig {
            seed: WORLD_SEED,
            node_service: NODE_SERVICE_US,
            link_bytes_per_sec: 1_000_000,
            link_stats: false,
            fault: churn_plan(span_secs + SETTLE_SECS),
            ..SimConfig::default()
        },
        overlay: OverlayConfig::default(),
        mind: MindConfig {
            dac_cost: DacCostModel {
                batch_overhead: 120_000,
                per_insert: 6_000,
                per_query: 30_000,
                per_result: 150,
            },
            store_kind: StoreKind::KdTree,
            dac_batch_size: 64,
            auto_versioning: false,
            retry_timeout: 30 * SECONDS,
            metrics_samples_max: 100_000,
            ..MindConfig::default()
        },
        sites: mind_netsim::planetlab_sites(SIM_NODES, WORLD_SEED),
    }
}

/// Set-up: build the world, create the index, let the flood settle.
pub fn setup(cuts: &CutTree, span_secs: u64) -> Result<MindCluster, String> {
    let mut cluster = MindCluster::new(world_config(span_secs));
    cluster
        .create_index(
            NodeId(0),
            crate::gen::schema(),
            cuts.clone(),
            Replication::Level(1),
        )
        .map_err(|e| format!("create_index: {e}"))?;
    cluster.run_for(SETTLE_SECS * SECONDS);
    Ok(cluster)
}

/// Rows of the feed carry the simulated second they were observed in
/// (plus the generator's spread over a trailing 5-minute window), so the
/// "last five minutes" queries ask about fresh traffic.
pub fn feed_row(row: &Row, sec: u64) -> Row {
    Row {
        ts: (sec + row.ts as u64 % 300) as u32,
        ..*row
    }
}

/// The monitoring query issued at simulated second `sec`: the generated
/// prefix range and size floor over the last five minutes.
pub fn feed_query(q: &Query, sec: u64) -> HyperRect {
    HyperRect::new(
        vec![q.rect.lo(0), sec.saturating_sub(300), q.rect.lo(2)],
        vec![q.rect.hi(0), sec, q.rect.hi(2)],
    )
}

/// Balanced cuts for the feed: the generated rows spread over the
/// simulated span they will be observed in.
pub fn feed_cuts(seed: u64, rows: &[Row], span_secs: u64) -> CutTree {
    let mut rng = crate::gen::Rng::new(seed, 7);
    let sample: Vec<[u64; 3]> = (0..4000)
        .map(|_| {
            let row = &rows[rng.below(rows.len() as u64) as usize];
            feed_row(row, rng.below(span_secs)).point()
        })
        .collect();
    let refs: Vec<&[u64]> = sample.iter().map(|p| p.as_slice()).collect();
    CutTree::balanced_from_points(crate::gen::schema().bounds(), crate::gen::CUT_DEPTH, &refs)
}

/// What the measured phase produced.
pub struct SimRun {
    /// Wall seconds at each slice boundary (first entry: phase start).
    pub slice_wall: Vec<f64>,
    /// The probe's clock at each slice boundary, µs.
    pub slice_probe_us: Vec<u64>,
    /// Simulated time the phase started.
    pub started_at: SimTime,
    /// Rows handed to live origins.
    pub rows_issued: u64,
    /// `(origin, query id, index into the query list, second issued)`.
    pub queries_issued: Vec<(NodeId, u64, usize, u64)>,
    /// Wall seconds of the whole phase, drain included.
    pub wall_s: f64,
}

/// Drives the feed for `span_secs` simulated seconds: each second one
/// cohort of nodes inserts a row each, staggered across the second, and
/// one range query leaves a rotating origin; then drains.
pub fn drive(
    cluster: &mut MindCluster,
    rows: &[Row],
    queries: &[Query],
    span_secs: u64,
    probe: &mut Probe,
) -> SimRun {
    let n = SIM_NODES as u64;
    let period = n / FEED_ROWS_PER_S;
    let base = cluster.now();
    let t0 = crate::wall();
    let mut run = SimRun {
        slice_wall: vec![0.0],
        slice_probe_us: vec![probe.now_us()],
        started_at: base,
        rows_issued: 0,
        queries_issued: Vec::new(),
        wall_s: 0.0,
    };
    let mut crash_times = vec![Vec::new(); SIM_NODES];
    for c in churn_plan(span_secs + SETTLE_SECS).crashes {
        crash_times[c.node.0 as usize].push(c.crash_at);
    }
    let may_originate = |cluster: &MindCluster, k: NodeId| {
        let now = cluster.now();
        cluster.is_alive(k)
            && !crash_times[k.0 as usize]
                .iter()
                .any(|&at| at > now && at <= now + QUIET_BEFORE_CRASH)
    };
    let mut next_row = 0;
    for sec in 0..span_secs {
        let t = base + sec * SECONDS;
        let cohort: Vec<u32> = (0..n as u32)
            .filter(|&k| k as u64 % period == sec % period)
            .collect();
        let stagger = SECONDS / cohort.len().max(1) as u64;
        for (i, &k) in cohort.iter().enumerate() {
            cluster.run_until(t + i as u64 * stagger);
            // The simulator is one thread: the probe shares it, and so
            // sees exactly the host this slice saw.
            probe.tick();
            let seq = next_row;
            next_row += 1;
            if may_originate(cluster, NodeId(k)) && seq < rows.len() {
                let row = feed_row(&rows[seq], sec);
                if cluster
                    .insert(NodeId(k), INDEX, row.record(seq as u64))
                    .is_ok()
                {
                    run.rows_issued += 1;
                }
            }
        }
        let at = NodeId((sec * 31 % n) as u32);
        let qi = sec as usize % queries.len().max(1);
        if may_originate(cluster, at) && !queries.is_empty() {
            if let Ok(qid) = cluster.query(at, INDEX, feed_query(&queries[qi], sec), vec![]) {
                run.queries_issued.push((at, qid, qi, sec));
            }
        }
        if (sec + 1) % SLICE_SECS == 0 {
            cluster.run_until(base + (sec + 1) * SECONDS);
            run.slice_wall.push(t0.elapsed().as_secs_f64());
            run.slice_probe_us.push(probe.now_us());
        }
    }
    cluster.run_until(base + span_secs * SECONDS);
    cluster.run_for(DRAIN_SECS * SECONDS);
    run.wall_s = t0.elapsed().as_secs_f64();
    run
}
