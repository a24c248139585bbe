//! Deployment + workload scaffolding shared by the figures.

use mind_core::{ClusterConfig, MindCluster, Replication};
use mind_histogram::CutTree;
use mind_netsim::topology::{abilene_sites, baseline_sites};
use mind_store::DacCostModel;
use mind_traffic::aggregate::aggregate_window;
use mind_traffic::anomaly::Anomaly;
use mind_traffic::generator::{TrafficConfig, TrafficGenerator};
use mind_traffic::schemas;
use mind_traffic::AggRecord;
use mind_types::node::{SimTime, SECONDS};
use mind_types::{HyperRect, IndexSchema, NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's aggregation window (seconds).
pub const WINDOW: u64 = 30;

/// Workload scale of one experiment run (`mind-figures --scale --hours`).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Multiplier on generated traffic volume (1.0 ≈ the figure default,
    /// which is well below the paper's 9 M records/day for runtime).
    pub volume: f64,
    /// Hours of trace to replay.
    pub hours: u64,
}

/// Which of the paper's three indices an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Index-1: fanout (scan/DoS detection).
    Fanout,
    /// Index-2: octets (alpha flows).
    Octets,
    /// Index-3: average flow size (tunneling detection).
    FlowSize,
}

impl IndexKind {
    /// The index tag.
    pub fn tag(self) -> &'static str {
        match self {
            IndexKind::Fanout => "index-1",
            IndexKind::Octets => "index-2",
            IndexKind::FlowSize => "index-3",
        }
    }

    /// The schema, with timestamps bounded by `ts_bound`.
    pub fn schema(self, ts_bound: u64) -> IndexSchema {
        match self {
            IndexKind::Fanout => schemas::index1_schema(ts_bound),
            IndexKind::Octets => schemas::index2_schema(ts_bound),
            IndexKind::FlowSize => schemas::index3_schema(ts_bound),
        }
    }

    /// Converts an aggregate to this index's record (filter applied).
    pub fn record(self, a: &AggRecord) -> Option<Record> {
        match self {
            IndexKind::Fanout => schemas::index1_record(a),
            IndexKind::Octets => schemas::index2_record(a),
            IndexKind::FlowSize => schemas::index3_record(a),
        }
    }

    /// The indexed 3-D point of an aggregate **without** the insert
    /// filter — the form the paper's motivation figures (2 and 3) bin,
    /// since they characterize the full traffic distribution.
    pub fn point(self, a: &AggRecord) -> [u64; 3] {
        let v = match self {
            IndexKind::Fanout => a.fanout,
            IndexKind::Octets => a.octets,
            IndexKind::FlowSize => a.avg_flow_size,
        };
        [
            a.dst_prefix as u64,
            a.window_start,
            v.min(self.value_bound()),
        ]
    }

    /// Upper bound of the third (value) dimension.
    pub fn value_bound(self) -> u64 {
        match self {
            IndexKind::Fanout => schemas::FANOUT_BOUND,
            IndexKind::Octets => schemas::OCTETS_BOUND,
            IndexKind::FlowSize => schemas::FLOW_SIZE_BOUND,
        }
    }
}

/// Generates and streams backbone traffic into a cluster at the paper's
/// 30-second cadence, mapping router `r` to cluster node `r`.
pub struct TrafficDriver {
    /// The synthetic backbone.
    pub generator: TrafficGenerator,
    /// Injected anomalies (empty outside the Section 5 experiment).
    pub anomalies: Vec<Anomaly>,
    /// Anomaly flow seed.
    pub anomaly_seed: u64,
}

impl TrafficDriver {
    /// The 34-router Abilene + GÉANT feed of the baseline experiment.
    pub fn abilene_geant(seed: u64, scale: ExperimentScale) -> Self {
        let mut cfg = TrafficConfig::abilene_geant(seed);
        cfg.flows_per_sec *= scale.volume;
        TrafficDriver {
            generator: TrafficGenerator::new(cfg),
            anomalies: vec![],
            anomaly_seed: seed,
        }
    }

    /// The 11-router Abilene-only feed of the Section 5 experiment.
    pub fn abilene_only(seed: u64, scale: ExperimentScale) -> Self {
        let cfg = TrafficConfig {
            seed,
            routers: 11,
            flows_per_sec: 40.0 * scale.volume,
            ..TrafficConfig::default()
        };
        TrafficDriver {
            generator: TrafficGenerator::new(cfg),
            anomalies: vec![],
            anomaly_seed: seed,
        }
    }

    /// Number of routers feeding the cluster.
    pub fn routers(&self) -> usize {
        self.generator.config().routers
    }

    /// Aggregated records for one `(day, window, router)` cell, including
    /// any anomaly flows on that router/time.
    pub fn window_aggregates(&self, day: u64, window_start: u64, router: u16) -> Vec<AggRecord> {
        let mut flows = self
            .generator
            .window_flows(day, window_start, WINDOW, router);
        for a in &self.anomalies {
            flows.extend(a.window_flows(self.anomaly_seed, window_start, WINDOW, router));
        }
        aggregate_window(&flows, window_start, WINDOW)
    }

    /// Streams `[start_sec, end_sec)` of day `day` into the cluster for
    /// the given indices, inserting each window's records from the node
    /// co-located with the observing router, in (simulated) real time.
    ///
    /// When `oracle` is provided, every inserted (conformed) record is
    /// also appended there — the centralized ground truth used for recall
    /// accounting.
    #[expect(
        clippy::too_many_arguments,
        reason = "the drive window is inherently wide"
    )]
    pub fn drive(
        &self,
        cluster: &mut MindCluster,
        kinds: &[IndexKind],
        day: u64,
        start_sec: u64,
        end_sec: u64,
        ts_bound: u64,
        mut oracle: Option<&mut Vec<(IndexKind, Record)>>,
    ) -> u64 {
        let base = cluster.now();
        let mut inserted = 0u64;
        let mut w = start_sec;
        while w < end_sec {
            // Simulated wall time tracks trace time.
            let t = base + (w - start_sec) * SECONDS;
            cluster.run_until(t);
            for r in 0..self.routers().min(cluster.len()) as u16 {
                for agg in self.window_aggregates(day, w, r) {
                    for &kind in kinds {
                        if let Some(rec) = kind.record(&agg) {
                            if let Some(oracle) = oracle.as_deref_mut() {
                                let schema = kind.schema(ts_bound);
                                // Store the conformed (clamped) form — the
                                // same bytes the cluster will store.
                                #[expect(
                                    clippy::unwrap_used,
                                    reason = "trace records conform by construction"
                                )]
                                oracle.push((kind, rec.clone().conform(&schema).unwrap()));
                            }
                            #[expect(
                                clippy::expect_used,
                                reason = "harness: a bad run must die loudly"
                            )]
                            cluster
                                .insert(NodeId(r as u32), kind.tag(), rec)
                                .expect("insert");
                            inserted += 1;
                        }
                    }
                }
            }
            w += WINDOW;
        }
        cluster.run_until(base + (end_sec - start_sec) * SECONDS);
        inserted
    }
}

/// A DAC cost model calibrated to the paper's prototype: a Java + MySQL
/// (JDBC) stack on 2004-era PlanetLab hardware. These costs, together
/// with heterogeneous host load, put simulated insertion medians in the
/// paper's 1–2 s band.
pub fn paper_dac_costs() -> DacCostModel {
    DacCostModel {
        batch_overhead: 120_000, // 120 ms: JDBC round trips + commit on a
        // CPU-starved PlanetLab slice
        per_insert: 6_000, // 6 ms per row insert
        per_query: 30_000, // 30 ms: SQL build + plan + scan start
        per_result: 150,
    }
}

/// Assigns PlanetLab-like load factors to a site list: ~70 % healthy
/// hosts, ~25 % moderately loaded, ~5 % badly overloaded (the paper's
/// recurring "experimental nature of the PlanetLab testbed").
pub fn planetlabify(sites: &mut [mind_netsim::Site], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50AD);
    for s in sites.iter_mut() {
        let roll: f64 = rng.random();
        s.load_factor = if roll < 0.70 {
            1.0
        } else if roll < 0.95 {
            rng.random_range(2.0..4.0)
        } else {
            rng.random_range(4.0..8.0)
        };
    }
}

/// The paper-calibrated per-node configuration used by the experiments.
pub fn paper_mind_config() -> mind_core::MindConfig {
    mind_core::MindConfig {
        dac_cost: paper_dac_costs(),
        dac_batch_size: 64,
        auto_versioning: false, // experiments install cuts explicitly
        ..mind_core::MindConfig::default()
    }
}

/// Builds the 34-node baseline cluster (Abilene + GÉANT cities) with
/// PlanetLab-like host load and prototype-like storage costs.
pub fn baseline_cluster(seed: u64) -> MindCluster {
    let mut cfg = ClusterConfig::baseline(seed);
    cfg.sites = baseline_sites();
    planetlabify(&mut cfg.sites, seed);
    cfg.mind = paper_mind_config();
    // 2004-era PlanetLab slices: starved CPU (multi-ms per message once
    // scheduling delay is charged) and capped slice bandwidth.
    cfg.sim.node_service = 18_000;
    cfg.sim.link_bytes_per_sec = 1_000_000;
    MindCluster::new(cfg)
}

/// Builds the 11-node Abilene-congruent cluster of Section 5.
pub fn abilene_cluster(seed: u64) -> MindCluster {
    let mut cfg = ClusterConfig::baseline(seed);
    cfg.sites = abilene_sites();
    planetlabify(&mut cfg.sites, seed);
    cfg.mind = paper_mind_config();
    cfg.sim.node_service = 12_000;
    cfg.sim.link_bytes_per_sec = 1_000_000;
    MindCluster::new(cfg)
}

/// Schedules `count` random transient link outages across the next
/// `span` of simulated time — the routing transients the paper kept
/// running into on PlanetLab (Section 3.8, Figures 8 and 11).
pub fn inject_random_outages(cluster: &mut MindCluster, seed: u64, count: usize, span: SimTime) {
    let n = cluster.len() as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007A6E);
    let base = cluster.now();
    for _ in 0..count {
        let a = NodeId(rng.random_range(0..n));
        let b = NodeId(rng.random_range(0..n));
        if a == b {
            continue;
        }
        let at = base + rng.random_range(0..span.max(1));
        let duration = rng.random_range(5u64..60) * SECONDS;
        cluster.world_mut().schedule_link_outage(a, b, at, duration);
    }
}

/// Computes balanced cuts for an index from a sampled day of traffic —
/// the off-line analysis the paper performs before its experiments.
pub fn balanced_cuts(
    kind: IndexKind,
    driver: &TrafficDriver,
    ts_bound: u64,
    depth: u8,
    sample_start: u64,
    sample_end: u64,
) -> CutTree {
    let schema = kind.schema(ts_bound);
    let bounds = schema.bounds();
    let mut pts: Vec<Vec<u64>> = Vec::new();
    // Sample ~1 window in 8 across the period from every router.
    let mut w = sample_start;
    while w < sample_end.min(ts_bound) {
        for r in 0..driver.routers() as u16 {
            for agg in driver.window_aggregates(0, w, r) {
                if let Some(rec) = kind.record(&agg) {
                    #[expect(clippy::unwrap_used, reason = "trace records conform by construction")]
                    let rec = rec.conform(&schema).unwrap();
                    pts.push(rec.point(schema.indexed_dims).to_vec());
                }
            }
        }
        w += WINDOW * 8;
    }
    let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
    CutTree::balanced_from_points(bounds, depth, &refs)
}

/// A synthetic Index-1 point (the feed of `fig14_large_scale` and
/// `bench_sim`): Zipf-block destination prefix, recent timestamp,
/// light-tailed fanout above the insert threshold.
///
/// Records are pre-aggregated over the trailing five minutes, so their
/// timestamps spread across a 300 s window behind the insertion instant.
/// Without that spread every record inserted at the same moment carries
/// the same timestamp, the whole stream lands in one time slice of the
/// cut tree, and the few nodes owning that slice become a moving
/// hotspot that saturates while the rest of the overlay idles.
pub fn synth_point(rng: &mut StdRng, sec: u64) -> Vec<u64> {
    // Zipf-ish rank via inverse power draw.
    let u: f64 = rng.random_range(0.0f64..1.0).max(1e-9);
    let rank = ((u.powf(-0.8) - 1.0) * 8.0) as u64 % 512;
    let block = (rank / 64) % 8;
    let slot = rank % 64;
    // Host bits below the /16 prefix: without them the Zipf head is a
    // point mass (~14% of records carry one exact key) that no cut tree
    // can split, and the single node owning it saturates.
    let host = rng.random_range(0..1u64 << 16);
    let prefix = ((block * 8192 + slot * 128 + rank % 128) << 16) | host;
    let fanout = 16 + (u.powf(-0.5) * 4.0) as u64 % 4000;
    let ts = sec + rng.random_range(0..300u64);
    vec![prefix, ts, fanout]
}

/// A full-coverage monitoring query over the last five minutes before
/// `t_now`: every non-time attribute is wildcarded (the whole range), the
/// timestamp is the paper's standing 5-minute window.
pub fn monitoring_query(kind: IndexKind, t_now: u64) -> HyperRect {
    HyperRect::new(
        vec![0, t_now.saturating_sub(300), 0],
        vec![u32::MAX as u64, t_now, kind.value_bound()],
    )
}

/// Creates an index on the cluster and lets the flood settle.
pub fn install_index(
    cluster: &mut MindCluster,
    kind: IndexKind,
    cuts: CutTree,
    ts_bound: u64,
    replication: Replication,
) {
    #[expect(clippy::expect_used, reason = "harness: a bad run must die loudly")]
    cluster
        .create_index(NodeId(0), kind.schema(ts_bound), cuts, replication)
        .expect("create index");
    cluster.run_for(20 * SECONDS);
}

/// One of the paper's uniform monitoring queries: every non-time
/// attribute range is chosen uniformly at random (so some queries are
/// large and some small), the timestamp range is the last five minutes
/// before `t_now` (Section 4.1).
pub fn random_query(kind: IndexKind, rng: &mut StdRng, t_now: u64) -> HyperRect {
    let pfx = u32::MAX as u64;
    let (p1, p2) = (rng.random_range(0..=pfx), rng.random_range(0..=pfx));
    let vmax = kind.value_bound();
    let (v1, v2) = (rng.random_range(0..=vmax), rng.random_range(0..=vmax));
    let t_lo = t_now.saturating_sub(300);
    HyperRect::new(
        vec![p1.min(p2), t_lo, v1.min(v2)],
        vec![p1.max(p2), t_now, v1.max(v2)],
    )
}

/// Ground-truth evaluation of a query against the oracle records.
pub fn oracle_answer(
    oracle: &[(IndexKind, Record)],
    kind: IndexKind,
    rect: &HyperRect,
) -> Vec<Record> {
    let dims = rect.dims();
    oracle
        .iter()
        .filter(|(k, r)| *k == kind && rect.contains_point(r.point(dims)))
        .map(|(_, r)| r.clone())
        .collect()
}

/// `true` when a distributed answer matches the oracle as a multiset.
pub fn answers_match(mut got: Vec<Record>, mut want: Vec<Record>) -> bool {
    let key = |r: &Record| r.values().to_vec();
    got.sort_by_key(key);
    want.sort_by_key(key);
    got == want
}

/// Runs one independent world per input on `std::thread` scoped threads
/// and returns the outputs in input order.
///
/// Every simulated world is deterministic in isolation (seeded RNGs,
/// virtual clock), so figures sweeping `(series, seed)` grids can
/// fan the worlds out across cores without changing a single output row.
/// The inputs are split into contiguous chunks, one per worker, and the
/// per-chunk results concatenated in chunk order — no locks, and the
/// result order cannot depend on thread scheduling.
pub fn run_seeds_parallel<I, O, F>(inputs: &[I], job: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    if inputs.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, inputs.len());
    let chunk = inputs.len().div_ceil(workers);
    let job = &job;
    let mut out = Vec::with_capacity(inputs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(job).collect::<Vec<O>>()))
            .collect();
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "a panicking world must abort the figure run"
            )]
            out.extend(h.join().expect("a parallel world panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_worlds_match_sequential_rows() {
        // The figures rely on this: fanning worlds out across
        // threads must leave every output row byte-identical to a
        // sequential run over the same inputs.
        let inputs: Vec<u64> = (0..23).collect();
        let par: Vec<String> = run_seeds_parallel(&inputs, |&i| format!("row {i}: {}", i * i));
        let seq: Vec<String> = inputs
            .iter()
            .map(|&i| format!("row {i}: {}", i * i))
            .collect();
        assert_eq!(par, seq);
        assert!(run_seeds_parallel(&Vec::<u64>::new(), |_| 0u8).is_empty());
    }

    #[test]
    fn driver_produces_windows() {
        let d = TrafficDriver::abilene_geant(
            1,
            ExperimentScale {
                volume: 0.5,
                hours: 1,
            },
        );
        let aggs = d.window_aggregates(0, 43_200, 0);
        assert!(
            !aggs.is_empty(),
            "midday Abilene window should have traffic"
        );
        // Abilene router 0 sees much more than GÉANT router 20.
        let geant = d.window_aggregates(0, 43_200, 20);
        assert!(aggs.len() >= geant.len());
    }

    #[test]
    fn random_queries_have_five_minute_windows() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q = random_query(IndexKind::Fanout, &mut rng, 10_000);
            assert_eq!(q.dims(), 3);
            assert_eq!(q.hi(1) - q.lo(1), 300);
            assert!(q.lo(0) <= q.hi(0));
            assert!(q.lo(2) <= q.hi(2));
        }
    }

    #[test]
    fn oracle_and_matching() {
        let r1 = Record::new(vec![5, 100, 50, 0, 0]);
        let r2 = Record::new(vec![500, 100, 50, 0, 0]);
        let oracle = vec![(IndexKind::Fanout, r1.clone()), (IndexKind::Fanout, r2)];
        let rect = HyperRect::new(vec![0, 0, 0], vec![100, 200, 100]);
        let ans = oracle_answer(&oracle, IndexKind::Fanout, &rect);
        assert_eq!(ans.len(), 1);
        assert!(answers_match(ans.clone(), vec![r1]));
        assert!(!answers_match(ans, vec![]));
    }

    #[test]
    fn end_to_end_drive_small() {
        let scale = ExperimentScale {
            volume: 0.2,
            hours: 1,
        };
        let driver = TrafficDriver::abilene_geant(3, scale);
        let mut cluster = baseline_cluster(3);
        let cuts = balanced_cuts(IndexKind::Octets, &driver, 86_400, 10, 43_200, 43_500);
        install_index(
            &mut cluster,
            IndexKind::Octets,
            cuts,
            86_400,
            Replication::None,
        );
        let mut oracle = Vec::new();
        let n = driver.drive(
            &mut cluster,
            &[IndexKind::Octets],
            0,
            43_200,
            43_200 + 300,
            86_400,
            Some(&mut oracle),
        );
        cluster.run_for(60 * SECONDS);
        assert!(
            n > 0,
            "five minutes of traffic should produce index-2 records"
        );
        assert_eq!(oracle.len() as u64, n);
        assert_eq!(cluster.total_primary_rows("index-2"), n);
    }
}
