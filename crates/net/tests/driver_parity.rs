//! The acceptance test for the `ClusterDriver` seam: ONE generic test
//! body — create index → insert burst → range query → crash/revive →
//! second burst → range query — runs unchanged over the deterministic
//! simulator (`World`) and over a fleet of real TCP hosts (`TcpFleet`),
//! answering oracle-exact in each. The sim variant additionally replays
//! byte-identically under the same seed.

use mind_core::{ClusterConfig, MindCluster, MindConfig, MindNode, Replication};
use mind_histogram::CutTree;
use mind_net::TcpFleet;
use mind_overlay::{OverlayConfig, StaticTopology};
use mind_types::node::{MILLIS, SECONDS};
use mind_types::{AttrDef, AttrKind, ClusterDriver, HyperRect, IndexSchema, NodeId, Record};

const N: usize = 8;
const INDEX: &str = "parity-flows";

fn schema() -> IndexSchema {
    IndexSchema::new(
        INDEX,
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1023),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
            AttrDef::new("size", AttrKind::Octets, 0, 1 << 20),
        ],
        3,
    )
}

fn burst(base_ts: u64, count: u64) -> Vec<Record> {
    (0..count)
        .map(|i| Record::new(vec![(i * 17) % 1024, base_ts + i, (i * 31) % (1 << 20)]))
        .collect()
}

fn sorted_values(records: &[Record]) -> Vec<Vec<u64>> {
    let mut v: Vec<Vec<u64>> = records.iter().map(|r| r.values().to_vec()).collect();
    v.sort();
    v
}

/// The shared test body. Oracle-exact at two checkpoints: the full-range
/// query after the first burst, and the second-burst range query after
/// node 5 crashed and rejoined fresh.
fn exercise<D: ClusterDriver<MindNode>>(cluster: &mut MindCluster<D>) -> Answers {
    // Create the index from node 0 and wait for the flood to land.
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 8);
    cluster
        .create_index(NodeId(0), s, cuts, Replication::Level(1))
        .expect("create_index");
    let settled = cluster.wait_until(30 * SECONDS, |c| {
        (0..N as u32).all(|k| c.read_node(NodeId(k), |n| !n.index_tags().is_empty()))
    });
    assert!(settled, "create_index flood never settled");

    // First burst, round-robin origins.
    let oracle1 = burst(100, 60);
    for (i, r) in oracle1.iter().enumerate() {
        cluster
            .insert(NodeId((i % N) as u32), INDEX, r.clone())
            .expect("insert");
    }
    let stored = cluster.wait_until(60 * SECONDS, |c| c.total_primary_rows(INDEX) == 60);
    assert!(stored, "first burst never fully stored");

    // Full-range query: perfect recall, oracle-exact.
    let full = HyperRect::new(vec![0, 0, 0], vec![1023, 86_400, 1 << 20]);
    let o1 = cluster
        .query_and_wait(NodeId(3), INDEX, full, vec![])
        .expect("query 1");
    assert!(o1.complete, "first query incomplete");
    let q1 = sorted_values(&o1.records);
    assert_eq!(q1, sorted_values(&oracle1), "first query diverges");

    // Crash node 5, let failure detection and takeover run, revive it,
    // and wait for the fresh rejoin (the PR 1 stale-membership
    // invariant: a revived node forgets its old membership).
    cluster.crash(NodeId(5));
    assert!(!cluster.is_alive(NodeId(5)));
    cluster.run_for(8 * SECONDS);
    cluster.revive(NodeId(5));
    let rejoined = cluster.wait_until(60 * SECONDS, |c| {
        c.read_node(NodeId(5), |n| n.overlay().is_member())
    });
    assert!(rejoined, "revived node never rejoined");

    // Second burst in a disjoint timestamp range, including the revived
    // node as an origin.
    let oracle2 = burst(10_000, 40);
    for (i, r) in oracle2.iter().enumerate() {
        cluster
            .insert(NodeId((i % N) as u32), INDEX, r.clone())
            .expect("insert 2");
    }
    let rect2 = HyperRect::new(vec![0, 10_000, 0], vec![1023, 10_039, 1 << 20]);
    let ok = cluster.wait_until(60 * SECONDS, |c| {
        c.query_and_wait(NodeId(5), INDEX, rect2.clone(), vec![])
            .map(|o| o.complete && o.records.len() == 40)
            .unwrap_or(false)
    });
    assert!(ok, "second burst never fully queryable");
    let o2 = cluster
        .query_and_wait(NodeId(5), INDEX, rect2, vec![])
        .expect("query 2");
    let q2 = sorted_values(&o2.records);
    assert_eq!(q2, sorted_values(&oracle2), "second query diverges");

    (q1, q2)
}

fn sim_cluster(seed: u64) -> MindCluster {
    let mut cfg = ClusterConfig::baseline(seed);
    cfg.sites.truncate(N);
    MindCluster::new(cfg)
}

/// The two answer sets of [`exercise`].
type Answers = (Vec<Vec<u64>>, Vec<Vec<u64>>);

fn sim_run(seed: u64) -> (Answers, String) {
    let mut cluster = sim_cluster(seed);
    let answers = exercise(&mut cluster);
    cluster.quiesce(300 * SECONDS);
    (answers, format!("{:?}", cluster.audit_snapshot()))
}

#[test]
fn same_body_over_simulator_is_oracle_exact_and_replays_identically() {
    let (a1, snap1) = sim_run(0xA11CE);
    let (a2, snap2) = sim_run(0xA11CE);
    assert_eq!(a1, a2, "same-seed replay diverged in query answers");
    assert_eq!(snap1, snap2, "same-seed replay diverged in final state");
}

#[test]
fn same_body_over_tcp_fleet_is_oracle_exact() {
    let topo = StaticTopology::balanced(N);
    // Wall-clock friendly knobs: fast heartbeats so failure detection
    // and rejoin settle in seconds, fast retries so TCP drops heal.
    let overlay_cfg = OverlayConfig {
        hb_interval: 200 * MILLIS,
        ..OverlayConfig::default()
    };
    let mind_cfg = MindConfig {
        retry_timeout: 300 * MILLIS,
        query_deadline: 20 * SECONDS,
        ..MindConfig::default()
    };
    let topo2 = topo.clone();
    let fleet = TcpFleet::spawn(N, move |id| {
        let k = id.0 as usize;
        MindNode::new_static(
            id,
            topo2.code(k),
            topo2.neighbor_entries(k),
            overlay_cfg,
            mind_cfg,
        )
    })
    .expect("fleet spawn");
    let mut cluster = MindCluster::from_parts(fleet, topo);
    exercise(&mut cluster);
    cluster.into_driver().shutdown();
}
