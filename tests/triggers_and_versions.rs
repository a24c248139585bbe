//! Standing queries (triggers) and version lifecycle across the full
//! system: the paper's footnote-1 extension and the version aging it
//! deferred to future work.

use mind::core::{CarriedFilter, ClusterConfig, MindCluster, Replication};
use mind::histogram::CutTree;
use mind::netsim::Partition;
use mind::types::node::SECONDS;
use mind::types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};

fn schema() -> IndexSchema {
    IndexSchema::new(
        "watched",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 10_000),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400 * 7),
            AttrDef::new("size", AttrKind::Octets, 0, 1 << 20),
            AttrDef::new("port", AttrKind::Port, 0, u16::MAX as u64),
        ],
        3,
    )
}

fn build(n: usize, seed: u64) -> MindCluster {
    let mut cluster = MindCluster::new(ClusterConfig::planetlab(n, seed));
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 9);
    cluster
        .create_index(NodeId(0), s, cuts, Replication::Level(1))
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster.audit_settled().assert_clean("after index build");
    cluster
}

#[test]
fn trigger_fires_for_matching_inserts_from_any_node() {
    let n = 12;
    let mut cluster = build(n, 51);
    // Node 3 subscribes: "tell me about anything with size >= 1000 in
    // x ∈ [100, 200]".
    let rect = HyperRect::new(vec![100, 0, 1000], vec![200, 86_400 * 7, 1 << 20]);
    let tid = cluster
        .create_trigger(NodeId(3), "watched", rect, vec![])
        .unwrap();
    cluster.run_for(20 * SECONDS);

    // Matching and non-matching inserts from various nodes.
    cluster
        .insert(NodeId(0), "watched", Record::new(vec![150, 10, 5000, 80]))
        .unwrap();
    cluster
        .insert(NodeId(5), "watched", Record::new(vec![150, 20, 50, 80]))
        .unwrap(); // size too small
    cluster
        .insert(NodeId(9), "watched", Record::new(vec![500, 30, 5000, 80]))
        .unwrap(); // x outside
    cluster
        .insert(NodeId(11), "watched", Record::new(vec![199, 40, 2000, 443]))
        .unwrap();
    cluster.run_for(60 * SECONDS);

    let log = cluster.trigger_log(NodeId(3));
    assert_eq!(
        log.len(),
        2,
        "exactly the two matching inserts fire: {log:?}"
    );
    assert!(log.iter().all(|(id, _, _)| *id == tid));
    let mut xs: Vec<u64> = log.iter().map(|(_, _, r)| r.value(0)).collect();
    xs.sort_unstable();
    assert_eq!(xs, vec![150, 199]);
    // No other node received notifications.
    for k in 0..n as u32 {
        if k != 3 {
            assert!(
                cluster.trigger_log(NodeId(k)).is_empty(),
                "node {k} got stray alerts"
            );
        }
    }
}

#[test]
fn trigger_carried_filters_and_drop() {
    let mut cluster = build(8, 52);
    // Only port-80 traffic is interesting (port is a carried attribute).
    let rect = HyperRect::new(vec![0, 0, 0], vec![10_000, 86_400 * 7, 1 << 20]);
    let tid = cluster
        .create_trigger(
            NodeId(1),
            "watched",
            rect,
            vec![CarriedFilter {
                attr: 3,
                lo: 80,
                hi: 80,
            }],
        )
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster
        .insert(NodeId(0), "watched", Record::new(vec![1, 1, 1, 80]))
        .unwrap();
    cluster
        .insert(NodeId(0), "watched", Record::new(vec![2, 2, 2, 443]))
        .unwrap();
    cluster.run_for(40 * SECONDS);
    assert_eq!(cluster.trigger_log(NodeId(1)).len(), 1);

    // After dropping, nothing more fires.
    cluster.drop_trigger(NodeId(1), tid);
    cluster.run_for(20 * SECONDS);
    cluster
        .insert(NodeId(0), "watched", Record::new(vec![3, 3, 3, 80]))
        .unwrap();
    cluster.run_for(40 * SECONDS);
    assert_eq!(
        cluster.trigger_log(NodeId(1)).len(),
        1,
        "dropped trigger must not fire"
    );
}

#[test]
fn trigger_survives_region_takeover() {
    let n = 16;
    let mut cluster = build(n, 53);
    let rect = HyperRect::new(vec![0, 0, 0], vec![10_000, 86_400 * 7, 1 << 20]);
    let _tid = cluster
        .create_trigger(NodeId(2), "watched", rect, vec![])
        .unwrap();
    cluster.run_for(20 * SECONDS);
    // Find the owner of a probe record's region and kill it; after the
    // sibling takes over, a matching insert must still fire the trigger.
    let probe = Record::new(vec![4242, 100, 500, 80]);
    cluster.insert(NodeId(0), "watched", probe).unwrap();
    cluster.run_for(30 * SECONDS);
    let owner = (0..n)
        .find(|&k| {
            cluster
                .world()
                .node(NodeId(k as u32))
                .index_state("watched")
                .map(|s| s.primary_rows() > 0)
                .unwrap_or(false)
        })
        .expect("someone stores the probe") as u32;
    let before = cluster.trigger_log(NodeId(2)).len();
    if owner != 2 {
        cluster.crash(NodeId(owner));
        cluster.run_for(60 * SECONDS);
        cluster.audit_settled().assert_clean("after owner takeover");
        let origin = (0..n as u32).find(|&k| k != owner && k != 2).unwrap();
        cluster
            .insert(
                NodeId(origin),
                "watched",
                Record::new(vec![4243, 200, 600, 80]),
            )
            .unwrap();
        cluster.run_for(60 * SECONDS);
        assert!(
            cluster.trigger_log(NodeId(2)).len() > before,
            "trigger must fire at the takeover node"
        );
    }
}

#[test]
fn version_gc_drops_aged_data_only() {
    // Default MindConfig has auto-versioning on: shipping day histograms
    // makes the collector flood a version-1 with balanced cuts effective
    // from day 1.
    let mut cluster = build(10, 54);
    // Day-0 records.
    for i in 0..20u64 {
        cluster
            .insert(
                NodeId((i % 10) as u32),
                "watched",
                Record::new(vec![i * 13 % 10_000, 100 + i, 10, 80]),
            )
            .unwrap();
        if i % 5 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    cluster.report_day_histograms("watched", 0);
    cluster.run_for(120 * SECONDS);
    // Version rollover must keep versions monotone and agreed everywhere.
    cluster
        .audit_settled()
        .assert_clean("after version rollover");
    for k in 0..10u32 {
        assert_eq!(
            cluster
                .world()
                .node(NodeId(k))
                .index_state("watched")
                .unwrap()
                .versions
                .len(),
            2,
            "node {k} missing auto-installed version"
        );
    }
    // Day-1 records land in version 1.
    for i in 0..20u64 {
        cluster
            .insert(
                NodeId((i % 10) as u32),
                "watched",
                Record::new(vec![i * 17 % 10_000, 86_400 + i, 10, 80]),
            )
            .unwrap();
        if i % 5 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    assert_eq!(cluster.total_primary_rows("watched"), 40);

    // Age out day 0: version 0's range ends at 86_399 < 90_000.
    let collected = cluster.gc_versions("watched", 90_000);
    assert!(collected > 0, "version 0 must be collected somewhere");
    // GC leaves tombstones: version numbering and monotonicity intact.
    cluster.audit_settled().assert_clean("after version gc");
    assert_eq!(
        cluster.total_primary_rows("watched"),
        20,
        "day-0 rows gone, day-1 rows intact"
    );
    // Queries over the aged range now come back empty (but complete);
    // queries over day 1 are unaffected.
    let old = HyperRect::new(vec![0, 0, 0], vec![10_000, 86_399, 1 << 20]);
    let o = cluster
        .query_and_wait(NodeId(4), "watched", old, vec![])
        .unwrap();
    assert!(o.complete);
    assert!(o.records.is_empty(), "aged data must be gone");
    let new_q = HyperRect::new(vec![0, 86_400, 0], vec![10_000, 86_500, 1 << 20]);
    let o = cluster
        .query_and_wait(NodeId(4), "watched", new_q, vec![])
        .unwrap();
    assert!(o.complete);
    assert_eq!(o.records.len(), 20);
    // GC is idempotent.
    assert_eq!(cluster.gc_versions("watched", 90_000), 0);
}

#[test]
fn a_dropped_index_stays_dropped_after_a_node_that_missed_the_drop_returns() {
    let mut cluster = build(8, 5);
    cluster.crash(NodeId(3));
    cluster.run_for(20 * SECONDS);
    cluster
        .world_mut()
        .with_node(NodeId(0), |n, _t, out| n.drop_index("watched", out))
        .unwrap();
    cluster.run_for(20 * SECONDS);
    // Node 3 comes back with the index in its kept catalog; anti-entropy
    // must retire it there instead of handing it back to everyone.
    cluster.revive(NodeId(3));
    cluster.run_for(300 * SECONDS);
    for k in 0..8u32 {
        assert!(
            cluster.world().node(NodeId(k)).index_tags().is_empty(),
            "node {k} has the dropped index again"
        );
    }
}

#[test]
fn a_dropped_trigger_stays_dropped_after_a_node_that_missed_the_drop_returns() {
    let mut cluster = build(8, 5);
    let rect = HyperRect::new(vec![0, 0, 0], vec![10_000, 86_400 * 7, 1 << 20]);
    let tid = cluster
        .create_trigger(NodeId(1), "watched", rect, vec![])
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster.crash(NodeId(3));
    cluster.run_for(20 * SECONDS);
    cluster.drop_trigger(NodeId(0), tid);
    cluster.run_for(20 * SECONDS);
    cluster.revive(NodeId(3));
    cluster.run_for(300 * SECONDS);
    for k in 0..8u32 {
        cluster
            .insert(NodeId(k), "watched", Record::new(vec![k as u64, 1, 1, 80]))
            .unwrap();
    }
    cluster.run_for(60 * SECONDS);
    assert!(
        cluster.trigger_log(NodeId(1)).is_empty(),
        "the dropped trigger fired again: {:?}",
        cluster.trigger_log(NodeId(1))
    );
}

#[test]
fn a_tag_recreated_while_a_node_was_down_reaches_it() {
    // Node 3 sees the drop, misses the re-create, and must not hand its
    // stale drop back to the nodes that saw the re-create.
    let mut cluster = build(8, 5);
    cluster
        .world_mut()
        .with_node(NodeId(0), |n, _t, out| n.drop_index("watched", out))
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster.crash(NodeId(3));
    cluster.run_for(20 * SECONDS);
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 9);
    cluster
        .create_index(NodeId(0), s, cuts, Replication::Level(1))
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster.revive(NodeId(3));
    cluster.run_for(300 * SECONDS);
    for k in 0..8u32 {
        assert_eq!(
            cluster.world().node(NodeId(k)).index_tags(),
            vec!["watched".to_string()],
            "node {k} lacks the re-created index"
        );
    }
}

#[test]
fn a_trigger_created_after_a_drop_and_a_restart_fires() {
    // The origin drops a trigger, restarts, and subscribes again: the
    // drop must not shadow the new subscription anywhere.
    let mut cluster = build(8, 5);
    let rect = HyperRect::new(vec![0, 0, 0], vec![10_000, 86_400 * 7, 1 << 20]);
    let old = cluster
        .create_trigger(NodeId(1), "watched", rect.clone(), vec![])
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster.drop_trigger(NodeId(1), old);
    cluster.run_for(20 * SECONDS);
    cluster.crash(NodeId(1));
    cluster.run_for(20 * SECONDS);
    cluster.revive(NodeId(1));
    cluster.run_for(60 * SECONDS);
    let new = cluster
        .create_trigger(NodeId(1), "watched", rect, vec![])
        .unwrap();
    cluster.run_for(60 * SECONDS);
    for k in 0..8u32 {
        cluster
            .insert(NodeId(k), "watched", Record::new(vec![k as u64, 1, 1, 80]))
            .unwrap();
    }
    cluster.run_for(60 * SECONDS);
    let log = cluster.trigger_log(NodeId(1));
    assert_eq!(log.len(), 8, "one notification per insert: {log:?}");
    assert!(log.iter().all(|(id, _, _)| *id == new));
}

#[test]
fn a_live_node_that_loses_a_recreate_flood_learns_it_from_its_peers() {
    // Node 3 stays up and sees the drop, but its links are down while the
    // tag is created again: anti-entropy must bring the new index to it,
    // and must not take it from anyone else.
    let mut cluster = build(8, 5);
    cluster
        .world_mut()
        .with_node(NodeId(0), |n, _t, out| n.drop_index("watched", out))
        .unwrap();
    cluster.run_for(20 * SECONDS);
    let now = cluster.now();
    cluster
        .world_mut()
        .fault_plan_mut()
        .partitions
        .push(Partition {
            island: vec![NodeId(3)],
            cut_at: now,
            heal_at: now + 2 * SECONDS,
        });
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 9);
    cluster
        .create_index(NodeId(0), s, cuts, Replication::Level(1))
        .unwrap();
    cluster.run_for(2 * SECONDS);
    assert!(
        cluster.world().node(NodeId(3)).index_tags().is_empty(),
        "node 3 must miss the flood"
    );
    cluster.run_for(300 * SECONDS);
    for k in 0..8u32 {
        assert_eq!(
            cluster.world().node(NodeId(k)).index_tags(),
            vec!["watched".to_string()],
            "node {k} lacks the re-created index"
        );
    }
}
