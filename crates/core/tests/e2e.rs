//! End-to-end MIND system tests: create → insert → query across a
//! simulated wide-area deployment, with replication, failures, versioning
//! and carried-attribute filters.

use mind_core::{CarriedFilter, ClusterConfig, MindCluster, Replication};
use mind_histogram::CutTree;
use mind_types::node::SECONDS;
use mind_types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};

fn test_schema() -> IndexSchema {
    IndexSchema::new(
        "flows",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1023),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400 * 7),
            AttrDef::new("size", AttrKind::Octets, 0, 1 << 20),
            AttrDef::new("carried", AttrKind::Generic, 0, u64::MAX),
        ],
        3,
    )
}

/// A small cluster with the index created and the flood settled.
fn cluster_with_index(n_sites: usize, seed: u64, replication: Replication) -> MindCluster {
    let cfg = ClusterConfig::planetlab(n_sites, seed);
    let mut cluster = MindCluster::new(cfg);
    let schema = test_schema();
    let cuts = CutTree::even(schema.bounds(), 8);
    cluster
        .create_index(NodeId(0), schema, cuts, replication)
        .expect("create index");
    cluster.run_for(30 * SECONDS);
    cluster
}

fn rec(x: u64, ts: u64, size: u64, carried: u64) -> Record {
    Record::new(vec![x, ts, size, carried])
}

#[test]
fn create_index_reaches_every_node() {
    let cluster = cluster_with_index(16, 1, Replication::None);
    for k in 0..16 {
        assert_eq!(
            cluster.world().node(NodeId(k)).index_tags(),
            vec!["flows".to_string()],
            "node {k} missing the index"
        );
    }
}

#[test]
fn insert_from_every_node_and_query_recall() {
    let mut cluster = cluster_with_index(16, 2, Replication::None);
    // 160 records, inserted round-robin from all nodes.
    let mut expected_in_range = 0u64;
    for i in 0..160u64 {
        let x = (i * 37) % 1024;
        let ts = 1000 + i;
        let size = (i * 97) % (1 << 20);
        if (100..=500).contains(&x) {
            expected_in_range += 1;
        }
        cluster
            .insert(NodeId((i % 16) as u32), "flows", rec(x, ts, size, i))
            .unwrap();
        cluster.run_for(SECONDS / 2);
    }
    cluster.run_for(60 * SECONDS);
    assert_eq!(
        cluster.total_primary_rows("flows"),
        160,
        "every record must be stored once"
    );
    // Range query over x ∈ [100, 500], full time and size range.
    let q = HyperRect::new(vec![100, 0, 0], vec![500, 86_400 * 7, 1 << 20]);
    let outcome = cluster
        .query_and_wait(NodeId(3), "flows", q, vec![])
        .unwrap();
    assert!(outcome.complete, "query must complete");
    assert_eq!(
        outcome.records.len() as u64,
        expected_in_range,
        "perfect recall expected"
    );
    assert!(outcome.cost_nodes >= 1);
}

#[test]
fn point_query_and_empty_query() {
    let mut cluster = cluster_with_index(8, 3, Replication::None);
    cluster
        .insert(NodeId(1), "flows", rec(42, 500, 1000, 7))
        .unwrap();
    cluster.run_for(30 * SECONDS);
    let hit = cluster
        .query_and_wait(
            NodeId(5),
            "flows",
            HyperRect::new(vec![42, 500, 1000], vec![42, 500, 1000]),
            vec![],
        )
        .unwrap();
    assert!(hit.complete);
    assert_eq!(hit.records.len(), 1);
    assert_eq!(hit.records[0].value(3), 7, "carried attribute returned");
    let miss = cluster
        .query_and_wait(
            NodeId(5),
            "flows",
            HyperRect::new(vec![900, 0, 0], vec![1000, 100, 100]),
            vec![],
        )
        .unwrap();
    assert!(miss.complete, "negative responses still complete the query");
    assert!(miss.records.is_empty());
}

#[test]
fn wide_query_costs_one_scan_per_owner() {
    // A box just inside the bounds: its covering is leaf-fine along every
    // face — hundreds of regions — yet each of the 8 owners gets them in
    // one `SubQuery`, scans once and answers with one `QueryResponse`.
    let n = 8u32;
    let mut cluster = cluster_with_index(n as usize, 9, Replication::None);
    let mut inside = 0;
    for i in 0..200u64 {
        let (x, size) = ((i * 389) % 1024, (i * 104_729) % (1 << 20));
        inside += u64::from((1..=1022).contains(&x) && (1..1 << 20).contains(&size));
        cluster
            .insert(NodeId((i % 8) as u32), "flows", rec(x, 1000 + i, size, i))
            .unwrap();
    }
    cluster.run_for(60 * SECONDS);
    let q = HyperRect::new(vec![1, 1, 1], vec![1022, 86_400 * 7 - 1, (1 << 20) - 1]);
    let outcome = cluster
        .query_and_wait(NodeId(5), "flows", q, vec![])
        .unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.records.len() as u64, inside, "perfect recall");
    assert_eq!(outcome.cost_nodes, n as usize, "every node owns a face");
    let (mut jobs, mut regions) = (0, 0);
    for k in 0..n {
        let m = &cluster.world().node(NodeId(k)).metrics;
        assert_eq!(m.subqueries_answered, 1, "node {k}: one scan job");
        jobs += m.subqueries_answered;
        regions += m.query_regions_answered;
    }
    assert!(regions > 10 * jobs, "{regions} regions in {jobs} scan jobs");
}

#[test]
fn carried_filters_apply_at_responders() {
    let mut cluster = cluster_with_index(8, 4, Replication::None);
    for i in 0..40u64 {
        cluster
            .insert(NodeId(0), "flows", rec(i * 20, 100, 50, i % 4))
            .unwrap();
        cluster.run_for(SECONDS / 4);
    }
    cluster.run_for(30 * SECONDS);
    let q = HyperRect::new(vec![0, 0, 0], vec![1023, 86_400 * 7, 1 << 20]);
    let filtered = cluster
        .query_and_wait(
            NodeId(2),
            "flows",
            q,
            vec![CarriedFilter {
                attr: 3,
                lo: 2,
                hi: 2,
            }],
        )
        .unwrap();
    assert!(filtered.complete);
    assert_eq!(filtered.records.len(), 10, "only carried == 2 records pass");
    assert!(filtered.records.iter().all(|r| r.value(3) == 2));
}

#[test]
fn duplicate_create_rejected_locally() {
    let mut cluster = cluster_with_index(4, 5, Replication::None);
    let schema = test_schema();
    let cuts = CutTree::even(schema.bounds(), 4);
    let err = cluster.create_index(NodeId(0), schema, cuts, Replication::None);
    assert!(err.is_err());
}

#[test]
fn drop_index_removes_everywhere() {
    let mut cluster = cluster_with_index(8, 6, Replication::None);
    cluster
        .world_mut()
        .with_node(NodeId(2), |n, _now, out| n.drop_index("flows", out))
        .unwrap();
    cluster.run_for(30 * SECONDS);
    for k in 0..8 {
        assert!(cluster.world().node(NodeId(k)).index_tags().is_empty());
    }
}

#[test]
fn replication_survives_node_failure() {
    let mut cluster = cluster_with_index(16, 7, Replication::Level(1));
    for i in 0..100u64 {
        cluster
            .insert(
                NodeId((i % 16) as u32),
                "flows",
                rec((i * 41) % 1024, 100 + i, 10, i),
            )
            .unwrap();
        cluster.run_for(SECONDS / 2);
    }
    cluster.run_for(60 * SECONDS);
    // Baseline recall before the failure.
    let q = HyperRect::new(vec![0, 0, 0], vec![1023, 86_400 * 7, 1 << 20]);
    let before = cluster
        .query_and_wait(NodeId(0), "flows", q.clone(), vec![])
        .unwrap();
    assert!(before.complete);
    assert_eq!(before.records.len(), 100);
    // Kill one non-origin node and let the overlay detect + take over.
    cluster.crash(NodeId(9));
    cluster.run_for(60 * SECONDS);
    let after = cluster
        .query_and_wait(NodeId(0), "flows", q, vec![])
        .unwrap();
    assert!(after.complete, "query should complete after takeover");
    assert_eq!(
        after.records.len(),
        100,
        "level-1 replication must preserve perfect recall across one failure"
    );
}

#[test]
fn no_replication_loses_data_on_failure() {
    let mut cluster = cluster_with_index(16, 8, Replication::None);
    for i in 0..100u64 {
        cluster
            .insert(
                NodeId((i % 16) as u32),
                "flows",
                rec((i * 41) % 1024, 100 + i, 10, i),
            )
            .unwrap();
        cluster.run_for(SECONDS / 2);
    }
    cluster.run_for(60 * SECONDS);
    let victim = NodeId(9);
    let lost = cluster
        .world()
        .node(victim)
        .index_state("flows")
        .unwrap()
        .primary_rows();
    assert!(lost > 0, "test needs the victim to hold data");
    cluster.crash(victim);
    cluster.run_for(60 * SECONDS);
    let q = HyperRect::new(vec![0, 0, 0], vec![1023, 86_400 * 7, 1 << 20]);
    let after = cluster
        .query_and_wait(NodeId(0), "flows", q, vec![])
        .unwrap();
    assert_eq!(
        after.records.len() as u64,
        100 - lost,
        "without replication the victim's rows are gone"
    );
}

#[test]
fn insert_latencies_recorded_with_hops() {
    let mut cluster = cluster_with_index(16, 9, Replication::None);
    for i in 0..50u64 {
        cluster
            .insert(NodeId(0), "flows", rec((i * 101) % 1024, i, 10, 0))
            .unwrap();
        cluster.run_for(SECONDS / 4);
    }
    cluster.run_for(60 * SECONDS);
    let lats = cluster.insert_latency_samples();
    assert_eq!(lats.len(), 50);
    assert!(lats.iter().all(|&l| l > 0));
    let hops = cluster.insert_hops();
    assert_eq!(hops.len(), 50);
    assert!(hops.iter().any(|&h| h > 0), "some inserts must travel");
    assert!(hops.iter().all(|&h| h <= 8), "hops bounded by diameter");
}

#[test]
fn daily_histogram_collection_installs_new_version() {
    let mut cluster = cluster_with_index(8, 10, Replication::None);
    // Day-0 data: skewed cluster near x ∈ [0, 100].
    for i in 0..200u64 {
        cluster
            .insert(
                NodeId((i % 8) as u32),
                "flows",
                rec(i % 100, i % 86_400, 10, 0),
            )
            .unwrap();
        if i % 10 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    // Day boundary: everyone ships histograms; collector floods version 1.
    cluster.report_day_histograms("flows", 0);
    cluster.run_for(120 * SECONDS);
    for k in 0..8 {
        let st = cluster
            .world()
            .node(NodeId(k))
            .index_state("flows")
            .unwrap();
        assert_eq!(st.versions.len(), 2, "node {k} missing the new version");
        assert_eq!(st.versions[1].from_ts, 86_400);
    }
    // Day-1 records (ts ≥ 86 400) go to version 1.
    for i in 0..100u64 {
        cluster
            .insert(
                NodeId((i % 8) as u32),
                "flows",
                rec(i % 100, 86_400 + i, 10, 0),
            )
            .unwrap();
        if i % 10 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    let v1_rows: u64 = (0..8)
        .map(|k| {
            cluster
                .world()
                .node(NodeId(k))
                .index_state("flows")
                .unwrap()
                .versions[1]
                .primary
                .len() as u64
        })
        .sum();
    assert_eq!(v1_rows, 100, "day-1 rows must land in version 1");
    // A query spanning the day boundary consults both versions.
    let q = HyperRect::new(vec![0, 86_000, 0], vec![1023, 87_000, 1 << 20]);
    let o = cluster
        .query_and_wait(NodeId(3), "flows", q, vec![])
        .unwrap();
    assert!(o.complete);
    let expected = (86_000..86_400).len(); // day-0 records with ts in [86000, 86400): i%86400 in that range for i in 0..200 -> none
    let _ = expected;
    // All 100 day-1 records have ts in [86400, 86500) ⊂ [86000, 87000].
    assert_eq!(o.records.len(), 100);
}

#[test]
fn balanced_cuts_beat_even_cuts_on_skewed_data() {
    // Two identical clusters, one with even cuts, one with cuts balanced
    // on the (known) skewed distribution — the Figure 13 effect.
    let schema = test_schema();
    let mk_points = || -> Vec<Vec<u64>> {
        (0..400u64)
            .map(|i| vec![(i * i) % 120, 100 + i % 1000, (i * 13) % 4000])
            .collect()
    };
    let even = CutTree::even(schema.bounds(), 8);
    let pts = mk_points();
    let refs: Vec<&[u64]> = pts.iter().map(|p| p.as_slice()).collect();
    let balanced = CutTree::balanced_from_points(schema.bounds(), 8, &refs);

    let run = |cuts: CutTree| -> Vec<u64> {
        let mut cluster = MindCluster::new(ClusterConfig::planetlab(16, 11));
        cluster
            .create_index(NodeId(0), test_schema(), cuts, Replication::None)
            .unwrap();
        cluster.run_for(30 * SECONDS);
        for (i, p) in mk_points().into_iter().enumerate() {
            cluster
                .insert(
                    NodeId((i % 16) as u32),
                    "flows",
                    Record::new(vec![p[0], p[1], p[2], 0]),
                )
                .unwrap();
            if i % 20 == 0 {
                cluster.run_for(SECONDS);
            }
        }
        cluster.run_for(120 * SECONDS);
        cluster.storage_distribution("flows")
    };
    let even_dist = run(even);
    let bal_dist = run(balanced);
    assert_eq!(even_dist.iter().sum::<u64>(), 400);
    assert_eq!(bal_dist.iter().sum::<u64>(), 400);
    let even_max = *even_dist.iter().max().unwrap();
    let bal_max = *bal_dist.iter().max().unwrap();
    assert!(
        bal_max < even_max,
        "balanced cuts should reduce the hottest node: even {even_max} vs balanced {bal_max}"
    );
}

#[test]
fn anti_entropy_digests_converge_and_skip_full_transfers() {
    let mut cluster = cluster_with_index(16, 77, Replication::None);
    // Several anti-entropy periods (45s each) on a fault-free network:
    // every node ticks repeatedly against round-robin neighbors.
    cluster.run_for(300 * SECONDS);

    // The whole overlay agrees on one catalog digest.
    let reference = cluster.world().node(NodeId(0)).compute_catalog_digest();
    for k in 1..16 {
        assert_eq!(
            cluster.world().node(NodeId(k)).compute_catalog_digest(),
            reference,
            "node {k} disagrees on the catalog digest"
        );
    }

    // Ticks happened, but the converged catalog never cost a full
    // CatalogResponse: the CreateIndex flood settled (30s) before the
    // first tick fired (45s), so every digest matched on arrival.
    let sent: u64 = (0..16)
        .map(|k| cluster.world().node(NodeId(k)).metrics.catalog_digests_sent)
        .sum();
    let mismatches: u64 = (0..16)
        .map(|k| {
            cluster
                .world()
                .node(NodeId(k))
                .metrics
                .catalog_digest_mismatches
        })
        .sum();
    assert!(sent >= 16 * 5, "expected steady digest traffic, saw {sent}");
    assert_eq!(
        mismatches, 0,
        "converged overlay must not ship full catalogs"
    );
}
