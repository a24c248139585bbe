//! Failure, churn and recovery integration tests across the whole stack:
//! crashes mid-stream, recursive takeover, revivals, and query health on a
//! degraded overlay.

use mind::audit::{Auditor, ViolationKind};
use mind::core::{ClusterConfig, MindCluster, Replication};
use mind::histogram::CutTree;
use mind::types::node::SECONDS;
use mind::types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> IndexSchema {
    IndexSchema::new(
        "t",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1 << 20),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
            AttrDef::new("y", AttrKind::Generic, 0, 1 << 20),
        ],
        3,
    )
}

fn build(n: usize, seed: u64, replication: Replication) -> MindCluster {
    let mut cluster = MindCluster::new(ClusterConfig::planetlab(n, seed));
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 10);
    cluster
        .create_index(NodeId(0), s, cuts, replication)
        .unwrap();
    cluster.run_for(20 * SECONDS);
    cluster.audit_settled().assert_clean("after index build");
    cluster
}

fn spray(cluster: &mut MindCluster, rng: &mut StdRng, n: usize, count: usize) -> Vec<Record> {
    let mut recs = Vec::new();
    for i in 0..count {
        let r = Record::new(vec![
            rng.random_range(0..1u64 << 20),
            rng.random_range(0..86_400u64),
            rng.random_range(0..1u64 << 20),
        ]);
        recs.push(r.clone());
        cluster.insert(NodeId((i % n) as u32), "t", r).unwrap();
        if i % 25 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    recs
}

#[test]
fn inserts_continue_through_crashes() {
    let n = 24;
    let mut cluster = build(n, 31, Replication::Level(1));
    let mut rng = StdRng::seed_from_u64(31);
    spray(&mut cluster, &mut rng, n, 150);
    // Kill three nodes, keep inserting from survivors.
    for k in [3u32, 11, 17] {
        cluster.crash(NodeId(k));
    }
    // Mid-churn, the always-true invariants must still hold.
    cluster
        .audit_structural()
        .assert_clean("right after crashes");
    cluster.run_for(40 * SECONDS);
    cluster
        .audit_settled()
        .assert_clean("after takeover settled");
    let mut late = Vec::new();
    for i in 0..60 {
        let origin = NodeId([0u32, 1, 5, 7, 9, 20][i % 6]);
        let r = Record::new(vec![
            rng.random_range(0..1u64 << 20),
            rng.random_range(0..86_400u64),
            rng.random_range(0..1u64 << 20),
        ]);
        late.push(r.clone());
        cluster.insert(origin, "t", r).unwrap();
        cluster.run_for(SECONDS);
    }
    cluster.run_for(60 * SECONDS);
    // All post-crash inserts must be queryable.
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 20, 86_400, 1 << 20]);
    let outcome = cluster.query_and_wait(NodeId(0), "t", q, vec![]).unwrap();
    assert!(outcome.complete, "query incomplete after crashes");
    for r in &late {
        let conformed = r.clone();
        assert!(
            outcome.records.iter().any(|got| got == &conformed),
            "post-crash insert lost: {conformed:?}"
        );
    }
}

#[test]
fn double_failure_of_sibling_pair_is_survivable_with_full_replication() {
    let n = 16;
    let mut cluster = build(n, 32, Replication::Full);
    let mut rng = StdRng::seed_from_u64(32);
    let recs = spray(&mut cluster, &mut rng, n, 120);
    // Kill an exact sibling pair (codes 0000 and 0001 in a 16-node cube).
    cluster.crash(NodeId(0));
    cluster.crash(NodeId(1));
    cluster.run_for(90 * SECONDS);
    cluster
        .audit_settled()
        .assert_clean("after sibling-pair takeover");
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 20, 86_400, 1 << 20]);
    let outcome = cluster.query_and_wait(NodeId(9), "t", q, vec![]).unwrap();
    assert!(
        outcome.complete,
        "query incomplete after sibling-pair failure"
    );
    assert_eq!(
        outcome.records.len(),
        recs.len(),
        "full replication must preserve recall across a sibling-pair failure"
    );
}

#[test]
fn revived_node_rejoins_service() {
    let n = 12;
    let mut cluster = build(n, 33, Replication::Level(1));
    let mut rng = StdRng::seed_from_u64(33);
    spray(&mut cluster, &mut rng, n, 80);
    cluster.crash(NodeId(4));
    cluster.run_for(60 * SECONDS);
    cluster.revive(NodeId(4));
    cluster.run_for(30 * SECONDS);
    // The revived node can originate inserts and queries again.
    let r = Record::new(vec![123, 456, 789]);
    cluster.insert(NodeId(4), "t", r).unwrap();
    cluster.run_for(30 * SECONDS);
    let q = HyperRect::new(vec![123, 456, 789], vec![123, 456, 789]);
    let outcome = cluster.query_and_wait(NodeId(4), "t", q, vec![]).unwrap();
    assert!(outcome.complete);
    assert_eq!(outcome.records.len(), 1);
    // Regression check: a revived node must REJOIN, not resume its stale
    // pre-crash membership — resuming left two live nodes owning the same
    // code and stale claims shadowing live owners.
    cluster.run_for(60 * SECONDS);
    assert!(
        cluster.world().node(NodeId(4)).overlay().is_member(),
        "revived node rejoined"
    );
    cluster.audit_settled().assert_clean("after revive settled");
}

#[test]
fn revived_node_does_not_resume_stale_membership() {
    // Direct regression test for the stale-revive bug the auditor caught:
    // crash a node, let its sibling take the region over, revive it, and
    // verify no code is owned twice and no stale claim survives.
    let n = 24;
    let mut cluster = build(n, 31, Replication::Level(1));
    let mut rng = StdRng::seed_from_u64(31);
    spray(&mut cluster, &mut rng, n, 60);
    cluster.crash(NodeId(3));
    cluster.run_for(90 * SECONDS);
    cluster.revive(NodeId(3));
    cluster.run_for(120 * SECONDS);
    let report = Auditor::settled().audit(&cluster.audit_snapshot());
    let stale: Vec<_> = report
        .violations
        .iter()
        .filter(|v| {
            matches!(
                v.kind(),
                ViolationKind::CodeOverlap | ViolationKind::StaleClaim
            )
        })
        .collect();
    assert!(
        stale.is_empty(),
        "revive resumed stale membership: {stale:?}"
    );
    report.assert_clean("after revive (full invariant catalog)");
}

#[test]
fn query_from_every_survivor_completes_on_degraded_overlay() {
    let n = 32;
    let mut cluster = build(n, 34, Replication::Level(1));
    let mut rng = StdRng::seed_from_u64(34);
    spray(&mut cluster, &mut rng, n, 150);
    for k in [2u32, 6, 13, 21, 28] {
        cluster.crash(NodeId(k));
    }
    cluster.run_for(90 * SECONDS);
    cluster
        .audit_settled()
        .assert_clean("after five-node takeover");
    let q = HyperRect::new(vec![1 << 18, 0, 1 << 18], vec![1 << 19, 86_400, 1 << 19]);
    for k in 0..n as u32 {
        if !cluster.world().is_alive(NodeId(k)) {
            continue;
        }
        let outcome = cluster
            .query_and_wait(NodeId(k), "t", q.clone(), vec![])
            .unwrap();
        assert!(outcome.complete, "query from survivor {k} incomplete");
    }
}

#[test]
fn claimant_hands_the_rest_of_a_group_on_strictly_deeper() {
    // Three nodes: 00, 01 and 1. The pair dies together, so nobody can
    // shorten its code and the survivor answers through a claim on the
    // one half it kept as a contact. Its own sub-query group for the
    // prefix `0` comes back to it (the claim makes it the answerer); the
    // regions outside the claim must then leave grouped one level deeper
    // — `01`, which nobody answers — and not as `0` again, which would
    // come back forever. The query ends: incomplete, at its deadline.
    let mut cluster = build(3, 35, Replication::None);
    let survivor = NodeId(2);
    assert_eq!(cluster.topology().code(2).len(), 1);
    cluster.crash(NodeId(0));
    cluster.crash(NodeId(1));
    cluster.run_for(90 * SECONDS);
    let claimed = cluster.world().node(survivor).overlay().claimed().clone();
    assert_eq!(claimed.len(), 1, "the survivor knew one half: {claimed:?}");
    assert_eq!(claimed.first().map(|c| c.len()), Some(2));

    // Just inside the bounds: the covering is leaf-fine along every face,
    // so both dead halves contribute regions finer than the claim.
    let q = HyperRect::new(vec![1, 1, 1], vec![(1 << 20) - 1, 86_399, (1 << 20) - 1]);
    let outcome = cluster.query_and_wait(survivor, "t", q, vec![]).unwrap();
    assert!(!outcome.complete, "half the space has no answerer");
    let m = &cluster.world().node(survivor).metrics;
    assert!(m.undeliverable > 0, "the unclaimed half was routed on");
    assert!(m.query_regions_answered > m.subqueries_answered);
}
