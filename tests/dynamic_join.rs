//! Dynamic membership with live data (Section 3.4's join-time semantics):
//! a node joining an overlay that already serves an index must (a) learn
//! the index catalog from its acceptor, (b) answer queries for its new
//! region via the handoff pointer while the historical data still lives
//! at the acceptor, and (c) own new inserts normally.

use mind::audit::Auditor;
use mind::core::audit::snapshot_world;
use mind::core::{MindConfig, MindNode, MindPayload, Replication};
use mind::histogram::CutTree;
use mind::netsim::world::lan_config;
use mind::netsim::{Site, World};
use mind::overlay::OverlayConfig;
use mind::types::node::SECONDS;
use mind::types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};
use mind_overlay::OverlayMsg;

fn schema() -> IndexSchema {
    IndexSchema::new(
        "grow",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1 << 16),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
            AttrDef::new("y", AttrKind::Generic, 0, 1 << 16),
        ],
        3,
    )
}

type Msg = OverlayMsg<MindPayload>;

fn add_root(world: &mut World<MindNode>) -> NodeId {
    world.add_node(
        MindNode::new_root(NodeId(0), OverlayConfig::default(), MindConfig::default()),
        Site::new("root", 0.0, 0.0),
    )
}

fn add_joiner(world: &mut World<MindNode>, k: u32) -> NodeId {
    world.add_node(
        MindNode::new_joiner(
            NodeId(k),
            NodeId(0),
            OverlayConfig::default(),
            MindConfig::default(),
        ),
        Site::new(format!("j{k}"), 0.0, 0.1 * k as f64),
    )
}

#[test]
fn joiner_learns_catalog_and_historical_data_stays_queryable() {
    let mut world: World<MindNode> = World::new(lan_config(61));
    add_root(&mut world);
    for k in 1..6u32 {
        add_joiner(&mut world, k);
        world.run_until(world.now() + 30 * SECONDS);
        // Every committed join must leave the overlay a clean partition.
        Auditor::settled()
            .audit(&snapshot_world(&world))
            .assert_clean("after join");
    }
    world.run_until(world.now() + 30 * SECONDS);

    // Create the index and load data on the 6-node overlay.
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 10);
    world.with_node(
        NodeId(0),
        |n: &mut MindNode, _t, out: &mut mind::types::Outbox<Msg>| {
            n.create_index(s, cuts, Replication::Level(1), out).unwrap();
        },
    );
    world.run_until(world.now() + 30 * SECONDS);
    let mut records = Vec::new();
    for i in 0..120u64 {
        let r = Record::new(vec![(i * 541) % (1 << 16), 100 + i, (i * 997) % (1 << 16)]);
        records.push(r.clone());
        let origin = NodeId((i % 6) as u32);
        world.with_node(origin, move |n, t, out| {
            n.insert(t, "grow", r, out).unwrap();
        });
        if i % 10 == 0 {
            world.run_until(world.now() + SECONDS);
        }
    }
    world.run_until(world.now() + 60 * SECONDS);
    let stored: u64 = (0..6u32)
        .map(|k| {
            world
                .node(NodeId(k))
                .index_state("grow")
                .map(|s| s.primary_rows())
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(stored, 120);

    // A seventh node joins the live system.
    let new = add_joiner(&mut world, 6);
    world.run_until(world.now() + 60 * SECONDS);
    assert!(world.node(new).overlay().is_member(), "node 6 must join");
    // A join into a live, data-carrying overlay must preserve every
    // invariant: partitioned codes, symmetric tables, agreed versions,
    // correctly placed replicas.
    Auditor::settled()
        .audit(&snapshot_world(&world))
        .assert_clean("after live-data join");
    // (a) It learned the catalog.
    assert_eq!(
        world.node(new).index_tags(),
        vec!["grow".to_string()],
        "joiner must learn the index from its acceptor"
    );

    // (b) Full-recall query issued FROM the joiner, over everything —
    // including the region it now owns but whose data sits at the
    // acceptor behind the handoff pointer.
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 16, 86_400, 1 << 16]);
    let qid = world.with_node(new, move |n, t, out| {
        n.query(t, "grow", q, vec![], out).unwrap()
    });
    let deadline = world.now() + 90 * SECONDS;
    while world.now() < deadline && world.node(new).query_outcome(qid).is_none() {
        let t = world.now() + 100_000;
        world.run_until(t);
    }
    let outcome = world.node(new).query_outcome(qid).expect("query finished");
    assert!(outcome.complete, "query must complete on the grown overlay");
    if outcome.records.len() != 120 {
        use std::collections::HashMap;
        let mut counts: HashMap<Vec<u64>, usize> = HashMap::new();
        for r in &outcome.records {
            *counts.entry(r.values().to_vec()).or_insert(0) += 1;
        }
        let dups: Vec<_> = counts.iter().filter(|(_, &c)| c > 1).take(5).collect();
        let missing = records
            .iter()
            .filter(|r| !counts.contains_key(r.values()))
            .count();
        panic!(
            "recall mismatch: got {} want 120; dups(sample)={dups:?} missing={missing}",
            outcome.records.len()
        );
    }

    // (c) New inserts (including into the joiner's region) work.
    for i in 0..30u64 {
        let r = Record::new(vec![(i * 2111) % (1 << 16), 5000 + i, i]);
        records.push(r.clone());
        world.with_node(NodeId((i % 7) as u32), move |n, t, out| {
            n.insert(t, "grow", r, out).unwrap();
        });
        if i % 10 == 0 {
            world.run_until(world.now() + SECONDS);
        }
    }
    world.run_until(world.now() + 60 * SECONDS);
    let q2 = HyperRect::new(vec![0, 0, 0], vec![1 << 16, 86_400, 1 << 16]);
    let qid2 = world.with_node(NodeId(2), move |n, t, out| {
        n.query(t, "grow", q2, vec![], out).unwrap()
    });
    let deadline = world.now() + 90 * SECONDS;
    while world.now() < deadline && world.node(NodeId(2)).query_outcome(qid2).is_none() {
        let t = world.now() + 100_000;
        world.run_until(t);
    }
    let outcome = world
        .node(NodeId(2))
        .query_outcome(qid2)
        .expect("query finished");
    assert!(outcome.complete);
    assert_eq!(outcome.records.len(), 150, "old + new records all visible");
}

#[test]
fn joiner_inherits_standing_triggers() {
    let mut world: World<MindNode> = World::new(lan_config(62));
    add_root(&mut world);
    for k in 1..4u32 {
        add_joiner(&mut world, k);
        world.run_until(world.now() + 30 * SECONDS);
    }
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 10);
    world.with_node(NodeId(0), |n, _t, out| {
        n.create_index(s, cuts, Replication::None, out).unwrap();
    });
    world.run_until(world.now() + 30 * SECONDS);
    // Node 1 installs a trigger before the new node exists.
    let watch = HyperRect::new(vec![0, 0, 0], vec![1 << 16, 86_400, 1 << 16]);
    world.with_node(NodeId(1), move |n, _t, out| {
        n.create_trigger("grow", watch, vec![], out).unwrap()
    });
    world.run_until(world.now() + 30 * SECONDS);
    // A new node joins and eventually stores a record in its region; the
    // trigger must still fire even though the joiner never saw the
    // CreateTrigger flood.
    add_joiner(&mut world, 4);
    world.run_until(world.now() + 60 * SECONDS);
    Auditor::settled()
        .audit(&snapshot_world(&world))
        .assert_clean("after trigger-era join");
    for i in 0..40u64 {
        let r = Record::new(vec![(i * 1637) % (1 << 16), 100 + i, i]);
        world.with_node(NodeId((i % 4) as u32), move |n, t, out| {
            n.insert(t, "grow", r, out).unwrap();
        });
        if i % 8 == 0 {
            world.run_until(world.now() + SECONDS);
        }
    }
    world.run_until(world.now() + 60 * SECONDS);
    assert_eq!(
        world.node(NodeId(1)).trigger_log.len(),
        40,
        "every insert must fire the inherited trigger exactly once"
    );
}
