//! Dynamic membership with live data (Section 3.4's join-time semantics):
//! a node joining an overlay that already serves an index must (a) learn
//! the index catalog from its acceptor, (b) answer queries for its new
//! region via the handoff pointer while the historical data still lives
//! at the acceptor, and (c) own new inserts normally.

use mind::audit::Auditor;
use mind::core::audit::snapshot_world;
use mind::core::{MindConfig, MindNode, MindPayload, QueryOutcome, Replication};
use mind::histogram::CutTree;
use mind::netsim::world::lan_config;
use mind::netsim::{LinkFault, Site, World};
use mind::overlay::OverlayConfig;
use mind::types::node::SECONDS;
use mind::types::{AttrDef, AttrKind, BitCode, HyperRect, IndexSchema, NodeId, Record};
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

/// The 6-node overlay grown one join at a time, with the index created
/// and 120 rows loaded and stored; returns the rows.
fn loaded_world() -> (World<MindNode>, Vec<Record>) {
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
    (world, records)
}

/// Issues a query over the whole space from `from` and runs the world
/// until it finishes, for at most 90 s.
fn full_query(world: &mut World<MindNode>, from: NodeId) -> QueryOutcome {
    let q = HyperRect::new(vec![0, 0, 0], vec![1 << 16, 86_400, 1 << 16]);
    let qid = world.with_node(from, move |n, t, out| {
        n.query(t, "grow", q, vec![], out).unwrap()
    });
    let deadline = world.now() + 90 * SECONDS;
    while world.now() < deadline && world.node(from).query_outcome(qid).is_none() {
        let t = world.now() + 100_000;
        world.run_until(t);
    }
    world.node(from).query_outcome(qid).unwrap_or_default()
}

#[test]
fn joiner_learns_catalog_and_historical_data_stays_queryable() {
    let (mut world, mut records) = loaded_world();

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
    let outcome = full_query(&mut world, new);
    assert!(outcome.complete, "query must complete on the grown overlay");
    if outcome.records.len() != 120 {
        use mind::types::DetHashMap;
        let mut counts: DetHashMap<Vec<u64>, usize> = DetHashMap::default();
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
    let outcome = full_query(&mut world, NodeId(2));
    assert!(outcome.complete);
    assert_eq!(outcome.records.len(), 150, "old + new records all visible");
}

#[test]
fn a_joiner_whose_acceptor_dies_answers_from_its_own_stores() {
    let (mut world, records) = loaded_world();
    // Node 6 joins under node 2, which keeps the historical rows of the
    // joiner's region behind the handoff pointer; then node 2 dies.
    let new = add_joiner(&mut world, 6);
    world.run_until(world.now() + 60 * SECONDS);
    assert_eq!(world.node(new).overlay().code(), BitCode::parse("011"));
    world.crash_node(NodeId(2));
    world.run_until(world.now() + 60 * SECONDS);
    assert_eq!(
        world.node(new).overlay().code(),
        BitCode::parse("01"),
        "node 6 takes over its dead acceptor's region"
    );
    // The joiner must stop waiting on the dead acceptor: the rows of both
    // halves are in its stores (its own primaries and node 2's replicas).
    let outcome = full_query(&mut world, NodeId(0));
    assert!(
        outcome.complete,
        "query incomplete after 90 s (cost {})",
        outcome.cost_nodes
    );
    assert_eq!(outcome.records.len(), records.len());
}

#[test]
fn a_joiner_asks_its_acceptor_again_after_a_false_death() {
    let (mut world, mut records) = loaded_world();
    // Ten rows in region 011, which node 2 owns as 01 until node 6 splits
    // it: they stay at node 2, behind node 6's handoff pointer.
    for i in 0..10u64 {
        let r = Record::new(vec![1_000 + i, 50_000 + i, 40_000 + i]);
        records.push(r.clone());
        world.with_node(NodeId(0), move |n, t, out| {
            n.insert(t, "grow", r, out).unwrap();
        });
    }
    world.run_until(world.now() + 30 * SECONDS);
    let held = |world: &World<MindNode>, k: u32| {
        let st = world.node(NodeId(k)).index_state("grow").unwrap();
        st.primary_rows()
    };
    assert_eq!(held(&world, 2), 10);
    let new = add_joiner(&mut world, 6);
    world.run_until(world.now() + 60 * SECONDS);
    assert_eq!(world.node(new).overlay().code(), BitCode::parse("011"));
    assert_eq!((held(&world, 2), held(&world, 6)), (10, 0));
    // The link between the joiner and its acceptor, node 2, loses every
    // message for 20 s: each declares the other dead, then hears from it
    // again.
    let acceptor_alive = |world: &World<MindNode>| {
        world
            .node(new)
            .overlay()
            .table()
            .find_by_node(NodeId(2))
            .is_some_and(|e| e.alive)
    };
    let start = world.now();
    world.fault_plan_mut().link_faults.push(LinkFault {
        from: new,
        to: NodeId(2),
        loss_prob: 1.0,
        bidirectional: true,
        active: (start, start + 20 * SECONDS),
    });
    while acceptor_alive(&world) {
        assert!(
            world.now() < start + 20 * SECONDS,
            "the acceptor is never taken for dead"
        );
        world.run_until(world.now() + 100_000);
    }
    // A query while the acceptor is taken for dead is answered without its
    // rows; that must not cost the pointer.
    full_query(&mut world, NodeId(0));
    world.run_until(start + 80 * SECONDS);
    assert!(acceptor_alive(&world), "the acceptor is heard from again");
    // Node 2 still holds the ten rows: the pointer must reach them again.
    let outcome = full_query(&mut world, NodeId(0));
    assert!(outcome.complete);
    assert_eq!(outcome.records.len(), records.len());
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
