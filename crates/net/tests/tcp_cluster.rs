//! A complete MIND deployment over real TCP on localhost: the same
//! `MindNode` logic that runs on the simulator, driven by `TcpHost` —
//! create an index, insert from several nodes, query with full recall.

use mind_core::{FlushCounts, MindCluster, MindConfig, MindNode, Replication};
use mind_histogram::CutTree;
use mind_net::{TcpFleet, TcpHost};
use mind_overlay::{OverlayConfig, StaticTopology};
use mind_types::node::{MILLIS, SECONDS};
use mind_types::{AttrDef, AttrKind, ClusterDriver, HyperRect, IndexSchema, NodeId, Record};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

fn schema() -> IndexSchema {
    IndexSchema::new(
        "tcp-flows",
        vec![
            AttrDef::new("x", AttrKind::Generic, 0, 1023),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
            AttrDef::new("size", AttrKind::Octets, 0, 1 << 20),
        ],
        3,
    )
}

#[test]
fn mind_cluster_over_real_tcp() {
    const N: usize = 6;
    let topo = StaticTopology::balanced(N);
    // Bind all listeners first so the peer map is complete before spawn.
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: HashMap<NodeId, SocketAddr> = listeners
        .iter()
        .enumerate()
        .map(|(k, l)| (NodeId(k as u32), l.local_addr().unwrap()))
        .collect();

    // Faster heartbeats so the test settles quickly on the wall clock.
    let overlay_cfg = OverlayConfig {
        hb_interval: 200 * MILLIS,
        ..OverlayConfig::default()
    };
    let mind_cfg = MindConfig {
        query_deadline: 20_000_000,
        ..MindConfig::default()
    };

    let hosts: Vec<TcpHost<MindNode>> = listeners
        .into_iter()
        .enumerate()
        .map(|(k, l)| {
            let node = MindNode::new_static(
                NodeId(k as u32),
                topo.code(k),
                topo.neighbor_entries(k),
                overlay_cfg,
                mind_cfg,
            );
            TcpHost::spawn(NodeId(k as u32), l, peers.clone(), node).unwrap()
        })
        .collect();

    // Create the index from node 0 and wait for the flood to land.
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 8);
    hosts[0].invoke(move |n, _now, out| n.create_index(s, cuts, Replication::None, out).unwrap());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let all = hosts
            .iter()
            .all(|h| h.invoke(|n, _t, _o| !n.index_tags().is_empty()));
        if all {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "create_index flood never settled"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Insert 60 records, round-robin across nodes.
    for i in 0..60u64 {
        let rec = Record::new(vec![(i * 17) % 1024, 100 + i, (i * 31) % (1 << 20)]);
        hosts[(i % N as u64) as usize]
            .invoke(move |n, now, out| n.insert(now, "tcp-flows", rec, out).unwrap());
    }

    // Wait until all 60 are durably stored somewhere.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let total: u64 = hosts
            .iter()
            .map(|h| {
                h.invoke(|n, _t, _o| {
                    n.index_state("tcp-flows")
                        .map(|s| s.primary_rows())
                        .unwrap_or(0)
                })
            })
            .sum();
        if total == 60 {
            break;
        }
        assert!(Instant::now() < deadline, "only {total}/60 records stored");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Query the full domain from node 3 and expect perfect recall.
    let rect = HyperRect::new(vec![0, 0, 0], vec![1023, 86_400, 1 << 20]);
    let qid =
        hosts[3].invoke(move |n, now, out| n.query(now, "tcp-flows", rect, vec![], out).unwrap());
    let outcome = hosts[3]
        .handle()
        .wait_for(Duration::from_secs(20), move |n| n.query_outcome(qid))
        .expect("query never completed");
    assert!(outcome.complete, "query must complete over TCP");
    assert_eq!(outcome.records.len(), 60, "perfect recall over TCP");
    assert!(outcome.cost_nodes >= 2, "data must be distributed");

    for h in hosts {
        h.shutdown();
    }
}

/// Batched ingest on an `n`-node fleet over real sockets, then two
/// full-width queries (the whole domain; a box just inside it, whose
/// covering is leaf-fine along every face). Returns every node's
/// flush-cause counts summed, the multi-record frames shipped, the rows
/// re-split on the way, and the `(scan jobs, regions)` the queries cost.
fn batched_fleet_run(n: usize, rows: u64) -> (FlushCounts, u64, u64, (u64, u64)) {
    let topo = StaticTopology::balanced(n);
    let overlay_cfg = OverlayConfig {
        hb_interval: 200 * MILLIS,
        ..OverlayConfig::default()
    };
    let mind_cfg = MindConfig {
        retry_timeout: 500 * MILLIS,
        query_deadline: 20 * SECONDS,
        insert_batch_max: 64,
        insert_batch_age: 5 * MILLIS,
        ..MindConfig::default()
    };
    let topo2 = topo.clone();
    let fleet = TcpFleet::spawn(n, move |id| {
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
    let s = schema();
    let cuts = CutTree::even(s.bounds(), 8);
    cluster
        .create_index(NodeId(0), s, cuts, Replication::None)
        .expect("create_index");
    let settled = cluster.wait_until(30 * SECONDS, |c| {
        (0..n as u32).all(|k| c.read_node(NodeId(k), |n| !n.index_tags().is_empty()))
    });
    assert!(settled, "create_index flood never settled");

    // Loader batches of 128 rows per origin call, round-robin: rows of
    // one call queue up behind the first frame to each owner.
    let row = |i: u64| {
        Record::new(vec![
            (i * 389) % 1024,
            (i * 7919) % 86_400,
            (i * 104_729) % (1 << 20),
        ])
    };
    for (b, first) in (0..rows).step_by(128).enumerate() {
        let batch: Vec<Record> = (first..(first + 128).min(rows)).map(row).collect();
        cluster
            .driver_mut()
            .with_node(NodeId((b % n) as u32), move |node, now, out| {
                for r in batch {
                    node.insert(now, "tcp-flows", r, out).unwrap();
                }
            });
    }
    let stored = cluster.wait_until(60 * SECONDS, |c| c.total_primary_rows("tcp-flows") == rows);
    assert!(stored, "batched burst never fully stored");
    assert_eq!(
        cluster.misplaced_primary_rows("tcp-flows"),
        0,
        "every row rests at its owner"
    );
    let full = HyperRect::new(vec![0, 0, 0], vec![1023, 86_400, 1 << 20]);
    let inner = HyperRect::new(vec![1, 1, 1], vec![1022, 86_399, (1 << 20) - 1]);
    for rect in [full, inner] {
        let mut want: Vec<Vec<u64>> = (0..rows)
            .map(|i| row(i).values().to_vec())
            .filter(|v| rect.contains_point(v))
            .collect();
        let outcome = cluster
            .query_and_wait(NodeId(1), "tcp-flows", rect, vec![])
            .expect("query");
        assert!(outcome.complete);
        let mut got: Vec<Vec<u64>> = outcome
            .records
            .iter()
            .map(|r| r.values().to_vec())
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "answer diverges from the oracle");
    }

    let mut frames = FlushCounts::default();
    let (mut batches, mut forwarded, mut originated) = (0, 0, 0);
    let (mut scan_jobs, mut regions) = (0, 0);
    for k in 0..n as u32 {
        let m = cluster.read_node(NodeId(k), |n| n.metrics.clone());
        frames.idle += m.insert_frames.idle;
        frames.ack += m.insert_frames.ack;
        frames.size += m.insert_frames.size;
        frames.age += m.insert_frames.age;
        batches += m.insert_batches_sent;
        forwarded += m.insert_rows_forwarded;
        originated += m.inserts_originated;
        scan_jobs += m.subqueries_answered;
        regions += m.query_regions_answered;
        assert_eq!(m.retries_exhausted, 0);
    }
    assert_eq!(originated, rows);
    cluster.into_driver().shutdown();
    (frames, batches, forwarded, (scan_jobs, regions))
}

#[test]
fn batched_ingest_over_tcp_addresses_owners() {
    // Balanced fleet: a prefix of the sender's own depth names one node,
    // so nothing is ever re-split, and rows queue behind unacked frames
    // instead of leaving one per frame on a timer.
    let rows = 4096;
    let (frames, batches, forwarded, (scan_jobs, regions)) = batched_fleet_run(4, rows);
    assert_eq!(forwarded, 0, "balanced overlay: no re-split");
    // Query frames are per owner too: a full-width query costs each of
    // the 4 nodes one `SubQuery`, one scan and one `QueryResponse`,
    // however many covering regions it names.
    assert!(
        scan_jobs <= 2 * 4 && regions > 10 * scan_jobs,
        "2 queries on 4 nodes: {scan_jobs} scan jobs for {regions} regions"
    );
    let total = frames.idle + frames.ack + frames.size + frames.age;
    assert!(
        frames.idle > 0 && batches > 0,
        "{frames:?} batches {batches}"
    );
    assert!(
        total * 4 < rows,
        "{total} frames for {rows} rows: frames are per owner, not per leaf region"
    );

    // Unbalanced fleet: some frames land on a node that owns half of
    // their prefix and are taken apart there.
    let (_, _, forwarded, _) = batched_fleet_run(6, rows);
    assert!(forwarded > 0, "unbalanced overlay: the re-split must run");
}
