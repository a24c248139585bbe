//! Real deployment: a MIND cluster over actual TCP sockets on localhost.
//!
//! The exact same `MindNode` state machine that the experiments drive on
//! the deterministic simulator here runs behind `TcpHost` — listener +
//! reader threads per peer, a single-threaded driver owning the logic —
//! which is how a production deployment on real machines would look
//! (one process per monitor site, peers configured by address).
//!
//! ```sh
//! cargo run --release --example realtime_tcp
//! ```

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a real-time demo: it waits on the wall clock and hands TcpHost std's peer map"
)]

use mind::core::{MindConfig, MindNode, Replication};
use mind::histogram::CutTree;
use mind::net::TcpHost;
use mind::overlay::{OverlayConfig, StaticTopology};
use mind::store::DacCostModel;
use mind::types::node::MILLIS;
use mind::types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

fn main() {
    const N: usize = 8;
    // Bind all listeners first so every node knows the full peer map.
    let listeners: Vec<TcpListener> = (0..N)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: HashMap<NodeId, SocketAddr> = listeners
        .iter()
        .enumerate()
        .map(|(k, l)| (NodeId(k as u32), l.local_addr().unwrap()))
        .collect();
    println!("spawning {N} MIND nodes on localhost:");
    for (id, addr) in &peers {
        println!("  {id} @ {addr}");
    }

    let topo = StaticTopology::balanced(N);
    let overlay_cfg = OverlayConfig {
        hb_interval: 250 * MILLIS,
        ..OverlayConfig::default()
    };
    // Real sockets, no MySQL: zero the simulator's modelled DAC cost.
    let mind_cfg = MindConfig {
        dac_cost: DacCostModel::FREE,
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

    // Create an index from node 0; the flood crosses real sockets.
    let schema = IndexSchema::new(
        "live-flows",
        vec![
            AttrDef::new("dst_prefix", AttrKind::IpPrefix, 0, u32::MAX as u64),
            AttrDef::new("timestamp", AttrKind::Timestamp, 0, 86_400),
            AttrDef::new("octets", AttrKind::Octets, 0, 2 << 20),
        ],
        3,
    );
    let cuts = CutTree::even(schema.bounds(), 8);
    hosts[0].invoke(move |n, _now, out| {
        n.create_index(schema, cuts, Replication::Level(1), out)
            .unwrap();
    });
    wait_until("index flood", Duration::from_secs(10), || {
        hosts
            .iter()
            .all(|h| h.invoke(|n, _t, _o| !n.index_tags().is_empty()))
    });
    println!("index created on all {N} nodes over TCP");

    // Every node inserts a burst of records.
    let start = Instant::now();
    for i in 0..120u64 {
        let rec = Record::new(vec![
            (i * 0x0200_0000) % (1 << 32),
            50 + i,
            (i * 977) % (2 << 20),
        ]);
        hosts[(i % N as u64) as usize]
            .invoke(move |n, now, out| n.insert(now, "live-flows", rec, out).unwrap());
    }
    wait_until("records stored", Duration::from_secs(15), || {
        let total: u64 = hosts
            .iter()
            .map(|h| {
                h.invoke(|n, _t, _o| {
                    n.index_state("live-flows")
                        .map(|s| s.primary_rows())
                        .unwrap_or(0)
                })
            })
            .sum();
        total == 120
    });
    println!("120 records durably stored in {:?}", start.elapsed());

    // Query from a different node.
    let rect = HyperRect::new(vec![0, 0, 1 << 16], vec![u32::MAX as u64, 86_400, 2 << 20]);
    let t0 = Instant::now();
    let qid =
        hosts[5].invoke(move |n, now, out| n.query(now, "live-flows", rect, vec![], out).unwrap());
    let outcome = hosts[5]
        .handle()
        .wait_for(Duration::from_secs(20), move |n| n.query_outcome(qid))
        .expect("query never completed");
    println!(
        "query over TCP: complete={} matches={} nodes={} wall-time={:?}",
        outcome.complete,
        outcome.records.len(),
        outcome.cost_nodes,
        t0.elapsed()
    );

    for h in hosts {
        h.shutdown();
    }
    println!("all nodes shut down cleanly");
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}
