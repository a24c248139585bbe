//! End-to-end overlay tests over the discrete-event simulator: dynamic
//! joins (including concurrent ones, Figure 4), routing on the resulting
//! hypercube, flooding, and failure takeover.

use mind_netsim::world::lan_config;
use mind_netsim::{Site, World};
use mind_overlay::{Overlay, OverlayConfig, OverlayEvent, OverlayMsg, StaticTopology};
use mind_types::node::{NodeLogic, Outbox, SimTime, SECONDS};
use mind_types::{BitCode, NodeId, WireSize};

#[derive(Debug, Clone, PartialEq)]
struct Payload(u64);
impl WireSize for Payload {}

/// Minimal node: an overlay plus a log of delivered payloads.
struct RawNode {
    overlay: Overlay<Payload>,
    delivered: Vec<(BitCode, u32, Payload)>,
    flooded: Vec<Payload>,
    undeliverable: Vec<Payload>,
}

impl RawNode {
    fn absorb(&mut self, event: Option<OverlayEvent<Payload>>) {
        match event {
            Some(OverlayEvent::Delivered {
                target,
                hops,
                payload,
            }) => self.delivered.push((target, hops, payload)),
            Some(OverlayEvent::FloodDelivered { payload }) => self.flooded.push(payload),
            Some(OverlayEvent::Undeliverable { payload, .. }) => self.undeliverable.push(payload),
            _ => {}
        }
    }
}

impl NodeLogic for RawNode {
    type Msg = OverlayMsg<Payload>;
    fn on_start(&mut self, now: SimTime, out: &mut Outbox<Self::Msg>) {
        self.overlay.on_start(now, out);
    }
    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg>,
    ) {
        let ev = self.overlay.handle(now, from, msg, out);
        self.absorb(ev);
    }
    fn on_timer(&mut self, now: SimTime, tok: u64, out: &mut Outbox<Self::Msg>) {
        let ev = self.overlay.on_timer(now, tok, out);
        self.absorb(ev);
    }
}

fn static_world(n: usize, seed: u64) -> (World<RawNode>, StaticTopology) {
    let topo = StaticTopology::balanced(n);
    let mut world = World::new(lan_config(seed));
    for k in 0..n {
        let overlay = Overlay::new_static(
            NodeId(k as u32),
            topo.code(k),
            topo.neighbor_entries(k),
            OverlayConfig::default(),
        );
        world.add_node(
            RawNode {
                overlay,
                delivered: vec![],
                flooded: vec![],
                undeliverable: vec![],
            },
            Site::new(format!("s{k}"), (k % 10) as f64, (k / 10) as f64),
        );
    }
    (world, topo)
}

#[test]
fn routing_reaches_owner_from_every_node() {
    let (mut world, topo) = static_world(34, 1);
    // Route one message from every node to a fixed deep target.
    let target = BitCode::parse("101101").unwrap();
    let owner = topo.owner(&target).unwrap();
    for k in 0..34u32 {
        world.with_node(NodeId(k), |node, now, out| {
            let ev = node.overlay.route(now, target, Payload(k as u64), out);
            node.absorb(ev);
        });
    }
    world.run_until(10 * SECONDS);
    let got = &world.node(owner).delivered;
    assert_eq!(got.len(), 34, "every message must arrive at the owner");
    // Hop counts stay within the network diameter (≈ code length).
    for (_, hops, _) in got {
        assert!(*hops <= 6, "hop count {hops} exceeds balanced diameter");
    }
}

#[test]
fn routing_hop_counts_scale_logarithmically() {
    let (mut world, topo) = static_world(64, 2);
    let mut total_hops = 0u32;
    let mut count = 0u32;
    for k in 0..64u32 {
        let target = BitCode::from_raw((k as u64).rotate_left(59), 6);
        let owner = topo.owner(&target).unwrap();
        world.with_node(NodeId(k), |node, now, out| {
            let ev = node.overlay.route(now, target, Payload(k as u64), out);
            node.absorb(ev);
        });
        world.run_until(world.now() + 5 * SECONDS);
        for (_, hops, _) in &world.node(owner).delivered {
            total_hops += *hops;
            count += 1;
        }
    }
    assert!(count >= 64);
    let mean = total_hops as f64 / count as f64;
    assert!(
        mean <= 4.0,
        "mean hops {mean} too high for a balanced 6-cube"
    );
}

#[test]
fn flood_reaches_every_node_exactly_once() {
    let (mut world, _) = static_world(34, 3);
    world.with_node(NodeId(5), |node, _now, out| {
        let payload = Payload(42);
        node.overlay.flood(&payload, out);
        node.flooded.push(payload);
    });
    world.run_until(20 * SECONDS);
    for k in 0..34u32 {
        let f = &world.node(NodeId(k)).flooded;
        assert_eq!(f.len(), 1, "node {k} flooded {} times", f.len());
        assert_eq!(f[0], Payload(42));
    }
}

#[test]
fn sequential_joins_build_working_overlay() {
    let mut world: World<RawNode> = World::new(lan_config(4));
    let cfg = OverlayConfig::default();
    // Root node.
    world.add_node(
        RawNode {
            overlay: Overlay::new_root(NodeId(0), cfg),
            delivered: vec![],
            flooded: vec![],
            undeliverable: vec![],
        },
        Site::new("root", 0.0, 0.0),
    );
    // Nodes join one at a time through node 0.
    let n = 12usize;
    for k in 1..n {
        world.add_node(
            RawNode {
                overlay: Overlay::new_joiner(NodeId(k as u32), NodeId(0), cfg),
                delivered: vec![],
                flooded: vec![],
                undeliverable: vec![],
            },
            Site::new(format!("j{k}"), 0.1 * k as f64, 0.0),
        );
        world.run_until(world.now() + 30 * SECONDS);
    }
    world.run_until(world.now() + 60 * SECONDS);
    // All nodes are members...
    let mut codes = Vec::new();
    for k in 0..n as u32 {
        let o = &world.node(NodeId(k)).overlay;
        assert!(o.is_member(), "node {k} failed to join");
        codes.push(o.code().unwrap());
    }
    // ...codes are prefix-free and complete.
    for i in 0..n {
        for j in 0..n {
            if i != j {
                assert!(
                    !codes[i].is_prefix_of(&codes[j]),
                    "{} prefixes {}",
                    codes[i],
                    codes[j]
                );
            }
        }
    }
    let total: u64 = codes.iter().map(|c| 1u64 << (32 - c.len() as u32)).sum();
    assert_eq!(total, 1u64 << 32, "codes must partition the space");
    // Adler joins keep the tree near-balanced with high probability.
    let max_len = codes.iter().map(|c| c.len()).max().unwrap();
    assert!(
        max_len <= 7,
        "12-node overlay should not be deeper than 7, got {max_len}"
    );
    // Routing works end-to-end on the joined overlay.
    let target = codes[7];
    world.with_node(NodeId(3), |node, now, out| {
        let ev = node.overlay.route(now, target, Payload(99), out);
        node.absorb(ev);
    });
    world.run_until(world.now() + 10 * SECONDS);
    assert!(world
        .node(NodeId(7))
        .delivered
        .iter()
        .any(|(_, _, p)| *p == Payload(99)));
}

#[test]
fn concurrent_joins_serialize_without_deadlock() {
    // Figure 4: multiple joiners hit the overlay at the same instant.
    let mut world: World<RawNode> = World::new(lan_config(5));
    let cfg = OverlayConfig::default();
    world.add_node(
        RawNode {
            overlay: Overlay::new_root(NodeId(0), cfg),
            delivered: vec![],
            flooded: vec![],
            undeliverable: vec![],
        },
        Site::new("root", 0.0, 0.0),
    );
    let n = 9usize;
    for k in 1..n {
        world.add_node(
            RawNode {
                overlay: Overlay::new_joiner(NodeId(k as u32), NodeId(0), cfg),
                delivered: vec![],
                flooded: vec![],
                undeliverable: vec![],
            },
            Site::new(format!("j{k}"), 0.1 * k as f64, 0.0),
        );
        // No settling time: joins race.
    }
    world.run_until(5 * 60 * SECONDS);
    let mut codes = Vec::new();
    for k in 0..n as u32 {
        let o = &world.node(NodeId(k)).overlay;
        assert!(o.is_member(), "node {k} never joined under contention");
        codes.push(o.code().unwrap());
    }
    for i in 0..n {
        for j in 0..n {
            if i != j {
                assert!(
                    !codes[i].is_prefix_of(&codes[j]),
                    "{} prefixes {}",
                    codes[i],
                    codes[j]
                );
            }
        }
    }
    let total: u64 = codes.iter().map(|c| 1u64 << (32 - c.len() as u32)).sum();
    assert_eq!(
        total,
        1u64 << 32,
        "concurrent joins corrupted the code space"
    );
}

#[test]
fn sibling_takes_over_after_crash_and_routing_heals() {
    let (mut world, topo) = static_world(16, 6);
    // Let heartbeats establish liveness.
    world.run_until(5 * SECONDS);
    // Crash node 5 (code 0101); its sibling is node 4 (code 0100).
    let victim_code = topo.code(5);
    world.crash_node(NodeId(5));
    // Heartbeat failure detection: interval 2 s × threshold 3 → ~8-10 s.
    world.run_until(40 * SECONDS);
    let survivor = &world.node(NodeId(4)).overlay;
    assert_eq!(
        survivor.code().unwrap(),
        BitCode::parse("010").unwrap(),
        "sibling must shorten its code"
    );
    // Routing to the dead node's region now reaches the survivor.
    world.with_node(NodeId(11), |node, now, out| {
        let ev = node.overlay.route(now, victim_code, Payload(7), out);
        node.absorb(ev);
    });
    world.run_until(world.now() + 30 * SECONDS);
    assert!(
        world
            .node(NodeId(4))
            .delivered
            .iter()
            .any(|(_, _, p)| *p == Payload(7)),
        "survivor must receive traffic for the dead sibling's region"
    );
}

#[test]
fn transient_link_outage_recovers_via_ring_or_retry() {
    let (mut world, topo) = static_world(16, 7);
    world.run_until(5 * SECONDS);
    // Take down the greedy first-hop link from node 0 toward 1111.
    // Node 0 (0000)'s dim-0 entry is node 8 (1000).
    world.schedule_link_outage(NodeId(0), NodeId(8), world.now(), 20 * SECONDS);
    let target = topo.code(15);
    world.with_node(NodeId(0), |node, now, out| {
        let ev = node.overlay.route(now, target, Payload(13), out);
        node.absorb(ev);
    });
    world.run_until(world.now() + 60 * SECONDS);
    // The message is not lost: the outage model queues it until the link
    // heals (TCP semantics), so it must eventually arrive.
    assert!(
        world
            .node(NodeId(15))
            .delivered
            .iter()
            .any(|(_, _, p)| *p == Payload(13)),
        "message lost across transient outage"
    );
}
