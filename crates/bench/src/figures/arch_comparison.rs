//! Section 2.1 ablation: MIND vs query flooding vs centralized.
//!
//! The paper argues for the distributed architecture qualitatively; this
//! experiment quantifies the trade-offs on the same simulated testbed and
//! workload:
//!
//! * **insert traffic** — flooding ships nothing, MIND ships each tuple
//!   O(log N) hops, centralized ships everything to one hub,
//! * **per-query work** — flooding makes every node evaluate every
//!   query; MIND touches only the covering regions,
//! * **load concentration** — the centralized hub's links carry the
//!   whole insert volume (its single point of failure in kind).

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, install_index, random_query, IndexKind, TrafficDriver,
};
use crate::report::{header, kv};
use mind_baselines::{CentralizedNode, FloodingNode};
use mind_core::{MindCluster, Replication};
use mind_netsim::topology::baseline_sites;
use mind_netsim::{SimConfig, World};
use mind_types::node::SECONDS;
use mind_types::{NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Architecture comparison (Section 2.1)",
        "MIND vs query flooding vs centralized, same workload",
        "distributed wins on query work vs flooding and on load spread vs centralized",
    )?;
    let scale = scale.experiment(1);
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let t0 = 11 * 3600;
    let span = 600 * scale.hours;
    let driver = TrafficDriver::abilene_geant(21, scale);

    // Collect the workload once.
    let mut inserts: Vec<(u16, Record)> = Vec::new();
    let mut w = t0;
    while w < t0 + span {
        for r in 0..driver.routers() as u16 {
            for agg in driver.window_aggregates(0, w, r) {
                if let Some(rec) = kind.record(&agg) {
                    inserts.push((r, rec));
                }
            }
        }
        w += 30;
    }
    let mut rng = StdRng::seed_from_u64(2121);
    let queries: Vec<mind_types::HyperRect> = (0..60)
        .map(|_| {
            let t_now = rng.random_range(t0 + 300..t0 + span);
            random_query(kind, &mut rng, t_now)
        })
        .collect();
    kv(
        out,
        "workload",
        format!("{} inserts, {} queries", inserts.len(), queries.len()),
    )?;

    // ---- MIND ----
    let mut cluster = baseline_cluster(21);
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, t0, t0 + span);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::Level(1));
    for (i, (r, rec)) in inserts.iter().enumerate() {
        cluster
            .insert(NodeId(*r as u32), kind.tag(), rec.clone())
            .unwrap();
        if i % 50 == 0 {
            cluster.run_for(SECONDS);
        }
    }
    cluster.run_for(60 * SECONDS);
    let per_link = |c: &MindCluster| -> Vec<u64> {
        let links = c.world().stats.per_link.values();
        links.map(|s| s.data_messages).collect()
    };
    let mind_insert_msgs: u64 = per_link(&cluster).iter().sum();
    let mut mind_qlat = Vec::new();
    let mut mind_cost = 0usize;
    for q in &queries {
        let o = cluster
            .query_and_wait(
                NodeId(rng.random_range(0..34u32)),
                kind.tag(),
                q.clone(),
                vec![],
            )
            .unwrap();
        mind_qlat.push(o.latency.unwrap_or(0));
        mind_cost += o.cost_nodes;
    }
    let mind_max_link = per_link(&cluster).into_iter().max().unwrap_or(0);

    // ---- flooding ----
    let sim = |seed| SimConfig {
        seed,
        node_service: 18_000,
        link_bytes_per_sec: 1_000_000,
        ..SimConfig::default()
    };
    let mut flood: World<FloodingNode> = World::new(sim(21));
    let peers: Vec<NodeId> = (0..34u32).map(NodeId).collect();
    for (k, site) in baseline_sites().into_iter().enumerate() {
        flood.add_node(FloodingNode::new(NodeId(k as u32), peers.clone(), 3), site);
    }
    for (r, rec) in &inserts {
        let rec = rec.clone();
        flood.with_node(NodeId(*r as u32), move |n, _t, _o| n.insert_local(rec));
    }
    let mut flood_qlat = Vec::new();
    for q in &queries {
        let origin = NodeId(rng.random_range(0..34u32));
        let q = q.clone();
        let qid = flood.with_node(origin, move |n, t, o| n.query(t, q, o));
        flood.run_until(flood.now() + 60 * SECONDS);
        flood_qlat.push(flood.node(origin).query_latency(qid).unwrap_or(60_000_000));
    }
    let flood_evals: u64 = (0..34u32).map(|k| flood.node(NodeId(k)).evaluations).sum();

    // ---- centralized ----
    let mut central: World<CentralizedNode> = World::new(sim(22));
    for (k, site) in baseline_sites().into_iter().enumerate() {
        central.add_node(CentralizedNode::new(NodeId(k as u32), NodeId(0), 3), site);
    }
    for (i, (r, rec)) in inserts.iter().enumerate() {
        let rec = rec.clone();
        central.with_node(NodeId(*r as u32), move |n, t, o| n.insert(t, rec, o));
        if i % 50 == 0 {
            let t = central.now() + SECONDS;
            central.run_until(t);
        }
    }
    let t = central.now() + 60 * SECONDS;
    central.run_until(t);
    let mut central_qlat = Vec::new();
    for q in &queries {
        let origin = NodeId(rng.random_range(0..34u32));
        let q = q.clone();
        let qid = central.with_node(origin, move |n, t, o| n.query(t, q, o));
        let t = central.now() + 60 * SECONDS;
        central.run_until(t);
        central_qlat.push(
            central
                .node(origin)
                .query_latency(qid)
                .unwrap_or(60_000_000),
        );
    }
    let hub_inbound: u64 = central
        .stats
        .per_link
        .iter()
        .filter(|((_, to), _)| *to == NodeId(0))
        .map(|(_, s)| s.messages)
        .sum();

    let med = |mut v: Vec<u64>| -> f64 {
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0) as f64 / 1e6
    };
    writeln!(
        out,
        "\n  {:<28} {:>10} {:>10} {:>12}",
        "metric", "MIND", "flooding", "centralized"
    )?;
    writeln!(
        out,
        "  {:<28} {:>10} {:>10} {:>12}",
        "insert msgs on network",
        mind_insert_msgs,
        0,
        inserts.len()
    )?;
    writeln!(
        out,
        "  {:<28} {:>10} {:>10} {:>12}",
        "node evaluations / query",
        format!("{:.1}", mind_cost as f64 / queries.len() as f64),
        format!("{:.1}", flood_evals as f64 / queries.len() as f64),
        "1.0"
    )?;
    writeln!(
        out,
        "  {:<28} {:>10} {:>10} {:>12}",
        "median query latency (s)",
        format!("{:.2}", med(mind_qlat)),
        format!("{:.2}", med(flood_qlat)),
        format!("{:.2}", med(central_qlat)),
    )?;
    writeln!(
        out,
        "  {:<28} {:>10} {:>10} {:>12}",
        "max tuples on one link", mind_max_link, 0, hub_inbound
    )?;
    writeln!(out)?;
    // Less query work than flooding, less load on one link than the hub.
    let verdict = Verdict::new(
        (mind_cost as u64) < flood_evals && mind_max_link < hub_inbound,
        format!(
            "MIND touches {:.1} nodes/query vs flooding's 34; hub absorbs {hub_inbound} msgs vs MIND's max link {mind_max_link}",
            mind_cost as f64 / queries.len() as f64
        ),
    );
    kv(out, "shape check", &verdict.note)?;
    Ok(verdict)
}
