//! Figure 14: insertion latency CDF on a 102-node overlay under churn.
//!
//! The paper deployed 102 arbitrarily chosen PlanetLab nodes (70–102
//! alive at any time as nodes failed and rejoined) and inserted ~11 M
//! Index-1 records at 1 record/second/node: the median insertion latency
//! stays below 1 s but the distribution has a long tail; ~90 % of
//! insertions take ≤ 5 overlay hops, with a few re-routed around
//! failures taking more.

use super::{io, Scale, Verdict, Write};
use crate::harness::{paper_mind_config, synth_point, IndexKind};
use crate::report::{cdf_points, fraction_leq, header, kv};
use mind_core::{ClusterConfig, MindCluster, Replication};
use mind_histogram::CutTree;
use mind_types::node::SECONDS;
use mind_types::{NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 14",
        "insertion latency CDF, 102 nodes with churn, 1 record/s/node",
        "median < 1 s, long tail; ~90% of inserts <= 5 hops",
    )?;
    let scale = scale.experiment(1);
    let n = 102;
    let kind = IndexKind::Fanout;
    let ts_bound = 86_400;
    let schema = kind.schema(ts_bound);

    let span = 600 * scale.hours; // seconds of experiment

    let mut cfg = ClusterConfig::planetlab(n, 14);
    cfg.mind = paper_mind_config();
    // Retransmission timeout must sit above the ack RTT under load, or
    // transient queueing triggers spurious resends whose extra traffic
    // sustains the very congestion that delayed the acks (a classic
    // retry storm — profiled at 180k+ retries for 61k inserts with the
    // 5 s default). Anti-entropy still covers genuinely lost ops.
    cfg.mind.retry_timeout = 30 * SECONDS;
    cfg.sim.node_service = 18_000;
    cfg.sim.link_bytes_per_sec = 1_000_000;
    let mut cluster = MindCluster::new(cfg);
    // Index-1 records from the synthetic feed would do, but at 1/s/node
    // the paper streamed pre-aggregated records; generate equivalent
    // records directly (Zipf dst prefixes, 5-min-old timestamps).
    // The cut-tree sample must draw timestamps over the whole experiment
    // span: a constant-timestamp sample degenerates the time cuts, every
    // live record lands in one time slice, and the handful of nodes
    // owning that slice saturate while the rest sit idle.
    let mut rng = StdRng::seed_from_u64(14);
    let sample: Vec<Vec<u64>> = (0..4000)
        .map(|_| {
            let sec = rng.random_range(0..span);
            synth_point(&mut rng, sec)
        })
        .collect();
    let refs: Vec<&[u64]> = sample.iter().map(|p| p.as_slice()).collect();
    let cuts = CutTree::balanced_from_points(schema.bounds(), 12, &refs);
    cluster
        .create_index(NodeId(0), schema, cuts, Replication::Level(1))
        .unwrap();
    cluster.run_for(20 * SECONDS);

    // Churn schedule: nodes crash and revive so the live population
    // wanders between ~70 and 102 (the paper's observed range).
    let max_dead = 32;
    let mut dead: Vec<NodeId> = Vec::new();
    let base = cluster.now();
    // Feeds are not synchronized across hosts: spread each node's
    // 1 record/s tick across the second instead of firing all of them
    // at the same sim instant (which would slam every owner with a
    // 102-message burst and inflate transient queues).
    let stagger = SECONDS / n as u64;
    for sec in 0..span {
        let t = base + sec * SECONDS;
        // Insert 1 record per live node per second.
        for k in 0..n as u32 {
            cluster.run_until(t + k as u64 * stagger);
            if cluster.world().is_alive(NodeId(k)) {
                let p = synth_point(&mut rng, sec);
                let rec = Record::new(vec![
                    p[0],
                    p[1],
                    p[2],
                    rng.random_range(0..1u64 << 32),
                    k as u64,
                ]);
                let _ = cluster.insert(NodeId(k), kind.tag(), rec);
            }
        }
        // Churn every ~20 s: maybe kill one, maybe revive one.
        if sec % 20 == 7 {
            if dead.len() < max_dead && rng.random_bool(0.6) {
                let victim = NodeId(rng.random_range(1..n as u32));
                if cluster.world().is_alive(victim) {
                    cluster.crash(victim);
                    dead.push(victim);
                }
            } else if let Some(back) = dead.pop() {
                cluster.revive(back);
            }
        }
    }
    cluster.run_for(60 * SECONDS);

    let lats = cluster.insert_latency_samples();
    let hops: Vec<u64> = cluster.insert_hops().into_iter().map(u64::from).collect();

    kv(out, "records durably stored", lats.len())?;
    kv(
        out,
        "final live nodes",
        (0..n)
            .filter(|&k| cluster.world().is_alive(NodeId(k as u32)))
            .count(),
    )?;
    kv(
        out,
        "pending events (peak)",
        cluster.world().stats.pending_events_peak,
    )?;
    writeln!(out, "\n  insertion latency CDF:")?;
    writeln!(out, "  {:>8} {:>12}", "pct", "latency")?;
    for (p, v) in cdf_points(&lats, &[10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9]) {
        writeln!(out, "  {:>7.1}% {:>11.3}s", p, v as f64 / 1e6)?;
    }
    let median = cdf_points(&lats, &[50.0])[0].1;
    writeln!(out, "\n  hop-count distribution:")?;
    for h in [2u64, 3, 4, 5, 7, 10] {
        writeln!(
            out,
            "  <= {h} hops: {:>6.1}%",
            100.0 * fraction_leq(&hops, h)
        )?;
    }
    let f5 = fraction_leq(&hops, 5);
    writeln!(out)?;
    let verdict = Verdict::new(
        median < 2_000_000 && f5 >= 0.90,
        format!(
            "median={:.2}s hops<=5: {:.0}%",
            median as f64 / 1e6,
            f5 * 100.0
        ),
    );
    kv(
        out,
        "shape check (gate: median < 2 s, >=90% <= 5 hops; paper: median < 1 s, ~90% <= 5 hops)",
        &verdict,
    )?;
    Ok(verdict)
}
