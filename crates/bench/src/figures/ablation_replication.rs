//! Ablation: replication level vs. cost.
//!
//! Figure 16 shows what replication buys (availability); the paper notes
//! the price in passing: "replication storage and transmission cost
//! scales linearly with the degree of replication". This sweep measures
//! that price on the 34-node deployment: stored rows, replica messages,
//! bytes on the wire, and insertion latency per level.

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, install_index, ExperimentScale, IndexKind, TrafficDriver,
};
use crate::report::{header, kv};
use mind_core::{LatencySummary, Replication};
use mind_types::node::SECONDS;
use mind_types::NodeId;

fn cost(scale: ExperimentScale, replication: Replication) -> (u64, u64, u64, LatencySummary) {
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(42, scale);
    let mut cluster = baseline_cluster(42);
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, 0, 86_400);
    install_index(&mut cluster, kind, cuts, ts_bound, replication);
    let (t0, span) = (11 * 3600, 600 * scale.hours);
    driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(60 * SECONDS);
    let mut primary = 0u64;
    let mut replicas = 0u64;
    for k in 0..cluster.len() {
        if let Some(st) = cluster
            .world()
            .node(NodeId(k as u32))
            .index_state(kind.tag())
        {
            for v in &st.versions {
                primary += v.primary.len() as u64;
                replicas += v.replicas.len() as u64;
            }
        }
    }
    let bytes: u64 = cluster
        .world()
        .stats
        .per_link
        .values()
        .map(|s| s.bytes)
        .sum();
    let lat = LatencySummary::from_samples(cluster.insert_latency_samples());
    (primary, replicas, bytes, lat)
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Ablation: replication level cost",
        "storage + transmission overhead per replication degree (34 nodes)",
        "cost scales ~linearly with the degree of replication (Section 4.4)",
    )?;
    writeln!(
        out,
        "\n  {:<12} {:>9} {:>9} {:>8} {:>12} {:>18}",
        "level", "primary", "replicas", "copies", "wire MB", "insert median"
    )?;
    let scale = scale.experiment(1);
    let mut copies_per_level = Vec::new();
    for (name, r) in [
        ("none", Replication::None),
        ("1", Replication::Level(1)),
        ("2", Replication::Level(2)),
        ("3", Replication::Level(3)),
        ("full", Replication::Full),
    ] {
        let (primary, replicas, bytes, lat) = cost(scale, r);
        let copies = replicas as f64 / primary.max(1) as f64;
        copies_per_level.push((name, copies));
        writeln!(
            out,
            "  {:<12} {:>9} {:>9} {:>7.2}x {:>12.2} {:>17.3}s",
            name,
            primary,
            replicas,
            copies,
            bytes as f64 / 1e6,
            lat.median as f64 / 1e6,
        )?;
    }
    writeln!(out)?;
    let l1 = copies_per_level[1].1;
    let l2 = copies_per_level[2].1;
    let l3 = copies_per_level[3].1;
    let full = copies_per_level[4].1;
    let verdict = Verdict::new(
        (0.8..=1.2).contains(&l1)
            && (1.6..=2.4).contains(&l2)
            && (2.4..=3.6).contains(&l3)
            && full > l3,
        format!("1->{l1:.2} 2->{l2:.2} 3->{l3:.2} full->{full:.2}"),
    );
    kv(
        out,
        "shape check (replica copies ≈ level; full ≈ log N)",
        &verdict,
    )?;
    Ok(verdict)
}
