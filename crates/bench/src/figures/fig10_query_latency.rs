//! Figure 10: query latency on the 34-node baseline deployment.
//!
//! The paper reports a median query latency around 500 ms with a skewed
//! tail (high 90th percentiles and means): routing to the covering
//! region plus direct responses is fast, but stragglers queue behind DAC
//! work and transient network dynamics.

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, inject_random_outages, install_index, random_query, IndexKind,
    TrafficDriver,
};
use crate::report::{header, kv};
use mind_core::{LatencySummary, Replication};
use mind_types::node::SECONDS;
use mind_types::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 10",
        "query latency (34 nodes, uniform queries, 5-minute windows)",
        "median ~0.5 s; skewed tail (high mean and 90th percentile)",
    )?;
    let scale = scale.experiment(1);
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(10, scale);
    let mut cluster = baseline_cluster(10);
    // The paper balances cuts over the full day's distribution while the
    // measured queries cover five-minute windows — the time dimension's
    // mass fraction per query is tiny, which is what keeps fan-out low.
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, 0, 86_400);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::Level(1));
    let span = 600 * scale.hours;
    let t0 = 11 * 3600;
    driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(30 * SECONDS);
    // Queries run against a live system with continuing background churn.
    inject_random_outages(&mut cluster, 10, 4, 300 * SECONDS);

    let mut rng = StdRng::seed_from_u64(1010);
    let mut lats = Vec::new();
    let mut incomplete = 0usize;
    for _ in 0..150 {
        let origin = NodeId(rng.random_range(0..cluster.len() as u32));
        let t_now = rng.random_range(t0 + 300..t0 + span);
        let rect = random_query(kind, &mut rng, t_now);
        let outcome = cluster
            .query_and_wait(origin, kind.tag(), rect, vec![])
            .unwrap();
        match outcome.latency {
            Some(l) => lats.push(l),
            None => incomplete += 1,
        }
    }
    let s = LatencySummary::from_samples(lats);
    writeln!(out)?;
    kv(out, "completed queries", s.count)?;
    kv(out, "incomplete (deadline)", incomplete)?;
    kv(out, "latency", s.format_seconds())?;
    let med_s = s.median as f64 / 1e6;
    writeln!(out)?;
    // Reported, not gated: the skew this figure used to measure (p90 > 2x
    // the median) was the per-region DAC charge of many-region queries,
    // gone since a node answers a query with one scan (EXPERIMENTS.md,
    // "query frames per owner"). The paper puts its tail down to network
    // dynamics and states no ratio to hold this one to.
    kv(
        out,
        "tail p90/median (reported, not gated)",
        format!("{:.1}x", s.p90 as f64 / s.median.max(1) as f64),
    )?;
    let verdict = Verdict::new(
        (0.1..2.5).contains(&med_s),
        format!("median={med_s:.2}s, band 0.1-2.5 s"),
    );
    kv(out, "shape check (median ~0.5 s)", &verdict)?;
    Ok(verdict)
}
