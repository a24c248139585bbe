//! Figure 8: transmission-delay time series on the slowest overlay link.
//!
//! The paper traced a pathological insertion that took 48 seconds, then
//! plotted the transmission delays on the slowest link of its path: a
//! baseline of normal delays punctuated by spikes when queuing (or a
//! transient outage) backed the link up.

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, inject_random_outages, install_index, ExperimentScale,
    IndexKind, TrafficDriver,
};
use crate::report::{fmt_us, header, kv};
use mind_core::Replication;
use mind_types::node::SECONDS;

/// One run of the scenario, tracing the link `traced` if given.
fn pass(
    scale: ExperimentScale,
    traced: Option<(mind_types::NodeId, mind_types::NodeId)>,
) -> mind_core::MindCluster {
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let (t0, span) = (11 * 3600, 600 * scale.hours);
    let driver = TrafficDriver::abilene_geant(8, scale);
    let mut cluster = baseline_cluster(8);
    if let Some((a, b)) = traced {
        cluster.world_mut().stats.trace_link(a, b);
    }
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, t0, t0 + span);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::Level(1));
    inject_random_outages(&mut cluster, 8, 6, span * SECONDS);
    driver.drive(&mut cluster, &[kind], 0, t0, t0 + span, ts_bound, None);
    cluster.run_for(60 * SECONDS);
    cluster
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 8",
        "transmission delay over time on the slowest overlay link",
        "mostly sub-second delays with queuing spikes up to tens of seconds",
    )?;
    // Pass 1: find the slowest link; pass 2 (identical seed -> identical
    // run): trace it.
    let scale = scale.experiment(1);
    let probe = pass(scale, None);
    let (slow, stats) = probe.world().stats.slowest_link().expect("some traffic");
    kv(out, "slowest link", format!("{} -> {}", slow.0, slow.1))?;
    kv(out, "messages on it", stats.messages)?;
    kv(out, "worst queuing delay", fmt_us(stats.max_queue_delay))?;
    drop(probe);

    let traced = pass(scale, Some(slow));
    let trace = traced
        .world()
        .stats
        .traces
        .get(&slow)
        .cloned()
        .unwrap_or_default();
    writeln!(out, "\n  time series (sampled every ~20th message):")?;
    writeln!(out, "  {:>10} {:>12}", "t (s)", "delay (s)")?;
    for (i, (t, d)) in trace.iter().enumerate() {
        if i % 20 == 0 || *d > SECONDS {
            writeln!(out, "  {:>10.1} {:>12.3}", *t as f64 / 1e6, *d as f64 / 1e6)?;
        }
    }
    let max = trace.iter().map(|&(_, d)| d).max().unwrap_or(0);
    let med = {
        let mut v: Vec<_> = trace.iter().map(|&(_, d)| d).collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    writeln!(out)?;
    kv(out, "median delay on traced link", fmt_us(med))?;
    kv(out, "max delay on traced link", fmt_us(max))?;
    let verdict = Verdict::new(
        max > med * 10,
        format!("max {} vs median {}", fmt_us(max), fmt_us(med)),
    );
    kv(
        out,
        "shape check (spiky tail >= 10x median)",
        verdict.word(),
    )?;
    Ok(verdict)
}
