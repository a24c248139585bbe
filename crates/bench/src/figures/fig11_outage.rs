//! Figure 11: query processing delay at a hotspot during an overlay
//! outage.
//!
//! The paper plots the time spent resolving queries at one node during
//! the 23:00–24:00 window of day 3: two back-to-back spikes where a
//! query responder could not reach the query originator for ~45 s while
//! the overlay link was re-established, plus one query queued behind the
//! other in the non-interleaved DAC.
//!
//! `--loss <frac>` additionally runs the same scenario with that uniform
//! message loss rate active during the measurement window (inserts and
//! queries both exposed; the reliable-delivery layer retries). The
//! zero-loss series is always printed first and is unaffected.

use super::{io, Scale, Verdict, Write};
use crate::harness::{
    balanced_cuts, baseline_cluster, install_index, monitoring_query, ExperimentScale, IndexKind,
    TrafficDriver,
};
use crate::report::{header, kv};
use mind_core::Replication;
use mind_netsim::FaultPlan;
use mind_types::node::SECONDS;
use mind_types::NodeId;

/// Runs the outage scenario once; `loss` is a uniform message loss
/// probability switched on after index installation. Returns
/// `(max_delay_us, baseline_mean_us)`.
fn run_series(out: &mut dyn Write, scale: &ExperimentScale, loss: f64) -> io::Result<(u64, f64)> {
    let kind = IndexKind::Octets;
    let ts_bound = 86_400;
    let driver = TrafficDriver::abilene_geant(11, *scale);
    let mut cluster = baseline_cluster(11);
    let span = 600 * scale.hours;
    let cuts = balanced_cuts(kind, &driver, ts_bound, 10, 11 * 3600, 11 * 3600 + span);
    install_index(&mut cluster, kind, cuts, ts_bound, Replication::Level(1));
    if loss > 0.0 {
        // Lossy measurement window: the index is installed, now every
        // non-loopback send (inserts, queries, heartbeats) faces `loss`.
        *cluster.world_mut().fault_plan_mut() = FaultPlan::lossy(loss);
    }
    let t0 = 23 * 3600;
    driver.drive(&mut cluster, &[kind], 2, t0, t0 + span, ts_bound, None);
    cluster.run_for(30 * SECONDS);

    // The originator issues periodic monitoring queries; midway, the link
    // between it and a heavily used responder fails for 45 seconds.
    let origin = NodeId(0);
    // Find the node storing the most data: its region answers most
    // queries, so it is the natural "hotspot responder".
    let dist = cluster.storage_distribution(kind.tag());
    let hotspot = NodeId(dist.iter().enumerate().max_by_key(|&(_, &c)| c).unwrap().0 as u32);
    kv(out, "originator", origin)?;
    kv(
        out,
        "hotspot responder",
        format!("{hotspot} ({} rows)", dist[hotspot.0 as usize]),
    )?;

    let outage_at = cluster.now() + 120 * SECONDS;
    cluster
        .world_mut()
        .schedule_link_outage(hotspot, origin, outage_at, 45 * SECONDS);

    writeln!(
        out,
        "\n  {:>8} {:>12}  (one monitoring query every ~10 s)",
        "t (s)", "delay (s)"
    )?;
    let base = cluster.now();
    let mut max_delay = 0u64;
    let mut baseline_sum = 0u64;
    let mut baseline_n = 0u64;
    for i in 0..30 {
        // Full-coverage monitoring queries: every node (the hotspot
        // included) answers each one, negative responses included.
        let t_now = t0 + 300 + (i * span.saturating_sub(400) / 30);
        let rect = monitoring_query(kind, t_now);
        let issued = cluster.now();
        let outcome = cluster
            .query_and_wait(origin, kind.tag(), rect, vec![])
            .unwrap();
        let delay = outcome.latency.unwrap_or(60_000_000);
        let rel = (issued - base) as f64 / 1e6;
        let marker = if delay > 10_000_000 {
            "  <-- outage spike"
        } else {
            ""
        };
        writeln!(out, "  {rel:>8.1} {:>12.3}{marker}", delay as f64 / 1e6)?;
        if delay > max_delay {
            max_delay = delay;
        } else {
            baseline_sum += delay;
            baseline_n += 1;
        }
        // Pace the queries ~10 s apart.
        let next = cluster.now() + 10 * SECONDS;
        cluster.run_until(next);
    }
    writeln!(out)?;
    let baseline_mean = baseline_sum as f64 / baseline_n.max(1) as f64;
    kv(
        out,
        "max response delay",
        format!("{:.1}s", max_delay as f64 / 1e6),
    )?;
    kv(out, "baseline mean", format!("{:.2}s", baseline_mean / 1e6))?;
    Ok((max_delay, baseline_mean))
}

pub fn run(out: &mut dyn Write, scale: &Scale) -> io::Result<Verdict> {
    header(
        out,
        "Figure 11",
        "per-query response delay around a 45 s overlay link outage",
        "baseline of ~1 s responses with back-to-back spikes near 45 s",
    )?;
    let loss = scale.loss;
    let scale = scale.experiment(1);

    let (max_delay, baseline) = run_series(out, &scale, 0.0)?;
    let verdict = Verdict::new(
        max_delay > 30_000_000,
        format!(
            "spike {:.1}s over {:.2}s baseline",
            max_delay as f64 / 1e6,
            baseline / 1e6
        ),
    );
    kv(
        out,
        "shape check (spike ~45 s over ~1 s baseline)",
        verdict.word(),
    )?;

    if let Some(loss) = loss {
        writeln!(
            out,
            "\n  --- additional series: uniform message loss {loss} ---"
        )?;
        let (lossy_max, lossy_base) = run_series(out, &scale, loss)?;
        kv(
            out,
            &format!("loss-axis check (loss {loss})"),
            format!(
                "spike {:.1}s, baseline {:.2}s — retries keep queries completing",
                lossy_max as f64 / 1e6,
                lossy_base / 1e6
            ),
        )?;
    }
    Ok(verdict)
}
